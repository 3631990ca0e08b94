import threading

import pytest
from conftest import blas_counts as counts

from grou import _blas
from grou._blas import one_blas_thread, openblas_controls
from grou.benchmarks import _study_one_path, predictive_study_config
from grou.graphs import weight_matrices
from grou.model import build_companion


class TestOneBlasThread:
    def test_one_thread_inside_scope(self, blas_at_two):
        with one_blas_thread():
            assert counts(blas_at_two) == [1] * len(blas_at_two)
        assert counts(blas_at_two) == [2] * len(blas_at_two)

    def test_restores_counts_after_raise(self, blas_at_two):
        with pytest.raises(ValueError, match="boom"), one_blas_thread():
            raise ValueError("boom")
        assert counts(blas_at_two) == [2] * len(blas_at_two)

    def test_missing_symbols_pin_nothing(self, blas_at_two, monkeypatch):
        monkeypatch.setattr(_blas, "_OPENBLAS_SYMBOLS", ())
        assert openblas_controls() == []
        with one_blas_thread():
            assert counts(blas_at_two) == [2] * len(blas_at_two)
        assert counts(blas_at_two) == [2] * len(blas_at_two)

    def test_overlapping_scopes_restore_counts(self, blas_at_two):
        """Two user threads hold the scope at once; the pin holds until the later one leaves."""
        one, two = [1] * len(blas_at_two), [2] * len(blas_at_two)
        first_in, second_in, first_out = threading.Event(), threading.Event(), threading.Event()
        seen = {}

        def first():
            with one_blas_thread():
                first_in.set()
                assert second_in.wait(timeout=10)
            first_out.set()

        def second():
            assert first_in.wait(timeout=10)
            with one_blas_thread():
                second_in.set()
                assert first_out.wait(timeout=10)
                seen["after_first_left"] = counts(blas_at_two)

        users = [threading.Thread(target=first), threading.Thread(target=second)]
        for user in users:
            user.start()
        for user in users:
            user.join(timeout=20)
        assert not any(user.is_alive() for user in users)
        assert seen["after_first_left"] == one
        assert counts(blas_at_two) == two


def test_study_reports_blas_invariant():
    """A K=10 study path of 400 points gives identical reports at the default
    BLAS thread count and inside the one-thread scope."""
    config = predictive_study_config(n_paths=2, seed=3, n_obs=400, test_size=100)
    system = build_companion(config.params, weight_matrices(config.graph, 1))

    def summary(i):
        return [(r.kind, r.rmse, r.dir_acc) for r in _study_one_path(config, system, i)]

    at_default = [summary(i) for i in range(config.n_paths)]
    with one_blas_thread():
        pinned = [summary(i) for i in range(config.n_paths)]
    assert pinned == at_default
    assert [kind for kind, _, _ in at_default[0]] == list(config.models)
