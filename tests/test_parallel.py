import sys
import threading
import time

import pytest

from grou import _parallel
from grou._parallel import openblas_controls, parallel_map
from grou.benchmarks import _study_one_path, predictive_study_config
from grou.graphs import weight_matrices
from grou.model import build_companion


def counts(controls):
    return [get() for get, _ in controls]


@pytest.fixture
def blas_at_two():
    """Every bundled OpenBLAS set to 2 threads for the test, then put back."""
    controls = openblas_controls()
    if not controls:
        pytest.skip("no bundled OpenBLAS exposes a thread-count control")
    saved = counts(controls)
    for _, put in controls:
        put(2)
    yield controls
    for (_, put), count in zip(controls, saved):
        put(count)


class TestParallelMap:
    def test_results_keep_order(self):
        def slow_first(i):
            time.sleep(0.002 * (20 - i))
            return i * i

        assert parallel_map(slow_first, range(20), 2) == [i * i for i in range(20)]

    def test_workers_run_on_one_blas_thread(self, blas_at_two):
        inside = parallel_map(lambda _: counts(blas_at_two), range(4), 2)
        assert inside == [[1] * len(blas_at_two)] * 4
        assert counts(blas_at_two) == [2] * len(blas_at_two)

    def test_restores_counts_after_worker_raises(self, blas_at_two):
        def fail_on_three(i):
            if i == 3:
                raise ValueError("boom")
            return i

        with pytest.raises(ValueError, match="boom"):
            parallel_map(fail_on_three, range(6), 2)
        assert counts(blas_at_two) == [2] * len(blas_at_two)

    def test_missing_symbols_pin_nothing(self, blas_at_two, monkeypatch):
        def job(i):
            return i + 0.5, counts(blas_at_two)

        pinned = [value for value, _ in parallel_map(job, range(5), 2)]
        monkeypatch.setattr(_parallel, "_OPENBLAS_SYMBOLS", ())
        assert openblas_controls() == []
        unpinned = parallel_map(job, range(5), 2)
        assert [value for value, _ in unpinned] == pinned
        assert all(inside == [2] * len(blas_at_two) for _, inside in unpinned)
        assert counts(blas_at_two) == [2] * len(blas_at_two)

    def test_overlapping_maps_restore_counts(self, blas_at_two):
        """Two user threads map at once; the pin holds until the later map ends."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(10):
                both_running = threading.Barrier(2, timeout=10)
                first_done = threading.Event()
                seen = {}

                def first(i):
                    if i == 0:
                        both_running.wait()
                    return counts(blas_at_two)

                def second(i):
                    if i == 0:
                        both_running.wait()
                        assert first_done.wait(timeout=10)
                    return counts(blas_at_two)

                def run_first():
                    seen["first"] = parallel_map(first, range(3), 2)
                    first_done.set()

                def run_second():
                    seen["second"] = parallel_map(second, range(3), 2)

                users = [threading.Thread(target=run_first), threading.Thread(target=run_second)]
                for user in users:
                    user.start()
                for user in users:
                    user.join(timeout=20)
                assert not any(user.is_alive() for user in users)
                one = [1] * len(blas_at_two)
                assert seen["first"] == [one] * 3
                assert seen["second"] == [one] * 3
                assert counts(blas_at_two) == [2] * len(blas_at_two)
        finally:
            sys.setswitchinterval(interval)


def test_study_reports_blas_invariant():
    """A K=10 study path gives identical reports at the default BLAS thread
    count on the calling thread and at one BLAS thread inside the pool."""
    config = predictive_study_config(n_paths=2, seed=3, n_obs=400, test_size=100)
    system = build_companion(config.params, weight_matrices(config.graph, 1))

    def summary(i):
        return [(r.kind, r.rmse, r.dir_acc) for r in _study_one_path(config, system, i)]

    on_main = [summary(i) for i in range(config.n_paths)]
    in_pool = parallel_map(summary, range(config.n_paths), 2)
    assert in_pool == on_main
    assert [kind for kind, _, _ in on_main[0]] == list(config.models)
