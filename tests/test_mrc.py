import importlib
import warnings
from datetime import datetime, timezone
from unittest import mock

import numpy as np
import pytest
from conftest import (
    ingest_prices_loop,
    read_edge_series_split,
    set_blas_threads,
    write_edge_series_per_pair,
)
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from grou.errors import IngestionError
from grou.mrc import (
    MrcConfig,
    PriceMatrix,
    RollingMrc,
    _window_starts,
    ingest_prices,
    mrc,
    mrc_window_length,
    read_edge_series_csv,
    rolling_mrc,
    write_edge_series_csv,
)

# the module itself: the package exports a function of the same name
mrc_module = importlib.import_module("grou.mrc")


def mrc_naive(values, cfg):
    """Literal double-loop evaluation of the pre-averaged covariance."""
    values = np.asarray(values, dtype=float)
    n, d = values.shape
    k = mrc_window_length(n, cfg)
    half = k // 2
    m = n - k + 1
    gram = np.zeros((d, d))
    for i in range(m):
        pre = np.zeros(d)
        for j in range(i + half, i + k):
            pre += values[j]
        for j in range(i, i + half):
            pre -= values[j]
        gram += np.outer(pre, pre)
    scale = (n - 1) / (n - k + 1) * 12.0 / k / (k * k)
    cov = gram * scale
    if cfg.is_corr:
        sd = np.sqrt(np.diag(cov))
        cov = cov / np.outer(sd, sd)
    return cov


class TestWindowArithmetic:
    def test_paper_fixture(self):
        cfg = MrcConfig(delta=0.5, theta=1.0)
        k = mrc_window_length(101, cfg)
        assert k == 10
        assert 101 - k + 1 == 92

    def test_odd_rounds_up(self):
        # (n-1)^0.5 * theta = 9.9499 -> N=10 even; with theta=1.1 -> 11 -> 12
        assert mrc_window_length(100, MrcConfig(0.5, 1.1)) == 12

    def test_window_must_fit(self):
        with pytest.raises(ValueError):
            mrc_window_length(5, MrcConfig(0.9, 10.0))
        with pytest.raises(ValueError):
            mrc_window_length(2, MrcConfig(0.5, 0.1))

    @pytest.mark.parametrize("n_obs", [0, 1])
    def test_fewer_than_two_rows(self, n_obs):
        with pytest.raises(ValueError, match="at least 2"):
            mrc_window_length(n_obs, MrcConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MrcConfig(delta=0.0)
        with pytest.raises(ValueError):
            MrcConfig(theta=-1.0)


class TestMrc:
    def test_constant_prices_zero_covariance(self):
        values = np.ones((50, 3)) * 4.2
        out = mrc(values, MrcConfig())
        np.testing.assert_array_equal(out.matrix, np.zeros((3, 3)))

    def test_naive_oracle_bit_equality_on_integer_inputs(self):
        # integer-valued inputs keep every intermediate sum exact, so the
        # prefix-sum path and the double loop agree to the last bit
        rng = np.random.default_rng(3)
        for trial in range(5):
            values = rng.integers(-50, 50, size=(50, 3)).astype(float)
            cfg = MrcConfig(delta=0.5, theta=1.0)
            fast = mrc(values, cfg).matrix
            slow = mrc_naive(values, cfg)
            np.testing.assert_array_equal(fast, slow)

    def test_naive_oracle_float_inputs(self):
        rng = np.random.default_rng(4)
        values = rng.normal(size=(50, 3)).cumsum(axis=0)
        for cfg in (MrcConfig(0.5, 1.0), MrcConfig(0.4, 2.0), MrcConfig(0.5, 1.0, True)):
            fast = mrc(values, cfg).matrix
            slow = mrc_naive(values, cfg)
            np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=1e-14)

    def test_symmetric_psd(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=(200, 4)).cumsum(axis=0)
        out = mrc(values, MrcConfig()).matrix
        np.testing.assert_allclose(out, out.T, atol=1e-15)
        assert np.linalg.eigvalsh(out).min() > -1e-12

    def test_bilinearity_and_correlation_invariance(self):
        rng = np.random.default_rng(6)
        values = rng.normal(size=(120, 3)).cumsum(axis=0)
        scaled = values.copy()
        scaled[:, 1] *= 3.0
        base = mrc(values, MrcConfig()).matrix
        out = mrc(scaled, MrcConfig()).matrix
        np.testing.assert_allclose(out[1, 1], 9.0 * base[1, 1], rtol=1e-12)
        np.testing.assert_allclose(out[0, 1], 3.0 * base[0, 1], rtol=1e-12)
        corr_a = mrc(values, MrcConfig(is_corr=True)).matrix
        corr_b = mrc(scaled, MrcConfig(is_corr=True)).matrix
        np.testing.assert_allclose(corr_a, corr_b, rtol=1e-10)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        values = rng.normal(size=(80, 3)).cumsum(axis=0)
        perm = [2, 0, 1]
        a = mrc(values, MrcConfig()).matrix
        b = mrc(values[:, perm], MrcConfig()).matrix
        np.testing.assert_allclose(b, a[np.ix_(perm, perm)], rtol=1e-12)

    def test_correlated_brownian_recovery(self):
        # no microstructure noise: pre-averaged correlation estimates the
        # true constant correlation (full-scale study in acceptance)
        rho = 0.7
        chol = np.linalg.cholesky(np.array([[1.0, rho], [rho, 1.0]]))
        rng = np.random.default_rng(8)
        estimates = []
        for _ in range(30):
            increments = rng.standard_normal((23400, 2)) @ chol.T * 2e-4
            prices = increments.cumsum(axis=0)
            estimates.append(mrc(prices, MrcConfig(is_corr=True)).matrix[0, 1])
        assert abs(np.mean(estimates) - rho) < 0.05

    def test_pair_labels_canonical_order(self):
        pm = PriceMatrix(
            times=np.arange(60.0),
            log_prices=np.zeros((60, 3)),
            asset_ids=("AAA", "BBB", "CCC"),
        )
        out = mrc(pm, MrcConfig())
        assert out.pair_labels == ("AAA-BBB", "AAA-CCC", "BBB-CCC")
        assert out.pair_values.shape == (3,)


class TestRollingMrc:
    def make_prices(self, n=1200, d=3, seed=0):
        rng = np.random.default_rng(seed)
        prices = rng.normal(size=(n, d)).cumsum(axis=0) * 1e-3 + 4.0
        return PriceMatrix(np.arange(float(n)), prices, tuple(f"A{k}" for k in range(d)))

    def test_non_overlapping_windows(self):
        pm = self.make_prices()
        out = rolling_mrc(pm, MrcConfig(), window=300.0)
        assert out.values.shape == (4, 3)
        np.testing.assert_allclose(np.diff(out.window_starts), 300.0)

    def test_window_step_validation(self):
        pm = self.make_prices()
        with pytest.raises(ValueError):
            rolling_mrc(pm, MrcConfig(), window=100.0, step=200.0)

    def test_short_window_skipped_with_warning(self):
        # the second window catches only two ticks: too few to pre-average
        times = np.concatenate([np.arange(0.0, 300.0), [598.0, 599.0]])
        rng = np.random.default_rng(1)
        prices = rng.normal(size=(times.size, 2)).cumsum(axis=0)
        pm = PriceMatrix(times, prices, ("X", "Y"))
        with pytest.warns(UserWarning, match="skipped"):
            out = rolling_mrc(pm, MrcConfig(), window=300.0)
        assert out.skipped_windows == 1
        assert out.values.shape[0] == 1

    def test_gap_in_ticks_skips_empty_windows(self):
        # ticks stop at t=99 and resume at t=300: the windows starting at
        # 100 and 200 hold no row at all
        times = np.concatenate([np.arange(0.0, 100.0), np.arange(300.0, 400.0)])
        prices = np.random.default_rng(3).normal(size=(times.size, 2)).cumsum(axis=0)
        pm = PriceMatrix(times, prices, ("X", "Y"))
        with pytest.warns(UserWarning, match="skipped"):
            out = rolling_mrc(pm, MrcConfig(), window=100.0)
        assert out.skipped_windows == 2
        np.testing.assert_array_equal(out.window_starts, [0.0, 300.0])

    @pytest.mark.parametrize("ratio", [0, -1])
    def test_to_path_ratio_below_one_rejected(self, ratio):
        out = rolling_mrc(self.make_prices(), MrcConfig(), window=100.0)
        with pytest.raises(ValueError, match=f"ratio must be >= 1, got {ratio}"):
            out.to_path(ratio=ratio)

    def test_to_path_grid(self):
        pm = self.make_prices(n=4000)
        out = rolling_mrc(pm, MrcConfig(), window=100.0)
        path = out.to_path(mesh_fine=0.01, ratio=18)
        # head-trimmed so the coarse sub-grid divides the series evenly
        assert (path.n_points - 1) % 18 == 0
        assert path.n_points > out.values.shape[0] - 18
        np.testing.assert_array_equal(path.values[-1], out.values[-1])
        assert path.grid.mesh_fine == pytest.approx(0.01)
        assert path.grid.uniformity_coarse == pytest.approx(1.0)
        assert path.labels == out.pair_labels

    def test_thread_invariance(self, blas_at_two):
        """rolling_mrc runs at the caller's BLAS thread count; its values do not depend on it."""
        pm = self.make_prices(n=4000, d=8)
        at_two = rolling_mrc(pm, MrcConfig(), window=200.0, step=50.0)
        set_blas_threads(blas_at_two, 1)
        at_one = rolling_mrc(pm, MrcConfig(), window=200.0, step=50.0)
        assert at_one.values.tobytes() == at_two.values.tobytes()
        np.testing.assert_array_equal(at_one.window_starts, at_two.window_starts)

    @pytest.mark.parametrize("is_corr", [False, True])
    def test_batched_equals_per_window_loop(self, is_corr, monkeypatch):
        # irregular ticks give windows of many row counts, regular ticks one
        # large group of equal count; a long gap and a sparse stretch give
        # windows with too few rows; the small batch cap splits the groups
        rng = np.random.default_rng(11)
        times = np.concatenate([
            np.cumsum(rng.exponential(1.0, 900)),
            1000.0 + np.arange(600.0),
            2000.0 + np.cumsum(rng.exponential(8.0, 40)),
            2400.0 + np.cumsum(rng.exponential(0.5, 600)),
        ])
        prices = rng.normal(size=(times.size, 3)).cumsum(axis=0) * 1e-3 + 4.0
        pm = PriceMatrix(times, prices, ("A", "B", "C"))
        cfg = MrcConfig(delta=0.5, theta=1.0, is_corr=is_corr)
        monkeypatch.setattr(mrc_module, "_BATCH_CELLS", 1000)
        window, step = 40.0, 15.0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = rolling_mrc(pm, cfg, window=window, step=step)

        slack = float(np.median(np.diff(times)))
        candidates = _window_starts(times[0], times[-1] + slack + 1e-9, window, step)
        starts, rows, row_counts = [], [], []
        for start in candidates:
            lo = np.searchsorted(times, start, side="left")
            hi = np.searchsorted(times, start + window, side="left")
            try:
                rows.append(mrc(prices[lo:hi], cfg).pair_values)
            except ValueError:
                continue
            starts.append(start)
            row_counts.append(hi - lo)
        skipped = len(candidates) - len(starts)
        assert skipped > 0 and out.skipped_windows == skipped
        assert len(caught) == skipped
        # many row counts, and a group larger than one batch
        assert len(set(row_counts)) > 5 and row_counts.count(40) > 1000 // (40 * 3)
        np.testing.assert_array_equal(out.window_starts, starts)
        assert out.values.tobytes() == np.asarray(rows).tobytes()

    def test_csv_round_trip(self, tmp_path):
        pm = self.make_prices()
        out = rolling_mrc(pm, MrcConfig(), window=300.0)
        file = tmp_path / "edges.csv"
        write_edge_series_csv(out, file, header_lines=["config: {}"])
        back = read_edge_series_csv(file)
        np.testing.assert_array_equal(back.values, out.values)
        np.testing.assert_array_equal(back.window_starts, out.window_starts)
        assert back.pair_labels == out.pair_labels
        assert back.asset_ids == out.asset_ids
        assert back.is_corr is False

    def test_window_starts_do_not_accumulate_rounding(self):
        # one day of epoch seconds at a step that binary floating point
        # cannot represent; repeated addition drifts by 0.08 s over the day
        t0, step, window = 1.7e9, 0.1, 0.5
        starts = _window_starts(t0, t0 + 86_400.0, window, step)
        expected = t0 + step * np.arange(len(starts))
        np.testing.assert_array_equal(starts, expected)
        assert len(starts) == 863_996
        assert starts[-1] + window <= t0 + 86_400.0 < starts[-1] + step + window

    def test_step_must_be_positive(self):
        pm = self.make_prices()
        with pytest.raises(ValueError):
            rolling_mrc(pm, MrcConfig(), window=100.0, step=0.0)

    def test_headerless_edge_series_splits_labels(self, tmp_path):
        file = tmp_path / "edges.csv"
        file.write_text("window_start,pair,value\n0,A-B,1\n0,A-C,2\n0,B-C,3\n5,A-B,4\n5,A-C,5\n5,B-C,6\n")
        back = read_edge_series_csv(file)
        assert back.asset_ids == ("A", "B", "C")
        np.testing.assert_array_equal(back.window_starts, [0.0, 5.0])
        np.testing.assert_array_equal(back.values, [[1, 2, 3], [4, 5, 6]])

    def test_edge_series_out_of_pair_order_rejected(self, tmp_path):
        file = tmp_path / "edges.csv"
        file.write_text("window_start,pair,value\n0,A-B,1\n0,A-C,2\n5,A-C,5\n5,A-B,4\n")
        with pytest.raises(IngestionError):
            read_edge_series_csv(file)


# asset ids as a price-file header could carry them: printable, no comma
asset_ids = st.lists(
    st.text(
        st.characters(blacklist_categories=("Cc", "Cs"), blacklist_characters=","),
        min_size=1,
        max_size=8,
    ),
    min_size=2,
    max_size=5,
    unique=True,
)


@settings(max_examples=200, deadline=None)
@given(assets=asset_ids, is_corr=st.booleans(), n_windows=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
# two different pairs share the label "a-b-c"
@example(assets=["a-b", "c", "a", "b-c"], is_corr=True, n_windows=2, seed=0)
def test_edge_series_round_trip_with_any_asset_labels(tmp_path_factory, assets, is_corr, n_windows, seed):
    rng = np.random.default_rng(seed)
    n_pairs = len(assets) * (len(assets) - 1) // 2
    values = rng.standard_normal((n_windows, n_pairs)) * 10.0 ** rng.uniform(-300, 300, (n_windows, n_pairs))
    starts = 1.7e9 + np.cumsum(rng.uniform(0.1, 60.0, n_windows))
    rolling = RollingMrc(
        window_starts=starts,
        values=values,
        pair_labels=tuple(f"{a}-{b}" for i, a in enumerate(assets) for b in assets[i + 1 :]),
        asset_ids=tuple(assets),
        is_corr=is_corr,
    )
    file = tmp_path_factory.mktemp("edges") / "edges.csv"
    write_edge_series_csv(rolling, file, header_lines=["config: {}"])
    back = read_edge_series_csv(file)
    assert back.asset_ids == rolling.asset_ids
    assert back.pair_labels == rolling.pair_labels
    assert back.is_corr is is_corr
    np.testing.assert_array_equal(back.window_starts, rolling.window_starts)
    np.testing.assert_array_equal(back.values, rolling.values)


def edge_rolling(assets, is_corr, n_windows, seed):
    """A rolling estimate over ``assets`` with values across the whole float range."""
    rng = np.random.default_rng(seed)
    n_pairs = len(assets) * (len(assets) - 1) // 2
    values = rng.standard_normal((n_windows, n_pairs)) * 10.0 ** rng.uniform(-300, 300, (n_windows, n_pairs))
    return RollingMrc(
        window_starts=1.7e9 + np.cumsum(rng.uniform(0.1, 60.0, n_windows)),
        values=values,
        pair_labels=tuple(f"{a}-{b}" for i, a in enumerate(assets) for b in assets[i + 1 :]),
        asset_ids=tuple(assets),
        is_corr=is_corr,
    )


@settings(max_examples=200, deadline=None)
@given(assets=asset_ids, is_corr=st.booleans(), n_windows=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
@example(assets=["a%s", "b%%", "c"], is_corr=False, n_windows=2, seed=0)
def test_edge_series_writer_matches_per_pair_formatting(tmp_path_factory, assets, is_corr, n_windows, seed):
    rolling = edge_rolling(assets, is_corr, n_windows, seed)
    folder = tmp_path_factory.mktemp("edges")
    write_edge_series_csv(rolling, folder / "new.csv", header_lines=["config: {}"])
    write_edge_series_per_pair(rolling, folder / "old.csv", header_lines=["config: {}"])
    assert (folder / "new.csv").read_bytes() == (folder / "old.csv").read_bytes()


def read_both(file):
    """What the reader and its oracle make of ``file``: the result's bytes, or the error."""
    outcomes = []
    for read in (read_edge_series_csv, read_edge_series_split):
        try:
            r = read(file)
        except (IngestionError, ValueError) as exc:
            outcomes.append((type(exc), str(exc)))
        else:
            outcomes.append(
                (r.window_starts.tobytes(), r.values.tobytes(), r.pair_labels, r.asset_ids, r.is_corr)
            )
    return outcomes


_EDGE_HEAD = '# config: {}\n# assets: ["A", "B", "C"]\n# is_corr: false\nwindow_start,pair,value\n'
_EDGE_ROWS = ["0,A-B,1", "0,A-C,2", "0,B-C,3", "5,A-B,4", "5,A-C,5", "5,B-C,6"]


def edge_file(rows, head=_EDGE_HEAD, newline="\n"):
    return (head + "\n".join(rows) + "\n").replace("\n", newline)


_MALFORMED_EDGES = {
    "plain": edge_file(_EDGE_ROWS),
    "crlf": edge_file(_EDGE_ROWS, newline="\r\n"),
    "bare_cr": edge_file(_EDGE_ROWS, newline="\r"),
    "no_trailing_newline": edge_file(_EDGE_ROWS).rstrip("\n"),
    "two_fields": edge_file(_EDGE_ROWS[:2] + ["0,B-C"] + _EDGE_ROWS[3:]),
    "four_fields": edge_file(_EDGE_ROWS[:4] + ["5,A-C,5,7"] + _EDGE_ROWS[5:]),
    "commas_shifted": edge_file(["0,A-B,1,0", "A-C,2"] + _EDGE_ROWS[2:]),
    "out_of_order": edge_file(_EDGE_ROWS[:3] + [_EDGE_ROWS[4], _EDGE_ROWS[3], _EDGE_ROWS[5]]),
    "missing_row": edge_file(_EDGE_ROWS[:-1]),
    "label_prefix": edge_file(_EDGE_ROWS[:3] + ["5,A-BB,4"] + _EDGE_ROWS[4:]),
    "unequal_stamps": edge_file(_EDGE_ROWS[:4] + ["6,A-C,5"] + _EDGE_ROWS[5:]),
    "nan_stamp": edge_file(["nan,A-B,1", "nan,A-C,2", "nan,B-C,3"]),
    "blank_and_comment_lines": edge_file(_EDGE_ROWS[:2] + ["", "# a comment", " \t "] + _EDGE_ROWS[2:] + [""]),
    "comment_sets_meta": edge_file(_EDGE_ROWS[:3] + ["# is_corr: true"] + _EDGE_ROWS[3:]),
    "comment_bad_meta": edge_file(_EDGE_ROWS[:3] + ["# assets: [oops"] + _EDGE_ROWS[3:]),
    "header_with_spaces": edge_file(_EDGE_ROWS, head=_EDGE_HEAD.replace("window_start,pair,value", " window_start,pair,value ")),
    "no_header": '# assets: ["A", "B", "C"]\n' + "\n".join(_EDGE_ROWS) + "\n",
    "header_only": _EDGE_HEAD,
    "empty": "",
    "leading_space_row": edge_file([" 0,A-B,1"] + _EDGE_ROWS[1:]),
    "no_assets_line": edge_file(_EDGE_ROWS, head="window_start,pair,value\n"),
    "no_assets_unequal": edge_file(["0,A-B,1", "0,A-C,2", "1,A-B,1"], head="window_start,pair,value\n"),
    "odd_labels": edge_file(
        ['0,a#1-b "2",1', "0,a#1-c d,2", '0,b "2"-c d,3'],
        head='# assets: ["a#1", "b \\"2", "c d"]\nwindow_start,pair,value\n',
    ),
    "values_underscore": edge_file(_EDGE_ROWS[:1] + ["0,A-C,1_0"] + _EDGE_ROWS[2:]),
    "values_nan_inf": edge_file(["0,A-B,nan", "0,A-C,inf", "0,B-C,-Infinity"]),
    "values_spaces": edge_file(["0, A-B,1", "0,A-C, 2 ", "0,B-C,\t3"]),
    "values_arabic_digits": edge_file(["0,A-B,١٠", "0,A-C,2", "0,B-C,3"]),
    "values_unit_separator": edge_file(["0,A-B,1\x1f", "0,A-C,2", "0,B-C,3"]),
    "values_vertical_tab": edge_file(["0,A-B,1\x0b", "0,A-C,2\x0c", "0,B-C,3\x85"]),
    "values_bad": edge_file(["0,A-B,1x", "0,A-C,2", "0,B-C,3"]),
    "bad_value_and_unequal_stamps": edge_file(["0,A-B,1x", "1,A-C,2", "0,B-C,3"]),
}


@pytest.mark.parametrize("name", list(_MALFORMED_EDGES))
def test_edge_series_reader_matches_the_split_reader(tmp_path, name):
    file = tmp_path / "edges.csv"
    file.write_bytes(_MALFORMED_EDGES[name].encode())
    new, old = read_both(file)
    assert new == old


@st.composite
def edited_edge_files(draw):
    """A written edge series, then a few lines inserted, replaced or swapped."""
    lines = edge_file(_EDGE_ROWS).splitlines()
    edits = st.sampled_from(["", "# note", "# is_corr: true", " ", "0,A-B", "0,A-B,1,2", "5,A-B,1_0",
                             "5,A-C,nan", "6,B-C,6", "0,A-B,1\x1c", "window_start,pair,value"])
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        action = draw(st.sampled_from(["insert", "replace", "swap"]))
        if action == "insert" or not lines:
            lines.insert(at, draw(edits))
        elif action == "replace":
            lines[min(at, len(lines) - 1)] = draw(edits)
        else:
            other = draw(st.integers(0, len(lines) - 1))
            at = min(at, len(lines) - 1)
            lines[at], lines[other] = lines[other], lines[at]
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=150, deadline=None)
@given(text=edited_edge_files())
def test_edited_edge_series_read_like_the_split_reader(tmp_path_factory, text):
    file = tmp_path_factory.mktemp("edges") / "edges.csv"
    file.write_bytes(text.encode())
    new, old = read_both(file)
    assert new == old


def test_written_edge_series_takes_the_fast_read(tmp_path):
    """A file the writer made goes to numpy's reader whole; its rows are never split in Python."""
    file = tmp_path / "edges.csv"
    rolling = edge_rolling(["A0", "A1", "A2", "A3"], False, 50, 3)
    write_edge_series_csv(rolling, file, header_lines=["config: {}"])
    edge_cells, reads = mrc_module._edge_cells, []

    def spy(*args):
        reads.append(edge_cells(*args))
        return reads[-1]

    with mock.patch.object(mrc_module, "_edge_cells", spy), mock.patch.object(
        mrc_module, "_edge_meta", wraps=mrc_module._edge_meta
    ) as meta:
        back = read_edge_series_csv(file)
    assert len(reads) == 1 and reads[0] is not None
    # the entries were looked for in the lines above the header only
    assert meta.call_args.args[1] == ["# config: {}", '# assets: ["A0", "A1", "A2", "A3"]', "# is_corr: false"]
    assert back.values.tobytes() == rolling.values.tobytes()
    assert back.window_starts.tobytes() == rolling.window_starts.tobytes()


class TestIngest:
    def write(self, tmp_path, text):
        file = tmp_path / "prices.csv"
        file.write_text(text)
        return file

    def test_aligned_passthrough_log(self, tmp_path):
        file = self.write(
            tmp_path, "timestamp,SPY,NDAQ\n0,100,50\n1,101,51\n2,102,52\n"
        )
        pm = ingest_prices(file, frequency=1.0)
        np.testing.assert_allclose(pm.log_prices[:, 0], np.log([100, 101, 102]))
        assert pm.asset_ids == ("SPY", "NDAQ")
        assert pm.skipped_rows == 0

    def test_last_tick_in_bin_wins(self, tmp_path):
        file = self.write(
            tmp_path, "timestamp,SPY\n0.0,100\n0.4,101\n0.9,99\n1.5,102\n"
        )
        pm = ingest_prices(file, frequency=1.0)
        np.testing.assert_allclose(np.exp(pm.log_prices[:, 0]), [99.0, 102.0])

    def test_gap_seconds_forward_filled(self, tmp_path):
        # five-row fixture with a two-second hole
        file = self.write(
            tmp_path, "timestamp,SPY\n0,100\n1,101\n4,104\n5,105\n6,106\n"
        )
        pm = ingest_prices(file, frequency=1.0)
        np.testing.assert_allclose(
            np.exp(pm.log_prices[:, 0]), [100, 101, 101, 101, 104, 105, 106]
        )

    def test_bad_rows_counted_and_skipped(self, tmp_path):
        file = self.write(
            tmp_path,
            "timestamp,SPY\n0,100\nnot-a-time,101\n1,-5\n2,abc\n3,103\n",
        )
        pm = ingest_prices(file, frequency=1.0)
        assert pm.skipped_rows == 3
        assert pm.times.size == 4

    def test_iso_and_nanosecond_timestamps(self, tmp_path):
        iso = self.write(
            tmp_path,
            "timestamp,SPY\n2023-01-02T14:30:00+00:00,100\n2023-01-02T14:30:01+00:00,101\n",
        )
        pm = ingest_prices(iso, frequency=1.0)
        assert pm.times.size == 2
        ns = tmp_path / "ns.csv"
        ns.write_text("timestamp,SPY\n1672669800000000000,100\n1672669801000000000,101\n")
        pm2 = ingest_prices(ns, frequency=1.0)
        np.testing.assert_allclose(pm2.times, pm.times)

    def test_market_hours_and_trim_filters(self, tmp_path):
        rows = [
            ("2023-01-02T09:00:00+00:00", 100),  # pre-open
            ("2023-01-02T10:00:00+00:00", 101),  # first hour (trimmed)
            ("2023-01-02T12:00:00+00:00", 102),  # core
            ("2023-01-02T12:00:01+00:00", 102),  # core
            ("2023-01-02T15:30:00+00:00", 103),  # last hour (trimmed)
            ("2023-01-02T16:30:00+00:00", 104),  # post-close
        ]
        text = "timestamp,SPY\n" + "".join(f"{t},{p}\n" for t, p in rows)
        file = self.write(tmp_path, text)
        hours = ingest_prices(file, frequency=1.0, market_hours=True)
        assert hours.skipped_rows == 2  # pre-open and post-close
        trimmed = ingest_prices(file, frequency=1.0, trim_open_close=True)
        assert trimmed.skipped_rows == 4
        assert trimmed.log_prices.shape[0] == 2

    def test_empty_output_raises(self, tmp_path):
        file = self.write(tmp_path, "timestamp,SPY\nbad,1\n")
        with pytest.raises(IngestionError):
            ingest_prices(file)

    def test_bad_header_raises(self, tmp_path):
        file = self.write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(IngestionError):
            ingest_prices(file)

    @pytest.mark.parametrize("stamp", ["nan", "inf", "-inf", "1e400", "NaN"])
    def test_non_finite_timestamp_is_a_skipped_row(self, tmp_path, stamp):
        file = self.write(tmp_path, f"timestamp,SPY\n0,100\n{stamp},101\n1,102\n2,103\n")
        pm = ingest_prices(file, frequency=1.0)
        assert pm.skipped_rows == 1
        np.testing.assert_array_equal(pm.times, [0.0, 1.0, 2.0])

    def test_absurd_time_span_raises(self, tmp_path):
        file = self.write(tmp_path, "timestamp,SPY\n0,100\n1e300,101\n1,102\n")
        with pytest.raises(IngestionError, match="bins over a time span of 1e"):
            ingest_prices(file, frequency=1.0)

    def test_grid_out_of_memory_raises(self, tmp_path, monkeypatch):
        # 1e11 one-second bins: the grid would take 745 GiB; the allocation
        # is made to fail here rather than asked for
        def out_of_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(np, "full", out_of_memory)
        file = self.write(tmp_path, "timestamp,SPY\n0,100\n100000000000,101\n")
        with pytest.raises(IngestionError, match="100000000001 frequency bins"):
            ingest_prices(file, frequency=1.0)

    @pytest.mark.parametrize("frequency", [0.0, -1.0, float("nan")])
    def test_frequency_must_be_positive(self, tmp_path, frequency):
        file = self.write(tmp_path, "timestamp,SPY\n0,100\n1,101\n")
        with pytest.raises(ValueError, match="frequency"):
            ingest_prices(file, frequency=frequency)


# a trading day and the four wall-clock edges the session filters test against
_DAY = 1_672_617_600  # 2023-01-02T00:00:00Z
_EDGES = (9 * 3600 + 1800, 10 * 3600 + 1800, 15 * 3600, 16 * 3600)
# fractions of a second within a microsecond of a whole second, and plain ones
_FRACTIONS = (
    "", ".5", ".25", ".9999994", ".9999995", ".9999996", ".999999", ".0000004", ".0000005", ".000001"
)


@st.composite
def price_files(draw):
    """A price CSV mixing every row the ingester must take or skip, and the reader's block size."""
    n_assets = draw(st.integers(1, 3))
    edge = _DAY + draw(st.sampled_from(_EDGES))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    # numeric stamps only, so that whole blocks reach numpy's reader
    numeric = draw(st.booleans())
    if draw(st.integers(0, 5)) == 0:  # bare carriage returns
        newline = "\r"
    # plain ISO-8601 stamps only, so that whole blocks of them reach datetime64
    iso_only = not numeric and draw(st.integers(0, 3)) == 0
    # all of them in one year before 1970; the last two lie beyond what a float holds to the microsecond
    era = draw(st.sampled_from(["", "", "1969", "1900", "1601", "0001"])) if iso_only else ""

    def stamp():
        offset = draw(st.one_of(st.sampled_from([-1, 0, 1]), st.sampled_from([-1, 0]), st.integers(-90, 90)))
        second = edge + offset + draw(st.sampled_from([0, 0, 0, 5400, -7200]))
        fraction = draw(st.sampled_from(_FRACTIONS))
        style = draw(st.sampled_from(["seconds", "seconds", "nanoseconds", "iso", "iso_naive"]))
        if numeric and style.startswith("iso"):
            style = "seconds"
        if iso_only:
            style = "iso_naive"
        if style == "seconds":
            return f"{second}{fraction}"
        if style == "nanoseconds":
            return str(second * 10**9 + int((fraction or ".0")[1:].ljust(9, "0")[:9]))
        text = datetime.fromtimestamp(second, tz=timezone.utc).isoformat()
        text = text[:19] + fraction + text[19:]
        text = era + text[len(era) :]
        text = text[:-6] if style == "iso_naive" else text
        # forms that datetime64 and datetime.fromisoformat may read apart
        form = draw(st.sampled_from(["as_is"] * 4 + ["space", "digits", "zulu", "offset", "compact", "nat"]))
        if form == "space":
            text = text.replace("T", " ")
        elif form == "digits":  # none (a bare point) to nine fractional digits
            text = text[:19] + "." + "".join(draw(st.sampled_from("0123456789")) for _ in range(draw(st.integers(0, 9))))
        elif form in ("zulu", "offset"):
            text = text[:19] + {"zulu": "Z", "offset": "+01:00"}[form]
        elif form == "compact":
            text = text[:19].replace("-", "").replace(":", "")
        elif form == "nat":
            text = "NaT"
        return text

    def price():
        value = draw(st.sampled_from(["100", "101.5", "99.25", " 100.125 ", "1_00", "1e2", "0.5"]))
        if draw(st.integers(0, 9)) == 0:
            value = draw(st.sampled_from(["0", "-3", "inf", "nan", "abc", ""]))
        if draw(st.integers(0, 9)) == 0:  # tokens float and numpy's reader may read apart
            value = draw(st.sampled_from(["١٠٠", "1d2", "0x10", " 100 ", "+5"]))
        if draw(st.integers(0, 9)) == 0:  # line ends of str.splitlines and control characters in a cell
            char = draw(st.sampled_from(["\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\u2028"]))
            value = draw(st.sampled_from([char + value, value + char, value[:1] + char + value[1:]]))
        return f'"{value}"' if draw(st.booleans()) else value

    lines = draw(st.sampled_from([[], ["# leading comment"]]))
    header = [draw(st.sampled_from(["timestamp", "Time"]))] + [f"A{j}" for j in range(n_assets)]
    lines.append(",".join(header))
    first_row = len(lines)
    # a comment line or a quoted cell deep inside a long clean run (its stamps in 2023, so not with an era)
    if not era and draw(st.integers(0, 4)) == 0:
        run = [f"{_DAY + 36000 + k},{100 + k % 7}" + ",101.5" * (n_assets - 1) for k in range(draw(st.integers(50, 300)))]
        odd = draw(st.sampled_from(["# deep comment", f'{_DAY + 37000},"100"' + ",99" * (n_assets - 1)]))
        run.insert(draw(st.integers(10, len(run))), odd)
        lines += run
    # every data row short: with a block of one or two lines, numpy's reader sees a narrow block
    narrow = draw(st.integers(0, 4)) == 0
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(["row"] * 6 + ["short", "long", "blank", "comment", "bad_stamp"]))
        if draw(st.integers(0, 4)) == 0:  # rows numpy's reader drops, widens or splits
            kind = draw(st.sampled_from(["whitespace", "trailing_comma", "quoted_newline"]))
        if narrow and kind == "row":
            kind = "short"
        cells = [stamp()] + [price() for _ in range(n_assets)]
        if kind == "short":
            cells = cells[:-1]
        elif kind == "long":
            cells.append("1")
        elif kind == "bad_stamp":
            cells[0] = draw(st.sampled_from(["x", "nan", "inf", "", "2023-13-01"]))
        elif kind == "trailing_comma":
            cells.append("")
        elif kind == "quoted_newline":  # one record over two lines
            cells[-1] = f'"100{newline}"'
        lines.append(
            {"blank": "", "comment": "# a comment, with a comma", "whitespace": " \t "}.get(
                kind, ",".join(cells)
            )
        )
    # a run of comment lines longer than a small block
    if draw(st.integers(0, 4)) == 0:
        at = draw(st.integers(first_row, len(lines)))
        lines[at:at] = ["# one of a run of comments"] * draw(st.integers(1, 40))
    # a comment straight after an unclosed quote: the record reads on past it
    if draw(st.integers(0, 4)) == 0:
        at = draw(st.integers(first_row, len(lines)))
        lines[at:at] = [f'{stamp()},"100', "# after an open quote", '"' + ",99" * (n_assets - 1)]
    return newline.join(lines) + newline, 8 * draw(st.sampled_from([1, 2, 3, 7, 32_768]))


def _edge_case_file():
    """Rows within a microsecond of every session edge, duplicate stamps, all three formats."""
    day = _DAY
    rows = [
        f"{day + 34199}.9999996,100,\"101.5\"",  # 09:29:59.9999996 rounds into the session
        f"{day + 34199}.9999994,100,100",  # 09:29:59.999999: still before the open
        f"{day + 40000},97,97",
        f"{day + 40000},96, 96 ",  # same stamp, same block: the later row wins
        f"{day + 37799}.9999996,101,101",  # rounds to 10:30:00, the trimmed open
        "",
        f"{(day + 40000) * 10**9 + 500_000_000},95,95",  # epoch nanoseconds
        "2023-01-02T11:06:41+00:00,94,94",  # ISO-8601 sends its block cell by cell
        f"{day + 40001},93",  # short row
        "nan,1,1",
        f"{day + 40002},0,5",  # non-positive price
        f"{day + 53999}.9999994,92,92",  # 14:59:59.999999: inside the trimmed session
        f"{day + 54000},91,91",  # 15:00:00: the trimmed close
        f"{day + 57599}.9999994,90,90",  # 15:59:59.999999: inside the session
        f"{day + 57600},89,89",  # 16:00:00: the close
    ]
    return "\r\n".join(["# leading comment", "timestamp,A0,A1", *rows]) + "\r\n", 16


# shrinking files through both ingesters takes minutes; a failure reports the example as drawn
@settings(max_examples=100, deadline=None, phases=[p for p in Phase if p is not Phase.shrink])
@given(
    file_and_block=price_files(),
    frequency=st.sampled_from([1.0, 0.5, 7.0]),
    market_hours=st.booleans(),
    trim_open_close=st.booleans(),
)
@example(file_and_block=_edge_case_file(), frequency=1.0, market_hours=True, trim_open_close=False)
@example(file_and_block=_edge_case_file(), frequency=1.0, market_hours=False, trim_open_close=True)
@example(file_and_block=_edge_case_file(), frequency=0.5, market_hours=False, trim_open_close=False)
def test_ingest_matches_row_loop(tmp_path_factory, file_and_block, frequency, market_hours, trim_open_close):
    text, block_chars = file_and_block
    file = tmp_path_factory.mktemp("prices") / "prices.csv"
    file.write_bytes(text.encode())
    options = dict(frequency=frequency, market_hours=market_hours, trim_open_close=trim_open_close)
    try:
        expected = ingest_prices_loop(file, **options)
    except IngestionError:
        expected = None
    # blocks of a line or a few with the smaller sizes
    with mock.patch.object(mrc_module, "_BLOCK_CHARS", block_chars):
        if expected is None:
            with pytest.raises(IngestionError):
                ingest_prices(file, **options)
            return
        got = ingest_prices(file, **options)
    assert got.skipped_rows == expected.skipped_rows
    assert got.asset_ids == expected.asset_ids
    assert got.times.tobytes() == expected.times.tobytes()
    assert got.log_prices.tobytes() == expected.log_prices.tobytes()


# files where a block reads apart in numpy and csv: a quoted cell that runs on
# past its line (a good row over two or three lines, the last unclosed), blank
# and whitespace-only lines (skipped rows numpy drops or rejects), and short
# rows that fill whole blocks (numpy takes its width from the first row)
_READ_APART = {
    "quoted_newline": 'timestamp,A0\n0,100\n1,"101\n"\n2,102\n3,"103\n\n"\n4,104\n5,"105',
    "blank_lines": "timestamp,A0,A1\n0,1,1\n\n1,2,2\n \t \n2,3,3\n\n",
    "short_rows": "timestamp,A0,A1\n0,1\n1,2\n2,3,3\n3,4\n4,5\n5,6,6\n",
    # numpy's reader strips these around a number, float rejects them
    "control_characters": "timestamp,A0,A1\n0,1\x1f,1\n1,2,\x1c2\n2,3,3\n3,\x1d4,4\n4,5,5\n",
    # one of them alone in its block: only the screen keeps the block from numpy's reader
    "control_character_alone": "timestamp,A0,A1\n0,1,1\n1,2\x1f,2\n2,3,3\n",
    # str.splitlines ends a line at these, file iteration does not
    "splitlines_ends": "timestamp,A0\n0,1\x0b\n1,\x852\n2,3\u2028\n3,4\x0c\n4,5\n5,6\x0b7,8\n9,10\u202811,12\n",
    # and these, which numpy's reader also strips around a number
    "splitlines_separators": "timestamp,A0\n0,1\n1,2\x1c3,4\n4,5\x1d6,7\n7,8\x1e9,10\n10,11\n",
    "bare_carriage_returns": "timestamp,A0,A1\r0,1,1\r1,2,2\r\r2,3,3\r",
    "comment_in_a_clean_run": "timestamp,A0\n" + "".join(f"{k},{k + 1}\n" for k in range(9)) + "# mid-file\n9,10\n",
}


@pytest.mark.parametrize("eighths", [1, 2, 3, 32_768])
@pytest.mark.parametrize("name", list(_READ_APART))
def test_chunks_read_apart_match_the_loop(tmp_path, name, eighths):
    """Blocks of ``8 * eighths`` characters: one line or a few, up to the whole file."""
    file = tmp_path / "prices.csv"
    file.write_bytes(_READ_APART[name].encode())
    with mock.patch.object(mrc_module, "_BLOCK_CHARS", 8 * eighths):
        got = ingest_prices(file)
    expected = ingest_prices_loop(file)
    assert got.skipped_rows == expected.skipped_rows
    assert got.times.tobytes() == expected.times.tobytes()
    assert got.log_prices.tobytes() == expected.log_prices.tobytes()


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_clean_blocks_skip_csv(tmp_path, newline):
    """numpy's reader takes every block of a clean file, quoted cells and ``#`` lines too; an ISO
    stamp or a blank line sends its one block through csv."""
    rows = [f"{_DAY + 36000 + i},{100 + i},{50 + i}.5" for i in range(40)]
    file = tmp_path / "prices.csv"

    def ingest(rows):
        file.write_bytes((newline.join(["# comment", "timestamp,A0,A1", *rows]) + newline).encode())
        with mock.patch.object(mrc_module, "_BLOCK_CHARS", 100), mock.patch.object(
            mrc_module, "_csv_cells", wraps=mrc_module._csv_cells
        ) as read:
            got = ingest_prices(file)
        expected = ingest_prices_loop(file)
        assert got.skipped_rows == expected.skipped_rows
        assert got.times.tobytes() == expected.times.tobytes()
        assert got.log_prices.tobytes() == expected.log_prices.tobytes()
        return got, read.call_count

    clean, calls = ingest(rows)
    assert calls == 0 and clean.skipped_rows == 0 and clean.times.size == 40
    stamped = "2023-01-02T10:00:20+00:00" + rows[20][rows[20].index(",") :]
    for odd, n_calls in [
        ([rows[20].replace(",120,", ',"120",')], 0),
        (["# a note", rows[20]], 0),
        ([stamped], 1),
        (["", rows[20]], 1),
    ]:
        got, calls = ingest(rows[:20] + odd + rows[21:])
        assert calls == n_calls, odd
        assert got.times.tobytes() == clean.times.tobytes()
        assert got.log_prices.tobytes() == clean.log_prices.tobytes()


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_clean_chunks_skip_the_cell_parser(tmp_path, newline):
    """numpy's reader takes every block of a clean file, quoted cells too; an ISO stamp sends its
    one block through the cell parser."""
    rows = [f'{_DAY + 36000 + i},{100 + i},"{50 + i}.5"' for i in range(40)]
    file = tmp_path / "prices.csv"

    def ingest(rows):
        file.write_bytes((newline.join(["# comment", "timestamp,A0,A1", *rows]) + newline).encode())
        with mock.patch.object(mrc_module, "_BLOCK_CHARS", 100), mock.patch.object(
            mrc_module, "_parse_cells", wraps=mrc_module._parse_cells
        ) as parse:
            return ingest_prices(file), parse.call_count

    clean, calls = ingest(rows)
    assert calls == 0 and clean.skipped_rows == 0 and clean.times.size == 40
    rows[20] = "2023-01-02T10:00:20+00:00" + rows[20][rows[20].index(",") :]
    stamped, calls = ingest(rows)
    assert calls == 1
    assert stamped.times.tobytes() == clean.times.tobytes()
    assert stamped.log_prices.tobytes() == clean.log_prices.tobytes()


# ISO-8601 forms datetime64 reads, or must leave to datetime.fromisoformat
_ISO_READ = ["2023-01-02", "2023-01-02T14", "2023-01-02T14:30", "2023-01-02 14:30:00",
             "2023-01-02T14:30:00.1234567", "1960-05-06T01:02:03.123456789", "1969-12-31T23:59:59.9"]
_ISO_LEFT = ["2023-01-02T14:30:00.", "2023-01-02T14:30:00Z", "2023-01-02T14:30:00+01:00", "20240301T093000",
             "NaT", "now", "today", "", "2023", "2023-01", "1672653600", " 2023-01-02", "2023-01-02t14:30",
             "0001-01-01T00:00:00.5", "2023-02-29", "2023-01-02T24:00", "2023-01-02T23:59:60", "+2023-01-02"]


@pytest.mark.parametrize("token", _ISO_READ + _ISO_LEFT)
def test_iso_stamps_read_as_fromisoformat(token):
    got = mrc_module._iso_stamps([token, token])
    assert (got is not None) == (token in _ISO_READ)
    if got is not None:
        assert got.tolist() == [mrc_module._parse_timestamp(token)] * 2


def test_plain_iso_chunks_skip_fromisoformat(tmp_path):
    file = tmp_path / "prices.csv"
    rows = [f"2023-01-02T10:00:{i:02d}.{i}, {100 + i},101" for i in range(40)]
    file.write_text("\n".join(["timestamp,A0,A1", *rows]) + "\n")
    with mock.patch.object(mrc_module, "_parse_timestamp", wraps=mrc_module._parse_timestamp) as per_cell:
        got = ingest_prices(file, frequency=0.5)
    assert per_cell.call_count == 0
    expected = ingest_prices_loop(file, frequency=0.5)
    assert got.times.tobytes() == expected.times.tobytes()
    assert got.log_prices.tobytes() == expected.log_prices.tobytes()


def test_stacked_grams_equal_one_window_at_a_time():
    """The pre-averaged Grams of a stack of windows, bit for bit those of each window's own product."""
    rng = np.random.default_rng(12)
    n_windows, n, d = 40, 61, 8
    blocks = rng.normal(size=(n_windows, n, d)).cumsum(axis=1) * 1e-3 + 4.6
    cfg = MrcConfig()
    k = mrc_window_length(n, cfg)
    half, m = k // 2, n - k + 1
    values = blocks - blocks[:, :1]
    prefix = np.concatenate([np.zeros((n_windows, 1, d)), np.cumsum(values, axis=1)], axis=1)
    pre = prefix[:, k : k + m] - 2.0 * prefix[:, half : half + m] + prefix[:, :m]
    scale = (n - 1) / (n - k + 1) * 12.0 / k / (k * k)
    expected = np.array([(block.T @ block) * scale for block in pre])
    assert mrc_module._preaveraged_cov(blocks, cfg).tobytes() == expected.tobytes()
