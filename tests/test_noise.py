import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grou.noise import (
    CompoundPoissonJumps,
    LevySpec,
    SymmetricGammaJumps,
    _gamma_differences,
    _poisson_arrivals,
    psd_factor,
    sample_increments,
    stream_rng,
)
from grou.simulate import make_uniform_grids

from conftest import gamma_differences_repeat


class TestTripletMoments:
    def test_pure_diffusion(self):
        spec = LevySpec(np.array([4.0]), np.array([[1.0]]))
        mu, cov = spec.mean_rate, spec.covariance_rate
        np.testing.assert_array_equal(mu, [4.0])
        np.testing.assert_array_equal(cov, [[1.0]])

    def test_compound_poisson_adds_jump_variance(self):
        for s2 in (1.0, 5.0, 10.0):
            spec = LevySpec(
                np.zeros(10),
                np.eye(10),
                CompoundPoissonJumps(rate=1.0, jump_cov=s2 * np.eye(10)),
            )
            mu, cov = spec.mean_rate, spec.covariance_rate
            np.testing.assert_allclose(mu, 0.0)
            np.testing.assert_allclose(cov, (1.0 + s2) * np.eye(10))

    def test_symmetric_gamma_moment_identity(self):
        # difference of two Gamma(k, s) subordinators: variance 2*k*s^2/time
        spec = LevySpec(np.zeros(3), np.eye(3), SymmetricGammaJumps(shape=1.0, scale=1.0))
        mu, cov = spec.mean_rate, spec.covariance_rate
        np.testing.assert_allclose(mu, 0.0)
        np.testing.assert_allclose(cov, 3.0 * np.eye(3))
        spec2 = LevySpec(np.zeros(2), 0.0 * np.eye(2), SymmetricGammaJumps(2.0, 0.5))
        np.testing.assert_allclose(spec2.covariance_rate, 2 * 2.0 * 0.25 * np.eye(2))


class TestSpecValidation:
    def test_non_psd_sigma_rejected(self):
        with pytest.raises(ValueError):
            LevySpec(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(ValueError):
            LevySpec(np.zeros(2), np.array([[1.0, 0.5], [0.4, 1.0]]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            LevySpec(np.zeros(2), np.eye(3))
        with pytest.raises(ValueError):
            LevySpec(np.zeros(2), np.eye(2), CompoundPoissonJumps(1.0, np.eye(3)))

    def test_json_round_trip(self):
        specs = [
            LevySpec(np.array([0.5, -1.0]), np.eye(2)),
            LevySpec(np.zeros(2), np.eye(2), CompoundPoissonJumps(2.0, 0.5 * np.eye(2))),
            LevySpec(np.zeros(2), np.eye(2), SymmetricGammaJumps(1.5, 0.7)),
        ]
        for spec in specs:
            back = LevySpec.from_json(spec.to_json())
            np.testing.assert_array_equal(back.drift, spec.drift)
            np.testing.assert_array_equal(back.brownian_cov, spec.brownian_cov)
            np.testing.assert_allclose(back.covariance_rate, spec.covariance_rate)

    def test_activity_classes(self):
        assert LevySpec(np.zeros(1), np.eye(1)).activity == "finite"
        assert (
            LevySpec(np.zeros(1), np.eye(1), CompoundPoissonJumps(1.0, np.eye(1))).activity
            == "finite"
        )
        assert (
            LevySpec(np.zeros(1), np.eye(1), SymmetricGammaJumps(1.0, 1.0)).activity
            == "infinite"
        )


class TestSampling:
    def test_deterministic_given_seed(self):
        spec = LevySpec(np.zeros(2), np.eye(2), CompoundPoissonJumps(3.0, np.eye(2)))
        grid = np.linspace(0, 1, 11)
        a = sample_increments(spec, grid, 42)
        b = sample_increments(spec, grid, 42)
        np.testing.assert_array_equal(a.total, b.total)
        np.testing.assert_array_equal(a.arrival_times, b.arrival_times)
        c = sample_increments(spec, grid, 43)
        assert not np.array_equal(a.total, c.total)

    def test_grid_validation(self):
        spec = LevySpec(np.zeros(1), np.eye(1))
        with pytest.raises(ValueError):
            sample_increments(spec, [0.0, 0.0, 1.0], 0)
        with pytest.raises(ValueError):
            sample_increments(spec, [0.0], 0)

    def test_brownian_unit_variance(self):
        spec = LevySpec(np.zeros(2), np.eye(2))
        grid = np.arange(100_001.0)
        batch = sample_increments(spec, grid, 7)
        cov = np.cov(batch.total.T)
        np.testing.assert_allclose(cov, np.eye(2), atol=0.02)

    def test_compound_poisson_total_variance(self):
        # unit-rate common arrivals with unit Gaussian sizes double the variance
        spec = LevySpec(np.zeros(2), np.eye(2), CompoundPoissonJumps(1.0, np.eye(2)))
        grid = np.arange(60_001.0)
        batch = sample_increments(spec, grid, 11)
        var = batch.total.var(axis=0)
        np.testing.assert_allclose(var, 2.0, rtol=0.05)
        counts = (np.abs(batch.large_jump) > 0).sum(axis=0)
        assert abs(counts[0] / 60_000 - (1 - np.exp(-1.0))) < 0.02

    def test_gamma_difference_moments(self):
        spec = LevySpec(np.zeros(1), 0.0 * np.eye(1), SymmetricGammaJumps(1.0, 1.0))
        grid = np.arange(200_001.0) * 0.5
        batch = sample_increments(spec, grid, 5)
        x = batch.total[:, 0]
        assert abs(x.mean()) < 3 * x.std() / np.sqrt(x.size)
        assert abs(x.var() / 0.5 - 2.0) < 0.05

    def test_gamma_symmetry(self):
        spec = LevySpec(np.zeros(1), 0.0 * np.eye(1), SymmetricGammaJumps(1.0, 1.0))
        grid = np.arange(1_000_001.0)
        x = sample_increments(spec, grid, 3).total[:, 0]
        skew = np.mean(((x - x.mean()) / x.std()) ** 3)
        assert abs(skew) < 0.05

    def test_compound_poisson_fourth_moment(self):
        # one component, Brownian var 1 plus unit-rate N(0,1) jumps over dt=1:
        # E[X^4] = 3 + 6 + 6 = 15 (Gaussian + cross + compound-Poisson terms)
        spec = LevySpec(np.zeros(1), np.eye(1), CompoundPoissonJumps(1.0, np.eye(1)))
        grid = np.arange(200_001.0)
        x = sample_increments(spec, grid, 17).total[:, 0]
        m4 = np.mean(x**4)
        se = np.std(x**4) / np.sqrt(x.size)
        assert abs(m4 - 15.0) < 4 * se

    def test_split_parts_sum_to_total(self):
        spec = LevySpec(
            np.array([0.3, -0.2]), np.eye(2), CompoundPoissonJumps(2.0, np.eye(2))
        )
        batch = sample_increments(spec, np.linspace(0, 5, 101), 9)
        np.testing.assert_allclose(
            batch.total, batch.continuous + batch.small_jump + batch.large_jump
        )

    def test_zero_brownian_cov_is_fine(self):
        spec = LevySpec(np.zeros(2), np.zeros((2, 2)))
        batch = sample_increments(spec, np.linspace(0, 1, 5), 0)
        np.testing.assert_array_equal(batch.total, 0.0)


class TestPoissonArrivals:
    def test_matches_interval_by_interval_draws(self):
        # the loop the vectorized sampler replaced: sorted uniforms drawn
        # interval by interval, after the counts and the sizes
        jumps = CompoundPoissonJumps(4.0, np.array([[1.0, 0.3], [0.3, 2.0]]))
        spacings = np.random.default_rng(2).uniform(0.01, 1.0, 300)
        times = np.concatenate([[0.0], np.cumsum(spacings)])
        owner, arrivals, sizes = _poisson_arrivals(jumps, times, 2, np.random.default_rng(7))
        rng = np.random.default_rng(7)
        counts = rng.poisson(jumps.rate * np.diff(times))
        want_sizes = rng.standard_normal((counts.sum(), 2)) @ psd_factor(jumps.jump_cov).T
        want = [
            np.sort(rng.uniform(times[i], times[i + 1], size=c)) for i, c in enumerate(counts) if c
        ]
        assert counts.max() > 1
        np.testing.assert_array_equal(arrivals, np.concatenate(want))
        np.testing.assert_array_equal(sizes, want_sizes)
        np.testing.assert_array_equal(owner, np.repeat(np.arange(counts.size), counts))


class TestGammaDifferences:
    """The sampler against one ``rng.gamma`` shape per element, bit for bit."""

    @pytest.mark.parametrize("scale", [1.0, 2.3])
    @pytest.mark.parametrize("kind", ["dyadic", "mesh_0.01", "irregular"])
    def test_matches_per_element_shapes(self, kind, scale):
        if kind == "dyadic":
            dt = np.diff(make_uniform_grids(2.0, 2.0**-8, 4).fine)
        elif kind == "mesh_0.01":
            dt = np.diff(make_uniform_grids(2.0, 0.01, 4).fine)
        else:
            dt = np.random.default_rng(4).uniform(0.001, 0.05, 400)
        # equal spacings take one scalar shape, the others a shape per element
        assert np.all(dt == dt[0]) == (kind == "dyadic")
        jumps = SymmetricGammaJumps(0.7, scale)
        got_rng, want_rng = np.random.default_rng(9), np.random.default_rng(9)
        got = _gamma_differences(jumps, dt, 3, got_rng)
        want = gamma_differences_repeat(jumps, dt, 3, want_rng)
        assert got.shape == (dt.size, 3)
        assert np.array_equal(got, want)
        # both consumed the same draws
        assert got_rng.random() == want_rng.random()


finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
positive = st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def levy_specs(draw):
    k = draw(st.integers(1, 4))
    drift = np.array(draw(st.lists(finite, min_size=k, max_size=k)))
    diag = np.diag(draw(st.lists(positive, min_size=k, max_size=k)))
    kind = draw(st.sampled_from(["none", "compound_poisson", "sym_gamma"]))
    if kind == "compound_poisson":
        jumps = CompoundPoissonJumps(draw(st.floats(0.0, 50.0)), 2.0 * diag)
    elif kind == "sym_gamma":
        jumps = SymmetricGammaJumps(draw(positive), draw(positive))
    else:
        jumps = None
    return LevySpec(drift, diag, jumps)


class TestNoiseJson:
    @settings(max_examples=60, deadline=None)
    @given(levy_specs())
    def test_round_trip_is_exact(self, spec):
        back = LevySpec.from_json(spec.to_json())
        assert back.to_json() == spec.to_json()
        assert type(back.jumps) is type(spec.jumps)
        np.testing.assert_array_equal(back.drift, spec.drift)
        np.testing.assert_array_equal(back.brownian_cov, spec.brownian_cov)
        np.testing.assert_array_equal(back.covariance_rate, spec.covariance_rate)

    @pytest.mark.parametrize(
        "doc",
        [
            '{"b": [0], "sigma": [[1]], "jumps": "none"}',
            '{"b": [0], "sigma": [[1]], "jumps": [1, 2]}',
            "[1, 2]",
            '"noise"',
        ],
    )
    def test_non_object_is_value_error(self, doc):
        with pytest.raises(ValueError, match="object"):
            LevySpec.from_json(doc)


class TestRngHelpers:
    def test_streams_are_independent_and_stable(self):
        a0 = stream_rng(100, 0).standard_normal(4)
        a1 = stream_rng(100, 1).standard_normal(4)
        again = stream_rng(100, 0).standard_normal(4)
        np.testing.assert_array_equal(a0, again)
        assert not np.array_equal(a0, a1)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(5)
        assert stream_rng(gen) is gen

    def test_psd_factor_reconstructs(self):
        rng = np.random.default_rng(2)
        A = rng.normal(size=(4, 4))
        M = A @ A.T
        F = psd_factor(M)
        np.testing.assert_allclose(F @ F.T, M, atol=1e-10)
        np.testing.assert_array_equal(psd_factor(np.zeros((3, 3))), np.zeros((3, 3)))
