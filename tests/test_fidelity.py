import numpy as np
import pytest

from xxchain.chain import ChainSpec, build_single_particle
from xxchain.fidelity import (
    _GRID_BLOCK,
    _channel_data,
    _fidelity_samples,
    average_fidelity_approx,
    average_fidelity_exact,
    edge_products,
    fidelity_from_edge_amplitudes,
    fidelity_grid,
    haar_average_mc,
    worst_case_fidelity,
)
from xxchain.protocol import find_transfer_time
from xxchain.sector_oracle import TwoQubitState, state_fidelity
from xxchain.spectral import diagonalize


class TestExactAverage:
    def test_initial_value(self):
        bd = average_fidelity_exact(ChainSpec(N=8, h=3.0), 0.0)
        assert abs(bd.value - 0.25) < 1e-12

    def test_terms_sum_to_value(self):
        spec = ChainSpec(N=10, h=7.0)
        for t in (0.0, 2.7, 14.1):
            bd = average_fidelity_exact(spec, t)
            assert abs(sum(bd.terms.values()) - bd.value) < 1e-12
            assert len(bd.terms) == 10

    def test_compact_form_agrees(self):
        spec = ChainSpec(N=10, h=7.0)
        for t in (0.9, 6.2, 21.5):
            bd = average_fidelity_exact(spec, t)
            compact = fidelity_from_edge_amplitudes(
                bd.amplitudes["f11"], bd.amplitudes["f22"], bd.amplitudes["g"]
            )
            assert abs(bd.value - compact) < 1e-10

    def test_perfect_transfer_override(self):
        assert fidelity_from_edge_amplitudes(1.0, 1.0, 1.0) == 1.0

    def test_range(self):
        spec = ChainSpec(N=9, h=2.0)
        for t in np.linspace(0.0, 30.0, 40):
            v = average_fidelity_exact(spec, t).value
            assert -1e-9 <= v <= 1.0 + 1e-9

    def test_uniform_field_leaves_magnitudes_invariant(self):
        # a uniform field only re-phases the sectors: |f| and |g| are
        # unchanged, so every magnitude-built term of the breakdown is too
        base = ChainSpec(N=8, h=5.0)
        shifted = ChainSpec(N=8, h=5.0, fields=tuple(
            f + 1.75 for f in base.fields
        ))
        t = 4.1
        a = average_fidelity_exact(base, t)
        b = average_fidelity_exact(shifted, t)
        for key in a.amplitudes:
            assert abs(abs(a.amplitudes[key]) - abs(b.amplitudes[key])) < 1e-10
        for key in ("pair_leakage", "diagonal_f", "cross_f", "pair_return"):
            assert abs(a.terms[key] - b.terms[key]) < 1e-10


class TestFidelityGrid:
    # N = 29 and 200 are quasi-Rabi, N = 46 is Rabi; the sizes cover one
    # point, partial, exact and overflowing blocks and a partial third block
    B = _GRID_BLOCK
    SIZES = (1, B - 1, B, B + 1, 2 * B + 37)

    @pytest.mark.parametrize("t0", [0.0, 1234.5])
    @pytest.mark.parametrize("N", [29, 46, 200])
    def test_matches_exact_pointwise(self, N, t0):
        spec = ChainSpec(N=N, h=100.0)
        sd = diagonalize(build_single_particle(spec))
        products = edge_products(spec, sd)
        step = 0.37
        n_max = max(self.SIZES)
        # every point for the small chains; at N = 200, where one exact
        # evaluation costs about 6 ms, every 16th point and the points
        # around each block boundary
        js = np.arange(n_max)
        if N > 50:
            edges = [j for b in range(0, n_max, self.B) for j in (b - 1, b, b + 1)]
            js = np.union1d(js[::16], [j for j in edges if 0 <= j < n_max] + [n_max - 1])
        ref = np.array([average_fidelity_exact(spec, t0 + j * step, sd).value for j in js])
        for n in self.SIZES:
            grid = fidelity_grid(sd.eigenvalues, products, t0, step, n)
            assert grid.shape == (n,)
            keep = js < n
            np.testing.assert_allclose(grid[js[keep]], ref[keep], rtol=0.0, atol=1e-12)

    def test_empty_grid_rejected(self):
        spec = ChainSpec(N=10, h=5.0)
        sd = diagonalize(build_single_particle(spec))
        with pytest.raises(ValueError):
            fidelity_grid(sd.eigenvalues, edge_products(spec, sd), 0.0, 0.1, 0)


class TestApproximateAverage:
    def test_maximum(self):
        assert abs(average_fidelity_approx(1.0, 0.0, 0.0) - 35.0 / 36.0) < 1e-14

    def test_zero_amplitudes(self):
        assert average_fidelity_approx(0.0, 0.0, 0.0) == 0.25

    def test_constraint_violation_rejected(self):
        with pytest.raises(ValueError):
            average_fidelity_approx(1.0, 0.5, 0.0)

    def test_exact_beats_approx_at_optimum(self):
        spec = ChainSpec(N=30, h=35.0)
        sd = diagonalize(build_single_particle(spec))
        res = find_transfer_time(spec, sd)
        from xxchain.amplitudes import propagator

        amp = propagator(sd, res.t_star)
        fa = average_fidelity_approx(
            amp.entry(1, 29), amp.entry(1, 30), amp.entry(2, 29)
        )
        assert res.fidelity > fa


class TestMonteCarlo:
    def test_initial_mean(self):
        mean, err = haar_average_mc(ChainSpec(N=8, h=3.0), 0.0, 5000, seed=1)
        assert abs(mean - 0.25) <= 3.0 * err

    def test_matches_exact(self):
        spec = ChainSpec(N=8, h=20.0)
        bd = average_fidelity_exact(spec, 5.0)
        mean, err = haar_average_mc(spec, 5.0, 20000, seed=2)
        assert abs(mean - bd.value) <= 3.0 * err

    def test_deterministic(self):
        spec = ChainSpec(N=8, h=4.0)
        a = haar_average_mc(spec, 2.0, 1000, seed=7)
        b = haar_average_mc(spec, 2.0, 1000, seed=7)
        assert a == b

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            haar_average_mc(ChainSpec(N=8), 1.0, 50, seed=0)

    def test_fast_path_matches_oracle_per_sample(self):
        # the vectorized sampler must agree with the brute-force sector
        # fidelity state by state, not just on average
        spec = ChainSpec(N=7, h=3.0)
        t = 2.3
        ch = _channel_data(spec, t)
        rng = np.random.default_rng(12)
        for _ in range(25):
            z = rng.normal(size=4) + 1j * rng.normal(size=4)
            z /= np.linalg.norm(z)
            fast = _fidelity_samples(ch, z[None, :])[0]
            slow = state_fidelity(spec, TwoQubitState.from_vector(z), t)
            assert abs(fast - slow) < 1e-12

    def test_fixed_input_beats_mean_at_zero(self):
        spec = ChainSpec(N=8, h=3.0)
        mean, _ = haar_average_mc(spec, 0.0, 2000, seed=3)
        vacuum = state_fidelity(spec, TwoQubitState(1, 0, 0, 0), 0.0)
        assert vacuum > mean


class TestWorstCase:
    def test_initial_worst_state(self):
        spec = ChainSpec(N=8, h=3.0)
        state, fmin = worst_case_fidelity(spec, 0.0, restarts=8, seed=4)
        # before any evolution nothing has reached the receivers, so any
        # state with no vacuum component scores zero (the minimum is
        # degenerate; only the vanishing vacuum weight is pinned down)
        assert fmin < 1e-6
        assert abs(state.alpha) < 0.05

    def test_min_below_mean(self):
        spec = ChainSpec(N=8, h=6.0)
        t = 4.4
        _, fmin = worst_case_fidelity(spec, t, restarts=8, seed=5)
        mean, _ = haar_average_mc(spec, t, 5000, seed=5)
        assert fmin <= mean

    def test_certified_against_haar_sample(self):
        spec = ChainSpec(N=8, h=6.0)
        t = 4.4
        _, fmin = worst_case_fidelity(spec, t, restarts=8, seed=6)
        ch = _channel_data(spec, t)
        rng = np.random.default_rng(6)
        Z = rng.normal(size=(10000, 4)) + 1j * rng.normal(size=(10000, 4))
        Z /= np.linalg.norm(Z, axis=1)[:, None]
        assert fmin <= np.min(_fidelity_samples(ch, Z)) + 1e-12
