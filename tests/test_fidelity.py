import tracemalloc

import numpy as np
import pytest
import scipy.optimize
from scipy.optimize import OptimizeResult

from conftest import random_grid_chain
from xxchain.chain import ChainSpec, build_single_particle
from xxchain.fidelity import (
    _MC_BLOCK,
    _SCREEN_POINTS,
    WorstCaseBudgetWarning,
    _channel_data,
    _fidelities_in_blocks,
    _fidelity_at,
    _fidelity_bound,
    _quartic,
    _sphere_objective,
    _state_forms,
    average_fidelity_approx,
    average_fidelity_exact,
    edge_products,
    fidelity_from_edge_amplitudes,
    haar_average_mc,
    worst_case_fidelity,
)
from xxchain.protocol import find_transfer_time
from xxchain.sector_oracle import TwoQubitState, _receiver_vectors, evolve, state_fidelity
from xxchain.spectral import diagonalize

# (spec, receiver order): the default geometry, receivers inside the chain
# with sites beyond both of them, senders between the receivers, and the
# mirrored receiver assignment
GEOMETRIES = [
    pytest.param(ChainSpec(N=7, h=3.0), "12", id="default"),
    pytest.param(ChainSpec(N=8, h=3.0, receivers=(4, 7)), "12", id="N8-r47"),
    pytest.param(
        ChainSpec(N=10, h=5.0, senders=(4, 5), receivers=(2, 8)), "12", id="N10-s45-r28"
    ),
    pytest.param(ChainSpec(N=7, h=3.0), "21", id="order21"),
]


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

    @pytest.mark.parametrize("spec, order", GEOMETRIES)
    def test_nielsen_relation(self, spec, order):
        # Fbar = (d F_e + 1) / (d + 1) with d = 4 (Nielsen, Phys. Lett. A
        # 303, 249, 2002), where the entanglement fidelity F_e =
        # (1/d^2) sum_c |Tr K_c|^2 comes from the dense sector oracle alone:
        # column i of the Kraus operator K_c is the receiver vector of
        # channel configuration c for the input basis state |i>
        t = 2.3
        columns = [
            _receiver_vectors(spec, evolve(spec, TwoQubitState.from_vector(e), t), order)
            for e in np.eye(4)
        ]
        configs = set().union(*columns)
        zero = np.zeros(4)
        traces = [sum(columns[i].get(c, zero)[i] for i in range(4)) for c in configs]
        F_e = sum(abs(tr) ** 2 for tr in traces) / 16.0
        bd = average_fidelity_exact(spec, t, receiver_order=order)
        assert abs(bd.value - (4.0 * F_e + 1.0) / 5.0) < 1e-12

    @pytest.mark.parametrize(
        "spec, order",
        [
            *GEOMETRIES,
            pytest.param(ChainSpec(N=10, h=5.0, senders=(4, 5), receivers=(2, 8)), "21",
                         id="N10-s45-r28-order21"),
        ],
    )
    @pytest.mark.parametrize("t", [0.0, 2.3, 17.9])
    def test_channel_record_is_the_oracle_kraus_operators(self, spec, order, t):
        # the Kraus operators K_c of the dense sector oracle, built as in
        # test_nielsen_relation: E0 is K_() itself, a single leak c = (n,)
        # reaches the receivers only through the four entries k_c, whose
        # Gram sum is M, and a pair leak c = (n, m) only through the
        # vacuum-from-pair entry, whose squared sum is pair_leak
        columns = [
            _receiver_vectors(spec, evolve(spec, TwoQubitState.from_vector(e), t), order)
            for e in np.eye(4)
        ]
        zero = np.zeros(4)
        kraus = {
            c: np.column_stack([col.get(c, zero) for col in columns])
            for c in set().union(*columns)
        }
        E0, K = _channel_data(spec, t, receiver_order=order)
        assert np.abs(E0 - kraus.pop(())).max() < 1e-12
        single = ([0, 0, 1, 2], [1, 2, 3, 3])
        expected = np.zeros((5, 5), dtype=complex)
        for c, Kc in kraus.items():
            if len(c) == 1:
                k = Kc[single]
                expected[:4, :4] += np.outer(k.conj(), k)
                Kc[single] = 0.0
            else:
                expected[4, 4] += abs(Kc[0, 3]) ** 2
                Kc[0, 3] = 0.0
            assert np.all(Kc == 0.0)
        assert np.abs(K - expected).max() < 1e-12
        assert abs(np.linalg.norm(E0) ** 2 + np.trace(K).real - 4.0) < 1e-12

    def test_memory_is_linear_in_chain_length(self):
        # the channel is built from the two sender rows: at N = 1000 one
        # real N x N matrix would take 8 MB
        spec = ChainSpec(N=1000, h=100.0)
        sd = diagonalize(build_single_particle(spec))
        average_fidelity_exact(spec, 1234.5, sd)
        tracemalloc.start()
        try:
            average_fidelity_exact(spec, 1234.5, sd)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 10**6

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
    # grid sizes of the screen: one point, one chunk of blocks whose last
    # block is partial, and _SCREEN_POINTS + 1, two chunks with one partial
    # block in the last
    SIZES = (1, 1023, 1024, 1025, 2085, _SCREEN_POINTS + 1)

    @pytest.mark.parametrize("t0", [0.0, 1234.5])
    @pytest.mark.parametrize("N", [29, 46, 200])
    def test_matches_exact_pointwise(self, N, t0):
        # N = 29 and 200 are quasi-Rabi, N = 46 is Rabi
        spec = ChainSpec(N=N, h=100.0)
        sd = diagonalize(build_single_particle(spec))
        ts = t0 + np.arange(64) * 0.37
        F = _fidelity_at(sd.eigenvalues, edge_products(spec, sd), ts)[0]
        ref = [average_fidelity_exact(spec, t, sd).value for t in ts]
        assert F.shape == (64,)
        np.testing.assert_allclose(F, ref, rtol=0.0, atol=1e-12)

    def test_empty_grid_rejected(self):
        spec = ChainSpec(N=10, h=5.0)
        sd = diagonalize(build_single_particle(spec))
        with pytest.raises(ValueError):
            _fidelity_bound(sd.eigenvalues, edge_products(spec, sd), 0.0, 0.1, 0)

    @pytest.mark.parametrize("seed", range(20))
    def test_bound_and_points_against_grid(self, seed):
        # the screen's bound must hold at every point the scan may evaluate
        # with _fidelity_at, also where it keeps every mode and only its
        # rounding slack separates the two
        spec, t0, step = random_grid_chain(seed)
        sd = diagonalize(build_single_particle(spec))
        products = edge_products(spec, sd)
        for n in self.SIZES:
            bound = _fidelity_bound(sd.eigenvalues, products, t0, step, n)
            assert bound.upper.shape == (n,)
            assert 0 <= bound.modes_kept <= spec.N
            assert (bound.truncation_bound == 0.0) == (bound.modes_kept == spec.N)
            F = _fidelity_at(sd.eigenvalues, products, t0 + np.arange(n) * step)[0]
            assert np.all(bound.upper >= F)

    @pytest.mark.parametrize("seed", range(10))
    def test_single_time_against_grid_and_channel(self, seed):
        # the one-time evaluator of the t* refinement and the transfer rows
        # against the ten-term channel amplitudes
        spec, t0, _ = random_grid_chain(seed)
        sd = diagonalize(build_single_particle(spec))
        products = edge_products(spec, sd)
        F, _, _, (f11, f12, f21, f22) = _fidelity_at(sd.eigenvalues, products, t0)
        assert isinstance(F, float)
        bd = average_fidelity_exact(spec, t0, sd)
        assert abs(F - bd.value) <= 1e-12
        amps = (bd.amplitudes[k] for k in ("f11", "f12", "f21", "f22"))
        np.testing.assert_allclose((f11, f12, f21, f22), list(amps), rtol=0.0, atol=1e-12)
        # an array of times gives the scalar call's values, a row of
        # amplitudes per time
        ts = t0 + np.linspace(-3.0, 3.0, 7)
        Fs, _, _, fs = _fidelity_at(sd.eigenvalues, products, ts)
        assert Fs.shape == (7,) and fs.shape == (7, 4)
        for t, Ft, ft in zip(ts, Fs, fs):
            F1, _, _, f1 = _fidelity_at(sd.eigenvalues, products, float(t))
            assert isinstance(F1, float)
            assert abs(Ft - F1) <= 1e-15
            np.testing.assert_allclose(ft, f1, rtol=0.0, atol=1e-15)

    def test_random_grids_cover_full_and_truncated_screens(self):
        # the seeds above include screens that keep every mode (D = 0) and
        # screens that drop most of them
        kept_all = set()
        for seed in range(20):
            spec, t0, step = random_grid_chain(seed)
            sd = diagonalize(build_single_particle(spec))
            bound = _fidelity_bound(sd.eigenvalues, edge_products(spec, sd), t0, step, 10)
            kept_all.add(bound.modes_kept == spec.N)
            if bound.modes_kept < spec.N:
                assert bound.truncation_bound > 0.0
        assert kept_all == {True, False}

    def test_truncation_keeps_the_dominant_modes(self):
        # every quasi-Rabi chain of the benchmark menu keeps 6 modes: the
        # quadruplet and the two extended states of spectral.edge_modes
        spec = ChainSpec(N=29, h=100.0)
        sd = diagonalize(build_single_particle(spec))
        products = edge_products(spec, sd)
        bound = _fidelity_bound(sd.eigenvalues, products, 0.0, 0.1, 5)
        weight = np.sort(np.abs(products).max(axis=1))
        assert bound.modes_kept == 6
        assert weight[:-6].sum() <= 1e-3 < weight[:-5].sum()
        assert 0.0 < bound.truncation_bound < 4e-3


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

    def test_blocks_cover_every_sample(self):
        # blocked evaluation returns what one pass over all samples does
        spec = ChainSpec(N=8, h=4.0)
        samples = 2 * _MC_BLOCK + 37
        V = np.random.default_rng(9).standard_normal((2, samples, 4))
        W = _state_forms(*_channel_data(spec, 2.0))
        F = _quartic(W, V.transpose(0, 2, 1).reshape(8, samples))[0]
        mean, err = haar_average_mc(spec, 2.0, samples, seed=9)
        assert mean == pytest.approx(F.mean(), rel=0.0, abs=1e-15)
        assert err == pytest.approx(F.std(ddof=1) / np.sqrt(samples), rel=1e-12)

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            haar_average_mc(ChainSpec(N=8), 1.0, 50, seed=0)

    @pytest.mark.parametrize("spec, order", GEOMETRIES)
    def test_fast_path_matches_oracle_per_sample(self, spec, order):
        # the vectorized sampler must agree with the brute-force sector
        # fidelity state by state, not just on average, and must evaluate
        # an unnormalized row z as the state z / |z|
        t = 2.3
        W = _state_forms(*_channel_data(spec, t, receiver_order=order))
        rng = np.random.default_rng(12)
        for _ in range(25):
            z = rng.normal(size=4) + 1j * rng.normal(size=4)
            z /= np.linalg.norm(z)
            Z = np.stack([z, rng.uniform(0.1, 10.0) * z])
            fast = _fidelities_in_blocks(W, np.stack([Z.real, Z.imag]))
            slow = state_fidelity(spec, TwoQubitState.from_vector(z), t, order)
            assert np.all(np.abs(fast - slow) < 1e-12)

    @pytest.mark.parametrize(
        "spec, t, samples, seed, order, mean, stderr",
        [
            pytest.param(ChainSpec(N=46, h=100.0), 1234.5, 100_000, 11, "12",
                         0.24582238372001636, 0.0005986865701114491, id="N46"),
            pytest.param(ChainSpec(N=8, h=6.0), 4.4, 20_000, 5, "12",
                         0.2689082146839657, 0.001328900513025025, id="N8"),
            pytest.param(ChainSpec(N=7, h=3.0), 2.3, 20_000, 7, "21",
                         0.28540128508999996, 0.0013415106769570195, id="order21"),
        ],
    )
    def test_pinned_seeded_average(self, spec, t, samples, seed, order, mean, stderr):
        # values of the per-state kernel that normalized each complex draw
        # before evaluating it; they pin the draw order of the seeded
        # normals and the division of F(z) by |z|^4
        got = haar_average_mc(spec, t, samples, seed, receiver_order=order)
        assert got[0] == pytest.approx(mean, rel=0.0, abs=1e-15)
        assert got[1] == pytest.approx(stderr, rel=1e-12)

    def test_memory_is_bounded_by_the_draws(self):
        # the 10^5 Gaussian draws take 6.4 MB; the blocked kernel adds the
        # 0.8 MB of fidelities and a block's temporaries, and no complex
        # or normalized copy of the draws is formed
        spec = ChainSpec(N=46, h=100.0)
        sd = diagonalize(build_single_particle(spec))
        haar_average_mc(spec, 1234.5, 100_000, 1, sd)
        tracemalloc.start()
        try:
            haar_average_mc(spec, 1234.5, 100_000, 1, sd)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 10**6

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
        W = _state_forms(*_channel_data(spec, t))
        V = np.random.default_rng(6).standard_normal((2, 10000, 4))
        assert fmin <= np.min(_fidelities_in_blocks(W, V)) + 1e-12

    def test_pinned_minimum(self):
        # the value the derivative-free Nelder-Mead search found on the
        # same starts
        _, fmin = worst_case_fidelity(ChainSpec(N=8, h=6.0), 4.4, restarts=8, seed=6)
        assert abs(fmin - 0.002270399628) < 1e-9

    @pytest.mark.parametrize("spec, order", GEOMETRIES)
    def test_returned_state_has_returned_value(self, spec, order):
        t = 2.3
        state, fmin = worst_case_fidelity(spec, t, restarts=4, seed=3, receiver_order=order)
        assert abs(state_fidelity(spec, state, t, order) - fmin) < 1e-10

    def test_budget_fallback_returns_sample_state(self, monkeypatch):
        # a search that ends above the Haar sample's minimum falls back to
        # that sample state, and the state returned must be it
        def stalled(fun, x0, args, **kwargs):
            x = np.roll(x0, 3)
            return OptimizeResult(x=x, fun=1.0, success=False)

        monkeypatch.setattr(scipy.optimize, "minimize", stalled)
        spec, t = ChainSpec(N=8, h=6.0), 4.4
        with pytest.warns(WorstCaseBudgetWarning, match="budget"):
            state, fmin = worst_case_fidelity(spec, t, restarts=2, seed=6)
        W = _state_forms(*_channel_data(spec, t))
        V = np.random.default_rng(6).standard_normal((2, 10000, 4))
        assert fmin == pytest.approx(np.min(_fidelities_in_blocks(W, V)), abs=1e-15)
        assert abs(state_fidelity(spec, state, t) - fmin) < 1e-10

    @pytest.mark.parametrize("spec, order", GEOMETRIES)
    def test_gradient_matches_central_differences(self, spec, order):
        forms = _state_forms(*_channel_data(spec, 2.3, receiver_order=order))
        rng = np.random.default_rng(21)
        step = 1e-6
        for _ in range(5):
            x = rng.normal(size=8)
            _, grad = _sphere_objective(x, forms)
            fd = np.array([
                (_sphere_objective(x + step * e, forms)[0]
                 - _sphere_objective(x - step * e, forms)[0]) / (2.0 * step)
                for e in np.eye(8)
            ])
            assert np.linalg.norm(grad - fd) <= 1e-6 * np.linalg.norm(grad)
