import re
import tracemalloc
import warnings

import numpy as np
import pytest

import xxchain.fidelity as fidelity_module
from conftest import random_grid_chain
from xxchain.chain import ChainSpec, build_single_particle
from xxchain.fidelity import (
    _DESIGN_STATES,
    _MC_BLOCK,
    _MC_TIMES,
    _SCREEN_MODES,
    _SCREEN_POINTS,
    _TRUNCATION_WEIGHT,
    WorstCaseBudgetWarning,
    _channel_data,
    _coherent_terms,
    _design_average,
    _evaluator_weights,
    _fidelities_in_blocks,
    _fidelity_at,
    _fidelity_bound,
    _monomials,
    _newton_on_sphere,
    _quartic,
    _sphere_objective,
    _state_forms,
    _state_quadrics,
    average_fidelity_approx,
    average_fidelity_exact,
    edge_products,
    fidelity_from_edge_amplitudes,
    haar_average_mc,
    worst_case_fidelity,
)
from xxchain.protocol import find_transfer_time
from xxchain.chain import _receiver_sites
from xxchain.sector_oracle import (
    TwoQubitState,
    _receiver_layout,
    _receiver_matrix,
    evolve,
    state_fidelity,
)
from xxchain.spectral import diagonalize


def upper_fidelity(bound):
    """The screen's bound on Fbar at each grid point, (4 + (|c~| + D + sigma)^2) / 20."""
    x = bound.modulus.astype(float) + (bound.truncation_bound + bound.rounding_slack)
    return (4.0 + x * x) / 20.0


@pytest.fixture
def normal_draws(monkeypatch):
    """The shapes of every standard_normal call of the generators np.random.default_rng makes."""
    calls = []
    make = np.random.default_rng

    class Counted:
        def __init__(self, seed=None):
            self._rng = make(seed)

        def standard_normal(self, *args, **kwargs):
            calls.append(args)
            return self._rng.standard_normal(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", Counted)
    return calls


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


def oracle_kraus(spec, order, t):
    """The dense sector oracle's Kraus operators K_c at time t, one per
    channel configuration c: column i of K_c is the receiver vector of c
    for the input basis state |i>."""
    return np.stack(
        [
            _receiver_matrix(spec, evolve(spec, TwoQubitState.from_vector(e), t), order)
            for e in np.eye(4)
        ],
        axis=2,
    )


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

    def test_bad_receiver_order_rejected_as_the_oracle_rejects_it(self):
        spec = ChainSpec(N=8, h=3.0)
        with pytest.raises(ValueError) as fast:
            average_fidelity_exact(spec, 1.0, receiver_order="13")
        with pytest.raises(ValueError) as oracle:
            state_fidelity(spec, TwoQubitState(1, 0, 0, 0), 1.0, receiver_order="13")
        assert str(fast.value) == str(oracle.value) == (
            "receiver_order must be '12' or '21', got '13'"
        )

    @pytest.mark.parametrize("spec, order", GEOMETRIES)
    def test_nielsen_relation(self, spec, order):
        # Fbar = (d F_e + 1) / (d + 1) with d = 4 (Nielsen, Phys. Lett. A
        # 303, 249, 2002), where the entanglement fidelity F_e =
        # (1/d^2) sum_c |Tr K_c|^2 comes from the dense sector oracle alone:
        # column i of the Kraus operator K_c is the receiver vector of
        # channel configuration c for the input basis state |i>
        t = 2.3
        traces = np.trace(oracle_kraus(spec, order, t), axis1=1, axis2=2)
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
        configs = _receiver_layout(spec.N, *_receiver_sites(spec, order))[2]
        kraus = dict(zip(configs, oracle_kraus(spec, order, t)))
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
        weights = _evaluator_weights(sd.eigenvalues, edge_products(spec, sd))
        F = _fidelity_at(sd.eigenvalues, weights, ts)[0]
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
        weights = _evaluator_weights(sd.eigenvalues, products)
        every_term = 1 + spec.N * (spec.N + 1) // 2
        for n in self.SIZES:
            bound = _fidelity_bound(sd.eigenvalues, products, t0, step, n)
            assert bound.modulus.shape == (n,)
            assert 0 <= bound.modes_kept <= spec.N
            # D = 0 exactly when the screen sums every mode and every term
            assert (bound.truncation_bound == 0.0) == (
                bound.modes_kept == spec.N and bound.screen_terms == every_term
            )
            F = _fidelity_at(sd.eigenvalues, weights, t0 + np.arange(n) * step)[0]
            assert np.all(upper_fidelity(bound) >= F)

    @pytest.mark.parametrize("seed", range(10))
    def test_single_time_against_grid_and_channel(self, seed):
        # the one-time evaluator of the t* refinement and the transfer rows
        # against the ten-term channel amplitudes
        spec, t0, _ = random_grid_chain(seed)
        sd = diagonalize(build_single_particle(spec))
        weights = _evaluator_weights(sd.eigenvalues, edge_products(spec, sd))
        F, _, _, (f11, f12, f21, f22) = _fidelity_at(sd.eigenvalues, weights, t0)
        assert isinstance(F, float)
        bd = average_fidelity_exact(spec, t0, sd)
        assert abs(F - bd.value) <= 1e-12
        amps = (bd.amplitudes[k] for k in ("f11", "f12", "f21", "f22"))
        np.testing.assert_allclose((f11, f12, f21, f22), list(amps), rtol=0.0, atol=1e-12)
        # an array of times gives the scalar call's values, a row of
        # amplitudes per time
        ts = t0 + np.linspace(-3.0, 3.0, 7)
        Fs, _, _, fs = _fidelity_at(sd.eigenvalues, weights, ts)
        assert Fs.shape == (7,) and fs.shape == (7, 4)
        for t, Ft, ft in zip(ts, Fs, fs):
            F1, _, _, f1 = _fidelity_at(sd.eigenvalues, weights, float(t))
            assert isinstance(F1, float)
            assert abs(Ft - F1) <= 1e-15
            np.testing.assert_allclose(ft, f1, rtol=0.0, atol=1e-15)

    @staticmethod
    def kept_terms(bound, eps, products):
        # the terms of the kept modes (the modes_kept largest max_i |p_ki|)
        # and, in order, the ones the screen leaves out: the smallest |m|
        weight = np.abs(products).max(axis=1)
        kept = np.argsort(weight, kind="stable")[len(eps) - bound.modes_kept :]
        e, k, l, m = _coherent_terms(eps[kept], products[kept])
        left_out = np.argsort(np.abs(m), kind="stable")[: len(m) - bound.screen_terms]
        return kept, e[k] + e[l], m, left_out

    @classmethod
    def assert_screen_within_slack(cls, spec, t0, step, n):
        # the screen's single-precision |c~| lies within sigma of the sum of
        # the same terms in double precision at every grid point
        sd = diagonalize(build_single_particle(spec))
        eps, products = sd.eigenvalues, edge_products(spec, sd)
        bound = _fidelity_bound(eps, products, t0, step, n)
        _, levels, m, left_out = cls.kept_terms(bound, eps, products)
        m[left_out] = 0.0
        ts = t0 + np.arange(n) * step
        exact = np.abs(np.exp(-1j * np.multiply.outer(ts, levels)) @ m)
        assert np.max(np.abs(bound.modulus - exact)) <= bound.rounding_slack
        return bound

    @pytest.mark.parametrize("t_shift", [0.0, 1e5], ids=["t0", "t0+1e5"])
    @pytest.mark.parametrize("seed", range(20))
    def test_single_precision_within_its_slack(self, seed, t_shift):
        spec, t0, step = random_grid_chain(seed)
        self.assert_screen_within_slack(spec, t0 + t_shift, step, 2085)

    @pytest.mark.parametrize("N, h", [(29, 4000.0), (50, 200.0), (32, 1000.0)])
    def test_single_precision_slack_on_quasi_rabi_windows(self, N, h):
        # at the start and at the end of the t* window, 1.0e5 at (29, 4000);
        # with 6 modes kept sigma stays below 2e-5, which is far below D
        # at h = 200 but 30 times D = 6e-7 at h = 4000
        spec = ChainSpec(N=N, h=h)
        res = find_transfer_time(spec)
        lo, hi = res.search_window
        step = (hi - lo) / res.grid_points
        for t0 in (lo, hi - 4096 * step):
            bound = self.assert_screen_within_slack(spec, t0, step, 4097)
            assert bound.modes_kept == 6
            assert bound.rounding_slack <= 2e-5

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

    @pytest.mark.parametrize("seed", range(20))
    def test_pair_levels_sum_to_the_coherent_amplitude(self, seed):
        # Cauchy-Binet: over the kept modes, the constant, the single modes
        # and the pairs k < l at eps_k + eps_l add up to (1 + f11)(1 + f22)
        # - f12 f21; the phases are the modes' own, as in the screen
        spec, t0, step = random_grid_chain(seed)
        sd = diagonalize(build_single_particle(spec))
        eps, products = sd.eigenvalues, edge_products(spec, sd)
        bound = _fidelity_bound(eps, products, t0, step, 10)
        kept = self.kept_terms(bound, eps, products)[0]
        e, k, l, m = _coherent_terms(eps[kept], products[kept])
        K = len(kept)
        assert len(m) == 1 + K * (K + 1) // 2
        z = np.exp(-1j * np.multiply.outer(t0 + np.arange(50) * step, e))
        f11, f12, f21, f22 = (z[:, 1:] @ products[kept]).T
        direct = (1.0 + f11) * (1.0 + f22) - f12 * f21
        np.testing.assert_allclose((z[:, k] * z[:, l]) @ m, direct, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("N, h, K", [(29, 100.0, 6), (200, 1.0, _SCREEN_MODES)])
    def test_terms_left_out_join_the_truncation_bound(self, N, h, K):
        # (29, 100) leaves out the nearly cancelling pairs of its two level
        # clusters, and (200, 1) keeps only _SCREEN_MODES of its 180 modes
        # above the truncation weight: D is the bound on the modes left out
        # plus the |m| of the terms left out, and the screen's bound holds
        # at every point of the t* window
        spec = ChainSpec(N=N, h=h)
        sd = diagonalize(build_single_particle(spec))
        eps, products = sd.eigenvalues, edge_products(spec, sd)
        res = find_transfer_time(spec, sd)
        lo, hi = res.search_window
        n = res.grid_points
        step = (hi - lo) / n
        bound = _fidelity_bound(eps, products, lo, step, n)
        kept, _, m, left_out = self.kept_terms(bound, eps, products)
        assert bound.modes_kept == K
        assert 0 < len(left_out) and np.abs(m[left_out]).sum() <= _TRUNCATION_WEIGHT
        a = np.abs(products)
        d11, d12, d21, d22 = np.delete(a, kept, axis=0).sum(axis=0)
        W11, W12, W21, W22 = a[kept].sum(axis=0)
        modes = d11 + d22 + W11 * d22 + W22 * d11 + d11 * d22 + W12 * d21 + W21 * d12 + d12 * d21
        assert bound.truncation_bound == pytest.approx(
            modes + np.abs(m[left_out]).sum(), rel=1e-12
        )
        weights = _evaluator_weights(eps, products)
        F = _fidelity_at(eps, weights, lo + np.arange(n) * step)[0]
        assert np.all(upper_fidelity(bound) >= F)

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


def screen_count(call):
    """(grid points, bytes) of the screen's memory guard for call().

    With the limit at zero the guard refuses every screen before it
    allocates any grid array, and its message names the count.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fidelity_module, "_SCREEN_BYTES", 0)
        with pytest.raises(ArithmeticError) as info:
            call()
    found = re.search(r"of (\d+) grid points would hold (\d+) bytes", str(info.value))
    return int(found[1]), int(found[2])


class TestScreenMemory:
    @pytest.mark.parametrize("N, h", [(29, 1e3), (29, 1e4), (50, 4000.0)])
    def test_count_is_the_traced_peak(self, N, h):
        # on t* windows of 3.2e5-3.2e6 points the grid arrays are the peak:
        # about 4.6-5.1 bytes per point
        spec = ChainSpec(N=N, h=h)
        sd = diagonalize(build_single_particle(spec))
        eps, products = sd.eigenvalues, edge_products(spec, sd)
        res = find_transfer_time(spec, sd)
        lo, hi = res.search_window
        n = res.grid_points
        step = (hi - lo) / n
        n_counted, held = screen_count(lambda: _fidelity_bound(eps, products, lo, step, n))
        tracemalloc.start()
        try:
            _fidelity_bound(eps, products, lo, step, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n_counted == n
        assert held == pytest.approx(peak, rel=0.02)

    def test_admits_h_1e6_and_refuses_h_1e7(self):
        # the quasi-Rabi window grows linearly in h: at N = 29 the screen of
        # h = 1e6 runs in about 1.4 GB, and that of h = 1e7 would take 14 GB
        limit = fidelity_module._SCREEN_BYTES
        n, held = screen_count(lambda: find_transfer_time(ChainSpec(N=29, h=1e6)))
        assert 3e8 < n and held <= limit
        n, held = screen_count(lambda: find_transfer_time(ChainSpec(N=29, h=1e7)))
        assert 3e9 < n and held > limit

    def test_refusal_names_points_and_bytes(self, monkeypatch):
        spec = ChainSpec(N=29, h=100.0)
        sd = diagonalize(build_single_particle(spec))
        eps, products = sd.eigenvalues, edge_products(spec, sd)
        # 100 points hold about 21 kB and 2000 points about 89 kB
        monkeypatch.setattr(fidelity_module, "_SCREEN_BYTES", 32768)
        _fidelity_bound(eps, products, 0.0, 0.1, 100)
        message = r"^the t\* screen of 2000 grid points would hold \d+ bytes, above its limit of 32768$"
        with pytest.raises(ArithmeticError, match=message):
            _fidelity_bound(eps, products, 0.0, 0.1, 2000)


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
        F = _quartic(W, _monomials(V.transpose(0, 2, 1).reshape(8, samples)))
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
            fast = _fidelities_in_blocks([W], np.stack([Z.real, Z.imag]))[0]
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

    @pytest.mark.parametrize(
        "spec, order",
        [pytest.param(ChainSpec(N=8, h=4.0), "12", id="N8"),
         pytest.param(ChainSpec(N=7, h=3.0), "21", id="order21")],
    )
    def test_array_of_times_matches_each_time(self, spec, order):
        # more times than one pass over the sample takes, t = 0 among them,
        # and a last block shorter than _MC_BLOCK; bit for bit
        times = np.linspace(0.0, 12.0, 2 * _MC_TIMES + 3)
        samples = _MC_BLOCK + 37
        means, errs = haar_average_mc(spec, times, samples, 4, receiver_order=order)
        assert means.shape == errs.shape == times.shape
        for t, mean, err in zip(times, means, errs):
            one = haar_average_mc(spec, float(t), samples, 4, receiver_order=order)
            assert (float(mean).hex(), float(err).hex()) == (one[0].hex(), one[1].hex())
        assert isinstance(one[0], float) and isinstance(one[1], float)

    @pytest.mark.parametrize("count", [1, 3, 2 * _MC_TIMES + 1])
    def test_one_draw_per_call(self, normal_draws, count):
        haar_average_mc(ChainSpec(N=8, h=4.0), np.linspace(0.0, 5.0, count), 1000, seed=2)
        assert normal_draws == [((2, 1000, 4),)]

    def test_memory_of_many_times_is_bounded(self):
        # the draws take 6.4 MB and _MC_TIMES fidelity arrays as much again;
        # the fidelities of all 16 times would add 12.8 MB to the draws
        spec = ChainSpec(N=46, h=100.0)
        sd = diagonalize(build_single_particle(spec))
        times = np.linspace(0.0, 1234.5, 16)
        haar_average_mc(spec, times, 100_000, 1, sd)
        tracemalloc.start()
        try:
            haar_average_mc(spec, times, 100_000, 1, sd)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 10**6

    @pytest.mark.parametrize(
        "t, message",
        [
            pytest.param(np.array([]), r"nonempty 1-D array of times, got shape \(0,\)",
                         id="empty"),
            pytest.param(np.ones((2, 2)), r"1-D array of times, got shape \(2, 2\)", id="2-D"),
            pytest.param(float("nan"), r"times must be finite, got nan", id="nan"),
            pytest.param([1.0, np.inf], r"times must be finite, got \[ 1. inf\]", id="inf"),
        ],
    )
    def test_bad_times_rejected_before_the_draw(self, normal_draws, t, message):
        with pytest.raises(ValueError, match=message):
            haar_average_mc(ChainSpec(N=8), t, 1000, seed=0)
        assert normal_draws == []

    def test_non_integer_samples_rejected_before_the_draw(self, normal_draws):
        with pytest.raises(ValueError, match=r"samples must be an integer, got 100000.0"):
            haar_average_mc(ChainSpec(N=8), 1.0, 1e5, seed=0)
        assert normal_draws == []
        haar_average_mc(ChainSpec(N=8), 1.0, np.int64(200), seed=0)
        assert normal_draws == [((2, 200, 4),)]

    def test_fixed_input_beats_mean_at_zero(self):
        spec = ChainSpec(N=8, h=3.0)
        mean, _ = haar_average_mc(spec, 0.0, 2000, seed=3)
        vacuum = state_fidelity(spec, TwoQubitState(1, 0, 0, 0), 0.0)
        assert vacuum > mean


class TestDesign:
    def test_states_are_five_mutually_unbiased_bases(self):
        # unit vectors; |<a|b>|^2 is 0 within a basis and 1/4 across bases
        S = _DESIGN_STATES
        assert S.shape == (4, 20)
        basis = np.arange(20) // 4
        expect = np.where(basis[:, None] == basis[None, :], np.eye(20), 0.25)
        assert np.abs(np.abs(S.conj().T @ S) ** 2 - expect).max() < 1e-14

    def test_bases_are_the_joint_eigenbases_of_the_pauli_pairs(self):
        one = {"I": np.eye(2), "X": np.array([[0, 1], [1, 0]]),
               "Y": np.array([[0, -1j], [1j, 0]]), "Z": np.diag([1, -1])}
        pairs = [("ZI", "IZ"), ("XI", "IX"), ("YI", "IY"), ("XY", "YZ"), ("XZ", "YX")]
        for k, words in enumerate(pairs):
            signs = set()
            for psi in _DESIGN_STATES[:, 4 * k : 4 * k + 4].T:
                sign = []
                for word in words:
                    P = np.kron(one[word[0]], one[word[1]])
                    s = np.vdot(psi, P @ psi).real
                    assert abs(abs(s) - 1.0) < 1e-15
                    assert np.abs(P @ psi - s * psi).max() < 1e-15
                    sign.append(round(s))
                signs.add(tuple(sign))
            assert len(signs) == 4

    def test_states_form_a_2_design(self):
        # the mean of (|psi><psi|)^(x2) is the Haar value (I + SWAP) / 20
        P = np.einsum("ak,bk->kab", _DESIGN_STATES, _DESIGN_STATES.conj())
        mean = np.einsum("kab,kcd->acbd", P, P).reshape(16, 16) / 20
        swap = np.eye(16).reshape(4, 4, 4, 4).transpose(0, 1, 3, 2).reshape(16, 16)
        assert np.abs(mean - (np.eye(16) + swap) / 20).max() < 1e-15

    @pytest.mark.parametrize("spec, order", GEOMETRIES)
    def test_mean_is_the_exact_average(self, spec, order):
        sd = diagonalize(build_single_particle(spec))
        for t in (0.0, 0.9, 2.3, 7.75, 31.4):
            exact = average_fidelity_exact(spec, t, sd, order).value
            assert abs(_design_average(spec, t, sd, order) - exact) < 1e-12


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
        assert fmin <= np.min(_fidelities_in_blocks([W], V)) + 1e-12

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
        def stalled(W, U):
            return np.roll(U, 3, axis=1), np.ones(len(U)), np.zeros(len(U), dtype=bool)

        monkeypatch.setattr(fidelity_module, "_newton_on_sphere", stalled)
        spec, t = ChainSpec(N=8, h=6.0), 4.4
        with pytest.warns(WorstCaseBudgetWarning, match="budget"):
            state, fmin = worst_case_fidelity(spec, t, restarts=2, seed=6)
        W = _state_forms(*_channel_data(spec, t))
        V = np.random.default_rng(6).standard_normal((2, 10000, 4))
        assert fmin == pytest.approx(np.min(_fidelities_in_blocks([W], V)), abs=1e-15)
        assert abs(state_fidelity(spec, state, t) - fmin) < 1e-10

    @pytest.mark.parametrize("capped", [True, False], ids=["capped", "converged"])
    def test_unconverged_start_near_the_best_warns(self, monkeypatch, capped):
        # every start ends 5e-13 above the Haar sample's minimum, inside the
        # 1e-12 margin: certified when all converged, but a start stopped by
        # the cap within 1e-12 of the best value makes the search uncertified,
        # and the sample state comes back
        spec, t = ChainSpec(N=8, h=6.0), 4.4
        W = _state_forms(*_channel_data(spec, t))
        V = np.random.default_rng(6).standard_normal((2, 10000, 4))
        sample_min = float(np.min(_fidelities_in_blocks([W], V)))

        def near(W, U):
            converged = np.ones(len(U), dtype=bool)
            converged[1] = not capped
            return U, np.full(len(U), sample_min + 5e-13), converged

        monkeypatch.setattr(fidelity_module, "_newton_on_sphere", near)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            state, fmin = worst_case_fidelity(spec, t, restarts=2, seed=6)
        budget = [w for w in caught if issubclass(w.category, WorstCaseBudgetWarning)]
        assert len(budget) == (1 if capped else 0)
        assert fmin == (sample_min if capped else sample_min + 5e-13)
        assert abs(state_fidelity(spec, state, t) - sample_min) < 1e-10

    def test_cap_counts_as_not_converged(self, monkeypatch):
        # these nine starts at the pinned case converge in 6-10 Newton steps;
        # cut at 3, none of them has
        W = _state_forms(*_channel_data(ChainSpec(N=8, h=6.0), 4.4))
        U = np.random.default_rng(6).normal(size=(9, 8))
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        assert _newton_on_sphere(W, U.copy())[2].all()
        monkeypatch.setattr(fidelity_module, "_NEWTON_ITERATIONS", 3)
        assert not _newton_on_sphere(W, U.copy())[2].any()

    @pytest.mark.parametrize(
        "spec, t",
        [
            pytest.param(ChainSpec(N=8, h=6.0), 4.4, id="pinned"),
            # a shallow valley that most starts reach through negative
            # curvature: without the |eigenvalue| 13 of these 17 stall
            pytest.param(ChainSpec(N=8, h=73.48803934188346), 187.6602017206392,
                         id="shallow-valley"),
        ],
    )
    def test_every_start_converges_to_a_stationary_point(self, spec, t):
        # the stop rule leaves a tangent gradient of about sqrt(2 eps |H|)
        # at most: 2.1e-8 and 8e-9 on these chains
        W = _state_forms(*_channel_data(spec, t))
        U = np.random.default_rng(0).normal(size=(17, 8))
        U, F, converged = _newton_on_sphere(W, U / np.linalg.norm(U, axis=1, keepdims=True))
        assert converged.all()
        assert np.allclose(np.linalg.norm(U, axis=1), 1.0, rtol=0.0, atol=1e-15)
        _, grad, _ = _sphere_objective(U, _state_quadrics(W))
        tangent = grad - (grad * U).sum(axis=1)[:, None] * U
        assert np.linalg.norm(tangent, axis=1).max() < 1e-7

    @pytest.mark.parametrize(
        "restarts, message",
        [
            pytest.param(-1, r"restarts must be >= 0, got -1", id="negative"),
            pytest.param(2.5, r"restarts must be an integer, got 2.5", id="non-integer"),
        ],
    )
    def test_bad_restarts_rejected_before_the_draw(self, normal_draws, restarts, message):
        with pytest.raises(ValueError, match=message):
            worst_case_fidelity(ChainSpec(N=8, h=6.0), 4.4, restarts=restarts, seed=6)
        assert normal_draws == []

    @pytest.mark.parametrize("spec, order", GEOMETRIES)
    def test_gradient_matches_central_differences(self, spec, order):
        # the gradient against central differences of the value, and the
        # Hessian against central differences of the gradient, off the
        # sphere; on it the value is the state fidelity
        W = _state_forms(*_channel_data(spec, 2.3, receiver_order=order))
        Q = _state_quadrics(W)
        rng = np.random.default_rng(21)
        step = 1e-6
        for _ in range(5):
            x = rng.normal(size=(1, 8))
            _, grad, hess = _sphere_objective(x, Q)
            plus = [_sphere_objective(x + step * e, Q) for e in np.eye(8)]
            minus = [_sphere_objective(x - step * e, Q) for e in np.eye(8)]
            fd = np.array([(p[0][0] - m[0][0]) / (2.0 * step) for p, m in zip(plus, minus)])
            assert np.linalg.norm(grad[0] - fd) <= 1e-6 * np.linalg.norm(grad[0])
            fd = np.array([(p[1][0] - m[1][0]) / (2.0 * step) for p, m in zip(plus, minus)])
            assert np.linalg.norm(hess[0] - fd) <= 1e-6 * np.linalg.norm(hess[0])
            u = x / np.linalg.norm(x)
            on_sphere = _quartic(W, _monomials(u.T))
            assert _sphere_objective(u, Q)[0] == pytest.approx(on_sphere, rel=1e-12, abs=1e-15)
