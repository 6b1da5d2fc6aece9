import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import minimize_scalar

import xxchain.protocol as protocol_module
from conftest import random_grid_chain, reference_fbar
from xxchain.amplitudes import propagator, propagator_rows
from xxchain.chain import ChainSpec, build_single_particle
from xxchain.fidelity import (
    _SCREEN_POINTS,
    _evaluator_weights,
    _fidelity_at,
    _fidelity_bound,
    average_fidelity_approx,
    edge_products,
)
from xxchain.perturbation import rabi_frequencies, transfer_time_estimate
from xxchain.protocol import (
    TransferTimeResult,
    _refine,
    _scan,
    find_transfer_time,
    re_f_truncated,
    scan,
)
from xxchain.spectral import classify_chain, diagonalize, edge_modes, localized_indices


def exact_re_f(spec, sd, ts):
    rows = propagator_rows(sd, [spec.senders[0]], np.asarray(ts, dtype=float))
    return rows[:, 0, spec.receivers[0] - 1].real


@pytest.fixture(scope="module")
def rabi_chain():
    spec = ChainSpec(N=30, h=100.0)
    sd = diagonalize(build_single_particle(spec))
    return spec, sd


@pytest.fixture(scope="module")
def quasi_chain():
    spec = ChainSpec(N=29, h=100.0)
    sd = diagonalize(build_single_particle(spec))
    return spec, sd


def reference_peak(spec, t_near, halfwidth=0.05):
    """Peak (t, Fbar) of the Haar-average fidelity near t_near, built here.

    Uses neither protocol nor fidelity: eigh_tridiagonal gives the modes,
    the edge amplitudes are f_s^r(t) = sum_k exp(-i eps_k t) v_sk v_rk and
    Fbar = (4 + |1 + f11 + f22 + f11 f22 - f12 f21|^2) / 20.  SciPy's
    bounded search runs on the offset u = t - t_near in [-halfwidth,
    halfwidth], less than half a period of Fbar's fastest frequency (about
    8), to 1e-10, so its tolerance does not grow with t.
    """
    m = build_single_particle(spec)
    eps, v = eigh_tridiagonal(np.asarray(m.diagonal), np.asarray(m.off_diagonal))
    (s1, s2), (r1, r2) = spec.senders, spec.receivers
    c = np.array([v[s - 1] * v[r - 1] for s, r in ((s1, r1), (s1, r2), (s2, r1), (s2, r2))])

    def fbar(u):
        f11, f12, f21, f22 = c @ np.exp(-1j * eps * (t_near + u))
        return (4.0 + abs(1.0 + f11 + f22 + f11 * f22 - f12 * f21) ** 2) / 20.0

    opt = minimize_scalar(lambda u: -fbar(u), bounds=(-halfwidth, halfwidth),
                          method="bounded", options={"xatol": 1e-10})
    assert abs(opt.x) < 0.5 * halfwidth  # an interior peak, not the bracket's end
    return t_near + opt.x, -opt.fun


class TestFourStateTruncation:
    def test_initial_value(self, rabi_chain):
        spec, sd = rabi_chain
        # the transfer amplitude vanishes at t = 0; the quadruplet products
        # alternate in sign and cancel up to O(1/h) leakage
        assert abs(re_f_truncated(0.0, spec, sd)) < 1e-2

    def test_matches_exact_amplitude(self, rabi_chain):
        spec, sd = rabi_chain
        ts = np.linspace(0.0, 2.0 * transfer_time_estimate(30, 100.0), 600)
        assert np.max(np.abs(re_f_truncated(ts, spec, sd) - exact_re_f(spec, sd, ts))) < 1e-2


class TestSixStateTruncation:
    def test_matches_exact_amplitude(self, quasi_chain):
        spec, sd = quasi_chain
        res = find_transfer_time(spec, sd)
        ts = np.linspace(0.0, 1.2 * res.t_star, 800)
        diff = re_f_truncated(ts, spec, sd) - exact_re_f(spec, sd, ts)
        assert np.max(np.abs(diff)) < 5e-2

    def test_product_magnitudes_match_coefficients(self, quasi_chain):
        spec, sd = quasi_chain
        products = edge_products(spec, sd)[edge_modes(29), 0]
        # the six-state truncation's weights: c3 = 3/(2N - 1) moves to the
        # extended states from the quadruplet's c1 = 1/4 - c3, while the
        # outer edge sites keep c2 = 1/4
        c3 = 3.0 / (2.0 * 29 - 1.0)
        c1, c2 = 0.25 - c3, 0.25
        expected = (c1, c2, c3, c1, c2, c3)
        assert np.allclose(np.abs(products), expected, atol=0.01)

    @pytest.mark.parametrize("h", [100.0, 200.0])
    def test_fast_pair_frequency(self, h):
        # the mirror-pair difference frequency of the outermost pair pins
        # to the band value -2J up to O(1/h) corrections
        sd = diagonalize(build_single_particle(ChainSpec(N=29, h=h)))
        eps = sd.eigenvalues[edge_modes(29)]
        w14m = (eps[0] - eps[3]) / 2.0
        assert abs(w14m + 2.0) < 0.1


class TestFindTransferTime:
    def test_rabi_even(self):
        spec = ChainSpec(N=30, h=60.0)
        res = find_transfer_time(spec)
        est = transfer_time_estimate(30, 60.0)
        assert abs(res.t_star - est) < 0.02 * est
        assert res.fidelity >= 0.99
        assert res.search_window[0] <= res.t_star <= res.search_window[1]
        assert res.fidelity >= res.candidate_fidelity
        t_star, fid = res
        assert (t_star, fid) == (res.t_star, res.fidelity)

    @pytest.mark.parametrize(
        "N, h, t_near",
        [
            (29, 100.0, 1109.7846522122243),
            (50, 200.0, 4420.235593872524),
            (32, 1000.0, 15532.036231847127),
            (46, 100.0, 15727.396400881948),
        ],
    )
    def test_pinned_optimum(self, N, h, t_near):
        # t* and F(t*) against the peak of an in-test reference near the
        # t* pinned before the grid kernel was rewritten
        spec = ChainSpec(N=N, h=h)
        t_ref, F_ref = reference_peak(spec, t_near)
        res = find_transfer_time(spec)
        assert res.t_star == pytest.approx(t_ref, rel=1e-9, abs=0.0)
        assert res.fidelity == pytest.approx(F_ref, rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("N, h", [(32, 4000.0), (44, 4000.0), (30, 60.0)])
    def test_candidate_fidelity_is_its_point_value(self, N, h):
        # the scan's best point and the analytic candidate are both valued
        # by the one point evaluator, also at t ~ 1e5
        spec = ChainSpec(N=N, h=h)
        sd = diagonalize(build_single_particle(spec))
        res = find_transfer_time(spec, sd)
        weights = _evaluator_weights(sd.eigenvalues, edge_products(spec, sd))
        F = _fidelity_at(sd.eigenvalues, weights, res.candidate)[0]
        assert abs(res.candidate_fidelity - F) <= 1e-14

    @pytest.mark.parametrize("N, h", [(29, 100.0), (50, 200.0), (32, 1000.0)])
    def test_quasi_rabi_window_is_zero_to_N_h(self, N, h):
        assert find_transfer_time(ChainSpec(N=N, h=h)).search_window == (0.0, N * h)

    @pytest.mark.parametrize(
        "N, h, t_ref, F_ref",
        [
            (32, 0.1, 9.682400205033503, 0.485844491001113),
            (29, 0.1, 8.91938173966398, 0.298249414983617),
            (29, 0.0, 8.93425098513919, 0.28736254863158833),
            (29, 1e-300, 8.93425098513919, 0.28736254863158833),
        ],
    )
    def test_quasi_rabi_window_holds_the_transit_below_h_1(self, N, h, t_ref, F_ref):
        # below h = 1 the window keeps the length N, twice the free chain's
        # transit time N/2; [0, N h] ended before the first arrival and
        # returned the initial state, t* = 0 and Fbar = 1/4
        res = find_transfer_time(ChainSpec(N=N, h=h))
        assert res.search_window == (0.0, float(N))
        assert res.t_star == pytest.approx(t_ref, rel=1e-9, abs=0.0)
        assert res.fidelity == pytest.approx(F_ref, rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("N, h", [(29, 100.0), (30, 60.0), (33, 4000.0), (200, 1.0)])
    def test_refine_evaluates_no_scanned_time(self, N, h, monkeypatch):
        # _scan hands its winner's (Fbar, Fbar', Fbar'', f) to _refine, so
        # every time _refine evaluates is a new one
        seen = {"_scan": set(), "_refine": set()}
        stage = []
        evaluate = protocol_module._fidelity_at

        def recording(eigenvalues, weights, t):
            if stage:
                seen[stage[-1]].update(np.atleast_1d(t).tolist())
            return evaluate(eigenvalues, weights, t)

        def staged(name):
            real = getattr(protocol_module, name)

            def call(*args):
                stage.append(name)
                try:
                    return real(*args)
                finally:
                    stage.pop()

            return call

        monkeypatch.setattr(protocol_module, "_fidelity_at", recording)
        for name in seen:
            monkeypatch.setattr(protocol_module, name, staged(name))
        find_transfer_time(ChainSpec(N=N, h=h))
        assert seen["_scan"] and not seen["_refine"] & seen["_scan"]

    def test_reading_window_recurrences(self):
        # near-optimal readout times recur with the fast edge frequency,
        # giving several separated high-fidelity clusters around t*
        spec = ChainSpec(N=30, h=60.0)
        sd = diagonalize(build_single_particle(spec))
        res = find_transfer_time(spec, sd)
        idx = [k - 1 for k in localized_indices(30)]
        rf = rabi_frequencies(np.sort(sd.eigenvalues[idx]))
        w = 10.0 * np.pi / rf.omega0_minus
        ts = np.arange(res.t_star - w, res.t_star + w, np.pi / (40.0 * rf.omega0_minus))
        from xxchain.fidelity import average_fidelity_exact

        good = np.array([average_fidelity_exact(spec, t).value for t in ts])
        good = good >= res.fidelity - 0.01
        clusters = int(np.sum(np.diff(good.astype(int)) == 1)) + int(good[0])
        assert clusters >= 3


class TestPrunedScan:
    # _SCREEN_POINTS + 1 points take the screen two chunks of blocks
    SIZES = (1, 1023, 1024, 1025, 2085, _SCREEN_POINTS + 1)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_full_grid_argmax(self, seed):
        # the screened scan must pick the very grid point np.argmax picks
        # over its evaluator on every grid time, first of equal maxima
        # included; the seed's t0 + 2e5 is past the end of the (50, 4000) t*
        # window
        spec, t_seed, step = random_grid_chain(seed)
        sd = diagonalize(build_single_particle(spec))
        weights = _evaluator_weights(sd.eigenvalues, edge_products(spec, sd))
        for t0 in (t_seed, t_seed + 2e5):
            spacing = (t0 + step) - t0
            for n in self.SIZES:
                t_best, row, work = _scan(sd, weights, t0, t0 + (n - 1.5) * step, step)
                assert work["grid_points"] == n
                F = _fidelity_at(sd.eigenvalues, weights, t0 + np.arange(n) * spacing)[0]
                j = int(np.argmax(F))
                assert t_best == t0 + j * spacing
                assert abs(row[0] - F[j]) <= 1e-14
                assert 1 <= work["grid_points_exact"] <= n

    @pytest.mark.parametrize("seed", range(20))
    def test_screen_argmax_is_evaluated(self, seed):
        # the scan's threshold, compared in double precision, admits the
        # screen's own argmax, whose exact fidelity set it; at Fbar = 1/5 it
        # admits every point
        spec, t_seed, step = random_grid_chain(seed)
        sd = diagonalize(build_single_particle(spec))
        weights = _evaluator_weights(sd.eigenvalues, edge_products(spec, sd))
        for t0 in (t_seed, t_seed + 2e5):
            for n in self.SIZES:
                bound = _fidelity_bound(sd.eigenvalues, weights[:, :4].real, t0, step, n)
                j = int(np.argmax(bound.modulus))
                L = _fidelity_at(sd.eigenvalues, weights, t0 + j * step)[0]
                assert j in bound.reaching(L)
                assert len(bound.reaching(0.2)) == n

    @pytest.mark.parametrize("N, h", [(50, 200.0), (32, 1000.0)])
    def test_few_points_evaluated_on_all_modes(self, N, h):
        # a count, not a timing: the screen leaves at most 5% of the
        # quasi-Rabi window to the all-mode kernel
        res = find_transfer_time(ChainSpec(N=N, h=h))
        assert res.modes_kept == 6
        assert 0.0 < res.truncation_bound < 4e-3
        assert res.grid_points > 50000
        assert 1 <= res.grid_points_exact <= 0.05 * res.grid_points


class TestBarrierChainOnly:
    """The t* search reads its window from the barrier chain's levels, so it
    refuses any other chain instead of answering from a window that may
    miss the transfer."""

    @staticmethod
    def weak_end_bonds():
        # J = 0.05 on bonds 2 and 28, h = 0: the search's window ends at
        # t = 34, where Fbar is 0.29, while the transfer peaks near t = 133
        couplings = [1.0] * 29
        couplings[1] = couplings[27] = 0.05
        return ChainSpec(N=30, h=0.0, couplings=tuple(couplings))

    def test_weak_end_bonds_refused(self):
        spec = self.weak_end_bonds()
        ts = np.arange(0.0, 400.0, 0.05)
        F = reference_fbar(spec)(ts)
        assert F.max() > 0.99 and 130.0 < ts[np.argmax(F)] < 137.0
        with pytest.raises(ValueError, match="barrier chain's couplings"):
            find_transfer_time(spec)
        (rec,) = scan(spec, "h", [0.0])
        assert "barrier chain's couplings" in rec.error and np.isnan(rec.t_star)

    def test_custom_fields_refused(self):
        fields = [0.0] * 30
        fields[2] = fields[27] = 60.0
        fields[14] = 1.0
        with pytest.raises(ValueError, match="barrier chain's fields"):
            find_transfer_time(ChainSpec(N=30, h=60.0, fields=tuple(fields)))

    def test_barrier_values_given_explicitly_pass(self):
        spec = ChainSpec(N=30, h=60.0)
        explicit = ChainSpec(N=30, h=60.0, couplings=(1,) * 29, fields=spec.fields)
        assert repr(find_transfer_time(explicit)) == repr(find_transfer_time(spec))


def hill_climb_peak(spec, t0, lo, hi, n=4001):
    """(t, Fbar) where hill-climbing from t0 stops on an n-point grid over [lo, hi].

    The grid is built by reference_fbar, without protocol or fidelity.  The
    climb starts at the grid point nearest t0 and moves to its higher
    neighbour until neither is higher: the nearest local maximum uphill, or
    the end of the bracket it rises to.
    """
    t = np.linspace(lo, hi, n)
    F = reference_fbar(spec)(t)
    j = int(np.argmin(np.abs(t - t0)))
    while True:
        k = max(range(max(j - 1, 0), min(j + 2, n)), key=F.__getitem__)
        if F[k] <= F[j]:
            return t[j], F[j]
        j = k


class TestRefine:
    STEP = np.pi / 40.0

    def assert_reaches_peak(self, spec, t0, halfwidth):
        # the refined point lies in the bracket and is not below the peak
        # that hill-climbing from t0 reaches; returns that peak's time
        sd = diagonalize(build_single_particle(spec))
        lo, hi = max(0.0, t0 - halfwidth), t0 + halfwidth
        weights = _evaluator_weights(sd.eigenvalues, edge_products(spec, sd))
        start = _fidelity_at(sd.eigenvalues, weights, t0)
        t = _refine(sd, weights, t0, start, halfwidth)[0]
        t_peak, F_peak = hill_climb_peak(spec, t0, lo, hi)
        assert lo <= t <= hi
        assert reference_fbar(spec)(np.array([t]))[0] >= F_peak - 1e-12
        return t_peak

    def grid_point(self, seed, pick=np.argmax):
        # the best (or, with pick=np.argmin, the worst) point of a 200-point
        # grid from the seed's t0
        spec, t0, _ = random_grid_chain(seed)
        sd = diagonalize(build_single_particle(spec))
        ts = t0 + np.arange(200) * self.STEP
        weights = _evaluator_weights(sd.eigenvalues, edge_products(spec, sd))
        F = _fidelity_at(sd.eigenvalues, weights, ts)[0]
        return spec, t0 + int(pick(F)) * self.STEP

    @pytest.mark.parametrize("seed", range(20))
    def test_derivatives_match_central_differences(self, seed):
        # steps of 1e-3 over the largest frequency; the errors scale with
        # its first and second powers
        spec, t0, _ = random_grid_chain(seed)
        sd = diagonalize(build_single_particle(spec))
        eps = sd.eigenvalues
        weights = _evaluator_weights(eps, edge_products(spec, sd))
        w = float(np.max(np.abs(eps)))
        d = 1e-3 / w
        ts = t0 + np.linspace(-1.0, 1.0, 7)
        rows = np.column_stack(_fidelity_at(eps, weights, ts)[:3])
        for t, row in zip(ts, rows):
            # the array call's row is the scalar call's value and derivatives
            F, d1, d2, _ = _fidelity_at(eps, weights, t)
            np.testing.assert_allclose(row, (F, d1, d2), rtol=0.0, atol=1e-15)
            lo, hi = (_fidelity_at(eps, weights, t + u)[0] for u in (-d, d))
            for F, d1, d2 in ((F, d1, d2), row):
                assert abs((hi - lo) / (2.0 * d) - d1) <= 1e-6 * w
                assert abs((hi - 2.0 * F + lo) / d**2 - d2) <= 1e-6 * w**2

    @pytest.mark.parametrize("pick", [np.argmax, np.argmin], ids=["best", "worst"])
    @pytest.mark.parametrize("seed", range(20))
    def test_reaches_the_hill_climbing_peak(self, seed, pick):
        # from the worst grid point Fbar is convex: the search must climb
        # out of the minimum, not settle in it
        spec, t0 = self.grid_point(seed, pick)
        self.assert_reaches_peak(spec, t0, self.STEP)

    @pytest.mark.parametrize("side", [-1.0, 1.0], ids=["peak-below", "peak-above"])
    @pytest.mark.parametrize("seed", range(0, 20, 3))
    def test_peak_at_a_bracket_end(self, seed, side):
        # start a quarter step past the peak, with the bracket an eighth of
        # a step wide, so Fbar rises to the bracket end nearest the peak
        spec, tb = self.grid_point(seed)
        t_peak, _ = hill_climb_peak(spec, tb, tb - self.STEP, tb + self.STEP)
        t0 = t_peak - side * self.STEP / 4.0
        t_end = self.assert_reaches_peak(spec, t0, self.STEP / 8.0)
        assert t_end == pytest.approx(t0 + side * self.STEP / 8.0, abs=1e-12)

    @pytest.mark.parametrize("t0", [0.0, 0.3, 2.0])
    def test_bracket_clipped_at_zero(self, t0):
        # halfwidth 2.5 > t0, so the bracket is [0, t0 + 2.5]
        self.assert_reaches_peak(ChainSpec(N=12, h=3.0), t0, 2.5)


class TestScan:
    def test_field_sweep_times_increase(self):
        recs = scan(ChainSpec(N=12, h=10.0), "h", [10.0, 14.0, 18.0])
        assert [r.error for r in recs] == ["", "", ""]
        t = [r.t_star for r in recs]
        assert t[0] < t[1] < t[2]
        for r in recs:
            assert 0.0 <= r.fidelity <= 1.0

    def test_records_carry_search_work(self):
        spec = ChainSpec(N=29, h=100.0)
        res = find_transfer_time(spec)
        good, bad = scan(spec, "N", [29, 3])
        work = (
            "modes_kept", "screen_terms", "truncation_bound", "grid_points", "grid_points_exact"
        )
        assert [getattr(good, k) for k in work] == [getattr(res, k) for k in work]
        assert (bad.modes_kept, bad.screen_terms, bad.grid_points, bad.grid_points_exact) == (
            0, 0, 0, 0
        )
        assert np.isnan(bad.truncation_bound)

    def test_bad_point_recorded_not_fatal(self):
        recs = scan(ChainSpec(N=12, h=10.0), "N", [12, 3, 13])
        assert recs[0].error == "" and recs[2].error == ""
        assert recs[1].error != ""
        assert np.isnan(recs[1].t_star)

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            scan(ChainSpec(N=12), "J", [1.0])

    def test_empty_values(self):
        with pytest.raises(ValueError):
            scan(ChainSpec(N=12), "h", [])


class TestTransferRecord:
    @pytest.mark.parametrize("N, h", [(30, 60.0), (31, 40.0), (29, 100.0)])
    def test_fields(self, N, h):
        spec = ChainSpec(N=N, h=h)
        sd = diagonalize(build_single_particle(spec))
        res = find_transfer_time(spec, sd)
        assert (res.N, res.h, res.error) == (N, h, "")
        weights = _evaluator_weights(sd.eigenvalues, edge_products(spec, sd))
        assert res.fidelity == _fidelity_at(sd.eigenvalues, weights, res.t_star)[0]
        # F_approx against the amplitudes of the full propagator
        amp = propagator(sd, res.t_star)
        fa = average_fidelity_approx(amp.entry(1, N - 1), amp.entry(1, N), amp.entry(2, N - 1))
        assert abs(res.F_approx - fa) <= 1e-12
        if res.regime == "rabi":
            assert res.t1_estimate == transfer_time_estimate(N, h)
        else:
            assert np.isnan(res.t1_estimate)


def transfer_time_row(spec):
    """find_transfer_time(spec), or the error record scan keeps for it."""
    try:
        return find_transfer_time(spec)
    except ValueError as exc:
        return TransferTimeResult(N=spec.N, h=spec.h, regime=classify_chain(spec.N),
                                  error=str(exc))


class TestScanGeometry:
    # a record holds nan where it has no value, so compare reprs
    @pytest.mark.parametrize(
        "base",
        [
            ChainSpec(N=30, h=60.0, senders=(4, 5), receivers=(26, 27)),
            ChainSpec(N=30, h=60.0, couplings=tuple(np.linspace(0.9, 1.1, 29))),
            ChainSpec(N=30, h=60.0, barriers=(4, 27)),
        ],
        ids=["sites", "couplings", "barriers"],
    )
    def test_h_axis_keeps_the_chain(self, base):
        # the custom couplings stay at every point, where the search
        # refuses them: each point is an error row
        rec = scan(base, "h", [60.0, 80.0])
        assert repr(rec[0]) == repr(transfer_time_row(base))
        moved = ChainSpec(N=30, h=80.0, couplings=base.couplings, senders=base.senders,
                          receivers=base.receivers, barriers=base.barriers)
        assert repr(rec[1]) == repr(transfer_time_row(moved))
        custom = base.couplings != (1.0,) * 29
        assert [r.error != "" for r in rec] == [custom, custom]

    def test_zero_field_point_is_a_row(self):
        (rec,) = scan(ChainSpec(N=30, h=60.0), "h", [0.0])
        assert repr(rec) == repr(find_transfer_time(ChainSpec(N=30, h=0.0)))
        assert rec.error == "" and np.isnan(rec.t1_estimate)

    def test_h_axis_rejects_custom_fields(self):
        def fields(*sites):
            return [60.0 if n in sites else 0.0 for n in range(1, 31)]

        with pytest.raises(ValueError, match="barrier chain's fields"):
            scan(ChainSpec(N=30, h=60.0, fields=fields(3, 27)), "h", [60.0])
        # fields equal to the barrier profile are not custom
        (rec,) = scan(ChainSpec(N=30, h=60.0, fields=fields(3, 28)), "h", [60.0])
        assert repr(rec) == repr(find_transfer_time(ChainSpec(N=30, h=60.0)))

    @pytest.mark.parametrize(
        "base",
        [
            ChainSpec(N=30, h=60.0, senders=(4, 5)),
            ChainSpec(N=30, h=60.0, barriers=(4, 27)),
            ChainSpec(N=30, h=60.0, couplings=(1.1,) * 29),
        ],
    )
    def test_N_axis_rejects_other_geometries(self, base):
        with pytest.raises(ValueError, match="default chain geometry"):
            scan(base, "N", [30])
