import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from conftest import random_grid_chain
from xxchain.amplitudes import propagator, propagator_rows
from xxchain.chain import ChainSpec, build_single_particle
from xxchain.fidelity import (
    _GRID_BLOCK,
    _fidelity_at,
    average_fidelity_approx,
    edge_products,
    fidelity_grid,
)
from xxchain.perturbation import rabi_frequencies, transfer_time_estimate
from xxchain.protocol import (
    _bounded_brent,
    _refine,
    _scan,
    find_transfer_time,
    quasi_rabi_coefficients,
    re_f_truncated,
    scan,
    transfer_record,
)
from xxchain.spectral import diagonalize, edge_modes, localized_indices


def exact_re_f(spec, sd, ts):
    rows = propagator_rows(sd, [spec.senders[0]], np.asarray(ts, dtype=float))
    return rows[:, 0, spec.receivers[0] - 1].real


class TestCoefficients:
    def test_values(self):
        c = quasi_rabi_coefficients(29)
        assert c.c2 == 0.25
        assert c.c3 == pytest.approx(3.0 / 57.0)
        assert c.c1 + c.c3 == pytest.approx(0.25)

    def test_small_chain_rejected(self):
        with pytest.raises(ValueError):
            quasi_rabi_coefficients(6)


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
        c = quasi_rabi_coefficients(29)
        expected = (c.c1, c.c2, c.c3, c.c1, c.c2, c.c3)
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
        "N, h, t_star, fidelity",
        [
            (29, 100.0, 1109.7846522122243, 0.8374365593761322),
            (50, 200.0, 4420.235593872524, 0.9926410979368487),
            (32, 1000.0, 15532.036231847127, 0.9823506962112981),
            (46, 100.0, 15727.396400881948, 0.9894040398778821),
        ],
    )
    def test_pinned_optimum(self, N, h, t_star, fidelity):
        # pinned before the grid kernel was rewritten: t* must not move
        res = find_transfer_time(ChainSpec(N=N, h=h))
        assert res.t_star == pytest.approx(t_star, rel=1e-9, abs=0.0)
        assert res.fidelity == pytest.approx(fidelity, rel=0.0, abs=1e-12)

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
    B = _GRID_BLOCK
    SIZES = (1, B - 1, B, B + 1, 2 * B + 37)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_full_grid_argmax(self, seed):
        # the screened scan must pick the very grid point np.argmax picks
        # over the exact grid, first of equal maxima included
        spec, t0, step = random_grid_chain(seed)
        sd = diagonalize(build_single_particle(spec))
        products = edge_products(spec, sd)
        spacing = (t0 + step) - t0
        for n in self.SIZES:
            t_best, F_best, work = _scan(sd, products, t0, t0 + (n - 1.5) * step, step)
            assert work["grid_points"] == n
            F = fidelity_grid(sd.eigenvalues, products, t0, spacing, n)
            j = int(np.argmax(F))
            assert t_best == t0 + j * spacing
            assert abs(F_best - F[j]) <= 1e-14
            assert 1 <= work["grid_points_exact"] <= n

    @pytest.mark.parametrize("N, h", [(50, 200.0), (32, 1000.0)])
    def test_few_points_evaluated_on_all_modes(self, N, h):
        # a count, not a timing: the screen leaves at most 5% of the
        # quasi-Rabi window to the all-mode kernel
        res = find_transfer_time(ChainSpec(N=N, h=h))
        assert res.modes_kept == 6
        assert 0.0 < res.truncation_bound < 4e-3
        assert res.grid_points > 50000
        assert 1 <= res.grid_points_exact <= 0.05 * res.grid_points


def traced(func, calls):
    def wrapped(x):
        calls.append(float(x))
        return func(x)

    return wrapped


class TestBoundedBrent:
    # the in-module port against the SciPy routine it was ported from: the
    # same evaluation points in the same order, and the same minimizer bit
    # for bit

    def assert_same_as_scipy(self, func, lo, hi, xatol):
        ours, theirs = [], []
        x = _bounded_brent(traced(func, ours), lo, hi, xatol)
        res = minimize_scalar(traced(func, theirs), bounds=(lo, hi), method="bounded",
                              options={"xatol": xatol})
        assert x.hex() == float(res.x).hex()
        assert [t.hex() for t in ours] == [t.hex() for t in theirs]
        return x, ours

    @pytest.mark.parametrize("seed", range(20))
    def test_refine_matches_scipy(self, seed):
        spec, t0, step = random_grid_chain(seed)
        sd = diagonalize(build_single_particle(spec))
        products = edge_products(spec, sd)
        # t0 >= 10 > step, so _refine searches [t0 - step, t0 + step] to 1e-8 t0
        x, _ = self.assert_same_as_scipy(
            lambda t: -_fidelity_at(sd.eigenvalues, products, t)[0],
            t0 - step, t0 + step, 1e-8 * t0,
        )
        assert _refine(sd, products, t0, step).hex() == x.hex()

    @pytest.mark.parametrize("t0", [0.0, 0.3, 2.0])
    def test_bracket_clipped_at_zero(self, t0):
        # halfwidth 2.5 > t0, so _refine searches [0, t0 + 2.5] to 1e-8
        spec = ChainSpec(N=12, h=3.0)
        sd = diagonalize(build_single_particle(spec))
        products = edge_products(spec, sd)
        x, _ = self.assert_same_as_scipy(
            lambda t: -_fidelity_at(sd.eigenvalues, products, t)[0], 0.0, t0 + 2.5, 1e-8
        )
        assert _refine(sd, products, t0, 2.5).hex() == x.hex()

    def test_constant_objective(self):
        self.assert_same_as_scipy(lambda t: 1.0, 0.0, 5.0, 1e-8)

    def test_evaluation_cap(self):
        # |x| with xatol = 0 never meets the stopping rule near x = 0
        _, ours = self.assert_same_as_scipy(abs, -1.0, 1.0, 0.0)
        assert len(ours) == 500

    def test_nonfinite_bounds_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            _bounded_brent(abs, float("nan"), 1.0, 1e-8)


class TestScan:
    def test_field_sweep_times_increase(self):
        recs = scan(ChainSpec(N=12, h=10.0), "h", [10.0, 14.0, 18.0])
        assert [r.error for r in recs] == ["", "", ""]
        t = [r.t_star for r in recs]
        assert t[0] < t[1] < t[2]
        for r in recs:
            assert 0.0 <= r.F_exact <= 1.0

    def test_records_carry_search_work(self):
        spec = ChainSpec(N=29, h=100.0)
        res = find_transfer_time(spec)
        good, bad = scan(spec, "N", [29, 3])
        work = ("modes_kept", "truncation_bound", "grid_points", "grid_points_exact")
        assert [getattr(good, k) for k in work] == [getattr(res, k) for k in work]
        assert (bad.modes_kept, bad.grid_points, bad.grid_points_exact) == (0, 0, 0)
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
        rec = transfer_record(spec)
        assert (rec.t_star, rec.F_exact, rec.regime) == (res.t_star, res.fidelity, res.regime)
        assert (rec.candidate, rec.candidate_fidelity) == (res.candidate, res.candidate_fidelity)
        assert rec.search_window == res.search_window and rec.error == ""
        # F_approx against the amplitudes of the full propagator
        amp = propagator(sd, res.t_star)
        fa = average_fidelity_approx(amp.entry(1, N - 1), amp.entry(1, N), amp.entry(2, N - 1))
        assert abs(rec.F_approx - fa) <= 1e-12
        if res.regime == "rabi":
            assert rec.t1_estimate == transfer_time_estimate(N, h)
        else:
            assert np.isnan(rec.t1_estimate)


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
        rec = scan(base, "h", [60.0, 80.0])
        assert repr(rec[0]) == repr(transfer_record(base))
        moved = ChainSpec(N=30, h=80.0, couplings=base.couplings, senders=base.senders,
                          receivers=base.receivers, barriers=base.barriers)
        assert repr(rec[1]) == repr(transfer_record(moved))

    def test_zero_field_point_is_a_row(self):
        (rec,) = scan(ChainSpec(N=30, h=60.0), "h", [0.0])
        assert repr(rec) == repr(transfer_record(ChainSpec(N=30, h=0.0)))
        assert rec.error == "" and np.isnan(rec.t1_estimate)

    def test_h_axis_rejects_custom_fields(self):
        def fields(*sites):
            return [60.0 if n in sites else 0.0 for n in range(1, 31)]

        with pytest.raises(ValueError, match="fields"):
            scan(ChainSpec(N=30, h=60.0, fields=fields(3, 27)), "h", [60.0])
        # fields equal to the barrier profile are not custom
        (rec,) = scan(ChainSpec(N=30, h=60.0, fields=fields(3, 28)), "h", [60.0])
        assert repr(rec) == repr(transfer_record(ChainSpec(N=30, h=60.0)))

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
