import numpy as np
import pytest

from xxchain.amplitudes import propagator_rows
from xxchain.chain import ChainSpec, build_single_particle
from xxchain.perturbation import rabi_frequencies, transfer_time_estimate
from xxchain.protocol import (
    find_transfer_time,
    quadruplet_data,
    quasi_rabi_coefficients,
    re_f_fourstate,
    re_f_fourstate_envelope,
    re_f_fourstate_factored,
    re_f_sixstate,
    scan,
    sixstate_data,
)
from xxchain.spectral import diagonalize, localized_indices


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
        eps_q, a = quadruplet_data(spec, sd)
        # the transfer amplitude vanishes at t = 0; the quadruplet products
        # alternate in sign and cancel up to O(1/h) leakage
        assert abs(re_f_fourstate(0.0, eps_q, a)) < 1e-2

    def test_factored_form_identical(self, rabi_chain):
        spec, sd = rabi_chain
        eps_q, a = quadruplet_data(spec, sd)
        ts = np.linspace(0.0, 2.0 * transfer_time_estimate(30, 100.0), 400)
        direct = re_f_fourstate(ts, eps_q, a)
        factored = re_f_fourstate_factored(ts, eps_q, a)
        assert np.max(np.abs(direct - factored)) < 1e-6

    def test_matches_exact_amplitude(self, rabi_chain):
        spec, sd = rabi_chain
        eps_q, a = quadruplet_data(spec, sd)
        ts = np.linspace(0.0, 2.0 * transfer_time_estimate(30, 100.0), 600)
        assert np.max(np.abs(re_f_fourstate(ts, eps_q, a) - exact_re_f(spec, sd, ts))) < 1e-2

    def test_envelope_form(self, rabi_chain):
        spec, sd = rabi_chain
        eps_q, a = quadruplet_data(spec, sd)
        idx = [k - 1 for k in localized_indices(30)]
        rf = rabi_frequencies(np.sort(sd.eigenvalues[idx]))
        ts = np.linspace(0.0, 2.0 * transfer_time_estimate(30, 100.0), 600)
        env = re_f_fourstate_envelope(ts, rf, 30)
        assert np.max(np.abs(env - re_f_fourstate(ts, eps_q, a))) < 0.1


class TestSixStateTruncation:
    def test_matches_exact_amplitude(self, quasi_chain):
        spec, sd = quasi_chain
        res = find_transfer_time(spec, sd)
        ts = np.linspace(0.0, 1.2 * res.t_star, 800)
        diff = re_f_sixstate(ts, spec, sd) - exact_re_f(spec, sd, ts)
        assert np.max(np.abs(diff)) < 5e-2

    def test_product_magnitudes_match_coefficients(self, quasi_chain):
        spec, sd = quasi_chain
        _, products = sixstate_data(spec, sd)
        c = quasi_rabi_coefficients(29)
        expected = (c.c1, c.c2, c.c3, c.c1, c.c2, c.c3)
        assert np.allclose(np.abs(products), expected, atol=0.01)

    @pytest.mark.parametrize("h", [100.0, 200.0])
    def test_fast_pair_frequency(self, h):
        # the mirror-pair difference frequency of the outermost pair pins
        # to the band value -2J up to O(1/h) corrections
        spec = ChainSpec(N=29, h=h)
        eps, _ = sixstate_data(spec)
        w14m = (eps[0] - eps[3]) / 2.0
        assert abs(w14m + 2.0) < 0.1

    def test_rabi_chain_rejected(self):
        with pytest.raises(ValueError):
            sixstate_data(ChainSpec(N=30, h=100.0))


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


class TestScan:
    def test_field_sweep_times_increase(self):
        recs = scan(ChainSpec(N=12, h=10.0), "h", [10.0, 14.0, 18.0])
        assert [r.error for r in recs] == ["", "", ""]
        t = [r.t_star for r in recs]
        assert t[0] < t[1] < t[2]
        for r in recs:
            assert 0.0 <= r.F_exact <= 1.0

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
