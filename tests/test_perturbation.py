import numpy as np
import pytest

from xxchain.chain import ChainSpec, build_single_particle
from xxchain.perturbation import (
    RabiFrequencies,
    cubic_roots,
    perturbative_energies,
    rabi_frequencies,
    transfer_time_estimate,
)
from xxchain.protocol import find_transfer_time
from xxchain.spectral import diagonalize, localized_indices


class TestCubicRoots:
    def test_zero_field(self):
        x = cubic_roots(0.0)
        assert np.allclose(x, (np.sqrt(2.0), 0.0, -np.sqrt(2.0)), atol=1e-14)

    @pytest.mark.parametrize("h", [1.0, 10.0, 100.0, 4000.0])
    def test_residuals(self, h):
        x = np.asarray(cubic_roots(h))
        res = x**3 + h * x**2 - 2.0 * x - h
        assert np.max(np.abs(res)) < 1e-8 * max(1.0, h) ** 2

    def test_descending(self):
        for h in (0.5, 3.0, 40.0):
            x = cubic_roots(h)
            assert x[0] > x[1] > x[2]

    def test_negative_field_rejected(self):
        with pytest.raises(ValueError):
            cubic_roots(-1.0)


class TestPerturbativeEnergies:
    def test_normalization_identity(self):
        # the localized-state weights satisfy 2 gamma^2 (alpha^2+beta^2+1) = 1
        for h in (5.0, 60.0, 100.0):
            ps = perturbative_energies(30, h)
            for alpha, beta, gamma in zip(ps.alphas, ps.betas, ps.gammas):
                assert abs(2.0 * gamma**2 * (alpha**2 + beta**2 + 1.0) - 1.0) < 1e-12

    @pytest.mark.parametrize("N", [30, 46])
    def test_quadruplet_accuracy(self, N):
        h = 100.0
        spec = ChainSpec(N=N, h=h)
        sd = diagonalize(build_single_particle(spec))
        idx = localized_indices(N)
        exact = np.sort(sd.eigenvalues[[i - 1 for i in idx]])
        pred = np.sort(perturbative_energies(N, h).eps_q)
        rel = np.max(np.abs((pred - exact) / exact))
        assert rel < 1e-2

    def test_error_shrinks_with_field(self):
        N = 30
        idx = [i - 1 for i in localized_indices(N)]

        def err(h):
            sd = diagonalize(build_single_particle(ChainSpec(N=N, h=h)))
            exact = np.sort(sd.eigenvalues[idx])
            pred = np.sort(perturbative_energies(N, h).eps_q)
            return np.max(np.abs((pred - exact) / exact))

        assert err(200.0) <= 0.5 * err(100.0)

    def test_eps_q_listing(self):
        ps = perturbative_energies(30, 50.0)
        assert len(ps.eps_q) == 4
        assert len(set(ps.eps_q)) == 4

    def test_small_chain_rejected(self):
        with pytest.raises(ValueError):
            perturbative_energies(6, 10.0)

    @pytest.mark.parametrize("N, h", [(7, 0.0), (9, 0.0), (13, 0.0), (19, 0.0), (12, 1.0),
                                      (19, 1.0), (33, 1.0), (40, 1.0), (54, 1.0)])
    def test_roundoff_resonance_rejected(self, N, h):
        # a denominator x_i + 2 cos(k pi/(N-5)) of 1e-16 gave lambda ~ -8e15
        with pytest.raises(ArithmeticError, match="is roundoff"):
            perturbative_energies(N, h)

    def test_rabi_chains_have_no_roundoff_resonance(self):
        # every denominator stays above 1e-3 here, and the finite
        # near-resonance of N = 18, 31, 57 at h = 0.5 (1.4e-3) is summed
        for h in (0.5, 2.0, 50.0, 100.0):
            for N in (N for N in range(7, 61) if N % 3 != 2):
                assert np.all(np.isfinite(perturbative_energies(N, h).eps_q))


class TestRabiFrequencies:
    @pytest.mark.parametrize("h", [20.0, 60.0, 100.0])
    def test_frequency_ordering(self, h):
        N = 30
        spec = ChainSpec(N=N, h=h)
        sd = diagonalize(build_single_particle(spec))
        idx = [i - 1 for i in localized_indices(N)]
        rf = rabi_frequencies(np.sort(sd.eigenvalues[idx]))
        assert rf.omega0_minus > rf.omega0_plus > rf.omega1_minus > rf.omega1_plus

    def test_half_rabi_period_near_transfer_time(self):
        N, h = 30, 60.0
        spec = ChainSpec(N=N, h=h)
        sd = diagonalize(build_single_particle(spec))
        idx = [i - 1 for i in localized_indices(N)]
        rf = rabi_frequencies(np.sort(sd.eigenvalues[idx]))
        t1 = np.pi / (2.0 * rf.omega1_minus)
        res = find_transfer_time(spec, sd)
        assert abs(t1 - res.t_star) < 0.05 * res.t_star

    def test_envelope_time(self):
        rf = RabiFrequencies(omega0_plus=1.5, omega0_minus=2.0, omega1_plus=0.1, omega1_minus=0.25)
        assert rf.envelope_time == 2.0 * np.pi

    def test_degenerate_envelope_rejected(self):
        # mirror pairs of equal splitting: omega1_minus is exactly zero
        rf = rabi_frequencies([-2.0, -2.0, 2.0, 2.0])
        assert rf.omega1_minus == 0.0
        with pytest.raises(ArithmeticError,
                           match="^degenerate quadruplet: slow envelope frequency is zero$"):
            rf.envelope_time


class TestTransferTimeEstimate:
    def test_even_chain(self):
        assert transfer_time_estimate(30, 60.0) == pytest.approx(np.pi / 2 * 3600.0)

    def test_odd_chain_linear_correction(self):
        h = 60.0
        assert transfer_time_estimate(31, h) == pytest.approx(
            np.pi / 2 * (h**2 - h)
        )

    def test_parity_of_correction(self):
        h = 10.0
        base = np.pi / 2 * h**2
        assert transfer_time_estimate(33, h) == pytest.approx(base + np.pi / 2 * h)
        assert transfer_time_estimate(34, h) == pytest.approx(base)

    @pytest.mark.parametrize("N, h", [(7, 0.5), (31, 0.9), (30, 1e-300), (30, 0.0)])
    def test_nan_unless_a_positive_time(self, N, h):
        assert np.isnan(transfer_time_estimate(N, h))

    def test_beat_regime_rejected(self):
        with pytest.raises(ValueError):
            transfer_time_estimate(29, 10.0)
