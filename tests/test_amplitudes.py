import tracemalloc

import numpy as np
import pytest

from xxchain.amplitudes import (
    channel_occupation,
    propagator,
    propagator_rows,
    two_particle,
)
from xxchain.chain import ChainSpec, SymTridiag, build_single_particle
from xxchain.perturbation import transfer_time_estimate
from xxchain.spectral import diagonalize


class TestPropagator:
    def test_identity_at_zero(self):
        sd = diagonalize(build_single_particle(ChainSpec(N=9, h=4.0)))
        amp = propagator(sd, 0.0)
        assert np.max(np.abs(amp.f - np.eye(9))) < 1e-12

    def test_two_site_unit_hopping(self):
        # a free two-site hop with matrix element -1 rotates as cos/sin(t)
        sd = diagonalize(SymTridiag((0.0, 0.0), (-1.0,)))
        for t in (0.3, 1.1, 2.9):
            amp = propagator(sd, t)
            assert abs(amp.entry(1, 1) - np.cos(t)) < 1e-12
            assert abs(amp.entry(1, 2) - 1j * np.sin(t)) < 1e-12

    def test_two_site_pauli_units(self):
        # with J = 1 in Pauli units the hopping element is -2, so the
        # two-site exchange runs at frequency 2t
        sd = diagonalize(SymTridiag((0.0, 0.0), (-2.0,)))
        amp = propagator(sd, 0.7)
        assert abs(amp.entry(1, 2) - 1j * np.sin(1.4)) < 1e-12

    def test_unitarity(self):
        sd = diagonalize(build_single_particle(ChainSpec(N=12, h=20.0)))
        amp = propagator(sd, 7.3)
        rowsums = np.sum(np.abs(amp.f) ** 2, axis=1)
        assert np.max(np.abs(rowsums - 1.0)) < 1e-10

    def test_symmetric(self):
        sd = diagonalize(build_single_particle(ChainSpec(N=10, h=5.0)))
        amp = propagator(sd, 3.7)
        assert np.max(np.abs(amp.f - amp.f.T)) < 1e-12

    def test_group_property(self):
        sd = diagonalize(build_single_particle(ChainSpec(N=8, h=2.0)))
        f1 = propagator(sd, 1.2).f
        f2 = propagator(sd, 3.4).f
        f12 = propagator(sd, 4.6).f
        assert np.max(np.abs(f1 @ f2 - f12)) < 1e-9

    def test_oracle_equivalence(self):
        spec = ChainSpec(N=8, h=20.0)
        m = build_single_particle(spec).dense()
        w, v = np.linalg.eigh(m)
        U = (v * np.exp(-1j * w * 5.0)) @ v.T
        amp = propagator(diagonalize(build_single_particle(spec)), 5.0)
        assert np.max(np.abs(amp.f - U)) < 1e-10

    def test_rows_match_full_matrix(self):
        sd = diagonalize(build_single_particle(ChainSpec(N=9, h=6.0)))
        ts = [0.0, 1.5, 4.2]
        rows = propagator_rows(sd, [1, 2], ts)
        for i, t in enumerate(ts):
            amp = propagator(sd, t)
            assert np.max(np.abs(rows[i, 0] - amp.f[0])) < 1e-12
            assert np.max(np.abs(rows[i, 1] - amp.f[1])) < 1e-12

    def test_nonfinite_time_rejected(self):
        sd = diagonalize(SymTridiag((0.0, 0.0), (-1.0,)))
        with pytest.raises(ValueError):
            propagator(sd, np.inf)
        with pytest.raises(ValueError):
            propagator_rows(sd, [1], [0.0, np.nan])

    @pytest.mark.parametrize("site", [0, 10, -1])
    def test_rows_reject_sites_outside_chain(self, site):
        sd = diagonalize(build_single_particle(ChainSpec(N=9, h=6.0)))
        with pytest.raises(ValueError):
            propagator_rows(sd, [1, site], [1.0])

    @staticmethod
    def _chains():
        yield "N=1", SymTridiag((0.7,), ())
        yield "N=2", SymTridiag((0.3, -0.5), (-1.0,))
        for N in (9, 46, 400, 401):
            yield f"N={N}", build_single_particle(ChainSpec(N=N, h=100.0))
        # couplings and fields with no mirror symmetry
        yield "non-palindromic", build_single_particle(ChainSpec(
            N=11,
            couplings=tuple(0.5 + 0.13 * k for k in range(10)),
            fields=tuple(0.7 * (k % 4) + 0.05 * k for k in range(11)),
        ))
        # a zero coupling splits the chain into two equal uniform halves,
        # whose identical spectra make every level doubly degenerate
        yield "zero coupling", SymTridiag((0.0,) * 8, (-2.0,) * 3 + (0.0,) + (-2.0,) * 3)

    @pytest.mark.parametrize("t", [0.0, 2.3, 1234.5, 1e5])
    def test_matches_every_row(self, t):
        # the two symmetric products against the phase sum evaluated row by
        # row; both are exact up to roundoff, so the entries agree to 1e-13
        for name, m in self._chains():
            sd = diagonalize(m)
            f = propagator(sd, t).f
            rows = propagator_rows(sd, np.arange(1, sd.n + 1), [t])[0]
            assert np.max(np.abs(f - rows)) <= 1e-13, name
            assert np.array_equal(f, f.T), name

    @pytest.mark.parametrize("N", [200, 201])
    def test_krawtchouk_perfect_transfer(self, N):
        # couplings J_l = sqrt(l (N - l)) (hopping -2 J_l) give the equally
        # spaced spectrum 2(N - 1 - 2k): at t = pi/4 every site n maps onto
        # N + 1 - n up to a phase, so |f_1^N| = 1 and the pair (1, 2)
        # arrives at (N - 1, N) with |g| = 1
        l = np.arange(1, N)
        spec = ChainSpec(N=N, couplings=tuple(np.sqrt(l * (N - l))))
        sd = diagonalize(build_single_particle(spec))
        assert sd.parity is not None
        amp = propagator(sd, np.pi / 4.0)
        assert abs(abs(amp.entry(1, N)) - 1.0) <= 1e-12
        assert abs(abs(two_particle(amp, 1, 2, N - 1, N)) - 1.0) <= 1e-12

    def test_scratch_memory(self):
        # the result plus one real N x N factor (1.5x the result's size) on
        # the full path, or three N/2 x N/2 blocks (1.38x) on the folded
        # path this N = 400 chain takes
        sd = diagonalize(build_single_particle(ChainSpec(N=400, h=100.0)))
        propagator(sd, 1.0)
        tracemalloc.start()
        try:
            f = propagator(sd, 1234.5).f
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * f.nbytes

    @pytest.mark.parametrize("site", [0, -1, 10])
    def test_entry_rejects_sites_outside_chain(self, site):
        amp = propagator(diagonalize(build_single_particle(ChainSpec(N=9, h=6.0))), 1.0)
        with pytest.raises(ValueError, match=f"site {site} outside chain"):
            amp.entry(site, 1)
        with pytest.raises(ValueError, match=f"site {site} outside chain"):
            amp.entry(1, site)


class TestTwoParticle:
    def test_identity_at_zero(self):
        sd = diagonalize(build_single_particle(ChainSpec(N=8, h=3.0)))
        amp = propagator(sd, 0.0)
        assert abs(two_particle(amp, 1, 2, 1, 2) - 1.0) < 1e-12

    def test_filled_two_site_band_is_pure_phase(self):
        # both sites occupied: the pair amplitude is a phase, and the
        # spectrum is symmetric so the phase is exactly 1
        sd = diagonalize(SymTridiag((0.0, 0.0), (-1.0,)))
        for t in (0.4, 2.2, 9.1):
            amp = propagator(sd, t)
            assert abs(two_particle(amp, 1, 2, 1, 2) - 1.0) < 1e-12

    def test_unordered_pairs_rejected(self):
        sd = diagonalize(build_single_particle(ChainSpec(N=8, h=3.0)))
        amp = propagator(sd, 1.0)
        with pytest.raises(ValueError):
            two_particle(amp, 2, 1, 7, 8)
        with pytest.raises(ValueError):
            two_particle(amp, 1, 2, 8, 8)

    @pytest.mark.parametrize("pairs", [(0, 2, 1, 2), (-1, 2, 1, 2), (1, 2, 7, 9), (1, 9, 1, 2)])
    def test_sites_outside_chain_rejected(self, pairs):
        sd = diagonalize(build_single_particle(ChainSpec(N=8, h=3.0)))
        amp = propagator(sd, 1.0)
        with pytest.raises(ValueError, match="outside chain"):
            two_particle(amp, *pairs)

    def test_row_swap_flips_sign(self):
        # computing the determinant with source rows exchanged negates it
        sd = diagonalize(build_single_particle(ChainSpec(N=8, h=5.0)))
        amp = propagator(sd, 4.1)
        f = amp.f
        g = two_particle(amp, 1, 2, 7, 8)
        swapped = f[1, 6] * f[0, 7] - f[1, 7] * f[0, 6]
        assert abs(g + swapped) < 1e-14


class TestChannelOccupation:
    def test_zero_at_start(self):
        spec = ChainSpec(N=10, h=4.0)
        sd = diagonalize(build_single_particle(spec))
        assert channel_occupation(propagator_rows(sd, spec.senders, [0.0])[0], spec) < 1e-12

    def test_range(self):
        spec = ChainSpec(N=10, h=4.0)
        sd = diagonalize(build_single_particle(spec))
        occ = channel_occupation(propagator_rows(sd, spec.senders, [0.5, 2.0, 11.0]), spec)
        assert occ.shape == (3,)
        assert np.all((0.0 <= occ) & (occ <= 2.0))

    def test_rows_match_full_propagator(self):
        spec = ChainSpec(N=10, h=4.0, senders=(4, 5), receivers=(2, 8))
        sd = diagonalize(build_single_particle(spec))
        ts = [0.5, 2.0, 11.0]
        occ = channel_occupation(propagator_rows(sd, spec.senders, ts), spec)
        for t, value in zip(ts, occ):
            f = propagator(sd, t).f
            ref = sum(abs(f[s - 1, n - 1]) ** 2 for s in (4, 5) for n in spec.channel_sites)
            assert abs(value - ref) < 1e-12

    @staticmethod
    def _max_occ(N, h, tmax, npts=400):
        spec = ChainSpec(N=N, h=h)
        sd = diagonalize(build_single_particle(spec))
        rows = propagator_rows(sd, spec.senders, np.linspace(0.0, tmax, npts))
        return float(np.max(channel_occupation(rows, spec)))

    def test_scaling_with_field(self):
        # occupation is O(1/h) in the Rabi regime: doubling h should
        # suppress it by well over 1.8x
        o100 = self._max_occ(30, 100.0, transfer_time_estimate(30, 100.0))
        o200 = self._max_occ(30, 200.0, transfer_time_estimate(30, 200.0))
        assert o100 >= 1.8 * o200

    def test_quasi_rabi_contrast(self):
        # at N = 3n - 1 the extended states put real population into the
        # channel, far above the Rabi-regime level
        horizon = transfer_time_estimate(30, 100.0)
        o29 = self._max_occ(29, 100.0, horizon)
        o30 = self._max_occ(30, 100.0, horizon)
        assert o29 >= 5.0 * o30


class TestConstraints:
    def test_receiver_probability_bounds(self):
        spec = ChainSpec(N=12, h=7.0)
        sd = diagonalize(build_single_particle(spec))
        for t in np.linspace(0.0, 40.0, 37):
            f = propagator(sd, t).f
            assert abs(f[0, 10]) ** 2 + abs(f[0, 11]) ** 2 <= 1.0 + 1e-9
            assert abs(f[0, 10]) ** 2 + abs(f[1, 10]) ** 2 <= 1.0 + 1e-9

    def test_mirror_amplitude_symmetry(self):
        spec = ChainSpec(N=12, h=7.0)
        sd = diagonalize(build_single_particle(spec))
        for t in (0.9, 5.5, 23.0):
            f = propagator(sd, t).f
            assert abs(abs(f[0, 10]) - abs(f[1, 11])) < 1e-10
