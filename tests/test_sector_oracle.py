import numpy as np
import pytest

from conftest import pair_amplitude
from xxchain.amplitudes import propagator
from xxchain.chain import ChainSpec, build_single_particle
from xxchain.protocol import find_transfer_time
from xxchain.sector_oracle import (
    SectorBasis,
    TwoQubitState,
    build_sector_hamiltonians,
    evolve,
    reduced_receiver_state,
    state_fidelity,
)
from xxchain.spectral import diagonalize


def ket(name):
    return TwoQubitState(**{
        "00": dict(alpha=1, beta=0, gamma=0, delta=0),
        "01": dict(alpha=0, beta=1, gamma=0, delta=0),
        "10": dict(alpha=0, beta=0, gamma=1, delta=0),
        "11": dict(alpha=0, beta=0, gamma=0, delta=1),
    }[name])


class TestBasis:
    def test_pair_enumeration(self):
        basis = SectorBasis(4)
        assert basis.pairs == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
        assert basis.pair_index[(2, 4)] == 4
        assert basis.dim2 == 6

    def test_built_once_per_length(self):
        # evolve and build_sector_hamiltonians read them on every call
        assert SectorBasis(9).pairs is SectorBasis(9).pairs
        assert SectorBasis(9).pair_index is SectorBasis(9).pair_index
        with pytest.raises(TypeError):
            SectorBasis(9).pair_index[(1, 2)] = 5

    def test_state_normalization_check(self):
        with pytest.raises(ValueError):
            TwoQubitState(alpha=1.0, beta=1.0, gamma=0.0, delta=0.0)


class TestSectorHamiltonians:
    def test_h1_matches_single_particle(self):
        spec = ChainSpec(N=7, h=11.0)
        H1, _ = build_sector_hamiltonians(spec)
        assert np.array_equal(H1, build_single_particle(spec).dense())

    def test_h2_structure_small(self):
        # uniform N=6 chain: hops couple pairs differing by one
        # nearest-neighbor move, diagonal sums the two on-site energies
        spec = ChainSpec(N=6, h=0.0)
        _, H2 = build_sector_hamiltonians(spec)
        basis = SectorBasis(6)
        ix = basis.pair_index
        assert H2[ix[(1, 2)], ix[(1, 3)]] == -2.0  # particle 2 hops 2 -> 3
        assert H2[ix[(1, 3)], ix[(2, 3)]] == -2.0  # particle 1 hops 1 -> 2
        assert H2[ix[(1, 2)], ix[(2, 3)]] == 0.0  # two hops away
        assert H2[ix[(1, 2)], ix[(3, 4)]] == 0.0
        assert np.all(np.diag(H2) == 0.0)
        assert np.array_equal(H2, H2.T)

    def test_h2_barrier_diagonal(self):
        # both barrier sites occupied: on-site energies 2h + 2h
        spec = ChainSpec(N=6, h=100.0)
        _, H2 = build_sector_hamiltonians(spec)
        ix = SectorBasis(6).pair_index
        assert H2[ix[(3, 4)], ix[(3, 4)]] == 400.0

    def test_no_double_occupancy_state(self):
        assert all(n < m for n, m in SectorBasis(9).pairs)

    def test_pairwise_sum_spectrum(self):
        # free-fermion pairing: two-excitation eigenvalues are all sums of
        # distinct single-particle eigenvalues
        spec = ChainSpec(N=8, h=20.0)
        H1, H2 = build_sector_hamiltonians(spec)
        w1 = np.linalg.eigvalsh(H1)
        w2 = np.sort(np.linalg.eigvalsh(H2))
        sums = np.sort([w1[i] + w1[j] for i in range(8) for j in range(i + 1, 8)])
        assert np.max(np.abs(w2 - sums)) < 1e-9


class TestEvolve:
    def test_initial_placement(self):
        spec = ChainSpec(N=8, h=3.0)
        state = TwoQubitState.from_vector([0.5, 0.5, 0.5, 0.5])
        es = evolve(spec, state, 0.0)
        assert abs(es.c0 - 0.5) < 1e-12
        assert abs(es.c1[1] - 0.5) < 1e-12  # beta sits on s2
        assert abs(es.c1[0] - 0.5) < 1e-12  # gamma sits on s1
        assert abs(es.c2[SectorBasis(8).pair_index[(1, 2)]] - 0.5) < 1e-12

    def test_vacuum_stationary(self):
        spec = ChainSpec(N=8, h=3.0)
        for t in (0.0, 2.5, 17.0):
            es = evolve(spec, ket("00"), t)
            assert abs(es.c0 - 1.0) < 1e-12
            assert np.max(np.abs(es.c1)) < 1e-12
            assert np.max(np.abs(es.c2)) < 1e-12

    def test_norm_conserved(self):
        spec = ChainSpec(N=9, h=6.0)
        rng = np.random.default_rng(5)
        for _ in range(5):
            state = TwoQubitState.from_vector(
                rng.normal(size=4) + 1j * rng.normal(size=4)
            )
            es = evolve(spec, state, float(rng.uniform(0, 40)))
            assert abs(es.norm() - 1.0) < 1e-10

    def test_pair_amplitude_matches_determinant(self):
        spec = ChainSpec(N=8, h=20.0)
        es = evolve(spec, ket("11"), 5.0)
        amp = propagator(diagonalize(build_single_particle(spec)), 5.0)
        target = SectorBasis(8).pair_index[(7, 8)]
        assert abs(es.c2[target] - pair_amplitude(amp.f, 1, 2, 7, 8)) < 1e-10


class TestReducedState:
    def test_initial_receivers_polarized(self):
        spec = ChainSpec(N=8, h=3.0)
        state = TwoQubitState.from_vector([0.3, 0.5, 0.4, 0.2])
        rho = reduced_receiver_state(spec, evolve(spec, state, 0.0))
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.max(np.abs(rho - expected)) < 1e-12

    def test_vacuum_input_all_times(self):
        spec = ChainSpec(N=8, h=3.0)
        rho = reduced_receiver_state(spec, evolve(spec, ket("00"), 9.4))
        assert abs(rho[0, 0] - 1.0) < 1e-12

    def test_density_matrix_properties(self):
        spec = ChainSpec(N=8, h=20.0)
        rng = np.random.default_rng(11)
        for _ in range(4):
            state = TwoQubitState.from_vector(
                rng.normal(size=4) + 1j * rng.normal(size=4)
            )
            rho = reduced_receiver_state(spec, evolve(spec, state, float(rng.uniform(0, 30))))
            assert abs(np.trace(rho).real - 1.0) < 1e-12
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
            assert np.min(np.linalg.eigvalsh(rho)) > -1e-10

    def test_receiver_order_swap(self):
        # mirrored receiver assignment exchanges the |01> and |10> weights
        spec = ChainSpec(N=8, h=2.0)
        es = evolve(spec, ket("01"), 3.0)
        rho12 = reduced_receiver_state(spec, es, "12")
        rho21 = reduced_receiver_state(spec, es, "21")
        assert abs(rho12[1, 1] - rho21[2, 2]) < 1e-12
        assert abs(rho12[2, 2] - rho21[1, 1]) < 1e-12
        with pytest.raises(ValueError):
            reduced_receiver_state(spec, es, "badorder")


def receiver_vectors(spec, es, order):
    """The receiver 4-vector of each configuration of the other sites,
    grouped one amplitude at a time in a dict, in order of first use."""
    r1, r2 = spec.receivers if order == "12" else spec.receivers[::-1]
    vecs = {}

    def add(config, slot, amp):
        vecs.setdefault(config, np.zeros(4, dtype=complex))[slot] += amp

    add((), 0, es.c0)
    for n in range(1, spec.N + 1):
        slot = {r1: 2, r2: 1}.get(n)
        if slot is None:
            add((n,), 0, es.c1[n - 1])
        else:
            add((), slot, es.c1[n - 1])
    for (n, m), amp in zip(SectorBasis(spec.N).pairs, es.c2):
        if {n, m} == {r1, r2}:
            add((), 3, amp)
        elif r1 in (n, m):
            add((m if n == r1 else n,), 2, amp)
        elif r2 in (n, m):
            add((m if n == r2 else n,), 1, amp)
        else:
            add((n, m), 0, amp)
    return vecs


class TestAgainstOuterProductLoop:
    """reduced_receiver_state and state_fidelity against the sum over the
    configurations of the other sites, one outer product at a time."""

    GEOMETRIES = [
        ChainSpec(N=8, h=3.0),
        ChainSpec(N=12, h=20.0),
        ChainSpec(N=10, h=5.0, senders=(4, 5), receivers=(2, 8)),
        ChainSpec(N=9, h=4.0, senders=(3, 7), receivers=(1, 5), barriers=(2, 8)),
    ]

    @pytest.mark.parametrize("spec", GEOMETRIES, ids=["N8", "N12", "N10-s45-r28", "N9-s37-r15"])
    @pytest.mark.parametrize("order", ["12", "21"])
    def test_same_bits_and_fidelity(self, spec, order):
        rng = np.random.default_rng(spec.N)
        for t in (0.0, 1.7, 23.4, 1e4):
            state = TwoQubitState.from_vector(rng.normal(size=4) + 1j * rng.normal(size=4))
            es = evolve(spec, state, t)
            vecs = receiver_vectors(spec, es, order)
            rho = np.zeros((4, 4), dtype=complex)
            for v in vecs.values():
                rho += np.outer(v, v.conj())
            assert reduced_receiver_state(spec, es, order).tobytes() == rho.tobytes()
            F = sum(abs(np.vdot(state.vector, v)) ** 2 for v in vecs.values())
            assert abs(state_fidelity(spec, state, t, order) - F) <= 1e-15


class TestStateFidelity:
    def test_initial_values(self):
        spec = ChainSpec(N=8, h=3.0)
        assert state_fidelity(spec, ket("11"), 0.0) < 1e-12
        assert abs(state_fidelity(spec, ket("00"), 0.0) - 1.0) < 1e-12

    def test_range(self):
        spec = ChainSpec(N=8, h=5.0)
        rng = np.random.default_rng(2)
        for _ in range(5):
            state = TwoQubitState.from_vector(
                rng.normal(size=4) + 1j * rng.normal(size=4)
            )
            F = state_fidelity(spec, state, float(rng.uniform(0, 30)))
            assert -1e-12 <= F <= 1.0 + 1e-12

    @pytest.mark.xfail(
        reason="the exact Haar-average optimum at this geometry is 0.9894, so "
        "whether a single random input clears the 0.99 mark depends on the "
        "drawn state (the worst case is 0.9738)",
        strict=False,
    )
    def test_haar_state_high_fidelity_transfer(self):
        spec = ChainSpec(N=46, h=100.0)
        t_star, _ = find_transfer_time(spec)
        rng = np.random.default_rng(9)
        state = TwoQubitState.from_vector(rng.normal(size=4) + 1j * rng.normal(size=4))
        assert state_fidelity(spec, state, t_star) >= 0.99
