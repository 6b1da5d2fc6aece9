"""Brute-force evolution in the 0-, 1- and 2-excitation sectors.

Total magnetization is conserved, so a two-qubit input on the sender sites
only ever populates the vacuum, one-excitation and two-excitation sectors.
This module builds the sector Hamiltonians in the spin (position) basis,
evolves by dense spectral decomposition, reduces to the receiver pair and
evaluates state-specific transfer fidelity.  It is deliberately simple and
serves as ground truth for the fast spectral path (the two-excitation
sector has dimension N(N-1)/2, capping practical sizes around N ~ 120).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .chain import ChainSpec, _receiver_sites, build_single_particle


@dataclass(frozen=True)
class SectorBasis:
    """Deterministic basis enumeration for the 1- and 2-excitation sectors.

    One-excitation states are |n> for n = 1..N; two-excitation states are
    |n, m> with n < m in lexicographic order.
    """

    N: int

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        N = self.N
        return tuple((n, m) for n in range(1, N + 1) for m in range(n + 1, N + 1))

    @property
    def pair_index(self) -> dict[tuple[int, int], int]:
        return {p: i for i, p in enumerate(self.pairs)}

    @property
    def dim2(self) -> int:
        return self.N * (self.N - 1) // 2


@dataclass(frozen=True)
class TwoQubitState:
    """Normalized two-qubit pure state alpha|00> + beta|01> + gamma|10> + delta|11>.

    |1> means a flipped spin (one excitation); the second slot refers to the
    second site of the pair.
    """

    alpha: complex
    beta: complex
    gamma: complex
    delta: complex

    def __post_init__(self):
        norm2 = (
            abs(self.alpha) ** 2
            + abs(self.beta) ** 2
            + abs(self.gamma) ** 2
            + abs(self.delta) ** 2
        )
        if abs(norm2 - 1.0) > 1e-12:
            raise ValueError(f"state not normalized: |psi|^2 = {norm2}")

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.alpha, self.beta, self.gamma, self.delta], dtype=complex)

    @classmethod
    def from_vector(cls, v) -> "TwoQubitState":
        v = np.asarray(v, dtype=complex)
        v = v / np.linalg.norm(v)
        return cls(alpha=v[0], beta=v[1], gamma=v[2], delta=v[3])


@dataclass(frozen=True)
class EvolvedState:
    """State of the full chain split by excitation number.

    c0 is the vacuum amplitude, c1 the N one-excitation amplitudes, c2 the
    N(N-1)/2 two-excitation amplitudes in lexicographic pair order.
    """

    c0: complex
    c1: np.ndarray
    c2: np.ndarray

    def norm(self) -> float:
        return float(
            np.sqrt(
                abs(self.c0) ** 2
                + np.sum(np.abs(self.c1) ** 2)
                + np.sum(np.abs(self.c2) ** 2)
            )
        )


def build_sector_hamiltonians(spec: ChainSpec) -> tuple[np.ndarray, np.ndarray]:
    """Dense Hamiltonians of the 1- and 2-excitation sectors.

    H1 is the single-particle matrix.  H2 acts on ordered-pair states
    |n, m>: the diagonal adds the two on-site energies and the off-diagonal
    couples pairs differing by one nearest-neighbor hop (no double
    occupancy).  Because every allowed hop preserves the ordering of the
    pair, the position basis needs no extra sign bookkeeping.
    """
    tri = build_single_particle(spec)
    H1 = tri.dense()
    d = np.asarray(tri.diagonal)
    e = np.asarray(tri.off_diagonal)
    N = spec.N
    basis = SectorBasis(N)
    pairs = basis.pairs
    index = basis.pair_index
    D = basis.dim2
    H2 = np.zeros((D, D))
    for i, (n, m) in enumerate(pairs):
        H2[i, i] = d[n - 1] + d[m - 1]
        # hops of either particle by one site, bond label = left site (1-based)
        for (a, b, bond) in ((n - 1, m, n - 1), (n + 1, m, n), (n, m - 1, m - 1), (n, m + 1, m)):
            if 1 <= a < b <= N:
                H2[index[(a, b)], i] += e[bond - 1]
    return H1, H2


@lru_cache(maxsize=32)
def _sector_eig(spec: ChainSpec):
    """Cached dense eigendecompositions of (H1, H2) for a spec."""
    H1, H2 = build_sector_hamiltonians(spec)
    w1, v1 = np.linalg.eigh(H1)
    w2, v2 = np.linalg.eigh(H2)
    return (w1, v1), (w2, v2)


def evolve(spec: ChainSpec, state: TwoQubitState, t: float) -> EvolvedState:
    """Evolve a two-qubit input loaded on the sender sites for time t.

    The vacuum component is stationary (c0 = alpha); the |01>/|10>
    components evolve in the one-excitation sector from sites s2/s1; the
    |11> component evolves in the two-excitation sector from |s1, s2>.
    """
    (w1, v1), (w2, v2) = _sector_eig(spec)
    N = spec.N
    s1, s2 = spec.senders
    psi1 = np.zeros(N, dtype=complex)
    psi1[s2 - 1] = state.beta
    psi1[s1 - 1] = state.gamma
    c1 = v1 @ (np.exp(-1j * w1 * t) * (v1.T @ psi1))
    basis = SectorBasis(N)
    psi2 = np.zeros(basis.dim2, dtype=complex)
    psi2[basis.pair_index[(s1, s2)]] = state.delta
    c2 = v2 @ (np.exp(-1j * w2 * t) * (v2.T @ psi2))
    return EvolvedState(c0=complex(state.alpha), c1=c1, c2=c2)


def _receiver_vectors(spec: ChainSpec, es: EvolvedState, receiver_order: str = "12"):
    """Group full-chain amplitudes by channel configuration.

    Yields, for every configuration of the non-receiver sites, the 4-vector
    of receiver amplitudes on (|00>, |01>, |10>, |11>) with qubit 1 on r1
    and qubit 2 on r2 (receiver_order "12", the default) or the mirrored
    assignment qubit 1 -> r2, qubit 2 -> r1 ("21").  The reduced receiver
    density matrix is the sum of outer products of these vectors.
    """
    N = spec.N
    r1, r2 = _receiver_sites(spec, receiver_order)
    basis = SectorBasis(N)
    vecs: dict[tuple, np.ndarray] = {}

    def add(ch, slot, amp):
        v = vecs.get(ch)
        if v is None:
            v = np.zeros(4, dtype=complex)
            vecs[ch] = v
        v[slot] += amp

    add((), 0, es.c0)
    for n in range(1, N + 1):
        if n == r1:
            add((), 2, es.c1[n - 1])
        elif n == r2:
            add((), 1, es.c1[n - 1])
        else:
            add((n,), 0, es.c1[n - 1])
    rpair = (min(r1, r2), max(r1, r2))
    for i, (n, m) in enumerate(basis.pairs):
        amp = es.c2[i]
        if (n, m) == rpair:
            add((), 3, amp)
        elif n == r1 or m == r1:
            add((m if n == r1 else n,), 2, amp)
        elif n == r2 or m == r2:
            add((m if n == r2 else n,), 1, amp)
        else:
            add((n, m), 0, amp)
    return vecs


def reduced_receiver_state(
    spec: ChainSpec, es: EvolvedState, receiver_order: str = "12"
) -> np.ndarray:
    """Reduced 4x4 density matrix of the receiver pair.

    Traces out everything but the receiver sites by summing outer products
    over channel configurations; Hermitian, unit trace, positive
    semidefinite up to roundoff.
    """
    rho = np.zeros((4, 4), dtype=complex)
    for v in _receiver_vectors(spec, es, receiver_order).values():
        rho += np.outer(v, v.conj())
    return rho


def state_fidelity(
    spec: ChainSpec, state: TwoQubitState, t: float, receiver_order: str = "12"
) -> float:
    """Transfer fidelity <psi(0)| rho_R(t) |psi(0)> for one input state."""
    es = evolve(spec, state, t)
    psi = state.vector
    total = 0.0
    for v in _receiver_vectors(spec, es, receiver_order).values():
        total += abs(np.vdot(psi, v)) ** 2
    return float(total)
