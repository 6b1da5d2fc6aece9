"""Chain specification and single-particle Hamiltonian construction.

The model is an open XX chain of N spins-1/2 written with Pauli operators,

    H = sum_l J_l (sigma^x_l sigma^x_{l+1} + sigma^y_l sigma^y_{l+1})
        + sum_l h_l sigma^z_l,

so that in the one-excitation sector the hopping matrix element is -2 J_l
and the on-site energy of a flipped spin is 2 h_l (the polarized vacuum is
taken as the energy zero).  This Pauli normalization is the one under which
the quadratic transfer-time law t* ~ (pi/2) h^2 holds with J = 1 as the
unit of energy and inverse time.

Two strong "barrier" fields, default at sites 3 and N-2, energetically
decouple the sender block (1, 2) and receiver block (N-1, N) from the
interior channel.  Sites are 1-based at every public interface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ChainSpec:
    """Full problem definition for a barrier-field XX chain.

    Defaults reproduce the canonical geometry: senders (1, 2), receivers
    (N-1, N), barriers (3, N-2), uniform couplings J = 1 and a field h on the
    two barrier sites only.  couplings/fields may be overridden per-bond /
    per-site for engineered chains.
    """

    N: int
    h: float = 0.0
    couplings: tuple[float, ...] = None
    fields: tuple[float, ...] = None
    senders: tuple[int, int] = (1, 2)
    receivers: tuple[int, int] = None
    barriers: tuple[int, int] = None

    def __post_init__(self):
        if not isinstance(self.N, (int, np.integer)) or self.N < 6:
            raise ValueError(f"N must be an integer >= 6, got {self.N!r}")
        object.__setattr__(self, "N", int(self.N))
        object.__setattr__(self, "h", float(self.h))
        if not math.isfinite(self.h):
            raise ValueError(f"barrier field h must be finite, got {self.h}")
        if self.h < 0:
            raise ValueError(f"barrier field h must be >= 0, got {self.h}")
        N = self.N
        if self.receivers is None:
            object.__setattr__(self, "receivers", (N - 1, N))
        if self.barriers is None:
            object.__setattr__(self, "barriers", (3, N - 2))
        object.__setattr__(self, "senders", tuple(int(s) for s in self.senders))
        object.__setattr__(self, "receivers", tuple(int(r) for r in self.receivers))
        object.__setattr__(self, "barriers", tuple(int(b) for b in self.barriers))

        couplings, fields = _barrier_chain(N, self.h, self.barriers)
        if self.couplings is None:
            object.__setattr__(self, "couplings", couplings)
        else:
            object.__setattr__(
                self, "couplings", tuple(float(j) for j in self.couplings)
            )
        if self.fields is None:
            object.__setattr__(self, "fields", fields)
        else:
            object.__setattr__(self, "fields", tuple(float(x) for x in self.fields))

        if len(self.couplings) != N - 1:
            raise ValueError(
                f"couplings must have length N-1 = {N - 1}, got {len(self.couplings)}"
            )
        if not all(map(math.isfinite, self.couplings)):
            raise ValueError("all couplings must be finite")
        if not all(math.isfinite(2.0 * j) for j in self.couplings):
            raise ValueError("all couplings must be finite when doubled (hopping -2 J_l)")
        if any(j <= 0 for j in self.couplings):
            raise ValueError("all couplings must be positive")
        if len(self.fields) != N:
            raise ValueError(
                f"fields must have length N = {N}, got {len(self.fields)}"
            )
        if not all(map(math.isfinite, self.fields)):
            raise ValueError("all fields must be finite")
        if not all(math.isfinite(2.0 * x) for x in self.fields):
            raise ValueError("all fields must be finite when doubled (on-site energy 2 h_l)")

        s1, s2 = self.senders
        r1, r2 = self.receivers
        if not (s1 < s2 and r1 < r2):
            raise ValueError("senders and receivers must each be ordered pairs")
        roles = {s1, s2, r1, r2}
        if len(roles) != 4:
            raise ValueError("sender and receiver sites must be four distinct sites")
        _check_in_chain(N, roles | set(self.barriers))

    @property
    def channel_sites(self) -> tuple[int, ...]:
        """Interior sites 3..N-2 (1-based), the quantum channel proper."""
        return tuple(range(3, self.N - 1))


def _barrier_chain(N: int, h: float, barriers) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The barrier chain's couplings and fields, a ChainSpec's defaults:
    J = 1 on every bond, and h on the barrier sites and 0 elsewhere."""
    fields = [0.0] * N
    for b in barriers:
        fields[b - 1] = h
    return (1.0,) * (N - 1), tuple(fields)


def _check_in_chain(N: int, sites) -> None:
    """Raise ValueError for the first of the 1-based sites outside [1, N]."""
    for s in sites:
        if not 1 <= s <= N:
            raise ValueError(f"site {s} outside chain [1, {N}]")


def _receiver_sites(spec: ChainSpec, receiver_order: str = "12") -> tuple[int, int]:
    """The receiver sites (r1, r2) of qubits 1 and 2.

    receiver_order "12" puts qubit 1 on the first receiver site and qubit 2
    on the second, "21" mirrors the assignment; any other value is a
    ValueError.
    """
    r1, r2 = spec.receivers
    if receiver_order == "21":
        return r2, r1
    if receiver_order != "12":
        raise ValueError(f"receiver_order must be '12' or '21', got {receiver_order!r}")
    return r1, r2


@dataclass(frozen=True)
class SymTridiag:
    """Real symmetric tridiagonal matrix stored as two bands."""

    diagonal: tuple[float, ...]
    off_diagonal: tuple[float, ...]

    def __post_init__(self):
        if len(self.off_diagonal) != len(self.diagonal) - 1:
            raise ValueError(
                "off_diagonal must be one entry shorter than diagonal: "
                f"{len(self.diagonal)} vs {len(self.off_diagonal)}"
            )

    @property
    def n(self) -> int:
        return len(self.diagonal)

    def dense(self) -> np.ndarray:
        """Return the full N x N matrix (for oracles and small problems)."""
        m = np.diag(np.asarray(self.diagonal, dtype=float))
        e = np.asarray(self.off_diagonal, dtype=float)
        idx = np.arange(self.n - 1)
        m[idx, idx + 1] = e
        m[idx + 1, idx] = e
        return m


def build_single_particle(spec: ChainSpec) -> SymTridiag:
    """One-excitation Hamiltonian of the chain as a symmetric tridiagonal.

    In Pauli normalization the matrix elements are

        M[l, l]   = 2 h_l        (on-site field),
        M[l, l+1] = -2 J_l       (hopping),

    with the zero-excitation vacuum at energy exactly 0, so that phases of
    different magnetization sectors evolve consistently.  Pure function:
    identical specs give bit-identical matrices.
    """
    diag = tuple(2.0 * hl for hl in spec.fields)
    off = tuple(-2.0 * jl for jl in spec.couplings)
    return SymTridiag(diagonal=diag, off_diagonal=off)
