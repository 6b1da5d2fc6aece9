"""Symmetric tridiagonal eigenproblem and eigenvector localization analysis.

For strong barrier fields the one-excitation spectrum develops a quadruplet
of eigenstates localized on the four edge sites {1, 2, N-1, N}; when
N = 3n - 1 two additional edge-weighted extended states join them.  The
helpers here diagonalize, quantify localization, classify the regime and
name the edge modes that the truncated amplitudes keep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .chain import SymTridiag


@dataclass(frozen=True)
class SpectralData:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a real
    symmetric tridiagonal matrix.

    eigenvectors[k, n] is the amplitude of eigenstate k on site n (0-based
    internally; public site arguments elsewhere are 1-based).  Sign
    convention: the first component of each eigenvector with magnitude
    > 1e-12 is positive, making the output reproducible.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n(self) -> int:
        return len(self.eigenvalues)


def diagonalize(m: SymTridiag) -> SpectralData:
    """Diagonalize a symmetric tridiagonal matrix deterministically.

    Returns eigenvalues in ascending order and sign-fixed eigenvector rows.
    Raises a RuntimeError with the failing index if the underlying solver
    does not converge.
    """
    d = np.asarray(m.diagonal, dtype=float)
    e = np.asarray(m.off_diagonal, dtype=float)
    try:
        if len(d) == 1:
            w, v = d.copy(), np.ones((1, 1))
        else:
            w, v = eigh_tridiagonal(d, e)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - solver failure
        raise RuntimeError(f"tridiagonal eigensolver failed to converge: {exc}")
    vecs = v.T  # rows = eigenstates, C-contiguous: v is Fortran-ordered
    # the first entry of each row with magnitude above 1e-12; argmax gives 0
    # for a row with none, and that entry fails the threshold test below
    first = ((vecs > 1e-12) | (vecs < -1e-12)).argmax(axis=1)
    flip = vecs[np.arange(len(vecs)), first] < -1e-12
    vecs[flip] = -vecs[flip]
    return SpectralData(eigenvalues=w, eigenvectors=vecs)


def localization_profile(sd: SpectralData, sites) -> np.ndarray:
    """Weight of every eigenstate on a given set of sites (1-based).

    Entry k is sum_{n in sites} a_{kn}^2, a number in [0, 1]; the
    quadri-localized quartet stands out as entries close to 1 when the
    sites are the four edge sites.
    """
    sites = sorted(set(int(s) for s in sites))
    if not sites:
        raise ValueError("site set must be nonempty")
    N = sd.n
    for s in sites:
        if not 1 <= s <= N:
            raise ValueError(f"site {s} outside chain [1, {N}]")
    cols = [s - 1 for s in sites]
    return np.sum(sd.eigenvectors[:, cols] ** 2, axis=1)


def localized_indices(N: int) -> tuple[int, int, int, int]:
    """1-based eigenstate indices of the edge-localized quadruplet.

    With q = N // 3 the quadruplet sits at {q-1, q, N-q-1, N-q} in the
    ascending spectrum (e.g. N=46 -> {14, 15, 30, 31}).  For N = 3n - 1
    each band edge holds a near-degenerate triple whose highest member is
    the extended state (see extended_indices), so the quadruplet is the
    two lower members of each triple, {q-1, q, N-q-2, N-q-1}
    (e.g. N=50 -> {15, 16, 32, 33}).
    """
    if N < 6:
        raise ValueError(f"N must be >= 6, got {N}")
    q = N // 3
    if N % 3 == 2:
        return (q - 1, q, N - q - 2, N - q - 1)
    return (q - 1, q, N - q - 1, N - q)


def extended_indices(N: int) -> tuple[int, int]:
    """1-based indices of the two extra edge-weighted extended states.

    Only meaningful for quasi-Rabi lengths N = 3n - 1, where they appear at
    {q+1, N-q} with q = N // 3 (e.g. N=50 -> {17, 34}).  They are the exact
    uniform-chain eigenstates a_n ~ sin(pi k n / 3), k = 1, 2, which vanish
    on both barrier sites 3 and N-2: their energies are -4J cos(pi k / 3),
    i.e. -2 and +2 at J = 1, for every h, their edge weight is 6/(N+1), and
    the barrier pushes the two quadruplet states of each triple below them.
    """
    if N < 6:
        raise ValueError(f"N must be >= 6, got {N}")
    q = N // 3
    return (q + 1, N - q)


def classify_chain(N: int) -> str:
    """Regime tag: "quasi-rabi" for N = 3n - 1, "rabi" otherwise.

    In the Rabi regime transfer is mediated by the localized quadruplet
    alone; at N = 3n - 1 two extended states join the dynamics and change
    the transfer-time scaling from quadratic to linear in h.
    """
    if N < 6:
        raise ValueError(f"N must be >= 6, got {N}")
    return "quasi-rabi" if N % 3 == 2 else "rabi"


def edge_modes(N: int) -> np.ndarray:
    """0-based ascending indices of the eigenstates that carry the edge weight.

    The localized quadruplet, joined by the two extended states when
    N = 3n - 1: the kept modes of the paper's four- and six-state
    truncations of the mirror amplitude.
    """
    modes = localized_indices(N)
    if classify_chain(N) == "quasi-rabi":
        modes += extended_indices(N)
    return np.sort(modes) - 1
