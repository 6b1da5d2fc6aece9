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

from .chain import SymTridiag, _check_in_chain


# Palindromic chains at least this long are solved as two mirror parity
# blocks (diagonalize), and their propagator is built from half-size
# products (amplitudes.propagator).  diagonalize plus propagator, folded
# against full, on the default chains at h = 100 on one thread of a 2-core
# x86 VM: 11% slower at N = 64, -8% to +4% at 80, 3-8% faster at 100, 14-18%
# at 128, 28-34% at 200 and 46-50% at 400 and 1000.  Below 128 the gain is
# within run-to-run noise, and every chain of the pinned tests, the
# acceptance criteria and the quasi-Rabi benchmark menu keeps the full
# solver.
_FOLD_MIN_N = 128


@dataclass(frozen=True)
class SpectralData:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a real
    symmetric tridiagonal matrix.

    eigenvectors[k, n] is the amplitude of eigenstate k on site n (0-based
    internally; public site arguments elsewhere are 1-based).  Sign
    convention: the first component of each eigenvector with magnitude
    > 1e-12 is positive, making the output reproducible.

    parity is set when diagonalize solved a mirror-symmetric chain as two
    parity blocks: parity[k] is +1.0 or -1.0, and eigenvectors[k, ::-1]
    equals parity[k] * eigenvectors[k] bit for bit.  It is None for the
    full solver's output.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    parity: np.ndarray | None = None

    @property
    def n(self) -> int:
        return len(self.eigenvalues)


def _fix_signs(vecs: np.ndarray) -> None:
    """Negate, in place, every row whose first entry of magnitude above
    1e-12 is negative."""
    # argmax gives 0 for a row with no such entry, and that entry fails the
    # threshold test below
    first = ((vecs > 1e-12) | (vecs < -1e-12)).argmax(axis=1)
    flip = vecs[np.arange(len(vecs)), first] < -1e-12
    vecs[flip] = -vecs[flip]


def _diagonalize_folded(d: np.ndarray, e: np.ndarray) -> SpectralData:
    """diagonalize of a palindromic tridiagonal (d, e) with N >= 3 sites.

    The mirror n -> N+1-n commutes with the matrix, so every eigenvector is
    even or odd under it: (v, +-v reversed)/sqrt(2), where for odd N the
    middle site holds the even vectors' own entry and a zero in the odd
    ones.  The two parity blocks are the leading ceil(N/2) (even) and
    floor(N/2) (odd) rows and columns.  For even N the middle bond is added
    to the last diagonal entry of the even block and subtracted from that
    of the odd block; for odd N the middle site joins the even block
    through sqrt(2) times its bond.  Each block is one eigh_tridiagonal
    call, and the two spectra merge ascending by a stable sort (the even
    mode first of an exact tie).
    """
    N = len(d)
    k = N // 2  # the sites mirrored into the second half
    de, ee = d[: N - k].copy(), e[: N - k - 1].copy()
    do, eo = d[:k].copy(), e[: k - 1]
    if N % 2:
        ee[-1] *= np.sqrt(2.0)
    else:
        de[-1] += e[k - 1]
        do[-1] -= e[k - 1]
    (we, ve), (wo, vo) = eigh_tridiagonal(de, ee), eigh_tridiagonal(do, eo)
    w = np.concatenate((we, wo))
    order = np.argsort(w, kind="stable")
    rank = np.empty(N, dtype=np.intp)
    rank[order] = np.arange(N)
    vecs = np.empty((N, N))
    parity = np.empty(N)
    for rows, v, sign in ((rank[: len(we)], ve, 1.0), (rank[len(we) :], vo, -1.0)):
        full = np.zeros((len(rows), N))
        full[:, :k] = v[:k].T * np.sqrt(0.5)
        if N % 2 and sign > 0:
            full[:, k] = v[k]
        full[:, N - k :] = sign * full[:, k - 1 :: -1]
        vecs[rows] = full
        parity[rows] = sign
    _fix_signs(vecs)
    return SpectralData(eigenvalues=w[order], eigenvectors=vecs, parity=parity)


def diagonalize(m: SymTridiag) -> SpectralData:
    """Diagonalize a symmetric tridiagonal matrix deterministically.

    Returns eigenvalues in ascending order and sign-fixed eigenvector rows.
    A chain of at least _FOLD_MIN_N sites whose diagonal and off-diagonal
    each equal their own reverse is mirror symmetric: it is solved as two
    parity blocks of half the size (_diagonalize_folded), and the result
    records each mode's parity.  Every other chain is one full-size
    eigh_tridiagonal call, a one-site chain included.  A solver that does
    not converge raises numpy's LinAlgError, a ValueError.
    """
    d = np.asarray(m.diagonal, dtype=float)
    e = np.asarray(m.off_diagonal, dtype=float)
    if len(d) >= _FOLD_MIN_N and np.array_equal(d, d[::-1]) and np.array_equal(e, e[::-1]):
        return _diagonalize_folded(d, e)
    w, v = eigh_tridiagonal(d, e)
    vecs = v.T  # rows = eigenstates, C-contiguous: v is Fortran-ordered
    _fix_signs(vecs)
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
    _check_in_chain(sd.n, sites)
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
