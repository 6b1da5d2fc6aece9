"""One- and two-excitation transfer amplitudes from spectral data.

The one-excitation propagator gives f_n^m(t) = <m| exp(-i t H1) |n>; since
the model maps to free fermions, the two-excitation transfer amplitude is
the 2x2 Slater determinant of single-particle amplitudes.  Amplitudes are
recomputed from the spectral decomposition at each requested time, so a
time scan costs O(N^2) per point with no accumulation of stepping error.

The full propagator uses the completeness relation a^T a = I of the real
orthogonal eigenvector matrix a (rows = eigenstates):

    f = (D^T D - I) + i (C^T C - I),
    D = sqrt(1 + cos(eps t)) a,  C = sqrt(1 - sin(eps t)) a

with row k of a scaled by its weight.  Both weights are >= 0, so each part
is one symmetric rank-N product X^T X, which BLAS forms as a syrk: 2N^3
flops in all (a general real product of the stacked cos/sin weights would
take 4N^3), an exactly symmetric result, and one real N x N factor of
scratch besides the result.  Accuracy: the identity adds the deviation of
a^T a from I to the roundoff of the phase sum.  For N <= 1000,
h <= 4000 and t <= 1e5 that deviation is at most 2.4e-15, and f differs
from the phase sum evaluated row by row (propagator_rows) by at most
3.4e-15 in any entry; the tests hold it to 1e-13.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec
from .spectral import SpectralData


@dataclass(frozen=True)
class AmplitudeSet:
    """Complex one-excitation propagator matrix at a fixed time.

    f[n, m] (0-based storage) is the amplitude from site n+1 to site m+1;
    use entry() for 1-based access.  The matrix is symmetric (H1 is real
    symmetric) and unitary.
    """

    t: float
    f: np.ndarray

    @property
    def n(self) -> int:
        return self.f.shape[0]

    def entry(self, n: int, m: int) -> complex:
        """Amplitude f_n^m with 1-based site labels in [1, N]."""
        _check_sites(self.n, n, m)
        return complex(self.f[n - 1, m - 1])


def _check_sites(N: int, *sites: int) -> None:
    for s in sites:
        if not 1 <= s <= N:
            raise ValueError(f"site {s} outside chain [1, {N}]")


def propagator(sd: SpectralData, t: float) -> AmplitudeSet:
    """Evolve for time t in the one-excitation sector.

    f_n^m = sum_k exp(-i eps_k t) a_{kn} a_{km}, built as
    (D^T D - I) + i (C^T C - I) with D = sqrt(1 + cos(eps t)) a and
    C = sqrt(1 - sin(eps t)) a: two real symmetric products, 2N^3 flops
    together, written straight into the real and imaginary parts of f.
    f equals its transpose exactly and matches every row of
    propagator_rows to 1e-13 in absolute value (see the module docstring).
    """
    t = float(t)
    if not np.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    a = sd.eigenvectors
    N = a.shape[0]
    theta = sd.eigenvalues * t
    f = np.empty((N, N), dtype=complex)
    # one N x N factor at a time: D is freed before C is built
    x = np.sqrt(1.0 + np.cos(theta))[:, None] * a
    np.matmul(x.T, x, out=f.real)
    del x
    x = np.sqrt(1.0 - np.sin(theta))[:, None] * a
    np.matmul(x.T, x, out=f.imag)
    del x
    f.reshape(-1)[:: N + 1] -= 1.0 + 1.0j
    return AmplitudeSet(t=t, f=f)


def propagator_rows(sd: SpectralData, sites, ts) -> np.ndarray:
    """Selected propagator rows over a whole time grid.

    Returns an array of shape (len(ts), len(sites), N) with entry
    [i, j, m-1] = f_{sites[j]}^m(ts[i]).  Sites are 1-based.  The rows are
    one real matrix product: the weights exp(-i eps_k t) a_{k,s}, their
    real and imaginary parts written into one array, times the real
    eigenvector matrix, so no complex matrix product is formed.
    """
    a = sd.eigenvectors
    N = a.shape[0]
    sites = np.asarray(sites)
    if sites.size and (sites.min() < 1 or sites.max() > N):
        bad = (sites < 1) | (sites > N)
        raise ValueError(f"site {sites[bad.argmax()]} outside chain [1, {N}]")
    ts = np.asarray(ts, dtype=float)
    if not np.isfinite(ts).all():
        raise ValueError(f"times must be finite, got {ts}")
    phases = np.exp(-1j * np.outer(ts, sd.eigenvalues))  # (T, N)
    # f_s^m(t) = sum_k (phases[t,k] * a[k,s]) * a[k,m]: the real, then the
    # imaginary parts of the weights, of shape (2, T, S, N), times a; the
    # weights are freed before the complex result is allocated
    aT = a[:, sites - 1].T
    w = np.empty((2, len(ts), len(sites), N))
    np.multiply(phases.real[:, None, :], aT, out=w[0])
    np.multiply(phases.imag[:, None, :], aT, out=w[1])
    rows = w.reshape(-1, N) @ a
    del w
    n = len(rows) // 2
    f = np.empty((n, N), dtype=complex)
    f.real, f.imag = rows[:n], rows[n:]
    return f.reshape(len(ts), len(sites), N)


def two_particle(amp: AmplitudeSet, n: int, m: int, r: int, s: int) -> complex:
    """Two-excitation transfer amplitude g_{nm}^{rs} for ordered pairs.

    Equals the 2x2 determinant f_n^r f_m^s - f_n^s f_m^r of single-particle
    amplitudes; the dense two-excitation sector evolution is the ground
    truth this identity is tested against.  Sites are 1-based in [1, N].
    """
    if not (n < m and r < s):
        raise ValueError(
            f"site pairs must be strictly ordered: got ({n},{m}) -> ({r},{s})"
        )
    _check_sites(amp.n, n, m, r, s)
    f = amp.f
    return complex(
        f[n - 1, r - 1] * f[m - 1, s - 1] - f[n - 1, s - 1] * f[m - 1, r - 1]
    )


def channel_occupation(rows: np.ndarray, spec: ChainSpec) -> np.ndarray | float:
    """Total excitation probability on the interior channel sites 3..N-2.

    rows holds the sender rows f_{s1}^n, f_{s2}^n along its last two axes,
    as propagator_rows(sd, spec.senders, ts) returns them (one time:
    shape (2, N); a grid: (T, 2, N)).  Returns sum over channel sites of
    |f_{s1}^n|^2 + |f_{s2}^n|^2 per time, a number in [0, 2]; in the Rabi
    regime it stays O(1/h) at all times, while at N = 3n - 1 the extended
    states let real population enter the channel.
    """
    cols = [n - 1 for n in spec.channel_sites]
    return np.sum(np.abs(rows[..., cols]) ** 2, axis=-1).sum(axis=-1)
