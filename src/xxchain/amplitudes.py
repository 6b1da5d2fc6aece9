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
scratch besides the result.  When diagonalize folded a mirror-symmetric
chain into parity blocks, each part is instead two syrk products over half
the columns, a quarter of those flops (see propagator).

Accuracy: the identity adds the deviation of a^T a from I to the roundoff
of the phase sum.  For N <= 1000, h <= 4000 and t <= 1e5 that deviation is
at most 2.4e-15, and f differs from the phase sum evaluated row by row
(propagator_rows) by at most 3.4e-15 in any entry; on the folded path,
measured on the default chains with N from 128 to 1000 and h in {0, 100,
4000}, the two are 2.0e-15 and 3.6e-15.  The tests hold the difference to
1e-13.

On a time grid, `xxchain amplitudes` feeds propagator_rows the phases of
grid_phases: at point j = b R + r the product of the exponentials at t0 +
b R step and at r step, where propagator_rows given the time takes one
exponential at np.linspace's t_j.  With u = 2^-53, T = max(|t0|, |t1|) and
E = max_k |eps_k|: given the rounded step, t_j takes two roundings (j
step, then + t0), r step one and the block start two, each of a number of
at most 2T, and the last point is t1 itself, within 4uT of t0 + (n - 1)
step; so the two times summed differ from t_j by at most 7uT, and with the
rounding of the three products eps t the arguments by at most 12 u E T.
The two exponentials and their product add at most 9u against the per-time
exponential's 3u, and sum_k |a_ks a_km| <= 1, so a grid amplitude differs
from propagator_rows at t_j by at most u (12 E T + 12) plus both row
products' rounding, (N + 1) u in each part of each: in all at most eps (6
E T + 1.5 N + 8), eps = 2^-52, an effective shift of t by a few ulps.  At
N = 46, h = 100 (E = 200) and T = 2e4 that is 5.3e-9; the measured
difference is at most 8.1e-12 on sites 1, 2 to 45, 46, where the modes
near the barrier levels weigh little.  A single time (n = 1) has offset 1
exactly and so the per-time phases bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec, _check_in_chain
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
        _check_in_chain(self.n, (n, m))
        return complex(self.f[n - 1, m - 1])


def _check_times(ts) -> None:
    """Raise ValueError unless every time of ts, a float or an array, is finite."""
    if not np.isfinite(ts).all():
        raise ValueError(f"times must be finite, got {ts}")


def propagator(sd: SpectralData, t: float) -> AmplitudeSet:
    """Evolve for time t in the one-excitation sector.

    f_n^m = sum_k exp(-i eps_k t) a_{kn} a_{km}, built as
    (D^T D - I) + i (C^T C - I) with D = sqrt(1 + cos(eps t)) a and
    C = sqrt(1 - sin(eps t)) a: two real symmetric products, 2N^3 flops
    together, written straight into the real and imaginary parts of f.
    When sd records mode parities (a mirror-symmetric chain of at least
    spectral._FOLD_MIN_N sites), _mirror_parts forms the same two parts from
    four half-size products, N^3/2 flops: at N = 1000 about 27 ms instead of
    80 ms, at N = 400 2.0 ms instead of 8.0 ms, on one thread of a 2-core
    x86 VM.  The scratch besides the result is one real N x N factor (half
    the result's size) on the full path and three real N/2 x N/2 blocks
    (3/8 of it) on the folded one.  f equals its transpose exactly and matches every row of
    propagator_rows to 1e-13 in absolute value (see the module docstring).
    """
    t = float(t)
    _check_times(t)
    a = sd.eigenvectors
    N = a.shape[0]
    theta = sd.eigenvalues * t
    f = np.empty((N, N), dtype=complex)
    if sd.parity is not None:
        _mirror_parts(a, sd.parity, theta, f)
    else:
        # one N x N factor at a time: D is freed before C is built
        x = np.sqrt(1.0 + np.cos(theta))[:, None] * a
        np.matmul(x.T, x, out=f.real)
        del x
        x = np.sqrt(1.0 - np.sin(theta))[:, None] * a
        np.matmul(x.T, x, out=f.imag)
        del x
    f.reshape(-1)[:: N + 1] -= 1.0 + 1.0j
    return AmplitudeSet(t=t, f=f)


def _mirror_parts(a: np.ndarray, parity: np.ndarray, theta: np.ndarray, f: np.ndarray) -> None:
    """D^T D and C^T C of propagator, written into f, for mirror-parity modes.

    With h = ceil(N/2), S_even and S_odd are the syrk products of the first
    h columns of D (then C) over the even and the odd rows.  Since
    a[k, N-1-m] = parity[k] a[k, m], the top h rows of f are S_even +
    S_odd and, column-reversed, S_even - S_odd; the middle column of odd N
    is both, the odd modes being zero there.  The bottom rows follow from
    f[N-1-n, N-1-m] = f[n, m].  Four products of (N/2) x (N/2) outputs
    over about N/2 rows each: a quarter of the 2N^3 flops of the full
    products.
    """
    N = a.shape[0]
    h = N - N // 2
    rows = np.flatnonzero(parity > 0), np.flatnonzero(parity < 0)
    for weight, part in ((1.0 + np.cos(theta), f.real), (1.0 - np.sin(theta), f.imag)):
        s = []
        for r in rows:
            x = a[r, :h]
            x *= np.sqrt(weight[r])[:, None]
            s.append(x.T @ x)
            del x
        np.add(s[0], s[1], out=part[:h, :h])
        np.subtract(s[0], s[1], out=part[:h, : N - h - 1 : -1])
    f[h:] = f[N - h - 1 :: -1, ::-1]


def _grid_shape(n: int) -> tuple[int, int]:
    """(R, ceil(n / R)): the offsets and block starts of grid_phases' table for n points.

    R = int(sqrt(n)) + 1, at most n, needs about the fewest exponentials,
    R + ceil(n / R) per mode.
    """
    rows = min(n, int(n**0.5) + 1)
    return rows, -(-n // rows)


def grid_phases(eigenvalues: np.ndarray, t0: float, step: float, n: int):
    """The phases exp(-i eps_k t) on the grid t = t0 + j step, j < n, as a two-level table.

    Grid point j = b R + r has the phase start[b] * offset[r]: offset[r] =
    exp(-i eps r step) at the R offsets r < R and start[b] = exp(-i eps (t0
    + b R step)) at the block starts, with R and their count from
    _grid_shape.  That is one exponential per mode and table entry instead
    of n per mode.  The times are rounded as np.linspace rounds its points,
    r step and b R step first and then t0 added, so start[b] equals
    np.exp(-1j * np.outer([t_b], eigenvalues)) at t_b = t0 + b R step bit
    for bit, and offset[0] is exactly 1.  Returns (offset, start), of shapes
    (R, M) and (ceil(n / R), M) for M eigenvalues.
    """
    rows, blocks = _grid_shape(n)
    times = np.concatenate([np.arange(rows), np.arange(0, blocks * rows, rows)]) * step
    times[rows:] += t0
    _check_times(times)
    phase = np.exp(-1j * np.multiply.outer(times, eigenvalues))
    return phase[:rows], phase[rows:]


def propagator_rows(sd: SpectralData, sites, ts) -> np.ndarray:
    """Selected propagator rows over a whole time grid.

    ts holds the times or, as a (T, N) complex array, their phases
    exp(-i eps_k t), one row per time (grid_phases' start[b] * offset[r]).
    Returns an array of shape (T, len(sites), N) with entry [i, j, m-1] =
    f_{sites[j]}^m(t_i).  Sites are 1-based.  The rows are one real matrix
    product: the weights exp(-i eps_k t) a_{k,s}, their real and imaginary
    parts written into one array, times the real eigenvector matrix, so no
    complex matrix product is formed.
    """
    a = sd.eigenvectors
    N = a.shape[0]
    sites = np.asarray(sites)
    _check_in_chain(N, sites)
    ts = np.asarray(ts)
    if ts.ndim == 2:
        phases = ts
    else:
        ts = ts.astype(float, copy=False)
        _check_times(ts)
        phases = np.exp(-1j * np.outer(ts, sd.eigenvalues))  # (T, N)
    # f_s^m(t) = sum_k (phases[t,k] * a[k,s]) * a[k,m]: the real, then the
    # imaginary parts of the weights, of shape (2, T, S, N), times a; the
    # weights are freed before the complex result is allocated
    aT = a[:, sites - 1].T
    w = np.empty((2, len(phases), len(sites), N))
    np.multiply(phases.real[:, None, :], aT, out=w[0])
    np.multiply(phases.imag[:, None, :], aT, out=w[1])
    rows = w.reshape(-1, N) @ a
    del w
    n = len(rows) // 2
    f = np.empty((n, N), dtype=complex)
    f.real, f.imag = rows[:n], rows[n:]
    return f.reshape(len(phases), len(sites), N)


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
