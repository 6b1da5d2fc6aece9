"""Average, Monte-Carlo and worst-case transfer fidelities.

The input-averaged fidelity over Haar-random two-qubit states has a closed
form in the transfer amplitudes.  Writing f11 = f_{s1}^{r1}, f22 =
f_{s2}^{r2} and g = g_{s1 s2}^{r1 r2}, unitarity collapses it to

    Fbar(t) = (4 + |1 + f11 + f22 + g|^2) / 20,

which follows from the fourth moment of Haar vectors applied to the
sector-conserving channel from the sender pair to the receiver pair: for
Kraus operators K_c of that channel, Fbar = (1/20) sum_c (|Tr K_c|^2 +
||K_c||_F^2) and the Frobenius part sums to Tr(I_4) = 4.  The per-channel
Frobenius weights give a physically labelled ten-term breakdown (returned
alongside the value) whose leakage entries show where lost population
went.  Every formula here is cross-validated against brute-force sector
evolution and Monte-Carlo Haar sampling in the test suite.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .amplitudes import propagator, two_particle_matrix
from .chain import ChainSpec, build_single_particle
from .sector_oracle import TwoQubitState
from .spectral import SpectralData, diagonalize


@dataclass(frozen=True)
class FidelityBreakdown:
    """Average fidelity together with its ten named summands.

    terms always sum exactly to value (value is defined as their sum); the
    compact closed form agrees with it to solver roundoff.  amplitudes
    records the five edge transfer amplitudes the coherent term is built
    from.
    """

    value: float
    terms: dict[str, float]
    amplitudes: dict[str, complex]


def _spectral_for(spec: ChainSpec, sd: SpectralData | None) -> SpectralData:
    return sd if sd is not None else diagonalize(build_single_particle(spec))


def _receiver_sites(spec: ChainSpec, receiver_order: str) -> tuple[int, int]:
    r1, r2 = spec.receivers
    if receiver_order == "21":
        r1, r2 = r2, r1
    elif receiver_order != "12":
        raise ValueError(f"receiver_order must be '12' or '21', got {receiver_order!r}")
    return r1, r2


@dataclass(frozen=True)
class _ChannelData:
    """Precomputed fast-path quantities for fidelity evaluation at one time.

    w1/w2 are the propagator rows of the sender sites; G the antisymmetric
    two-excitation amplitude matrix from the sender pair; M the 4x4 Gram
    matrix of the one-leaked-excitation channel vectors; pair_leak the
    total probability of both excitations leaking outside the receivers.
    """

    N: int
    r1: int
    r2: int
    w1: np.ndarray
    w2: np.ndarray
    g11: complex
    M: np.ndarray
    pair_leak: float


def _channel_data(
    spec: ChainSpec, t: float, sd: SpectralData | None = None, receiver_order: str = "12"
) -> _ChannelData:
    sd = _spectral_for(spec, sd)
    amp = propagator(sd, t)
    s1, s2 = spec.senders
    r1, r2 = _receiver_sites(spec, receiver_order)
    w1 = amp.f[s1 - 1, :]
    w2 = amp.f[s2 - 1, :]
    G = two_particle_matrix(amp, s1, s2)
    notR = [n for n in range(spec.N) if n + 1 not in (r1, r2)]

    def ordered_g(n0, r):
        a, b = min(n0, r - 1), max(n0, r - 1)
        return G[a, b]

    X1 = np.array([ordered_g(n, r1) for n in notR])
    X2 = np.array([ordered_g(n, r2) for n in notR])
    B = np.stack([w2[notR], w1[notR], X2, X1])
    M = B.conj() @ B.T
    iu = np.triu_indices(len(notR), k=1)
    sub = G[np.ix_(notR, notR)]
    pair_leak = float(np.sum(np.abs(sub[iu]) ** 2))
    # amplitude for |11> readout: ordered receiver pair
    a, b = min(r1, r2) - 1, max(r1, r2) - 1
    g11 = G[a, b]
    return _ChannelData(
        N=spec.N, r1=r1, r2=r2, w1=w1, w2=w2, g11=complex(g11), M=M, pair_leak=pair_leak
    )


def average_fidelity_exact(
    spec: ChainSpec,
    t: float,
    sd: SpectralData | None = None,
    receiver_order: str = "12",
) -> FidelityBreakdown:
    """Exact Haar-average transfer fidelity at time t, with breakdown.

    The value is assembled from the ten per-channel contributions (so the
    terms sum to it exactly); fidelity_from_edge_amplitudes gives the
    equivalent compact form.  At t = 0 with default geometry the value is
    exactly 1/4; a perfect mirror transfer gives 1.
    """
    sd = _spectral_for(spec, sd)
    amp = propagator(sd, t)
    s1, s2 = spec.senders
    r1, r2 = _receiver_sites(spec, receiver_order)
    f = amp.f
    f11 = complex(f[s1 - 1, r1 - 1])
    f12 = complex(f[s1 - 1, r2 - 1])
    f21 = complex(f[s2 - 1, r1 - 1])
    f22 = complex(f[s2 - 1, r2 - 1])
    ch = _channel_data(spec, t, sd, receiver_order)
    g = ch.g11
    notR = [n for n in range(spec.N) if n + 1 not in (r1, r2)]
    single_leak_1 = float(np.sum(np.abs(ch.w1[notR]) ** 2))
    single_leak_2 = float(np.sum(np.abs(ch.w2[notR]) ** 2))
    # M diagonal entries: [w2, w1, X2, X1] channel-restricted norms
    pair_edge_r2 = float(np.real(ch.M[2, 2]))
    pair_edge_r1 = float(np.real(ch.M[3, 3]))

    terms = {
        "coherent_return": abs(1.0 + f11 + f22 + g) ** 2 / 20.0,
        "vacuum": 1.0 / 20.0,
        "diagonal_f": (abs(f11) ** 2 + abs(f22) ** 2) / 20.0,
        "cross_f": (abs(f12) ** 2 + abs(f21) ** 2) / 20.0,
        "pair_return": abs(g) ** 2 / 20.0,
        "single_leakage_s1": single_leak_1 / 20.0,
        "single_leakage_s2": single_leak_2 / 20.0,
        "pair_edge_leakage_r1": pair_edge_r1 / 20.0,
        "pair_edge_leakage_r2": pair_edge_r2 / 20.0,
        "pair_leakage": ch.pair_leak / 20.0,
    }
    value = float(sum(terms.values()))
    amps = {"f11": f11, "f12": f12, "f21": f21, "f22": f22, "g": g}
    return FidelityBreakdown(value=value, terms=terms, amplitudes=amps)


def fidelity_from_edge_amplitudes(f11: complex, f22: complex, g: complex) -> float:
    """Compact average fidelity from the three coherent edge amplitudes.

    Valid whenever the amplitudes come from unitary dynamics (the leakage
    complements then sum to 4 identically).  A perfect transfer
    f11 = f22 = g = 1 gives exactly 1.
    """
    return (4.0 + abs(1.0 + f11 + f22 + g) ** 2) / 20.0


# Rows of the phase table fidelity_grid reuses for every block: fewer rows
# cost more Python overhead per point, more rows fall out of cache.  At
# N = 29 and 50 on one core of a 2-core x86 VM the grid took 150-180 ns per
# point with 256 rows, 80-110 with 1024, 80-125 with 2048 and 165-275 with
# 16384.
_GRID_BLOCK = 1024


def edge_products(spec: ChainSpec, sd: SpectralData) -> np.ndarray:
    """N x 4 mode products behind the four sender-to-receiver amplitudes.

    Column order (s1 r1, s1 r2, s2 r1, s2 r2): row k holds a_{k,s} a_{k,r},
    so f_s^r(t) = sum_k exp(-i eps_k t) a_{k,s} a_{k,r}.
    """
    a = sd.eigenvectors
    s1, s2 = spec.senders
    r1, r2 = spec.receivers
    return np.stack(
        [a[:, s - 1] * a[:, r - 1] for s, r in ((s1, r1), (s1, r2), (s2, r1), (s2, r2))],
        axis=1,
    )


def fidelity_grid(
    eigenvalues: np.ndarray, products: np.ndarray, t0: float, step: float, n: int
) -> np.ndarray:
    """Exact average fidelity on the uniform grid t_j = t0 + j step, j < n.

    products comes from edge_products.  The edge amplitudes of a block of
    points starting at index lo are one matrix product: a phase table
    P[j, k] = exp(-i eps_k j step), built once, times the products re-phased
    to the block start, exp(-i eps_k (t0 + lo step)) a_{k,s} a_{k,r}.  A
    block thus costs N new exponentials instead of one per (time, mode)
    pair.  g follows from the amplitudes by the free-fermion determinant
    f11 f22 - f12 f21.
    """
    if n < 1:
        raise ValueError(f"need at least one grid point, got n = {n}")
    rows = min(n, _GRID_BLOCK)
    table = np.exp(-1j * np.multiply.outer(np.arange(rows) * step, eigenvalues))
    out = np.empty(n)
    for lo in range(0, n, rows):
        m = min(rows, n - lo)
        start = np.exp(-1j * eigenvalues * (t0 + lo * step))
        f11, f12, f21, f22 = (table[:m] @ (start[:, None] * products)).T
        out[lo : lo + m] = fidelity_from_edge_amplitudes(f11, f22, f11 * f22 - f12 * f21)
    return out


def average_fidelity_approx(f11: complex, f1N: complex, f2N1: complex) -> float:
    """Truncated average fidelity built from three edge amplitudes.

    Uses f11 = f_1^{N-1} (the mirror-diagonal amplitude) and the two cross
    amplitudes f1N = f_1^N, f2N1 = f_2^{N-1}; mirror symmetry supplies the
    remaining amplitudes and the pair amplitude is approximated by the
    determinant f11^2 - f1N * f2N1.  Its maximum over the constraint set is
    35/36, reached at (1, 0, 0).
    """
    if abs(f11) ** 2 + abs(f1N) ** 2 > 1.0 + 1e-9:
        raise ValueError(
            "amplitude constraint violated: |f11|^2 + |f1N|^2 = "
            f"{abs(f11) ** 2 + abs(f1N) ** 2} > 1"
        )
    re1 = np.real(f11)
    return float(
        0.25
        + (10.0 / 54.0) * re1
        + (7.0 / 54.0) * np.real(f11 * f11)
        + (12.0 / 54.0) * abs(f11) ** 2
        + (2.0 / 54.0) * abs(f1N) ** 2
        + (10.0 / 54.0) * abs(f11) ** 2 * re1
        - (10.0 / 54.0) * np.real(np.conj(f11) * f1N * f2N1)
        - (7.0 / 54.0) * np.real(f1N * f2N1)
    )


def _fidelity_samples(ch: _ChannelData, Z: np.ndarray) -> np.ndarray:
    """Vectorized state fidelity for an array of normalized input states.

    Z has shape (S, 4) holding (alpha, beta, gamma, delta) rows.  Agrees
    with sector_oracle.state_fidelity sample by sample to roundoff; used by
    the Monte-Carlo average and the worst-case minimizer.
    """
    al, be, ga, de = Z[:, 0], Z[:, 1], Z[:, 2], Z[:, 3]
    r1, r2 = ch.r1 - 1, ch.r2 - 1
    a01 = be * ch.w2[r2] + ga * ch.w1[r2]
    a10 = be * ch.w2[r1] + ga * ch.w1[r1]
    a11 = de * ch.g11
    T0 = (
        np.abs(al) ** 2
        + np.conj(be) * a01
        + np.conj(ga) * a10
        + np.conj(de) * a11
    )
    C = np.stack(
        [np.conj(al) * be, np.conj(al) * ga, np.conj(be) * de, np.conj(ga) * de],
        axis=1,
    )
    term2 = np.real(np.einsum("si,ij,sj->s", C.conj(), ch.M, C))
    term3 = (np.abs(al) * np.abs(de)) ** 2 * ch.pair_leak
    return np.abs(T0) ** 2 + term2 + term3


def haar_average_mc(
    spec: ChainSpec,
    t: float,
    samples: int,
    seed: int,
    sd: SpectralData | None = None,
    receiver_order: str = "12",
) -> tuple[float, float]:
    """Monte-Carlo Haar average of the state fidelity.

    Draws Haar-random two-qubit pure states as normalized 4-vectors of
    standard complex Gaussians and averages the transfer fidelity; returns
    (mean, standard error).  Deterministic for a fixed seed.
    """
    if samples < 100:
        raise ValueError(f"need at least 100 samples, got {samples}")
    rng = np.random.default_rng(seed)
    ch = _channel_data(spec, t, sd, receiver_order)
    Z = rng.normal(size=(samples, 4)) + 1j * rng.normal(size=(samples, 4))
    Z /= np.linalg.norm(Z, axis=1)[:, None]
    F = _fidelity_samples(ch, Z)
    mean = float(F.mean())
    stderr = float(F.std(ddof=1) / np.sqrt(samples))
    return mean, stderr


def worst_case_fidelity(
    spec: ChainSpec,
    t: float,
    restarts: int = 16,
    seed: int = 0,
    sd: SpectralData | None = None,
    receiver_order: str = "12",
) -> tuple[TwoQubitState, float]:
    """Minimize the state fidelity over all pure two-qubit inputs.

    Derivative-free Nelder-Mead search over the 8 real state coordinates
    (normalization and global phase are quotiented out inside the
    objective) from seeded random restarts, polished from the worst of a
    10^4-point Haar sample so the result is certified to sit at or below
    that empirical minimum.  Returns (worst state, minimal fidelity).
    """
    ch = _channel_data(spec, t, sd, receiver_order)
    rng = np.random.default_rng(seed)

    def objective(x):
        z = x[:4] + 1j * x[4:]
        nrm = np.linalg.norm(z)
        if nrm < 1e-9:
            return 1.0
        return float(_fidelity_samples(ch, (z / nrm)[None, :])[0])

    # certification sample: the optimum must not sit above the empirical min
    Z = rng.normal(size=(10000, 4)) + 1j * rng.normal(size=(10000, 4))
    Z /= np.linalg.norm(Z, axis=1)[:, None]
    Fs = _fidelity_samples(ch, Z)
    k = int(np.argmin(Fs))
    starts = [np.concatenate([Z[k].real, Z[k].imag])]
    starts += [rng.normal(size=8) for _ in range(restarts)]

    best_val = np.inf
    best_x = starts[0]
    exhausted = False
    for x0 in starts:
        res = minimize(
            objective,
            x0,
            method="Nelder-Mead",
            options={"fatol": 1e-9, "xatol": 1e-9, "maxiter": 5000, "maxfev": 8000},
        )
        if res.fun < best_val:
            best_val = float(res.fun)
            best_x = res.x
        if not res.success and res.fun <= best_val + 1e-12:
            exhausted = True
    if best_val > float(Fs[k]) + 1e-12 or (exhausted and best_val > float(Fs[k])):
        warnings.warn(
            "worst-case search exceeded its budget; returning best value found",
            RuntimeWarning,
        )
        best_val = min(best_val, float(Fs[k]))
    z = best_x[:4] + 1j * best_x[4:]
    state = TwoQubitState.from_vector(z)
    return state, float(best_val)
