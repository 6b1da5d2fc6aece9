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
went.

For the XX chain every one of these quantities, and the fidelity of any
single input state, depends on the two sender rows w1 = f_{s1}^n(t) and
w2 = f_{s2}^n(t) alone, since each two-excitation amplitude is a 2x2
determinant of them.  The exact value, the Monte-Carlo average and the
worst case therefore share one channel record built in O(N) from those
rows (one real matrix product with the eigenvectors): no N x N propagator
or two-excitation matrix is formed, and the probability that both
excitations leak is the Lagrange identity ||u||^2 ||v||^2 - |<u, v>|^2
instead of a sum over site pairs.  Every formula here is cross-validated
against brute-force sector evolution, Nielsen's relation to the
entanglement fidelity and Monte-Carlo Haar sampling in the test suite.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .amplitudes import propagator_rows
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
    """Fast-path quantities for fidelity evaluation at one time, built in O(N).

    w1/w2 are the propagator rows f_{s1}^n, f_{s2}^n of the sender sites.
    Everything else follows from them, because the two-excitation amplitude
    of the XX chain is the determinant g_{s1 s2}^{nm} = w1[n] w2[m] -
    w2[n] w1[m] for n < m: g11 is that determinant at the ordered receiver
    pair, and X_r[n] = sigma_r(n) (w1[n] w2[r] - w2[n] w1[r]), with
    sigma_r(n) = +1 for n < r and -1 otherwise, is the amplitude of one
    excitation on receiver r and the other on site n.  M is the 4x4 Gram
    matrix B* B^T of the channel vectors B = (w2, w1, X2, X1) restricted to
    the N - 2 non-receiver sites; its diagonal holds the single-leakage and
    pair-edge probabilities.  pair_leak, the probability that both
    excitations leak outside the receivers, is the sum of |g|^2 over
    ordered pairs of those sites; by the Lagrange identity it equals
    ||u||^2 ||v||^2 - |<u, v>|^2 for the restricted rows u, v, the
    determinant of M's leading 2x2 block.
    """

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
    r1, r2 = _receiver_sites(spec, receiver_order)
    w1, w2 = propagator_rows(sd, spec.senders, [t])[0]
    notR = np.ones(spec.N, dtype=bool)
    notR[[r1 - 1, r2 - 1]] = False
    sites = np.arange(1, spec.N + 1)

    def leaked(r):
        x = w1 * w2[r - 1] - w2 * w1[r - 1]
        return np.where(sites < r, x, -x)[notR]

    B = np.stack([w2[notR], w1[notR], leaked(r2), leaked(r1)])
    M = B.conj() @ B.T
    pair_leak = max(0.0, float(np.real(M[0, 0] * M[1, 1]) - abs(M[0, 1]) ** 2))
    a, b = sorted((r1, r2))
    g11 = complex(w1[a - 1] * w2[b - 1] - w2[a - 1] * w1[b - 1])
    return _ChannelData(r1=r1, r2=r2, w1=w1, w2=w2, g11=g11, M=M, pair_leak=pair_leak)


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
    ch = _channel_data(spec, t, sd, receiver_order)
    f11, f12 = complex(ch.w1[ch.r1 - 1]), complex(ch.w1[ch.r2 - 1])
    f21, f22 = complex(ch.w2[ch.r1 - 1]), complex(ch.w2[ch.r2 - 1])
    g = ch.g11
    # direct sums over the non-receiver sites, not complements by unitarity
    single_leak_2, single_leak_1, pair_edge_r2, pair_edge_r1 = np.diag(ch.M).real.tolist()

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


# Pairs (a, b) of the products conj(z_a) z_b that carry the incoherent part
# of the state fidelity: alpha* beta, alpha* gamma, beta* delta, gamma* delta
# (the Gram rows of _ChannelData.M) and alpha* delta (the pair leakage).
_LEAK_PAIRS = ((0, 1), (0, 2), (1, 3), (2, 3), (0, 3))


def _state_forms(ch: _ChannelData) -> tuple[np.ndarray, np.ndarray]:
    """The state fidelity at one time as a Hermitian quartic form.

    For an input z = (alpha, beta, gamma, delta) the fidelity is

        F(z) = sum_jk conj(q_j) K_jk q_k,    q_j = z^H E_j z,

    with q_0 = T0 the overlap of the input with the transferred state
    (vacuum plus the two one-excitation and the pair amplitudes at the
    receivers), q_1..q_5 the products of _LEAK_PAIRS, and K the
    block-diagonal matrix of 1, M and pair_leak.  Returns (E, K) of shapes
    (6, 4, 4) and (6, 6).
    """
    r1, r2 = ch.r1 - 1, ch.r2 - 1
    E = np.zeros((6, 4, 4), dtype=complex)
    E[0, 0, 0] = 1.0
    E[0, 1, 1:3] = ch.w2[r2], ch.w1[r2]
    E[0, 2, 1:3] = ch.w2[r1], ch.w1[r1]
    E[0, 3, 3] = ch.g11
    for j, (a, b) in enumerate(_LEAK_PAIRS, start=1):
        E[j, a, b] = 1.0
    K = np.zeros((6, 6), dtype=complex)
    K[0, 0] = 1.0
    K[1:5, 1:5] = ch.M
    K[5, 5] = ch.pair_leak
    return E, K


def _quartic(forms: tuple[np.ndarray, np.ndarray], Z: np.ndarray):
    """F(z) of _state_forms for each row of Z, with E_j z and u = K q.

    Returns (F, EZ, u) with EZ[s, j] = E_j z_s and u[s] = K q(z_s); the
    gradient reads the last two.
    """
    E, K = forms
    EZ = (Z @ E.reshape(24, 4).T).reshape(len(Z), 6, 4)
    q = np.einsum("sja,sa->sj", EZ, Z.conj())
    u = q @ K.T
    return np.einsum("sj,sj->s", q.conj(), u).real, EZ, u


def _fidelity_samples(ch: _ChannelData, Z: np.ndarray) -> np.ndarray:
    """Vectorized state fidelity for an array of normalized input states.

    Z has shape (S, 4) holding (alpha, beta, gamma, delta) rows.  Agrees
    with sector_oracle.state_fidelity sample by sample to roundoff; used by
    the Monte-Carlo average and the worst case's certification sample.
    """
    return _quartic(_state_forms(ch), Z)[0]


def _fidelity_and_gradient(forms, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """State fidelity and its Wirtinger gradient dF/d conj(z) per row of Z.

    Each q_j = z^H E_j z gives dq_j/d conj(z) = E_j z and d conj(q_j)/d
    conj(z) = E_j^H z, so dF/d conj(z) = sum_j (u_j E_j^H z + conj(u_j)
    E_j z) with u = K q.  For real coordinates z = x + iy the gradient is
    (dF/dx, dF/dy) = 2 (Re, Im) of it.
    """
    E = forms[0]
    F, EZ, u = _quartic(forms, Z)
    EHZ = (Z @ E.conj().transpose(0, 2, 1).reshape(24, 4).T).reshape(len(Z), 6, 4)
    grad = np.einsum("sj,sja->sa", u, EHZ) + np.einsum("sj,sja->sa", u.conj(), EZ)
    return F, grad


# Samples per _fidelity_samples call in haar_average_mc.  Temporaries over
# all 10^5 samples (6.4 MB each) lie above glibc's mmap threshold unless the
# process has freed a larger block before, and are then page-faulted afresh
# on every call.  At N = 46, 10^5 samples, on one core of a 2-core x86 VM, a
# call took 91 ms unblocked, 76 ms with 4096-sample blocks and 78 ms with
# 16384.  _quartic's largest temporary holds 24 complex numbers per sample:
# with 2048-sample blocks a 20000-sample call raises the peak RSS by 4.3 MB,
# as much as the earlier per-component code did with 4096, against 5.8 MB
# with 4096; 1024-8192 took the same time within the VM's noise.
_MC_BLOCK = 2048


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
    F = np.concatenate(
        [_fidelity_samples(ch, Z[i : i + _MC_BLOCK]) for i in range(0, samples, _MC_BLOCK)]
    )
    mean = float(F.mean())
    stderr = float(F.std(ddof=1) / np.sqrt(samples))
    return mean, stderr


def _sphere_objective(x: np.ndarray, forms) -> tuple[float, np.ndarray]:
    """F(z / |z|) = F(z) / |z|^4 and its gradient in the coordinates x.

    x holds (Re z, Im z).  With F and g = dF/d conj(z) taken at the unit
    state z / |z| = x / |x|, the gradient is (2 (Re g, Im g) - 4 F x / |x|)
    / |x|; it is orthogonal to x, since F / |z|^4 does not change along it.
    """
    z = x[:4] + 1j * x[4:]
    nrm = np.linalg.norm(z)
    if nrm < 1e-9:
        return 1.0, np.zeros(8)
    F, g = _fidelity_and_gradient(forms, (z / nrm)[None, :])
    grad = (2.0 * np.concatenate([g[0].real, g[0].imag]) - 4.0 * F[0] * x / nrm) / nrm
    return float(F[0]), grad


class WorstCaseBudgetWarning(RuntimeWarning):
    """worst_case_fidelity could not certify its minimum."""


def worst_case_fidelity(
    spec: ChainSpec,
    t: float,
    restarts: int = 16,
    seed: int = 0,
    sd: SpectralData | None = None,
    receiver_order: str = "12",
) -> tuple[TwoQubitState, float]:
    """Minimize the state fidelity over all pure two-qubit inputs.

    Quasi-Newton (L-BFGS-B) search over the 8 real state coordinates,
    driven by the exact value and gradient of the quartic form of
    _state_forms.  Normalization and global phase drop out of the
    objective F(z / |z|) = F(z) / |z|^4.  The search runs from the
    worst of a 10^4-point Haar sample and from `restarts` seeded Gaussian
    starts, so the result is certified to sit at or below that empirical
    minimum.  When it does not, or when the search that found the best value
    stopped without converging above that minimum, a WorstCaseBudgetWarning
    (a RuntimeWarning) says the search exceeded its budget, and the lower
    of the two minima is returned with its state.
    Returns (worst state, minimal fidelity); the state's fidelity is the
    returned value.
    """
    ch = _channel_data(spec, t, sd, receiver_order)
    forms = _state_forms(ch)
    rng = np.random.default_rng(seed)

    # certification sample: the optimum must not sit above the empirical min
    Z = rng.normal(size=(10000, 4)) + 1j * rng.normal(size=(10000, 4))
    Z /= np.linalg.norm(Z, axis=1)[:, None]
    Fs = _fidelity_samples(ch, Z)
    k = int(np.argmin(Fs))
    starts = [np.concatenate([Z[k].real, Z[k].imag])]
    starts += [rng.normal(size=8) for _ in range(restarts)]

    best_val = np.inf
    best_z = Z[k]
    exhausted = False
    # ftol and gtol sit near roundoff, so each search stops at its local
    # minimum to about 1e-16 in F, after a few dozen iterations at most
    for x0 in starts:
        res = minimize(
            _sphere_objective,
            x0,
            args=(forms,),
            jac=True,
            method="L-BFGS-B",
            options={"ftol": 1e-15, "gtol": 1e-10, "maxiter": 2000},
        )
        if res.fun < best_val:
            best_val = float(res.fun)
            best_z = res.x[:4] + 1j * res.x[4:]
        if not res.success and res.fun <= best_val + 1e-12:
            exhausted = True
    if best_val > float(Fs[k]) + 1e-12 or (exhausted and best_val > float(Fs[k])):
        warnings.warn(
            "worst-case search exceeded its budget; returning best value found",
            WorstCaseBudgetWarning,
        )
        if Fs[k] < best_val:
            best_val, best_z = float(Fs[k]), Z[k]
    return TwoQubitState.from_vector(best_z), float(best_val)
