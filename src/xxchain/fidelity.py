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
worst case therefore share one channel record per time, built in O(N)
from those rows (one real matrix product with the eigenvectors):
_channel_data returns the 4 x 4 transfer block E0 and the 5 x 5 Gram
matrix K of the leaked amplitudes.  Then Fbar = (|Tr E0|^2 + ||E0||_F^2 +
Tr K) / 20, whose summands are the ten-term breakdown, and an input z has
fidelity F(z) = |z^H E0 z|^2 + l^H K l for its five leak products l.  No
N x N propagator or two-excitation matrix is formed, and the probability
that both excitations leak is the Lagrange identity ||u||^2 ||v||^2 -
|<u, v>|^2 instead of a sum over site pairs.

The fidelity of one input state is a quartic form in its four amplitudes.
_state_forms writes it as a sum of squares of 12 real linear forms in the
32 quadratic monomials of the state's real coordinates, and _quartic, the
one copy of that expression, evaluates it divided by |z|^4 for a block of
unnormalized states z.  The Monte-Carlo average, the worst case's
certification sample and its L-BFGS search with the exact gradient all
call it; Monte-Carlo reads its Haar states straight from the seeded
Gaussian draws, without a complex or normalized copy.  Every formula here
is cross-validated against brute-force sector evolution, Nielsen's relation
to the entanglement fidelity and Monte-Carlo Haar sampling in the test
suite.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

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


def _channel_data(
    spec: ChainSpec, t: float, sd: SpectralData | None = None, receiver_order: str = "12"
) -> tuple[np.ndarray, np.ndarray]:
    """The channel from the sender pair to the receiver pair at time t, built in O(N).

    Returns (E0, K).  E0 is the 4 x 4 transfer block with q_0 = z^H E0 z for
    an input z = (alpha, beta, gamma, delta): the vacuum, the four
    one-excitation amplitudes f_s^r and the pair amplitude g at the
    receivers.  K = diag(M, pair_leak) is the 5 x 5 Gram matrix of the
    amplitudes that leak outside the receivers.

    Everything follows from the propagator rows w1 = f_{s1}^n, w2 =
    f_{s2}^n of the sender sites, because the two-excitation amplitude of
    the XX chain is the determinant g_{s1 s2}^{nm} = w1[n] w2[m] - w2[n]
    w1[m] for n < m: g is that determinant at the ordered receiver pair,
    and X_r[n] = sigma_r(n) (w1[n] w2[r] - w2[n] w1[r]), with sigma_r(n) =
    +1 for n < r and -1 otherwise, is the amplitude of one excitation on
    receiver r and the other on site n.  M is the 4x4 Gram matrix B* B^T of
    the channel vectors B = (w2, w1, X2, X1) restricted to the N - 2
    non-receiver sites; its diagonal holds the single-leakage and pair-edge
    probabilities.  pair_leak, the probability that both excitations leak
    outside the receivers, is the sum of |g|^2 over ordered pairs of those
    sites; by the Lagrange identity it equals ||u||^2 ||v||^2 - |<u, v>|^2
    for the restricted rows u, v, the determinant of M's leading 2x2 block.
    """
    if sd is None:
        sd = diagonalize(build_single_particle(spec))
    r1, r2 = spec.receivers
    if receiver_order == "21":
        r1, r2 = r2, r1
    elif receiver_order != "12":
        raise ValueError(f"receiver_order must be '12' or '21', got {receiver_order!r}")
    w1, w2 = propagator_rows(sd, spec.senders, [t])[0]
    notR = np.ones(spec.N, dtype=bool)
    notR[[r1 - 1, r2 - 1]] = False
    sites = np.arange(1, spec.N + 1)

    def leaked(r):
        x = w1 * w2[r - 1] - w2 * w1[r - 1]
        return np.where(sites < r, x, -x)[notR]

    B = np.stack([w2[notR], w1[notR], leaked(r2), leaked(r1)])
    M = B.conj() @ B.T
    K = np.zeros((5, 5), dtype=complex)
    K[:4, :4] = M
    K[4, 4] = max(0.0, float(np.real(M[0, 0] * M[1, 1]) - abs(M[0, 1]) ** 2))
    a, b = sorted((r1, r2))
    E0 = np.zeros((4, 4), dtype=complex)
    E0[0, 0] = 1.0
    E0[1, 1:3] = w2[r2 - 1], w1[r2 - 1]
    E0[2, 1:3] = w2[r1 - 1], w1[r1 - 1]
    E0[3, 3] = w1[a - 1] * w2[b - 1] - w2[a - 1] * w1[b - 1]
    return E0, K


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
    E0, K = _channel_data(spec, t, sd, receiver_order)
    (f22, f12), (f21, f11) = E0[1:3, 1:3].tolist()
    g = complex(E0[3, 3])
    # direct sums over the non-receiver sites, not complements by unitarity
    single_leak_2, single_leak_1, pair_edge_r2, pair_edge_r1, pair_leak = np.diag(K).real.tolist()

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
        "pair_leakage": pair_leak / 20.0,
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


def _evaluator_weights(eigenvalues: np.ndarray, products: np.ndarray) -> np.ndarray:
    """N x 12 weights [p, -i eps p, -eps^2 p] of _fidelity_at, from edge_products.

    Column i of the first four is the edge product p_i, so the amplitude f_i
    and its first two time derivatives are the phases exp(-i eps t) times
    columns i, 4 + i and 8 + i.  A t* search builds them once and passes
    them to every _fidelity_at call.
    """
    e = eigenvalues[:, None]
    return np.hstack([products, -1j * e * products, -(e * e) * products])


def _fidelity_at(eigenvalues: np.ndarray, weights: np.ndarray, t):
    """Exact average fidelity and its first two time derivatives at t or an array of times.

    weights comes from _evaluator_weights.  The edge amplitudes f = sum_k
    exp(-i eps_k t) p_k are finite trigonometric sums, so f' and f'' come
    from the same phases: one product exp(-i eps t) @ [p, -i eps p, -eps^2
    p].  With the coherent amplitude c = (1 + f11)(1 + f22) - f12 f21,
    summed in fidelity_from_edge_amplitudes' order, Fbar = (4 + |c|^2)/20,
    Fbar' = Re(conj(c) c')/10 and Fbar'' = (|c'|^2 + Re(conj(c) c''))/10.
    At N = 30-40 one time takes 20-23 us on one thread of a 2-core x86 VM.
    Returns (Fbar, Fbar', Fbar'', f), the first three floats for a scalar
    t; f holds the amplitudes (f11, f12, f21, f22), a row of four per time.
    """
    x = np.exp(-1j * np.multiply.outer(t, eigenvalues)) @ weights
    # the amplitudes, then their first and their second derivatives
    f11, f12, f21, f22, a11, a12, a21, a22, b11, b12, b21, b22 = x.T
    c = 1.0 + f11 + f22 + (f11 * f22 - f12 * f21)
    c1 = a11 * (1.0 + f22) + (1.0 + f11) * a22 - a12 * f21 - f12 * a21
    c2 = (b11 * (1.0 + f22) + 2.0 * a11 * a22 + (1.0 + f11) * b22
          - b12 * f21 - 2.0 * a12 * a21 - f12 * b21)
    F = (4.0 + abs(c) ** 2) / 20.0
    F1 = (c.conjugate() * c1).real / 10.0
    F2 = (abs(c1) ** 2 + (c.conjugate() * c2).real) / 10.0
    if np.ndim(t) == 0:
        return float(F), float(F1), float(F2), x[..., :4]
    return F, F1, F2, x[..., :4]


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


# A mode is left out of the t* screen while the sum of max_i |p_ki| over the
# modes left out stays at or below this; smallest weights go first.  Every
# QUASI_MENU chain keeps 6 of its N modes.
_TRUNCATION_WEIGHT = 1e-3
# Screen layout: phase-table rows, and grid points per chunk of blocks.  Over
# the 25 QUASI_MENU windows (2.0M points, 6 modes) on one core of a 2-core
# x86 VM the single-precision screen took 34-42 ms (median of 5) with 16384-
# or 32768-point chunks at 128-1024 rows, 36-42 ms with 8192-point chunks
# and 40-46 ms with 4096-point chunks; the spread between runs is about 15%.
_SCREEN_ROWS = 256
_SCREEN_POINTS = 16384


@dataclass(frozen=True)
class _FidelityBound:
    """Certified upper bound on the exact fidelity from its dominant modes.

    upper[j] >= _fidelity_at(t0 + j step) at every grid point j of
    _fidelity_bound.  modes_kept counts the modes the screen evaluates;
    truncation_bound is D >= |c - c~|, the most the left-out modes can move
    c = 1 + f11 + f22 + g.  D = 0 when every mode is kept.  rounding_slack
    is sigma, which covers rounding in the screen and in _fidelity_at.
    """

    upper: np.ndarray
    modes_kept: int
    truncation_bound: float
    rounding_slack: float


def _fidelity_bound(
    eigenvalues: np.ndarray, products: np.ndarray, t0: float, step: float, n: int
) -> _FidelityBound:
    """Upper bound on the exact average fidelity on the grid t0 + j step, j < n.

    The modes with the largest max_i |p_ki| are kept until the left-out
    weight is at most _TRUNCATION_WEIGHT.  The screen evaluates c~ = (1 +
    f11)(1 + f22) - f12 f21, the coherent amplitude c of the kept modes
    alone.  With d_i the column sums of |p| over the left-out modes and W_i
    those over the kept ones, |c - c~| <= D = d11 + d22 + W11 d22 + W22 d11
    + d11 d22 + W12 d21 + W21 d12 + d12 d21, so Fbar <= (4 + (|c~| + D +
    sigma)^2) / 20, where sigma covers rounding (see below).  The screen
    costs about 4 (K + 1) complex multiply-adds per point for K kept modes,
    in single precision, on a phase table of _SCREEN_ROWS rows re-phased
    per block; every phase argument is formed in double precision.
    """
    if n < 1:
        raise ValueError(f"need at least one grid point, got n = {n}")
    a = np.abs(products)
    weight = a.max(axis=1)
    order = np.argsort(weight, kind="stable")
    q = int(np.searchsorted(np.cumsum(weight[order]), _TRUNCATION_WEIGHT, side="right"))
    kept = order[q:]
    K = len(kept)
    d11, d12, d21, d22 = a[order[:q]].sum(axis=0).tolist()
    W11, W12, W21, W22 = a[kept].sum(axis=0).tolist()
    D = d11 + d22 + W11 * d22 + W22 * d11 + d11 * d22 + W12 * d21 + W21 * d12 + d12 * d21
    # Rounding in double precision: _fidelity_at and this screen each
    # compute every phase from an argument within 8 eps |eps_k| T of eps_k t
    # (T = max |t| on the grid), with exponentials and products within
    # 16 eps, and sum at most N + 1 terms (the constant 1 counts as a mode of
    # weight 1), so each amplitude sits within eps (sum_k |p_ki| (8 |eps_k| T
    # + 2 N + 16) + 2 N + 16) of its true value.  As sum_k |p_ki| <= 1, c
    # moves by at most twice the sum of those four errors on each side;
    # 64 eps more covers assembling c, taking its modulus and forming upper.
    eps = np.finfo(float).eps
    N = len(eigenvalues)
    T = max(abs(t0), abs(t0 + (n - 1) * step))
    per_mode = a.sum(axis=1) @ (8.0 * T * np.abs(eigenvalues) + 2 * N + 16)
    sigma = 4.0 * eps * (per_mode + 4 * (2 * N + 16)) + 64.0 * eps
    # Rounding in single precision, with r = 2^-24: the screen rounds the
    # double-precision start * w and table entries z to complex64, each
    # within r |z|, so each of the K + 1 products in amplitude i moves by
    # (2r + r^2) |w_ik|.  The complex64 matrix product sums them as two real
    # dot products of 2K + 2 terms, each within gamma_{2K+2} = (2K + 2) r /
    # (1 - (2K + 2) r) of the sum of the terms' moduli in any order of
    # summation, fused multiply-adds included.  So amplitude i moves by at
    # most (sqrt(2) gamma_{2K+2} (1 + r)^2 + 2r + r^2) S_i <= g S_i, with
    # g = (3K + 6) r and S_i = sum_k |w_ik| (W_i, plus 1 for the constant in
    # f11 and f22), which also bounds |f_i|.  Then c~ = uv - xy moves by
    # (2g + g^2) P, P = S11 S22 + S12 S21; rounding the two complex64
    # products adds sqrt(2) gamma_2 (1 + g)^2 P, their difference r P and
    # the float32 modulus 2r P.  In all that is below (6K + 24) r P, which
    # leaves room for the g^2 terms and for underflow (at most 2^-149 per
    # operation, while P >= 1).  No term grows with t: every argument that
    # does is formed in double precision.
    sigma += (6 * K + 24) * 2.0**-24 * ((W11 + 1.0) * (W22 + 1.0) + W12 * W21)

    # one more mode at energy 0 carries the 1 of (1 + f11) and (1 + f22)
    e = np.append(eigenvalues[kept], 0.0)
    w = np.zeros((4, K + 1))
    w[:, :K] = products[kept].T
    w[0, K] = w[3, K] = 1.0
    # a table of about sqrt(n) rows needs the fewest exponentials, table and
    # block starts together, below _SCREEN_ROWS^2 points
    rows = min(n, _SCREEN_ROWS, int(n**0.5) + 1)
    blocks = -(-n // rows)
    per_chunk = max(1, _SCREEN_POINTS // rows)
    table = np.exp(-1j * np.multiply.outer(e, np.arange(rows) * step)).astype(np.complex64)
    upper = np.empty(blocks * rows)
    for b in range(0, blocks, per_chunk):
        nb = min(per_chunk, blocks - b)
        start = np.exp(-1j * np.multiply.outer(t0 + np.arange(b, b + nb) * rows * step, e))
        sw = (start * w[:, None, :]).astype(np.complex64)
        u, x, y, v = (sw.reshape(-1, K + 1) @ table).reshape(4, nb, rows)
        c = u * v
        x *= y
        c -= x
        # |c~| in float32, then + D + sigma in float64
        seg = upper[b * rows : (b + nb) * rows].reshape(nb, rows)
        np.add(np.abs(c), D + sigma, out=seg, dtype=float)
    upper = upper[:n]
    upper *= upper
    upper += 4.0
    upper /= 20.0
    return _FidelityBound(upper=upper, modes_kept=K, truncation_bound=D, rounding_slack=sigma)


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


# The state fidelity is a quadratic form in the products m = u_i u_j of the
# 8 real coordinates u = (Re z, Im z) of an input z = (alpha, beta, gamma,
# delta): the 8 squares first, whose sum is |z|^2, then the 24 products with
# i < j other than Re z_a Im z_a, which never enters since conj(z_a) z_a is
# real.
_MONOMIALS = tuple(
    np.array(ix)
    for ix in zip(
        *[(i, i) for i in range(8)]
        + [(i, j) for i in range(8) for j in range(i + 1, 8) if j != i + 4]
    )
)
# Pairs (a, b) of the products conj(z_a) z_b that carry the incoherent part
# of the state fidelity: alpha* beta, alpha* gamma, beta* delta, gamma* delta
# (the Gram rows of M in _channel_data's K) and alpha* delta (the pair
# leakage).
_LEAK_PAIRS = ((0, 1), (0, 2), (1, 3), (2, 3), (0, 3))


def _monomial_coefficients(A: np.ndarray) -> np.ndarray:
    """Coefficients of z^H A z on the monomials m of _MONOMIALS.

    With u = (x, y) and z = x + iy, z^H A z = u^T T u for T = [[A, iA],
    [-iA, A]], so the coefficient of u_i u_j is T_ij + T_ji for i < j and
    T_ii for i = j.
    """
    T = np.block([[A, 1j * A], [-1j * A, A]])
    return (T + T.T - np.diag(T.diagonal()))[_MONOMIALS]


# The coefficients of the five products of _LEAK_PAIRS on the monomials, one
# column each
_LEAK_COEFFICIENTS = np.column_stack(
    [_monomial_coefficients(np.outer(np.eye(4)[a], np.eye(4)[b])) for a, b in _LEAK_PAIRS]
)


def _state_forms(E0: np.ndarray, K: np.ndarray) -> np.ndarray:
    """The state fidelity at one time as a sum of squares of real linear forms.

    For an input z = (alpha, beta, gamma, delta) and the channel (E0, K) of
    _channel_data the fidelity is

        F(z) = |q_0|^2 + l^H K l,

    with q_0 = z^H E0 z and l the five products of _LEAK_PAIRS: the first
    four pair with M, the last is |conj(alpha) delta|^2 weighted by
    pair_leak.  l^H K l = ||R l||^2 with R = sqrt(lambda) V^H from K = V
    diag(lambda) V^H.  q_0 and R l are complex linear in the monomials
    m(z), so F(z) = ||W^T m(z)||^2 for the real matrix W returned here, of
    shape (32, 12): its columns hold the real, then the imaginary parts of
    the coefficients of q_0 and of the five entries of R l.
    """
    lam, V = np.linalg.eigh(K)
    R = np.sqrt(np.clip(lam, 0.0, None))[:, None] * V.conj().T
    coef = np.column_stack([_monomial_coefficients(E0), _LEAK_COEFFICIENTS @ R.T])
    return np.hstack([coef.real, coef.imag])


def _quartic(W: np.ndarray, U: np.ndarray):
    """F(z / |z|) of _state_forms for every column u = (Re z, Im z) of U.

    U has shape (8, S).  F(z) = ||W^T m(z)||^2 is homogeneous of degree 4,
    so F(z) / |z|^4 is the fidelity of the state z / |z|, and no normalized
    copy of z is formed.  Returns (F, out) with the unnormalized forms
    out = W^T m(z), of shape (12, S), which the gradient reads.
    """
    m = U[_MONOMIALS[0]]
    m *= U[_MONOMIALS[1]]
    out = W.T @ m
    nrm2 = m[:8].sum(axis=0)
    return (out * out).sum(axis=0) / (nrm2 * nrm2), out


# Samples per _quartic call when a Haar sample is evaluated.  The
# temporaries of a 2048-sample block peak at 1.1 MB, inside the 2 MB L2
# share of one core of a 2-core x86 VM.  There, on one core, the kernel took
# 10-11 ms over 10^5 samples in blocks of 1024 or 2048, 14 ms with 4096 and
# 47 ms with 8192, and haar_average_mc at N = 46 took 34 ms with 1024 or
# 2048 and 36 ms with 3072, about half of it drawing the normals.
_MC_BLOCK = 2048


def _fidelities_in_blocks(W: np.ndarray, V: np.ndarray) -> np.ndarray:
    """F(z / |z|) for the rows z = V[0] + i V[1], in blocks of _MC_BLOCK."""
    F = np.empty(V.shape[1])
    for i in range(0, len(F), _MC_BLOCK):
        block = V[:, i : i + _MC_BLOCK].transpose(0, 2, 1).reshape(8, -1)
        F[i : i + _MC_BLOCK] = _quartic(W, block)[0]
    return F


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
    W = _state_forms(*_channel_data(spec, t, sd, receiver_order))
    # the real, then the imaginary parts of the Gaussian vectors: the numbers
    # of two (samples, 4) draws in that order; _quartic normalizes
    F = _fidelities_in_blocks(W, rng.standard_normal((2, samples, 4)))
    mean = float(F.mean())
    stderr = float(F.std(ddof=1) / np.sqrt(samples))
    return mean, stderr


def _sphere_objective(x: np.ndarray, forms) -> tuple[float, np.ndarray]:
    """F(z / |z|) = F(z) / |z|^4 and its gradient in the coordinates x.

    x holds u = (Re z, Im z) and forms is W of _state_forms.  F(z) = ||o||^2
    with o = W^T m(u), so dF/dm = 2 W o, and since d(u_i u_j)/du = u_j e_i
    + u_i e_j, dF/du = 2 (S + S^T) u for the 8 x 8 matrix S that holds
    (W o)_k at the index pair (i, j) of monomial k.  The gradient of
    F(z) / |z|^4 is (dF/du / |z|^2 - 4 F(z / |z|) x) / |z|^2; it is
    orthogonal to x, since F(z) / |z|^4 does not change along it.
    """
    nrm2 = float(x @ x)
    if nrm2 < 1e-18:
        return 1.0, np.zeros(8)
    F, out = _quartic(forms, x[:, None])
    S = np.zeros((8, 8))
    S[_MONOMIALS] = forms @ out[:, 0]
    grad = (2.0 * (S + S.T) @ x / nrm2 - 4.0 * F[0] * x) / nrm2
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
    # imported here, not with the module: only this search needs
    # scipy.optimize, and the README gives its import cost
    from scipy.optimize import minimize

    forms = _state_forms(*_channel_data(spec, t, sd, receiver_order))
    rng = np.random.default_rng(seed)

    # certification sample: the optimum must not sit above the empirical min
    V = rng.standard_normal((2, 10000, 4))
    Fs = _fidelities_in_blocks(forms, V)
    k = int(np.argmin(Fs))
    z_k = V[0, k] + 1j * V[1, k]
    starts = [V[:, k].ravel() / np.linalg.norm(z_k)]
    starts += [rng.normal(size=8) for _ in range(restarts)]

    best_val = np.inf
    best_z = z_k
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
            best_val, best_z = float(Fs[k]), z_k
    return TwoQubitState.from_vector(best_z), float(best_val)
