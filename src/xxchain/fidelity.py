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
32 quadratic monomials of the state's real coordinates, and _quartic
evaluates it divided by |z|^4 on the monomials of a block of unnormalized
states z.  The Monte-Carlo average and the worst case's certification
sample call it; Monte-Carlo reads its Haar states straight from the seeded
Gaussian draws, without a complex or normalized copy, and draws them once
for all the times it is asked for.  The worst case's search reads the same
12 forms as quadrics u^T Q_c u of the unit vector u = (Re z, Im z), whose
exact gradient and Hessian drive a Newton iteration on the sphere, all
starts in one batch and no optimizer library involved.

The state fidelity has degree (2, 2) in z and conj(z), so its mean over
any complex projective 2-design is its Haar average, exactly.  The 20
states of the five mutually unbiased bases of two qubits form one;
_design_average takes the kernel's mean over them, which equals the closed
form to rounding (about 2e-16), and sector_oracle.verify (`xxchain verify`)
checks the kernel against the closed form that way, with no sampling
error.  Every formula here is cross-validated against brute-force sector
evolution, Nielsen's relation to the entanglement fidelity and
Monte-Carlo Haar sampling in the test suite.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .amplitudes import _check_times, _grid_shape, grid_phases, propagator_rows
from .chain import ChainSpec, TwoQubitState, _receiver_sites, build_single_particle
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
# modes left out stays at or below this, smallest weights first, and so is a
# term of its sum while the sum of |m| over the terms left out does.  Every
# QUASI_MENU chain keeps 6 of its N modes and 16 of their 22 terms: the six
# pairs within a level cluster nearly cancel, and their |m| sum to 1.4e-8-
# 1.6e-6.  Chains at h = 10-20 keep 15-30 modes and a fifth to two fifths
# of their terms.
_TRUNCATION_WEIGHT = 1e-3
# At most this many modes are kept, so the screen sums at most 2081 terms.
# Only chains at small h keep more under _TRUNCATION_WEIGHT: N = 200 at
# h = 1 keeps 180.
_SCREEN_MODES = 64
# Grid points per product of the screen.  16384 keeps the grids that cross
# a product boundary small enough to check every point.
_SCREEN_POINTS = 16384
# The most bytes the screen may hold at once.  Its window [0, N h] grows
# linearly in h on a quasi-Rabi chain: at N = 29 the grid has 3.7e8 points
# at h = 1e6 (1.48 GB held) and 3.7e9 at h = 1e7, which is refused, as is
# h = 1e12 (3.7e14 points).
_SCREEN_BYTES = 2 << 30

# The products of the extra mode of _coherent_terms, the antidiagonal of J
# in m_kl = p_k J p_l^T, and the terms among up to _SCREEN_MODES + 1 modes
# with the extra mode first: the pairs k < l and the constant at (0, 0)
_EXTRA_MODE = np.array([[1.0, 0.0, 0.0, 1.0]])
_ANTIDIAGONAL = np.array([1.0, -1.0, -1.0, 1.0])
_TERMS = np.triu(np.ones((_SCREEN_MODES + 1, _SCREEN_MODES + 1), dtype=bool), 1)
_TERMS[0, 0] = True


def _coherent_terms(eigenvalues: np.ndarray, products: np.ndarray):
    """The coherent amplitude of up to _SCREEN_MODES modes as a sum over pair levels.

    Mode 0 is one more mode, of energy 0 and products (1, 0, 0, 1), which
    carries the 1 of (1 + f11) and (1 + f22); modes 1..K are the given ones.
    Over these K + 1 modes, with p_k = (p_k11, p_k12, p_k21, p_k22), the
    coherent amplitude c = (1 + f11)(1 + f22) - f12 f21 of the given modes
    is a sum over the pair levels (Cauchy-Binet):

        c(t) = 1 + sum_{k < l} m_kl exp(-i (eps_k + eps_l) t),
        m_kl = p_k11 p_l22 + p_l11 p_k22 - p_k12 p_l21 - p_l12 p_k21,

    since each mode's own term p_k11 p_k22 - p_k12 p_k21 vanishes: p_k is
    the rank-one product a_k,s a_k,r.  The pairs (0, l) are the single
    modes, with m = p_l11 + p_l22.  Returns (e, k, l, m): the K + 1
    energies, and per term its two modes and m, the constant first, as the
    pair (0, 0) of phase 1.
    """
    e = np.concatenate([np.zeros(1), eigenvalues])
    p = np.concatenate([_EXTRA_MODE, products])
    k, l = _TERMS[: len(e), : len(e)].nonzero()
    m = (p @ (p[:, ::-1] * _ANTIDIAGONAL).T)[k, l]
    m[0] = 1.0
    return e, k, l, m


@dataclass(frozen=True)
class _FidelityBound:
    """Certified bound on the exact coherent amplitude from its dominant terms.

    modulus[j] is the screen's single-precision |c~| at grid point j of
    _fidelity_bound.  There |c| as _fidelity_at computes it is at most
    modulus[j] + truncation_bound + rounding_slack, so Fbar <= (4 +
    (modulus[j] + D + sigma)^2) / 20.  modes_kept counts the modes the
    screen keeps and screen_terms the P terms its sum evaluates;
    truncation_bound is D >= |c - c~|, the most the modes and terms left
    out can move c = 1 + f11 + f22 + g.  D = 0 when every mode and every
    term is kept.  rounding_slack is sigma, which covers rounding in the
    screen, in _fidelity_at and in reaching.
    """

    modulus: np.ndarray
    modes_kept: int
    screen_terms: int
    truncation_bound: float
    rounding_slack: float

    def reaching(self, F: float) -> np.ndarray:
        """The grid points whose bound reaches F, a superset of those where _fidelity_at >= F.

        _fidelity_at rounds (4 + x^2) / 20 from x = |c|, so where it gives at
        least F (at most 1.01), x^2 >= 20 F - 4 - 32 eps.  The threshold's
        square is formed within 32 eps of 20 F - 4 - 64 eps, so the
        threshold sits below x up to the 64 eps of sigma.  The comparison is
        made in double precision, so the threshold is not rounded to float32.
        """
        x = math.sqrt(max(20.0 * F - 4.0 - 2.0**-46, 0.0))
        return np.flatnonzero(
            self.modulus >= np.float64(x - self.truncation_bound - self.rounding_slack)
        )


def _fidelity_bound(
    eigenvalues: np.ndarray, products: np.ndarray, t0: float, step: float, n: int
) -> _FidelityBound:
    """Bound on the exact coherent amplitude on the grid t0 + j step, j < n.

    The modes with the largest max_i |p_ki| are kept until the left-out
    weight is at most _TRUNCATION_WEIGHT, and at most _SCREEN_MODES of them.
    _coherent_terms writes c~, the coherent amplitude of the K kept modes,
    as 1 + K (K + 1) / 2 terms; those whose |m| sum to at most
    _TRUNCATION_WEIGHT are left out, smallest first, and the screen sums the
    P others.  With d_i the column sums of |p| over the left-out modes and
    W_i those over the kept ones, |c - c~| <= d11 + d22 + W11 d22 + W22 d11
    + d11 d22 + W12 d21 + W21 d12 + d12 d21, and D adds the |m| of the terms
    left out.  The screen costs P complex multiply-adds per point, in single
    precision: the terms' phases at the block starts times a table of their
    weighted phases at the table's offsets, one product per _SCREEN_POINTS
    points (at least one block) with a single output.  Every phase argument
    is formed in double precision, one exponential per kept mode and table
    time, by amplitudes.grid_phases, the helper `xxchain amplitudes` builds
    its grid phases with; amplitudes._grid_shape sets the table's shape.  A
    screen that would hold more than _SCREEN_BYTES raises ArithmeticError
    before it allocates its grid arrays.
    """
    if n < 1:
        raise ValueError(f"need at least one grid point, got n = {n}")
    # the per-mode maxima and the column sums as vector operations: a
    # reduction along the rows of four takes 46 us at N = 1000
    a = np.abs(products)
    weight = np.maximum(np.maximum(a[:, 0], a[:, 1]), np.maximum(a[:, 2], a[:, 3]))
    order = weight.argsort(kind="stable")
    q = int(weight[order].cumsum().searchsorted(_TRUNCATION_WEIGHT, side="right"))
    kept = order[max(q, len(order) - _SCREEN_MODES) :]
    K = len(kept)
    outside = np.ones(len(order))
    outside[kept] = 0.0
    d11, d12, d21, d22 = (outside @ a).tolist()
    W11, W12, W21, W22 = a[kept].sum(axis=0).tolist()
    D = d11 + d22 + W11 * d22 + W22 * d11 + d11 * d22 + W12 * d21 + W21 * d12 + d12 * d21
    e, k, l, m = _coherent_terms(eigenvalues[kept], products[kept])
    size = np.abs(m)
    order = size.argsort(kind="stable")
    cumulative = size[order].cumsum()
    q = int(cumulative.searchsorted(_TRUNCATION_WEIGHT, side="right"))
    dropped = float(cumulative[q - 1]) if q else 0.0
    D += dropped
    terms = order[q:]
    k, l, m = k[terms], l[terms], m[terms]
    P = len(m)

    # Rounding in double precision.  _fidelity_at computes every phase from
    # an argument within 8 eps |eps_k| T of eps_k t (T = max |t| on the
    # grid), with exponentials and products within 16 eps, and sums at most
    # N + 1 terms (the constant 1 counts as a mode of weight 1), so each
    # amplitude sits within eps (sum_k |p_ki| (8 |eps_k| T + 2 N + 16) + 2 N
    # + 16) of its true value.  As sum_k |p_ki| <= 1, its c moves by at most
    # twice the sum of those four errors, 2 eps (8 T sum_ki |eps_k| |p_ki| +
    # 8 (2 N + 16)).  The screen forms the phase of term (k, l) at a grid
    # point as a block start's times an offset's, each the product of the two
    # modes' exponentials, from arguments within 8 eps (|eps_k| + |eps_l|) T
    # of (eps_k + eps_l) t in all, with the exponentials and products within
    # 16 eps; m_kl sits within 4 eps of the sum A_kl of the moduli of its
    # four products, which bounds |m_kl|.  So the term moves by
    # eps A_kl (16 E T + 20), E = max_k |eps_k| over the kept modes, before
    # it is rounded to single precision.  Over all ordered pairs of the K + 1
    # modes the A_kl sum to at most Q = (W11 + 1)(W22 + 1) + W12 W21.  64 eps
    # more covers assembling c, taking its modulus and reaching's threshold.
    eps = 2.0**-52
    N = len(eigenvalues)
    T = max(abs(t0), abs(t0 + (n - 1) * step))
    at_points = 8.0 * T * float((np.abs(eigenvalues) @ a).sum()) + 8 * (2 * N + 16)
    Q = (W11 + 1.0) * (W22 + 1.0) + W12 * W21
    sigma = eps * (2.0 * at_points + (16.0 * T * float(np.abs(e).max()) + 20.0) * Q + 64.0)
    # Rounding in single precision, with r = 2^-24: the screen rounds each
    # term's phase w at a block start and its table entry z (m_kl times the
    # phase at an offset) to complex64, each within r of its modulus, so the
    # product w z moves by (2r + r^2) |w| |z|.  The complex64 matrix product
    # sums the P products as two real dot products of 2P terms, each within
    # gamma = 2P r / (1 - 2P r) of the sum of the terms' moduli in any order
    # of summation, fused multiply-adds included, and the float32 modulus is
    # within 2r of its value.  With S = sum |m_kl| over the P terms, which
    # bounds both sum |w| |z| and the modulus up to 40 eps, |c~| moves by at
    # most (sqrt(2) gamma (1 + r)^2 + 2r + r^2)(1 + 2r) S + 2r S, below
    # (sqrt(2) gamma + 5r)(1 + r)^4 S; that leaves room for the 40 eps and
    # for underflow (at most 2^-149 per operation, while S >= 1).  No term
    # grows with t: every argument that does is formed in double precision.
    r = 2.0**-24
    gamma = 2 * P * r / (1.0 - 2 * P * r)
    S = float(cumulative[-1]) - dropped
    sigma += (math.sqrt(2.0) * gamma + 5 * r) * (1.0 + r) ** 4 * S

    rows, blocks = _grid_shape(n)
    per_chunk = max(1, _SCREEN_POINTS // rows)
    # the most bytes the arrays below hold at once, over the rows + blocks
    # times: first the modes' complex128 phases and their arguments, or the
    # modes' phases with the terms' two gathered phases and their product;
    # then the times, the terms' complex64 table, the float32 modulus and
    # one chunk's product with its copy of the block starts
    width = rows + blocks
    held = max(
        16 * (2 * (K + 1) + 3 * P) * width,
        8 * (P + 1) * width + 4 * blocks * rows + 8 * min(per_chunk, blocks) * (rows + P),
    )
    if held > _SCREEN_BYTES:
        raise ArithmeticError(
            f"the t* screen of {n} grid points would hold {held} bytes, "
            f"above its limit of {_SCREEN_BYTES}"
        )
    # the phases of every term at the table's offsets, times m, and at the
    # block starts, from grid_phases' one exponential per mode and time
    offset, start = grid_phases(e, t0, step, n)
    table = (offset[:, k] * offset[:, l] * m).astype(np.complex64).T
    start = (start[:, k] * start[:, l]).astype(np.complex64)
    del offset  # the modes' complex128 phases, before the products' arrays
    modulus = np.empty(blocks * rows, dtype=np.float32)
    for b in range(0, blocks, per_chunk):
        seg = modulus[b * rows : (b + per_chunk) * rows].reshape(-1, rows)
        np.abs(start[b : b + per_chunk] @ table, out=seg)
    return _FidelityBound(
        modulus=modulus[:n],
        modes_kept=K,
        screen_terms=P,
        truncation_bound=D,
        rounding_slack=sigma,
    )


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


def _monomials(U: np.ndarray) -> np.ndarray:
    """The 32 monomials of _MONOMIALS for every column u = (Re z, Im z) of U.

    U has shape (8, S); returns shape (32, S), the 8 squares first.
    """
    m = U[_MONOMIALS[0]]
    m *= U[_MONOMIALS[1]]
    return m


def _quartic(W: np.ndarray, m: np.ndarray):
    """F(z / |z|) of _state_forms for the monomials m = _monomials(U) of every column of U.

    F(z) = ||W^T m(z)||^2 is homogeneous of degree 4, so F(z) / |z|^4 is
    the fidelity of the state z / |z|, and no normalized copy of z is
    formed; |z|^2 is the sum of the 8 squares.  Returns F, of shape (S,).
    """
    out = W.T @ m
    nrm2 = m[:8].sum(axis=0)
    return (out * out).sum(axis=0) / (nrm2 * nrm2)


# A complex projective 2-design on two qubits: the 20 states of the five
# mutually unbiased bases.  They are the joint eigenbases of the commuting
# Pauli pairs {ZI, IZ}, the computational basis, then {XI, IX}, {YI, IY},
# {XY, YZ} and {XZ, YX}, whose states are (i^a, i^b, i^c, i^d) / 2 for the
# exponents (a, b, c, d) below, one row per state, four per basis.  States
# of different bases overlap by |<a|b>|^2 = 1/4, and the mean over the 20
# of any polynomial of degree (2, 2) in z and conj(z) is its Haar average.
# Written out, the states are exact, and importing the module calls no
# LAPACK routine: finding them by eigh at import raised the peak RSS of
# benchmark runs that never read them by 1.3 MB.
_MUB_EXPONENTS = np.array(
    [
        [0, 0, 0, 0], [0, 2, 0, 2], [0, 0, 2, 2], [0, 2, 2, 0],
        [0, 1, 1, 2], [0, 3, 1, 0], [0, 1, 3, 0], [0, 3, 3, 2],
        [0, 2, 1, 1], [0, 0, 3, 1], [0, 0, 1, 3], [0, 2, 3, 3],
        [0, 3, 0, 1], [0, 1, 0, 3], [0, 1, 2, 1], [0, 3, 2, 3],
    ]
)
# One state per column, shape (4, 20)
_DESIGN_STATES = np.hstack([np.eye(4), np.array([1.0, 1j, -1.0, -1j])[_MUB_EXPONENTS].T / 2.0])
# Their monomials, shape (32, 20), for _quartic
_DESIGN_MONOMIALS = _monomials(np.vstack([_DESIGN_STATES.real, _DESIGN_STATES.imag]))


def _design_average(
    spec: ChainSpec, t: float, sd: SpectralData, receiver_order: str = "12"
) -> float:
    """The mean state fidelity at time t over the 20 states of _DESIGN_STATES.

    The state fidelity has degree (2, 2) in z and conj(z), so this mean is
    the Haar average exactly, with no sampling error: it reaches
    average_fidelity_exact's value through _state_forms and _quartic, the
    kernel of haar_average_mc, to rounding.
    """
    W = _state_forms(*_channel_data(spec, t, sd, receiver_order))
    return float(_quartic(W, _DESIGN_MONOMIALS).mean())


# Samples per _quartic call when a Haar sample is evaluated.  The
# temporaries of a 2048-sample block peak at 1.1 MB, inside the 2 MB L2
# share of one core of a 2-core x86 VM.  There, on one core, the kernel took
# 10-11 ms over 10^5 samples in blocks of 1024 or 2048, 14 ms with 4096 and
# 47 ms with 8192, and haar_average_mc at N = 46 took 34 ms with 1024 or
# 2048 and 36 ms with 3072, about half of it drawing the normals.
_MC_BLOCK = 2048
# Times per pass over a Haar sample.  Their fidelities take 8 bytes per
# sample each, so those of _MC_TIMES times hold as many bytes as the draws.
_MC_TIMES = 8


def _fidelities_in_blocks(forms, V: np.ndarray) -> np.ndarray:
    """F(z / |z|) under each W of forms for the rows z = V[0] + i V[1], in blocks of _MC_BLOCK.

    Each block's monomials are formed once for all the forms.  Returns
    shape (len(forms), samples).
    """
    out = np.empty((len(forms), V.shape[1]))
    for i in range(0, V.shape[1], _MC_BLOCK):
        m = _monomials(V[:, i : i + _MC_BLOCK].transpose(0, 2, 1).reshape(8, -1))
        for F, W in zip(out, forms):
            F[i : i + _MC_BLOCK] = _quartic(W, m)
        # freed before the next block's monomials are formed
        del m
    return out


def haar_average_mc(
    spec: ChainSpec,
    t: float | np.ndarray,
    samples: int,
    seed: int,
    sd: SpectralData | None = None,
    receiver_order: str = "12",
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo Haar average of the state fidelity at a time or a 1-D array of times.

    Draws Haar-random two-qubit pure states as normalized 4-vectors of
    standard complex Gaussians and averages the transfer fidelity; returns
    (mean, standard error), floats for a scalar t and arrays of one entry
    per time for an array.  Deterministic for a fixed seed.  All times
    share one sample, the one a call at any single time draws with that
    seed, so each time's pair is that call's.  The normals are drawn once,
    after the times and samples are checked, and evaluated for _MC_TIMES
    times per pass, each block's monomials formed once per pass; memory
    holds the draws and one pass's fidelities, whatever the number of times.
    """
    times = np.asarray(t, dtype=float)
    if times.ndim > 1 or times.size == 0:
        raise ValueError(f"need a time or a nonempty 1-D array of times, got shape {times.shape}")
    _check_times(times)
    try:
        samples = operator.index(samples)
    except TypeError:
        raise ValueError(f"samples must be an integer, got {samples!r}") from None
    if samples < 100:
        raise ValueError(f"need at least 100 samples, got {samples}")
    if sd is None:
        sd = diagonalize(build_single_particle(spec))
    forms = [_state_forms(*_channel_data(spec, s, sd, receiver_order)) for s in times.ravel()]
    # the real, then the imaginary parts of the Gaussian vectors: the numbers
    # of two (samples, 4) draws in that order; _quartic normalizes
    V = np.random.default_rng(seed).standard_normal((2, samples, 4))
    mean, stderr = [], []
    for j in range(0, len(forms), _MC_TIMES):
        F = _fidelities_in_blocks(forms[j : j + _MC_TIMES], V)
        mean += [float(f.mean()) for f in F]
        stderr += [float(f.std(ddof=1) / np.sqrt(samples)) for f in F]
        # freed before the next group's fidelities are allocated
        del F
    if times.ndim == 0:
        return mean[0], stderr[0]
    return np.array(mean), np.array(stderr)


def _state_quadrics(W: np.ndarray) -> np.ndarray:
    """The 12 forms of _state_forms' W as symmetric 8 x 8 matrices, shape (12, 8, 8).

    Column c of W gives the form o_c = W[:, c] . m(u) = u^T Q_c u: a
    square's coefficient sits on the diagonal of Q_c, and half of a
    product's at both of its index pairs.
    """
    S = np.zeros((8, 8, W.shape[1]))
    S[_MONOMIALS] = W
    return (S + S.transpose(1, 0, 2)).transpose(2, 0, 1) / 2.0


def _sphere_objective(U: np.ndarray, Q: np.ndarray):
    """F(u) = sum_c (u^T Q_c u)^2, its gradient and its Hessian at every row u of U.

    Q is _state_quadrics' stack, so F(u) is the state fidelity of z = u[:4]
    + i u[4:] for a unit u.  With o_c = u^T Q_c u, grad F = 4 sum_c o_c Q_c
    u and the Hessian is 8 sum_c (Q_c u)(Q_c u)^T + 4 sum_c o_c Q_c.
    Returns (F, gradient, Hessian) of shapes (S,), (S, 8) and (S, 8, 8).
    """
    Qu = U @ Q
    o = (Qu * U).sum(axis=2)
    grad = 4.0 * np.einsum("cs,csi->si", o, Qu)
    hess = 8.0 * np.einsum("csi,csj->sij", Qu, Qu) + 4.0 * np.tensordot(o.T, Q, 1)
    return (o * o).sum(axis=0), grad, hess


# The Newton search on the sphere floors each |eigenvalue| of the tangent
# Hessian at this share of the largest, 2^12 times the rounding of eigh, so
# a zero or rounding-sized eigenvalue (the number-phase direction at a
# minimum, a flat valley) cannot blow up the step.  Over the 10740 starts of
# 600 seeded chains (N = 6-39, h < 80, t < 300, 17 starts each) and of the
# tests' worst cases, floors of 2^-40 and 2^-44 converged on every start;
# 2^-36 left 1 unconverged, 2^-52 left 3 and 2^-26, stalled in linear
# convergence, 71.
_NEWTON_FLOOR = 2.0**-40
# Newton steps per start before it counts as not converged.  The slowest of
# those starts took 91, in a shallow valley; those of the benchmark's
# worst-case input take at most 9.
_NEWTON_ITERATIONS = 200


def _newton_on_sphere(W: np.ndarray, U: np.ndarray):
    """A local minimum of the state fidelity of _state_forms' W from every unit row of U.

    A Riemannian Newton iteration on the unit sphere of the 8 real
    coordinates, all starts in one batch, on the exact value, gradient and
    Hessian of _sphere_objective.  The step solves the tangent Hessian P
    (H - 4 F I) P, with u^T grad F = 4 F on the sphere, for the projected
    gradient, each |eigenvalue| floored at _NEWTON_FLOOR times the largest,
    so a saddle's negative curvature turns into descent.  P projects out u,
    the sphere's normal, and i z, the global phase, along which F does not
    change; the other symmetry, the phase exp(i phi n) of the excitation
    number n (the channel conserves it), leaves a null direction at a
    minimum, which the floor takes.  The step is cut to length 1 and
    halved until it lowers F by Armijo's rule along the normalized
    retraction (u + a step) / |u + a step|, at most 52 times, past which
    the trial point is u to rounding.  A start stops once the predicted
    decrease -grad . step / 2 is below one ulp of 1: F is a probability
    computed to absolute precision, and at a minimum near F = 0 an ulp of
    F is never reached.  Returns (U, F, converged), U updated in place: a
    start that hit _NEWTON_ITERATIONS, or whose line search found no lower
    point, has not converged.
    """
    Q = _state_quadrics(W)
    F, grad, hess = _sphere_objective(U, Q)
    converged = np.zeros(len(U), dtype=bool)
    # the starts still iterating: neither converged nor stopped by a failed
    # line search
    a = np.arange(len(U))
    eye = np.eye(8)
    for _ in range(_NEWTON_ITERATIONS):
        u = U[a]
        iz = np.concatenate([-u[:, 4:], u[:, :4]], axis=1)
        P = eye - u[:, :, None] * u[:, None, :] - iz[:, :, None] * iz[:, None, :]
        g = (P @ grad[a, :, None])[..., 0]
        lam, V = np.linalg.eigh(P @ (hess[a] - 4.0 * F[a, None, None] * eye) @ P)
        floor = _NEWTON_FLOOR * np.abs(lam).max(axis=1, keepdims=True)
        coef = (g[:, None, :] @ V)[:, 0] / np.maximum(np.abs(lam), floor + np.finfo(float).tiny)
        step = -(P @ (V @ coef[..., None]))[..., 0]
        slope = (g * step).sum(axis=1)
        stop = -0.5 * slope < np.spacing(1.0)
        converged[a[stop]] = True
        a, step, slope = a[~stop], step[~stop], slope[~stop]
        if not len(a):
            break
        alpha = 1.0 / np.maximum(1.0, np.linalg.norm(step, axis=1))
        pending = np.ones(len(a), dtype=bool)
        for _ in range(52):
            i = pending.nonzero()[0]
            if not len(i):
                break
            trial = U[a[i]] + alpha[i, None] * step[i]
            trial /= np.linalg.norm(trial, axis=1, keepdims=True)
            F_t, grad_t, hess_t = _sphere_objective(trial, Q)
            ok = F_t < F[a[i]] + 1e-4 * alpha[i] * slope[i]
            j = a[i[ok]]
            U[j], F[j], grad[j], hess[j] = trial[ok], F_t[ok], grad_t[ok], hess_t[ok]
            pending[i[ok]] = False
            alpha[i[~ok]] *= 0.5
        a = a[~pending]
    return U, F, converged


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

    Riemannian Newton search (_newton_on_sphere) over the unit sphere of the
    8 real state coordinates, driven by the exact value, gradient and
    Hessian of the quartic form of _state_forms.  The search runs, in one
    batch, from the worst of a 10^4-point Haar sample and from `restarts`
    seeded Gaussian starts, so the result is certified to sit at or below
    that empirical minimum.  When it does not, or when a start that stopped
    without converging ended within 1e-12 of the best value and that value
    sits above the sample's minimum, a WorstCaseBudgetWarning (a
    RuntimeWarning) says the search exceeded its budget, and the lower of
    the two minima is returned with its state.  restarts must be a
    non-negative integer; it is checked before anything is drawn.
    Returns (worst state, minimal fidelity); the state's fidelity is the
    returned value.
    """
    try:
        restarts = operator.index(restarts)
    except TypeError:
        raise ValueError(f"restarts must be an integer, got {restarts!r}") from None
    if restarts < 0:
        raise ValueError(f"restarts must be >= 0, got {restarts}")
    forms = _state_forms(*_channel_data(spec, t, sd, receiver_order))
    rng = np.random.default_rng(seed)

    # certification sample: the optimum must not sit above the empirical min
    V = rng.standard_normal((2, 10000, 4))
    Fs = _fidelities_in_blocks([forms], V)[0]
    k = int(np.argmin(Fs))
    z_k = V[0, k] + 1j * V[1, k]
    starts = np.vstack([V[:, k].ravel(), rng.normal(size=(restarts, 8))])
    U, F, converged = _newton_on_sphere(
        forms, starts / np.linalg.norm(starts, axis=1, keepdims=True)
    )
    best = int(np.argmin(F))
    best_val = float(F[best])
    best_z = U[best, :4] + 1j * U[best, 4:]
    exhausted = bool(np.any(~converged & (F <= best_val + 1e-12)))
    if best_val > float(Fs[k]) + 1e-12 or (exhausted and best_val > float(Fs[k])):
        warnings.warn(
            "worst-case search exceeded its budget; returning best value found",
            WorstCaseBudgetWarning,
        )
        if Fs[k] < best_val:
            best_val, best_z = float(Fs[k]), z_k
    return TwoQubitState.from_vector(best_z), float(best_val)
