"""Degenerate perturbation theory for the edge-localized quadruplet.

At strong barrier field the four edge sites hybridize through the barriers
into a quadruplet of nearly degenerate eigenstate pairs.  First-order
theory reduces the edge block to a cubic secular equation; the resulting
localized levels acquire a correction from virtual excursions into the
interior channel, evaluated here as an explicit sum over channel momenta.
The level splittings define the slow Rabi frequencies that set the
transfer time, with the closed-form estimate t1 ~ (pi/2) h^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PerturbativeSpectrum:
    """Cubic-root data and perturbative quadruplet energies.

    roots are the descending real solutions of x^3 + h x^2 - 2 x - h = 0;
    betas/alphas/gammas the derived edge-block eigenvector parameters for
    the two localized roots; lambdas the four quadruplet energies keyed
    'lambda1_minus', 'lambda1_plus', 'lambda2_minus', 'lambda2_plus';
    eps_q the quadruplet in the (q1, q2, q3, q4) listing convention.
    """

    h: float
    roots: tuple[float, float, float]
    betas: tuple[float, float]
    alphas: tuple[float, float]
    gammas: tuple[float, float]
    lambdas: dict[str, float]
    eps_q: tuple[float, float, float, float]


@dataclass(frozen=True)
class RabiFrequencies:
    """Sum/difference frequency combinations of the quadruplet.

    Built from the mirror-pair frequencies omega_ij^{+/-} = (eps_i +/- eps_j)/2
    of the (1,4) and (2,3) pairings, which are not kept.  omega0
    combinations set the fast oscillation, omega1 the slow envelope whose
    quarter period is the transfer time; for h >> 1 the strict hierarchy
    omega0_minus > omega0_plus > omega1_minus > omega1_plus holds.
    """

    omega0_plus: float
    omega0_minus: float
    omega1_plus: float
    omega1_minus: float

    @property
    def envelope_time(self) -> float:
        """The slow envelope's quarter period pi/(2 omega1_minus), the transfer time.

        Raises ArithmeticError when omega1_minus <= 0, a degenerate
        quadruplet (at h = 1e200 it rounds to zero).
        """
        if self.omega1_minus <= 0:
            raise ArithmeticError("degenerate quadruplet: slow envelope frequency is zero")
        return np.pi / (2.0 * self.omega1_minus)


def cubic_roots(h: float) -> tuple[float, float, float]:
    """Descending real roots of the secular cubic x^3 + h x^2 - 2 x - h = 0.

    Companion-matrix roots polished by a few Newton steps; for h >= 0 all
    three roots are real (h = 0 gives sqrt(2), 0, -sqrt(2)).  Residuals are
    certified by the caller-visible polynomial value.
    """
    if h < 0:
        raise ValueError(f"h must be >= 0, got {h}")
    coeffs = [1.0, h, -2.0, -h]
    roots = np.roots(coeffs)
    if np.max(np.abs(roots.imag)) > 1e-6 * max(1.0, h):
        raise ArithmeticError(f"secular cubic produced complex roots at h={h}")
    xs = np.sort(roots.real)[::-1]
    # Newton polish
    for _ in range(3):
        p = ((xs + h) * xs - 2.0) * xs - h
        dp = (3.0 * xs + 2.0 * h) * xs - 2.0
        step = np.where(np.abs(dp) > 0, p / np.where(dp == 0, 1.0, dp), 0.0)
        xs = xs - step
    xs = np.sort(xs)[::-1]
    return (float(xs[0]), float(xs[1]), float(xs[2]))


def perturbative_energies(N: int, h: float) -> PerturbativeSpectrum:
    """First-order quadruplet energies for a chain of length N, field h.

    For each localized cubic root x_i (i = 1, 2) the edge-block parameters
    are beta_i = h + x_i, alpha_i = x_i^2 + h x_i - 1 and the normalization
    gamma_i = (2 (alpha_i^2 + beta_i^2 + 1))^{-1/2}.  Coupling to the
    interior channel (length N - 5 in reduced units) splits each level
    into a parity doublet

        lambda_i^{+/-} = -2 ( x_i + gamma_i^2/(N-5) *
            sum_{k=1}^{N-6} ((1 +/- cos k pi) sin(k pi/(N-5)))^2
                           / (x_i + 2 cos(k pi/(N-5))) ).

    Valid in the Rabi regime (N != 3n - 1), where no channel momentum is
    resonant with the localized levels.  Raises ArithmeticError where a
    denominator x_i + 2 cos(k pi/(N-5)) is at roundoff size, within 16 eps
    (|x_i| + 2) of zero (at h = 0, x_2 = 0 meets k = (N-5)/2), since the
    sum is then roundoff divided by roundoff.  A finite near-resonance is
    summed as it is.
    """
    if N < 7:
        raise ValueError(f"N must be >= 7, got {N}")
    x1, x2, x3 = cubic_roots(h)
    L = N - 5
    k = np.arange(1, N - 5)
    num = ((1.0 + np.cos(k * np.pi)) * np.sin(k * np.pi / L)) ** 2
    num_minus = ((1.0 - np.cos(k * np.pi)) * np.sin(k * np.pi / L)) ** 2
    cosk = 2.0 * np.cos(k * np.pi / L)

    lambdas = {}
    betas, alphas, gammas = [], [], []
    for i, x in enumerate((x1, x2), start=1):
        denom = x + cosk
        j = int(np.argmin(np.abs(denom)))
        if abs(denom[j]) <= 16.0 * np.finfo(float).eps * (abs(x) + 2.0):
            raise ArithmeticError(
                f"channel momentum k = {j + 1} is resonant with cubic root x{i} = {x:.6g}: "
                f"x{i} + 2 cos(k pi/{L}) = {denom[j]:.2g} is roundoff"
            )
        beta = h + x
        alpha = x * x + h * x - 1.0
        gamma2 = 1.0 / (2.0 * (alpha * alpha + beta * beta + 1.0))
        betas.append(beta)
        alphas.append(alpha)
        gammas.append(float(np.sqrt(gamma2)))
        for sign, numer in (("plus", num), ("minus", num_minus)):
            corr = gamma2 / L * np.sum(numer / denom)
            lambdas[f"lambda{i}_{sign}"] = float(-2.0 * (x + corr))

    eps_q = (
        lambdas["lambda1_minus"],
        lambdas["lambda1_plus"],
        lambdas["lambda2_plus"],
        lambdas["lambda2_minus"],
    )
    return PerturbativeSpectrum(
        h=float(h),
        roots=(x1, x2, x3),
        betas=(betas[0], betas[1]),
        alphas=(alphas[0], alphas[1]),
        gammas=(gammas[0], gammas[1]),
        lambdas=lambdas,
        eps_q=eps_q,
    )


def rabi_frequencies(eps_q) -> RabiFrequencies:
    """Frequency combinations of the four quadruplet energies.

    With omega_ij^{+/-} = (eps_i +/- eps_j)/2 for the (1,4) and (2,3)
    pairings, the derived frequencies are omega0^{+/-} =
    |(omega14 + omega23)/2| and omega1^{+/-} = |(omega14 - omega23)/2|;
    omega1_minus sets the slow transfer envelope.
    """
    e1, e2, e3, e4 = (float(e) for e in eps_q)
    w14p, w14m = (e1 + e4) / 2.0, (e1 - e4) / 2.0
    w23p, w23m = (e2 + e3) / 2.0, (e2 - e3) / 2.0
    return RabiFrequencies(
        omega0_plus=abs((w14p + w23p) / 2.0),
        omega0_minus=abs((w14m + w23m) / 2.0),
        omega1_plus=abs((w14p - w23p) / 2.0),
        omega1_minus=abs((w14m - w23m) / 2.0),
    )


def transfer_time_estimate(N: int, h: float) -> float:
    """Closed-form Rabi-regime transfer time estimate.

    t1 = (pi/2) h^2 + (-1)^{N mod 3} (N mod 2) (pi/2) h: quadratic in the
    barrier field with an odd-N linear correction.  Only meaningful for
    N != 3n - 1; quasi-Rabi chains follow a linear law instead.  nan where
    t1 is not a positive time: at h = 0, at h <= 1 for odd N with N mod 3 =
    1 (N = 7, h = 0.5 gives -0.39) and where h^2 underflows.
    """
    if h < 0:
        raise ValueError(f"h must be >= 0, got {h}")
    if N % 3 == 2:
        raise ValueError(
            f"N = {N} is quasi-Rabi (N = 3n - 1); the quadratic estimate does not apply"
        )
    t1 = float(
        (np.pi / 2.0) * h * h + ((-1.0) ** (N % 3)) * (N % 2) * (np.pi / 2.0) * h
    )
    return t1 if t1 > 0.0 else float("nan")
