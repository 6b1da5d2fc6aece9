"""Optimal readout times, the truncated mirror amplitude and scans.

The mirror transfer amplitude is carried by the few eigenmodes that hold
the edge weight, spectral.edge_modes; re_f_truncated sums over them.  In
the Rabi regime (N != 3n - 1) they are the localized quadruplet: a fast
oscillation at omega0_minus ~ 2J modulated by the slow envelope
sin(omega1_minus t), so the readout time sits near the envelope's first
quarter period t1 = pi/(2 omega1_minus) ~ (pi/2) h^2.  At N = 3n - 1
(quasi-Rabi) two extended states join in and the optimum instead tracks a
beat between two nearly equal slow frequencies, scaling linearly in h and
N.  The search below takes its window from the regime, around the Rabi
levels' analytic candidate or [0, N max(h, 1)] at N = 3n - 1, scans the
exact average fidelity over it and refines the best point by Newton's
method on the exact first and second time derivatives of Fbar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .chain import ChainSpec, _barrier_chain, build_single_particle
from .fidelity import (
    _evaluator_weights,
    _fidelity_at,
    _fidelity_bound,
    average_fidelity_approx,
    edge_products,
)
from .perturbation import RabiFrequencies, rabi_frequencies, transfer_time_estimate
from .spectral import SpectralData, classify_chain, diagonalize, edge_modes


# The grid scan's work, as _scan returns it and TransferTimeResult records it
_SEARCH_WORK = (
    "modes_kept", "screen_terms", "truncation_bound", "grid_points", "grid_points_exact"
)

_NAN = float("nan")


@dataclass(frozen=True)
class TransferTimeResult:
    """The optimal readout time of one chain, with its fidelities and search work.

    The row of `xxchain transfer-time` and one point of scan; unpacks as
    (t_star, fidelity).  fidelity and F_approx come from the same edge
    amplitudes at t*; t1_estimate is the closed-form Rabi estimate, nan for
    a quasi-Rabi chain or where it is not a positive time.
    candidate/candidate_fidelity record the regime's analytic candidate
    (the scan's best point where it has none) before refinement;
    search_window the time interval actually scanned, (0, N max(h, 1))
    on a quasi-Rabi chain.
    The grid scan's work: grid_points in the window, modes_kept by its
    screen (fidelity._fidelity_bound) and screen_terms, the terms its sum
    evaluates, with the truncation_bound D on the coherent amplitude, and
    grid_points_exact, the points evaluated on all modes.  A failed scan
    point keeps the defaults and states its error.
    """

    N: int
    h: float
    regime: str
    t_star: float = _NAN
    fidelity: float = _NAN
    F_approx: float = _NAN
    t1_estimate: float = _NAN
    search_window: tuple[float, float] = (_NAN, _NAN)
    error: str = ""
    candidate: float = _NAN
    candidate_fidelity: float = _NAN
    modes_kept: int = 0
    screen_terms: int = 0
    truncation_bound: float = _NAN
    grid_points: int = 0
    grid_points_exact: int = 0

    def __iter__(self):
        return iter((self.t_star, self.fidelity))


def re_f_truncated(t, spec: ChainSpec, sd: SpectralData | None = None):
    """Truncated mirror amplitude Re[f_{s1}^{r1}](t) on the edge modes.

    Re sum_k a_{k,s1} a_{k,r1} exp(-i eps_k t) over spectral.edge_modes:
    the paper's four-state truncation in the Rabi regime (error O(1/h))
    and its six-state truncation at N = 3n - 1.
    """
    if sd is None:
        sd = diagonalize(build_single_particle(spec))
    idx = edge_modes(spec.N)
    products = edge_products(spec, sd)[idx, 0]
    t = np.asarray(t, dtype=float)
    out = np.cos(np.multiply.outer(t, sd.eigenvalues[idx])) @ products
    return float(out) if out.ndim == 0 else out


def _scan(sd: SpectralData, weights: np.ndarray, lo: float, hi: float, step: float):
    """Best point of the exact fidelity on np.arange(lo, hi + step, step).

    The grid is not materialized: its times are lo + j * ((lo + step) - lo),
    the spacing np.arange realizes, so t* stays bit for bit where a grid of
    np.arange times puts it.  Only the points whose certified upper bound
    (_fidelity_bound) reaches L, the exact fidelity at the bound's argmax,
    are evaluated on all modes, by _fidelity_at.  No other point can beat
    L, so the first of their maxima is the first maximum of _fidelity_at
    over the whole grid, up to the ulp by which _fidelity_at's value at a
    time moves with the batch of times it is evaluated in: points that close
    may trade places.  weights comes from fidelity._evaluator_weights; its
    first four columns are the edge products the screen reads.  Returns
    (time, row, work): row is the winner's (Fbar, Fbar', Fbar'', f) from
    the batch it was ranked in, the start _refine takes, and work is keyed
    by _SEARCH_WORK.
    """
    n = int(np.ceil((hi + step - lo) / step))
    step = (lo + step) - lo
    eps = sd.eigenvalues
    screen = _fidelity_bound(eps, weights[:, :4].real, lo, step, n)
    L = _fidelity_at(eps, weights, lo + int(np.argmax(screen.modulus)) * step)[0]
    idx = screen.reaching(L)
    F, d1, d2, f = _fidelity_at(eps, weights, lo + idx * step)
    j = int(np.argmax(F))
    work = (screen.modes_kept, screen.screen_terms, screen.truncation_bound, n, len(idx))
    row = float(F[j]), float(d1[j]), float(d2[j]), f[j]
    return lo + int(idx[j]) * step, row, dict(zip(_SEARCH_WORK, work))


def _refine(
    sd: SpectralData, weights: np.ndarray, t0: float, row: tuple, halfwidth: float
) -> tuple[float, float, np.ndarray]:
    """Maximizer of the exact fidelity on [max(0, t0 - halfwidth), t0 + halfwidth].

    row is (Fbar, Fbar', Fbar'', f) at t0, as fidelity._fidelity_at gives
    it and _scan hands it over; t0 is not evaluated again.  A safeguarded
    Newton iteration on Fbar' over the offset s = t - t0 in
    [max(-t0, -halfwidth), halfwidth], with Fbar' and Fbar'' exact from
    _fidelity_at.  The sign of Fbar' at each point shrinks the bracket; the
    next point is the Newton step s - Fbar'/Fbar'' where Fbar'' < 0 and the
    step stays inside the bracket, and the bracket's midpoint otherwise.  It
    stops once the Newton step's predicted gain -Fbar'^2/(2 Fbar'') is below
    one ulp of Fbar, or once the next point would not move t inside the
    bracket, and returns the best point as (t, Fbar(t), amplitudes at t):
    t0 and row's unless another is above row's Fbar.  From the scan's best
    grid point it lands on the stationary point in one or two more
    evaluations; a peak at a bracket end is reached by bisection.
    """
    lo, hi = max(-t0, -halfwidth), halfwidth
    s = 0.0
    F, d1, d2, f = row
    best = float(t0), F, f
    while True:
        # the Newton step, or an infinite step uphill where Fbar is not concave
        step = -d1 / d2 if d2 < 0.0 else math.copysign(math.inf, d1)
        if 0.5 * d1 * step < np.spacing(F):
            break  # the step would raise Fbar by less than one ulp
        if d1 > 0.0:
            lo = s
        else:
            hi = s
        s = s + step if lo < s + step < hi else 0.5 * (lo + hi)
        if not t0 + lo < t0 + s < t0 + hi:
            break
        F, d1, d2, f = _fidelity_at(sd.eigenvalues, weights, t0 + s)
        if F > best[1]:
            best = float(t0 + s), F, f
    return best


def _nearest_branch(omega: float, target_phase: float, t_ref: float) -> float:
    """Time nearest t_ref with omega * t = target_phase (mod 2 pi)."""
    k = np.round((omega * t_ref - target_phase) / (2.0 * np.pi))
    return float((target_phase + 2.0 * np.pi * k) / omega)


def _rabi_window(N: int, freqs: RabiFrequencies) -> tuple[float, float, float]:
    """Two fast periods either side of the analytic candidate."""
    w0p, w0m = freqs.omega0_plus, freqs.omega0_minus
    t1 = freqs.envelope_time

    if N % 2 == 0:
        # align the slow cosine factor at an extremum first, then pick the
        # nearest fast-sine extremum of matching sign
        if w0p >= np.pi / (50.0 * t1):
            t_slow = max(1, round(w0p * t1 / np.pi)) * np.pi / w0p
        else:
            t_slow = t1
        c = 1.0 if np.cos(w0p * t_slow) >= 0 else -1.0
        sgn = 1.0 if (N % 3) % 2 == 1 else -1.0
        cand = _nearest_branch(w0m, sgn * c * np.pi / 2.0, t_slow)
    else:
        s2v = (-1.0) ** (N % 3)
        t2 = _nearest_branch(w0p, s2v * np.pi / 2.0, t1)
        cand = _nearest_branch(w0m, 0.0, t2)

    span = 2.0 * (2.0 * np.pi / w0m)
    return max(0.0, cand - span), cand + span, cand


def _check_barrier_chain(spec: ChainSpec, parts=("couplings", "fields")) -> None:
    """Raise ValueError unless each of parts, by default the spec's couplings
    and fields, is the barrier chain's: J = 1 on every bond, h on the barrier
    sites and 0 elsewhere.

    The t* search reads its window and step from that chain's levels; on
    another chain, such as one with weak end bonds, its window can miss the
    transfer altogether and its answer would look valid.
    """
    barrier = _barrier_chain(spec.N, spec.h, spec.barriers)
    for part, value in zip(("couplings", "fields"), barrier):
        if part in parts and getattr(spec, part) != value:
            raise ValueError(
                f"the t* search needs the barrier chain's {part}, not custom {part}"
            )


def find_transfer_time(
    spec: ChainSpec, sd: SpectralData | None = None
) -> TransferTimeResult:
    """Locate the optimal readout time t* and the fidelity there.

    The regime sets the window (lo, hi) and its analytic candidate:
    two fast periods either side of the time where the fast and slow
    factors of the four-state amplitude align (Rabi), or [0, N max(h, 1)]
    with the scan's best point as candidate (quasi-Rabi): N h is the
    horizon of the linear time law, and below h = 1 the window keeps the
    length N, twice the free chain's transit time N/2, so at small h
    (and at h = 0) it still holds the first arrival at the far end.
    The step pi/(20 omega0-) does not alias the fastest frequency.  One
    tail then grid-scans the exact average fidelity over the window and
    refines the best point within one step either side by _refine, a
    safeguarded Newton iteration on the exact Fbar' and Fbar'' that starts
    from the scan's own value at that point.

    The scan picks the grid point where fidelity._fidelity_at is largest,
    without evaluating every point on all modes: fidelity._fidelity_bound
    screens every point in single precision on the few modes that carry the
    edge weight, summed over their single and pair levels, with a certified
    bound on the rest and on its rounding, and only the points that bound
    cannot rule out are evaluated on all modes.  On the 25 quasi-Rabi
    windows of the benchmark menu (2.2M points, 6 modes and 16 terms kept)
    the screen costs 7-11 ns per point (medians of 15 passes) on one core
    of a 2-core x86 VM, against about 3 us for _fidelity_at at every
    point.  The evaluator's weights are built once per search.  The result
    is the chain's whole transfer-time row: it unpacks as (t*, Fbar(t*)),
    adds F_approx and t1 and records the candidate and the scan's work.

    In both regimes omega0- is taken from the outer four of the edge_modes
    levels, the lowest two and the highest two.  For a Rabi chain they are
    the quadruplet.  For a quasi-Rabi chain the highest is the extended
    state at +2, not a level of the quadruplet of localized_indices; a step
    from the quadruplet moves t* on most quasi-Rabi chains.

    A degenerate level set is refused in both regimes by one rule,
    RabiFrequencies.envelope_time (an ArithmeticError), and a screen too
    large to hold by fidelity._fidelity_bound's memory guard, as at N = 29,
    h = 1e12, where the window holds 3.7e14 grid points.  The search is
    defined on the barrier chain only: custom couplings or fields are a
    ValueError (_check_barrier_chain).
    """
    _check_barrier_chain(spec)
    if sd is None:
        sd = diagonalize(build_single_particle(spec))
    regime = classify_chain(spec.N)
    levels = sd.eigenvalues[edge_modes(spec.N)]
    freqs = rabi_frequencies(levels[[0, 1, -2, -1]])
    # one rule refuses a degenerate level set in both regimes, before the
    # step divides by omega0-, which is 0 too at h = 1e200
    freqs.envelope_time
    step = np.pi / (20.0 * freqs.omega0_minus)
    if regime == "quasi-rabi":
        lo, hi, cand = 0.0, spec.N * max(spec.h, 1.0), None
    else:
        lo, hi, cand = _rabi_window(spec.N, freqs)
    weights = _evaluator_weights(sd.eigenvalues, edge_products(spec, sd))
    t_best, row, work = _scan(sd, weights, lo, hi, step)
    t_star, F, (f11, f12, f21, _) = _refine(sd, weights, t_best, row, step)
    if cand is None:
        cand, F_cand = t_best, row[0]
    else:
        F_cand = _fidelity_at(sd.eigenvalues, weights, cand)[0]
    return TransferTimeResult(
        N=spec.N,
        h=spec.h,
        regime=regime,
        t_star=t_star,
        fidelity=F,
        F_approx=average_fidelity_approx(f11, f12, f21),
        t1_estimate=transfer_time_estimate(spec.N, spec.h) if regime == "rabi" else _NAN,
        search_window=(float(lo), float(hi)),
        candidate=float(cand),
        candidate_fidelity=F_cand,
        **work,
    )


def scan(base: ChainSpec, axis: str, values) -> list[TransferTimeResult]:
    """find_transfer_time of base at each h or N of values.

    Along h the chain keeps its couplings and its sender, receiver and
    barrier sites, and the barrier fields follow h; custom fields are
    rejected, since h would not reach them.  Along N only the default
    geometry is defined, so any other is rejected.  Points are computed
    independently in input order; a failing point, such as every point of
    a chain with custom couplings, which find_transfer_time refuses, is
    recorded with NaNs and its error message instead of aborting the scan.
    """
    if axis not in ("h", "N"):
        raise ValueError(f"axis must be 'h' or 'N', got {axis!r}")
    values = list(values)
    if not values:
        raise ValueError("values must be nonempty")
    if axis == "h":
        _check_barrier_chain(base, ("fields",))
    if axis == "N" and base != ChainSpec(N=base.N, h=base.h):
        raise ValueError("a scan over N needs the default chain geometry")
    records = []
    for v in values:
        N = base.N if axis == "h" else int(v)
        h = float(v) if axis == "h" else base.h
        try:
            spec = replace(base, h=h, fields=None) if axis == "h" else ChainSpec(N=N, h=h)
            records.append(find_transfer_time(spec))
        except Exception as exc:  # record the failure, keep scanning
            regime = classify_chain(N) if N >= 6 else "invalid"
            records.append(TransferTimeResult(N=N, h=h, regime=regime, error=str(exc)))
    return records
