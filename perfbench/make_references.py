"""Regenerate references.json: the brute-force optimum of Fbar for every
spec of the rabi_sweep and quasi_rabi_sweep menus.

    python3 perfbench/make_references.py

Independent of xxchain: the chain is diagonalized here with scipy's
tridiagonal eigensolver, Fbar(t) = (4 + |1 + f11 + f22 + g|^2) / 20 is
evaluated on a uniform grid over [0, reference_window(N, h)], and the best
grid maxima are refined with a bounded scalar search.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import scipy
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import minimize_scalar

from menus import QUASI_MENU, RABI_MENU, reference_window

OUT = Path(__file__).resolve().parent / "references.json"

# Band modes have |eps| <= 4 (hopping -2J with J = 1), so the search's own
# step pi / (20 omega0-) is never finer than pi / 80; pi / 160 is at least
# twice as fine and samples the fastest band pair frequency, 8, forty times
# a period.
STEP = math.pi / 160.0
BLOCK = 4096
CANDIDATES = 8


def edge_modes(N: int, h: float):
    """Eigenvalues and the four sender-receiver products c_k = a_ks a_kr."""
    d = np.zeros(N)
    d[2] = d[N - 3] = 2.0 * h
    w, v = eigh_tridiagonal(d, np.full(N - 1, -2.0))
    s1, s2, r1, r2 = 0, 1, N - 2, N - 1
    c = np.stack([v[s1] * v[r1], v[s1] * v[r2], v[s2] * v[r1], v[s2] * v[r2]])
    return w, c


def fbar(w: np.ndarray, c: np.ndarray, ts: np.ndarray) -> np.ndarray:
    f11, f12, f21, f22 = (np.exp(-1j * np.outer(ts, w)) @ c.T).T
    g = f11 * f22 - f12 * f21
    return (4.0 + np.abs(1.0 + f11 + f22 + g) ** 2) / 20.0


def reference(N: int, h: float) -> dict:
    w, c = edge_modes(N, h)
    t_end = reference_window(N, h)
    n_points = int(math.ceil(t_end / STEP)) + 1
    best = []  # (F, t) of the best grid local maxima seen so far
    prev = None
    for lo in range(0, n_points, BLOCK):
        idx = np.arange(lo, min(lo + BLOCK, n_points))
        F = fbar(w, c, idx * STEP)
        if prev is not None:  # one point of overlap so block edges are compared
            F = np.concatenate([[prev], F])
            idx = np.concatenate([[lo - 1], idx])
        prev = F[-1]
        interior = (F[1:-1] >= F[:-2]) & (F[1:-1] >= F[2:])
        peaks = np.nonzero(interior)[0] + 1
        top = peaks[np.argsort(F[peaks])[-CANDIDATES:]]
        best.extend((float(F[i]), float(idx[i] * STEP)) for i in top)
        best = sorted(best)[-CANDIDATES:]
    # the window edges count as candidates too
    for t in (0.0, (n_points - 1) * STEP):
        best.append((float(fbar(w, c, np.array([t]))[0]), t))
    F_ref, t_ref = max(best)
    for F0, t0 in sorted(best)[-CANDIDATES:]:
        res = minimize_scalar(
            lambda t: -fbar(w, c, np.array([t]))[0],
            bounds=(max(0.0, t0 - STEP), min(t_end, t0 + STEP)),
            method="bounded",
            options={"xatol": 1e-10 * max(1.0, t0)},
        )
        if -res.fun > F_ref:
            F_ref, t_ref = float(-res.fun), float(res.x)
    return {
        "N": N,
        "h": h,
        "window_end": t_end,
        "grid_step": STEP,
        "grid_points": n_points,
        "t_ref": t_ref,
        "F_ref": F_ref,
    }


def main() -> int:
    tables = {}
    for name, menu in (("rabi_sweep", RABI_MENU), ("quasi_rabi_sweep", QUASI_MENU)):
        rows = []
        for N, h in menu:
            t0 = time.perf_counter()
            rows.append(reference(N, h))
            print(f"{name} N={N} h={h:g} F_ref={rows[-1]['F_ref']:.6f} "
                  f"t_ref={rows[-1]['t_ref']:.4f} ({time.perf_counter() - t0:.1f} s)",
                  flush=True)
        tables[name] = rows
    payload = {
        "command": "python3 perfbench/make_references.py",
        "method": "brute-force grid of Fbar over [0, pi h^2] (Rabi) or [0, N h] "
                  "(quasi-Rabi) with step pi/160, best grid maxima refined by a "
                  "bounded scalar search; scipy eigh_tridiagonal spectra",
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        **tables,
    }
    OUT.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
