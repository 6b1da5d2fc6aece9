"""Fixed spec menus of the two t* search workloads.

Every spec here has a row in references.json; regenerate that file with
``python3 perfbench/make_references.py`` after editing a menu.
"""

import math

# Rabi regime (N != 3n - 1).  The N >= 150 entries at h = 100 are where the
# local Rabi search is known to fall behind a brute-force grid; they stay
# in so that the defect shows as failed ops.
RABI_MENU = tuple((30, float(h)) for h in range(40, 101, 10)) + tuple(
    (N, 100.0) for N in (31, 33, 34, 46, 100, 150, 240, 270, 400, 1000)
)

# Quasi-Rabi regime (N = 3n - 1): every length at h = 100, 150 and 200, and
# N = 32 at h = 1000 from criterion 7's t*(h) chain.  A pass takes about 4 s
# on a 2-core x86 VM and a run repeats it five times, so the h = 2000 and
# 4000 specs of criteria 7 and 8, at 2-7 s per search, are left out.
QUASI_MENU = tuple(
    (N, h) for h in (100.0, 150.0, 200.0) for N in (29, 32, 35, 38, 41, 44, 47, 50)
) + ((32, 1000.0),)

# A search op fails when its F falls this far below the reference maximum.
REFERENCE_TOLERANCE = 1e-3


def reference_window(N: int, h: float) -> float:
    """End of the brute-force time window: pi h^2 (Rabi) or N h (quasi-Rabi)."""
    return N * h if N % 3 == 2 else math.pi * h * h
