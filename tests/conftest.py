"""Shared test helpers: an independent dense eigensolver oracle, seeded
random chains for the grid-scan differential tests, a reference Haar-average
fidelity built without protocol or fidelity, and the free-fermion pair
amplitude of a propagator."""

import numpy as np

from xxchain.chain import ChainSpec, build_single_particle


def jacobi_eigh(a, tol=1e-14, max_sweeps=100):
    """Cyclic Jacobi eigensolver for small real symmetric matrices.

    Deliberately independent of LAPACK so it can arbitrate the production
    tridiagonal solver.  Returns (eigenvalues ascending, eigenvectors as
    rows), O(n^3) per sweep; fine for the n <= 50 oracle duty it has here.
    """
    a = np.array(a, dtype=float)
    n = a.shape[0]
    v = np.eye(n)
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off < tol * max(1.0, np.max(np.abs(np.diag(a)))):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) < 1e-300:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
    order = np.argsort(np.diag(a))
    return np.diag(a)[order], v[:, order].T


def pair_amplitude(f, n, m, r, s):
    """Two-excitation amplitude g_{nm}^{rs} from the propagator matrix f.

    The 2x2 determinant f_n^r f_m^s - f_n^s f_m^r of single-particle
    amplitudes, with 1-based sites and f[n-1, m-1] = f_n^m.
    """
    return f[n - 1, r - 1] * f[m - 1, s - 1] - f[n - 1, s - 1] * f[m - 1, r - 1]


def random_grid_chain(seed):
    """A seeded chain and grid (spec, t0, step) for the t* scan tests.

    Fields are the barrier profile at one of five strengths plus noise, so
    the chain is not mirror symmetric; couplings are drawn from [0.8, 1.2].
    N is drawn from 8-12 at h = 0, where the scan's screen keeps every mode,
    and from 8-60 otherwise; at h >= 40 the screen drops most modes.  Every
    other seed moves the senders and receivers to random distinct sites.
    t0 is drawn from [10, 5000].
    """
    rng = np.random.default_rng(seed)
    N = int(rng.integers(8, 13 if seed % 5 == 0 else 61))
    h = (0.0, 2.0, 10.0, 40.0, 150.0)[seed % 5] * rng.uniform(0.8, 1.2)
    fields = rng.normal(0.0, 0.05, N)
    fields[[2, N - 3]] += h
    roles = {}
    if seed % 2:
        s1, s2, r1, r2 = (int(x) + 1 for x in rng.choice(N, size=4, replace=False))
        roles = {"senders": tuple(sorted((s1, s2))), "receivers": tuple(sorted((r1, r2)))}
    spec = ChainSpec(
        N=N,
        h=h,
        couplings=tuple(rng.uniform(0.8, 1.2, N - 1)),
        fields=tuple(fields),
        **roles,
    )
    return spec, float(rng.uniform(10.0, 5000.0)), float(rng.uniform(0.02, 0.5))


def reference_fbar(spec):
    """Haar-average fidelity on an array of times, built here.

    Uses neither protocol nor fidelity: dense eigh of the one-excitation
    matrix gives the edge amplitudes f_s^r(t) = sum_k exp(-i eps_k t) v_sk
    v_rk; the pair amplitude is the free-fermion determinant g = f11 f22 -
    f12 f21, and for a channel that conserves excitations the Haar average
    is Fbar = (4 + |1 + f11 + f22 + g|^2) / 20.
    """
    eps, v = np.linalg.eigh(build_single_particle(spec).dense())
    (s1, s2), (r1, r2) = spec.senders, spec.receivers
    pairs = ((s1, r1), (s1, r2), (s2, r1), (s2, r2))
    c = np.stack([v[s - 1] * v[r - 1] for s, r in pairs], axis=1)

    def fbar(t):
        f11, f12, f21, f22 = (np.exp(-1j * np.multiply.outer(t, eps)) @ c).T
        return (4.0 + np.abs(1.0 + f11 + f22 + f11 * f22 - f12 * f21) ** 2) / 20.0

    return fbar
