import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from conftest import jacobi_eigh
from xxchain.amplitudes import propagator
from xxchain.chain import ChainSpec, SymTridiag, build_single_particle
from xxchain.spectral import (
    _FOLD_MIN_N,
    SpectralData,
    classify_chain,
    diagonalize,
    edge_modes,
    extended_indices,
    localization_profile,
    localized_indices,
)


def row_loop_reference(m):
    """The full solver's eigenvector rows, sign-fixed one row at a time."""
    _, v = eigh_tridiagonal(np.asarray(m.diagonal), np.asarray(m.off_diagonal))
    ref = v.T.copy()
    for k, row in enumerate(ref):
        nz = np.nonzero(np.abs(row) > 1e-12)[0]
        if len(nz) and row[nz[0]] < 0:
            ref[k] = -row
    return ref


class TestDiagonalize:
    def test_two_site_analytic(self):
        sd = diagonalize(SymTridiag((0.0, 0.0), (-1.0,)))
        assert np.allclose(sd.eigenvalues, [-1.0, 1.0], atol=1e-14)
        s = 1.0 / np.sqrt(2.0)
        assert np.allclose(sd.eigenvectors[0], [s, s], atol=1e-14)
        assert np.allclose(sd.eigenvectors[1], [s, -s], atol=1e-14)

    def test_single_site(self):
        sd = diagonalize(SymTridiag((4.5,), ()))
        assert sd.eigenvalues.tolist() == [4.5]
        assert sd.eigenvectors.tolist() == [[1.0]]

    def test_against_jacobi_oracle(self):
        m = build_single_particle(ChainSpec(N=10, h=20.0))
        sd = diagonalize(m)
        w, _ = jacobi_eigh(m.dense())
        assert np.max(np.abs(sd.eigenvalues - w)) < 1e-10

    def test_residuals(self):
        m = build_single_particle(ChainSpec(N=20, h=35.0))
        sd = diagonalize(m)
        dm = m.dense()
        for k in range(20):
            r = dm @ sd.eigenvectors[k] - sd.eigenvalues[k] * sd.eigenvectors[k]
            assert np.max(np.abs(r)) <= 1e-10 * max(1.0, abs(sd.eigenvalues[k]))

    def test_orthonormal_rows(self):
        sd = diagonalize(build_single_particle(ChainSpec(N=15, h=8.0)))
        gram = sd.eigenvectors @ sd.eigenvectors.T
        assert np.max(np.abs(gram - np.eye(15))) < 1e-12

    def test_completeness(self):
        sd = diagonalize(build_single_particle(ChainSpec(N=13, h=3.0)))
        assert np.max(np.abs(sd.eigenvectors.T @ sd.eigenvectors - np.eye(13))) < 1e-12

    def test_ascending_order(self):
        sd = diagonalize(build_single_particle(ChainSpec(N=24, h=50.0)))
        assert np.all(np.diff(sd.eigenvalues) >= 0)

    def test_sign_convention(self):
        sd = diagonalize(build_single_particle(ChainSpec(N=17, h=12.0)))
        for row in sd.eigenvectors:
            nz = np.nonzero(np.abs(row) > 1e-12)[0]
            assert row[nz[0]] > 0

    @pytest.mark.parametrize("N", [6, 7, 46, 400])
    def test_sign_fix_matches_row_loop(self, N):
        # the vectorized sign fix against the rule applied row by row to
        # the full solver's vectors; about half the rows flip, and at N = 46
        # one row starts with an entry below the 1e-12 threshold.  The N =
        # 400 chain has its second barrier off the mirror, so it is not
        # folded
        barriers = (3, N - 3) if N >= _FOLD_MIN_N else None
        m = build_single_particle(ChainSpec(N=N, h=100.0, barriers=barriers))
        vecs = diagonalize(m).eigenvectors
        np.testing.assert_array_equal(vecs, row_loop_reference(m))
        assert vecs.flags.c_contiguous

    def test_sign_fix_on_folded_rows(self):
        # the folded N = 400 chain cannot match the full solver's rows bit
        # for bit; the rule itself holds row by row
        vecs = diagonalize(build_single_particle(ChainSpec(N=400, h=100.0))).eigenvectors
        for row in vecs:
            nz = np.nonzero(np.abs(row) > 1e-12)[0]
            assert row[nz[0]] > 0
        assert vecs.flags.c_contiguous

    def test_deterministic(self):
        m = build_single_particle(ChainSpec(N=11, h=6.0))
        a, b = diagonalize(m), diagonalize(m)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    def test_uniform_shift(self):
        # adding a constant to the diagonal shifts the spectrum rigidly and
        # leaves eigenvectors unchanged (up to solver roundoff)
        m = build_single_particle(ChainSpec(N=10, h=20.0))
        shifted = SymTridiag(tuple(d + 3.5 for d in m.diagonal), m.off_diagonal)
        a, b = diagonalize(m), diagonalize(shifted)
        assert np.max(np.abs(b.eigenvalues - a.eigenvalues - 3.5)) < 1e-10
        # vectors of the close pair near the band edge are only stable to
        # roundoff amplified by the small gap, hence the looser tolerance
        assert np.max(np.abs(b.eigenvectors - a.eigenvectors)) < 1e-8

    def test_mirror_symmetry(self):
        # N = 11 is below _FOLD_MIN_N, so the full solver runs.  A moderate
        # field keeps all eigenvalues well separated; for nearly degenerate
        # pairs (large h) that solver may mix the two vectors, and
        # individual-vector mirror symmetry only holds to gap precision.
        # Folded chains are exactly symmetric (TestMirrorFold)
        sd = diagonalize(build_single_particle(ChainSpec(N=11, h=3.0)))
        flipped = np.abs(sd.eigenvectors[:, ::-1])
        assert np.max(np.abs(np.abs(sd.eigenvectors) - flipped)) < 1e-10


class TestMirrorFold:
    # palindromic chains of at least _FOLD_MIN_N sites are solved as two
    # parity blocks; the full-size solver stays the reference

    @pytest.mark.parametrize("N", [400, 401])
    def test_exact_parity(self, N):
        # every row is even or odd under the mirror, bit for bit, including
        # the near-degenerate pair bound to the barriers at eps ~ 200.04,
        # which a full-size solver may return mixed into two localized rows
        sd = diagonalize(build_single_particle(ChainSpec(N=N, h=100.0)))
        a = sd.eigenvectors
        assert np.all((sd.parity == 1.0) | (sd.parity == -1.0))
        np.testing.assert_array_equal(a[:, ::-1], sd.parity[:, None] * a)
        assert np.sum(sd.eigenvalues > 200.0) == 2

    @pytest.mark.parametrize("N", [_FOLD_MIN_N, _FOLD_MIN_N + 1, 400, 401])
    def test_matches_full_solver(self, N):
        # eigenvalues to 1e-12 max|eps|; the propagator rather than the
        # vectors, because the basis of the barrier pair differs.  Each
        # solver's eigenvalues are within a few ulp of max|eps| ~ 200
        # (40-digit Sturm bisection at N = 129: 8.1e-14 and 6.1e-14), so
        # the propagators may drift apart by t times that
        m = build_single_particle(ChainSpec(N=N, h=100.0))
        sd = diagonalize(m)
        assert sd.parity is not None
        w, v = eigh_tridiagonal(np.asarray(m.diagonal), np.asarray(m.off_diagonal))
        ref = SpectralData(eigenvalues=w, eigenvectors=v.T.copy())
        scale = np.max(np.abs(w))
        assert np.max(np.abs(sd.eigenvalues - w)) <= 1e-12 * scale
        for t in (0.0, 0.5, 3.0, 10.0):
            diff = np.max(np.abs(propagator(sd, t).f - propagator(ref, t).f))
            assert diff <= 1e-12 + 8.0 * np.finfo(float).eps * scale * t, t

    @pytest.mark.parametrize("N", [_FOLD_MIN_N, 400])
    @pytest.mark.parametrize("part", ["coupling", "field"])
    def test_barely_asymmetric_chain_is_not_folded(self, N, part):
        # one entry one ulp off the mirror: the full solver's output, bit
        # for bit, with no parity
        m = build_single_particle(ChainSpec(N=N, h=100.0))
        d, e = list(m.diagonal), list(m.off_diagonal)
        if part == "coupling":
            e[0] = float(np.nextafter(e[0], 0.0))
        else:
            d[2] = float(np.nextafter(d[2], np.inf))
        m = SymTridiag(tuple(d), tuple(e))
        sd = diagonalize(m)
        assert sd.parity is None
        w, _ = eigh_tridiagonal(np.asarray(m.diagonal), np.asarray(m.off_diagonal))
        np.testing.assert_array_equal(sd.eigenvalues, w)
        np.testing.assert_array_equal(sd.eigenvectors, row_loop_reference(m))

    def test_short_chain_is_not_folded(self):
        m = build_single_particle(ChainSpec(N=_FOLD_MIN_N - 1, h=100.0))
        sd = diagonalize(m)
        assert sd.parity is None
        np.testing.assert_array_equal(sd.eigenvectors, row_loop_reference(m))


class TestLocalization:
    def test_completeness_two_sites(self):
        sd = diagonalize(SymTridiag((0.0, 0.0), (-1.0,)))
        assert np.allclose(localization_profile(sd, {1, 2}), [1.0, 1.0])

    def test_quadruplet_n46(self):
        sd = diagonalize(build_single_particle(ChainSpec(N=46, h=100.0)))
        w = localization_profile(sd, {1, 2, 45, 46})
        for k in (14, 15, 30, 31):
            assert w[k - 1] > 0.99

    @pytest.mark.parametrize("N", [29, 50, 101])
    def test_extended_states(self, N):
        sd = diagonalize(build_single_particle(ChainSpec(N=N, h=100.0)))
        w = localization_profile(sd, {1, 2, N - 1, N})
        # six states carry visible edge weight: the quadruplet and the two
        # extended states a_n ~ sin(pi k n / 3), k = 1, 2, which vanish on
        # both barrier sites and so sit exactly at the band edges -2 and +2
        # with edge weight 6/(N+1), whatever h is
        carriers = [k for k in range(1, N + 1) if w[k - 1] > 0.01]
        union = sorted(set(localized_indices(N)) | set(extended_indices(N)))
        assert carriers == union
        ext = [k - 1 for k in extended_indices(N)]
        assert np.max(np.abs(sd.eigenvalues[ext] - [-2.0, 2.0])) < 1e-9
        assert np.max(np.abs(w[ext] - 6.0 / (N + 1))) < 1e-9
        for k in localized_indices(N):
            assert w[k - 1] > 0.5

    @pytest.mark.parametrize(
        "N, h",
        [(N, h) for h in (20.0, 100.0) for N in (8, 11, 12, 14, *range(29, 36), 46, 50)]
        + [(N, 100.0) for N in (100, 150, 200)],
    )
    def test_edge_modes_are_the_heaviest(self, N, h):
        # the label rule picks the 4 (6 at N = 3n - 1) modes of largest edge
        # weight; at h = 20 it no longer does from N = 100 on
        sd = diagonalize(build_single_particle(ChainSpec(N=N, h=h)))
        w = localization_profile(sd, {1, 2, N - 1, N})
        modes = edge_modes(N)
        np.testing.assert_array_equal(np.sort(np.argsort(w)[-len(modes):]), modes)

    def test_empty_sites_rejected(self):
        sd = diagonalize(SymTridiag((0.0, 0.0), (-1.0,)))
        with pytest.raises(ValueError):
            localization_profile(sd, set())

    def test_out_of_range_site_rejected(self):
        sd = diagonalize(SymTridiag((0.0, 0.0), (-1.0,)))
        with pytest.raises(ValueError):
            localization_profile(sd, {3})


class TestIndexRules:
    def test_localized_indices(self):
        assert localized_indices(46) == (14, 15, 30, 31)
        assert localized_indices(6) == (1, 2, 3, 4)
        assert localized_indices(50) == (15, 16, 32, 33)

    def test_extended_indices(self):
        assert extended_indices(50) == (17, 34)

    def test_classify(self):
        assert classify_chain(46) == "rabi"
        assert classify_chain(50) == "quasi-rabi"
        assert classify_chain(29) == "quasi-rabi"
        assert classify_chain(30) == "rabi"
