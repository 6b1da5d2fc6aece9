import numpy as np
import pytest

from xxchain.chain import ChainSpec, SymTridiag, build_single_particle


class TestChainSpec:
    def test_default_geometry(self):
        spec = ChainSpec(N=10, h=5.0)
        assert spec.senders == (1, 2)
        assert spec.receivers == (9, 10)
        assert spec.barriers == (3, 8)
        assert spec.couplings == (1.0,) * 9
        assert spec.fields == (0.0, 0.0, 5.0, 0.0, 0.0, 0.0, 0.0, 5.0, 0.0, 0.0)

    def test_channel_sites(self):
        assert ChainSpec(N=8).channel_sites == (3, 4, 5, 6)

    def test_minimum_length(self):
        ChainSpec(N=6)  # minimal chain fitting senders, receivers, barriers
        with pytest.raises(ValueError):
            ChainSpec(N=5)

    def test_negative_field_rejected(self):
        with pytest.raises(ValueError):
            ChainSpec(N=8, h=-1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_h_rejected(self, value):
        with pytest.raises(ValueError, match="barrier field h must be finite"):
            ChainSpec(N=8, h=value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_coupling_rejected(self, value):
        with pytest.raises(ValueError, match="couplings must be finite"):
            ChainSpec(N=8, couplings=(1.0,) * 3 + (value,) + (1.0,) * 3)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_field_rejected(self, value):
        with pytest.raises(ValueError, match="fields must be finite"):
            ChainSpec(N=8, fields=(0.0,) * 5 + (value,) + (0.0,) * 2)

    # finite, but 2 x overflows the one-excitation matrix to inf
    def test_overflowing_h_rejected(self):
        with pytest.raises(ValueError, match="fields must be finite when doubled"):
            ChainSpec(N=8, h=1e308)

    @pytest.mark.parametrize("value", [1e308, -1e308, 9e307])
    def test_overflowing_field_rejected(self, value):
        with pytest.raises(ValueError, match="fields must be finite when doubled"):
            ChainSpec(N=8, fields=(0.0,) * 5 + (value,) + (0.0,) * 2)

    def test_overflowing_coupling_rejected(self):
        with pytest.raises(ValueError, match="couplings must be finite when doubled"):
            ChainSpec(N=8, couplings=(1.0,) * 3 + (1e308,) + (1.0,) * 3)

    def test_largest_doublable_field_accepted(self):
        big = float(np.finfo(float).max) / 2.0  # 2 * big is the largest float
        spec = ChainSpec(N=8, h=big, couplings=(big,) * 7)
        assert np.all(np.isfinite(build_single_particle(spec).dense()))

    def test_mismatched_lists_rejected(self):
        with pytest.raises(ValueError):
            ChainSpec(N=8, couplings=(1.0,) * 5)
        with pytest.raises(ValueError):
            ChainSpec(N=8, fields=(0.0,) * 7)

    def test_nonpositive_coupling_rejected(self):
        with pytest.raises(ValueError):
            ChainSpec(N=8, couplings=(1.0,) * 6 + (-0.5,))

    def test_overlapping_roles_rejected(self):
        with pytest.raises(ValueError):
            ChainSpec(N=8, senders=(1, 2), receivers=(2, 3))

    def test_unordered_pairs_rejected(self):
        with pytest.raises(ValueError):
            ChainSpec(N=8, senders=(2, 1))
        with pytest.raises(ValueError):
            ChainSpec(N=8, receivers=(8, 7))

    def test_site_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ChainSpec(N=8, receivers=(8, 9))

    def test_hashable_and_equal(self):
        assert ChainSpec(N=8, h=2.0) == ChainSpec(N=8, h=2.0)
        assert len({ChainSpec(N=8, h=2.0), ChainSpec(N=8, h=2.0)}) == 1


class TestBuildSingleParticle:
    def test_uniform_chain(self):
        # h = 0, J = 1: free homogeneous chain; Pauli units make the
        # hopping element -2J and barrier on-site energy 2h
        m = build_single_particle(ChainSpec(N=6, h=0.0))
        assert m.diagonal == (0.0,) * 6
        assert m.off_diagonal == (-2.0,) * 5

    def test_barrier_placement_small(self):
        m = build_single_particle(ChainSpec(N=6, h=100.0))
        assert m.diagonal == (0.0, 0.0, 200.0, 200.0, 0.0, 0.0)

    def test_barrier_placement_large(self):
        m = build_single_particle(ChainSpec(N=46, h=100.0))
        d = np.asarray(m.diagonal)
        assert d[2] == 200.0 and d[43] == 200.0
        assert np.count_nonzero(d) == 2

    def test_pure_function(self):
        a = build_single_particle(ChainSpec(N=12, h=7.25))
        b = build_single_particle(ChainSpec(N=12, h=7.25))
        assert a == b

    def test_dense_matches_bands(self):
        m = build_single_particle(ChainSpec(N=7, h=3.0))
        dm = m.dense()
        assert np.array_equal(dm, dm.T)
        assert np.array_equal(np.diag(dm), m.diagonal)
        assert np.array_equal(np.diag(dm, 1), m.off_diagonal)

    def test_symtridiag_dimension_check(self):
        with pytest.raises(ValueError):
            SymTridiag(diagonal=(0.0, 0.0), off_diagonal=(1.0, 1.0))
