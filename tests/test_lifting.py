import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slrecon._fft import ifft2
from slrecon.grid import IndexSet2D, dilate, valid_output_set
from slrecon.lifting import (
    KSpaceArray,
    LiftingConfig,
    _corner_gram,
    _fft_gram,
    embed,
    gram_matrix,
    lift_adjoint,
    lift_dense,
    lift_normal_diag,
    read_offsets,
    scatter_sum,
)

from conftest import (adjoint_apply, apply_filter, conv_oracle, gram_bound, lifting_configs,
                      random_kspace, scatter_oracle)


def rel_err(a, b):
    return np.linalg.norm(np.ravel(a) - np.ravel(b)) / max(np.linalg.norm(np.ravel(b)), 1e-300)


class TestLiftDense:
    def test_ones_with_1x1_filter(self):
        gamma = IndexSet2D.rect(3, 3)
        cfg = LiftingConfig.make(gamma, IndexSet2D.rect(1, 1))
        x = KSpaceArray(gamma, np.ones((3, 3)))
        t = lift_dense(x, cfg)
        assert t.shape == (9, 1)
        assert np.allclose(t, 1.0)

    def test_delta_columns_are_shifted_windows(self):
        gamma = IndexSet2D.rect(5, 5)
        cfg = LiftingConfig.make(gamma, IndexSet2D.rect(3, 3))
        vals = np.zeros((5, 5), dtype=complex)
        vals[2, 2] = 1.0  # delta at origin
        x = KSpaceArray(gamma, vals)
        t = lift_dense(x, cfg)
        # every column holds a single unit entry (the delta appears once per shift)
        assert np.allclose(np.abs(t).sum(axis=0), 1.0)
        rng = np.random.default_rng(1)
        for _ in range(20):
            h = rng.standard_normal(9) + 1j * rng.standard_normal(9)
            oracle = conv_oracle(x, h, cfg.lambda1, cfg.lambda2)
            assert rel_err(t @ h, oracle) < 1e-12

    def test_matches_conv_oracle_random(self):
        gamma = IndexSet2D.rect(8, 7)
        cfg = LiftingConfig.make(gamma, IndexSet2D.rect(3, 3), "gradient")
        x = random_kspace(gamma, 7)
        t = lift_dense(x, cfg)
        rng = np.random.default_rng(2)
        k1 = x.gamma.axis_ranges()[0][:, None] * np.ones((1, 7))
        k2 = np.ones((8, 1)) * x.gamma.axis_ranges()[1][None, :]
        x1 = KSpaceArray(gamma, k1 * x.values)
        x2 = KSpaceArray(gamma, k2 * x.values)
        for _ in range(5):
            h = rng.standard_normal(9) + 1j * rng.standard_normal(9)
            oracle = np.concatenate(
                [conv_oracle(x1, h, cfg.lambda1, cfg.lambda2),
                 conv_oracle(x2, h, cfg.lambda1, cfg.lambda2)]
            )
            assert rel_err(t @ h, oracle) < 1e-12

    def test_linearity(self):
        gamma = IndexSet2D.rect(6, 6)
        cfg = LiftingConfig.make(gamma, IndexSet2D.rect(3, 3), "gradient")
        xa, xb = random_kspace(gamma, 3), random_kspace(gamma, 4)
        a, b = 1.7 - 0.3j, -0.6 + 2.1j
        combo = KSpaceArray(gamma, a * xa.values + b * xb.values)
        assert rel_err(
            lift_dense(combo, cfg), a * lift_dense(xa, cfg) + b * lift_dense(xb, cfg)
        ) < 1e-13

    def test_dirac_stream_annihilation(self):
        # 1-D-embedded Dirac stream: the filter whose roots sit at the Dirac
        # locations annihilates the lifted matrix to machine precision.
        K = 4
        rng = np.random.default_rng(5)
        locs = np.sort(rng.uniform(0, 1, K))
        amps = rng.standard_normal(K) + 1j * rng.standard_normal(K)
        gamma = IndexSet2D.rect(24, 1)
        k1 = gamma.axis_ranges()[0]
        vals = (amps[None, :] * np.exp(-2j * np.pi * k1[:, None] * locs[None, :])).sum(axis=1)
        x = KSpaceArray(gamma, vals.reshape(-1, 1))
        # coefficients of prod_m (z - exp(2j pi x_m))
        mu = np.array([1.0 + 0j])
        for xm in locs:
            mu = np.convolve(mu, np.array([-np.exp(2j * np.pi * xm), 1.0]))
        cfg = LiftingConfig.make(gamma, IndexSet2D.rect(K + 1, 1))
        t = lift_dense(x, cfg)
        resid = np.linalg.norm(t @ mu)
        assert resid < 1e-10 * np.linalg.norm(t) * np.linalg.norm(mu)

    @pytest.mark.parametrize("weighting", ["identity", "gradient"])
    def test_off_centre_filter_matches_conv_oracle(self, weighting):
        # lambda1 shifted off the origin: lambda2 shifts with it, and the
        # windows still read only gamma
        gamma = IndexSet2D.rect(9, 8)
        lam1 = IndexSet2D.rect(4, 3, offset=(2, -1))
        lam2 = valid_output_set(gamma, lam1)
        cfg = LiftingConfig.make(gamma, lam1, weighting)
        assert cfg.lambda2 == lam2
        x = random_kspace(gamma, 61)
        t = lift_dense(x, cfg)
        blocks = [KSpaceArray(gamma, w * x.values) for w in cfg.multipliers]
        for h in np.random.default_rng(67).standard_normal((5, cfg.n_filter)):
            oracle = np.concatenate([conv_oracle(xb, h, lam1, lam2) for xb in blocks])
            assert rel_err(t @ h, oracle) < 1e-12

    def test_shape_mismatch_raises(self):
        cfg = LiftingConfig.make(IndexSet2D.rect(5, 5), IndexSet2D.rect(3, 3))
        x = random_kspace(IndexSet2D.rect(4, 4), 0)
        with pytest.raises(ValueError):
            lift_dense(x, cfg)

    @pytest.mark.parametrize("shape", [(4, 5), (5, 4), (25,), (5, 5, 1)])
    def test_kspace_values_must_match_gamma(self, shape):
        with pytest.raises(ValueError, match=r"does not match gamma extents \(5, 5\)"):
            KSpaceArray(IndexSet2D.rect(5, 5), np.zeros(shape))


class TestLiftAdjoint:
    @settings(max_examples=60, deadline=None)
    @given(lifting_configs(), st.integers(0, 2**16))
    def test_inner_product_identity(self, cfg, seed):
        rng = np.random.default_rng([seed, 1])
        x = random_kspace(cfg.gamma, seed)
        big_x = rng.standard_normal(cfg.lifted_shape) + 1j * rng.standard_normal(cfg.lifted_shape)
        tx = lift_dense(x, cfg)
        lhs = np.vdot(big_x, tx)
        rhs = np.vdot(lift_adjoint(big_x, cfg), x.values)
        assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(big_x) * np.linalg.norm(tx)

    def test_shape_mismatch_raises(self):
        cfg = LiftingConfig.make(IndexSet2D.rect(5, 5), IndexSet2D.rect(3, 3))
        with pytest.raises(ValueError, match="does not match"):
            lift_adjoint(np.zeros((4, 9)), cfg)


class TestImage:
    @pytest.mark.parametrize("extents,offset", [((17, 17), (0, 0)), ((16, 16), (0, 0)),
                                                ((9, 9), (2, -1)), ((12, 13), (1, 3)),
                                                ((64, 1), (0, 0)), ((5, 4), (-7, 6))])
    def test_matches_embed_oracle(self, extents, offset):
        # the roll by gamma.kmin places index k at k mod extents, as the
        # scatter at signed indices does, so the inverse FFTs agree bit for bit
        gamma = IndexSet2D.rect(*extents, offset=offset)
        x = random_kspace(gamma, 3)
        expect = ifft2(embed(x.values, gamma, gamma.extents)) * len(gamma)
        assert np.array_equal(x.image(), expect)


class TestScatterSum:
    @settings(max_examples=40, deadline=None)
    @given(lifting_configs(), st.integers(0, 2**16))
    def test_sums_in_input_order(self, cfg, seed):
        # bit for bit: the exact operator's outputs are checked with
        # np.array_equal, so the order of the sums is part of the contract;
        # both maps send many values onto each entry
        rng = np.random.default_rng(seed)
        for offsets, shape in ((cfg.lift_geometry, cfg.gamma.extents),
                               (cfg.mask_lags, cfg.mask_shape)):
            real = rng.standard_normal(offsets.shape)
            for values, dtype in ((real, np.float64),
                                  (real + 1j * rng.standard_normal(offsets.shape), np.complex128)):
                out = scatter_sum(offsets, values, shape)
                assert out.dtype == dtype and out.shape == shape
                assert np.array_equal(out, scatter_oracle(offsets, values, shape))


class TestApply:
    def test_delta_filter_identity_weighting(self):
        gamma = IndexSet2D.rect(7, 7)
        cfg = LiftingConfig.make(gamma, IndexSet2D.rect(3, 3))
        x = random_kspace(gamma, 11)
        h = np.zeros(9)
        h[4] = 1.0  # delta at the filter origin (center of the 3x3 lex order)
        out = apply_filter(x, h, cfg)
        r1, r2 = cfg.lambda2.axis_ranges()
        expect = x.values[np.ix_(r1 - gamma.kmin[0], r2 - gamma.kmin[1])].ravel()
        assert rel_err(out, expect) < 1e-13

    @pytest.mark.parametrize("weighting", ["identity", "gradient"])
    def test_matches_dense(self, weighting):
        gamma = IndexSet2D.rect(16, 16)
        cfg = LiftingConfig.make(gamma, IndexSet2D.rect(5, 5), weighting)
        x = random_kspace(gamma, 13)
        t = lift_dense(x, cfg)
        rng = np.random.default_rng(17)
        for _ in range(10):
            h = rng.standard_normal(25) + 1j * rng.standard_normal(25)
            assert rel_err(apply_filter(x, h, cfg), t @ h) < 1e-12

    def test_matches_dense_large_filter(self):
        gamma = IndexSet2D.rect(64, 64)
        cfg = LiftingConfig.make(gamma, IndexSet2D.rect(15, 15))
        x = random_kspace(gamma, 19)
        t = lift_dense(x, cfg)
        h = np.random.default_rng(23).standard_normal(225)
        assert rel_err(apply_filter(x, h, cfg), t @ h) < 1e-12

    def test_even_extent_filter_matches_dense(self):
        # an asymmetric support needs no grid padding: the valid outputs are
        # alias-free on the gamma-sized grid
        gamma = IndexSet2D.rect(12, 1)
        cfg = LiftingConfig.make(gamma, IndexSet2D.rect(4, 1))
        x = random_kspace(gamma, 29)
        t = lift_dense(x, cfg)
        h = np.random.default_rng(31).standard_normal(4) + 0j
        assert rel_err(apply_filter(x, h, cfg), t @ h) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(lifting_configs(), st.integers(-3, 3), st.integers(-3, 3), st.integers(0, 2**16))
    def test_gamma_sized_grid_is_alias_free(self, cfg, s1, s2, seed):
        # the circular FFT maps on the gamma-sized grid equal the dense
        # lifting and its adjoint, also for filters shifted off-centre
        lam1 = IndexSet2D.rect(*cfg.lambda1.extents, offset=(s1, s2))
        cfg = LiftingConfig.make(cfg.gamma, lam1, cfg.weighting)
        rng = np.random.default_rng(seed)
        x = random_kspace(cfg.gamma, seed)
        h = rng.standard_normal(cfg.n_filter) + 1j * rng.standard_normal(cfg.n_filter)
        t = lift_dense(x, cfg)
        scale = np.linalg.norm(t) * np.linalg.norm(h)
        assert np.linalg.norm(apply_filter(x, h, cfg) - t @ h) <= 1e-12 * max(scale, 1e-300)
        v = rng.standard_normal(t.shape[0]) + 1j * rng.standard_normal(t.shape[0])
        dense = lift_adjoint(np.outer(v, h.conj()), cfg)
        fft = adjoint_apply(v, h, cfg).values
        bound = np.abs(cfg.multipliers).max() * cfg.n_filter * np.linalg.norm(v) * np.linalg.norm(h)
        assert np.linalg.norm(fft - dense) <= 1e-12 * max(bound, 1e-300)

    def test_gradient_blocks_expose_frequencies(self):
        gamma = IndexSet2D.rect(7, 7)
        cfg = LiftingConfig.make(gamma, IndexSet2D.rect(1, 1), "gradient")
        x = KSpaceArray(gamma, np.ones((7, 7)))
        out = apply_filter(x, np.array([1.0]), cfg)
        n = cfg.n_out
        r1, r2 = cfg.lambda2.axis_ranges()
        k1 = np.broadcast_to(r1[:, None], (7, 7)).ravel()
        k2 = np.broadcast_to(r2[None, :], (7, 7)).ravel()
        assert rel_err(out[:n], k1) < 1e-12
        assert rel_err(out[n:], k2) < 1e-12

    @pytest.mark.parametrize("taps", [8, 18])
    def test_wrong_filter_size_raises(self, taps):
        # a multiple of the filter size must not be read as a filter bank
        cfg = LiftingConfig.make(IndexSet2D.rect(9, 9), IndexSet2D.rect(3, 3))
        h = np.ones(taps)
        with pytest.raises(ValueError, match=f"filter has {taps} taps, expected 9"):
            apply_filter(random_kspace(cfg.gamma, 1), h, cfg)
        with pytest.raises(ValueError, match=f"filter has {taps} taps, expected 9"):
            adjoint_apply(np.ones(cfg.n_out), h, cfg)


class TestConfigInvariants:
    @pytest.mark.parametrize("weighting", ["identity", "gradient"])
    @pytest.mark.parametrize("filt,shift", [((3, 3), 0), ((4, 1), 2)])
    def test_derived_arrays_cached_read_only(self, weighting, filt, shift):
        gamma = IndexSet2D.rect(9, 8)
        cfg = LiftingConfig.make(gamma, IndexSet2D.rect(*filt, offset=(shift, 0)), weighting)
        assert cfg.multipliers is cfg.multipliers
        assert cfg.lift_geometry is cfg.lift_geometry
        # built on first use, not when the config is made
        lazy = ("circular_lags", "mask_lags", "normal_diag", "band_offsets", "band_corners",
                "band_diagonals", "band_weights")
        assert not set(lazy) & set(vars(cfg))
        for name in lazy:
            assert getattr(cfg, name) is getattr(cfg, name)
        assert np.array_equal(cfg.normal_diag, lift_normal_diag(np.ones(cfg.n_filter), cfg))
        assert len(cfg.multipliers) == (1 if weighting == "identity" else 2)
        band_pairs = [a for pair in cfg.band_pairs for a in pair]
        for a in (cfg.multipliers, cfg.lift_geometry, *(getattr(cfg, name) for name in lazy),
                  *band_pairs):
            assert not a.flags.writeable
        # the exact term's matrix tables, beside the lag tables, are int32
        for a in (cfg.band_offsets, cfg.band_corners, cfg.band_diagonals, *band_pairs):
            assert a.dtype == np.int32

    @settings(max_examples=60, deadline=None)
    @given(lifting_configs())
    def test_corner_is_the_leading_block_of_circular_lags(self, cfg):
        # the corner windows, the rule on the rows [0, f - 1), are the leading
        # block of circular_lags' rows [0, f): same taps, extents and
        # row-major order (the Gram's corner oracle below reads them)
        f1, f2 = cfg.lambda1.extents
        corner = cfg.circular_lags.reshape(f1, f2, -1)[:f1 - 1, :f2 - 1].reshape(-1, f1 * f2)
        expected = read_offsets((range(f1 - 1), range(f2 - 1)), (f1, f2), cfg.gamma.extents)
        assert np.array_equal(corner, expected)

    @settings(max_examples=60, deadline=None)
    @given(lifting_configs())
    def test_lambda2_and_grid_are_derived(self, cfg):
        assert cfg.lambda2 == valid_output_set(cfg.gamma, cfg.lambda1)
        # the windows l - lambda1 together read exactly gamma
        minus_lambda1 = IndexSet2D((-cfg.lambda1.kmax[0], -cfg.lambda1.kmax[1]), cfg.lambda1.extents)
        assert dilate(cfg.lambda2, minus_lambda1) == cfg.gamma

    @settings(max_examples=60, deadline=None)
    @given(lifting_configs())
    def test_cached_maps_match_index_definition(self, cfg):
        # entry by entry from the signed indices, not through the read rule
        position = {tuple(k): i for i, k in enumerate(cfg.gamma.indices)}
        for m, l in enumerate(cfg.lambda2.indices):
            for k, tap in enumerate(cfg.lambda1.indices):
                assert cfg.lift_geometry[m, k] == position[tuple(l - tap)]
        e = cfg.gamma.extents
        for k, tap_k in enumerate(cfg.lambda1.indices):
            for l, tap_l in enumerate(cfg.lambda1.indices):
                lag = np.ravel_multi_index(tuple((tap_k - tap_l) % e), e)
                assert cfg.circular_lags[k, l] == lag

    def test_only_the_four_inputs_are_settable(self):
        settable = [f.name for f in dataclasses.fields(LiftingConfig) if f.init]
        assert settable == ["gamma", "lambda1", "weighting"]

    def test_unknown_weighting_raises(self):
        with pytest.raises(ValueError, match="laplacian"):
            LiftingConfig.make(IndexSet2D.rect(9, 8), IndexSet2D.rect(3, 3), "laplacian")


class TestAdjoint:
    def test_zero_maps_to_zero(self):
        gamma = IndexSet2D.rect(8, 8)
        cfg = LiftingConfig.make(gamma, IndexSet2D.rect(3, 3), "gradient")
        out = adjoint_apply(np.zeros(2 * cfg.n_out), np.ones(9), cfg)
        assert np.allclose(out.values, 0.0)

    @pytest.mark.parametrize("weighting", ["identity", "gradient"])
    def test_inner_product_identity(self, weighting):
        gamma = IndexSet2D.rect(32, 32)
        cfg = LiftingConfig.make(gamma, IndexSet2D.rect(7, 7), weighting)
        rng = np.random.default_rng(37)
        for trial in range(10):
            x = random_kspace(gamma, 100 + trial)
            h = rng.standard_normal(49) + 1j * rng.standard_normal(49)
            v = rng.standard_normal(len(cfg.multipliers) * cfg.n_out) + 1j * rng.standard_normal(
                len(cfg.multipliers) * cfg.n_out
            )
            lhs = np.vdot(v, apply_filter(x, h, cfg))
            rhs = np.vdot(adjoint_apply(v, h, cfg).values, x.values)
            assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), abs(rhs), 1.0)

    def test_delta_filter_zero_pads(self):
        gamma = IndexSet2D.rect(9, 9)
        cfg = LiftingConfig.make(gamma, IndexSet2D.rect(3, 3))
        h = np.zeros(9)
        h[4] = 1.0
        v = np.random.default_rng(41).standard_normal(cfg.n_out)
        out = adjoint_apply(v, h, cfg)
        r1, r2 = cfg.lambda2.axis_ranges()
        inner = out.values[np.ix_(r1 - gamma.kmin[0], r2 - gamma.kmin[1])]
        assert rel_err(inner.ravel(), v) < 1e-13
        total = np.abs(out.values).sum()
        assert np.isclose(total, np.abs(inner).sum())


def corner_oracle(x, cfg):
    """(f1, f2, f1, f2) Gram of the corner windows, the read rule on the rows
    [0, f - 1) wrapped onto gamma's array, multiplied out over the blocks."""
    f1, f2 = cfg.lambda1.extents
    offsets = read_offsets((range(f1 - 1), range(f2 - 1)), (f1, f2), cfg.gamma.extents)
    t = np.concatenate([(w * x.values).ravel()[offsets] for w in cfg.multipliers])
    return (t.conj().T @ t).reshape(f1, f2, f1, f2)


def gram_peak_bytes(x, cfg):
    tracemalloc.start()
    try:
        gram_matrix(x, cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestGram:
    def test_zero_data(self):
        gamma = IndexSet2D.rect(8, 8)
        cfg = LiftingConfig.make(gamma, IndexSet2D.rect(3, 3))
        x = KSpaceArray(gamma, np.zeros((8, 8)))
        assert np.allclose(gram_matrix(x, cfg), 0.0)

    @pytest.mark.parametrize("weighting", ["identity", "gradient"])
    @pytest.mark.parametrize("filt", [(3, 3), (5, 5), (4, 3)])
    def test_fft_matches_dense(self, weighting, filt):
        gamma = IndexSet2D.rect(16, 16)
        cfg = LiftingConfig.make(gamma, IndexSet2D.rect(*filt), weighting)
        x = random_kspace(gamma, 43)
        fast = _fft_gram(x.values, cfg)
        t = lift_dense(x, cfg)
        dense = t.conj().T @ t
        assert rel_err(fast, dense) < 1e-9

    @pytest.mark.parametrize("weighting", ["identity", "gradient"])
    @pytest.mark.parametrize("gamma,lam1", [
        # an off-centre lambda1
        (IndexSet2D.rect(12, 9), IndexSet2D.rect(3, 2, offset=(1, -1))),
        # lag ranges that wrap gamma (2f - 1 > e)
        (IndexSet2D.rect(9, 9), IndexSet2D.rect(5, 5)),
        (IndexSet2D.rect(8, 8), IndexSet2D.rect(8, 8)),
        (IndexSet2D.rect(5, 1), IndexSet2D.rect(4, 1)),
        # f = 1: the wrapped frame is empty
        (IndexSet2D.rect(7, 6), IndexSet2D.rect(1, 1)),
        # one strip set and no corner: column strips only, then row strips only
        (IndexSet2D.rect(9, 8), IndexSet2D.rect(1, 4)),
        (IndexSet2D.rect(9, 8), IndexSet2D.rect(4, 1)),
        # a lag range that wraps axis 1 only
        (IndexSet2D.rect(7, 12), IndexSet2D.rect(6, 3)),
    ])
    def test_circular_minus_frame_matches_dense(self, weighting, gamma, lam1):
        cfg = LiftingConfig.make(gamma, lam1, weighting)
        x = random_kspace(gamma, 53)
        t = lift_dense(x, cfg)
        assert rel_err(_fft_gram(x.values, cfg), t.conj().T @ t) < 1e-9
        corner = _corner_gram(cfg.multipliers * x.values, *lam1.extents)
        assert rel_err(corner, corner_oracle(x, cfg)) < 1e-9

    @settings(max_examples=60, deadline=None)
    @given(lifting_configs(), st.integers(0, 2**16))
    def test_corner_matches_dense(self, cfg, seed):
        x = random_kspace(cfg.gamma, seed)
        corner = _corner_gram(cfg.multipliers * x.values, *cfg.lambda1.extents)
        assert np.abs(corner - corner_oracle(x, cfg)).max() <= 1e-12 * gram_bound(x, cfg)

    @settings(max_examples=60, deadline=None)
    @given(lifting_configs(), st.integers(0, 2**16))
    def test_matches_fft_oracle(self, cfg, seed):
        # A[:, k] = T(x) e_k by FFT convolution; gram_matrix multiplies out
        # liftings this small, so the FFT route is called directly
        x = random_kspace(cfg.gamma, seed)
        a = np.stack([apply_filter(x, e, cfg) for e in np.eye(cfg.n_filter)], axis=1)
        assert np.abs(_fft_gram(x.values, cfg) - a.conj().T @ a).max() <= 1e-12 * gram_bound(x, cfg)

    def test_never_holds_the_lifted_matrix(self):
        gamma = IndexSet2D.rect(65, 65)
        cfg = LiftingConfig.make(gamma, IndexSet2D.rect(15, 15), "gradient")
        x = random_kspace(gamma, 71)
        lifted_bytes = cfg.lifted_shape[0] * cfg.lifted_shape[1] * 16
        assert gram_peak_bytes(x, cfg) < lifted_bytes / 4

    def test_never_holds_the_lifted_matrix_129(self):
        # the corner's patch product stays small at the design size too
        gamma = IndexSet2D.rect(129, 129)
        cfg = LiftingConfig.make(gamma, IndexSet2D.rect(15, 15), "gradient")
        x = random_kspace(gamma, 73)
        lifted_bytes = cfg.lifted_shape[0] * cfg.lifted_shape[1] * 16
        assert gram_peak_bytes(x, cfg) < lifted_bytes / 4

    def test_hermitian_psd(self):
        gamma = IndexSet2D.rect(12, 12)
        cfg = LiftingConfig.make(gamma, IndexSet2D.rect(3, 3), "gradient")
        g = gram_matrix(random_kspace(gamma, 47), cfg)
        assert np.allclose(g, g.conj().T)
        w = np.linalg.eigvalsh(g)
        assert w.min() >= -1e-10 * max(w.max(), 1.0)


class TestToeplitzStructure:
    def test_identity_columns_are_window_copies(self):
        # under identity weighting each column is the data gathered over a
        # lambda2-shaped window: same multiset of values, shifted
        gamma = IndexSet2D.rect(6, 6)
        cfg = LiftingConfig.make(gamma, IndexSet2D.rect(3, 3))
        x = random_kspace(gamma, 59)
        t = lift_dense(x, cfg)
        for j, k in enumerate(cfg.lambda1.indices):
            col = conv_oracle(
                x, np.eye(len(cfg.lambda1))[j], cfg.lambda1, cfg.lambda2
            )
            assert rel_err(t[:, j], col) < 1e-13
