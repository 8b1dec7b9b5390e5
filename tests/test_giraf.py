import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slrecon.grid import IndexSet2D
from slrecon.lifting import (
    DENSE_GRAM_ENTRIES,
    KSpaceArray,
    LiftingConfig,
    _fft_gram,
    embed,
    gather,
    gram_matrix,
    lift_adjoint,
    lift_dense,
    lift_normal_matrix,
)
from slrecon.report import IterationRecord, snr_db
from slrecon.giraf import (
    CG_RESIDUAL_CUT,
    EPS0_FACTOR,
    EPS_MIN_FACTOR,
    IRLSConfig,
    NORMAL_MATRIX_ENTRIES,
    TRIANGULAR_BLOCK,
    cg_solve,
    giraf_solve,
    log_det_weights,
    mask_from_filters,
    normal_apply_approx,
    normal_apply_exact,
    normal_diag_approx,
    normal_diag_exact,
    schatten_penalty,
    weight_matrix,
    _lower_inverse,
    _spectral_weights,
)
from slrecon.phantom import (Phantom, SamplingMask, dirac_fourier, make_mask, phantom_fourier,
                             random_edge_polynomial, sample_kspace, zero_fill)

from conftest import (adjoint_apply, apply_filter, exact_apply_oracle, gram_bound, lifting_configs,
                      log_penalty, random_kspace)


def rel_err(a, b):
    return np.linalg.norm(np.ravel(a) - np.ravel(b)) / np.linalg.norm(np.ravel(b))


class TestSchattenPenalty:
    def test_nuclear_of_flat_spectrum(self):
        assert schatten_penalty([1.0, 1.0, 1.0], 1.0) == pytest.approx(3.0)

    def test_log_penalty(self):
        # p = 0 takes its penalty from log_det_weights; the sum of logs is
        # the tests' oracle for it
        assert log_penalty([np.e, np.e**2]) == pytest.approx(3.0)

    def test_half_power(self):
        assert schatten_penalty([4.0, 1.0], 0.5) == pytest.approx(6.0)

    @pytest.mark.parametrize("p", [0.0, -0.5, 1.5])
    def test_p_outside_half_open_unit_interval_rejected(self, p):
        with pytest.raises(ValueError, match=r"p must lie in \(0, 1\]"):
            schatten_penalty([1.0, 2.0], p)


def weight_mask(gram, eps, p, cfg):
    """Annihilating mask of the IRLS weights of a Gram matrix."""
    w, vecs = np.linalg.eigh(gram)
    return mask_from_filters(weight_matrix(w, vecs, eps, p), cfg)


def per_filter_mask(filters, cfg, shape=None):
    """Oracle: sum_j |size * ifft2(embed f_j)|^2, one filter at a time, on a
    grid of ``shape`` (the condensed operator's, ``cfg.mask_shape``, by
    default)."""
    shape = cfg.mask_shape if shape is None else shape
    acc = np.zeros(shape)
    for f in np.asarray(filters).T:
        g = embed(f.reshape(cfg.lambda1.extents), cfg.lambda1, shape)
        acc += np.abs(np.fft.ifft2(g) * g.size) ** 2
    return acc


def zero_sum_filter(n, seed):
    """A random filter whose response is exactly zero at u = 0; the lag-domain
    mask there is rounding that lands below zero about a third of the time."""
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    f[-1] = -f[:-1].sum()
    return f[:, None]


@st.composite
def irls_weights(draw):
    """Gram eigen-decomposition of random data with a smoothing level and p."""
    cfg = draw(lifting_configs())
    g = gram_matrix(random_kspace(cfg.gamma, draw(st.integers(0, 2**16))), cfg)
    w, vecs = np.linalg.eigh(g)
    eps = draw(st.sampled_from([1e-6, 1e-2, 1.0])) * max(w[-1], 1.0)
    return w, vecs, eps, draw(st.sampled_from([0.0, 0.5, 1.0])), cfg


@st.composite
def weighted_banks(draw):
    """IRLS square-root filter banks F = V diag(alpha)^(1/2) over the
    liftings above; optionally with one extra zero-sum filter."""
    w, vecs, eps, p, cfg = draw(irls_weights())
    filters = vecs * np.sqrt(_spectral_weights(w, eps, p))
    if cfg.n_filter > 1 and draw(st.booleans()):
        filters = np.hstack([filters, zero_sum_filter(cfg.n_filter, draw(st.integers(0, 2**16)))])
    return filters, cfg


class TestLagDomainMask:
    @settings(max_examples=60, deadline=None)
    @given(weighted_banks())
    def test_matches_per_filter_oracle(self, bank):
        filters, cfg = bank
        mask = mask_from_filters(filters @ filters.conj().T, cfg)
        oracle = per_filter_mask(filters, cfg)
        assert np.abs(mask - oracle).max() <= 1e-13 * oracle.max()

    @pytest.mark.parametrize("grid,filt,shift", [((8, 1), (2, 1), 0), ((9, 6), (3, 2), 2)])
    def test_zero_response_filters_are_clamped(self, grid, filt, shift):
        # [1, -1] and zero-sum filters vanish at u = 0; negative rounding there
        # must be clamped, not rejected, also for a filter shifted off-centre
        lambda1 = IndexSet2D.rect(*filt, offset=(shift, 0))
        cfg = LiftingConfig.make(IndexSet2D.rect(*grid), lambda1)
        pair = np.zeros((cfg.n_filter, 1))
        pair[0], pair[-1] = 1.0, -1.0
        for filters in [pair] + [zero_sum_filter(cfg.n_filter, seed) for seed in range(20)]:
            mask = mask_from_filters(filters @ filters.conj().T, cfg)
            oracle = per_filter_mask(filters, cfg)
            assert mask.min() >= 0.0
            assert np.abs(mask - oracle).max() <= 1e-13 * oracle.max()

    @settings(max_examples=60, deadline=None)
    @given(lifting_configs(), st.integers(0, 2**16))
    def test_mean_is_trace(self, cfg, seed):
        # the mask's mean is its lag-0 coefficient, and a lag between two taps
        # wraps to 0 on the mask's grid only when the taps coincide
        rng = np.random.default_rng(seed)
        n = cfg.n_filter
        f = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        wm = f @ f.conj().T / n
        trace = np.trace(wm).real
        assert abs(mask_from_filters(wm, cfg).mean() - trace) <= 1e-12 * trace

    @pytest.mark.parametrize("extent,filt,length", [
        (129, 15, 160), (127, 15, 160), (257, 15, 288), (65, 15, 96), (17, 5, 25),
        (14, 3, 18), (5, 1, 5), (17, 1, 18)])
    def test_grid_length_rule(self, extent, filt, length):
        # the fast length next_fast_len(e + 2f - 2), which holds the linear
        # convolution with the lags |d| <= f - 1 unwrapped; 129 = 3 * 43 is
        # slow for pocketfft, 160 = 2^5 * 5 is not
        cfg = LiftingConfig.make(IndexSet2D.rect(extent, 1), IndexSet2D.rect(filt, 1))
        assert cfg.mask_shape == (length, 1)

    def test_indefinite_weights_rejected(self):
        # -I is no W = F F^H: its mask is a negative constant, past any clamp
        cfg = LiftingConfig.make(IndexSet2D.rect(9, 9), IndexSet2D.rect(3, 3))
        with pytest.raises(ValueError, match="non-negative"):
            mask_from_filters(-np.eye(cfg.n_filter), cfg)


class TestWeightMatrix:
    @settings(max_examples=60, deadline=None)
    @given(irls_weights())
    def test_is_product_of_square_root_bank(self, weights):
        w, vecs, eps, p, _ = weights
        bank = vecs * np.sqrt(_spectral_weights(w, eps, p))
        assert rel_err(weight_matrix(w, vecs, eps, p), bank @ bank.conj().T) <= 1e-12

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError, match="eps"):
            weight_matrix(np.ones(2), np.eye(2), 0.0, 1.0)


class TestLogDetWeights:
    """The p = 0 weights by Cholesky against the eigen-decomposition's.

    Both are backward-stable inverses of G + eps I, so beyond the 1e-10 the
    comparison allows where the Gram has full rank, they may differ by about
    N u lambda_max / eps (u the unit round-off): a rank-deficient Gram's
    null-space eigenvalues are only resolved to about N u lambda_max, a
    relative error of that size in (lambda + eps)^-1."""

    @staticmethod
    def gram_and_spectrum(cfg, seed):
        gram = gram_matrix(random_kspace(cfg.gamma, seed), cfg)
        return gram, np.linalg.eigh(gram)

    @staticmethod
    def round_off(gram, lam_max, eps):
        return len(gram) * np.finfo(float).eps * lam_max / eps

    @settings(max_examples=60, deadline=None)
    @given(lifting_configs(), st.integers(0, 2**16), st.sampled_from([1e-2, 1e-6, 1e-12]))
    def test_equals_eigen_weights(self, cfg, seed, factor):
        gram, (w, vecs) = self.gram_and_spectrum(cfg, seed)
        eps = factor * w[-1]
        wm, _ = log_det_weights(gram, eps)
        assert rel_err(wm, weight_matrix(w, vecs, eps, 0.0)) <= (
            1e-10 + self.round_off(gram, w[-1], eps))

    @settings(max_examples=60, deadline=None)
    @given(lifting_configs(), st.integers(0, 2**16), st.sampled_from([1e-2, 1e-6, 1e-8]))
    def test_penalty_is_log_penalty(self, cfg, seed, factor):
        # sum log diag(L) = sum_i log sqrt(lambda_i + eps); each term may move
        # by the round-off above, so it bounds the sum's absolute error
        gram, (w, _) = self.gram_and_spectrum(cfg, seed)
        eps = factor * w[-1]
        _, penalty = log_det_weights(gram, eps)
        expected = log_penalty(np.sqrt(np.maximum(w, 0.0) + eps))
        assert abs(penalty - expected) <= (
            1e-9 * abs(expected) + self.round_off(gram, w[-1], eps))

    @pytest.mark.parametrize("n", [1, 32, 33, 225])
    def test_blocked_inverse_matches_inv(self, n):
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        low = np.linalg.cholesky(a @ a.conj().T + n * np.eye(n))
        inv = _lower_inverse(low)
        if n <= TRIANGULAR_BLOCK:
            assert np.array_equal(inv, np.linalg.inv(low))
        else:
            assert rel_err(inv, np.linalg.inv(low)) <= 1e-12
            assert not np.triu(inv, 1).any()

    @pytest.mark.parametrize("n", [1, 2, 32, 33, 225])
    def test_weights_are_the_inverse_factor_gram(self, n):
        # W = Linv^H Linv, the plain product of the blocked inverse
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        gram, eps = a @ a.conj().T, 1e-2 * n
        wm, _ = log_det_weights(gram, eps)
        linv = _lower_inverse(np.linalg.cholesky(gram + eps * np.eye(n)))
        assert np.array_equal(wm, linv.conj().T @ linv)

    def test_breakdown_names_eps(self):
        with pytest.raises(ValueError, match="broke down at eps 1.000e-03"):
            log_det_weights(-np.eye(3, dtype=complex), 1e-3)

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError, match="eps must be positive"):
            log_det_weights(np.eye(2, dtype=complex), 0.0)


class TestGramRoute:
    @settings(max_examples=60, deadline=None)
    @given(lifting_configs(), st.integers(0, 2**16))
    def test_dense_route_matches_fft_oracle(self, cfg, seed):
        # every drawn lifting is small enough to be multiplied out
        assert np.prod(cfg.lifted_shape) <= DENSE_GRAM_ENTRIES
        x = random_kspace(cfg.gamma, seed)
        a = np.stack([apply_filter(x, e, cfg) for e in np.eye(cfg.n_filter)], axis=1)
        gram = gram_matrix(x, cfg)
        assert np.abs(gram - a.conj().T @ a).max() <= 1e-12 * gram_bound(x, cfg)
        assert np.array_equal(gram, gram.conj().T)

    @pytest.mark.parametrize("operator", ["approximate", "exact"])
    def test_gram_follows_the_size(self, monkeypatch, operator):
        # either operator takes gram_matrix once per outer iteration, and the
        # lifting's size alone picks the route: 9^2/3^2 (882 lifted entries)
        # is multiplied out, 33^2/5^2 (42,050) goes through _fft_gram
        from slrecon import giraf, lifting

        grams, ffts = [], []
        monkeypatch.setattr(giraf, "gram_matrix", lambda *a: grams.append(a) or gram_matrix(*a))
        monkeypatch.setattr(lifting, "_fft_gram", lambda *a: ffts.append(a) or _fft_gram(*a))
        for n, f, fft_grams in [(9, 3, 0), (33, 5, 2)]:
            gamma = IndexSet2D.rect(n, n)
            mask = make_mask(gamma, "uniform", 1.5, seed=3)
            b = sample_kspace(random_kspace(gamma, 5), mask)
            cfg = LiftingConfig.make(gamma, IndexSet2D.rect(f, f), "gradient")
            assert (np.prod(cfg.lifted_shape) > DENSE_GRAM_ENTRIES) == (fft_grams > 0)
            irls = IRLSConfig(p=0.0, lam=1e3, operator=operator, max_outer=2, cg_max=20,
                              convergence_tol=1e-300)
            _, rep = giraf_solve(b, mask, cfg, irls)
            assert rep.n_iterations == 2
            assert (len(grams), len(ffts)) == (2, fft_grams)
            grams.clear()
            ffts.clear()


def dft_matrix(n):
    return np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)


class TestWeightUpdate:
    def test_single_delta_filter_gives_flat_mask(self):
        gamma = IndexSet2D.rect(5, 5)
        cfg = LiftingConfig.make(gamma, IndexSet2D.rect(1, 1))
        mask = weight_mask(np.eye(1), 1e-12, 1.0, cfg)
        assert np.allclose(mask, mask.flat[0])

    def test_matches_direct_dft_oracle(self):
        gamma = IndexSet2D.rect(8, 8)
        cfg = LiftingConfig.make(gamma, IndexSet2D.rect(3, 3))
        x = random_kspace(gamma, 0)
        g = gram_matrix(x, cfg)
        eps = 1e-3 * np.linalg.eigvalsh(g)[-1]
        mask = weight_mask(g, eps, 0.0, cfg)
        w, vecs = np.linalg.eigh(0.5 * (g + g.conj().T))
        alpha = (np.maximum(w, 0) + eps) ** (-1.0)
        n1, n2 = cfg.mask_shape
        u1 = np.arange(n1)
        u2 = np.arange(n2)
        direct = np.zeros((n1, n2))
        for i in range(vecs.shape[1]):
            gam = np.zeros((n1, n2), dtype=complex)
            for (k1, k2), hv in zip(cfg.lambda1.indices, vecs[:, i]):
                gam += hv * np.exp(
                    2j * np.pi * (k1 * u1[:, None] / n1 + k2 * u2[None, :] / n2)
                )
            direct += alpha[i] * np.abs(gam) ** 2
        assert np.abs(mask - direct).max() < 1e-10 * direct.max()

    def test_mask_nonnegative_and_invariant_to_unitary_mixing(self):
        gamma = IndexSet2D.rect(10, 10)
        cfg = LiftingConfig.make(gamma, IndexSet2D.rect(3, 3), "gradient")
        x = random_kspace(gamma, 5)
        g = gram_matrix(x, cfg)
        w, vecs = np.linalg.eigh(0.5 * (g + g.conj().T))
        eps = 1e-4 * w[-1]
        alpha = _spectral_weights(w, eps, 0.5)
        bank = vecs * np.sqrt(alpha)
        rng = np.random.default_rng(7)
        q = np.linalg.qr(rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9)))[0]
        m1 = mask_from_filters(bank @ bank.conj().T, cfg)
        m2 = mask_from_filters((bank @ q) @ (bank @ q).conj().T, cfg)
        assert m1.min() >= 0.0
        assert np.abs(m1 - m2).max() < 1e-10 * m1.max()

    def test_null_space_dominates_mask(self):
        # weights are decreasing in the eigenvalue, so near-null filters carry
        # far more mask weight than strong row-space filters
        eps = 1e-6
        alpha = _spectral_weights(np.array([0.0, 1.0]), eps, 0.0)
        assert alpha[0] / alpha[1] > 1e5

    def test_scaling_consistency(self):
        # scaling data by c scales eigenvalues by c^2; with eps scaled by c^2
        # the mask picks up the global factor c^(p-2)
        gamma = IndexSet2D.rect(8, 8)
        cfg = LiftingConfig.make(gamma, IndexSet2D.rect(3, 3))
        x = random_kspace(gamma, 9)
        c = 3.7
        xc = KSpaceArray(gamma, c * x.values)
        g1 = gram_matrix(x, cfg)
        g2 = gram_matrix(xc, cfg)
        w1 = np.linalg.eigvalsh(0.5 * (g1 + g1.conj().T))
        w2 = np.linalg.eigvalsh(0.5 * (g2 + g2.conj().T))
        assert rel_err(w2, c**2 * w1) < 1e-10
        p = 0.5
        eps = 1e-3 * w1[-1]
        m1 = weight_mask(g1, eps, p, cfg)
        m2 = weight_mask(g2, c**2 * eps, p, cfg)
        assert rel_err(m2, c ** (p - 2) * m1) < 1e-9


class TestNormalOperators:
    def test_flat_mask_is_parseval_identity(self):
        gamma = IndexSet2D.rect(9, 9)
        cfg = LiftingConfig.make(gamma, IndexSet2D.rect(3, 3))
        x = random_kspace(gamma, 11)
        flat = np.ones(cfg.mask_shape)
        out = normal_apply_approx(x.values, flat, cfg)
        assert rel_err(out, x.values) < 1e-12

    @pytest.mark.parametrize("weighting", ["identity", "gradient"])
    def test_approx_matches_dense_dft_assembly(self, weighting):
        # the oracle places gamma at its signed indices mod n; the operator
        # works unplaced on gamma's array, so off-centre and odd-by-even
        # gammas check that the placement drops out.  The operator's FFTs run
        # on a longer grid and fold back, while the oracle samples the mask
        # on gamma's array itself: odd, even and 1-D filters, and prime
        # extents, check that the fold leaves the circular convolution there
        for extents, offset, filt, filt_offset in [
                ((16, 16), (0, 0), (3, 3), (0, 0)), ((12, 9), (3, -2), (3, 3), (0, 0)),
                ((16, 15), (0, 0), (3, 3), (0, 0)), ((17, 17), (0, 0), (5, 5), (0, 0)),
                ((19, 6), (3, -2), (3, 3), (1, -1)), ((43, 1), (0, 0), (7, 1), (0, 0)),
                ((17, 17), (0, 0), (4, 4), (0, 0))]:
            gamma = IndexSet2D.rect(*extents, offset=offset)
            cfg = LiftingConfig.make(gamma, IndexSet2D.rect(*filt, offset=filt_offset),
                                     weighting)
            x = random_kspace(gamma, 17)
            w, vecs = np.linalg.eigh(gram_matrix(x, cfg))
            filters = vecs * np.sqrt(_spectral_weights(w, 1e-2 * w[-1], 0.0))
            mask = mask_from_filters(filters @ filters.conj().T, cfg)
            out = normal_apply_approx(x.values, mask, cfg)
            # independent dense route: explicit DFT matrices
            mask = per_filter_mask(filters, cfg, gamma.extents)
            n1, n2 = gamma.extents
            f1, f2 = dft_matrix(n1), dft_matrix(n2)
            f1i, f2i = np.conj(f1) / n1, np.conj(f2) / n2
            acc = np.zeros_like(x.values)
            for w in cfg.multipliers:
                grid = embed(w * x.values, gamma, gamma.extents)
                spatial = f1i @ grid @ f2i.T
                back = f1 @ (mask * spatial) @ f2.T
                acc = acc + w * gather(back, gamma)
            assert rel_err(out, acc) < 1e-10

    @pytest.mark.parametrize("weighting", ["identity", "gradient"])
    def test_exact_matches_dense_lift_assembly(self, weighting):
        gamma = IndexSet2D.rect(16, 16)
        cfg = LiftingConfig.make(gamma, IndexSet2D.rect(3, 3), weighting)
        x = random_kspace(gamma, 19)
        g = gram_matrix(x, cfg)
        w, vecs = np.linalg.eigh(0.5 * (g + g.conj().T))
        filters = vecs * np.sqrt(_spectral_weights(w, 1e-2 * w[-1], 0.0))
        m = gamma.extents[0] * gamma.extents[1]
        r_dense = np.zeros((m, m), dtype=complex)
        for i in range(filters.shape[1]):
            li = np.zeros((cfg.lifted_shape[0], m), dtype=complex)
            for c in range(m):
                e = np.zeros(m)
                e[c] = 1.0
                li[:, c] = lift_dense(KSpaceArray(gamma, e.reshape(gamma.extents)), cfg) @ filters[:, i]
            r_dense += li.conj().T @ li
        out = normal_apply_exact(x.values, weight_matrix(w, vecs, 1e-2 * w[-1], 0.0), cfg)
        expect = (r_dense @ x.values.ravel()).reshape(gamma.extents)
        assert rel_err(out, expect) < 1e-9

    def test_exact_with_delta_filter_is_window_restriction(self):
        gamma = IndexSet2D.rect(9, 9)
        cfg = LiftingConfig.make(gamma, IndexSet2D.rect(3, 3))
        h = np.zeros((9, 1), dtype=complex)
        h[4, 0] = 1.0
        x = random_kspace(gamma, 23)
        out = normal_apply_exact(x.values, h @ h.conj().T, cfg)
        window = np.zeros(gamma.extents)
        rel = cfg.lambda2.indices - gamma.kmin
        window[rel[:, 0], rel[:, 1]] = 1.0
        assert rel_err(out, window * x.values) < 1e-12


def exact_apply_bound(wm, xv, cfg):
    """A bound on ||T^*(T(x) W)||: T^*T is diagonal with entries at most
    N max|w|^2, so the term's norm is at most that times ||W||."""
    lift_sq = cfg.n_filter * max(np.abs(w).max() ** 2 for w in cfg.multipliers)
    return lift_sq * np.linalg.norm(wm, 2) * np.linalg.norm(xv)


class TestExactOperatorOracle:
    @settings(max_examples=60, deadline=None)
    @given(weighted_banks(), st.integers(0, 2**16))
    def test_matches_per_filter_fft_oracle(self, bank, seed):
        filters, cfg = bank
        x = random_kspace(cfg.gamma, seed)
        wm = filters @ filters.conj().T
        out = normal_apply_exact(x.values, wm, cfg)
        expect = np.zeros_like(x.values)
        for f in filters.T:
            expect = expect + adjoint_apply(apply_filter(x, f, cfg), f, cfg).values
        # relative to a bound on the operator's norm: T(x) may vanish (or
        # nearly so) while the FFT oracle still rounds at the scale of x
        assert np.linalg.norm(out - expect) <= 1e-12 * exact_apply_bound(wm, x.values, cfg)


class TestExactApplyComposition:
    @settings(max_examples=60, deadline=None)
    @given(lifting_configs(), st.integers(0, 2**16))
    def test_equals_the_checked_composition(self, cfg, seed):
        # the unchecked gather changes no bit of the checked lifting's result
        rng = np.random.default_rng(seed)
        n = cfg.n_filter
        f = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        wm = f @ f.conj().T
        xv = random_kspace(cfg.gamma, seed + 1).values
        out = normal_apply_exact(xv, wm, cfg)
        assert out.dtype == np.complex128 and out.shape == cfg.gamma.extents
        assert np.array_equal(out, exact_apply_oracle(xv, wm, cfg))


class TestExactMatrixRoute:
    @settings(max_examples=60, deadline=None)
    @given(lifting_configs(), st.integers(0, 2**16))
    def test_matvec_matches_the_oracle(self, cfg, seed):
        # every drawn lifting takes the matrix route
        assert len(cfg.gamma) ** 2 <= NORMAL_MATRIX_ENTRIES
        rng = np.random.default_rng(seed)
        n = cfg.n_filter
        f = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        wm = f @ f.conj().T
        xv = random_kspace(cfg.gamma, seed + 1).values
        matrix = lift_normal_matrix(wm, cfg)
        out = (matrix @ xv.ravel()).reshape(cfg.gamma.extents)
        assert matrix.shape == (len(cfg.gamma),) * 2 and matrix.dtype == np.complex128
        assert (np.linalg.norm(out - exact_apply_oracle(xv, wm, cfg))
                <= 1e-12 * exact_apply_bound(wm, xv, cfg))
        # rebuilt in place over another weight matrix's result, in the flat
        # buffer with its spare entry, as giraf_solve does at every outer
        # iteration: a view of that buffer, the same bits as a fresh build
        buffer = np.zeros(len(cfg.gamma) ** 2 + 1, dtype=np.complex128)
        lift_normal_matrix(wm, cfg, out=buffer)
        wm2 = wm @ wm
        rebuilt = lift_normal_matrix(wm2, cfg, out=buffer)
        assert np.shares_memory(rebuilt, buffer)
        assert np.array_equal(rebuilt, lift_normal_matrix(wm2, cfg))

    @pytest.mark.parametrize("grid, filt, weighting, route", [
        ((17, 17), (5, 5), "gradient", "matrix"),
        ((64, 1), (8, 1), "identity", "matrix"),
        ((33, 33), (5, 5), "gradient", "lifted"),
    ])
    def test_route_follows_the_size(self, monkeypatch, grid, filt, weighting, route):
        # the matrix is built once per outer iteration and each CG step is
        # its matvec; the lifted apply runs only where the matrix is not built
        from slrecon import giraf

        builds, applies = [], []
        monkeypatch.setattr(giraf, "lift_normal_matrix",
                            lambda *a, **k: builds.append(a) or lift_normal_matrix(*a, **k))
        monkeypatch.setattr(giraf, "normal_apply_exact",
                            lambda *a: applies.append(a) or normal_apply_exact(*a))
        gamma = IndexSet2D.rect(*grid)
        mask = make_mask(gamma, "uniform", 1.5, seed=3)
        b = sample_kspace(random_kspace(gamma, 5), mask)
        cfg = LiftingConfig.make(gamma, IndexSet2D.rect(*filt), weighting)
        irls = IRLSConfig(p=0.0, lam=1e3, operator="exact", max_outer=2, cg_max=20,
                          convergence_tol=1e-300)
        _, rep = giraf_solve(b, mask, cfg, irls)
        cg_steps = sum(r.cg_iters for r in rep.iterations)
        assert rep.n_iterations == 2 and cg_steps > 0
        if route == "matrix":
            assert (len(builds), len(applies)) == (2, 0)
        else:
            assert (len(builds), len(applies)) == (0, cg_steps + 2)


class TestCG:
    def test_solves_hermitian_system(self):
        rng = np.random.default_rng(29)
        a = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        mat = a.conj().T @ a + 0.5 * np.eye(12)
        rhs = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        op = lambda v: (mat @ v.ravel()).reshape(v.shape)
        x, info = cg_solve(op, np.ones(12), rhs, np.zeros_like(rhs), 1e-12, 200)
        assert info["cg_stop_reason"] == "converged"
        assert rel_err(x, np.linalg.solve(mat, rhs)) < 1e-10

    def test_quadratic_objective_decreases(self):
        rng = np.random.default_rng(31)
        a = rng.standard_normal((20, 20))
        mat = a.T @ a + np.eye(20)
        rhs = rng.standard_normal(20)
        op = lambda v: mat @ v

        phis = []

        def tracking_op(v):
            return op(v)

        x = np.zeros(20)
        r = rhs - op(x)
        p = r.copy()
        rs = np.vdot(r, r).real
        for _ in range(15):
            ap = op(p)
            alpha = rs / np.vdot(p, ap).real
            x = x + alpha * p
            r = r - alpha * ap
            rs_new = np.vdot(r, r).real
            phis.append(0.5 * np.vdot(x, mat @ x).real - np.vdot(rhs, x).real)
            p = r + (rs_new / rs) * p
            rs = rs_new
        assert all(b <= a + 1e-12 for a, b in zip(phis, phis[1:]))

    def test_zero_rhs(self):
        op = lambda v: v
        x, info = cg_solve(op, np.ones(5), np.zeros(5), np.ones(5), 1e-10, 10)
        assert np.allclose(x, 0.0)
        assert info["cg_stop_reason"] == "converged"

    def test_zero_rhs_returns_complex_zeros_without_an_apply(self):
        calls = []
        x, info = cg_solve(lambda v: calls.append(v) or v, np.ones(5), np.zeros(5, complex),
                           np.ones(5), 1e-10, 10)
        assert x.dtype == np.complex128 and np.array_equal(x, np.zeros(5))
        assert calls == [] and info["cg_iters"] == 0

    def test_indefinite_operator_reports_stop_reason(self):
        x, info = cg_solve(lambda v: -v, np.ones(5), np.ones(5), np.zeros(5), 1e-10, 10)
        assert info["cg_stop_reason"] == "indefinite"
        assert info["cg_iters"] == 0

    def test_iteration_cap_reports_stop_reason(self):
        mat = np.diag(np.arange(1.0, 9.0))
        _, info = cg_solve(lambda v: mat @ v, np.ones(8), np.ones(8), np.zeros(8), 1e-14, 2)
        assert info["cg_stop_reason"] == "max_iter"
        assert info["cg_iters"] == 2

    @pytest.mark.parametrize("op, rhs, maxiter, reason", [
        (lambda v: 2.0 * v, np.ones(5), 10, "converged"),
        (lambda v: np.arange(1.0, 6.0) * v, np.ones(5), 2, "max_iter"),
        (lambda v: -v, np.ones(5), 10, "indefinite"),
        (lambda v: v, np.zeros(5), 10, "converged"),
    ], ids=["converged", "capped", "indefinite", "zero-rhs"])
    def test_info_is_keyed_by_record_fields(self, op, rhs, maxiter, reason):
        # giraf_solve builds each record from the info dict as it stands
        _, info = cg_solve(op, np.ones(5), rhs, np.zeros(5), 1e-14, maxiter)
        assert info["cg_stop_reason"] == reason
        assert set(info) <= {f.name for f in dataclasses.fields(IterationRecord)}

    def test_stops_on_the_unpreconditioned_residual(self):
        # a badly scaled diagonal makes the preconditioned residual D^-1 r
        # far smaller than r, so stopping on it would stop early
        rng = np.random.default_rng(37)
        a = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30))
        scale = np.logspace(3, 5, 30)
        mat = scale[:, None] * (a.conj().T @ a / 30 + np.eye(30)) * scale
        rhs = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        tol = 1e-6
        x, info = cg_solve(lambda v: mat @ v, np.diag(mat).real, rhs, np.zeros(30), tol, 500)
        true_rel = np.linalg.norm(rhs - mat @ x) / np.linalg.norm(rhs)
        assert info["cg_stop_reason"] == "converged" and info["cg_iters"] > 1
        assert true_rel <= tol
        assert info["cg_residual"] == pytest.approx(true_rel, rel=1e-3)

    def test_start_within_tol_still_cuts_its_residual(self):
        # a warm start already within tol ||rhs|| must not return unchanged
        rng = np.random.default_rng(41)
        a = rng.standard_normal((12, 12))
        mat = a.T @ a + np.eye(12)
        rhs = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        x0 = np.linalg.solve(mat, rhs) + 1e-6 * rng.standard_normal(12)
        r0 = np.linalg.norm(rhs - mat @ x0)
        tol = 1e-3
        assert r0 <= tol * np.linalg.norm(rhs)
        x, info = cg_solve(lambda v: mat @ v, np.diag(mat), rhs, x0, tol, 100)
        assert info["cg_stop_reason"] == "converged" and info["cg_iters"] >= 1
        assert np.linalg.norm(rhs - mat @ x) <= CG_RESIDUAL_CUT * r0
        assert info["cg_start_residual"] == pytest.approx(r0 / np.linalg.norm(rhs), rel=1e-6)


    def test_updates_only_its_own_buffers(self):
        # CG updates x, r, z and p in place: an op that returns its argument
        # (the identity, several steps under a diagonal of distinct entries)
        # or one cached buffer on every call must give what a fresh-returning
        # op gives, and x0, rhs and diag must come back unchanged
        rng = np.random.default_rng(43)
        a = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        mat = a.conj().T @ a + 0.5 * np.eye(12)
        cached = np.empty(12, dtype=complex)

        def cached_op(v):
            cached[...] = mat @ v
            return cached

        rhs = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        x0 = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        diag = rng.uniform(1.0, 4.0, 12)
        for op, fresh in [(lambda v: v, lambda v: v.copy()), (cached_op, lambda v: mat @ v)]:
            args = (diag, rhs, x0)
            kept = [arr.copy() for arr in args]
            x, info = cg_solve(op, diag, rhs, x0, 1e-12, 100)
            x_ref, info_ref = cg_solve(fresh, *(arr.copy() for arr in kept), 1e-12, 100)
            assert info["cg_iters"] > 2 and info["cg_stop_reason"] == "converged"
            assert np.array_equal(x, x_ref) and info == info_ref
            assert all(np.array_equal(arr, k) for arr, k in zip(args, kept))


def dense_matrix(op, extents):
    """The operator's matrix over gamma-shaped arrays, one basis vector a column."""
    m = extents[0] * extents[1]
    return np.stack([op(e.reshape(extents)).ravel() for e in np.eye(m)], axis=1)


def random_normal_problem(cfg, seed, definite):
    """A data term lam P for a random lam and sampling pattern, and both
    annihilation terms, with their diagonals, for a random positive definite
    weight matrix.  If ``definite``, the pattern also samples every row the
    lifting leaves empty (DC under gradient weighting), which makes both
    systems, lam P plus a term, positive definite."""
    rng = np.random.default_rng(seed)
    n = cfg.n_filter
    f = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    wm = f @ f.conj().T / n
    theta = (rng.random(cfg.gamma.extents) < 0.5).astype(float)
    if definite:
        theta[normal_diag_exact(wm, cfg) == 0.0] = 1.0
    data = float(rng.uniform(0.1, 10.0)) * theta
    mask = mask_from_filters(wm, cfg)
    return data, {
        "approximate": (lambda v: normal_apply_approx(v, mask, cfg), normal_diag_approx(wm, cfg)),
        "exact": (lambda v: normal_apply_exact(v, wm, cfg), normal_diag_exact(wm, cfg)),
    }


class TestJacobiDiagonal:
    @settings(max_examples=60, deadline=None)
    @given(lifting_configs(), st.integers(0, 2**16))
    def test_lifting_reads_all_of_gamma(self, cfg, seed):
        # the windows read every index of gamma and nothing outside it, so
        # the exact diagonal is positive except at DC, if gamma holds it,
        # under gradient weighting
        reads = cfg.lift_geometry.ravel()
        assert reads.min() >= 0 and reads.max() < len(cfg.gamma)
        assert np.all(np.bincount(reads, minlength=len(cfg.gamma)) > 0)
        rng = np.random.default_rng(seed)
        n = cfg.n_filter
        f = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        diag = normal_diag_exact(f @ f.conj().T, cfg)
        empty = np.argwhere(diag <= 0) + cfg.gamma.kmin
        has_dc = cfg.gamma.contains(IndexSet2D.rect(1, 1))
        assert empty.tolist() == ([[0, 0]] if cfg.weighting == "gradient" and has_dc else [])

    @settings(max_examples=30, deadline=None)
    @given(lifting_configs(), st.integers(0, 2**16))
    def test_equals_dense_diagonal(self, cfg, seed):
        _, terms = random_normal_problem(cfg, seed, definite=False)
        for term, diag in terms.values():
            dense = np.diag(dense_matrix(term, cfg.gamma.extents))
            assert np.abs(diag.ravel() - dense).max() <= 1e-12 * np.abs(dense).max()

    @settings(max_examples=30, deadline=None)
    @given(lifting_configs(), st.integers(0, 2**16))
    def test_preconditioned_and_plain_cg_agree(self, cfg, seed):
        # both stop with ||rhs - A x|| <= tol ||rhs||, so their solutions
        # differ by at most 2 tol ||rhs|| / lambda_min(A)
        tol = 1e-8
        rhs = random_kspace(cfg.gamma, seed + 1).values
        data, terms = random_normal_problem(cfg, seed, definite=True)
        for term, term_diag in terms.values():
            op = lambda v: data * v + term(v)
            diag = data + term_diag
            lam_min = np.linalg.eigvalsh(dense_matrix(op, cfg.gamma.extents))[0]
            x0 = np.zeros_like(rhs)
            maxiter = 20 * rhs.size
            x_pcg, info_pcg = cg_solve(op, diag, rhs, x0, tol, maxiter)
            x_cg, info_cg = cg_solve(op, np.ones(rhs.shape), rhs, x0, tol, maxiter)
            assert info_pcg["cg_stop_reason"] == info_cg["cg_stop_reason"] == "converged"
            bound = 2 * tol * np.linalg.norm(rhs) / lam_min
            assert np.linalg.norm(x_pcg - x_cg) <= 1.01 * bound


def brute_force_irls_iteration(b, mask, cfg_lift, p, lam, eps0_factor, condensed=False):
    """Dense reference for one IRLS iteration: dense weight matrix from the
    Gram eigen-decomposition, dense normal equations, direct solve.  The
    annihilation term is the dense lifting's or, if ``condensed``, the
    matrix of ``normal_apply_approx`` on the mask of the same weights."""
    gamma = cfg_lift.gamma
    m = gamma.extents[0] * gamma.extents[1]
    x0 = zero_fill(b, mask).values
    t0 = lift_dense(KSpaceArray(gamma, x0), cfg_lift)
    gram = t0.conj().T @ t0
    w, vecs = np.linalg.eigh(0.5 * (gram + gram.conj().T))
    eps = eps0_factor * w[-1]
    alpha = (np.maximum(w, 0.0) + eps) ** (p / 2.0 - 1.0)
    wm = (vecs * alpha) @ vecs.conj().T
    if condensed:
        cmask = mask_from_filters(wm, cfg_lift)
        term = dense_matrix(lambda v: normal_apply_approx(v, cmask, cfg_lift), gamma.extents)
    else:
        # dense normal matrix R[a, b] = <T(e_a), T(e_b) W> from the lifted basis
        basis = np.stack([lift_dense(KSpaceArray(gamma, e.reshape(gamma.extents)), cfg_lift)
                          for e in np.eye(m)])
        term = basis.conj().reshape(m, -1) @ (basis @ wm).reshape(m, -1).T
    r_dense = lam * np.diag(mask.sampled.ravel()) + term
    rhs = lam * x0.ravel()
    return np.linalg.solve(r_dense, rhs).reshape(gamma.extents)


def dirac_stream_problem(seed):
    """Five well separated Diracs on a 64x1 grid, sampled by a uniform mask
    drawn with ``seed``, and the exact operator's settings with an 8x1
    filter (acceptance criterion 8): (truth, b, mask, lifting, cfg)."""
    locs = [0.08, 0.31, 0.52, 0.74, 0.9]
    amps = np.array([1.0, -0.7 + 0.3j, 0.9, 1.2j, -0.5])
    gamma = IndexSet2D.rect(64, 1)
    truth = dirac_fourier([(x, 0.0) for x in locs], amps, gamma)
    mask = make_mask(gamma, "uniform", acceleration=2.0, seed=seed)
    lifting = LiftingConfig.make(gamma, IndexSet2D.rect(8, 1), "identity")
    cfg = IRLSConfig(p=0.0, lam=1e8, operator="exact", max_outer=40,
                     eps_decay=1.5, cg_tol=1e-13, cg_max=3000, convergence_tol=1e-10)
    return truth, sample_kspace(truth, mask), mask, lifting, cfg


def dirac_stream_recovery(seed):
    """``dirac_stream_problem`` recovered; returns the mask and the relative
    error."""
    truth, b, mask, lifting, cfg = dirac_stream_problem(seed)
    rec, _ = giraf_solve(b, mask, lifting, cfg)
    return mask, rel_err(rec.values, truth.values)


def sweep_problem(count, seed):
    """One trial of the 17x17 phase-transition sweep: acceptance criterion
    9's phantom, a 5x5 filter under gradient weighting and
    ``phase_transition``'s solver settings, sampled by a uniform mask of
    ``count`` samples drawn with ``seed``: (b, mask, lifting, cfg)."""
    gamma = IndexSet2D.rect(17, 17)
    edge = random_edge_polynomial(IndexSet2D.rect(3, 3), seed=6)
    truth = phantom_fourier(Phantom(edge, (1.0, 0.0), oversample=8), gamma)
    mask = make_mask(gamma, "uniform", acceleration=len(gamma) / count, seed=seed)
    lifting = LiftingConfig.make(gamma, IndexSet2D.rect(5, 5), "gradient")
    cfg = IRLSConfig(p=0.0, lam=1e9, max_outer=15, cg_tol=1e-8, cg_max=400,
                     convergence_tol=1e-7, operator="exact")
    return sample_kspace(truth, mask), mask, lifting, cfg


class TestExactDescent:
    @pytest.mark.parametrize("route", ["matrix", "lifted"])
    @pytest.mark.parametrize("problem", ["sweep", "fri"])
    def test_objective_never_rises(self, monkeypatch, problem, route):
        self.check_descent(monkeypatch, problem, route, p=0.0)

    @pytest.mark.parametrize("p", [0.5, 1.0])
    @pytest.mark.parametrize("route", ["matrix", "lifted"])
    @pytest.mark.parametrize("problem", ["sweep", "fri"])
    def test_schatten_objective_never_rises(self, monkeypatch, problem, route, p):
        self.check_descent(monkeypatch, problem, route, p)

    @staticmethod
    def check_descent(monkeypatch, problem, route, p):
        # At fixed eps an IRLS step is a majorize-minimize step: the penalty,
        # the log-det at p = 0 and (1/p) tr((G + eps I)^(p/2)) at p > 0, is
        # concave in the Gram, so its tangent majorizes it, and CG from the
        # warm start lowers that quadratic surrogate; a smaller eps lowers
        # the penalty at a fixed x.  Record n's objective is
        # J_{eps_n}(x_{n-1}), so on the exact operator, whose term and Gram
        # come from one lifting, no record may exceed the one before it by
        # more than both records' round-off.
        from slrecon import giraf

        if problem == "sweep":
            b, mask, lifting, cfg = sweep_problem(190, seed=0)
        else:
            _, b, mask, lifting, cfg = dirac_stream_problem(seed=1)
        cfg = dataclasses.replace(cfg, p=p)
        assert len(lifting.gamma) ** 2 <= NORMAL_MATRIX_ENTRIES  # the matrix route
        if route == "lifted":
            monkeypatch.setattr(giraf, "NORMAL_MATRIX_ENTRIES", 0)
        traces = []

        def traced_gram(*args):
            gram = gram_matrix(*args)
            traces.append(float(np.trace(gram).real))
            return gram

        monkeypatch.setattr(giraf, "gram_matrix", traced_gram)
        _, rep = giraf_solve(b, mask, lifting, cfg)
        recs = rep.iterations
        assert len(recs) == len(traces) >= 5
        # The round-off of a record, from the penalty's conditioning.  The
        # Gram is multiplied out (the dense route), each entry a sum of
        # ``rows`` products, so it is off by at most gamma_rows trace(G) in
        # the Frobenius norm.  At p = 0 the Cholesky of G + eps I is
        # backward stable, off by at most gamma_(N+1) trace(G + eps I); at
        # p > 0 the eigenvalues come from eigh, exact for a matrix within
        # p(N) u ||G||_2 of G, taken here as gamma_(N^2) trace(G).  By
        # Weyl's theorem no eigenvalue of G + eps I moves by more than their
        # sum, delta.  Every eigenvalue is at least eps, where the penalty's
        # slope in each eigenvalue is at most (1/2) eps^(p/2 - 1), so the
        # penalty, a sum over N eigenvalues, moves by at most
        # N delta (1/2) eps^(p/2 - 1); at p > 0 its sum of N powers adds
        # gamma_(N+3) of it.  The data term, a sum of m squares, is off by
        # at most gamma_(m+2) of it.
        rows, n = lifting.lifted_shape
        assert rows * n <= DENSE_GRAM_ENTRIES

        def gamma_(k):
            unit = np.finfo(float).eps / 2
            return k * unit / (1 - k * unit)

        def penalty_tol(r, t):
            if p == 0:
                delta = gamma_(rows) * t + gamma_(n + 1) * (t + n * r.eps)
                return n * delta / (2 * r.eps)
            delta = (gamma_(rows) + gamma_(n * n)) * t
            return n * delta * 0.5 * r.eps ** (p / 2 - 1) + gamma_(n + 3) * abs(r.penalty)

        tols = [penalty_tol(r, t) + gamma_(mask.sampled.sum() + 2) * r.data_fit
                + gamma_(2) * abs(r.objective)
                for r, t in zip(recs, traces)]
        rises = [(k + 2, later.objective - earlier.objective, tol + tol_next)
                 for k, (earlier, later, tol, tol_next)
                 in enumerate(zip(recs, recs[1:], tols, tols[1:]))
                 if later.objective > earlier.objective + tol + tol_next]
        assert rises == [], rises


class TestGirafSolve:
    def test_condensed_peak_below_a_quarter_lifted_matrix(self):
        # the paper's claim: GIRAF never builds the lifted matrix; the
        # condensed solve holds the Gram, the weights, the mask and CG's
        # vectors (8.4 MB here, against a 95.2 MB lifted matrix)
        gamma = IndexSet2D.rect(129, 129)
        edge = random_edge_polynomial(IndexSet2D.rect(3, 3), seed=11)
        mask = make_mask(gamma, "uniform", 1.5, seed=2)
        b = sample_kspace(phantom_fourier(Phantom(edge), gamma), mask)
        lifting = LiftingConfig.make(gamma, IndexSet2D.rect(15, 15), "gradient")
        cfg = IRLSConfig(p=0.0, lam=1e8, max_outer=5, convergence_tol=1e-12)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _, report = giraf_solve(b, mask, lifting, cfg)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(report.iterations) == 5
        rows, cols = lifting.lifted_shape
        assert peak < rows * cols * np.dtype(np.complex128).itemsize / 4

    def test_full_sampling_tracks_data_as_lambda_grows(self):
        gamma = IndexSet2D.rect(16, 16)
        lifting = LiftingConfig.make(gamma, IndexSet2D.rect(3, 3))
        mask = make_mask(gamma, "uniform", 1.0, seed=0)
        x = random_kspace(gamma, 37)
        b = sample_kspace(x, mask)
        errs = []
        for lam in (1e2, 1e5, 1e8):
            cfg = IRLSConfig(p=1.0, lam=lam, max_outer=3, cg_tol=1e-12, cg_max=2000,
                             convergence_tol=1e-12)
            rec, _ = giraf_solve(b, mask, lifting, cfg)
            errs.append(rel_err(rec.values, x.values))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-6

    @pytest.mark.parametrize("operator", ["approximate", "exact"])
    def test_one_iteration_matches_brute_force(self, operator):
        # exact-operator mode must match the dense IRLS step; approximate
        # mode is biased by design and only checked for rough agreement
        gamma = IndexSet2D.rect(16, 16)
        lifting = LiftingConfig.make(gamma, IndexSet2D.rect(3, 3), "gradient")
        truth = random_kspace(gamma, 41)
        mask = make_mask(gamma, "uniform", 1.5, seed=7)
        b = sample_kspace(truth, mask)
        lam, p = 10.0, 1.0
        dense = brute_force_irls_iteration(b, mask, lifting, p, lam, 1e-2)
        cfg = IRLSConfig(p=p, lam=lam, operator=operator, max_outer=1,
                         cg_tol=1e-13, cg_max=5000)
        rec, rep = giraf_solve(b, mask, lifting, cfg)
        tol = 1e-6 if operator == "exact" else 0.2
        assert rel_err(rec.values, dense) < tol

    def test_one_iteration_matches_dense_condensed_solve(self):
        # approximate mode solves lam P plus the condensed term, assembled in
        # giraf_solve; the direct solve of that dense system is its oracle
        gamma = IndexSet2D.rect(16, 16)
        lifting = LiftingConfig.make(gamma, IndexSet2D.rect(3, 3), "gradient")
        truth = random_kspace(gamma, 41)
        mask = make_mask(gamma, "uniform", 1.5, seed=7)
        b = sample_kspace(truth, mask)
        lam, p = 10.0, 1.0
        dense = brute_force_irls_iteration(b, mask, lifting, p, lam, EPS0_FACTOR, condensed=True)
        cfg = IRLSConfig(p=p, lam=lam, max_outer=1, cg_tol=1e-13, cg_max=5000)
        rec, _ = giraf_solve(b, mask, lifting, cfg)
        assert rel_err(rec.values, dense) < 1e-6

    @pytest.mark.parametrize("operator", ["exact", "approximate"])
    def test_one_iteration_at_p0_matches_brute_force(self, operator):
        # the Cholesky weights against the dense step's eigen-decomposition:
        # the exact operator against the dense lifting, the condensed one
        # against the dense matrix of its own term
        gamma = IndexSet2D.rect(16, 16)
        lifting = LiftingConfig.make(gamma, IndexSet2D.rect(3, 3), "gradient")
        truth = random_kspace(gamma, 41)
        mask = make_mask(gamma, "uniform", 1.5, seed=7)
        b = sample_kspace(truth, mask)
        lam = 10.0
        dense = brute_force_irls_iteration(b, mask, lifting, 0.0, lam, EPS0_FACTOR,
                                           condensed=operator == "approximate")
        cfg = IRLSConfig(p=0.0, lam=lam, operator=operator, max_outer=1,
                         cg_tol=1e-13, cg_max=5000)
        rec, _ = giraf_solve(b, mask, lifting, cfg)
        assert rel_err(rec.values, dense) < 1e-6

    def test_p0_smoothing_stops_at_its_floor(self):
        # at decay 2 eps reaches EPS_MIN_FACTOR lambda_max at iteration 35; the
        # shifted Gram's Cholesky and the mask's non-negativity check must hold
        # there on a phantom's near-singular Gram (a convergence_tol never met
        # runs all 45 iterations)
        gamma = IndexSet2D.rect(17, 17)
        edge = random_edge_polynomial(IndexSet2D.rect(3, 3), seed=0)
        truth = phantom_fourier(Phantom(edge, (1.0, 0.0), oversample=8), gamma)
        mask = make_mask(gamma, "uniform", 2.0, seed=0)
        lifting = LiftingConfig.make(gamma, IndexSet2D.rect(5, 5), "gradient")
        cfg = IRLSConfig(p=0.0, lam=1e8, max_outer=45, eps_decay=2.0, convergence_tol=1e-300)
        rec, rep = giraf_solve(sample_kspace(truth, mask), mask, lifting, cfg)
        floor = EPS_MIN_FACTOR * rep.iterations[0].sigma_max**2
        eps = np.array([r.eps for r in rep.iterations])
        assert rep.n_iterations == 45
        assert eps.min() >= floor * (1 - 1e-12)
        assert np.count_nonzero(np.isclose(eps, floor, rtol=1e-12, atol=0.0)) == 11
        assert np.all(np.isfinite(rec.values))
        assert all(np.isfinite(r.objective) for r in rep.iterations)

    def test_surrogate_nonincreasing_per_iteration(self):
        gamma = IndexSet2D.rect(24, 24)
        lifting = LiftingConfig.make(gamma, IndexSet2D.rect(5, 5), "gradient")
        truth = random_kspace(gamma, 43)
        mask = make_mask(gamma, "uniform", 1.3, seed=9)
        b = sample_kspace(truth, mask)
        cfg = IRLSConfig(p=1.0, lam=1e3, max_outer=6, cg_tol=1e-11, cg_max=2000)
        _, rep = giraf_solve(b, mask, lifting, cfg)
        for rec in rep.iterations:
            tol = 1e-8 * max(1.0, abs(rec.surrogate_start))
            assert rec.surrogate_end <= rec.surrogate_start + tol

    def test_iterate_scaling_invariance(self):
        # solving with (c b, eps c^2, lam c^(p-2)) yields c times the iterate
        gamma = IndexSet2D.rect(12, 12)
        lifting = LiftingConfig.make(gamma, IndexSet2D.rect(3, 3))
        truth = random_kspace(gamma, 47)
        mask = make_mask(gamma, "uniform", 1.5, seed=11)
        b = sample_kspace(truth, mask)
        p, c = 0.5, 2.0
        base = IRLSConfig(p=p, lam=10.0, max_outer=2, cg_tol=1e-13, cg_max=4000,
                          convergence_tol=1e-13)
        scaled = IRLSConfig(p=p, lam=10.0 * c ** (p - 2), max_outer=2, cg_tol=1e-13,
                            cg_max=4000, convergence_tol=1e-13)
        rec1, _ = giraf_solve(b, mask, lifting, base)
        rec2, _ = giraf_solve(c * b, mask, lifting, scaled)
        assert rel_err(rec2.values, c * rec1.values) < 1e-8

    def test_dirac_stream_recovery(self):
        # compact version of the exact-recovery criterion: well separated
        # Diracs, corner index sampled (uniqueness), exact operator
        _, err = dirac_stream_recovery(seed=1)
        assert err < 1e-6

    @pytest.mark.parametrize("seed", [2, 3, 4])
    def test_dirac_stream_recovery_with_unsampled_edge(self, seed):
        # masks that leave gamma's first index unsampled: the 8-tap filter's
        # windows read it too, so it is recovered as well
        mask, err = dirac_stream_recovery(seed)
        assert not mask.sampled[0, 0]  # gamma's first index, (-32, 0)
        assert err < 1e-6

    def test_nan_input_rejected(self):
        gamma = IndexSet2D.rect(8, 8)
        lifting = LiftingConfig.make(gamma, IndexSet2D.rect(3, 3))
        mask = make_mask(gamma, "uniform", 2.0, seed=0)
        b = np.full(np.count_nonzero(mask.sampled), np.nan, dtype=complex)
        cfg = IRLSConfig(p=1.0, lam=1.0)
        with pytest.raises(ValueError, match="finite"):
            giraf_solve(b, mask, lifting, cfg)

    @pytest.mark.parametrize("field", ["lam", "eps_decay", "cg_tol", "convergence_tol"])
    def test_nan_setting_names_its_field(self, field):
        with pytest.raises(ValueError, match=f"{field} must .*, got nan"):
            IRLSConfig(**{"p": 1.0, "lam": 1.0, field: float("nan")})

    def test_infinite_lam_refused(self):
        # lam P would be inf * 0 = NaN off the samples, failing the solve later
        with pytest.raises(ValueError, match="lam must be finite, got inf"):
            IRLSConfig(p=0.0, lam=float("inf"))

    @pytest.mark.parametrize("value", [float("nan"), 2.5, True], ids=["nan", "fraction", "bool"])
    @pytest.mark.parametrize("field", ["max_outer", "cg_max"])
    def test_non_integer_cap_names_its_field(self, field, value):
        # at cg_max NaN every solve would take no CG step and return the
        # zero-filled data; a fractional or NaN max_outer fails in range()
        with pytest.raises(ValueError, match=f"{field} must be an integer .*, got {value!r}"):
            IRLSConfig(**{"p": 1.0, "lam": 1.0, field: value})

    @pytest.mark.parametrize("field", ["max_outer", "cg_max"])
    def test_cap_below_one_names_its_field(self, field):
        with pytest.raises(ValueError, match=f"{field} must be an integer of at least 1, got 0"):
            IRLSConfig(**{"p": 1.0, "lam": 1.0, field: 0})

    @pytest.mark.parametrize("field", ["max_outer", "cg_max"])
    def test_numpy_integer_cap_accepted(self, field):
        assert getattr(IRLSConfig(**{"p": 1.0, "lam": 1.0, field: np.int64(3)}), field) == 3

    def test_report_fields_populated(self):
        gamma = IndexSet2D.rect(12, 12)
        lifting = LiftingConfig.make(gamma, IndexSet2D.rect(3, 3))
        truth = random_kspace(gamma, 53)
        mask = make_mask(gamma, "uniform", 1.5, seed=13)
        b = sample_kspace(truth, mask)
        cfg = IRLSConfig(p=1.0, lam=1e4, max_outer=4)
        _, rep = giraf_solve(b, mask, lifting, cfg, reference=truth)
        assert 1 <= rep.n_iterations <= 4
        for rec in rep.iterations:
            assert rec.eps > 0
            assert rec.sigma_max >= rec.sigma_min >= 0
            assert rec.mse_vs_reference is not None
        assert rep.final_mse is not None

    def test_loose_cg_tol_still_solves(self):
        # the first solve starts at the zero-filled data, whose residual is only
        # the regularizer's term (8e-5 of ||rhs||), within a loose cg_tol; each
        # solve must still cut its own starting residual, not return zero-fill
        gamma = IndexSet2D.rect(65, 65)
        edge = random_edge_polynomial(IndexSet2D.rect(3, 3), seed=11)
        truth = phantom_fourier(Phantom(edge, (1.0, 0.0), oversample=8), gamma)
        mask = make_mask(gamma, "uniform", 2.0, seed=5)
        lifting = LiftingConfig.make(gamma, IndexSet2D.rect(15, 15), "gradient")
        b = sample_kspace(truth, mask)
        cfg = IRLSConfig(p=0.0, lam=1e8, cg_tol=1e-4, max_outer=3)
        _, rep = giraf_solve(b, mask, lifting, cfg, reference=truth)
        assert all(rec.cg_iters >= 1 for rec in rep.iterations)
        assert rep.final_snr_db >= snr_db(zero_fill(b, mask), truth) + 20

    def test_capped_cg_is_named_in_its_record(self):
        gamma = IndexSet2D.rect(12, 12)
        lifting = LiftingConfig.make(gamma, IndexSet2D.rect(3, 3))
        mask = make_mask(gamma, "uniform", 1.5, seed=13)
        b = sample_kspace(random_kspace(gamma, 53), mask)
        cfg = IRLSConfig(p=1.0, lam=1e4, max_outer=1, cg_tol=1e-9, cg_max=1)
        _, rep = giraf_solve(b, mask, lifting, cfg)
        (it,) = rep.iterations
        assert it.cg_stop_reason == "max_iter" and it.cg_iters == 1

    @pytest.mark.parametrize("operator", ["approximate", "exact"])
    def test_unsampled_dc_with_gradient_weighting(self, operator):
        # gradient weighting vanishes at DC, so with DC unsampled both
        # operators have a zero diagonal entry there (an empty row)
        gamma = IndexSet2D.rect(12, 12)
        lifting = LiftingConfig.make(gamma, IndexSet2D.rect(3, 3), "gradient")
        drawn = make_mask(gamma, "uniform", 1.5, seed=13)
        sampled = drawn.sampled.copy()
        sampled[6, 6] = False  # DC
        mask = SamplingMask(gamma, sampled)
        b = sample_kspace(random_kspace(gamma, 53), mask)
        cfg = IRLSConfig(p=1.0, lam=1e4, operator=operator, max_outer=2, cg_max=2000)
        rec, rep = giraf_solve(b, mask, lifting, cfg)
        assert np.all(np.isfinite(rec.values))
        assert all(r.cg_stop_reason == "converged" for r in rep.iterations)
