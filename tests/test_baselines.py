import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slrecon.grid import IndexSet2D
from slrecon.lifting import LiftingConfig, lift_dense
from slrecon.baselines import SVTConfig, _threshold, delift, svt_solve, tv_solve
from slrecon.giraf import IRLSConfig, giraf_solve
from slrecon.phantom import (
    EdgePolynomial,
    Phantom,
    dirac_fourier,
    make_mask,
    phantom_fourier,
    random_edge_polynomial,
    sample_kspace,
    zero_fill,
)
from slrecon.report import snr_db

from conftest import lifting_configs, random_kspace, svt_oracle, tv_oracle


def undetermined(cfg):
    """The k-space indices, as [k1, k2] pairs, where ``cfg.normal_diag`` is
    zero: those ``delift`` cannot recover."""
    return cfg.gamma.indices[cfg.normal_diag.ravel() == 0].tolist()


def rel_err(a, b):
    return np.linalg.norm(np.ravel(a) - np.ravel(b)) / np.linalg.norm(np.ravel(b))


class TestZeroFill:
    def test_full_sampling_is_identity(self):
        gamma = IndexSet2D.rect(7, 7)
        x = random_kspace(gamma, 1)
        mask = make_mask(gamma, "uniform", 1.0, seed=0)
        zf = zero_fill(sample_kspace(x, mask), mask)
        assert np.allclose(zf.values, x.values)

    def test_unsampled_entries_exactly_zero(self):
        gamma = IndexSet2D.rect(9, 9)
        x = random_kspace(gamma, 2)
        mask = make_mask(gamma, "uniform", 3.0, seed=1)
        zf = zero_fill(sample_kspace(x, mask), mask)
        assert np.all(zf.values[~mask.sampled] == 0.0)
        assert np.allclose(zf.values[mask.sampled], x.values[mask.sampled])


def _lifting_9x9():
    return LiftingConfig.make(IndexSet2D.rect(9, 9), IndexSet2D.rect(3, 3))


# every solver reads its samples through zero_fill, which checks them
SOLVERS = {
    "zero_fill": zero_fill,
    "svt_solve": lambda b, mask: svt_solve(b, mask, _lifting_9x9(), SVTConfig(max_iter=1)),
    "tv_solve": lambda b, mask: tv_solve(b, mask, iters=1),
    "giraf_solve": lambda b, mask: giraf_solve(b, mask, _lifting_9x9(),
                                               IRLSConfig(p=1.0, lam=1.0, max_outer=1)),
}


class TestSampleCheck:
    @pytest.fixture
    def mask(self):
        mask = make_mask(IndexSet2D.rect(9, 9), "uniform", 81 / 40, seed=0)
        assert np.count_nonzero(mask.sampled) == 40
        return mask

    @pytest.mark.parametrize("solver", SOLVERS)
    @pytest.mark.parametrize("size", [1, 39])
    def test_wrong_sample_count_raises(self, mask, solver, size):
        with pytest.raises(ValueError, match=f"expected 40 samples, got {size}"):
            SOLVERS[solver](np.ones(size, dtype=complex), mask)

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_non_finite_samples_raise(self, mask, solver):
        b = np.ones(40, dtype=complex)
        b[7] = np.nan
        with pytest.raises(ValueError, match="finite"):
            SOLVERS[solver](b, mask)


class TestDelift:
    @pytest.mark.parametrize("weighting", ["identity", "gradient"])
    def test_left_inverse_of_lift(self, weighting):
        gamma = IndexSet2D.rect(10, 10)
        cfg = LiftingConfig.make(gamma, IndexSet2D.rect(3, 3), weighting)
        x = random_kspace(gamma, 3)
        back = delift(lift_dense(x, cfg), cfg)
        if weighting == "identity":
            assert not undetermined(cfg)
            assert rel_err(back.values, x.values) < 1e-12
        else:
            # only the DC entry is invisible to the gradient weighting
            assert undetermined(cfg) == [[0, 0]]
            fixed = back.values.copy()
            rel = (-gamma.kmin[0], -gamma.kmin[1])
            fixed[rel[0], rel[1]] = x.values[rel[0], rel[1]]
            assert rel_err(fixed, x.values) < 1e-12

    @pytest.mark.parametrize("weighting", ["identity", "gradient"])
    def test_lift_delift_is_idempotent_projection(self, weighting):
        gamma = IndexSet2D.rect(8, 8)
        cfg = LiftingConfig.make(gamma, IndexSet2D.rect(3, 3), weighting)
        rng = np.random.default_rng(5)
        raw = rng.standard_normal(cfg.lifted_shape) + 1j * rng.standard_normal(cfg.lifted_shape)
        once = delift(raw, cfg)
        proj = lift_dense(once, cfg)
        twice = delift(proj, cfg)
        assert rel_err(lift_dense(twice, cfg), proj) < 1e-10

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_roundtrip_property(self, seed):
        gamma = IndexSet2D.rect(7, 5)
        cfg = LiftingConfig.make(gamma, IndexSet2D.rect(3, 3))
        x = random_kspace(gamma, seed)
        back = delift(lift_dense(x, cfg), cfg)
        assert not undetermined(cfg)
        assert rel_err(back.values, x.values) < 1e-11

    def test_even_filter_flags_unreferenced_row(self):
        # the windows of an even-extent filter read every row of gamma too,
        # so no index is undetermined and delift inverts the lifting
        gamma = IndexSet2D.rect(6, 5)
        cfg = LiftingConfig.make(gamma, IndexSet2D.rect(2, 3))
        x = random_kspace(gamma, 0)
        back = delift(lift_dense(x, cfg), cfg)
        assert undetermined(cfg) == []
        assert rel_err(back.values, x.values) < 1e-11

    @given(lifting_configs(), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_inverts_lift_wherever_normal_diag_is_positive(self, cfg, seed):
        # odd, even and off-centre filters, 1-D grids, both weightings: the
        # undetermined set is DC (when gamma holds it) under gradient
        # weighting and empty under identity weighting, and delift returns
        # x everywhere else and 0 there
        x = random_kspace(cfg.gamma, seed)
        back = delift(lift_dense(x, cfg), cfg).values
        known = cfg.normal_diag > 0
        dc_in_gamma = [0, 0] in cfg.gamma.indices.tolist()
        expect = [[0, 0]] if cfg.weighting == "gradient" and dc_in_gamma else []
        assert undetermined(cfg) == expect
        assert np.all(back[~known] == 0)
        assert np.allclose(back[known], x.values[known], rtol=0, atol=1e-11 * np.abs(x.values).max())


def svd_threshold(y, relative):
    """The oracle: ``U diag(max(s - tau, 0)) Vᴴ`` from the thin SVD at
    ``tau = relative·s[0]``, with tau and ``s``."""
    u, s, vh = np.linalg.svd(y, full_matrices=False)
    tau = relative * s[0]
    return (u * np.maximum(s - tau, 0.0)) @ vh, tau, s


class TestThreshold:
    """The threshold step reads ``s`` and ``V`` from the Gram ``yᴴy``; it must
    agree with the thresholded SVD to rounding wherever the threshold sits
    well above sqrt(eps)·sigma_1, and be the identity at a zero threshold."""

    @settings(max_examples=60, deadline=None)
    @given(lifting_configs(), st.integers(0, 2**16), st.sampled_from([0.0, 3e-2, 0.7]))
    def test_matches_svd_oracle(self, cfg, seed, relative):
        y = lift_dense(random_kspace(cfg.gamma, seed), cfg)
        expect, tau, s = svd_threshold(y, relative)
        z, s_gram, _ = _threshold(y, tau)
        assert rel_err(z, expect) < 1e-12
        assert len(s_gram) == min(y.shape)
        if tau > 0:  # at tau = 0 every direction is kept
            assert np.count_nonzero(s_gram > tau) == np.count_nonzero(s > tau)

    @pytest.mark.parametrize("grid,filt", [(17, 12), (33, 7)],
                             ids=["wide-72x144", "tall-1458x49"])
    @pytest.mark.parametrize("relative", [0.0, 3e-2])
    def test_near_low_rank_phantom_lifting(self, grid, filt, relative):
        # a piecewise-constant phantom's lifting has singular values far below
        # sqrt(eps)·sigma_1, whose Gram eigenvalues round to zero or below;
        # rebuilt from the kept rank, the zero-threshold step lost 1e-9 of y
        gamma = IndexSet2D.rect(grid, grid)
        edge = random_edge_polynomial(IndexSet2D.rect(3, 3), seed=11)
        truth = phantom_fourier(Phantom(edge, (1.0, 0.0), oversample=8), gamma)
        y = lift_dense(truth, LiftingConfig.make(gamma, IndexSet2D.rect(filt, filt), "gradient"))
        expect, tau, _ = svd_threshold(y, relative)
        z, _, _ = _threshold(y, tau)
        assert rel_err(z, expect) < 1e-12


class TestSVT:
    def test_zero_threshold_full_sampling_fixed_point(self):
        gamma = IndexSet2D.rect(10, 10)
        lifting = LiftingConfig.make(gamma, IndexSet2D.rect(3, 3))
        x = random_kspace(gamma, 7)
        mask = make_mask(gamma, "uniform", 1.0, seed=0)
        b = sample_kspace(x, mask)
        rec, rep = svt_solve(b, mask, lifting, SVTConfig(threshold=0.0, max_iter=3))
        assert rel_err(rec.values, x.values) < 1e-12

    def test_dirac_completion(self):
        # the filter must be wide enough that rank 5 is genuinely low for the
        # convex relaxation (a 7-tap lifting is rank 5 of 7 and fails)
        locs = [0.08, 0.31, 0.52, 0.74, 0.9]
        amps = np.array([1.0, -0.7 + 0.3j, 0.9, 1.2j, -0.5])
        gamma = IndexSet2D.rect(64, 1)
        truth = dirac_fourier([(x, 0.0) for x in locs], amps, gamma)
        mask = make_mask(gamma, "uniform", acceleration=1.5, seed=1)
        b = sample_kspace(truth, mask)
        lifting = LiftingConfig.make(gamma, IndexSet2D.rect(21, 1), "identity")
        rec, rep = svt_solve(b, mask, lifting,
                             SVTConfig(threshold=3e-2, max_iter=200),
                             reference=truth)
        assert rep.final_mse < 1e-4
        assert rep.final_snr_db == snr_db(rec, truth)

    def test_objective_trend_after_warmup(self):
        gamma = IndexSet2D.rect(24, 24)
        edge_c = np.zeros((3, 3), dtype=complex)
        edge_c[1, 1] = -0.2
        edge_c[0, 1] = edge_c[2, 1] = 0.5
        edge = EdgePolynomial(IndexSet2D.rect(3, 3), edge_c)
        truth = phantom_fourier(Phantom(edge, (1.0, 0.0), oversample=8), gamma)
        mask = make_mask(gamma, "uniform", 1.5, seed=3)
        b = sample_kspace(truth, mask)
        lifting = LiftingConfig.make(gamma, IndexSet2D.rect(5, 5), "gradient")
        _, rep = svt_solve(b, mask, lifting, SVTConfig(threshold=3e-2, max_iter=25))
        objs = [r.objective for r in rep.iterations]
        # the multiplier warms up over the first iterations; after that the
        # objective must not increase beyond rounding
        tail = objs[3:]
        assert all(b2 <= a2 * (1 + 1e-9) for a2, b2 in zip(tail, tail[1:]))

    @pytest.mark.parametrize("grid,filt,weighting", [
        ((16, 16), (3, 3), "gradient"),  # tall: 392 x 9
        ((64, 1), (21, 1), "identity"),
        ((5, 5), (4, 4), "gradient"),  # wide: 8 x 16, R is wide too
    ], ids=["tall-16-3", "identity-64x1-21x1", "wide-5-4"])
    @pytest.mark.parametrize("threshold", [0.0, 3e-2, 0.7, 2.0])
    def test_one_step_matches_full_svd_threshold(self, grid, filt, weighting, threshold):
        # one step against the thresholded thin SVD of the zero-filled
        # lifting; 0.7 keeps fewer than half the columns of the 64x1 and
        # wide cases (the other grouping of the rebuild), 2.0 keeps none
        gamma = IndexSet2D.rect(*grid)
        lifting = LiftingConfig.make(gamma, IndexSet2D.rect(*filt), weighting)
        mask = make_mask(gamma, "uniform", 1.5, seed=4)
        b = sample_kspace(random_kspace(gamma, 9), mask)
        rec, rep = svt_solve(b, mask, lifting, SVTConfig(threshold=threshold, max_iter=1))

        zf = zero_fill(b, mask)
        u, s, vh = np.linalg.svd(lift_dense(zf, lifting), full_matrices=False)
        s_shrunk = np.maximum(s - threshold * s[0], 0.0)
        expect = delift((u * s_shrunk) @ vh, lifting)
        expect = np.where(mask.sampled, zf.values, expect.values)

        (it,) = rep.iterations
        assert rel_err(rec.values, expect) < 1e-12
        assert it.sigma_max == pytest.approx(s[0], rel=1e-12)
        assert it.sigma_min == pytest.approx(s[-1], rel=1e-12)
        assert it.penalty == pytest.approx(s_shrunk.sum(), rel=1e-12)
        if threshold == 2.0:
            assert it.penalty == 0.0

    def test_nan_threshold_rejected(self):
        with pytest.raises(ValueError, match="threshold must be non-negative, got nan"):
            SVTConfig(threshold=float("nan"))

    @pytest.mark.parametrize("value", [float("nan"), 2.5, True, 0],
                             ids=["nan", "fraction", "bool", "zero"])
    def test_non_integer_or_zero_max_iter_rejected(self, value):
        # a fractional or NaN count would fail in range() mid-solve
        with pytest.raises(ValueError, match=f"max_iter must be an integer .*, got {value!r}"):
            SVTConfig(max_iter=value)

    def test_numpy_integer_max_iter_accepted(self):
        assert SVTConfig(max_iter=np.int64(3)).max_iter == 3

    def test_dense_cap_refuses_large_problems(self):
        gamma = IndexSet2D.rect(513, 513)
        lifting = LiftingConfig.make(gamma, IndexSet2D.rect(45, 45), "gradient")
        mask = make_mask(gamma, "uniform", 2.0, seed=0)
        b = np.zeros(np.count_nonzero(mask.sampled))
        with pytest.raises(ValueError, match="giraf"):
            svt_solve(b, mask, lifting, SVTConfig())

    @settings(max_examples=40, deadline=None)
    @given(lifting_configs(), st.integers(0, 2**16), st.sampled_from([0.0, 3e-2, 0.7, 2.0]))
    def test_matches_three_matrix_oracle(self, lifting, seed, threshold):
        # ten steps against the loop that holds U apart; sigma_max and the
        # penalty are compared on the scale of the first sigma_1, and change,
        # itself relative to the iterate, absolutely (2.0 keeps no rank, so
        # the oracle's change can be exactly zero)
        mask = make_mask(lifting.gamma, "uniform", 1.5, seed=seed)
        b = sample_kspace(random_kspace(lifting.gamma, seed), mask)
        cfg = SVTConfig(threshold=threshold, max_iter=10)
        rec, rep = svt_solve(b, mask, lifting, cfg)
        expect, records = svt_oracle(b, mask, lifting, cfg)
        assert rel_err(rec.values, expect) < 1e-10
        scale = 1e-10 * records[0][0]
        for it, (sigma_max, penalty, change) in zip(rep.iterations, records, strict=True):
            assert it.sigma_max == pytest.approx(sigma_max, rel=1e-10, abs=scale)
            assert it.penalty == pytest.approx(penalty, rel=1e-10, abs=scale)
            assert it.change == pytest.approx(change, rel=1e-10, abs=1e-10)

    @staticmethod
    def _peak_in_lifted_matrices(weighting):
        # a one-step warm-up builds the lifting's cached geometry, which
        # outlives the solve
        gamma = IndexSet2D.rect(33, 33)
        lifting = LiftingConfig.make(gamma, IndexSet2D.rect(7, 7), weighting)
        mask = make_mask(gamma, "uniform", 1.5, seed=0)
        b = sample_kspace(random_kspace(gamma, 1), mask)
        svt_solve(b, mask, lifting, SVTConfig(max_iter=1))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            svt_solve(b, mask, lifting, SVTConfig(max_iter=3))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        rows, cols = lifting.lifted_shape
        return peak / (rows * cols * np.dtype(np.complex128).itemsize)

    def test_holds_three_lifted_matrices(self):
        # the state is y = T(x) + U; beside it live, one at a time, the
        # Gram product's conjugate copy of y, the thresholded z, the new lift
        assert self._peak_in_lifted_matrices("gradient") < 4

    @pytest.mark.parametrize("weighting", ["gradient", "identity"])
    def test_holds_two_lifted_matrices(self, weighting):
        # Q = y - S_tau(y) is formed in y's buffer and the new lift added
        # to it, so no third lifted matrix is ever live
        assert self._peak_in_lifted_matrices(weighting) < 3

    def test_deterministic(self):
        gamma = IndexSet2D.rect(16, 16)
        lifting = LiftingConfig.make(gamma, IndexSet2D.rect(3, 3), "gradient")
        truth = random_kspace(gamma, 11)
        mask = make_mask(gamma, "uniform", 1.5, seed=5)
        b = sample_kspace(truth, mask)
        r1, _ = svt_solve(b, mask, lifting, SVTConfig(threshold=1e-2, max_iter=10))
        r2, _ = svt_solve(b, mask, lifting, SVTConfig(threshold=1e-2, max_iter=10))
        assert np.array_equal(r1.values, r2.values)


class TestTV:
    def setup_method(self):
        c = np.zeros((3, 3), dtype=complex)
        c[1, 1] = -0.15
        c[0, 1] = c[2, 1] = 0.35
        c[1, 0] = c[1, 2] = 0.35
        self.edge = EdgePolynomial(IndexSet2D.rect(3, 3), c)
        self.gamma = IndexSet2D.rect(33, 33)
        self.truth = phantom_fourier(Phantom(self.edge, (1.0, 0.0), oversample=8), self.gamma)

    @pytest.mark.parametrize("solver,gamma,filt", [
        ("tv", IndexSet2D.rect(33, 33), None),
        ("tv", IndexSet2D.rect(12, 9, offset=(3, -2)), None),
        ("tv", IndexSet2D.rect(64, 1), None),
        ("svt", IndexSet2D.rect(33, 33), (7, 7)),
        ("svt", IndexSet2D.rect(12, 9, offset=(3, -2)), (3, 3)),
        ("svt", IndexSet2D.rect(64, 1), (7, 1)),
    ], ids=["centred-33x33", "off-centre-12x9", "64x1",
            "svt-centred-33x33", "svt-off-centre-12x9", "svt-64x1"])
    def test_samples_enforced_exactly(self, solver, gamma, filt):
        # TV's primal step and SVT's data step set the sampled entries to
        # b, so the result holds b bit for bit; at this data seed the step
        # x - (Px - b) misses b by rounding on each of these gammas
        mask = make_mask(gamma, "uniform", 2.0, seed=1)
        b = sample_kspace(random_kspace(gamma, 9), mask)
        if solver == "tv":
            rec = tv_solve(b, mask, iters=100)
        else:
            lifting = LiftingConfig.make(gamma, IndexSet2D.rect(*filt), "gradient")
            rec, _ = svt_solve(b, mask, lifting, SVTConfig(max_iter=5))
        assert np.array_equal(sample_kspace(rec, mask), b)

    @pytest.mark.parametrize("extents,offset", [
        ((17, 17), (0, 0)), ((16, 16), (0, 0)), ((65, 65), (0, 0)),
        ((12, 13), (1, 3)), ((9, 9), (2, -1)), ((64, 1), (0, 0)),
    ])
    @pytest.mark.parametrize("iters", [1, 50])
    def test_matches_oracle_on_gammas_array(self, extents, offset, iters):
        # the loop on the FFT grid moves the same numbers as the one that
        # embeds and gathers gamma's array around every FFT
        gamma = IndexSet2D.rect(*extents, offset=offset)
        mask = make_mask(gamma, "uniform", 2.0, seed=6)
        b = sample_kspace(random_kspace(gamma, 8), mask)
        assert np.array_equal(tv_solve(b, mask, iters=iters).values,
                              tv_oracle(b, mask, iters).values)

    def test_constant_phantom_full_sampling_high_snr(self):
        # one-region phantom: constant image
        lam0 = IndexSet2D.rect(1, 1)
        edge = EdgePolynomial(lam0, np.array([[1.0]]))
        truth = phantom_fourier(Phantom(edge, (0.8, 0.0), oversample=8), self.gamma)
        mask = make_mask(self.gamma, "uniform", 1.0, seed=0)
        b = sample_kspace(truth, mask)
        rec = tv_solve(b, mask, iters=400)
        assert snr_db(rec, truth) > 40.0

    def test_undersampled_beats_zero_fill(self):
        mask = make_mask(self.gamma, "uniform", 2.0, seed=2)
        b = sample_kspace(self.truth, mask)
        rec = tv_solve(b, mask, iters=300)
        zf = zero_fill(b, mask)
        assert snr_db(rec, self.truth) > snr_db(zf, self.truth) + 3.0

    @pytest.mark.parametrize("iters", [0, -4, 2.5, float("nan"), True])
    def test_no_iterations_refused(self, iters):
        # a fraction or NaN would fail in range() and True would run one step
        mask = make_mask(self.gamma, "uniform", 2.0, seed=3)
        b = sample_kspace(self.truth, mask)
        with pytest.raises(ValueError, match=f"iters must be an integer .*, got {iters!r}"):
            tv_solve(b, mask, iters=iters)

    def test_numpy_integer_iters_accepted(self):
        mask = make_mask(self.gamma, "uniform", 2.0, seed=3)
        b = sample_kspace(self.truth, mask)
        assert np.array_equal(tv_solve(b, mask, iters=np.int64(2)).values,
                              tv_solve(b, mask, iters=2).values)

    def test_deterministic(self):
        mask = make_mask(self.gamma, "uniform", 2.0, seed=3)
        b = sample_kspace(self.truth, mask)
        r1 = tv_solve(b, mask, iters=50)
        r2 = tv_solve(b, mask, iters=50)
        assert np.array_equal(r1.values, r2.values)
