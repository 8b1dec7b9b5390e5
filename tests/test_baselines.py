import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slrecon.grid import IndexSet2D
from slrecon.lifting import LiftingConfig, lift_dense
from slrecon.baselines import SVTConfig, delift, svt_solve, tv_solve, zero_fill
from slrecon.giraf import IRLSConfig, giraf_solve
from slrecon.phantom import (
    EdgePolynomial,
    Phantom,
    dirac_fourier,
    make_mask,
    phantom_fourier,
    sample_kspace,
)
from slrecon.analysis import snr_db

from conftest import random_kspace


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
        ind = mask.indicator()
        assert np.all(zf.values[ind == 0] == 0.0)
        assert np.allclose(zf.values[ind == 1], x.values[ind == 1])


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
        back, flagged = delift(lift_dense(x, cfg), cfg)
        if weighting == "identity":
            assert not flagged
            assert rel_err(back.values, x.values) < 1e-12
        else:
            # only the DC entry is invisible to the gradient weighting
            assert flagged == [(0, 0)]
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
        once, _ = delift(raw, cfg)
        proj = lift_dense(once, cfg)
        twice, _ = delift(proj, cfg)
        assert rel_err(lift_dense(twice, cfg), proj) < 1e-10

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_roundtrip_property(self, seed):
        gamma = IndexSet2D.rect(7, 5)
        cfg = LiftingConfig.make(gamma, IndexSet2D.rect(3, 3))
        x = random_kspace(gamma, seed)
        back, flagged = delift(lift_dense(x, cfg), cfg)
        assert not flagged
        assert rel_err(back.values, x.values) < 1e-11

    def test_even_filter_flags_unreferenced_row(self):
        # the windows of an even-extent filter read every row of gamma too,
        # so nothing is flagged and delift inverts the lifting
        gamma = IndexSet2D.rect(6, 5)
        cfg = LiftingConfig.make(gamma, IndexSet2D.rect(2, 3))
        x = random_kspace(gamma, 0)
        back, flagged = delift(lift_dense(x, cfg), cfg)
        assert flagged == []
        assert rel_err(back.values, x.values) < 1e-11


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
        expect, _ = delift((u * s_shrunk) @ vh, lifting)
        expect = expect.values - (mask.indicator() * expect.values - zf.values)

        (it,) = rep.iterations
        assert rel_err(rec.values, expect) < 1e-12
        assert it.sigma_max == pytest.approx(s[0], rel=1e-12)
        assert it.sigma_min == pytest.approx(s[-1], rel=1e-12)
        assert it.penalty == pytest.approx(s_shrunk.sum(), rel=1e-12)
        if threshold == 2.0:
            assert it.penalty == 0.0

    def test_dense_cap_refuses_large_problems(self):
        gamma = IndexSet2D.rect(513, 513)
        lifting = LiftingConfig.make(gamma, IndexSet2D.rect(45, 45), "gradient")
        mask = make_mask(gamma, "uniform", 2.0, seed=0)
        b = np.zeros(np.count_nonzero(mask.sampled))
        with pytest.raises(ValueError, match="giraf"):
            svt_solve(b, mask, lifting, SVTConfig())

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

    def test_large_weight_enforces_data(self):
        mask = make_mask(self.gamma, "uniform", 2.0, seed=1)
        b = sample_kspace(self.truth, mask)
        misfits = []
        for weight in (1e0, 1e2, 1e6):
            rec = tv_solve(b, mask, weight=weight, iters=1500)
            misfits.append(rel_err(sample_kspace(rec, mask), b))
        assert misfits[0] > misfits[1] > misfits[2]
        assert misfits[2] < 2e-3

    def test_constant_phantom_full_sampling_high_snr(self):
        # one-region phantom: constant image
        lam0 = IndexSet2D.rect(1, 1)
        edge = EdgePolynomial(lam0, np.array([[1.0]]))
        truth = phantom_fourier(Phantom(edge, (0.8, 0.0), oversample=8), self.gamma)
        mask = make_mask(self.gamma, "uniform", 1.0, seed=0)
        b = sample_kspace(truth, mask)
        rec = tv_solve(b, mask, weight=1e5, iters=400)
        assert snr_db(rec, truth) > 40.0

    def test_undersampled_beats_zero_fill(self):
        mask = make_mask(self.gamma, "uniform", 2.0, seed=2)
        b = sample_kspace(self.truth, mask)
        rec = tv_solve(b, mask, weight=1e3, iters=300)
        zf = zero_fill(b, mask)
        assert snr_db(rec, self.truth) > snr_db(zf, self.truth) + 3.0

    @pytest.mark.parametrize("iters", [0, -4])
    def test_no_iterations_refused(self, iters):
        mask = make_mask(self.gamma, "uniform", 2.0, seed=3)
        b = sample_kspace(self.truth, mask)
        with pytest.raises(ValueError, match="iters"):
            tv_solve(b, mask, iters=iters)

    def test_deterministic(self):
        mask = make_mask(self.gamma, "uniform", 2.0, seed=3)
        b = sample_kspace(self.truth, mask)
        r1 = tv_solve(b, mask, weight=100.0, iters=50)
        r2 = tv_solve(b, mask, weight=100.0, iters=50)
        assert np.array_equal(r1.values, r2.values)
