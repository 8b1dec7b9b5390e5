import numpy as np
import pytest

from slrecon.grid import IndexSet2D, predicted_rank
from slrecon.lifting import KSpaceArray, LiftingConfig, lift_dense
from slrecon.phantom import (
    EdgePolynomial,
    Phantom,
    dirac_fourier,
    phantom_fourier,
    random_edge_polynomial,
)
from slrecon.analysis import (
    dirichlet_gram,
    numerical_rank,
    phase_transition,
    rho1_estimate,
    rho2,
    rho2_quadratic_form,
    rho2_rayleigh_search,
    snr_db,
    subspace_check,
    zero_set_points,
)
from slrecon.phantom import mu_values_at
from slrecon.analysis import _autocorrelate, _normalized_gradient_coeffs, gradient_sq_coefficients


class TestNumericalRank:
    def test_diagonal_example(self):
        x = np.diag([1.0, 1.0, 1e-9])
        assert numerical_rank(x, 1e-3) == 2

    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((4, 3)), 1e-2) == 0

    def test_phantom_rank_matches_prediction(self):
        gamma = IndexSet2D.rect(65, 65)
        lam0, lam1 = IndexSet2D.rect(3, 3), IndexSet2D.rect(5, 5)
        edge = random_edge_polynomial(lam0, seed=8)
        ks = phantom_fourier(Phantom(edge, (1.0, 0.0), oversample=8), gamma)
        cfg = LiftingConfig.make(gamma, lam1, "gradient")
        assert numerical_rank(lift_dense(ks, cfg), 1e-2) == predicted_rank(lam1, lam0)

    def test_dirac_stream_rank_bounded_by_vandermonde(self):
        K = 4
        rng = np.random.default_rng(3)
        xs = np.sort(rng.uniform(0.05, 0.95, K))
        amps = rng.standard_normal(K) + 1j * rng.standard_normal(K)
        gamma = IndexSet2D.rect(48, 1)
        ks = dirac_fourier([(x, 0.0) for x in xs], amps, gamma)
        cfg = LiftingConfig.make(gamma, IndexSet2D.rect(K + 2, 1))
        t = lift_dense(ks, cfg)
        r = numerical_rank(t, 1e-9)
        assert r <= K + 1
        # Vandermonde oracle: T = E diag(c) F^T with K separated modes,
        # masked where the (even-extent) window leaves gamma
        e = np.exp(-2j * np.pi * np.outer(cfg.lambda2.indices[:, 0], xs))
        f = np.exp(2j * np.pi * np.outer(cfg.lambda1.indices[:, 0], xs))
        oracle = e @ np.diag(amps) @ f.T
        diff = cfg.lambda2.indices[:, None, 0] - cfg.lambda1.indices[None, :, 0]
        inside = (diff >= gamma.kmin[0]) & (diff <= gamma.kmax[0])
        oracle = np.where(inside, oracle, 0.0)
        assert np.linalg.norm(t - oracle) < 1e-9 * np.linalg.norm(t)
        assert r == numerical_rank(oracle, 1e-9)


class TestSnr:
    def setup_method(self):
        self.gamma = IndexSet2D.rect(9, 9)
        rng = np.random.default_rng(0)
        vals = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        self.ref = KSpaceArray(self.gamma, vals)

    def test_identical_signal_is_capped_sentinel(self):
        assert snr_db(self.ref, self.ref) > 300

    def test_zero_estimate_is_zero_db(self):
        zero = KSpaceArray(self.gamma, np.zeros((9, 9)))
        assert snr_db(zero, self.ref) == pytest.approx(0.0, abs=1e-9)

    def test_ten_percent_error_is_twenty_db(self):
        rng = np.random.default_rng(1)
        e = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        e *= 0.1 * np.linalg.norm(self.ref.values) / np.linalg.norm(e)
        x = KSpaceArray(self.gamma, self.ref.values + e)
        assert snr_db(x, self.ref) == pytest.approx(20.0, abs=1e-6)

    def test_zero_reference_rejected(self):
        zero = KSpaceArray(self.gamma, np.zeros((9, 9)))
        with pytest.raises(ValueError, match="zero"):
            snr_db(self.ref, zero)


def cosine_edge() -> EdgePolynomial:
    # sqrt(2) cos(2 pi x): already gradient-normalized under the 2-pi-free
    # convention (sum k^2 |c|^2 = 1)
    lam0 = IndexSet2D.rect(3, 1)
    c = np.array([[np.sqrt(2) / 2], [0.0], [np.sqrt(2) / 2]], dtype=complex)
    return EdgePolynomial(lam0, c)


def autocorrelate_loop(c):
    """Reference: a[m] = sum_k conj(c[k]) c[k+m] by explicit lag loops."""
    e1, e2 = c.shape
    out = np.zeros((2 * e1 - 1, 2 * e2 - 1), dtype=np.complex128)
    cc = np.conj(c)
    for m1 in range(-(e1 - 1), e1):
        for m2 in range(-(e2 - 1), e2):
            a1, b1 = max(0, -m1), min(e1, e1 - m1)
            a2, b2 = max(0, -m2), min(e2, e2 - m2)
            block = cc[a1:b1, a2:b2] * c[a1 + m1 : b1 + m1, a2 + m2 : b2 + m2]
            out[m1 + e1 - 1, m2 + e2 - 1] = block.sum()
    return out


def quadratic_form_loop(edge, lambda1):
    """Reference: Q[k, l] looked up entry by entry from the coefficient support."""
    support, coeffs = gradient_sq_coefficients(edge)
    lut = {tuple(k): v for k, v in zip(map(tuple, support.indices), coeffs.ravel())}
    idx = lambda1.indices
    n = len(lambda1)
    q = np.zeros((n, n), dtype=np.complex128)
    for a in range(n):
        for b in range(n):
            q[a, b] = lut.get((idx[a, 0] - idx[b, 0], idx[a, 1] - idx[b, 1]), 0.0)
    return 0.5 * (q + q.conj().T)


class TestLagHelpers:
    @pytest.mark.parametrize("shape", [(3, 3), (2, 3), (4, 1), (5, 2)])
    def test_autocorrelation_matches_loop(self, shape):
        rng = np.random.default_rng(4)
        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        ref = autocorrelate_loop(c)
        assert np.abs(_autocorrelate(c) - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("lam1", [(1, 1), (2, 2), (3, 3), (6, 5)])
    def test_quadratic_form_matches_lookup(self, lam1):
        edge = random_edge_polynomial(IndexSet2D.rect(3, 3), seed=6)
        lambda1 = IndexSet2D.rect(*lam1)
        assert np.array_equal(rho2_quadratic_form(edge, lambda1), quadratic_form_loop(edge, lambda1))


class TestRho2:
    def test_one_harmonic_closed_form(self):
        # closed form worked out by hand: gradient coefficients are
        # (+-sqrt(2)/2), l1 norm sqrt(2); with a DC-only filter the quadratic
        # form equals 1, so rho2 = (sqrt 2)^2 / 1 = 2
        edge = cosine_edge()
        lam1 = IndexSet2D.rect(1, 1)
        assert rho2(edge, lam1) == pytest.approx(2.0, rel=1e-12)

    def test_dc_filter_matches_quadrature(self):
        # for the DC-only filter the Rayleigh quotient is the full gradient
        # energy; check the Q entry against a direct fine-raster integral
        edge = random_edge_polynomial(IndexSet2D.rect(3, 3), seed=12)
        q = rho2_quadratic_form(edge, IndexSet2D.rect(1, 1))
        n = 512
        from slrecon.analysis import _normalized_gradient_coeffs

        gx, gy = _normalized_gradient_coeffs(edge)
        u = np.arange(n) / n
        grad2 = np.zeros((n, n))
        for g in (gx, gy):
            f = np.zeros((n, n), dtype=complex)
            for (k1, k2), cv in zip(edge.lambda0.indices, g.ravel()):
                f += cv * np.exp(2j * np.pi * (k1 * u[:, None] + k2 * u[None, :]))
            grad2 += np.abs(f) ** 2
        assert q[0, 0].real == pytest.approx(grad2.mean(), rel=1e-10)

    def test_eigen_matches_rayleigh_search(self):
        edge = random_edge_polynomial(IndexSet2D.rect(3, 3), seed=4)
        lam1 = IndexSet2D.rect(3, 3)
        value = rho2(edge, lam1)
        search = rho2_rayleigh_search(edge, lam1, n_starts=30, refine_steps=300, seed=2)
        assert abs(value - search) < 0.01 * value

    @pytest.mark.filterwarnings("error")
    def test_rayleigh_search_keeps_every_start_of_a_1x1_filter(self):
        # a 1 x 1 form is its own top eigenvector, so the refinement step is
        # zero and every start keeps the quotient, the form's one entry
        edge = random_edge_polynomial(IndexSet2D.rect(3, 3), seed=0)
        lam1 = IndexSet2D.rect(1, 1)
        search = rho2_rayleigh_search(edge, lam1, seed=4)
        assert search == pytest.approx(rho2(edge, lam1), rel=1e-12)


class TestRho1:
    def test_single_point(self):
        edge = random_edge_polynomial(IndexSet2D.rect(3, 3), seed=4)
        lam1 = IndexSet2D.rect(3, 3)
        est, meta = rho1_estimate(edge, lam1, R=1, seed=0)
        assert est == pytest.approx(1.0 / len(lam1), rel=1e-12)

    def test_two_point_gram_matches_hand_kernel(self):
        lam1 = IndexSet2D.rect(3, 3)
        pts = np.array([[0.1, 0.2], [0.6, 0.2]])
        g = dirichlet_gram(pts, lam1)
        delta = pts[0] - pts[1]

        def dirichlet(t, half=1):
            return np.real(sum(np.exp(2j * np.pi * k * t) for k in range(-half, half + 1)))

        off = dirichlet(delta[0]) * dirichlet(delta[1])
        assert g[0, 0].real == pytest.approx(9.0)
        assert g[0, 1].real == pytest.approx(off, abs=1e-10)
        smin = np.linalg.svd(g, compute_uv=False)[-1]
        assert smin == pytest.approx(9.0 - abs(off), abs=1e-9)

    def test_clustered_points_condition_worse_than_spread(self):
        edge = random_edge_polynomial(IndexSet2D.rect(3, 3), seed=4)
        lam1 = IndexSet2D.rect(3, 3)
        pts = zero_set_points(edge, 512)
        order = np.argsort(pts[:, 0] + pts[:, 1])
        clustered = pts[order[:6]]
        from slrecon.analysis import _farthest_point_subset

        spread = _farthest_point_subset(pts, 6, start=0)
        s_clustered = np.linalg.svd(dirichlet_gram(clustered, lam1), compute_uv=False)[-1]
        s_spread = np.linalg.svd(dirichlet_gram(spread, lam1), compute_uv=False)[-1]
        assert s_clustered < s_spread

    def test_estimate_is_min_over_tested_sets(self):
        edge = random_edge_polynomial(IndexSet2D.rect(3, 3), seed=4)
        lam1 = IndexSet2D.rect(5, 5)
        est, meta = rho1_estimate(edge, lam1, R=8, seed=1, n_restarts=6)
        assert est == pytest.approx(1.0 / meta["best_sigma_min"])
        assert meta["restarts"] == 6

    def test_insufficient_zero_set_points(self):
        edge = random_edge_polynomial(IndexSet2D.rect(3, 3), seed=4)
        with pytest.raises(ValueError, match="raster points"):
            rho1_estimate(edge, IndexSet2D.rect(3, 3), R=100, raster=8)


class TestZeroSet:
    def test_points_lie_on_zero_level_set(self):
        edge = random_edge_polynomial(IndexSet2D.rect(3, 3), seed=4)
        pts = zero_set_points(edge, 512)
        assert pts.shape[0] > 100
        vals = mu_values_at(edge, pts)
        scale = np.abs(edge.coeffs).sum()
        assert np.abs(vals).max() < 1e-3 * scale


class TestSubspaceCheck:
    def setup_method(self):
        self.edge = random_edge_polynomial(IndexSet2D.rect(3, 3), seed=4)
        self.ph = Phantom(self.edge, (1.0, 0.0), oversample=8)
        self.chk = subspace_check(
            self.ph, IndexSet2D.rect(5, 5), IndexSet2D.rect(65, 65), n_points=40, seed=1
        )

    def test_row_residuals_quadrature_limited(self):
        assert np.median(self.chk.row_residuals) < 1e-2

    def test_on_off_contrast(self):
        assert self.chk.contrast > 1e2

    def test_selected_translate_count_is_rank(self):
        assert self.chk.selected == self.chk.rank == 16

    def test_column_candidates_span_rank(self):
        assert self.chk.col_span_dim == self.chk.rank

    def test_column_residuals_and_contrast(self):
        assert np.median(self.chk.col_residuals) < 1e-2
        assert self.chk.col_contrast > 1e2


class TestPhaseTransition:
    def test_endpoints(self):
        gamma = IndexSet2D.rect(17, 17)
        lam0 = IndexSet2D.rect(3, 3)
        lam1 = IndexSet2D.rect(5, 5)
        edge = random_edge_polynomial(lam0, seed=6)
        r = predicted_rank(lam1, lam0)
        res = phase_transition(
            edge, lam1, gamma, sample_counts=[r // 2, len(gamma)], trials=3, seed=0,
            solver_kwargs=dict(max_outer=10),
        )
        assert res.success_fractions[0] == 0.0  # under-determined
        assert res.success_fractions[-1] == 1.0  # fully sampled
        assert res.monotone_within_noise()
        assert len(res.seeds) == 2 and len(res.seeds[0]) == 3
