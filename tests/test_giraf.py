import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slrecon.grid import IndexSet2D
from slrecon.lifting import (
    KSpaceArray,
    LiftingConfig,
    adjoint_apply,
    apply_filter,
    embed,
    gather,
    gram_matrix,
    lift_adjoint,
    lift_dense,
)
from slrecon.baselines import zero_fill
from slrecon.giraf import (
    IRLSConfig,
    cg_solve,
    giraf_solve,
    mask_from_filters,
    normal_apply_approx,
    normal_apply_exact,
    normal_diag_approx,
    normal_diag_exact,
    schatten_penalty,
    weight_matrix,
    _spectral_weights,
)
from slrecon.phantom import (Phantom, SamplingMask, dirac_fourier, make_mask, phantom_fourier,
                             random_edge_polynomial, sample_kspace)

from conftest import lifting_configs, random_kspace


def rel_err(a, b):
    return np.linalg.norm(np.ravel(a) - np.ravel(b)) / np.linalg.norm(np.ravel(b))


class TestSchattenPenalty:
    def test_nuclear_of_flat_spectrum(self):
        assert schatten_penalty([1.0, 1.0, 1.0], 1.0) == pytest.approx(3.0)

    def test_log_penalty(self):
        assert schatten_penalty([np.e, np.e**2], 0.0) == pytest.approx(3.0)

    def test_half_power(self):
        assert schatten_penalty([4.0, 1.0], 0.5) == pytest.approx(6.0)

    def test_zero_sigma_at_p0_warns(self):
        with pytest.warns(RuntimeWarning):
            assert schatten_penalty([0.0, 1.0], 0.0) == float("-inf")


def weight_mask(gram, eps, p, cfg):
    """Annihilating mask of the IRLS weights of a Gram matrix."""
    w, vecs = np.linalg.eigh(gram)
    return mask_from_filters(weight_matrix(w, vecs, eps, p), cfg)


def per_filter_mask(filters, cfg):
    """Oracle: sum_j |size * ifft2(embed f_j)|^2, one filter at a time."""
    acc = np.zeros(cfg.gamma.extents)
    for f in np.asarray(filters).T:
        g = embed(f.reshape(cfg.lambda1.extents), cfg.lambda1, cfg.gamma.extents)
        acc += np.abs(np.fft.ifft2(g) * len(cfg.gamma)) ** 2
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
        assert np.abs(mask.values - oracle).max() <= 1e-13 * oracle.max()

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
            assert mask.values.min() >= 0.0
            assert np.abs(mask.values - oracle).max() <= 1e-13 * oracle.max()


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


def dft_matrix(n):
    return np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)


class TestWeightUpdate:
    def test_single_delta_filter_gives_flat_mask(self):
        gamma = IndexSet2D.rect(5, 5)
        cfg = LiftingConfig.make(gamma, IndexSet2D.rect(1, 1))
        mask = weight_mask(np.eye(1), 1e-12, 1.0, cfg)
        assert np.allclose(mask.values, mask.values.flat[0])

    def test_matches_direct_dft_oracle(self):
        gamma = IndexSet2D.rect(8, 8)
        cfg = LiftingConfig.make(gamma, IndexSet2D.rect(3, 3))
        x = random_kspace(gamma, 0)
        g = gram_matrix(x, cfg)
        eps = 1e-3 * np.linalg.eigvalsh(g)[-1]
        mask = weight_mask(g, eps, 0.0, cfg)
        w, vecs = np.linalg.eigh(0.5 * (g + g.conj().T))
        alpha = (np.maximum(w, 0) + eps) ** (-1.0)
        n1, n2 = gamma.extents
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
        assert np.abs(mask.values - direct).max() < 1e-10 * direct.max()

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
        assert m1.values.min() >= 0.0
        assert np.abs(m1.values - m2.values).max() < 1e-10 * m1.values.max()

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
        assert rel_err(m2.values, c ** (p - 2) * m1.values) < 1e-9


class TestNormalOperators:
    def test_flat_mask_is_parseval_identity(self):
        gamma = IndexSet2D.rect(9, 9)
        cfg = LiftingConfig.make(gamma, IndexSet2D.rect(3, 3))
        from slrecon.giraf import AnnihilatingMask

        ones = AnnihilatingMask(np.ones(gamma.extents))
        x = random_kspace(gamma, 11)
        out = normal_apply_approx(x.values, ones, cfg, 0.0, np.zeros(gamma.extents))
        assert rel_err(out, x.values) < 1e-12

    def test_zero_mask_leaves_data_term(self):
        gamma = IndexSet2D.rect(9, 9)
        cfg = LiftingConfig.make(gamma, IndexSet2D.rect(3, 3))
        from slrecon.giraf import AnnihilatingMask

        zero = AnnihilatingMask(np.zeros(gamma.extents))
        mask = make_mask(gamma, "uniform", 3.0, seed=1)
        x = random_kspace(gamma, 13)
        out = normal_apply_approx(x.values, zero, cfg, 1.0, mask.indicator())
        assert rel_err(out, mask.indicator() * x.values) < 1e-13

    @pytest.mark.parametrize("weighting", ["identity", "gradient"])
    def test_approx_matches_dense_dft_assembly(self, weighting):
        # the oracle places gamma at its signed indices mod n; the operator
        # works unplaced on gamma's array, so off-centre and odd-by-even
        # gammas check that the placement drops out
        for gamma in (IndexSet2D.rect(16, 16), IndexSet2D.rect(12, 9, offset=(3, -2)),
                      IndexSet2D.rect(16, 15)):
            cfg = LiftingConfig.make(gamma, IndexSet2D.rect(3, 3), weighting)
            x = random_kspace(gamma, 17)
            g = gram_matrix(x, cfg)
            eps = 1e-2 * np.linalg.eigvalsh(g)[-1]
            mask = weight_mask(g, eps, 0.0, cfg)
            smask = make_mask(gamma, "uniform", 2.0, seed=3)
            lam = 2.5
            theta = smask.indicator()
            out = normal_apply_approx(x.values, mask, cfg, lam, theta)
            # independent dense route: explicit DFT matrices
            n1, n2 = gamma.extents
            f1, f2 = dft_matrix(n1), dft_matrix(n2)
            f1i, f2i = np.conj(f1) / n1, np.conj(f2) / n2
            acc = lam * theta * x.values
            for w in cfg.multipliers:
                grid = embed(w * x.values, gamma, gamma.extents)
                spatial = f1i @ grid @ f2i.T
                back = f1 @ (mask.values * spatial) @ f2.T
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
        smask = make_mask(gamma, "uniform", 2.0, seed=5)
        lam = 0.7
        theta = smask.indicator()
        m = gamma.extents[0] * gamma.extents[1]
        r_dense = lam * np.diag(theta.ravel()).astype(complex)
        for i in range(filters.shape[1]):
            li = np.zeros((cfg.lifted_shape[0], m), dtype=complex)
            for c in range(m):
                e = np.zeros(m)
                e[c] = 1.0
                li[:, c] = lift_dense(KSpaceArray(gamma, e.reshape(gamma.extents)), cfg) @ filters[:, i]
            r_dense += li.conj().T @ li
        out = normal_apply_exact(x.values, weight_matrix(w, vecs, 1e-2 * w[-1], 0.0), cfg, lam, theta)
        expect = (r_dense @ x.values.ravel()).reshape(gamma.extents)
        assert rel_err(out, expect) < 1e-9

    def test_exact_with_delta_filter_is_window_restriction(self):
        gamma = IndexSet2D.rect(9, 9)
        cfg = LiftingConfig.make(gamma, IndexSet2D.rect(3, 3))
        h = np.zeros((9, 1), dtype=complex)
        h[4, 0] = 1.0
        x = random_kspace(gamma, 23)
        out = normal_apply_exact(x.values, h @ h.conj().T, cfg, 0.0, np.zeros(gamma.extents))
        window = np.zeros(gamma.extents)
        rel = cfg.lambda2.indices - gamma.kmin
        window[rel[:, 0], rel[:, 1]] = 1.0
        assert rel_err(out, window * x.values) < 1e-12


class TestExactOperatorOracle:
    @settings(max_examples=60, deadline=None)
    @given(weighted_banks(), st.integers(0, 2**16), st.sampled_from([0.0, 0.7]))
    def test_matches_per_filter_fft_oracle(self, bank, seed, lam):
        filters, cfg = bank
        x = random_kspace(cfg.gamma, seed)
        theta = (np.random.default_rng([seed, 1]).random(cfg.gamma.extents) < 0.5).astype(float)
        wm = filters @ filters.conj().T
        out = normal_apply_exact(x.values, wm, cfg, lam, theta)
        expect = lam * theta * x.values
        for f in filters.T:
            expect = expect + adjoint_apply(apply_filter(x, f, cfg), f, cfg).values
        # relative to a bound on the operator's norm: T^*T is diagonal with
        # entries at most N max|w|^2, and T(x) may vanish (or nearly so) while
        # the FFT oracle still rounds at the scale of x
        lift_sq = cfg.n_filter * max(np.abs(w).max() ** 2 for w in cfg.multipliers)
        scale = (lam + lift_sq * np.linalg.norm(wm, 2)) * np.linalg.norm(x.values)
        assert np.linalg.norm(out - expect) <= 1e-12 * scale


class TestCG:
    def test_solves_hermitian_system(self):
        rng = np.random.default_rng(29)
        a = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        mat = a.conj().T @ a + 0.5 * np.eye(12)
        rhs = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        op = lambda v: (mat @ v.ravel()).reshape(v.shape)
        x, info = cg_solve(op, np.ones(12), rhs, np.zeros_like(rhs), 1e-12, 200)
        assert info["converged"]
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
        assert info["converged"]
        assert info["stop_reason"] == "converged"

    def test_indefinite_operator_reports_stop_reason(self):
        x, info = cg_solve(lambda v: -v, np.ones(5), np.ones(5), np.zeros(5), 1e-10, 10)
        assert not info["converged"]
        assert info["stop_reason"] == "indefinite"
        assert info["iterations"] == 0

    def test_iteration_cap_reports_stop_reason(self):
        mat = np.diag(np.arange(1.0, 9.0))
        _, info = cg_solve(lambda v: mat @ v, np.ones(8), np.ones(8), np.zeros(8), 1e-14, 2)
        assert info["stop_reason"] == "max_iter"
        assert info["iterations"] == 2

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
        assert info["converged"] and info["iterations"] > 1
        assert true_rel <= tol
        assert info["relative_residual"] == pytest.approx(true_rel, rel=1e-3)


def dense_matrix(op, extents):
    """The operator's matrix over gamma-shaped arrays, one basis vector a column."""
    m = extents[0] * extents[1]
    return np.stack([op(e.reshape(extents)).ravel() for e in np.eye(m)], axis=1)


def random_normal_problem(cfg, seed, definite):
    """Both normal operators, with their diagonals, for a random positive
    definite weight matrix, lam and sampling pattern.  If ``definite``, the
    pattern also samples every row the lifting leaves empty (DC under
    gradient weighting), which makes both operators positive definite."""
    rng = np.random.default_rng(seed)
    n = cfg.n_filter
    f = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    wm = f @ f.conj().T / n
    theta = (rng.random(cfg.gamma.extents) < 0.5).astype(float)
    if definite:
        theta[normal_diag_exact(wm, cfg, 0.0, theta) == 0.0] = 1.0
    lam = float(rng.uniform(0.1, 10.0))
    mask = mask_from_filters(wm, cfg)
    return {
        "approximate": (lambda v: normal_apply_approx(v, mask, cfg, lam, theta),
                        normal_diag_approx(mask, cfg, lam, theta)),
        "exact": (lambda v: normal_apply_exact(v, wm, cfg, lam, theta),
                  normal_diag_exact(wm, cfg, lam, theta)),
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
        diag = normal_diag_exact(f @ f.conj().T, cfg, 1.0, np.zeros(cfg.gamma.extents))
        empty = np.argwhere(diag <= 0) + cfg.gamma.kmin
        has_dc = cfg.gamma.contains(IndexSet2D.rect(1, 1))
        assert empty.tolist() == ([[0, 0]] if cfg.weighting == "gradient" and has_dc else [])

    @settings(max_examples=30, deadline=None)
    @given(lifting_configs(), st.integers(0, 2**16))
    def test_equals_dense_diagonal(self, cfg, seed):
        for op, diag in random_normal_problem(cfg, seed, definite=False).values():
            dense = np.diag(dense_matrix(op, cfg.gamma.extents))
            assert np.abs(diag.ravel() - dense).max() <= 1e-12 * np.abs(dense).max()

    @settings(max_examples=30, deadline=None)
    @given(lifting_configs(), st.integers(0, 2**16))
    def test_preconditioned_and_plain_cg_agree(self, cfg, seed):
        # both stop with ||rhs - A x|| <= tol ||rhs||, so their solutions
        # differ by at most 2 tol ||rhs|| / lambda_min(A)
        tol = 1e-8
        rhs = random_kspace(cfg.gamma, seed + 1).values
        for op, diag in random_normal_problem(cfg, seed, definite=True).values():
            lam_min = np.linalg.eigvalsh(dense_matrix(op, cfg.gamma.extents))[0]
            x0 = np.zeros_like(rhs)
            maxiter = 20 * rhs.size
            x_pcg, info_pcg = cg_solve(op, diag, rhs, x0, tol, maxiter)
            x_cg, info_cg = cg_solve(op, np.ones(rhs.shape), rhs, x0, tol, maxiter)
            assert info_pcg["converged"] and info_cg["converged"]
            bound = 2 * tol * np.linalg.norm(rhs) / lam_min
            assert np.linalg.norm(x_pcg - x_cg) <= 1.01 * bound


def brute_force_irls_iteration(b, mask, cfg_lift, p, lam, eps0_factor):
    """Dense reference for one IRLS iteration: dense weight matrix from the
    Gram eigen-decomposition, dense normal equations, direct solve."""
    gamma = cfg_lift.gamma
    m = gamma.extents[0] * gamma.extents[1]
    x0 = zero_fill(b, mask).values
    t0 = lift_dense(KSpaceArray(gamma, x0), cfg_lift)
    gram = t0.conj().T @ t0
    w, vecs = np.linalg.eigh(0.5 * (gram + gram.conj().T))
    eps = eps0_factor * w[-1]
    alpha = (np.maximum(w, 0.0) + eps) ** (p / 2.0 - 1.0)
    wm = (vecs * alpha) @ vecs.conj().T
    # dense normal matrix R[a, b] = <T(e_a), T(e_b) W> from the lifted basis
    basis = np.stack([lift_dense(KSpaceArray(gamma, e.reshape(gamma.extents)), cfg_lift)
                      for e in np.eye(m)])
    theta = mask.indicator().ravel()
    r_dense = lam * np.diag(theta).astype(complex)
    r_dense += basis.conj().reshape(m, -1) @ (basis @ wm).reshape(m, -1).T
    rhs = lam * x0.ravel()
    return np.linalg.solve(r_dense, rhs).reshape(gamma.extents)


def dirac_stream_recovery(seed):
    """Five well separated Diracs on a 64x1 grid, recovered by the exact
    operator with an 8x1 filter from a uniform mask drawn with ``seed``;
    returns the mask and the relative error."""
    locs = [0.08, 0.31, 0.52, 0.74, 0.9]
    amps = np.array([1.0, -0.7 + 0.3j, 0.9, 1.2j, -0.5])
    gamma = IndexSet2D.rect(64, 1)
    truth = dirac_fourier([(x, 0.0) for x in locs], amps, gamma)
    mask = make_mask(gamma, "uniform", acceleration=2.0, seed=seed)
    lifting = LiftingConfig.make(gamma, IndexSet2D.rect(8, 1), "identity")
    cfg = IRLSConfig(p=0.0, lam=1e8, operator="exact", max_outer=40,
                     eps_decay=1.5, cg_tol=1e-13, cg_max=3000, convergence_tol=1e-10)
    rec, _ = giraf_solve(sample_kspace(truth, mask), mask, lifting, cfg)
    return mask, rel_err(rec.values, truth.values)


class TestGirafSolve:
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
            assert rec.mse_vs_reference == rec.mse_vs_reference
        assert rep.final_mse is not None

    def test_zero_iteration_solve_is_not_convergence(self):
        # the first solve starts at the zero-filled data, whose residual is only
        # the regularizer's term; under a loose cg_tol it takes no CG step and
        # changes nothing, which must not read as convergence
        gamma = IndexSet2D.rect(65, 65)
        edge = random_edge_polynomial(IndexSet2D.rect(3, 3), seed=11)
        truth = phantom_fourier(Phantom(edge, (1.0, 0.0), oversample=8), gamma)
        mask = make_mask(gamma, "uniform", 2.0, seed=5)
        lifting = LiftingConfig.make(gamma, IndexSet2D.rect(15, 15), "gradient")
        cfg = IRLSConfig(p=0.0, lam=1e8, cg_tol=1e-4, max_outer=3)
        _, rep = giraf_solve(sample_kspace(truth, mask), mask, lifting, cfg)
        assert rep.iterations[0].cg_iters == 0
        assert not rep.converged
        assert rep.notes and rep.notes[0].startswith("iteration 1: CG took 0 iterations")

    def test_capped_cg_is_named_in_notes(self):
        gamma = IndexSet2D.rect(12, 12)
        lifting = LiftingConfig.make(gamma, IndexSet2D.rect(3, 3))
        mask = make_mask(gamma, "uniform", 1.5, seed=13)
        b = sample_kspace(random_kspace(gamma, 53), mask)
        cfg = IRLSConfig(p=1.0, lam=1e4, max_outer=1, cg_max=1)
        _, rep = giraf_solve(b, mask, lifting, cfg)
        assert rep.notes and "(max_iter)" in rep.notes[0]
        assert rep.iterations[0].cg_stop_reason == "max_iter"

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
        assert all(r.cg_converged and r.cg_stop_reason == "converged" for r in rep.iterations)
