"""Theory validation and metrics: numerical rank, incoherence measures,
row/column subspace checks, phase-transition experiments, SNR.

The incoherence searches are heuristics with declared budgets: the exact
optimizations over continuum point sets are out of reach, so the outputs are
labeled estimates and every quadrature-based check carries a tolerance tied
to the phantom oversampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import IndexSet2D, predicted_rank
from .lifting import KSpaceArray, LiftingConfig, lift_dense, read_offsets, scatter_sum
from .phantom import EdgePolynomial, Phantom, make_mask, phantom_fourier, rasterize_mu, sample_kspace


def numerical_rank(X: np.ndarray, rel_tol: float) -> int:
    """Count of singular values above rel_tol times the largest."""
    if not 0.0 < rel_tol < 1.0:
        raise ValueError("rel_tol must lie in (0, 1)")
    s = np.linalg.svd(np.asarray(X), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int((s > rel_tol * s[0]).sum())


def snr_db(x: KSpaceArray, reference: KSpaceArray) -> float:
    """20 log10(||ref|| / ||x - ref||), evaluated on the spatial images."""
    if x.gamma != reference.gamma:
        raise ValueError("arrays live on different grids")
    ref_img = reference.image()
    ref_norm = np.linalg.norm(ref_img)
    if ref_norm == 0.0:
        raise ValueError("reference signal is identically zero")
    err = np.linalg.norm(x.image() - ref_img)
    if err == 0.0:
        return math.inf
    return float(20.0 * np.log10(ref_norm / err))


# ---------------------------------------------------------------------------
# incoherence measures of the edge polynomial
# ---------------------------------------------------------------------------


def _normalized_gradient_coeffs(edge: EdgePolynomial) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis gradient coefficient arrays, scaled so the gradient has unit
    L2 norm.  The constant 2*pi is dropped; the normalization cancels it."""
    r1, r2 = edge.lambda0.axis_ranges()
    gx = r1[:, None] * edge.coeffs
    gy = r2[None, :] * edge.coeffs
    energy = float((np.abs(gx) ** 2 + np.abs(gy) ** 2).sum())
    if energy == 0.0:
        raise ValueError("edge polynomial has a constant (gradient-free) raster")
    scale = 1.0 / np.sqrt(energy)
    return gx * scale, gy * scale


def gradient_sq_coefficients(edge: EdgePolynomial) -> tuple[IndexSet2D, np.ndarray]:
    """Fourier coefficients of |grad mu0|^2 (exact autocorrelation sums).

    The support is the lag rectangle spanning -(e-1)..(e-1) per axis,
    row-major aligned with the returned array.
    """
    gx, gy = _normalized_gradient_coeffs(edge)
    acx = _autocorrelate(gx)
    acy = _autocorrelate(gy)
    e1, e2 = edge.lambda0.extents
    support = IndexSet2D.rect(2 * e1 - 1, 2 * e2 - 1, offset=(0, 0))
    return support, acx + acy


def _autocorrelate(c: np.ndarray) -> np.ndarray:
    """a[m] = sum_k conj(c[k]) c[k+m], lags m in -(e-1)..(e-1) per axis: the
    products c[k] conj(c[l]) summed onto their lag k - l, wrapped on extents
    2e - 1 where no two lags alias, then rolled by e - 1 to centre lag 0."""
    (e1, e2), v = c.shape, c.ravel()
    lags = (2 * e1 - 1, 2 * e2 - 1)
    reads = read_offsets((range(e1), range(e2)), c.shape, lags)
    a = scatter_sum(reads, np.outer(v, np.conj(v)), lags)
    return np.roll(a, (e1 - 1, e2 - 1), axis=(0, 1))


def rho2(edge: EdgePolynomial, lambda1: IndexSet2D) -> float:
    """Gradient incoherence: l1-norm-squared of the normalized gradient
    coefficients over the smallest Rayleigh quotient of |grad mu0|^2 against
    unit-norm trig polynomials supported on lambda1."""
    gx, gy = _normalized_gradient_coeffs(edge)
    ell1 = float((np.abs(gx) + np.abs(gy)).sum())
    q = rho2_quadratic_form(edge, lambda1)
    w = np.linalg.eigvalsh(q)
    lam_min = float(w[0])
    if lam_min <= -1e-10 * max(float(w[-1]), 1.0):
        raise ValueError("quadratic form lost positive semidefiniteness")
    lam_min = max(lam_min, 0.0)
    if lam_min == 0.0:
        return math.inf
    return ell1**2 / lam_min


def rho2_quadratic_form(edge: EdgePolynomial, lambda1: IndexSet2D) -> np.ndarray:
    """Hermitian matrix Q with Q[k, l] = Fourier coefficient of |grad mu0|^2
    at k - l, for k, l in lambda1 (a Toeplitz-structured form).  The centred
    coefficients (half-width h) are wrapped onto extents max(2h + 1, f + h),
    f = lambda1's extents, so each lag reads its own coefficient or a zero."""
    _, coeffs = gradient_sq_coefficients(edge)
    f, half = lambda1.extents, [s // 2 for s in coeffs.shape]
    extents = tuple(max(2 * h + 1, fi + h) for fi, h in zip(f, half))
    wrapped = np.zeros(extents, dtype=coeffs.dtype)
    wrapped[np.ix_(*(np.arange(-h, h + 1) % e for h, e in zip(half, extents)))] = coeffs
    q = np.take(wrapped, read_offsets((range(f[0]), range(f[1])), f, extents))
    return 0.5 * (q + q.conj().T)


def rho2_rayleigh_search(
    edge: EdgePolynomial, lambda1: IndexSet2D, n_starts: int = 50, refine_steps: int = 200, seed: int = 0
) -> float:
    """Independent check of the eigen route: random unit coefficient vectors
    plus projected-gradient refinement of the Rayleigh quotient.  A start
    whose step vanishes (a top eigenvector, as every start of a 1 x 1 form
    is) keeps its quotient."""
    q = rho2_quadratic_form(edge, lambda1)
    n = q.shape[0]
    rng = np.random.default_rng(np.random.Philox(key=seed))
    best = math.inf
    lam_max = float(np.linalg.norm(q, 2))
    step = 1.0 / max(lam_max, 1e-30)
    for _ in range(n_starts):
        g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        g /= np.linalg.norm(g)
        for _ in range(refine_steps):
            nxt = g - step * (q @ g)
            norm = np.linalg.norm(nxt)
            if norm == 0.0:
                break
            g = nxt / norm
        best = min(best, float(np.vdot(g, q @ g).real))
    gx, gy = _normalized_gradient_coeffs(edge)
    ell1 = float((np.abs(gx) + np.abs(gy)).sum())
    return ell1**2 / best


def dirichlet_translate_filters(points: np.ndarray, lambda1: IndexSet2D) -> np.ndarray:
    """Fourier coefficients of Dirichlet kernels translated to the points:
    column i holds exp(-2j pi k . r_i) over k in lambda1."""
    pts = np.atleast_2d(points)
    return np.exp(-2j * np.pi * (lambda1.indices.astype(float) @ pts.T))


def dirichlet_gram(points: np.ndarray, lambda1: IndexSet2D) -> np.ndarray:
    """G[i, j] = D_lambda1(r_i - r_j), assembled as E^H E so it is PSD."""
    e = dirichlet_translate_filters(points, lambda1)
    return e.conj().T @ e


def zero_set_points(edge: EdgePolynomial, raster: int = 512) -> np.ndarray:
    """Points on the zero level-set, from sign changes on a fine raster with
    linear interpolation along grid edges."""
    mu = rasterize_mu(edge, (raster, raster))
    pts = []
    for axis in (0, 1):
        a = mu
        b = np.roll(mu, -1, axis=axis)
        crossing = np.sign(a) * np.sign(b) < 0
        ii, jj = np.nonzero(crossing)
        frac = a[ii, jj] / (a[ii, jj] - b[ii, jj])
        if axis == 0:
            pts.append(np.stack([(ii + frac) / raster, jj / raster], axis=1))
        else:
            pts.append(np.stack([ii / raster, (jj + frac) / raster], axis=1))
    if not pts or sum(p.shape[0] for p in pts) == 0:
        return np.zeros((0, 2))
    return np.concatenate(pts, axis=0)


def _torus_dist2(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    d = np.abs(p[:, None, :] - q[None, :, :])
    d = np.minimum(d, 1.0 - d)
    return (d**2).sum(axis=2)


def _farthest_point_subset(points: np.ndarray, r: int, start: int) -> np.ndarray:
    chosen = [start % points.shape[0]]
    d2 = _torus_dist2(points, points[chosen[-1]][None, :])[:, 0]
    for _ in range(r - 1):
        nxt = int(np.argmax(d2))
        chosen.append(nxt)
        d2 = np.minimum(d2, _torus_dist2(points, points[nxt][None, :])[:, 0])
    return points[chosen]


def rho1_estimate(
    edge: EdgePolynomial,
    lambda1: IndexSet2D,
    R: int,
    n_restarts: int = 8,
    raster: int = 512,
    seed: int = 0,
) -> tuple[float, dict]:
    """Heuristic upper-bound estimate of the point-set incoherence.

    Greedy farthest-point selection of R zero-set points plus random
    restarts; returns 1 / (best sigma_min of the Dirichlet Gram found) and
    the search metadata.  More search can only lower the estimate.
    """
    if R < 1:
        raise ValueError("R must be at least 1")
    pts = zero_set_points(edge, raster)
    if pts.shape[0] < R:
        raise ValueError(f"zero set yields {pts.shape[0]} raster points; need {R}")
    rng = np.random.default_rng(np.random.Philox(key=seed))
    best = -math.inf
    best_pts = None
    starts = [0] + [int(rng.integers(pts.shape[0])) for _ in range(max(0, n_restarts - 1))]
    for s in starts:
        cand = _farthest_point_subset(pts, R, s)
        smin = float(np.linalg.svd(dirichlet_gram(cand, lambda1), compute_uv=False)[-1])
        if smin > best:
            best, best_pts = smin, cand
    meta = {
        "seed": seed,
        "restarts": len(starts),
        "raster": raster,
        "zero_set_points": int(pts.shape[0]),
        "best_sigma_min": best,
        "points": best_pts.tolist(),
    }
    return 1.0 / best, meta


# ---------------------------------------------------------------------------
# row/column subspace checks
# ---------------------------------------------------------------------------


@dataclass
class SubspaceCheck:
    row_residuals: np.ndarray
    off_curve_residuals: np.ndarray
    col_residuals: np.ndarray
    col_off_residuals: np.ndarray
    selected: int
    col_span_dim: int
    rank: int

    @property
    def contrast(self) -> float:
        return float(np.median(self.off_curve_residuals) / np.median(self.row_residuals))

    @property
    def col_contrast(self) -> float:
        return float(np.median(self.col_off_residuals) / np.median(self.col_residuals))


def subspace_check(
    ph: Phantom,
    lambda1: IndexSet2D,
    gamma: IndexSet2D,
    n_points: int = 48,
    seed: int = 0,
) -> SubspaceCheck:
    """Validate the subspace structure of the gradient-weighted lifting.

    Row space: Dirichlet-kernel translates to zero-set points should project
    onto the numerical row space with small residual, while translates to
    off-curve points should not.  Column space: convolving R independently
    selected on-curve translates through the gradient-weighted data (the
    lifted image of each translate) must land in the top-R left subspace and
    span all R dimensions; images of off-curve translates consist mostly of
    the quadrature tail and do not.  On- and off-curve points come from a
    512 x 512 raster of the edge polynomial.
    """
    raster = 512
    edge = ph.edge
    cfg = LiftingConfig.make(gamma, lambda1, "gradient")
    ks = phantom_fourier(ph, gamma)
    t = lift_dense(ks, cfg)
    u, s, vh = np.linalg.svd(t, full_matrices=False)
    rank = predicted_rank(lambda1, edge.lambda0)
    vr = vh[:rank].conj().T  # row-space basis
    ur = u[:, :rank]

    pts = zero_set_points(edge, raster)
    if pts.shape[0] < n_points:
        raise ValueError("not enough zero-set points for the requested sample")
    rng = np.random.default_rng(np.random.Philox(key=seed))
    pick = rng.choice(pts.shape[0], size=n_points, replace=False)
    on_pts = pts[pick]

    filt = dirichlet_translate_filters(on_pts, lambda1)
    filt = filt / np.linalg.norm(filt, axis=0, keepdims=True)
    row_res = np.linalg.norm(filt - vr @ (vr.conj().T @ filt), axis=0)

    # off-curve contrast: points where |mu0| is large
    mu = rasterize_mu(edge, (raster, raster))
    flat = np.abs(mu).ravel()
    order = np.argsort(flat)[::-1][: 20 * n_points]
    pick_off = rng.choice(order.size, size=n_points, replace=False)
    off_idx = order[pick_off]
    off_pts = np.stack([off_idx // raster, off_idx % raster], axis=1) / raster
    filt_off = dirichlet_translate_filters(off_pts, lambda1)
    filt_off = filt_off / np.linalg.norm(filt_off, axis=0, keepdims=True)
    off_res = np.linalg.norm(filt_off - vr @ (vr.conj().T @ filt_off), axis=0)

    # greedy selection of R independent translates via pivoted QR
    from scipy.linalg import qr

    _, _, piv = qr(filt, pivoting=True, mode="economic")
    selected = filt[:, piv[:rank]]

    cand = t @ selected
    cand = cand / np.linalg.norm(cand, axis=0, keepdims=True)
    col_res = np.linalg.norm(cand - ur @ (ur.conj().T @ cand), axis=0)
    span_dim = numerical_rank(cand, 1e-6)
    cand_off = t @ filt_off[:, :rank]
    norms = np.linalg.norm(cand_off, axis=0, keepdims=True)
    cand_off = cand_off / np.where(norms > 0, norms, 1.0)
    col_off = np.linalg.norm(cand_off - ur @ (ur.conj().T @ cand_off), axis=0)
    return SubspaceCheck(
        row_residuals=row_res,
        off_curve_residuals=off_res,
        col_residuals=col_res,
        col_off_residuals=col_off,
        selected=int(rank),
        col_span_dim=int(span_dim),
        rank=int(rank),
    )


# ---------------------------------------------------------------------------
# phase transition
# ---------------------------------------------------------------------------


@dataclass
class PhaseTransitionResult:
    sample_counts: list[int]
    success_fractions: list[float]
    trials: int
    per_trial: list[list[bool]]
    seeds: list[list[int]]

    def wilson_halfwidth(self, i: int) -> float:
        """Half-width of the 95% Wilson score interval (z = 1.96) of level i's
        success fraction."""
        z = 1.96
        n = self.trials
        p = self.success_fractions[i]
        denom = 1.0 + z**2 / n
        halfwidth = z * math.sqrt(p * (1 - p) / n + z**2 / (4 * n**2)) / denom
        return halfwidth

    def monotone_within_noise(self) -> bool:
        for i in range(len(self.sample_counts) - 1):
            slack = self.wilson_halfwidth(i) + self.wilson_halfwidth(i + 1)
            if self.success_fractions[i + 1] < self.success_fractions[i] - slack:
                return False
        return True


def phase_transition(
    edge: EdgePolynomial,
    lambda1: IndexSet2D,
    gamma: IndexSet2D,
    sample_counts: list[int],
    trials: int,
    seed: int = 0,
    solver_kwargs: dict | None = None,
    oversample: int = 8,
) -> PhaseTransitionResult:
    """Monte-Carlo recovery success versus the number of random samples.

    Each trial draws a fresh uniform mask (per-trial seeds are recorded for
    exact replay), recovers with the IRLS solver, and scores success when the
    relative k-space error is below 1e-3.  Trials are independent, so
    they may run in any order; results are keyed by trial index.
    """
    from .giraf import IRLSConfig, giraf_solve

    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    # the exact operator matters here: phase-transition grids are small, so
    # the mask-condensed approximation is at its least accurate
    defaults = dict(p=0.0, lam=1e9, max_outer=15, cg_tol=1e-11, cg_max=400,
                    convergence_tol=1e-7, operator="exact")
    defaults.update(solver_kwargs or {})
    cfg = IRLSConfig(**defaults)
    lifting = LiftingConfig.make(gamma, lambda1, "gradient")
    truth = phantom_fourier(Phantom(edge, (1.0, 0.0), oversample=oversample), gamma)
    m = len(gamma)
    fractions, outcomes, seeds = [], [], []
    for li, count in enumerate(sample_counts):
        if not 1 <= count <= m:
            raise ValueError(f"sample count {count} outside 1..{m}")
        level_outcomes, level_seeds = [], []
        for t in range(trials):
            trial_seed = int(np.random.default_rng(
                np.random.Philox(key=[seed, li * 1_000_003 + t])).integers(2**31 - 1))
            level_seeds.append(trial_seed)
            mask = make_mask(gamma, "uniform", acceleration=m / count, seed=trial_seed)
            b = sample_kspace(truth, mask)
            rec, _ = giraf_solve(b, mask, lifting, cfg)
            err = np.linalg.norm(rec.values - truth.values) / np.linalg.norm(truth.values)
            level_outcomes.append(bool(err < 1e-3))
        outcomes.append(level_outcomes)
        seeds.append(level_seeds)
        fractions.append(sum(level_outcomes) / trials)
    return PhaseTransitionResult(
        sample_counts=list(sample_counts),
        success_fractions=fractions,
        trials=trials,
        per_trial=outcomes,
        seeds=seeds,
    )
