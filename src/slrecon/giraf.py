"""Iteratively reweighted annihilating-filter solver.

Each outer iteration eigen-decomposes the lifting's Gram matrix into the
IRLS weight matrix W = V diag(alpha) V^H, then solves a weighted
least-squares annihilation problem by conjugate gradients.  W is the only
weight representation and both normal operators read it.  The default
operator condenses W into a single spatial sum-of-squares mask, built from
the lag sums of W with one inverse FFT, and costs 2 FFTs per application
and weighting block; both work on gamma's array, the lifting's only grid.
The exact operator is the definition, the gradient T^*(T(x) W) of
(1/2) tr(T(x) W T(x)^H) on the dense lifting; it is kept for validation
and small grids, and holds the memory of ``lift_dense``.

CG is Jacobi-preconditioned by the diagonal of the operator in use, which
costs at most about one application to compute.  The stopping
test stays on the unpreconditioned residual, so ``cg_tol`` bounds
||rhs - A x|| / ||rhs|| whatever the preconditioner.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np

from ._fft import fft2, ifft2
from .analysis import snr_db
from .baselines import zero_fill
from .lifting import (KSpaceArray, LiftingConfig, gram_matrix, lift_adjoint, lift_dense,
                      lift_normal_diag, scatter_sum)
from .phantom import SamplingMask
from .report import IterationRecord, SolverReport

APPROXIMATE = "approximate"
EXACT = "exact"


# the first smoothing level, and the floor of its geometric decay, relative
# to the largest Gram eigenvalue at the initialization (scale-free)
EPS0_FACTOR = 1e-2
EPS_MIN_FACTOR = 1e-15


@dataclass
class IRLSConfig:
    """Knobs of the IRLS loop."""

    p: float
    lam: float
    eps_decay: float = 2.0
    max_outer: int = 20
    cg_tol: float = 1e-9
    cg_max: int = 500
    operator: str = APPROXIMATE
    convergence_tol: float = 1e-4

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {self.p}")
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.eps_decay <= 1.0:
            raise ValueError("eps_decay must exceed 1")
        if self.operator not in (APPROXIMATE, EXACT):
            raise ValueError(f"operator must be '{APPROXIMATE}' or '{EXACT}'")
        for name in ("cg_tol", "convergence_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.max_outer < 1 or self.cg_max < 1:
            raise ValueError("iteration caps must be at least 1")


@dataclass(frozen=True)
class AnnihilatingMask:
    """Samples of the sum-of-squares annihilating function on gamma's array."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.min() < 0.0:
            raise ValueError("annihilating mask must be non-negative")
        object.__setattr__(self, "values", v)


def schatten_penalty(sigmas, p: float) -> float:
    """(1/p) sum sigma_i^p for p in (0, 1]; sum log sigma_i at p = 0."""
    s = np.asarray(sigmas, dtype=float)
    if (s < 0).any():
        raise ValueError("singular values must be non-negative")
    if p == 0.0:
        if (s == 0.0).any():
            warnings.warn("zero singular value in log penalty; returning -inf", RuntimeWarning)
            return float("-inf")
        return float(np.log(s).sum())
    return float((s**p).sum() / p)


def _spectral_weights(eigenvalues: np.ndarray, eps: float, p: float) -> np.ndarray:
    return (np.maximum(eigenvalues, 0.0) + eps) ** (p / 2.0 - 1.0)


def weight_matrix(eigenvalues: np.ndarray, vectors: np.ndarray, eps: float, p: float) -> np.ndarray:
    """IRLS weight matrix W = V diag(alpha) V^H, with
    alpha_i = (lambda_i + eps)^(p/2 - 1) favouring the null space."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    alpha = _spectral_weights(eigenvalues, eps, p)
    return (vectors * alpha) @ vectors.conj().T


def mask_from_filters(wm: np.ndarray, cfg: LiftingConfig) -> AnnihilatingMask:
    """Sum of squared spatial responses of a filter bank F, sum_j |gamma_j|^2,
    given through its weight matrix W = F F^H.

    Rows and columns of ``wm`` are aligned with cfg.lambda1.  The mask is the
    trigonometric polynomial whose coefficient at lag d is the lag sum of W,
    so it is built in the lag domain: the lag sums wrapped onto gamma's array
    through ``cfg.circular_lags``, the Gram's lag map, then one inverse FFT.
    Negative rounding within 1e-12 of the maximum is clamped to zero;
    anything below that is rejected.
    """
    wm = np.asarray(wm, dtype=np.complex128)
    if wm.shape != (cfg.n_filter, cfg.n_filter):
        raise ValueError(f"weight matrix must be {cfg.n_filter} x {cfg.n_filter}")
    wrapped = scatter_sum(cfg.circular_lags, wm, cfg.gamma.extents)
    values = (ifft2(wrapped) * len(cfg.gamma)).real
    tiny = 1e-12 * max(float(values.max()), 0.0)
    values[(values < 0.0) & (values >= -tiny)] = 0.0
    return AnnihilatingMask(values)


def normal_apply_approx(
    xv: np.ndarray,
    mask: AnnihilatingMask,
    cfg: LiftingConfig,
    lam: float,
    sampled: np.ndarray,
) -> np.ndarray:
    """Mask-condensed normal operator: 2 FFTs per weighting block.

    The mask multiplies in the image domain of gamma's array; where gamma
    sits among the signed indices only modulates that domain, which commutes
    with the multiply, so no placement is needed.
    """
    out = lam * sampled * xv
    for w in cfg.multipliers:
        out = out + w * fft2(mask.values * ifft2(w * xv))
    return out


def normal_apply_exact(
    xv: np.ndarray,
    wm: np.ndarray,
    cfg: LiftingConfig,
    lam: float,
    sampled: np.ndarray,
) -> np.ndarray:
    """Unapproximated normal operator, lam P x + T^*(T(x) W), with P the
    sampling indicator.

    The gradient of (1/2) tr(T(x) W T(x)^H) on the dense lifting, with the
    restriction to the valid output set kept; for W = F F^H it equals the
    sum over the bank's filters of adjoint_apply(apply_filter(x, f), f).
    """
    tx = lift_dense(KSpaceArray(cfg.gamma, xv), cfg)
    return lam * sampled * xv + lift_adjoint(tx @ wm, cfg)


def normal_diag_approx(mask: AnnihilatingMask, cfg: LiftingConfig, lam: float,
                       sampled: np.ndarray) -> np.ndarray:
    """Diagonal of ``normal_apply_approx``.  The circulant part has a
    constant diagonal, the mask's mean over gamma's array."""
    return lam * sampled + mask.values.mean() * (cfg.multipliers**2).sum(axis=0)


def normal_diag_exact(wm: np.ndarray, cfg: LiftingConfig, lam: float,
                      sampled: np.ndarray) -> np.ndarray:
    """Diagonal of ``normal_apply_exact``: entry i sums w_b(i)^2 W[k, k] over
    the taps k whose window reads index i.  Every index is read, so the
    lifting part vanishes only at DC under gradient weighting."""
    return lam * sampled + lift_normal_diag(np.diag(wm).real, cfg)


def cg_solve(op, diag: np.ndarray, rhs: np.ndarray, x0: np.ndarray, tol: float, maxiter: int):
    """Jacobi-preconditioned conjugate gradients on a Hermitian PSD operator
    over complex arrays.

    ``diag`` is the operator's diagonal, shaped like ``rhs``; entries that
    are not positive (rows the operator leaves empty: for GIRAF, DC under
    gradient weighting when DC is unsampled) precondition by 1, and all
    ones gives plain CG exactly.  The iteration stops once the
    unpreconditioned residual satisfies ||rhs - A x|| <= tol ||rhs||.

    Returns (x, info) where info carries the iteration count, the final
    relative residual, why the iteration stopped (``stop_reason``:
    "converged", "max_iter", or "indefinite" when a search direction had
    p^H A p <= 0), and the quadratic objective 0.5<x,Ax> - Re<rhs,x> at
    entry and exit (monotone for exact arithmetic CG).
    """
    inv_diag = 1.0 / np.where(diag > 0, diag, 1.0)
    x = x0.copy()
    r = rhs - op(x)
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return np.zeros_like(x0), {"iterations": 0, "relative_residual": 0.0,
                                   "converged": True, "stop_reason": "converged",
                                   "phi_start": 0.0, "phi_end": 0.0}

    def phi(xc, rc):
        # 0.5<x, Ax> - Re<rhs, x> evaluated from the residual: Ax = rhs - r
        quad = np.vdot(xc, rhs - rc).real
        return 0.5 * quad - np.vdot(rhs, xc).real

    phi_start = phi(x, r)
    z = inv_diag * r
    p = z.copy()
    rz = np.vdot(r, z).real
    rs = np.vdot(r, r).real
    converged = float(np.sqrt(rs)) <= tol * rhs_norm
    stop_reason = "converged" if converged else "max_iter"
    it = 0
    while not converged and it < maxiter:
        ap = op(p)
        denom = np.vdot(p, ap).real
        if denom <= 0:
            stop_reason = "indefinite"  # numerically lost positive-definiteness
            break
        alpha = rz / denom
        x = x + alpha * p
        r = r - alpha * ap
        rs = np.vdot(r, r).real
        it += 1
        if np.sqrt(rs) <= tol * rhs_norm:
            converged = True
            stop_reason = "converged"
        z = inv_diag * r
        rz_new = np.vdot(r, z).real
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p
    info = {
        "iterations": it,
        "relative_residual": float(np.sqrt(rs) / rhs_norm),
        "converged": bool(converged),
        "stop_reason": stop_reason,
        "phi_start": float(phi_start),
        "phi_end": float(phi(x, r)),
    }
    return x, info


def giraf_solve(
    b: np.ndarray,
    mask: SamplingMask,
    lifting: LiftingConfig,
    cfg: IRLSConfig,
    reference: KSpaceArray | None = None,
) -> tuple[KSpaceArray, SolverReport]:
    """Recover k-space data on gamma from samples on the mask's sampled indices.

    Alternates the Gram eigen-decomposition / mask update with a CG solve of
    the (approximate or exact) normal equations, on a geometrically decaying
    smoothing schedule.  CG non-convergence is recorded and iteration
    continues from the last iterate; any NaN is a hard error.  A solve that
    takes no CG iteration (its start already within ``cg_tol``) changes
    nothing, so it is noted and never counted as convergence.
    """
    if mask.gamma != lifting.gamma:
        raise ValueError("mask and lifting configs disagree on gamma")
    sampled = mask.indicator()
    b_fill = zero_fill(b, mask).values
    x = b_fill
    rhs = cfg.lam * b_fill  # lam * adjoint-sampled data
    report = SolverReport(solver=f"giraf[p={cfg.p},{cfg.operator}]")

    eps = None
    eps_min = None
    for n in range(1, cfg.max_outer + 1):
        t0 = time.perf_counter()
        gram = gram_matrix(KSpaceArray(lifting.gamma, x), lifting)
        t1 = time.perf_counter()
        eigenvalues, vectors = np.linalg.eigh(gram)
        if not np.all(np.isfinite(eigenvalues)):
            raise ValueError("non-finite eigenvalues in Gram matrix")
        t2 = time.perf_counter()
        lam_max = float(eigenvalues[-1])
        if eps is None:
            scale = lam_max if lam_max > 0 else 1.0
            eps = EPS0_FACTOR * scale
            eps_min = EPS_MIN_FACTOR * scale
        wm = weight_matrix(eigenvalues, vectors, eps, cfg.p)
        if cfg.operator == APPROXIMATE:
            mask_fn = mask_from_filters(wm, lifting)
            op = lambda v: normal_apply_approx(v, mask_fn, lifting, cfg.lam, sampled)
            diag = normal_diag_approx(mask_fn, lifting, cfg.lam, sampled)
        else:
            op = lambda v: normal_apply_exact(v, wm, lifting, cfg.lam, sampled)
            diag = normal_diag_exact(wm, lifting, cfg.lam, sampled)
        t3 = time.perf_counter()
        x_new, cg_info = cg_solve(op, diag, rhs, x, cfg.cg_tol, cfg.cg_max)
        t4 = time.perf_counter()
        if not np.all(np.isfinite(x_new)):
            raise ValueError("solver produced non-finite iterate")

        # objective fields describe the iterate entering the solve (its
        # spectrum is what the decomposition just produced); change and MSE
        # below describe the iterate it returns
        data_res = sampled * x - b_fill
        sigmas = np.sqrt(np.maximum(eigenvalues, 0.0) + eps)
        penalty = schatten_penalty(sigmas, cfg.p)
        data_fit = 0.5 * cfg.lam * float(np.linalg.norm(data_res) ** 2)

        change = float(np.linalg.norm(x_new - x) / max(np.linalg.norm(x), 1e-300))
        rec = IterationRecord(
            iteration=n,
            objective=penalty + data_fit,
            penalty=penalty,
            data_fit=data_fit,
            eps=eps,
            sigma_max=float(np.sqrt(max(lam_max, 0.0))),
            sigma_min=float(np.sqrt(max(float(eigenvalues[0]), 0.0))),
            cg_iters=cg_info["iterations"],
            cg_residual=cg_info["relative_residual"],
            cg_converged=cg_info["converged"],
            cg_stop_reason=cg_info["stop_reason"],
            surrogate_start=cg_info["phi_start"],
            surrogate_end=cg_info["phi_end"],
            change=change,
            gram_time=t1 - t0,
            decomp_time=t2 - t1,
            mask_time=t3 - t2,
            solve_time=t4 - t3,
        )
        if not cg_info["converged"]:
            report.notes.append(f"iteration {n}: CG stopped ({cg_info['stop_reason']}) at "
                                f"relative residual {cg_info['relative_residual']:.2e}")
        if cg_info["iterations"] == 0:
            report.notes.append(f"iteration {n}: CG took 0 iterations (start within cg_tol), "
                                "so its zero change is not convergence")
        if reference is not None:
            num = np.linalg.norm(x_new - reference.values) ** 2
            rec.mse_vs_reference = float(num / np.linalg.norm(reference.values) ** 2)
        report.iterations.append(rec)
        x = x_new
        eps = max(eps / cfg.eps_decay, eps_min)
        if change < cfg.convergence_tol and cg_info["iterations"] > 0:
            report.converged = True
            break

    result = KSpaceArray(lifting.gamma, x)
    if reference is not None:
        report.final_mse = float(
            np.linalg.norm(x - reference.values) ** 2 / np.linalg.norm(reference.values) ** 2
        )
        report.final_snr_db = snr_db(result, reference)
    return result, report
