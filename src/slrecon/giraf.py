"""Iteratively reweighted annihilating-filter solver.

Each outer iteration turns the lifting's Gram matrix G into the IRLS weight
matrix W = (G + eps I)^(p/2 - 1).  At p > 0 that takes the eigen-
decomposition, W = V diag(alpha) V^H; at p = 0 (the log-det weights) W is
the inverse (G + eps I)^-1, formed from a Cholesky factor with no
eigenvectors, and only the first iteration reads the spectrum, for the
largest eigenvalue that scales eps.  Then it solves the weighted
least-squares system (lam P + A_W) x = lam P^T b by conjugate gradients, P
the sampling indicator.  ``giraf_solve`` assembles that system, adding
lam P to the annihilation term A_W once; the operator functions below
return A_W alone, and W is the only weight representation they read.  The
default term condenses W into a single spatial sum-of-squares mask, built
from the lag sums of W with one inverse FFT, and costs 2 FFTs per
application and weighting block.  It stays the circular convolution on
gamma's array; only its FFT length changes (``LiftingConfig.mask_shape``):
the transforms compute the linear convolution on a fast length, folded
back onto gamma's array.  The exact term is the definition, the gradient
T^*(T(x) W) of (1/2) tr(T(x) W T(x)^H) on the dense lifting, in one of two
forms picked by gamma's size alone.  Up to ``NORMAL_MATRIX_ENTRIES``
entries |gamma|^2, ``giraf_solve`` assembles the term's |gamma| x |gamma|
matrix once per outer iteration (``lifting.lift_normal_matrix``: two small
products of W's lag diagonals with the lifting's per-axis tap boxes,
written into one buffer per solve), and each CG step is one matvec.
Above, each CG step (``normal_apply_exact``) gathers the iterate
once through ``lift_geometry``, with no ``KSpaceArray`` check
(``giraf_solve`` refuses a non-finite iterate), multiplies by W and
scatters the product back with ``lift_adjoint``, holding the memory of
``lift_dense``.

Both operators take the Gram from ``gram_matrix``, once per outer
iteration; it picks its route from the lifting's size, not the operator.

CG is Jacobi-preconditioned by lam P plus the diagonal of the term in use,
read from W at no cost beyond its diagonal or trace.  It updates only its
own buffers (x, r, z and p) in place: what the operator returns and its
own arguments are read, never written, and ``giraf_solve``'s operator adds
lam P v into the term's fresh output.  The stopping
test stays on the unpreconditioned residual r = rhs - A x, whatever the
preconditioner: a solve stops once ||r|| <= cg_tol ||rhs|| or
||r|| <= CG_RESIDUAL_CUT ||r0||, whichever bound is tighter, so every solve
cuts its own starting residual r0 at least tenfold however loose cg_tol is.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ._fft import fft2, ifft2
from .grid import check_count
from .lifting import (KSpaceArray, LiftingConfig, _lift, gram_matrix, lift_adjoint,
                      lift_normal_diag, lift_normal_matrix, scatter_sum)
from .phantom import SamplingMask, zero_fill
from .report import IterationRecord, SolverReport, relative_mse

APPROXIMATE = "approximate"
EXACT = "exact"


# the first smoothing level, and the floor of its geometric decay, relative
# to the largest Gram eigenvalue at the initialization (scale-free); the floor
# is the p = 0 Cholesky's round-off margin: the phantom Grams' negative
# round-off eigenvalues reach -3.6e-16 lambda_max (129^2 grid, 15^2 filter),
# far inside it, so G + eps I stays positive definite
EPS0_FACTOR = 1e-2
EPS_MIN_FACTOR = 1e-12
# the most a CG solve may leave of its starting residual, whatever cg_tol
# allows: a warm start within cg_tol ||rhs|| still takes real steps
CG_RESIDUAL_CUT = 0.1
# the most entries |gamma|^2 for which giraf_solve applies the exact term as
# its assembled matrix, near the measured crossover (the table in
# giraf_solve's docstring); the matrix then holds at most 4 MiB
NORMAL_MATRIX_ENTRIES = 2**18
# the most rows a triangular inverse hands to np.linalg.inv whole, chosen so
# that small Grams (N = 25 and 8 in the giraf-exact-small benchmark) keep
# np.linalg.inv's result bit for bit; no crossover with the blocked form was
# measured
TRIANGULAR_BLOCK = 32


@dataclass
class IRLSConfig:
    """Knobs of the IRLS loop."""

    p: float
    lam: float
    eps_decay: float = 2.0
    max_outer: int = 20
    cg_tol: float = 1e-6
    cg_max: int = 500
    operator: str = APPROXIMATE
    convergence_tol: float = 1e-4

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {self.p}")
        # written as `not x > bound` so that NaN fails too
        for name in ("lam", "cg_tol", "convergence_tol"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not np.isfinite(self.lam):  # lam P would be inf * 0 = NaN off the samples
            raise ValueError(f"lam must be finite, got {self.lam}")
        if not self.eps_decay > 1.0:
            raise ValueError(f"eps_decay must exceed 1, got {self.eps_decay}")
        if self.operator not in (APPROXIMATE, EXACT):
            raise ValueError(f"operator must be '{APPROXIMATE}' or '{EXACT}'")
        for name in ("max_outer", "cg_max"):
            check_count(getattr(self, name), name)


def schatten_penalty(sigmas, p: float) -> float:
    """(1/p) sum sigma_i^p for p in (0, 1]; at p = 0 the (log-det) penalty
    comes from ``log_det_weights``."""
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must lie in (0, 1], got {p}")
    s = np.asarray(sigmas, dtype=float)
    if (s < 0).any():
        raise ValueError("singular values must be non-negative")
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


def log_det_weights(gram: np.ndarray, eps: float) -> tuple[np.ndarray, float]:
    """The p = 0 IRLS weight matrix W = (G + eps I)^-1 and its penalty,
    without eigenvectors.

    With the Cholesky factor G + eps I = L L^H, W = L^-H L^-1 is a Gram
    product, so it is PSD by construction, and the log-det penalty
    sum_i log sqrt(lambda_i + eps) = log det(G + eps I) / 2 is
    sum_i log L_ii.  A factorization that breaks down (G + eps I not
    numerically positive definite) raises ValueError.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    try:
        chol = np.linalg.cholesky(gram + eps * np.eye(len(gram)))
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"Cholesky of the Gram plus eps I broke down at eps {eps:.3e}: "
                         f"{exc}") from None
    linv = _lower_inverse(chol)
    return linv.conj().T @ linv, float(np.log(np.diag(chol).real).sum())


def _lower_inverse(low: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular matrix by blocks,
    [[A, 0], [B, C]]^-1 = [[A^-1, 0], [-C^-1 B A^-1, C^-1]]: two half-size
    inverses and two products in place of a general LU solve.  Up to
    ``TRIANGULAR_BLOCK`` rows it is ``np.linalg.inv``, exactly."""
    n = len(low)
    if n <= TRIANGULAR_BLOCK:
        return np.linalg.inv(low)
    h = n // 2
    a_inv, c_inv = _lower_inverse(low[:h, :h]), _lower_inverse(low[h:, h:])
    inv = np.zeros_like(low)
    inv[:h, :h] = a_inv
    inv[h:, h:] = c_inv
    inv[h:, :h] = -c_inv @ (low[h:, :h] @ a_inv)
    return inv


def mask_from_filters(wm: np.ndarray, cfg: LiftingConfig) -> np.ndarray:
    """Sum of squared spatial responses of a filter bank F, sum_j |gamma_j|^2,
    given through its weight matrix W = F F^H, sampled on the condensed
    operator's FFT grid, ``cfg.mask_shape``.

    Rows and columns of ``wm`` are aligned with cfg.lambda1.  The mask is the
    trigonometric polynomial whose coefficient at lag d is the lag sum of W,
    so it is built in the lag domain: the lag sums wrapped onto the grid
    through ``cfg.mask_lags``, then one inverse FFT.  Negative rounding
    within 1e-12 of the maximum is clamped to zero; anything below that is
    rejected.
    """
    wm = np.asarray(wm, dtype=np.complex128)
    if wm.shape != (cfg.n_filter, cfg.n_filter):
        raise ValueError(f"weight matrix must be {cfg.n_filter} x {cfg.n_filter}")
    wrapped = scatter_sum(cfg.mask_lags, wm, cfg.mask_shape)
    values = (ifft2(wrapped) * wrapped.size).real
    tiny = 1e-12 * max(float(values.max()), 0.0)
    values[(values < 0.0) & (values >= -tiny)] = 0.0
    if values.min() < 0.0:
        raise ValueError("annihilating mask must be non-negative")
    return values


def normal_apply_approx(xv: np.ndarray, mask: np.ndarray, cfg: LiftingConfig) -> np.ndarray:
    """Mask-condensed annihilation term: each weighted block circularly
    convolved on gamma's array with the mask's lags, by 2 FFTs per block.

    The mask multiplies in the image domain of the ``cfg.mask_shape`` grid;
    where gamma sits among the signed indices only modulates that domain,
    which commutes with the multiply, so no placement is needed.  On that
    grid, at least e + 2f - 2 long along an axis of gamma's extent e, the
    product is the linear convolution with the lags |d| <= f - 1, which
    ``_fold`` wraps back onto gamma's array.
    """
    return sum(w * _fold(fft2(mask * ifft2(w * xv, s=cfg.mask_shape)), cfg)
               for w in cfg.multipliers)


def _fold(lin: np.ndarray, cfg: LiftingConfig) -> np.ndarray:
    """A linear convolution on ``cfg.mask_shape`` wrapped mod gamma's
    extents: along each axis (length M, gamma's extent e), the outputs past
    the end, lin[e:e+f-1], onto [0, f-1), and those before the start,
    stored last, lin[M-f+1:], onto [e-f+1, e)."""
    for axis, (e, f) in enumerate(zip(cfg.gamma.extents, cfg.lambda1.extents)):
        lin = np.moveaxis(lin, axis, 0)
        out = lin[:e].copy()
        out[:f - 1] += lin[e:e + f - 1]
        out[e - f + 1:] += lin[len(lin) - f + 1:]
        lin = np.moveaxis(out, 0, axis)
    return lin


def normal_apply_exact(xv: np.ndarray, wm: np.ndarray, cfg: LiftingConfig) -> np.ndarray:
    """Unapproximated annihilation term T^*(T(x) W).

    The gradient of (1/2) tr(T(x) W T(x)^H) on the dense lifting, with the
    restriction to the valid output set kept; for W = F F^H it equals the
    sum over the bank's filters f of T^*((T(x) f) f^H), which the tests
    evaluate filter by filter through an FFT-convolution oracle.  It runs
    once per CG step, so ``xv`` is gathered unchecked: ``giraf_solve``
    refuses a non-finite iterate.
    """
    return lift_adjoint(_lift(xv, cfg) @ wm, cfg)


def normal_diag_approx(wm: np.ndarray, cfg: LiftingConfig) -> np.ndarray:
    """Diagonal of ``normal_apply_approx``: trace(W) sum_b w_b^2.  Each
    block is circulant on gamma's array with the mask's lag-0 coefficient
    on its diagonal, trace(W): a lag k - l between taps wraps to 0 on
    gamma's array only at k = l."""
    return np.trace(wm).real * (cfg.multipliers**2).sum(axis=0)


def normal_diag_exact(wm: np.ndarray, cfg: LiftingConfig) -> np.ndarray:
    """Diagonal of ``normal_apply_exact``: entry i sums w_b(i)^2 W[k, k] over
    the taps k whose window reads index i.  Every index is read, so it
    vanishes only at DC under gradient weighting."""
    return lift_normal_diag(np.diag(wm).real, cfg)


def cg_solve(op, diag: np.ndarray, rhs: np.ndarray, x0: np.ndarray, tol: float, maxiter: int):
    """Jacobi-preconditioned conjugate gradients on a Hermitian PSD operator
    over complex arrays.

    ``diag`` is the operator's diagonal, shaped like ``rhs``; entries that
    are not positive (rows the operator leaves empty: for GIRAF, DC under
    gradient weighting when DC is unsampled) precondition by 1, and all
    ones gives plain CG exactly.  The iteration stops once the
    unpreconditioned residual r = rhs - A x satisfies
    ||r|| <= min(tol ||rhs||, CG_RESIDUAL_CUT ||r0||), r0 the residual at x0.

    Returns (x, info), x complex128 (a zero rhs returns x = 0 and applies
    no operator); info is keyed by ``IterationRecord``'s field names:
    the iteration count (``cg_iters``), the starting and final residuals
    relative to ||rhs|| (``cg_start_residual``, ``cg_residual``), why the
    iteration stopped (``cg_stop_reason``: "converged", "max_iter", or
    "indefinite" when a search direction had p^H A p <= 0), and the
    quadratic objective 0.5<x,Ax> - Re<rhs,x> at entry and exit
    (``surrogate_start``, ``surrogate_end``; monotone for exact arithmetic CG).
    """
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:  # x = 0 solves it exactly, without an apply
        return np.zeros(x0.shape, dtype=np.complex128), {
            "cg_iters": 0, "cg_start_residual": 0.0, "cg_residual": 0.0,
            "cg_stop_reason": "converged", "surrogate_start": 0.0, "surrogate_end": 0.0}
    inv_diag = 1.0 / np.where(diag > 0, diag, 1.0)
    # x, r, z and p are this solve's own buffers, updated in place; what op
    # returns and the arguments are only read
    x = x0.astype(np.complex128)
    r = rhs - op(x)

    def phi(xc, rc):
        # 0.5<x, Ax> - Re<rhs, x> evaluated from the residual: Ax = rhs - r
        quad = np.vdot(xc, rhs - rc).real
        return 0.5 * quad - np.vdot(rhs, xc).real

    phi_start = phi(x, r)
    z = inv_diag * r
    p = z.copy()
    rz = np.vdot(r, z).real
    rs = np.vdot(r, r).real
    start_norm = float(np.sqrt(rs))
    stop_norm = min(tol * rhs_norm, CG_RESIDUAL_CUT * start_norm)
    # "max_iter" stands until the residual bound is met
    stop_reason = "converged" if start_norm <= stop_norm else "max_iter"
    it = 0
    while stop_reason == "max_iter" and it < maxiter:
        ap = op(p)
        denom = np.vdot(p, ap).real
        if denom <= 0:
            stop_reason = "indefinite"  # numerically lost positive-definiteness
            break
        alpha = rz / denom
        x += alpha * p
        r -= alpha * ap
        rs = np.vdot(r, r).real
        it += 1
        if np.sqrt(rs) <= stop_norm:
            stop_reason = "converged"
        np.multiply(inv_diag, r, out=z)
        rz_new = np.vdot(r, z).real
        beta = rz_new / rz
        rz = rz_new
        p *= beta
        p += z
    return x, {
        "cg_iters": it,
        "cg_start_residual": start_norm / rhs_norm,
        "cg_residual": float(np.sqrt(rs) / rhs_norm),
        "cg_stop_reason": stop_reason,
        "surrogate_start": float(phi_start),
        "surrogate_end": float(phi(x, r)),
    }


def giraf_solve(
    b: np.ndarray,
    mask: SamplingMask,
    lifting: LiftingConfig,
    cfg: IRLSConfig,
    reference: KSpaceArray | None = None,
) -> tuple[KSpaceArray, SolverReport]:
    """Recover k-space data on gamma from samples on the mask's sampled indices.

    Alternates the weight update (the Gram, its decomposition, the mask)
    with a CG solve of the (approximate or exact) normal equations, on a
    geometrically decaying smoothing schedule.  CG non-convergence is
    recorded (the record's ``cg_stop_reason``) and iteration continues from
    the last iterate; any NaN is a hard error.  A solve that takes no CG
    iteration (its start already exact, or its first direction indefinite)
    changes nothing, so its record reads ``cg_iters`` 0 and it never counts
    as convergence.

    The exact term is applied as its matrix (``lift_normal_matrix``, built
    once per outer iteration, one matvec per CG step) on liftings with
    |gamma|^2 <= ``NORMAL_MATRIX_ENTRIES``, and as ``normal_apply_exact``
    on larger ones.  The matvec's cost follows |gamma|^2 alone, while the
    lifted apply's grows with the filter too, so a larger filter moves the
    crossover up (24^2/9^2) and a smaller one down (20^2/3^2); the rule
    reads |gamma| alone, which also bounds the matrix's memory.  Host us,
    min of 3 runs of 3 x 5 x 300 calls (100 builds), 1 thread, 2-core
    host, identity weighting at 64x1/8x1 and gradient elsewhere:

    lifting    64x1/8x1 9^2/3^2 17^2/5^2 20^2/3^2 20^2/7^2 22^2/5^2 24^2/5^2 24^2/9^2 33^2/5^2
    |gamma|^2     4,096   6,561   83,521  160,000  160,000  234,256  331,776  331,776  1.19e6
    lifted apply   11.7    18.3     72.4     44.8    182.6    124.3    148.0    508.8    282.6
    matvec          1.8     2.6     21.7     50.8     68.3    114.0    174.1    173.7    636.1
    build          14.9    22.6    137.1     55.1    437.0    229.8    280.8  1,069.9    490.2
    """
    if mask.gamma != lifting.gamma:
        raise ValueError("mask and lifting configs disagree on gamma")
    if reference is not None and reference.gamma != lifting.gamma:
        raise ValueError("reference and lifting configs disagree on gamma")
    data = cfg.lam * mask.sampled  # lam P, the data term of the normal equations
    b_fill = zero_fill(b, mask).values
    x = b_fill
    rhs = cfg.lam * b_fill  # lam * adjoint-sampled data
    report = SolverReport()

    size = len(lifting.gamma)
    # the exact term's matrix on small liftings; its zero pattern is fixed,
    # so one flat buffer (lift_normal_matrix's, with its spare entry) serves
    # every outer iteration
    buffer = None
    if cfg.operator == EXACT and size * size <= NORMAL_MATRIX_ENTRIES:
        buffer = np.zeros(size * size + 1, dtype=np.complex128)
    eps = None
    eps_min = None
    for n in range(1, cfg.max_outer + 1):
        t0 = time.perf_counter()
        gram = gram_matrix(KSpaceArray(lifting.gamma, x), lifting)
        t1 = time.perf_counter()
        # the spectrum where this iteration measures it: every iteration at
        # p > 0, whose weights need the eigenvectors, and at p = 0 only the
        # first, since eps is scaled by lambda_max
        spectrum = None
        if cfg.p > 0:
            spectrum, vectors = np.linalg.eigh(gram)
        elif eps is None:
            spectrum = np.linalg.eigvalsh(gram)
        if spectrum is not None and not np.all(np.isfinite(spectrum)):
            raise ValueError("non-finite eigenvalues in Gram matrix")
        if eps is None:
            scale = float(spectrum[-1]) if spectrum[-1] > 0 else 1.0
            eps = EPS0_FACTOR * scale
            eps_min = EPS_MIN_FACTOR * scale
        # decomp_time ends after the eigh at p > 0, and after W at p = 0
        if cfg.p > 0:
            t2 = time.perf_counter()
            wm = weight_matrix(spectrum, vectors, eps, cfg.p)
            penalty = schatten_penalty(np.sqrt(np.maximum(spectrum, 0.0) + eps), cfg.p)
        else:
            wm, penalty = log_det_weights(gram, eps)
            t2 = time.perf_counter()
        if cfg.operator == APPROXIMATE:
            mask_fn = mask_from_filters(wm, lifting)
            term = lambda v: normal_apply_approx(v, mask_fn, lifting)
            diag = normal_diag_approx(wm, lifting)
        else:
            if buffer is None:
                term = lambda v: normal_apply_exact(v, wm, lifting)
            else:
                matrix = lift_normal_matrix(wm, lifting, out=buffer)
                term = lambda v: (matrix @ v.ravel()).reshape(v.shape)
            diag = normal_diag_exact(wm, lifting)

        def normal(v):
            out = term(v)  # a fresh array, so lam P v is added in place
            out += data * v
            return out

        t3 = time.perf_counter()
        x_new, cg_info = cg_solve(normal, data + diag, rhs, x, cfg.cg_tol, cfg.cg_max)
        t4 = time.perf_counter()
        if not np.all(np.isfinite(x_new)):
            raise ValueError("solver produced non-finite iterate")

        # objective fields describe the iterate entering the solve (its
        # spectrum is what the decomposition just produced); change and MSE
        # below describe the iterate it returns
        data_res = mask.sampled * x - b_fill
        data_fit = 0.5 * cfg.lam * float(np.linalg.norm(data_res) ** 2)
        sigma_min = sigma_max = None
        if spectrum is not None:
            sigma_min, sigma_max = np.sqrt(np.maximum(spectrum[[0, -1]], 0.0)).tolist()

        change = float(np.linalg.norm(x_new - x) / max(np.linalg.norm(x), 1e-300))
        rec = IterationRecord(
            iteration=n,
            objective=penalty + data_fit,
            penalty=penalty,
            data_fit=data_fit,
            eps=eps,
            sigma_max=sigma_max,
            sigma_min=sigma_min,
            **cg_info,
            change=change,
            gram_time=t1 - t0,
            decomp_time=t2 - t1,
            mask_time=t3 - t2,
            solve_time=t4 - t3,
        )
        if reference is not None:
            rec.mse_vs_reference = relative_mse(KSpaceArray(lifting.gamma, x_new), reference)
        report.iterations.append(rec)
        x = x_new
        eps = max(eps / cfg.eps_decay, eps_min)
        if change < cfg.convergence_tol and cg_info["cg_iters"] > 0:
            report.converged = True
            break

    return KSpaceArray(lifting.gamma, x), report
