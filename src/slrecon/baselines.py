"""Reference solvers: singular value thresholding on the dense lifting and a
minimal primal-dual total-variation solver.

Each SVT step reads the lifted matrix's singular values and right singular
vectors from its N×N Gram, not from the tall matrix itself, and rebuilds the
thresholded matrix from the kept rank only; SVT carries one lifted matrix
between steps and at most two are live at once.

These exist for comparison and oracle duty, not performance; SVT refuses
problems whose dense lifted matrix would be unreasonably large.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ._fft import fft2, ifft2
from .grid import is_int
from .lifting import KSpaceArray, LiftingConfig, gram_matrix, lift_adjoint, lift_dense
from .phantom import SamplingMask, zero_fill
from .report import IterationRecord, SolverReport, relative_mse

DENSE_ENTRY_CAP = 50_000_000


@dataclass
class SVTConfig:
    """SVT runs exactly ``max_iter`` iterations."""

    threshold: float = 3e-2  # relative to sigma_1 of the zero-filled lifting
    max_iter: int = 50

    def __post_init__(self):
        if not self.threshold >= 0:  # NaN fails too
            raise ValueError(f"threshold must be non-negative, got {self.threshold}")
        if not (is_int(self.max_iter) and self.max_iter >= 1):
            raise ValueError(f"max_iter must be an integer of at least 1, got {self.max_iter!r}")


def delift(X: np.ndarray, cfg: LiftingConfig) -> KSpaceArray:
    """Least-squares inverse of the lifting (pseudo-inverse applied to X).

    Each k-space entry is the weight-weighted average of every matrix
    position holding a copy of it: the lifting's adjoint divided by the
    diagonal of T^*T (reference count times the summed squared weights).
    Indices where ``cfg.normal_diag`` is zero (the DC entry under gradient
    weighting) are undetermined and returned as zero.
    """
    denom = cfg.normal_diag
    return KSpaceArray(cfg.gamma, lift_adjoint(X, cfg) / np.where(denom == 0.0, 1.0, denom))


def _threshold(y: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray, float]:
    """``U diag(max(s - tau, 0)) Vᴴ`` for ``y = U diag(s) Vᴴ``, with ``s`` (the
    leading ``min(y.shape)`` values, descending) and the seconds the
    decomposition took: ``s²`` and ``V`` are the eigenpairs of the N×N Gram
    ``yᴴy``, so ``U`` is never formed.

    ``U_r diag(s_r) = y V_r``, so the result is ``y V_r diag(1 - tau/s_r) V_rᴴ``
    over the ``r`` values above tau; the factor lies in (0, 1], so no small
    singular value is divided by.  The product is grouped by whichever is
    cheaper: ``(y V_r)(…)`` for ``2r < n``, else ``y (V_r …)``, one ``n × n``
    factor.  At tau = 0 the result is ``y`` itself: rebuilt from the kept
    rank, it would lose the directions whose eigenvalue rounded to zero.
    """
    t0 = time.perf_counter()
    w, v = np.linalg.eigh(y.conj().T @ y)
    seconds = time.perf_counter() - t0
    s = np.sqrt(np.maximum(w[::-1], 0.0))
    if tau == 0:
        return y.copy(), s[: min(y.shape)], seconds
    r = int(np.count_nonzero(s > tau))
    v_r = v[:, ::-1][:, :r]
    shrunk = (1.0 - tau / s[:r])[:, None] * v_r.conj().T
    z = (y @ v_r) @ shrunk if 2 * r < len(s) else y @ (v_r @ shrunk)
    return z, s[: min(y.shape)], seconds


def svt_solve(
    b: np.ndarray,
    mask: SamplingMask,
    lifting: LiftingConfig,
    cfg: SVTConfig,
    reference: KSpaceArray | None = None,
) -> tuple[KSpaceArray, SolverReport]:
    """Singular value thresholding on the dense lifted matrix.

    Splitting iteration with a multiplier U: soft-threshold the singular
    values of y = T(x) + U, de-lift by the lifting's pseudo-inverse, set the
    sampled entries to the data bit for bit (Π_b: x <- where(P, b, x)),
    update U.  With this hard data step the fixed point is the data-consistent nuclear
    norm minimizer for any positive threshold; the threshold (relative to
    sigma_1 of the zero-filled lifting) only sets the convergence speed.

    U = y - T(x) adds nothing to y, which is the only lifted state.  T^*T is
    diagonal, so delift(T(x)) is x where ``normal_diag`` > 0 and 0 where it
    is zero (DC under gradient weighting); with Q = y - S_tau(y), formed in
    y's buffer, a step is x' = Π_b(x·[normal_diag > 0] - delift(Q)) and
    y <- Q + T(2x' - x).  At most two lifted matrices are live at once.
    ``decomp_time`` covers the N×N Gram ``yᴴy`` and its ``eigh``; the
    threshold's sigma_1 comes from ``gram_matrix`` of the zero-filled data.
    """
    rows, cols = lifting.lifted_shape
    if rows * cols > DENSE_ENTRY_CAP:
        raise ValueError(
            f"dense lifted matrix would hold {rows * cols} entries "
            f"(cap {DENSE_ENTRY_CAP}); use the giraf solver for this size"
        )
    if mask.gamma != lifting.gamma:
        raise ValueError("mask and lifting configs disagree on gamma")
    zf = zero_fill(b, mask)
    bfill = zf.values
    sampled = mask.sampled
    known = lifting.normal_diag > 0
    x = bfill  # never written in place
    tau_abs = cfg.threshold * float(np.sqrt(np.linalg.eigvalsh(gram_matrix(zf, lifting))[-1]))
    y = lift_dense(zf, lifting)  # T(x) + U with U = 0
    report = SolverReport(converged=None)  # a fixed step count: nothing to converge

    for n in range(1, cfg.max_iter + 1):
        t0 = time.perf_counter()
        z, s, decomp_time = _threshold(y, tau_abs)
        y -= z  # Q, in y's buffer
        del z
        x_new = known * x - delift(y, lifting).values
        # data-consistency step; it also fixes the DC entry the gradient
        # weighting cannot see (DC is always sampled)
        x_new = np.where(sampled, bfill, x_new)
        y += lift_dense(KSpaceArray(lifting.gamma, 2.0 * x_new - x), lifting)
        solve_time = time.perf_counter() - t0 - decomp_time
        change = float(np.linalg.norm(x_new - x) / max(np.linalg.norm(x), 1e-300))
        data_fit = float(np.linalg.norm(sampled * x_new - bfill) ** 2)
        s_shrunk = np.maximum(s - tau_abs, 0.0)
        nuclear = float(s_shrunk.sum())  # nuclear norm of the thresholded matrix
        rec = IterationRecord(
            iteration=n,
            penalty=nuclear,
            data_fit=data_fit,
            objective=nuclear + data_fit,
            sigma_max=float(s[0]),
            sigma_min=float(s[-1]),
            change=change,
            decomp_time=decomp_time,
            solve_time=solve_time,
        )
        if reference is not None:
            rec.mse_vs_reference = relative_mse(KSpaceArray(lifting.gamma, x_new), reference)
        report.iterations.append(rec)
        x = x_new

    return KSpaceArray(lifting.gamma, x), report


def _fwd_diff(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return np.roll(u, -1, axis=0) - u, np.roll(u, -1, axis=1) - u


def _div(p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """Backward-difference divergence; the gradient adjoint is -div."""
    return (p1 - np.roll(p1, 1, axis=0)) + (p2 - np.roll(p2, 1, axis=1))


def tv_solve(b: np.ndarray, mask: SamplingMask, iters: int = 300) -> KSpaceArray:
    """Isotropic TV recovery: minimizes TV(u) over complex images u on the
    gamma-sized pixel grid (periodic differences) subject to the sampled
    Fourier values equalling b.  A fixed primal-dual iteration (Chambolle &
    Pock 2011), sigma = tau = 1/sqrt(8) as ||grad||^2 <= 8, whose primal step
    projects exactly onto the data (SVT's hard data step), from the
    zero-filled image; deterministic.

    The iteration runs on the FFT grid, where index k sits at k mod extents:
    the mask and the zero-filled data are rolled there by ``gamma.kmin`` once,
    and each primal step is ``fft2(u)/N``, the sampled coefficients replaced
    by the data, ``ifft2(.)*N``.  Returns the final image's k-space, rolled
    back onto gamma's array, which holds b exactly.
    """
    if not (is_int(iters) and iters >= 1):
        raise ValueError(f"iters must be an integer of at least 1, got {iters!r}")
    gamma = mask.gamma
    ntot = len(gamma)
    sampled = np.roll(mask.sampled, gamma.kmin, axis=(0, 1))
    bfill = np.roll(zero_fill(b, mask).values, gamma.kmin, axis=(0, 1))

    def project(u):
        """The spectrum of image u with its sampled entries replaced by b."""
        return np.where(sampled, bfill, fft2(u) / ntot)

    sigma = tau = 1.0 / np.sqrt(8.0)
    u = ifft2(bfill) * ntot
    p1, p2 = np.zeros_like(u), np.zeros_like(u)
    ubar = u
    for _ in range(iters):
        g1, g2 = _fwd_diff(ubar)
        p1 = p1 + sigma * g1
        p2 = p2 + sigma * g2
        mag = np.maximum(1.0, np.sqrt(np.abs(p1) ** 2 + np.abs(p2) ** 2))
        p1, p2 = p1 / mag, p2 / mag
        u_old = u
        u = ifft2(project(u + tau * _div(p1, p2))) * ntot
        ubar = 2.0 * u - u_old
    return KSpaceArray(gamma, np.roll(project(u), [-k for k in gamma.kmin], axis=(0, 1)))
