"""Reference solvers: singular value thresholding on the dense lifting,
zero-filled recovery, and a minimal primal-dual total-variation solver.

Each SVT step decomposes the R factor of the lifted matrix, not the matrix
itself, and rebuilds the thresholded matrix from the kept rank only.

These exist for comparison and oracle duty, not performance; SVT refuses
problems whose dense lifted matrix would be unreasonably large.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ._fft import fft2, ifft2
from .analysis import snr_db
from .lifting import KSpaceArray, LiftingConfig, embed, gather, lift_adjoint, lift_dense
from .phantom import SamplingMask
from .report import IterationRecord, SolverReport

DENSE_ENTRY_CAP = 50_000_000


@dataclass
class SVTConfig:
    """SVT runs exactly ``max_iter`` iterations."""

    threshold: float = 3e-2  # relative to sigma_1 of the zero-filled lifting
    max_iter: int = 50

    def __post_init__(self):
        if self.threshold < 0 or self.max_iter < 1:
            raise ValueError("SVT parameters must be positive (threshold may be zero)")


def zero_fill(b: np.ndarray, mask: SamplingMask) -> KSpaceArray:
    """Samples placed on their sampled indices, zeros elsewhere in gamma.

    Every solver reads its samples through here, so this is where they are
    checked: one finite value per sampled index, in the row-major order of
    mask.sampled.
    """
    b = np.asarray(b, dtype=np.complex128).reshape(-1)
    count = int(np.count_nonzero(mask.sampled))
    if b.size != count:
        raise ValueError(f"expected {count} samples, got {b.size}")
    out = np.zeros(mask.gamma.extents, dtype=np.complex128)
    out[mask.sampled] = b
    return KSpaceArray(mask.gamma, out)


def delift(X: np.ndarray, cfg: LiftingConfig) -> tuple[KSpaceArray, list[tuple[int, int]]]:
    """Least-squares inverse of the lifting (pseudo-inverse applied to X).

    Each k-space entry is the weight-weighted average of every matrix
    position holding a copy of it: the lifting's adjoint divided by the
    diagonal of T^*T (reference count times the summed squared weights).
    Indices whose weights all vanish (the DC entry under gradient weighting)
    are returned as zero and flagged.
    """
    numer = lift_adjoint(X, cfg)
    denom = cfg.normal_diag
    undetermined = denom == 0.0
    vals = numer / np.where(undetermined, 1.0, denom)
    kmin = cfg.gamma.kmin
    flagged = [(int(i1 + kmin[0]), int(i2 + kmin[1])) for i1, i2 in np.argwhere(undetermined)]
    return KSpaceArray(cfg.gamma, vals), flagged


def _svd_from_r(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values and right singular vectors of ``y`` from its R factor.

    ``y = QR``, so ``y`` and ``R`` share ``s`` and ``Vᴴ``; ``U`` is never
    formed.  ``R`` is wide when ``y`` is; ``full_matrices=False`` keeps one
    row of ``Vᴴ`` per singular value there.
    """
    _, s, vh = np.linalg.svd(np.linalg.qr(y, mode="r"), full_matrices=False)
    return s, vh


def _shrink(y: np.ndarray, s: np.ndarray, vh: np.ndarray, tau: float) -> np.ndarray:
    """``U diag(max(s - tau, 0)) Vᴴ`` rebuilt from the ``r`` values above tau.

    ``U_r diag(s_r) = y V_r``, so the result is ``y V_r diag(1 - tau/s_r) V_rᴴ``;
    the factor lies in (0, 1], so no small singular value is divided by.  The
    product is grouped by whichever is cheaper: ``(y V_r)(…)`` for ``2r < n``,
    else ``y (V_r …)``, one ``n × n`` factor.
    """
    r = int(np.count_nonzero(s > tau))
    v_r = vh[:r].conj().T
    shrunk = (1.0 - tau / s[:r])[:, None] * vh[:r]
    if 2 * r < y.shape[1]:
        return (y @ v_r) @ shrunk
    return y @ (v_r @ shrunk)


def svt_solve(
    b: np.ndarray,
    mask: SamplingMask,
    lifting: LiftingConfig,
    cfg: SVTConfig,
    reference: KSpaceArray | None = None,
) -> tuple[KSpaceArray, SolverReport]:
    """Singular value thresholding on the dense lifted matrix.

    Splitting iteration with a running multiplier: soft-threshold the
    singular values of lift(x) + U, de-lift by the lifting's pseudo-inverse,
    replace the sampled entries by the data (x <- x - (P x - b)), then
    update the multiplier.  With this hard data step the fixed point is the
    data-consistent nuclear norm minimizer for any positive threshold; the
    threshold (relative to sigma_1 of the zero-filled lifting) only sets the
    convergence speed.

    Each step takes ``s`` and ``Vᴴ`` from the SVD of the lifted matrix's R
    factor (QR, then an SVD the size of the filter) and rebuilds the
    thresholded matrix from the kept rank; ``decomp_time`` covers the QR and
    that SVD.
    """
    rows, cols = lifting.lifted_shape
    if rows * cols > DENSE_ENTRY_CAP:
        raise ValueError(
            f"dense lifted matrix would hold {rows * cols} entries "
            f"(cap {DENSE_ENTRY_CAP}); use the giraf solver for this size"
        )
    if mask.gamma != lifting.gamma:
        raise ValueError("mask and lifting configs disagree on gamma")
    bfill = zero_fill(b, mask).values
    sampled = mask.indicator()
    x = bfill.copy()
    tx = lift_dense(KSpaceArray(lifting.gamma, x), lifting)
    s0, _ = _svd_from_r(tx)
    tau_abs = cfg.threshold * float(s0[0])
    multiplier = np.zeros_like(tx)
    report = SolverReport(solver="svt")

    for n in range(1, cfg.max_iter + 1):
        t0 = time.perf_counter()
        y = tx + multiplier
        s, vh = _svd_from_r(y)
        t1 = time.perf_counter()
        s_shrunk = np.maximum(s - tau_abs, 0.0)
        z = _shrink(y, s, vh, tau_abs)
        x_new, _flagged = delift(z - multiplier, lifting)
        x_new = x_new.values
        # data-consistency step; it also fixes the DC entry the gradient
        # weighting cannot see (DC is always sampled)
        x_new = x_new - (sampled * x_new - bfill)
        tx = lift_dense(KSpaceArray(lifting.gamma, x_new), lifting)
        multiplier += tx
        multiplier -= z
        t2 = time.perf_counter()
        change = float(np.linalg.norm(x_new - x) / max(np.linalg.norm(x), 1e-300))
        data_fit = float(np.linalg.norm(sampled * x_new - bfill) ** 2)
        nuclear = float(s_shrunk.sum())  # nuclear norm of the thresholded matrix
        rec = IterationRecord(
            iteration=n,
            penalty=nuclear,
            data_fit=data_fit,
            objective=nuclear + data_fit,
            sigma_max=float(s[0]),
            sigma_min=float(s[-1]),
            change=change,
            decomp_time=t1 - t0,
            solve_time=t2 - t1,
        )
        if reference is not None:
            rec.mse_vs_reference = float(
                np.linalg.norm(x_new - reference.values) ** 2
                / np.linalg.norm(reference.values) ** 2
            )
        report.iterations.append(rec)
        x = x_new

    result = KSpaceArray(lifting.gamma, x)
    if reference is not None:
        report.final_mse = report.iterations[-1].mse_vs_reference
        report.final_snr_db = snr_db(result, reference)
    return result, report


def _fwd_diff(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return np.roll(u, -1, axis=0) - u, np.roll(u, -1, axis=1) - u


def _div(p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """Backward-difference divergence; the gradient adjoint is -div."""
    return (p1 - np.roll(p1, 1, axis=0)) + (p2 - np.roll(p2, 1, axis=1))


def tv_solve(
    b: np.ndarray,
    mask: SamplingMask,
    weight: float = 1e3,
    iters: int = 300,
) -> KSpaceArray:
    """Isotropic total-variation recovery by a fixed primal-dual iteration.

    Minimizes TV(u) + (weight/2) ||sample(F u) - b||^2 over complex images u
    on the gamma-sized pixel grid (periodic differences, unitary Fourier
    map internally).  Deterministic: fixed step sizes and iteration count;
    returns the k-space of the final image.
    """
    if weight <= 0:
        raise ValueError("weight must be positive")
    if iters < 1:
        raise ValueError("iters must be at least 1")
    gamma = mask.gamma
    ntot = len(gamma)
    # k-space arrays store coefficients of the trig-polynomial image
    # (image = ifft * ntot); the unitary-scale data is b * sqrt(ntot)
    bu = np.asarray(b, dtype=np.complex128).reshape(-1) * np.sqrt(ntot)

    def forward(u):
        return gather(fft2(u) / np.sqrt(ntot), gamma)[mask.sampled]

    def adjoint(v):
        return ifft2(embed(zero_fill(v, mask).values, gamma, gamma.extents)) * np.sqrt(ntot)

    L = np.sqrt(8.0 + 1.0)
    sigma = tau = 1.0 / L
    u = adjoint(bu)
    p1 = np.zeros_like(u)
    p2 = np.zeros_like(u)
    q = np.zeros_like(bu)
    ubar = u.copy()
    for _ in range(iters):
        g1, g2 = _fwd_diff(ubar)
        p1 = p1 + sigma * g1
        p2 = p2 + sigma * g2
        mag = np.maximum(1.0, np.sqrt(np.abs(p1) ** 2 + np.abs(p2) ** 2))
        p1, p2 = p1 / mag, p2 / mag
        q = (q + sigma * (forward(ubar) - bu)) / (1.0 + sigma / weight)
        u_old = u
        u = u + tau * (_div(p1, p2) - adjoint(q))
        ubar = 2.0 * u - u_old
    return KSpaceArray(gamma, gather(fft2(u) / ntot, gamma))
