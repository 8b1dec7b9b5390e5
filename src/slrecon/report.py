"""Scoring and per-iteration solver diagnostics shared by all solvers."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .lifting import KSpaceArray


def relative_mse(x: KSpaceArray, reference: KSpaceArray) -> float:
    """||x - ref||^2 / ||ref||^2 over k-space."""
    if x.gamma != reference.gamma:
        raise ValueError("arrays live on different grids")
    ref_norm = np.linalg.norm(reference.values)
    if ref_norm == 0.0:
        raise ValueError("reference signal is identically zero")
    return float(np.linalg.norm(x.values - reference.values) ** 2 / ref_norm**2)


def snr_db(x: KSpaceArray, reference: KSpaceArray) -> float:
    """-10 log10 of the relative MSE; by Parseval the image-domain
    20 log10(||ref|| / ||x - ref||)."""
    return _mse_db(relative_mse(x, reference))


def _mse_db(mse: float) -> float:
    return math.inf if mse == 0.0 else float(-10.0 * np.log10(mse))


@dataclass
class IterationRecord:
    """One outer iteration; a field the solver does not measure is None."""

    iteration: int
    objective: float | None = None
    penalty: float | None = None
    data_fit: float | None = None
    eps: float | None = None
    # read from a Gram, where the iteration decomposes one (GIRAF at p = 0
    # only on its first); sigma_min is unresolved below about sqrt(eps)·sigma_max
    sigma_max: float | None = None
    sigma_min: float | None = None
    cg_iters: int | None = None
    cg_start_residual: float | None = None  # ||r0|| / ||rhs||, the residual CG started from
    cg_residual: float | None = None
    cg_stop_reason: str | None = None  # "converged", "max_iter" or "indefinite"
    surrogate_start: float | None = None
    surrogate_end: float | None = None
    change: float | None = None
    mse_vs_reference: float | None = None
    gram_time: float | None = None
    decomp_time: float | None = None
    mask_time: float | None = None
    solve_time: float | None = None


@dataclass
class SolverReport:
    iterations: list[IterationRecord] = field(default_factory=list)
    # None where the solver has no stopping test (SVT runs a fixed step count)
    converged: bool | None = False

    @property
    def n_iterations(self) -> int:
        return len(self.iterations)

    @property
    def final_mse(self) -> float | None:
        """The last iterate's relative MSE against the reference; None
        without a reference."""
        return self.iterations[-1].mse_vs_reference if self.iterations else None

    @property
    def final_snr_db(self) -> float | None:
        """``snr_db`` of the last iterate; None without a reference."""
        mse = self.final_mse
        return None if mse is None else _mse_db(mse)

    def iterations_to_mse(self, tol: float) -> int | None:
        """First iteration index (1-based) whose MSE vs the reference is below tol."""
        for rec in self.iterations:
            if rec.mse_vs_reference is not None and rec.mse_vs_reference < tol:
                return rec.iteration
        return None

    def to_jsonl(self, path):
        """One strict-JSON record per iteration; a NaN or infinite field raises
        before anything is written."""
        lines = [json.dumps(asdict(rec), allow_nan=False) + "\n" for rec in self.iterations]
        Path(path).write_text("".join(lines))
