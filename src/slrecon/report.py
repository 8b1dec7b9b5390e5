"""Per-iteration solver diagnostics shared by all solvers."""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field


@dataclass
class IterationRecord:
    iteration: int
    objective: float = float("nan")
    penalty: float = float("nan")
    data_fit: float = float("nan")
    eps: float = float("nan")
    sigma_max: float = float("nan")
    sigma_min: float = float("nan")
    cg_iters: int = 0
    cg_start_residual: float = float("nan")  # ||r0|| / ||rhs||, the residual CG started from
    cg_residual: float = float("nan")
    cg_converged: bool = True
    cg_stop_reason: str = ""  # "converged", "max_iter" or "indefinite"; empty without CG
    surrogate_start: float = float("nan")
    surrogate_end: float = float("nan")
    change: float = float("nan")
    mse_vs_reference: float = float("nan")
    gram_time: float = 0.0
    decomp_time: float = 0.0
    mask_time: float = 0.0
    solve_time: float = 0.0


@dataclass
class SolverReport:
    solver: str
    iterations: list[IterationRecord] = field(default_factory=list)
    converged: bool = False
    final_mse: float | None = None
    final_snr_db: float | None = None
    notes: list[str] = field(default_factory=list)

    @property
    def n_iterations(self) -> int:
        return len(self.iterations)

    def iterations_to_mse(self, tol: float) -> int | None:
        """First iteration index (1-based) whose MSE vs the reference is below tol."""
        for rec in self.iterations:
            if rec.mse_vs_reference == rec.mse_vs_reference and rec.mse_vs_reference < tol:
                return rec.iteration
        return None

    def to_jsonl(self, path):
        with open(path, "w") as fh:
            for rec in self.iterations:
                fh.write(json.dumps(asdict(rec)) + "\n")

    def to_csv(self, path):
        if not self.iterations:
            return
        fields = list(asdict(self.iterations[0]).keys())
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fields)
            writer.writeheader()
            for rec in self.iterations:
                writer.writerow(asdict(rec))
