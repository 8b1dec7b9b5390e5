"""slrecon benchmark: one workload per run, end-to-end or traced per-layer metrics.

    python3 perfbench/run.py --workload giraf-approx-129 --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the package from
``src/``.  With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` the per-layer metrics from spans recorded around calls into
slrecon's public functions, plus the tracing overhead.  Human-readable lines
come first; the last line of standard output is one JSON object.  The exit
code is 1 when any output check fails and 2 when the package is missing.
See perfbench/README.md for the workloads and metrics.
"""

import os

# Pinned before numpy loads: BLAS and FFT thread counts change both timings
# and CG iteration counts, so counts repeat exactly only with these fixed.
THREADS = {"SLRECON_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1  # claims are made on seed 1 and re-checked on the held-out seed 2
WARM_UP_S = 1.0  # untimed set-ups before any timing
SETUP_REPEATS = 5  # at least this many timed set-ups, and at least SETUP_MIN_S of them
SETUP_MIN_S = 2.0
TARGET_MSE = 1e-4  # outer iterations to this MSE: giraf.outer_to_target

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "snr_db": "dB", "success_frac": "frac",
                    "peak_rss_mb": "MB"}


@dataclass
class Solve:
    """One solver call seen during a round."""

    kind: str  # "giraf" or "svt"
    cfg: object
    report: object
    value: object


def import_package():
    if not (ROOT / "src" / "slrecon" / "__init__.py").is_file():
        print(f"error: no slrecon package under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))


def git_revision() -> str:
    """HEAD's commit, read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "nproc": os.cpu_count(),
        "threads": {k: os.environ.get(k) for k in THREADS},
        "git_revision": git_revision(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def warm_up(workload, seed: int):
    """Let one-off costs pass before anything is timed.

    First LAPACK and FFT calls and plan caches cost once per process, and the
    first second of a fresh process ran set-up up to 1.5x slower than the
    seconds after it.
    """
    import numpy as np
    import scipy.fft

    a = np.random.default_rng(0).standard_normal((32, 32)) + 0j
    np.linalg.eigh(a + a.conj().T)
    np.linalg.svd(a)
    scipy.fft.ifft2(scipy.fft.fft2(a))
    end = perf_counter() + WARM_UP_S
    while perf_counter() < end:
        workload.setup(seed)


class Bench:
    """Runs one workload: set-up, timed rounds, checks, and metric assembly."""

    def __init__(self, workload, seed: int, speed=None):
        from tracer import Patch

        self.workload = workload
        self.seed = seed
        self.speed = speed  # a HostSpeed: times are then in reference seconds
        self.solves: list[Solve] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.outcomes = []
        self.first_spans = None  # spans of the first traced round
        self._capture = Patch()
        self._capture.function("slrecon.giraf", "giraf_solve", self._catcher("giraf"))
        self._capture.function("slrecon.baselines", "svt_solve", self._catcher("svt"))

    def _catcher(self, kind: str):
        def make_wrapper(fn):
            def caught(*args, **kwargs):
                value, report = fn(*args, **kwargs)
                cfg = args[3] if len(args) > 3 else kwargs.get("cfg")
                self.solves.append(Solve(kind, cfg, report, value))
                return value, report

            return caught

        return make_wrapper

    def close(self):
        self._capture.undo()

    def setup_times(self) -> tuple[object, list[float], float]:
        """Set-up times in reference seconds, and the host seconds they scale from."""
        speed, times = self.speed, []
        with speed.sampling():
            while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
                t0 = speed.clock()
                inputs = self.workload.setup(self.seed)
                times.append(speed.clock() - t0)
        scale = speed.scale()
        return inputs, [t * scale for t in times], statistics.median(times)

    def round(self, inputs, tracer=None) -> tuple[float, float]:
        """One timed pass over the workload's reconstructions; checks run after.

        Returns the time in host seconds and the factor that converts it into
        reference seconds (1 without a HostSpeed).
        """
        from workloads import check

        self.solves = []
        if tracer is not None:
            tracer.reset()
            tracer.install()
        clock = self.speed.clock if self.speed else perf_counter
        sampling = self.speed.sampling() if self.speed else contextlib.nullcontext()
        try:
            with sampling:
                t0 = clock()
                results = self.workload.run_round(inputs, self.solves)
                elapsed = clock() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
        for result in results:
            outcome = check(result)
            self.attempted += 1
            self.failed += not outcome.ok
            if outcome.problem:
                self.problems.append(f"{outcome.label}: {outcome.problem}")
            self.outcomes.append(outcome)
        return elapsed, self.speed.scale() if self.speed else 1.0

    def rounds(self, inputs, seconds: float, tracer=None) -> tuple[list, list]:
        """Closed loop: rounds back to back while the next one fits in ``seconds``.

        With a tracer, untraced and traced rounds alternate.  Returns, per
        untraced round, (host seconds, scale to reference seconds) and, per
        traced round, (seconds, span summary, solver calls, trials run by
        phase_transition).
        """
        plain, traced = [], []
        start = perf_counter()
        while True:
            r0 = perf_counter()
            plain.append(self.round(inputs))
            if tracer is not None:
                t, _ = self.round(inputs, tracer)
                traced.append((t, tracer.summary(), list(self.solves),
                               tracer.count_under("giraf.giraf_solve", "analysis.phase_transition")))
                if len(traced) == 1:
                    self.first_spans = tracer.dump()
            now = perf_counter()
            if now - start + (now - r0) > seconds:
                return plain, traced


def end_to_end(bench: Bench, plain: list, setup: list[float]) -> dict:
    snrs = [o.snr_db for o in bench.outcomes if o.ok]
    return {
        "wall_s": statistics.median(t * scale for t, scale in plain),
        "setup_s": statistics.median(setup),
        "snr_db": statistics.median(snrs) if snrs else math.nan,
        "success_frac": sum(o.success for o in bench.outcomes) / max(bench.attempted, 1),
        "peak_rss_mb": peak_rss_mb(),
    }


def report_metrics(solves: list[Solve]) -> dict:
    """Counts and stage times the solvers already record in their reports."""
    giraf = [s for s in solves if s.kind == "giraf"]
    svt = [s for s in solves if s.kind == "svt"]
    recs = [(s.cfg, r) for s in giraf for r in s.report.iterations]
    to_target = 0
    for s in giraf:
        if any(r.mse_vs_reference == r.mse_vs_reference for r in s.report.iterations):
            hit = s.report.iterations_to_mse(TARGET_MSE)
            to_target += hit if hit is not None else s.report.n_iterations
    return {
        "giraf.cg_iters": sum(r.cg_iters for _, r in recs),
        "giraf.cg_capped": sum(r.cg_iters >= cfg.cg_max for cfg, r in recs),
        "giraf.outer_iters": len(recs),
        "giraf.eigh_s": sum(r.decomp_time for _, r in recs),
        "giraf.outer_to_target": to_target,
        "baselines.svd_s": sum(r.decomp_time for s in svt for r in s.report.iterations),
        "baselines.svt_iters": sum(s.report.n_iterations for s in svt),
    }


def span_metrics(summary: dict) -> dict:
    calls, secs = summary["calls"], summary["seconds"]
    applies = ("giraf.normal_apply_approx", "giraf.normal_apply_exact")
    out = {
        "giraf.normal_apply_calls": sum(calls.get(n, 0) for n in applies),
        "giraf.normal_apply_s": sum(secs.get(n, 0.0) for n in applies),
        "giraf.cg_s": secs.get("giraf.cg_solve", 0.0),
        "giraf.mask_s": secs.get("giraf.mask_from_filters", 0.0),
        "lifting.gram_calls": calls.get("lifting.gram_matrix", 0),
        "lifting.gram_s": secs.get("lifting.gram_matrix", 0.0),
        "fft.calls": calls.get("fft.fft2", 0) + calls.get("fft.ifft2", 0),
        "fft.s": secs.get("fft.fft2", 0.0) + secs.get("fft.ifft2", 0.0),
        "lifting.lift_dense_s": secs.get("lifting.lift_dense", 0.0),
        "baselines.delift_s": secs.get("baselines.delift", 0.0),
        "analysis.phase_transition_s": secs.get("analysis.phase_transition", 0.0),
    }
    for layer, s in summary["self_s"].items():
        out[f"{layer}.self_s"] = s
    return out


def setup_span_metrics(summary: dict) -> dict:
    secs = summary["seconds"]
    return {
        "phantom.fourier_s": secs.get("phantom.phantom_fourier", 0.0),
        "phantom.make_mask_s": secs.get("phantom.make_mask", 0.0),
        "grid.contains_s": secs.get("grid.contains", 0.0),
        "lifting.config_s": secs.get("lifting.make", 0.0),
    }


def per_layer(plain: list, traced: list, setup_summary: dict) -> dict:
    """Counts from the first traced round (every round repeats them); times are medians."""
    _, summary, solves, trials = traced[0]
    counts = {**report_metrics(solves), **span_metrics(summary)}
    timed = [{**report_metrics(sv), **span_metrics(sm)} for _, sm, sv, _ in traced]
    for name in counts:
        if unit_of(name) == "s":
            counts[name] = statistics.median(m[name] for m in timed)
    traced_wall = statistics.median(t for t, *_ in traced)
    return {
        **counts,
        "analysis.trials": trials,
        **setup_span_metrics(setup_summary),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - statistics.median(t for t, _ in plain),
    }


def write_spans(bench: Bench, workload: str, seed: int) -> Path:
    import numpy as np

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{workload}-seed{seed}.npz"
    dump = bench.first_spans
    spans = np.asarray(dump["spans"], dtype=float).reshape(-1, 4)
    np.savez_compressed(path, names=np.asarray(dump["names"]), name=spans[:, 0].astype(np.int32),
                        start=spans[:, 1], end=spans[:, 2], parent=spans[:, 3].astype(np.int64))
    return path


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    return "s" if name.endswith(("_s", ".s")) else "count"


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="workload seed (claims use 1 and are re-checked on the held-out seed 2)")
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true", help="tiny problem sizes, for the self-test")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    import_package()
    import workloads
    from hostspeed import HostSpeed
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    workload = workloads.make(args.workload, toy=args.toy)
    print("environment " + json.dumps(environment()))
    bench = Bench(workload, args.seed, None if args.trace else HostSpeed())
    notes = []
    try:
        warm_up(workload, args.seed)
        if args.trace:
            inputs = workload.setup(args.seed)
            tracer = Tracer()
            tracer.install()
            try:
                workload.setup(args.seed)
            finally:
                tracer.uninstall()
            setup_summary = tracer.summary()
            plain, traced = bench.rounds(inputs, args.seconds, tracer)
            metrics = per_layer(plain, traced, setup_summary)
            notes.append(f"absent: {', '.join(tracer.absent) or 'none'}")
            notes.append(f"spans: {write_spans(bench, args.workload, args.seed).relative_to(ROOT)}")
        else:
            inputs, setup, setup_host_s = bench.setup_times()
            plain, _ = bench.rounds(inputs, args.seconds)
            metrics = end_to_end(bench, plain, setup)
            notes.append(f"rounds: {len(plain)}, set-ups: {len(setup)}")
            notes.append(f"host seconds: wall {statistics.median(t for t, _ in plain):.4g} s, "
                         f"set-up {setup_host_s:.4g} s; reference seconds per host second: "
                         f"{', '.join(f'{s:.3f}' for _, s in plain)}")
    finally:
        bench.close()

    failed_metrics = [k for k, v in metrics.items() if not math.isfinite(v)]
    correct = bench.failed == 0 and not bench.problems and not failed_metrics
    for name, value in metrics.items():
        print(f"{name:30s} {value:14.6g} {unit_of(name)}")
    print(f"{'error_frac':30s} {bench.failed / max(bench.attempted, 1):14.6g} frac"
          f"  ({bench.failed} of {bench.attempted} reconstructions raised or were non-finite)")
    for note in notes:
        print(note)
    for problem in bench.problems + [f"{k} is not finite" for k in failed_metrics]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v if math.isfinite(v) else None, "unit": unit_of(k)}
                    for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
