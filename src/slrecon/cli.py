"""Command-line entry points: phantom generation, recovery and theory
validation, all reproducible from an emitted manifest.

Every run writes ``manifest.json`` holding its command line as ``argv``:
each option that took effect (``--out`` aside), input files by absolute
path and a ``--mask`` run's mask as its own ``mask.json``, so the run
directory replays from anywhere.  ``slrecon rerun manifest.json --out DIR``
parses that line with ``main``'s parser and replays it bit-exactly (timings
aside), refusing a line the parser refuses or this version would not
write.  Exit codes: 0 success, 1 invariant failure, 2 usage error
(including unreadable or malformed input files).
"""

from __future__ import annotations

import argparse
import importlib.metadata
import os
import platform
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import scipy

from . import _fft, fileio
from .analysis import (
    numerical_rank,
    phase_transition,
    rho1_estimate,
    rho2,
    rho2_rayleigh_search,
    subspace_check,
)
from .baselines import SVTConfig, svt_solve, tv_solve
from .giraf import IRLSConfig, giraf_solve
from .grid import IndexSet2D, check_count, json_field, predicted_rank
from .lifting import LiftingConfig, lift_dense
from .phantom import (
    Phantom,
    SamplingMask,
    add_noise,
    make_mask,
    phantom_fourier,
    random_edge_polynomial,
    sample_kspace,
    zero_fill,
)
from .report import relative_mse, snr_db

# the thread-count variables of the BLAS builds numpy ships with; the manifest
# records each as set, or null
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# the options parse_extents reads; every other list is comma-separated
_EXTENT_OPTIONS = ("lambda0", "grid", "filter")
# the options that draw a mask, which a --mask run ignores
_MASK_DRAW_OPTIONS = ("scheme", "accel", "mask_seed")


def parse_extents(text: str) -> list[int]:
    """``WxH`` as ``[W, H]``; the manifest's command line writes the pair
    back as ``WxH`` (``--grid=WxH``, say)."""
    try:
        a, b = text.lower().split("x")
        return [int(a), int(b)]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected WxH, got {text!r}") from exc


def parse_count(text: str) -> int:
    """An integer of at least 1: an iteration count or cap, refused at parse
    time so the message names the flag the user typed."""
    try:
        value = int(text)
    except ValueError:
        value = 0  # not an integer: refused as a count below 1 is
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return value


def _outdir(params) -> Path:
    """The run's output directory, made once its inputs are accepted and
    its results computed, so a refused run leaves nothing behind."""
    out = Path(params["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _package_version() -> str:
    try:
        return importlib.metadata.version("slrecon")
    except importlib.metadata.PackageNotFoundError:
        return "unknown"


def _git_revision(git_dir: Path) -> str:
    """The commit HEAD names in a ``.git`` directory, read without running git
    (a loose ref file, else ``packed-refs``); "unknown" outside a clone."""
    try:
        head = (git_dir / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head  # detached HEAD holds the commit itself
        ref = head.removeprefix("ref: ")
        if (git_dir / ref).is_file():
            return (git_dir / ref).read_text().strip()
        for line in (git_dir / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_name() -> str:
    """The BLAS numpy was built against, as "name version"; "unknown" if the
    build configuration does not say."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # older numpy, or a build that does not record it
        return "unknown"


def _command_line(command: str, params: dict) -> list[str]:
    """The command line that parses back to ``params``, ``--out`` aside.

    Each option is one ``--name=value`` entry, so a negative value is not
    read as a flag: an extent ``WxH``, another list comma-joined, a float by
    ``str`` (which round-trips exactly).  An option at ``None`` is left to its
    ``None`` default, a ``--mask`` run's line drops the options that draw a
    mask, and validate's suite is its positional argument.
    """
    line = [command]
    for key, value in params.items():
        if key == "out" or value is None or (params.get("mask") and key in _MASK_DRAW_OPTIONS):
            continue
        if isinstance(value, list):
            value = ("x" if key in _EXTENT_OPTIONS else ",").join(map(str, value))
        line.append(value if key == "suite" else f"--{key.replace('_', '-')}={value}")
    return line


def _write_manifest(out: Path, command: str, params: dict, outputs: list[str]):
    fileio.write_json(out / "manifest.json", {
        "argv": _command_line(command, params),
        "outputs": outputs,
        # provenance only: rerun replays argv and ignores this
        "environment": {"python": platform.python_version(), "numpy": np.__version__,
                        "scipy": scipy.__version__, "platform": platform.platform(),
                        "SLRECON_THREADS": _fft.WORKERS, "slrecon": _package_version(),
                        "git": _git_revision(Path(__file__).resolve().parents[2] / ".git"),
                        "blas": _blas_name(),
                        "blas_threads": {k: os.environ.get(k) for k in _BLAS_THREAD_VARS}},
    })


# ---------------------------------------------------------------------------
# phantom
# ---------------------------------------------------------------------------


def cmd_phantom(params: dict) -> int:
    lam0 = IndexSet2D.rect(*params["lambda0"])
    gamma = IndexSet2D.rect(*params["grid"])
    edge = random_edge_polynomial(lam0, seed=params["seed"], min_region_area=params["min_area"])
    ph = Phantom(edge, tuple(params["amps"]), oversample=params["oversample"])
    ks = phantom_fourier(ph, gamma)
    out = _outdir(params)
    fileio.write_kspace(out / "phantom.ksar", ks)
    fileio.write_pgm(out / "phantom.pgm", ks)
    fileio.write_json(out / "edge.json", edge.to_json_dict())
    _write_manifest(out, "phantom", params, ["phantom.ksar", "phantom.pgm", "edge.json"])
    print(f"phantom: wrote {out}/phantom.ksar ({gamma.extents[0]}x{gamma.extents[1]})")
    return 0


# ---------------------------------------------------------------------------
# recover
# ---------------------------------------------------------------------------


def _resolve_mask(params, gamma) -> SamplingMask:
    if params.get("mask"):
        mask = SamplingMask.from_json_dict(fileio.read_json(params["mask"]))
        if mask.gamma != gamma:
            raise ValueError("mask file does not match the k-space grid")
        return mask
    return make_mask(gamma, params["scheme"], params["accel"], params["mask_seed"])


def cmd_recover(params: dict) -> int:
    truth = fileio.read_kspace(params["kspace"])
    gamma = truth.gamma
    mask = _resolve_mask(params, gamma)
    b = add_noise(sample_kspace(truth, mask), params["noise"], params["noise_seed"])

    solver = params["solver"]
    t0 = time.perf_counter()
    report = None
    if solver == "zerofill":
        rec = zero_fill(b, mask)
    elif solver == "tv":
        rec = tv_solve(b, mask, iters=params["tv_iters"])
    else:
        lifting = LiftingConfig.make(gamma, IndexSet2D.rect(*params["filter"]),
                                     params["weighting"])
        if solver == "svt":
            cfg = SVTConfig(threshold=params["svt_threshold"], max_iter=params["max_iter"])
            rec, report = svt_solve(b, mask, lifting, cfg, reference=truth)
        elif solver == "giraf":
            cfg = IRLSConfig(
                p=params["p"],
                lam=params["lambda"],
                operator="exact" if params["operator"] == "exact" else "approximate",
                max_outer=params["max_iter"],
                eps_decay=params["eps_decay"],
                cg_tol=params["cg_tol"],
                cg_max=params["cg_max"],
            )
            rec, report = giraf_solve(b, mask, lifting, cfg, reference=truth)
        else:
            raise ValueError(f"unknown solver {solver!r}")
    wall = time.perf_counter() - t0

    out = _outdir(params)
    fileio.write_kspace(out / "recovered.ksar", rec)
    fileio.write_pgm(out / "recovered.pgm", rec)
    fileio.write_json(out / "mask.json", mask.to_json_dict())
    outputs = ["recovered.ksar", "recovered.pgm", "mask.json", "summary.json"]
    if report is not None:
        report.to_jsonl(out / "report.jsonl")
        outputs.append("report.jsonl")
    mse, snr = relative_mse(rec, truth), snr_db(rec, truth)
    summary = {
        "solver": solver,
        "snr_db": snr if mse > 0 else None,  # an exact recovery's SNR is infinite
        "mse": mse,
        "wall_time_s": wall,
        "samples": int(np.count_nonzero(mask.sampled)),
        # null where there is no stopping test: svt's report says so, tv and zerofill write none
        "converged": None if report is None else report.converged,
    }
    fileio.write_json(out / "summary.json", summary)
    if params.get("mask"):  # the run's own copy replays it once the input is gone
        params = {**params, "mask": os.path.abspath(out / "mask.json")}
    _write_manifest(out, "recover", params, outputs)
    print(f"recover[{solver}]: SNR {snr:.2f} dB, MSE {mse:.3e}, {wall:.1f} s")
    return 0


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def cmd_validate(params: dict) -> int:
    suite = params["suite"]
    lam0, lam1, gamma = (IndexSet2D.rect(*params[k]) for k in ("lambda0", "filter", "grid"))
    rank = predicted_rank(lam1, lam0)
    # the rank suite draws one edge per seed; the others share this one
    edge = None if suite == "rank" else random_edge_polynomial(lam0, seed=params["seed"])
    ok = True
    evidence: dict = {"suite": suite}
    if suite == "rank":
        check_count(params["seeds"], "seeds")
        cfg = LiftingConfig.make(gamma, lam1, "gradient")
        rows = []
        for seed in range(params["seeds"]):
            edge = random_edge_polynomial(lam0, seed=seed)
            ks = phantom_fourier(Phantom(edge, (1.0, 0.0), oversample=params["oversample"]), gamma)
            r = numerical_rank(lift_dense(ks, cfg), 1e-2)
            rows.append({"seed": seed, "numerical_rank": r, "predicted": rank,
                         "match": r == rank})
            ok &= r == rank
        evidence["per_seed"] = rows
        evidence["agreements"] = sum(r["match"] for r in rows)
        evidence["total"] = len(rows)
        print(f"validate rank: {evidence['agreements']}/{evidence['total']} match rank {rank}")
    elif suite == "phase":
        m = len(gamma)
        levels = params.get("levels") or [max(1, rank // 2), m // 4, m // 2, 3 * m // 4, m]
        res = phase_transition(edge, lam1, gamma, levels, trials=params["trials"],
                               seed=params["seed"], oversample=params["oversample"])
        ok &= res.monotone_within_noise()
        ok &= res.success_fractions[-1] == 1.0
        evidence.update({
            "samples": res.sample_counts,
            "trials": res.trials,
            "fractions": res.success_fractions,
            "seeds": res.seeds,  # per level, per trial: each trial's mask seed
        })
        print(f"validate phase: success fractions {res.success_fractions} "
              f"at sample counts {res.sample_counts}")
    elif suite == "lemmas":
        ph = Phantom(edge, (1.0, 0.0), oversample=params["oversample"])
        chk = subspace_check(ph, lam1, gamma, seed=params["seed"])
        evidence.update({
            "row_residual_median": float(np.median(chk.row_residuals)),
            "off_curve_median": float(np.median(chk.off_curve_residuals)),
            "contrast": chk.contrast,
            "col_residual_median": float(np.median(chk.col_residuals)),
            "col_span_dim": chk.col_span_dim,
            "rank": chk.rank,
        })
        ok &= chk.contrast > 1e2
        ok &= np.median(chk.row_residuals) < 1e-2
        ok &= chk.col_span_dim == chk.rank
        print(f"validate lemmas: contrast {chk.contrast:.0f}, "
              f"row residual {evidence['row_residual_median']:.2e}, span {chk.col_span_dim}/{chk.rank}")
    elif suite == "incoherence":
        rho1_upper, _ = rho1_estimate(edge, lam1, R=rank, seed=params["seed"])
        rho2_eig = rho2(edge, lam1)
        search = rho2_rayleigh_search(edge, lam1, seed=params["seed"])
        evidence.update({
            "rho1_upper": rho1_upper,
            "rho2": rho2_eig,
            "rho2_rayleigh": search,
            "rho2_rel_gap": abs(rho2_eig - search) / rho2_eig,
        })
        ok &= evidence["rho2_rel_gap"] < 0.01
        print(f"validate incoherence: rho1<={rho1_upper:.3f} rho2={rho2_eig:.3f} "
              f"(rayleigh gap {evidence['rho2_rel_gap']:.2e})")
    else:
        raise ValueError(f"unknown validation suite {suite!r}")
    evidence["passed"] = bool(ok)
    out = _outdir(params)
    fileio.write_json(out / f"validate_{suite}.json", evidence)
    _write_manifest(out, "validate", params, [f"validate_{suite}.json"])
    if not ok:
        print("validate: INVARIANT FAILURE", file=sys.stderr)
        return 1
    return 0


def cmd_rerun(params: dict) -> int:
    argv = json_field(fileio.read_json(params["manifest"]), "argv", list, "manifest")
    for entry in argv:
        if not isinstance(entry, str):
            raise ValueError(f"manifest argv entry {entry!r} is not a string")
    if not argv or argv[0] not in DISPATCH:
        raise ValueError(f"manifest argv must start with one of {', '.join(DISPATCH)}, "
                         f"got {argv[:1]}")
    # argparse exits on an option this version lacks or cannot parse, and
    # after printing usage for --help; a line it accepts must also be the one
    # this version writes, so a missing option, another spelling of a value
    # or a repeat is refused too
    try:
        replay = vars(build_parser().parse_args([*argv, "--out", params["out"]]))
    except SystemExit as exc:
        raise ValueError(f"manifest argv does not parse to a run: {argv}") from exc
    command = replay.pop("command")
    written = _command_line(command, replay)
    if written != argv:
        held, lacked = Counter(argv) - Counter(written), Counter(written) - Counter(argv)
        raise ValueError(f"manifest argv is not the line this version writes (in entries or "
                         f"order): it holds {[*held.elements()]} and lacks {[*lacked.elements()]}")
    return DISPATCH[command](replay)


DISPATCH = {
    "phantom": cmd_phantom,
    "recover": cmd_recover,
    "validate": cmd_validate,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="slrecon",
                                 description="structured low-rank k-space completion toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom", help="generate a synthetic phantom")
    p.add_argument("--lambda0", type=parse_extents, default=[3, 3])
    p.add_argument("--grid", type=parse_extents, default=[65, 65])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--oversample", type=int, default=Phantom.oversample)
    p.add_argument("--amps", type=lambda s: [float(v) for v in s.split(",")],
                   default=list(Phantom.region_values))
    p.add_argument("--min-area", type=float, default=0.02)
    p.add_argument("--out", default="phantom_out")

    r = sub.add_parser("recover", help="recover k-space from undersampled data")
    # input files are held as absolute paths, so the manifest's line names
    # the same files from any working directory
    r.add_argument("--kspace", required=True, type=os.path.abspath,
                   help="ground-truth .ksar file")
    r.add_argument("--solver", choices=["giraf", "svt", "tv", "zerofill"], default="giraf")
    r.add_argument("--scheme", choices=["uniform", "variable_density"], default="uniform")
    r.add_argument("--accel", type=float, default=2.0)
    r.add_argument("--mask-seed", type=int, default=0)
    r.add_argument("--mask", type=os.path.abspath,
                   help="JSON mask file (overrides scheme/accel/mask-seed)")
    r.add_argument("--noise", type=float, default=0.0)
    r.add_argument("--noise-seed", type=int, default=0)
    r.add_argument("--p", type=float, default=0.0)
    r.add_argument("--lambda", type=float, default=1e8)
    r.add_argument("--filter", type=parse_extents, default=[15, 15])
    r.add_argument("--weighting", choices=["identity", "gradient"], default="gradient")
    r.add_argument("--operator", choices=["approx", "exact"], default="approx")
    # the solver defaults are IRLSConfig's and SVTConfig's (SVT reads --max-iter too)
    r.add_argument("--max-iter", type=parse_count, default=IRLSConfig.max_outer)
    r.add_argument("--eps-decay", type=float, default=IRLSConfig.eps_decay)
    r.add_argument("--cg-tol", type=float, default=IRLSConfig.cg_tol)
    r.add_argument("--cg-max", type=parse_count, default=IRLSConfig.cg_max)
    r.add_argument("--svt-threshold", type=float, default=SVTConfig.threshold)
    r.add_argument("--tv-iters", type=parse_count, default=300)
    r.add_argument("--out", default="recover_out")

    v = sub.add_parser("validate", help="run a theory-validation suite")
    v.add_argument("suite", choices=["rank", "phase", "lemmas", "incoherence"])
    v.add_argument("--grid", type=parse_extents, default=[65, 65])
    v.add_argument("--lambda0", type=parse_extents, default=[3, 3])
    v.add_argument("--filter", type=parse_extents, default=[5, 5])
    v.add_argument("--oversample", type=int, default=Phantom.oversample)
    v.add_argument("--seeds", type=int, default=5)
    v.add_argument("--seed", type=int, default=4)
    v.add_argument("--trials", type=int, default=10)
    v.add_argument("--levels", type=lambda s: [int(v) for v in s.split(",")], default=None)
    v.add_argument("--out", default="validate_out")

    rr = sub.add_parser("rerun", help="replay a run from its manifest")
    rr.add_argument("manifest")
    rr.add_argument("--out", default="rerun_out")
    return ap


def main(argv=None) -> int:
    params = vars(build_parser().parse_args(argv))
    command = params.pop("command")
    try:
        return (cmd_rerun if command == "rerun" else DISPATCH[command])(params)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
