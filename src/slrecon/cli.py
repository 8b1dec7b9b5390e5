"""Command-line entry points: phantom generation, recovery and theory
validation, all reproducible from an emitted manifest.

Every run writes ``manifest.json`` echoing the fully resolved parameters;
``slrecon rerun manifest.json --out DIR`` replays it bit-exactly (timings
aside).  Exit codes: 0 success, 1 invariant failure, 2 usage error
(including unreadable or malformed input files).
"""

from __future__ import annotations

import argparse
import importlib.metadata
import os
import platform
import sys
import time
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
    snr_db,
    subspace_check,
)
from .baselines import SVTConfig, svt_solve, tv_solve, zero_fill
from .giraf import IRLSConfig, giraf_solve
from .grid import IndexSet2D, json_field, predicted_rank
from .lifting import LiftingConfig, lift_dense
from .phantom import (
    Phantom,
    SamplingMask,
    add_noise,
    make_mask,
    phantom_fourier,
    random_edge_polynomial,
    sample_kspace,
)

# the thread-count variables of the BLAS builds numpy ships with; the manifest
# records each as set, or null
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_extents(text: str) -> list[int]:
    """``WxH`` as ``[W, H]``, the form the manifest's JSON records."""
    try:
        a, b = text.lower().split("x")
        return [int(a), int(b)]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected WxH, got {text!r}") from exc


def _outdir(params) -> Path:
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


def _write_manifest(out: Path, command: str, params: dict, outputs: list[str]):
    fileio.write_json(out / "manifest.json", {
        "command": command,
        "params": {k: v for k, v in params.items() if k != "out"},
        "outputs": outputs,
        # provenance only: rerun replays params and ignores this
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
    out = _outdir(params)
    lam0 = IndexSet2D.rect(*params["lambda0"])
    gamma = IndexSet2D.rect(*params["grid"])
    edge = random_edge_polynomial(lam0, seed=params["seed"], min_region_area=params["min_area"])
    ph = Phantom(edge, tuple(params["amps"]), oversample=params["oversample"])
    ks = phantom_fourier(ph, gamma)
    fileio.write_kspace(out / "phantom.ksar", ks)
    fileio.write_pgm(out / "phantom.pgm", ks)
    fileio.maybe_write_png(out / "phantom.png", ks)
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
    out = _outdir(params)
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
        rec = tv_solve(b, mask, weight=params["tv_weight"], iters=params["tv_iters"])
    else:
        lifting = LiftingConfig.make(gamma, IndexSet2D.rect(*params["filter"]),
                                     params["weighting"])
        if solver == "svt":
            cfg = SVTConfig(threshold=params["svt_threshold"], max_iter=params["max_iter"])
            rec, report = svt_solve(b, mask, lifting, cfg, reference=truth)
        elif solver == "giraf":
            cfg = IRLSConfig(
                p=params["p"],
                lam=params["lam"],
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

    fileio.write_kspace(out / "recovered.ksar", rec)
    fileio.write_pgm(out / "recovered.pgm", rec)
    fileio.maybe_write_png(out / "recovered.png", rec)
    fileio.write_json(out / "mask.json", mask.to_json_dict())
    outputs = ["recovered.ksar", "recovered.pgm", "mask.json", "summary.json"]
    if report is not None:
        report.to_jsonl(out / "report.jsonl")
        report.to_csv(out / "report.csv")
        outputs += ["report.jsonl", "report.csv"]
    summary = {
        "solver": solver,
        "snr_db": snr_db(rec, truth),
        "mse": float(np.linalg.norm(rec.values - truth.values) ** 2
                     / np.linalg.norm(truth.values) ** 2),
        "wall_time_s": wall,
        "samples": int(np.count_nonzero(mask.sampled)),
    }
    fileio.write_json(out / "summary.json", summary)
    _write_manifest(out, "recover", params, outputs)
    print(f"recover[{solver}]: SNR {summary['snr_db']:.2f} dB, "
          f"MSE {summary['mse']:.3e}, {wall:.1f} s")
    return 0


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def cmd_validate(params: dict) -> int:
    out = _outdir(params)
    suite = params["suite"]
    lam0, lam1, gamma = (IndexSet2D.rect(*params[k]) for k in ("lambda0", "filter", "grid"))
    rank = predicted_rank(lam1, lam0)
    # the rank suite draws one edge per seed; the others share this one
    edge = None if suite == "rank" else random_edge_polynomial(lam0, seed=params["seed"])
    ok = True
    evidence: dict = {"suite": suite}
    if suite == "rank":
        if params["seeds"] < 1:
            raise ValueError(f"seeds must be at least 1, got {params['seeds']}")
        cfg = LiftingConfig.make(gamma, lam1, "gradient")
        rows = []
        for seed in range(params["seeds"]):
            edge = random_edge_polynomial(lam0, seed=seed)
            ks = phantom_fourier(Phantom(edge, (1.0, 0.0), oversample=params["oversample"]), gamma)
            r = numerical_rank(lift_dense(ks, cfg), 1e-2)
            rows.append({"seed": seed, "numerical_rank": r, "predicted": rank,
                         "match": r == rank})
            ok &= r == rank
        fileio.write_csv_rows(out / "rank.csv", rows)
        evidence["agreements"] = sum(r["match"] for r in rows)
        evidence["total"] = len(rows)
        print(f"validate rank: {evidence['agreements']}/{evidence['total']} match rank {rank}")
    elif suite == "phase":
        m = len(gamma)
        levels = params.get("levels") or [max(1, rank // 2), m // 4, m // 2, 3 * m // 4, m]
        res = phase_transition(edge, lam1, gamma, levels, trials=params["trials"],
                               seed=params["seed"], oversample=params["oversample"])
        rows = [
            {"samples": c, "success_fraction": f, "trials": res.trials}
            for c, f in zip(res.sample_counts, res.success_fractions)
        ]
        fileio.write_csv_rows(out / "phase.csv", rows)
        fileio.write_json(out / "phase_seeds.json", {"seeds": res.seeds})
        ok &= res.monotone_within_noise()
        ok &= res.success_fractions[-1] == 1.0
        evidence["fractions"] = res.success_fractions
        print("validate phase:", rows)
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
    fileio.write_json(out / f"validate_{suite}.json", evidence)
    _write_manifest(out, "validate", params, [f"validate_{suite}.json"])
    if not ok:
        print("validate: INVARIANT FAILURE", file=sys.stderr)
        return 1
    return 0


def _command_params(command: str) -> set[str]:
    """The params a sub-command reads: its parser's destinations."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in sub.choices[command]._actions} - {"help"}


def cmd_rerun(params: dict) -> int:
    manifest = fileio.read_json(params["manifest"])
    command = json_field(manifest, "command", str, "manifest")
    if command not in DISPATCH:
        raise ValueError(f"manifest names unknown command {command!r}")
    replay = dict(json_field(manifest, "params", dict, "manifest"))
    replay["out"] = params["out"]
    missing = sorted(_command_params(command) - replay.keys())
    if missing:
        raise ValueError(f"manifest params for {command!r} lack {', '.join(map(repr, missing))}")
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
    p.add_argument("--oversample", type=int, default=8)
    p.add_argument("--amps", type=lambda s: [float(v) for v in s.split(",")], default=[1.0, 0.0])
    p.add_argument("--min-area", dest="min_area", type=float, default=0.02)
    p.add_argument("--out", default="phantom_out")

    r = sub.add_parser("recover", help="recover k-space from undersampled data")
    r.add_argument("--kspace", required=True, help="ground-truth .ksar file")
    r.add_argument("--solver", choices=["giraf", "svt", "tv", "zerofill"], default="giraf")
    r.add_argument("--scheme", choices=["uniform", "variable_density"], default="uniform")
    r.add_argument("--accel", type=float, default=2.0)
    r.add_argument("--mask-seed", dest="mask_seed", type=int, default=0)
    r.add_argument("--mask", help="JSON mask file (overrides scheme/accel/mask-seed)")
    r.add_argument("--noise", type=float, default=0.0)
    r.add_argument("--noise-seed", dest="noise_seed", type=int, default=0)
    r.add_argument("--p", type=float, default=0.0)
    r.add_argument("--lambda", dest="lam", type=float, default=1e8)
    r.add_argument("--filter", type=parse_extents, default=[15, 15])
    r.add_argument("--weighting", choices=["identity", "gradient"], default="gradient")
    r.add_argument("--operator", choices=["approx", "exact"], default="approx")
    r.add_argument("--max-iter", dest="max_iter", type=int, default=20)
    r.add_argument("--eps-decay", dest="eps_decay", type=float, default=2.0)
    r.add_argument("--cg-tol", dest="cg_tol", type=float, default=1e-9)
    r.add_argument("--cg-max", dest="cg_max", type=int, default=500)
    r.add_argument("--svt-threshold", dest="svt_threshold", type=float, default=3e-2)
    r.add_argument("--tv-weight", dest="tv_weight", type=float, default=1e3)
    r.add_argument("--tv-iters", dest="tv_iters", type=int, default=300)
    r.add_argument("--out", default="recover_out")

    v = sub.add_parser("validate", help="run a theory-validation suite")
    v.add_argument("suite", choices=["rank", "phase", "lemmas", "incoherence"])
    v.add_argument("--grid", type=parse_extents, default=[65, 65])
    v.add_argument("--lambda0", type=parse_extents, default=[3, 3])
    v.add_argument("--filter", type=parse_extents, default=[5, 5])
    v.add_argument("--oversample", type=int, default=8)
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
    ap = build_parser()
    ns = ap.parse_args(argv)
    params = vars(ns)
    command = params.pop("command")
    try:
        return (cmd_rerun if command == "rerun" else DISPATCH[command])(params)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
