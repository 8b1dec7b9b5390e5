import json
import os
import shutil

import numpy as np
import pytest

from slrecon.cli import _command_line, _git_revision, build_parser, main, parse_extents
from slrecon import fileio
from slrecon.baselines import SVTConfig
from slrecon.giraf import IRLSConfig
from slrecon.phantom import Phantom


def run(args):
    return main([str(a) for a in args])


def rerun(manifest, out):
    """``rerun``'s exit code; it refuses a line argparse exits on with 2."""
    return run(["rerun", manifest, "--out", out])


def write_manifest(path, manifest):
    path.write_text(json.dumps(manifest))
    return path


@pytest.fixture(scope="module")
def phantom_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("ph")
    code = run(["phantom", "--lambda0", "3x3", "--grid", "33x33",
                "--seed", "7", "--out", out])
    assert code == 0
    return out


class TestParse:
    def test_extents(self):
        assert parse_extents("15x15") == [15, 15]
        assert parse_extents("4X6") == [4, 6]

    def test_bad_extents(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_extents("nope")

    def test_solver_defaults_are_irls_config(self):
        ns = build_parser().parse_args(["recover", "--kspace", "k.ksar"])
        assert (ns.max_iter, ns.eps_decay, ns.cg_tol, ns.cg_max) == (
            IRLSConfig.max_outer, IRLSConfig.eps_decay, IRLSConfig.cg_tol, IRLSConfig.cg_max)

    def test_defaults_are_the_library_s(self):
        parser = build_parser()
        phantom, validate = parser.parse_args(["phantom"]), parser.parse_args(["validate", "rank"])
        recover = parser.parse_args(["recover", "--kspace", "k.ksar"])
        assert recover.svt_threshold == SVTConfig.threshold
        assert phantom.oversample == validate.oversample == Phantom.oversample
        assert phantom.amps == list(Phantom.region_values)

    @pytest.mark.parametrize("args", [
        ["phantom"],
        ["phantom", "--amps=-1,0.5", "--grid", "9x17", "--min-area", "0.1"],
        ["recover", "--kspace", "k.ksar"],
        ["recover", "--kspace=-k.ksar", "--mask", "m.json", "--solver", "svt",
         "--lambda", "1e-3", "--cg-tol", "1e-9", "--filter", "4X6"],
        ["validate", "rank"],
        ["validate", "phase", "--levels=3,9", "--lambda0", "5x3"],
    ], ids=["phantom", "phantom-negative-amps", "recover", "recover-mask", "validate",
            "validate-levels"])
    def test_command_line_parses_back(self, args):
        # the line a manifest records parses to the params it was written from
        params = vars(build_parser().parse_args(args))
        command = params.pop("command")
        line = _command_line(command, params)
        assert line[0] == command
        unset = {f"--{k}" for k, v in params.items() if v is None}
        assert not unset & {entry.split("=")[0] for entry in line}
        parsed = vars(build_parser().parse_args([*line, "--out", params["out"]]))
        assert parsed == {"command": command, **params}


class TestPhantomCmd:
    def test_outputs_exist(self, phantom_dir):
        for name in ("phantom.ksar", "phantom.pgm", "edge.json", "manifest.json"):
            assert (phantom_dir / name).exists()

    def test_deterministic_rerun_bit_exact(self, phantom_dir, tmp_path):
        out2 = tmp_path / "replay"
        code = run(["rerun", phantom_dir / "manifest.json", "--out", out2])
        assert code == 0
        assert (out2 / "phantom.ksar").read_bytes() == (phantom_dir / "phantom.ksar").read_bytes()

    def test_manifest_records_environment(self, phantom_dir):
        env = fileio.read_json(phantom_dir / "manifest.json")["environment"]
        assert set(env) == {"python", "numpy", "scipy", "platform", "SLRECON_THREADS",
                            "slrecon", "git", "blas", "blas_threads"}
        assert env["numpy"] == np.__version__
        assert isinstance(env["SLRECON_THREADS"], int) and env["SLRECON_THREADS"] >= 1
        assert isinstance(env["blas"], str) and env["blas"]
        assert set(env["blas_threads"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                            "MKL_NUM_THREADS"}
        assert env["blas_threads"] == {k: os.environ.get(k) for k in env["blas_threads"]}

    def test_manifest_records_version_and_revision(self, phantom_dir):
        env = fileio.read_json(phantom_dir / "manifest.json")["environment"]
        assert isinstance(env["slrecon"], str) and env["slrecon"]
        assert isinstance(env["git"], str) and env["git"]

    def test_git_revision_read_from_git_dir(self, tmp_path):
        sha = "0123456789abcdef0123456789abcdef01234567"
        git = tmp_path / ".git"
        assert _git_revision(git) == "unknown"
        (git / "refs" / "heads").mkdir(parents=True)
        (git / "HEAD").write_text(sha + "\n")
        assert _git_revision(git) == sha
        (git / "HEAD").write_text("ref: refs/heads/main\n")
        assert _git_revision(git) == "unknown"
        (git / "packed-refs").write_text(f"# pack-refs with: peeled\n{sha} refs/heads/main\n")
        assert _git_revision(git) == sha
        (git / "refs" / "heads" / "main").write_text(sha[::-1] + "\n")
        assert _git_revision(git) == sha[::-1]

    def test_same_seed_same_bytes(self, phantom_dir, tmp_path):
        out2 = tmp_path / "again"
        run(["phantom", "--lambda0", "3x3", "--grid", "33x33", "--seed", "7", "--out", out2])
        assert (out2 / "phantom.ksar").read_bytes() == (phantom_dir / "phantom.ksar").read_bytes()

    def test_one_amplitude_exits_two(self, tmp_path, capsys):
        code = run(["phantom", "--grid", "9x9", "--amps", "1", "--out", tmp_path / "ph"])
        assert code == 2
        assert "region_values" in capsys.readouterr().err

    def test_min_area_out_of_range_exits_two_at_once(self, tmp_path, capsys):
        # both sign regions must cover min_area, so it lies in (0, 0.5]
        code = run(["phantom", "--grid", "9x9", "--min-area", "2", "--out", tmp_path / "ph"])
        assert code == 2
        assert "min_region_area" in capsys.readouterr().err

    def test_single_index_lambda0_exits_two_at_once(self, tmp_path, capsys):
        # a 1x1 edge polynomial is a constant with no zero set
        code = run(["phantom", "--lambda0", "1x1", "--grid", "9x9", "--out", tmp_path / "ph"])
        assert code == 2
        assert "lambda0 must hold more than one index" in capsys.readouterr().err
        assert not (tmp_path / "ph").exists()

    def test_oversample_improves_rank_residual(self, tmp_path):
        # doubling the oversampling shrinks the rank-test tail by >= 1.5x
        from slrecon.grid import IndexSet2D
        from slrecon.lifting import LiftingConfig, lift_dense

        tails = {}
        for os_ in (8, 16):
            out = tmp_path / f"os{os_}"
            run(["phantom", "--lambda0", "3x3", "--grid", "33x33", "--seed", "7",
                 "--oversample", os_, "--out", out])
            ks = fileio.read_kspace(out / "phantom.ksar")
            cfg = LiftingConfig.make(ks.gamma, IndexSet2D.rect(5, 5), "gradient")
            s = np.linalg.svd(lift_dense(ks, cfg), compute_uv=False)
            tails[os_] = s[16] / s[0]
        assert tails[8] / tails[16] >= 1.5


class TestRecoverCmd:
    @pytest.mark.parametrize("solver", ["zerofill", "tv"])
    def test_simple_solvers(self, phantom_dir, tmp_path, solver):
        out = tmp_path / solver
        code = run(["recover", "--kspace", phantom_dir / "phantom.ksar",
                    "--solver", solver, "--accel", "2", "--mask-seed", "3",
                    "--tv-iters", "60", "--out", out])
        assert code == 0
        summary = fileio.read_json(out / "summary.json")
        assert "snr_db" in summary
        assert (out / "recovered.ksar").exists()
        assert (out / "mask.json").exists()

    @pytest.mark.parametrize("flag,solver", [("--max-iter", "giraf"), ("--cg-max", "giraf"),
                                             ("--tv-iters", "tv")],
                             ids=["max-iter", "cg-max", "tv-iters"])
    def test_iteration_count_below_one_exits_two(self, phantom_dir, tmp_path, capsys, flag,
                                                 solver):
        # argparse refuses the count, so the message names the flag typed,
        # not the config field it feeds
        out = tmp_path / "nested" / "out"
        with pytest.raises(SystemExit) as exc:
            run(["recover", "--kspace", phantom_dir / "phantom.ksar", "--solver", solver,
                 flag, "0", "--out", out])
        assert exc.value.code == 2
        assert f"argument {flag}: expected an integer of at least 1, got '0'" in \
            capsys.readouterr().err
        assert not (tmp_path / "nested").exists()

    def test_negative_noise_exits_two(self, phantom_dir, tmp_path, capsys):
        out = tmp_path / "noisy"
        code = run(["recover", "--kspace", phantom_dir / "phantom.ksar", "--solver", "zerofill",
                    "--noise", "-5", "--out", out])
        assert code == 2
        assert "noise" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_giraf_writes_report(self, phantom_dir, tmp_path):
        out = tmp_path / "giraf"
        code = run(["recover", "--kspace", phantom_dir / "phantom.ksar",
                    "--solver", "giraf", "--p", "0", "--lambda", "1e8",
                    "--filter", "5x5", "--accel", "1.5", "--mask-seed", "3",
                    "--max-iter", "5", "--out", out])
        assert code == 0
        lines = (out / "report.jsonl").read_text().strip().splitlines()
        assert 1 <= len(lines) <= 5
        rec = json.loads(lines[0])
        assert {"iteration", "eps", "cg_iters", "decomp_time"} <= set(rec)
        summary = fileio.read_json(out / "summary.json")
        assert summary["snr_db"] > 10.0

    def test_recover_rerun_bit_exact(self, phantom_dir, tmp_path):
        out1 = tmp_path / "r1"
        run(["recover", "--kspace", phantom_dir / "phantom.ksar", "--solver",
             "zerofill", "--accel", "2", "--mask-seed", "5", "--out", out1])
        out2 = tmp_path / "r2"
        # manifest references the original phantom file path, so replay works
        code = run(["rerun", out1 / "manifest.json", "--out", out2])
        assert code == 0
        assert (out2 / "recovered.ksar").read_bytes() == (out1 / "recovered.ksar").read_bytes()
        m1 = fileio.read_json(out1 / "mask.json")
        m2 = fileio.read_json(out2 / "mask.json")
        assert m1 == m2

    def test_rerun_from_another_directory(self, phantom_dir, tmp_path, monkeypatch):
        # input files typed relative to one working directory are recorded by
        # absolute path, so the manifest replays from any other
        work, elsewhere = tmp_path / "work", tmp_path / "elsewhere"
        work.mkdir()
        elsewhere.mkdir()
        shutil.copy(phantom_dir / "phantom.ksar", work / "phantom.ksar")
        monkeypatch.chdir(work)
        assert run(["recover", "--kspace", "phantom.ksar", "--solver", "zerofill",
                    "--out", "drawn"]) == 0
        assert run(["recover", "--kspace", "phantom.ksar", "--mask", "drawn/mask.json",
                    "--solver", "tv", "--tv-iters", "5", "--out", "run"]) == 0
        argv = fileio.read_json(work / "run" / "manifest.json")["argv"]
        inputs = [e.split("=", 1)[1] for e in argv if e.startswith(("--kspace=", "--mask="))]
        assert len(inputs) == 2 and all(os.path.isabs(path) for path in inputs)
        monkeypatch.chdir(elsewhere)
        assert rerun(work / "run" / "manifest.json", "replay") == 0
        replayed = (elsewhere / "replay" / "recovered.ksar").read_bytes()
        assert replayed == (work / "run" / "recovered.ksar").read_bytes()

    def test_giraf_manifest_replays_its_cg_tol(self, phantom_dir, tmp_path):
        # a manifest records cg_tol explicitly, so one written under another
        # default replays its own tolerance bit-exactly
        out1, out2 = tmp_path / "g1", tmp_path / "g2"
        run(["recover", "--kspace", phantom_dir / "phantom.ksar", "--filter", "5x5",
             "--accel", "1.5", "--mask-seed", "3", "--max-iter", "2", "--cg-tol", "1e-9",
             "--out", out1])
        assert "--cg-tol=1e-09" in fileio.read_json(out1 / "manifest.json")["argv"]
        assert run(["rerun", out1 / "manifest.json", "--out", out2]) == 0
        assert (out2 / "recovered.ksar").read_bytes() == (out1 / "recovered.ksar").read_bytes()

    def test_mask_file_replays_sampling(self, phantom_dir, tmp_path):
        out1, out2 = tmp_path / "drawn", tmp_path / "from_file"
        base = ["recover", "--kspace", phantom_dir / "phantom.ksar", "--solver", "zerofill"]
        assert run([*base, "--scheme", "variable_density", "--accel", "2", "--mask-seed", "6",
                    "--out", out1]) == 0
        assert run([*base, "--mask", out1 / "mask.json", "--out", out2]) == 0
        assert (out2 / "recovered.ksar").read_bytes() == (out1 / "recovered.ksar").read_bytes()
        # both mask files hold the sampling alone, and the same sampling
        for out in (out1, out2):
            assert list(fileio.read_json(out / "mask.json")) == ["gamma", "indices"]
        assert (out2 / "mask.json").read_bytes() == (out1 / "mask.json").read_bytes()

    def test_mask_run_replays_from_its_own_directory(self, phantom_dir, tmp_path):
        # a --mask run's line names the run's own mask.json and none of the
        # options that draw a mask, so it replays once the input file is gone
        drawn, out, replay = tmp_path / "drawn", tmp_path / "run", tmp_path / "replay"
        base = ["recover", "--kspace", phantom_dir / "phantom.ksar", "--solver", "tv",
                "--tv-iters", "5"]
        assert run([*base, "--accel", "1.5", "--mask-seed", "4", "--out", drawn]) == 0
        copy = tmp_path / "m.json"
        shutil.copy(drawn / "mask.json", copy)
        assert run([*base, "--mask", copy, "--out", out]) == 0
        copy.unlink()
        argv = fileio.read_json(out / "manifest.json")["argv"]
        assert f"--mask={os.path.abspath(out / 'mask.json')}" in argv
        assert not [e for e in argv if e.startswith(("--scheme=", "--accel=", "--mask-seed="))]
        assert rerun(out / "manifest.json", replay) == 0
        assert (replay / "recovered.ksar").read_bytes() == (out / "recovered.ksar").read_bytes()

    def test_mask_for_another_grid_exits_two(self, phantom_dir, tmp_path, capsys):
        from slrecon.grid import IndexSet2D
        from slrecon.phantom import make_mask

        path = tmp_path / "mask17.json"
        fileio.write_json(path, make_mask(IndexSet2D.rect(17, 17), "uniform", 2.0).to_json_dict())
        code = run(["recover", "--kspace", phantom_dir / "phantom.ksar", "--solver", "zerofill",
                    "--mask", path, "--out", tmp_path / "out"])
        assert code == 2
        assert "does not match" in capsys.readouterr().err

    def test_svt_writes_one_record_per_iteration(self, phantom_dir, tmp_path):
        out = tmp_path / "svt"
        code = run(["recover", "--kspace", phantom_dir / "phantom.ksar", "--solver", "svt",
                    "--filter", "5x5", "--accel", "1.5", "--max-iter", "4", "--out", out])
        assert code == 0
        records = read_strict(out / "report.jsonl")
        assert len(records) == 4
        for rec in records:  # SVT runs no CG and has no smoothing level
            assert rec["cg_iters"] is None and rec["cg_stop_reason"] is None
            assert rec["eps"] is None and rec["surrogate_end"] is None
            assert rec["mse_vs_reference"] >= 0

    @pytest.mark.parametrize("p", ["0", "1"])
    def test_giraf_records_the_spectrum_it_measures(self, phantom_dir, tmp_path, p):
        # at p = 0 the weights come from a Cholesky factor, and only the first
        # iteration reads the Gram's spectrum (for eps); at p = 1 every one does
        out = tmp_path / "giraf"
        code = run(["recover", "--kspace", phantom_dir / "phantom.ksar", "--filter", "5x5",
                    "--p", p, "--max-iter", "4", "--out", out])
        assert code == 0
        first, *rest = read_strict(out / "report.jsonl")
        assert len(rest) == 3
        for rec in [first] + (rest if p == "1" else []):
            assert rec["sigma_max"] >= rec["sigma_min"] >= 0
        if p == "0":
            assert all(r["sigma_max"] is None and r["sigma_min"] is None for r in rest)
        for rec in [first, *rest]:
            assert rec["decomp_time"] > 0 and rec["mask_time"] > 0


def _reject(token):
    raise ValueError(f"not strict JSON: {token}")


def read_strict(path):
    """Every JSON document in a .json or .jsonl file, parsed refusing NaN and
    Infinity."""
    text = path.read_text()
    if path.suffix == ".jsonl":
        return [json.loads(line, parse_constant=_reject) for line in text.splitlines()]
    return [json.loads(text, parse_constant=_reject)]


class TestRunOutputs:
    """A run's directory holds its manifest and exactly the files it lists,
    each JSON file strict."""

    @pytest.mark.parametrize("args", [
        ["phantom", "--grid", "17x17"],
        ["recover", "--solver", "giraf", "--filter", "5x5", "--max-iter", "2"],
        ["recover", "--solver", "svt", "--filter", "5x5", "--max-iter", "2"],
        ["recover", "--solver", "tv", "--tv-iters", "5"],
        ["recover", "--solver", "zerofill", "--accel", "1"],
        ["validate", "rank", "--grid", "17x17", "--seeds", "2"],
        ["validate", "phase", "--grid", "9x9", "--filter", "3x3", "--trials", "1",
         "--levels", "40,81"],
    ], ids=["phantom", "giraf", "svt", "tv", "zerofill", "rank", "phase"])
    def test_directory_holds_exactly_the_manifest_outputs(self, phantom_dir, tmp_path, args):
        if args[0] == "recover":
            args = [*args, "--kspace", phantom_dir / "phantom.ksar"]
        out = tmp_path / "run"
        assert run([*args, "--out", out]) in (0, 1)
        outputs = fileio.read_json(out / "manifest.json")["outputs"]
        assert sorted(p.name for p in out.iterdir()) == sorted(["manifest.json", *outputs])
        for path in out.iterdir():
            if path.suffix in (".json", ".jsonl"):
                assert read_strict(path)

    @pytest.mark.parametrize("args, product", [
        (["phantom", "--grid", "17x17", "--amps=-1,0.5"], "phantom.ksar"),
        (["recover", "--solver", "giraf", "--filter", "5x5", "--max-iter", "2"], "recovered.ksar"),
        (["recover", "--solver", "svt", "--filter", "5x5", "--max-iter", "2"], "recovered.ksar"),
        (["recover", "--solver", "tv", "--tv-iters", "5"], "recovered.ksar"),
        (["recover", "--solver", "zerofill", "--accel", "3"], "recovered.ksar"),
        (["validate", "rank", "--grid", "17x17", "--seeds", "2"], "validate_rank.json"),
    ], ids=["phantom-negative-amps", "giraf", "svt", "tv", "zerofill", "rank"])
    def test_rerun_is_byte_identical(self, phantom_dir, tmp_path, args, product):
        if args[0] == "recover":
            args = [*args, "--kspace", phantom_dir / "phantom.ksar"]
        out1, out2 = tmp_path / "run", tmp_path / "replay"
        code = run([*args, "--out", out1])
        assert rerun(out1 / "manifest.json", out2) == code
        assert (out2 / product).read_bytes() == (out1 / product).read_bytes()
        manifests = [fileio.read_json(d / "manifest.json") for d in (out1, out2)]
        assert manifests[0]["argv"] == manifests[1]["argv"]
        assert manifests[0]["outputs"] == manifests[1]["outputs"]

    @pytest.mark.parametrize("args, converged", [
        (["--solver", "giraf", "--filter", "5x5", "--max-iter", "2"], False),
        (["--solver", "giraf", "--filter", "5x5", "--max-iter", "40"], True),
        (["--solver", "svt", "--filter", "5x5", "--max-iter", "2"], None),
        (["--solver", "tv", "--tv-iters", "5"], None),
        (["--solver", "zerofill"], None),
    ], ids=["giraf-capped", "giraf-converged", "svt", "tv", "zerofill"])
    def test_summary_states_convergence(self, phantom_dir, tmp_path, args, converged):
        # the solver report's verdict; svt runs a fixed step count and tv and
        # zerofill write no report, so none of them has a verdict
        out = tmp_path / "run"
        assert run(["recover", "--kspace", phantom_dir / "phantom.ksar", *args,
                    "--out", out]) == 0
        assert read_strict(out / "summary.json")[0]["converged"] is converged

    def test_exact_recovery_writes_null_snr(self, phantom_dir, tmp_path):
        out = tmp_path / "full"
        assert run(["recover", "--kspace", phantom_dir / "phantom.ksar", "--solver",
                    "zerofill", "--accel", "1", "--out", out]) == 0
        summary = read_strict(out / "summary.json")[0]
        assert summary["mse"] == 0.0 and summary["snr_db"] is None


class TestBadInput:
    """Malformed or missing input files exit 2 with a message naming the problem."""

    @pytest.mark.parametrize("flags,field", [
        (["--lambda", "nan"], "lam"),
        (["--lambda", "inf"], "lam"),
        (["--eps-decay", "nan"], "eps_decay"),
        (["--cg-tol", "nan"], "cg_tol"),
        (["--solver", "svt", "--svt-threshold", "nan"], "threshold"),
    ], ids=["lambda", "lambda-inf", "eps-decay", "cg-tol", "svt-threshold"])
    def test_nan_solver_setting_exits_two_before_solving(self, phantom_dir, tmp_path, capsys,
                                                         monkeypatch, flags, field):
        from slrecon import cli

        def refuse(*args, **kwargs):
            raise AssertionError("solver ran")

        monkeypatch.setattr(cli, "giraf_solve", refuse)
        monkeypatch.setattr(cli, "svt_solve", refuse)
        code = run(["recover", "--kspace", phantom_dir / "phantom.ksar", "--filter", "5x5",
                    *flags, "--out", tmp_path / "out"])
        assert code == 2
        assert f"{field} must" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_nan_acceleration_exits_two(self, phantom_dir, tmp_path, capsys):
        code = run(["recover", "--kspace", phantom_dir / "phantom.ksar", "--solver", "zerofill",
                    "--accel", "nan", "--out", tmp_path / "out"])
        assert code == 2
        assert "acceleration must be >= 1, got nan" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("args", [
        ["phantom", "--grid", "9x9", "--min-area", "2"],
        ["phantom", "--grid", "9x9", "--amps", "1.0"],
        ["recover", "--solver", "giraf", "--filter", "5x5", "--cg-tol", "nan"],
        ["recover", "--solver", "zerofill", "--accel", "nan"],
        ["validate", "phase", "--grid", "9x9", "--filter", "3x3", "--trials", "0"],
        ["validate", "rank", "--grid", "9x9", "--filter", "3x3", "--seeds", "0"],
    ], ids=["min-area", "one-amplitude", "cg-tol-nan", "accel-nan", "phase-no-trials",
            "rank-no-seeds"])
    def test_refused_run_makes_no_directory(self, phantom_dir, tmp_path, args):
        if args[0] == "recover":
            args = [*args, "--kspace", phantom_dir / "phantom.ksar"]
        out = tmp_path / "nested" / "out"
        assert run([*args, "--out", out]) == 2
        assert not (tmp_path / "nested").exists()

    def _mask_file(self, tmp_path, edit):
        from slrecon.grid import IndexSet2D
        from slrecon.phantom import make_mask

        d = make_mask(IndexSet2D.rect(33, 33), "uniform", 2.0, seed=0).to_json_dict()
        path = tmp_path / "mask.json"
        path.write_text(json.dumps(edit(d)))
        return path

    @pytest.mark.parametrize("edit,needle", [
        (lambda d: [d], "JSON object"),
        (lambda d: {**d, "gamma": {"extents": [33, 33]}}, "'kind'"),
        (lambda d: {**d, "gamma": {"kind": "rect", "extents": ["a", 33]}}, "'extents'"),
        (lambda d: {**d, "indices": [[1.5, 2.9], [True, 0]]}, "'indices'"),
        (lambda d: {**d, "indices": [[0, 0], [-17, 3]]}, "(-17, 3) lies outside gamma"),
        (lambda d: {**d, "indices": []}, "lists no index"),
        (lambda d: {**d, "gamma": {"kind": "list", "elements": [[0, 0]]}}, "kind 'list'"),
    ], ids=["list", "gamma-no-kind", "gamma-ill-typed-extents",
            "non-integer-indices", "index-outside-gamma", "no-indices", "gamma-list-kind"])
    def test_malformed_mask(self, phantom_dir, tmp_path, capsys, edit, needle):
        code = run(["recover", "--kspace", phantom_dir / "phantom.ksar", "--solver", "zerofill",
                    "--mask", self._mask_file(tmp_path, edit), "--out", tmp_path / "out"])
        assert code == 2
        assert needle in capsys.readouterr().err

    def test_missing_kspace_file(self, tmp_path, capsys):
        missing = tmp_path / "absent.ksar"
        code = run(["recover", "--kspace", missing, "--solver", "zerofill",
                    "--out", tmp_path / "out"])
        assert code == 2
        assert "absent.ksar" in capsys.readouterr().err

    def test_manifest_without_command(self, tmp_path, capsys):
        # a params-only manifest, no line at all, a command this version no
        # longer has, rerun itself and a line with a non-string entry
        for manifest, needle in (({"command": "phantom", "params": {}}, "'argv'"),
                                 ({"argv": []}, "got []"),
                                 ({"argv": ["bench"]}, "got ['bench']"),
                                 ({"argv": ["rerun", "manifest.json"]}, "got ['rerun']"),
                                 ({"argv": ["phantom", 7]}, "entry 7 is not a string")):
            path = write_manifest(tmp_path / "manifest.json", manifest)
            assert rerun(path, tmp_path / "out") == 2
            assert needle in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", ["--help", "-h"])
    def test_manifest_asking_for_help_exits_two(self, tv_run, tmp_path, capsys, flag):
        # argparse would print recover's usage and exit 0, a replay that ran
        # nothing reported as a success
        manifest = fileio.read_json(tv_run / "manifest.json")
        manifest["argv"].append(flag)
        path = write_manifest(tmp_path / "help_manifest.json", manifest)
        capsys.readouterr()
        assert rerun(path, tmp_path / "replay") == 2
        assert "does not parse to a run" in capsys.readouterr().err
        assert not (tmp_path / "replay").exists()

    def test_manifest_missing_a_param(self, tmp_path, capsys):
        params = vars(build_parser().parse_args(["validate", "rank"]))
        argv = _command_line(params.pop("command"), params)
        argv.remove("--lambda0=3x3")
        path = write_manifest(tmp_path / "manifest.json", {"argv": argv})
        assert rerun(path, tmp_path / "out") == 2
        assert "lacks ['--lambda0=3x3']" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.fixture
    def tv_run(self, phantom_dir, tmp_path):
        out = tmp_path / "tv"
        assert run(["recover", "--kspace", phantom_dir / "phantom.ksar", "--solver", "tv",
                    "--tv-iters", "5", "--out", out]) == 0
        return out

    def test_manifest_with_an_unread_param(self, tv_run, tmp_path, capsys):
        # replaying without an option recover does not read (TV's former
        # weight) could run another model, so argparse refuses it
        manifest = fileio.read_json(tv_run / "manifest.json")
        manifest["argv"].append("--tv-weight=1000.0")
        path = write_manifest(tmp_path / "old_manifest.json", manifest)
        capsys.readouterr()
        assert rerun(path, tmp_path / "replay") == 2
        assert "--tv-weight=1000.0" in capsys.readouterr().err
        assert not (tmp_path / "replay").exists()
        manifest["argv"].pop()
        write_manifest(path, manifest)
        assert rerun(path, tmp_path / "replay") == 0
        replayed = (tmp_path / "replay" / "recovered.ksar").read_bytes()
        assert replayed == (tv_run / "recovered.ksar").read_bytes()

    @pytest.mark.parametrize("edit, needle", [
        (lambda a: [e.replace("--tv-iters=5", "--tv-iters=2.5") for e in a], "'2.5'"),
        (lambda a: [5 if e == "--max-iter=20" else e for e in a], "entry 5 is not a string"),
        (lambda a: [e.replace("--accel=2.0", "--accel=2") for e in a],
         "holds ['--accel=2'] and lacks ['--accel=2.0']"),
        (lambda a: [e.replace("--filter=15x15", "--filter=15") for e in a], "'15'"),
        (lambda a: [e for e in a if e != "--mask-seed=0"], "lacks ['--mask-seed=0']"),
        (lambda a: [*a, "--accel=2.0"], "holds ['--accel=2.0'] and lacks []"),
    ], ids=["tv_iters-2.5", "max_iter-5", "accel-2", "filter-value3", "mask_seed-None", "repeat"])
    def test_manifest_with_an_ill_typed_param(self, tv_run, tmp_path, capsys, edit, needle):
        # each line is one this version would not write: a fractional step
        # count or a bare extent (argparse refuses them), a number where the
        # line holds strings, another spelling of a value, a dropped mask
        # seed (it would replay under the default seed, not the recorded
        # one) and a repeated option
        manifest = fileio.read_json(tv_run / "manifest.json")
        manifest["argv"] = edit(manifest["argv"])
        path = write_manifest(tmp_path / "ill_typed_manifest.json", manifest)
        capsys.readouterr()
        assert rerun(path, tmp_path / "replay") == 2
        assert needle in capsys.readouterr().err
        assert not (tmp_path / "replay" / "recovered.ksar").exists()


class TestValidateCmd:
    def test_rank_suite(self, tmp_path):
        out = tmp_path / "rank"
        code = run(["validate", "rank", "--seeds", "2", "--grid", "49x49",
                    "--filter", "5x5", "--out", out])
        assert code == 0
        evidence = fileio.read_json(out / "validate_rank.json")
        assert evidence["passed"] and evidence["agreements"] == 2
        assert evidence["per_seed"] == [
            {"seed": s, "numerical_rank": 16, "predicted": 16, "match": True} for s in (0, 1)]

    def test_incoherence_suite(self, tmp_path):
        out = tmp_path / "inc"
        code = run(["validate", "incoherence", "--lambda0", "3x3",
                    "--filter", "3x3", "--seed", "4", "--out", out])
        assert code == 0
        evidence = fileio.read_json(out / "validate_incoherence.json")
        assert evidence["rho2_rel_gap"] < 0.01

    def test_lemmas_suite(self, tmp_path):
        out = tmp_path / "lemmas"
        assert run(["validate", "lemmas", "--grid", "33x33", "--out", out]) == 0
        evidence = fileio.read_json(out / "validate_lemmas.json")
        assert evidence["passed"] is True
        assert evidence["col_span_dim"] == evidence["rank"]

    def test_invariant_failure_exits_one(self, tmp_path):
        # a window too small for the rank hypothesis forces a mismatch
        out = tmp_path / "fail"
        code = run(["validate", "rank", "--seeds", "1", "--grid", "9x9",
                    "--filter", "7x7", "--out", out])
        assert code == 1
        assert not fileio.read_json(out / "validate_rank.json")["passed"]

    def test_phase_without_trials_exits_two(self, tmp_path, capsys):
        code = run(["validate", "phase", "--grid", "9x9", "--filter", "3x3", "--trials", "0",
                    "--out", tmp_path / "phase"])
        assert code == 2
        assert "trials" in capsys.readouterr().err

    def test_rank_without_seeds_exits_two(self, tmp_path, capsys):
        out = tmp_path / "rank"
        code = run(["validate", "rank", "--grid", "9x9", "--filter", "3x3", "--seeds", "0",
                    "--out", out])
        assert code == 2
        assert "seeds" in capsys.readouterr().err
        assert not (out / "validate_rank.json").exists()

    @pytest.mark.parametrize("seeds", [True, 2.5])
    def test_rank_seeds_must_be_a_count(self, tmp_path, seeds):
        # the parser reads --seeds as an int; the suite refuses any other count
        from slrecon import cli

        out = tmp_path / "rank"
        params = vars(build_parser().parse_args(["validate", "rank", "--grid", "9x9",
                                                 "--filter", "3x3", "--out", str(out)]))
        params.pop("command")
        with pytest.raises(ValueError, match=f"seeds must be an integer of at least 1, "
                                             f"got {seeds!r}"):
            cli.cmd_validate({**params, "seeds": seeds})
        assert not out.exists()

    def test_phase_suite_passes_oversample(self, tmp_path, monkeypatch):
        from slrecon import cli
        from slrecon.analysis import PhaseTransitionResult

        seen = {}

        def record(*a, **kw):
            seen.update(kw)
            return PhaseTransitionResult([289], 1, [[True]], [[0]])

        monkeypatch.setattr(cli, "phase_transition", record)
        out = tmp_path / "phase"
        code = run(["validate", "phase", "--grid", "17x17", "--levels", "289",
                    "--oversample", "16", "--out", out])
        assert code == 0 and seen["oversample"] == 16
        evidence = fileio.read_json(out / "validate_phase.json")
        assert (evidence["samples"], evidence["trials"], evidence["fractions"],
                evidence["seeds"]) == ([289], 1, [1.0], [[0]])

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            run(["validate", "bogus-suite"])
        assert exc.value.code == 2

