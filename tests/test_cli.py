import json
import os

import numpy as np
import pytest

from slrecon.cli import _git_revision, main, parse_extents
from slrecon import fileio


def run(args):
    return main([str(a) for a in args])


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

    def test_tv_without_iterations_exits_two(self, phantom_dir, tmp_path, capsys):
        code = run(["recover", "--kspace", phantom_dir / "phantom.ksar", "--solver", "tv",
                    "--tv-iters", "0", "--out", tmp_path / "tv0"])
        assert code == 2
        assert "iters" in capsys.readouterr().err

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

    def test_mask_file_replays_sampling(self, phantom_dir, tmp_path):
        out1, out2 = tmp_path / "drawn", tmp_path / "from_file"
        base = ["recover", "--kspace", phantom_dir / "phantom.ksar", "--solver", "zerofill"]
        assert run([*base, "--accel", "2", "--mask-seed", "6", "--out", out1]) == 0
        assert run([*base, "--mask", out1 / "mask.json", "--out", out2]) == 0
        assert (out2 / "recovered.ksar").read_bytes() == (out1 / "recovered.ksar").read_bytes()

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
        assert len((out / "report.jsonl").read_text().strip().splitlines()) == 4


class TestBadInput:
    """Malformed or missing input files exit 2 with a message naming the problem."""

    def test_nan_acceleration_exits_two(self, phantom_dir, tmp_path, capsys):
        code = run(["recover", "--kspace", phantom_dir / "phantom.ksar", "--solver", "zerofill",
                    "--accel", "nan", "--out", tmp_path / "out"])
        assert code == 2
        assert "acceleration must be >= 1, got nan" in capsys.readouterr().err

    def _mask_file(self, tmp_path, edit):
        from slrecon.grid import IndexSet2D
        from slrecon.phantom import make_mask

        d = make_mask(IndexSet2D.rect(33, 33), "uniform", 2.0, seed=0).to_json_dict()
        path = tmp_path / "mask.json"
        path.write_text(json.dumps(edit(d)))
        return path

    @pytest.mark.parametrize("edit,needle", [
        (lambda d: {k: v for k, v in d.items() if k != "seed"}, "'seed'"),
        (lambda d: [d], "JSON object"),
        (lambda d: {**d, "gamma": {"extents": [33, 33]}}, "'kind'"),
        (lambda d: {**d, "gamma": {"kind": "rect", "extents": ["a", 33]}}, "'extents'"),
        (lambda d: {**d, "indices": [[1.5, 2.9], [True, 0]]}, "'indices'"),
        (lambda d: {**d, "indices": [[0, 0], [-17, 3]]}, "(-17, 3) lies outside gamma"),
        (lambda d: {**d, "indices": []}, "lists no index"),
        (lambda d: {**d, "gamma": {"kind": "list", "elements": [[0, 0]]}}, "kind 'list'"),
    ], ids=["no-seed", "list", "gamma-no-kind", "gamma-ill-typed-extents",
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
        # no command at all, and a command this version no longer has
        for manifest, needle in (({"params": {}}, "'command'"),
                                 ({"command": "bench", "params": {}}, "unknown command 'bench'")):
            path = tmp_path / "manifest.json"
            path.write_text(json.dumps(manifest))
            assert run(["rerun", path, "--out", tmp_path / "out"]) == 2
            assert needle in capsys.readouterr().err

    def test_manifest_missing_a_param(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"command": "validate", "params": {"suite": "rank"}}))
        assert run(["rerun", path, "--out", tmp_path / "out"]) == 2
        assert "'lambda0'" in capsys.readouterr().err


class TestValidateCmd:
    def test_rank_suite(self, tmp_path):
        out = tmp_path / "rank"
        code = run(["validate", "rank", "--seeds", "2", "--grid", "49x49",
                    "--filter", "5x5", "--out", out])
        assert code == 0
        evidence = fileio.read_json(out / "validate_rank.json")
        assert evidence["passed"] and evidence["agreements"] == 2

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

    def test_phase_suite_passes_oversample(self, tmp_path, monkeypatch):
        from slrecon import cli
        from slrecon.analysis import PhaseTransitionResult

        seen = {}

        def record(*a, **kw):
            seen.update(kw)
            return PhaseTransitionResult([289], [1.0], 1, [[True]], [[0]])

        monkeypatch.setattr(cli, "phase_transition", record)
        code = run(["validate", "phase", "--grid", "17x17", "--levels", "289",
                    "--oversample", "16", "--out", tmp_path / "phase"])
        assert code == 0 and seen["oversample"] == 16

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            run(["validate", "bogus-suite"])
        assert exc.value.code == 2

