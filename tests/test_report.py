import json

import pytest

from slrecon.baselines import SVTConfig, svt_solve
from slrecon.giraf import CG_RESIDUAL_CUT, IRLSConfig, giraf_solve
from slrecon.grid import IndexSet2D
from slrecon.lifting import LiftingConfig
from slrecon.phantom import make_mask, sample_kspace
from slrecon.report import IterationRecord, SolverReport

from conftest import random_kspace


def make_report():
    rep = SolverReport()
    for i in range(1, 4):
        rep.iterations.append(IterationRecord(
            iteration=i, objective=10.0 / i, eps=0.1 / i,
            mse_vs_reference=10.0 ** (-i), decomp_time=0.01 * i,
        ))
    return rep


def test_iterations_to_mse():
    rep = make_report()
    assert rep.iterations_to_mse(1e-1) == 2
    assert rep.iterations_to_mse(1e-9) is None


def test_final_scores_read_the_last_record():
    rep = make_report()
    assert rep.final_mse == 1e-3 and rep.final_snr_db == pytest.approx(30.0, rel=1e-12)
    rep.iterations[-1].mse_vs_reference = None  # a solve without a reference
    assert rep.final_mse is None and rep.final_snr_db is None
    assert SolverReport().final_snr_db is None


def test_jsonl_roundtrip(tmp_path):
    rep = make_report()
    path = tmp_path / "r.jsonl"
    rep.to_jsonl(path)
    lines = [json.loads(line) for line in path.read_text().strip().splitlines()]
    assert len(lines) == 3
    assert lines[0]["iteration"] == 1
    assert lines[2]["mse_vs_reference"] == 1e-3


def _reject(token):
    raise ValueError(f"not strict JSON: {token}")


def test_jsonl_writes_unmeasured_fields_as_null(tmp_path):
    # these records measure no CG solve and no surrogate
    path = tmp_path / "r.jsonl"
    make_report().to_jsonl(path)
    for line in path.read_text().splitlines():
        rec = json.loads(line, parse_constant=_reject)
        assert rec["cg_iters"] is None and rec["cg_stop_reason"] is None
        assert rec["surrogate_start"] is None and rec["sigma_max"] is None


def test_jsonl_refuses_a_non_finite_field(tmp_path):
    rep = make_report()
    rep.iterations[1].objective = float("nan")
    path = tmp_path / "r.jsonl"
    with pytest.raises(ValueError):
        rep.to_jsonl(path)
    assert not path.exists()



def test_jsonl_shows_the_bound_that_stopped_cg(tmp_path):
    # every solve stops at the tighter of cg_tol and a tenfold cut of its start
    # residual; the record carries both residuals, so the bound can be read off
    gamma = IndexSet2D.rect(12, 12)
    lifting = LiftingConfig.make(gamma, IndexSet2D.rect(3, 3))
    mask = make_mask(gamma, "uniform", 1.5, seed=13)
    b = sample_kspace(random_kspace(gamma, 53), mask)
    cfg = IRLSConfig(p=1.0, lam=1e4, max_outer=3, cg_tol=1e-4)
    _, rep = giraf_solve(b, mask, lifting, cfg)
    path = tmp_path / "report.jsonl"
    rep.to_jsonl(path)
    lines = [json.loads(line) for line in path.read_text().strip().splitlines()]
    assert len(lines) == rep.n_iterations
    for line in lines:
        assert line["cg_stop_reason"] == "converged" and line["cg_iters"] >= 1
        assert 0 < line["cg_start_residual"]
        bound = min(cfg.cg_tol, CG_RESIDUAL_CUT * line["cg_start_residual"])
        assert line["cg_residual"] <= bound


def test_stage_times_are_null_where_unmeasured(tmp_path):
    # SVT's Gram product is inside its decomp_time and it builds no mask, so
    # it measures no gram_time or mask_time; GIRAF measures all four stages
    gamma = IndexSet2D.rect(12, 12)
    lifting = LiftingConfig.make(gamma, IndexSet2D.rect(3, 3))
    mask = make_mask(gamma, "uniform", 1.5, seed=13)
    b = sample_kspace(random_kspace(gamma, 53), mask)
    _, svt = svt_solve(b, mask, lifting, SVTConfig(threshold=3e-2, max_iter=2))
    _, giraf = giraf_solve(b, mask, lifting, IRLSConfig(p=1.0, lam=1e4, max_outer=2))
    times = ("gram_time", "decomp_time", "mask_time", "solve_time")
    for rep, measured in ((svt, {"decomp_time", "solve_time"}), (giraf, set(times))):
        path = tmp_path / "report.jsonl"
        rep.to_jsonl(path)
        for line in path.read_text().splitlines():
            rec = json.loads(line, parse_constant=_reject)
            for name in times:
                assert (rec[name] is None) == (name not in measured)
                assert rec[name] is None or rec[name] >= 0.0
