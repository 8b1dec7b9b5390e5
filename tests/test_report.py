import json

from slrecon.report import IterationRecord, SolverReport


def make_report():
    rep = SolverReport(solver="test")
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


def test_jsonl_roundtrip(tmp_path):
    rep = make_report()
    path = tmp_path / "r.jsonl"
    rep.to_jsonl(path)
    lines = [json.loads(line) for line in path.read_text().strip().splitlines()]
    assert len(lines) == 3
    assert lines[0]["iteration"] == 1
    assert lines[2]["mse_vs_reference"] == 1e-3


def test_csv_headers(tmp_path):
    rep = make_report()
    path = tmp_path / "r.csv"
    rep.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert "iteration" in header and "decomp_time" in header

