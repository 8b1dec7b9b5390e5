"""Self-test of the benchmark: every workload at toy size, traced and untraced.

    python3 perfbench/selftest.py

Checks that each run exits 0 with a correct result whose metrics are exactly
the ones BENCHMARK.json names, with the same units; that the named counts
repeat exactly between two traced runs of one seed; that a wrapped function
missing from the package is reported absent instead of failing the run; and
that without the package the benchmark exits nonzero and prints no result.
Takes about half a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REPEATING = ("fft.calls", "giraf.cg_iters", "giraf.normal_apply_calls", "lifting.gram_calls")


def run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return proc


def result(args) -> dict:
    proc = run(args)
    assert proc.returncode == 0, f"{args} exited {proc.returncode}:\n{proc.stderr}"
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1, res
    return res


def check_metrics(res: dict, spec: list, label: str):
    names = [m["name"] for m in spec]
    assert sorted(res["metrics"]) == sorted(names), (label, sorted(set(names) ^ set(res["metrics"])))
    for m in spec:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (label, m["name"], got["unit"], m["unit"])
        assert isinstance(got["value"], (int, float)), (label, m["name"], got)


def check_absent():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import tracer

    tracer.TRACED.append(("giraf", "slrecon.giraf", "no_such_function"))
    t = tracer.Tracer()
    try:
        t.install()
    finally:
        t.uninstall()
        tracer.TRACED.pop()
    assert t.absent == ["slrecon.giraf.no_such_function"], t.absent


def check_bare():
    """A directory holding only BENCHMARK.json and perfbench/ must fail cleanly."""
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(["--workload", "svt-dense-65", "--seed", "1", "--seconds", "1", "--trace", "0"],
                   cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc.stdout


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        base = ["--workload", w["name"], "--seed", "3", "--seconds", "1", "--toy"]
        check_metrics(result(base + ["--trace", "0"]), spec["end_to_end"], w["name"])
        first = result(base + ["--trace", "1"])
        check_metrics(first, spec["per_layer"], w["name"] + " traced")
        again = result(base + ["--trace", "1"])
        for name in REPEATING:
            assert first["metrics"][name] == again["metrics"][name], (w["name"], name)
        print(f"ok {w['name']}")
    check_absent()
    print("ok absent function reported")
    check_bare()
    print("ok fails without the package")


if __name__ == "__main__":
    main()
