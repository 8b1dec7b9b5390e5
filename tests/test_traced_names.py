"""The benchmark keys its per-layer metrics on the functions its tracer wraps
(``perfbench/tracer.py``'s ``TRACED``); every one of them must exist."""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_function_exists(monkeypatch):
    # load the tracer from its file without writing bytecode next to it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)

    t = tracer.Tracer()
    t.install()
    try:
        assert t.absent == []
    finally:
        t.uninstall()
