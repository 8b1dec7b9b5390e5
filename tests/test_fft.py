import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.mark.parametrize("value", ["abc", "0"])
def test_bad_thread_count_names_the_variable(value):
    env = dict(os.environ, SLRECON_THREADS=value)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", "import slrecon._fft"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "ValueError: SLRECON_THREADS must be a positive integer" in proc.stderr
