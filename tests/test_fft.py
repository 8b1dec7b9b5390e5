import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from slrecon._fft import fft2, ifft2

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.mark.parametrize("value", ["abc", "0"])
def test_bad_thread_count_names_the_variable(value):
    env = dict(os.environ, SLRECON_THREADS=value)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", "import slrecon._fft"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "ValueError: SLRECON_THREADS must be a positive integer" in proc.stderr


@pytest.mark.parametrize("axis", [-1, 0])
def test_one_axis_matches_numpy(axis):
    rng = np.random.default_rng(3)
    a = rng.standard_normal((2, 5, 6)) + 1j * rng.standard_normal((2, 5, 6))
    assert np.allclose(fft2(a, axes=(axis,)), np.fft.fft(a, axis=axis), rtol=0, atol=1e-12)
    assert np.allclose(ifft2(a, axes=(axis,)), np.fft.ifft(a, axis=axis), rtol=0, atol=1e-12)


def test_default_axes_are_the_last_two():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((2, 5, 6)) + 1j * rng.standard_normal((2, 5, 6))
    assert np.allclose(fft2(a), np.fft.fft2(a), rtol=0, atol=1e-12)
    assert np.allclose(ifft2(a), np.fft.ifft2(a), rtol=0, atol=1e-12)
