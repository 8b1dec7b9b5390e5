"""Thin FFT wrappers with a process-wide worker count.

The worker count is read once from the SLRECON_THREADS environment variable
(default 1) so that runs are reproducible regardless of where threads land;
anything but a positive integer is rejected at import.
"""

from __future__ import annotations

import os

import scipy.fft

_RAW_WORKERS = os.environ.get("SLRECON_THREADS", "1")
if not _RAW_WORKERS.strip().isdecimal() or int(_RAW_WORKERS) < 1:
    raise ValueError(f"SLRECON_THREADS must be a positive integer, got {_RAW_WORKERS!r}")
WORKERS = int(_RAW_WORKERS)


def fft2(a, axes=(-2, -1), s=None):
    """FFT over ``axes`` (the last two by default; one axis gives a 1-D FFT).
    ``s`` gives the transform's length per axis: ``a`` is zero-padded at the
    end of an axis to it (or cropped), as in ``scipy.fft``."""
    return scipy.fft.fft2(a, s=s, axes=axes, workers=WORKERS)


def ifft2(a, axes=(-2, -1), s=None):
    """Inverse FFT over ``axes``, as ``fft2``."""
    return scipy.fft.ifft2(a, s=s, axes=axes, workers=WORKERS)
