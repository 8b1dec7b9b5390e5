"""File formats: binary k-space arrays, PGM images, and JSON for masks,
edges, evidence and manifests (solver reports write their own JSON lines).

The k-space binary layout is a little-endian header (magic ``KSAR``, the two
extents as uint32, a uint32 flags word, currently zero) followed by
little-endian complex128 values (re/im float64 pairs) in row-major order.
The centered index convention makes the extents sufficient to reconstruct
the index set.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path

import numpy as np

from .grid import IndexSet2D
from .lifting import KSpaceArray

MAGIC = b"KSAR"


def write_kspace(path, x: KSpaceArray):
    e1, e2 = x.gamma.extents
    canon = IndexSet2D.rect(e1, e2)
    if x.gamma != canon:
        raise ValueError("binary format stores centered index sets only")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<III", e1, e2, 0))
        fh.write(x.values.astype("<c16").tobytes())


def read_kspace(path) -> KSpaceArray:
    """Read a k-space binary file, checking its header against the file size."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise ValueError(f"{path}: not a k-space array file (magic {magic!r})")
        header = fh.read(12)
        if len(header) != 12:
            raise ValueError(f"{path}: truncated header")
        e1, e2, flags = struct.unpack("<III", header)
        if flags != 0:
            raise ValueError(f"{path}: unsupported flags word {flags:#x} (expected 0)")
        if e1 == 0 or e2 == 0:
            raise ValueError(f"{path}: zero extent {e1}x{e2} in header")
        size = os.fstat(fh.fileno()).st_size
        if size != 16 + 16 * e1 * e2:
            raise ValueError(f"{path}: header claims {e1}x{e2} samples but the file holds {size} bytes")
        data = np.frombuffer(fh.read(16 * e1 * e2), dtype="<c16").reshape(e1, e2)
    return KSpaceArray(IndexSet2D.rect(e1, e2), data.copy())  # frombuffer's view is read-only


def write_pgm(path, x: KSpaceArray):
    """16-bit PGM of the image magnitude, scaled by its 99.5th percentile (1
    if that is zero) and clipped above it."""
    img = np.abs(x.image())
    hi = np.percentile(img, 99.5)
    if hi <= 0:
        hi = 1.0
    pixels = (np.clip(img / hi, 0.0, 1.0) * 65535).astype(">u2")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{pixels.shape[1]} {pixels.shape[0]}\n65535\n".encode())
        fh.write(pixels.tobytes())


def write_json(path, payload: dict):
    """Strict JSON: a NaN or infinite value raises before anything is written."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n")


def read_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)

