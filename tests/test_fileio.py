import io
import struct

import numpy as np
import pytest

from slrecon.grid import IndexSet2D
from slrecon import fileio

from conftest import random_kspace


class TestKSpaceBinary:
    def test_roundtrip(self, tmp_path):
        x = random_kspace(IndexSet2D.rect(9, 7), 1)
        path = tmp_path / "x.ksar"
        fileio.write_kspace(path, x)
        back = fileio.read_kspace(path)
        assert back.gamma == x.gamma
        assert np.array_equal(back.values, x.values)
        assert back.values.flags.writeable  # a copy, not a view of the read buffer

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ksar"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            fileio.read_kspace(path)

    def test_rejects_truncated_file(self, tmp_path):
        x = random_kspace(IndexSet2D.rect(5, 4), 5)
        path = tmp_path / "x.ksar"
        fileio.write_kspace(path, x)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="holds"):
            fileio.read_kspace(path)

    def test_rejects_nonzero_flags(self, tmp_path):
        path = tmp_path / "x.ksar"
        path.write_bytes(b"KSAR" + struct.pack("<III", 1, 1, 4) + b"\x00" * 16)
        with pytest.raises(ValueError, match="flags"):
            fileio.read_kspace(path)

    def test_rejects_zero_extent(self, tmp_path):
        path = tmp_path / "x.ksar"
        path.write_bytes(b"KSAR" + struct.pack("<III", 0, 3, 0))
        with pytest.raises(ValueError, match="zero extent"):
            fileio.read_kspace(path)

    def test_huge_header_rejected_before_reading_payload(self, tmp_path, monkeypatch):
        path = tmp_path / "x.ksar"
        path.write_bytes(b"KSAR" + struct.pack("<III", 65535, 65535, 0))
        requested = []

        class RecordingFile(io.FileIO):
            def read(self, size=-1):
                requested.append(size)
                return super().read(size)

        monkeypatch.setattr(fileio, "open", lambda p, mode: RecordingFile(p, "r"), raising=False)
        with pytest.raises(ValueError, match="header claims 65535x65535"):
            fileio.read_kspace(path)
        assert requested and max(requested) <= 12

    def test_header_layout(self, tmp_path):
        x = random_kspace(IndexSet2D.rect(4, 3), 2)
        path = tmp_path / "x.ksar"
        fileio.write_kspace(path, x)
        raw = path.read_bytes()
        assert raw[:4] == b"KSAR"
        e1, e2, flags = struct.unpack("<III", raw[4:16])
        assert (e1, e2, flags) == (4, 3, 0)
        assert len(raw) == 16 + 16 * 12


class TestPgm:
    def test_writes_valid_16bit_pgm(self, tmp_path):
        x = random_kspace(IndexSet2D.rect(8, 6), 4)
        path = tmp_path / "img.pgm"
        fileio.write_pgm(path, x)
        raw = path.read_bytes()
        header, rest = raw.split(b"\n", 1)
        assert header == b"P5"
        dims, rest = rest.split(b"\n", 1)
        assert dims == b"6 8"
        maxval, pixels = rest.split(b"\n", 1)
        assert maxval == b"65535"
        assert len(pixels) == 8 * 6 * 2
