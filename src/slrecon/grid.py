"""Index-set algebra on the 2-D integer grid.

All Fourier-domain supports used by the liftings (sampling window, filter
support, valid-convolution output set, edge-polynomial support) are finite
subsets of Z^2.  Rectangular sets are centered at the origin by convention:
an extent ``e`` spans ``-(e//2) .. (e-1)//2`` per axis, so odd extents are
symmetric and even extents lean one step to the negative side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np


def centered_range(extent: int, offset: int = 0) -> np.ndarray:
    """Signed indices of a centered 1-D window of the given extent."""
    if extent < 1:
        raise ValueError(f"extent must be >= 1, got {extent}")
    lo = -(extent // 2) + offset
    return np.arange(lo, lo + extent, dtype=np.int64)


@dataclass(frozen=True)
class GridShape:
    """Dimensions of the FFT grid used for circular convolutions."""

    n1: int
    n2: int

    def __post_init__(self):
        if self.n1 < 1 or self.n2 < 1:
            raise ValueError(f"grid dimensions must be positive, got {self}")

    @property
    def size(self) -> int:
        return self.n1 * self.n2

    def as_tuple(self) -> tuple[int, int]:
        return (self.n1, self.n2)


@dataclass(frozen=True, eq=False)
class IndexSet2D:
    """A finite set of integer pairs (k1, k2).

    ``indices`` is canonical: unique rows, lexicographically sorted, shape
    (m, 2), dtype int64.  ``rectangular`` is true iff the set contains every
    integer pair inside its bounding box.  The bounding box (``kmin``,
    ``kmax``, ``extents``) and, for rectangles, the per-axis ranges are
    computed once at construction; every array is read-only.
    """

    indices: np.ndarray
    kmin: np.ndarray = field(init=False, repr=False)
    kmax: np.ndarray = field(init=False, repr=False)
    extents: tuple[int, int] = field(init=False, repr=False)
    rectangular: bool = field(init=False, repr=False)
    _ranges: tuple[np.ndarray, np.ndarray] | None = field(init=False, repr=False)

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        if idx.ndim != 2 or idx.shape[1] != 2 or idx.shape[0] == 0:
            raise ValueError("indices must be a non-empty (m, 2) integer array")
        idx = np.unique(idx, axis=0)  # sorts lexicographically
        lo, hi = idx.min(axis=0), idx.max(axis=0)
        extents = (int(hi[0] - lo[0] + 1), int(hi[1] - lo[1] + 1))
        rectangular = idx.shape[0] == extents[0] * extents[1]
        ranges = None
        if rectangular:
            ranges = (np.arange(lo[0], hi[0] + 1, dtype=np.int64),
                      np.arange(lo[1], hi[1] + 1, dtype=np.int64))
        for a in (idx, lo, hi, *(ranges or ())):
            a.setflags(write=False)
        for name, value in (("indices", idx), ("kmin", lo), ("kmax", hi), ("extents", extents),
                            ("rectangular", rectangular), ("_ranges", ranges)):
            object.__setattr__(self, name, value)

    # -- constructors ------------------------------------------------------

    @classmethod
    def rect(cls, extent1: int, extent2: int, offset: tuple[int, int] = (0, 0)) -> "IndexSet2D":
        """Centered rectangle with given per-axis extents (optionally shifted)."""
        r1 = centered_range(extent1, offset[0])
        r2 = centered_range(extent2, offset[1])
        return _box((r1[0], r2[0]), (r1[-1], r2[-1]))

    @classmethod
    def from_indices(cls, pairs: Iterable[Sequence[int]]) -> "IndexSet2D":
        return cls(np.asarray(list(pairs), dtype=np.int64).reshape(-1, 2))

    # -- basic queries -----------------------------------------------------

    def __len__(self) -> int:
        return self.indices.shape[0]

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return (tuple(row) for row in self.indices)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IndexSet2D):
            return NotImplemented
        return self.indices.shape == other.indices.shape and bool(
            np.array_equal(self.indices, other.indices)
        )

    def contains(self, other: "IndexSet2D") -> bool:
        # a linear key over the joint bounding box keeps the lexicographic
        # order, so the canonical rows are sorted keys to search
        lo = np.minimum(self.kmin, other.kmin)
        key = np.array([max(self.kmax[1], other.kmax[1]) - lo[1] + 1, 1])
        mine, want = (self.indices - lo) @ key, (other.indices - lo) @ key
        pos = np.minimum(np.searchsorted(mine, want), mine.size - 1)
        return bool(np.array_equal(mine[pos], want))

    def axis_ranges(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-axis index ranges; only meaningful for rectangular sets."""
        if self._ranges is None:
            raise ValueError("axis_ranges requires a rectangular set")
        return self._ranges

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        if self.rectangular:
            e1, e2 = self.extents
            # offset relative to the centered position of the same extents
            canon = (-(e1 // 2), -(e2 // 2))
            off = (int(self.kmin[0]) - canon[0], int(self.kmin[1]) - canon[1])
            return {"kind": "rect", "extents": [e1, e2], "offset": list(off)}
        return {"kind": "list", "elements": self.indices.tolist(), "offset": [0, 0]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "IndexSet2D":
        kind = json_field(d, "kind", str, "index set")
        if kind == "rect":
            e1, e2 = int_pair(d.get("extents"), "extents")
            return cls.rect(e1, e2, offset=int_pair(d.get("offset", [0, 0]), "offset"))
        if kind == "list":
            elements = json_field(d, "elements", list, "index set")
            return cls.from_indices([int_pair(e, "elements") for e in elements])
        raise ValueError(f"unknown index-set kind {kind!r}")


def json_field(d, key: str, kind: type | tuple[type, ...], owner: str):
    """``d[key]`` of parsed JSON; ValueError naming the field if ``d`` is not
    an object or the field is missing or not of type ``kind``."""
    if not isinstance(d, dict):
        raise ValueError(f"{owner} must be a JSON object, got {type(d).__name__}")
    if not isinstance(d.get(key), kind):
        raise ValueError(f"{owner} field {key!r} is missing or ill-typed")
    return d[key]


def int_pair(value, key: str) -> tuple[int, int]:
    """A JSON pair of integers (booleans excluded); ValueError naming the
    index-set field otherwise."""
    if not (isinstance(value, list) and len(value) == 2
            and all(isinstance(v, int) and not isinstance(v, bool) for v in value)):
        raise ValueError(f"index set field {key!r} must hold pairs of integers, got {value!r}")
    return (value[0], value[1])


def _box(lo, hi) -> IndexSet2D:
    """Every integer pair (k1, k2) with lo <= (k1, k2) <= hi per axis."""
    k1, k2 = np.meshgrid(np.arange(lo[0], hi[0] + 1), np.arange(lo[1], hi[1] + 1), indexing="ij")
    return IndexSet2D(np.stack([k1.ravel(), k2.ravel()], axis=1))


def dilate(a: IndexSet2D, b: IndexSet2D) -> IndexSet2D:
    """Set of all pairwise sums {x + y : x in a, y in b}.

    For rectangular inputs with extents (p, q) and (r, s) the result is
    rectangular with extents (p + r - 1, q + s - 1).
    """
    if a.rectangular and b.rectangular:
        return _box(a.kmin + b.kmin, a.kmax + b.kmax)
    sums = a.indices[:, None, :] + b.indices[None, :, :]
    return IndexSet2D(sums.reshape(-1, 2))


def valid_output_set(gamma: IndexSet2D, lambda1: IndexSet2D) -> IndexSet2D:
    """Output support of valid convolutions, positioned so dilate(lambda1, result) == gamma."""
    if not (gamma.rectangular and lambda1.rectangular):
        raise ValueError("valid_output_set requires rectangular gamma and lambda1")
    ge, fe = gamma.extents, lambda1.extents
    if fe[0] > ge[0] or fe[1] > ge[1]:
        raise ValueError(
            f"filter support {fe} exceeds grid extents {ge}; filter larger than grid"
        )
    return _box(gamma.kmin - lambda1.kmin, gamma.kmax - lambda1.kmax)


def count_shifts(lambda1: IndexSet2D, lambda0: IndexSet2D) -> int:
    """Number of integer shifts of lambda0 that fit inside lambda1.

    For rectangular sets this is the product of (extent1_i - extent0_i + 1)
    over the axes; zero when lambda0 is larger than lambda1 on any axis.
    """
    if not (lambda1.rectangular and lambda0.rectangular):
        raise ValueError("count_shifts requires rectangular sets")
    e1, e0 = lambda1.extents, lambda0.extents
    per_axis = (e1[0] - e0[0] + 1, e1[1] - e0[1] + 1)
    if per_axis[0] <= 0 or per_axis[1] <= 0:
        return 0
    return per_axis[0] * per_axis[1]


def predicted_rank(lambda1: IndexSet2D, lambda0: IndexSet2D) -> int:
    """Predicted rank of the lifted matrix: |lambda1| minus the shift count.

    Valid as a rank statement only when the sampling window is large enough
    (gamma must contain the double dilation of lambda1 by lambda0); the
    caller is responsible for that hypothesis.
    """
    return len(lambda1) - count_shifts(lambda1, lambda0)
