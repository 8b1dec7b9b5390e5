"""Index-set algebra on the 2-D integer grid.

Every Fourier-domain support the liftings use (sampling window, filter
support, valid-convolution output set, edge-polynomial support) is a box of
integer pairs.  Boxes are centered at the origin by convention: an extent
``e`` spans ``-(e//2) .. (e-1)//2`` per axis, so odd extents are symmetric
and even extents lean one step to the negative side.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class IndexSet2D:
    """The box of integer pairs (k1, k2) with kmin <= k < kmin + extents per axis.

    ``kmin`` and ``extents`` are pairs of Python ints, so equality and hashing
    are the dataclass's.  ``indices`` lists the pairs row-major (k1, then
    k2: lexicographic order), which is how every gamma-shaped array is laid
    out.
    """

    kmin: tuple[int, int]
    extents: tuple[int, int]

    def __post_init__(self):
        kmin, extents = tuple(self.kmin), tuple(self.extents)
        if not (len(kmin) == 2 and all(is_int(k) for k in kmin)):
            raise ValueError(f"kmin must be a pair of integers, got {self.kmin!r}")
        if not (len(extents) == 2 and all(is_int(e) and e >= 1 for e in extents)):
            raise ValueError(f"extents must be integers >= 1, got {self.extents!r}")
        object.__setattr__(self, "kmin", (int(kmin[0]), int(kmin[1])))
        object.__setattr__(self, "extents", (int(extents[0]), int(extents[1])))

    @classmethod
    def rect(cls, extent1: int, extent2: int, offset: tuple[int, int] = (0, 0)) -> "IndexSet2D":
        """Centered box with the given per-axis extents (optionally shifted)."""
        return cls((-(extent1 // 2) + offset[0], -(extent2 // 2) + offset[1]), (extent1, extent2))

    @property
    def kmax(self) -> tuple[int, int]:
        return (self.kmin[0] + self.extents[0] - 1, self.kmin[1] + self.extents[1] - 1)

    def __len__(self) -> int:
        return self.extents[0] * self.extents[1]

    def axis_ranges(self) -> tuple[np.ndarray, np.ndarray]:
        """The box's index range along each axis."""
        return tuple(np.arange(k, k + e, dtype=np.int64) for k, e in zip(self.kmin, self.extents))

    @cached_property
    def indices(self) -> np.ndarray:
        """(len, 2) int64 pairs in row-major order, read-only."""
        k1, k2 = np.meshgrid(*self.axis_ranges(), indexing="ij")
        idx = np.stack([k1.ravel(), k2.ravel()], axis=1)
        idx.setflags(write=False)
        return idx

    def contains(self, other: "IndexSet2D") -> bool:
        """Whether ``other``'s box lies inside this one."""
        return all(lo <= olo and olo + oe <= lo + e for lo, e, olo, oe
                   in zip(self.kmin, self.extents, other.kmin, other.extents))

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        e1, e2 = self.extents
        # offset relative to the centered position of the same extents
        off = (self.kmin[0] + e1 // 2, self.kmin[1] + e2 // 2)
        return {"kind": "rect", "extents": [e1, e2], "offset": list(off)}

    @classmethod
    def from_json_dict(cls, d: dict) -> "IndexSet2D":
        kind = json_field(d, "kind", str, "index set")
        if kind != "rect":
            raise ValueError(f"unknown index-set kind {kind!r}")
        e1, e2 = int_pair(d.get("extents"), "extents")
        return cls.rect(e1, e2, offset=int_pair(d.get("offset", [0, 0]), "offset"))


def json_field(d, key: str, kind: type | tuple[type, ...], owner: str):
    """``d[key]`` of parsed JSON; ValueError naming the field if ``d`` is not
    an object or the field is missing or not of type ``kind``."""
    if not isinstance(d, dict):
        raise ValueError(f"{owner} must be a JSON object, got {type(d).__name__}")
    if not isinstance(d.get(key), kind):
        raise ValueError(f"{owner} field {key!r} is missing or ill-typed")
    return d[key]


def is_int(value) -> bool:
    """A Python or numpy integer, booleans excluded."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_count(value, name: str, least: int = 1):
    """ValueError naming ``name`` unless ``value`` is an integer (``is_int``)
    of at least ``least``."""
    if not (is_int(value) and value >= least):
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")


def int_pair(value, key: str) -> tuple[int, int]:
    """A JSON pair of integers (booleans excluded); ValueError naming the
    index-set field otherwise."""
    if not (isinstance(value, list) and len(value) == 2 and all(is_int(v) for v in value)):
        raise ValueError(f"index set field {key!r} must hold pairs of integers, got {value!r}")
    return (value[0], value[1])


def dilate(a: IndexSet2D, b: IndexSet2D) -> IndexSet2D:
    """Set of all pairwise sums {x + y : x in a, y in b}: boxes with extents
    (p, q) and (r, s) sum to the box with extents (p + r - 1, q + s - 1)."""
    return IndexSet2D((a.kmin[0] + b.kmin[0], a.kmin[1] + b.kmin[1]),
                      (a.extents[0] + b.extents[0] - 1, a.extents[1] + b.extents[1] - 1))


def valid_output_set(gamma: IndexSet2D, lambda1: IndexSet2D) -> IndexSet2D:
    """Output support of valid convolutions: the outputs l whose windows
    l - lambda1 lie inside gamma.  Together the windows read exactly gamma
    (``dilate`` of the result with -lambda1 is gamma), for any filter extent
    or offset."""
    ge, fe = gamma.extents, lambda1.extents
    if fe[0] > ge[0] or fe[1] > ge[1]:
        raise ValueError(
            f"filter support {fe} exceeds grid extents {ge}; filter larger than grid"
        )
    return IndexSet2D((gamma.kmin[0] + lambda1.kmax[0], gamma.kmin[1] + lambda1.kmax[1]),
                      (ge[0] - fe[0] + 1, ge[1] - fe[1] + 1))


def count_shifts(lambda1: IndexSet2D, lambda0: IndexSet2D) -> int:
    """Number of integer shifts of lambda0 that fit inside lambda1: the
    product of (extent1_i - extent0_i + 1) over the axes, zero when lambda0
    is larger than lambda1 on any axis."""
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
