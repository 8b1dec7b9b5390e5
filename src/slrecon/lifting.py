"""Convolutional lifting of k-space data to a structured matrix.

A filter ``h`` supported on ``lambda1`` maps through the lifting as
``T(x) h = restrict(weight(x) conv h, lambda2)`` where the convolution is the
plain (non-circular) discrete convolution of the gamma-supported data with
the filter, and ``lambda2`` is the valid output set: the outputs l whose
windows l - lambda1 lie inside gamma.  Together the windows read exactly
gamma, so every matrix entry is an actual weighted sample, for any filter
extent or offset.  With gradient weighting the matrix stacks the
k1-weighted block on top of the k2-weighted block.

The read rule, output i and tap k read index (i - k) mod e on an array of
extents e, is written once, in ``read_offsets`` (``_axis_reads`` is its 1-D
form); ``scatter_sum`` sums values back onto what they read.
``lift_geometry`` is the rule on gamma's array at the valid rows [f - 1, e),
which never wrap: ``lift_dense`` gathers through it, ``lift_adjoint`` and
``lift_normal_diag`` scatter back.  ``circular_lags`` is the rule on the
rows [0, f), the lag k - l of each pair of taps.  ``gram_matrix`` uses that
the valid lifting is the circular lifting on gamma's array restricted to
the outputs m with m1 >= f1 - 1 and m2 >= f2 - 1, an indicator that factors
as (1 - [m1 < f1 - 1]) (1 - [m2 < f2 - 1]).  So the Gram is the circular
Gram (Toeplitz in the circular autocorrelation: one forward FFT per block,
one inverse in all) minus the row strips' and the column strips' Grams
(each circular along the other axis, so 1-D FFTs and one small product per
frequency) plus the (f1 - 1)(f2 - 1) corner windows the strips share
(``corner_reads``, the rule on the rows [0, f - 1)), the only ones still
multiplied out.
The tests check the rule against an independent oracle, the same maps by
circular FFT convolution on gamma's array, where the valid outputs are the
slice [f1 - 1:, f2 - 1:] and read no wrapped sample.  The solver's
condensed operator is a circular convolution on gamma's array too; only
its FFT length differs.  ``mask_shape`` is a fast length per axis that
holds the linear convolution unwrapped, to be folded back onto gamma's
array; ``mask_lags`` is the lag map on that grid.
A ``LiftingConfig`` is a function of gamma, lambda1 and the weighting:
lambda2 is derived from them at construction, not accepted and checked.
The arrays derived from its geometry are computed on first use and cached
read-only, so no per-call map re-derives them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.fft import next_fast_len

from ._fft import fft2, ifft2
from .grid import IndexSet2D, valid_output_set

IDENTITY = "identity"
GRADIENT = "gradient"


@dataclass(frozen=True)
class KSpaceArray:
    """Complex Fourier samples on a box of indices.

    ``values`` is a 2-D complex array aligned row-major with the box's index
    ranges (axis 0 = k1, axis 1 = k2).
    """

    gamma: IndexSet2D
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        if v.shape != self.gamma.extents:
            raise ValueError(
                f"values shape {v.shape} does not match gamma extents {self.gamma.extents}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("k-space values must be finite")
        object.__setattr__(self, "values", v)

    def image(self) -> np.ndarray:
        """Spatial-domain view on the gamma-sized grid: inverse FFT of the
        samples placed on the FFT grid, where index k sits at k mod extents
        (gamma's array rolled by ``gamma.kmin``)."""
        return ifft2(np.roll(self.values, self.gamma.kmin, axis=(0, 1))) * len(self.gamma)


# Nothing in the package calls embed or gather (gamma's array is placed on the
# FFT grid by a roll); they stay while perfbench's tracer wraps them by name.
def embed(values: np.ndarray, iset: IndexSet2D, shape: tuple[int, int]) -> np.ndarray:
    """Scatter box-aligned values onto an (n1, n2) FFT grid at signed indices mod n."""
    n1, n2 = shape
    if iset.extents[0] > n1 or iset.extents[1] > n2:
        raise ValueError(f"index set extents {iset.extents} exceed grid {shape}")
    r1, r2 = iset.axis_ranges()
    g = np.zeros((n1, n2), dtype=np.complex128)
    g[np.ix_(r1 % n1, r2 % n2)] = values
    return g


def gather(g: np.ndarray, iset: IndexSet2D) -> np.ndarray:
    """Read box-aligned values back off an FFT grid."""
    n1, n2 = g.shape
    r1, r2 = iset.axis_ranges()
    return g[np.ix_(r1 % n1, r2 % n2)]


@dataclass(frozen=True)
class LiftingConfig:
    """Geometry of one lifting, a function of the supports and the weighting;
    lambda2 (the valid output set) is derived from them, and derived arrays
    are cached read-only.

    ``weighting`` is ``identity`` (the data untouched) or ``gradient`` (the
    data multiplied by the integer frequencies k1 and k2, one block each, the
    constant -j*2*pi being dropped since it only rescales all singular values
    uniformly).  Every index of gamma is read by some window, so the only
    index the lifting leaves out is DC under gradient weighting, where both
    multipliers vanish.
    """

    gamma: IndexSet2D
    lambda1: IndexSet2D
    weighting: str = IDENTITY
    lambda2: IndexSet2D = field(init=False)

    def __post_init__(self):
        if self.weighting not in (IDENTITY, GRADIENT):
            raise ValueError(f"unknown weighting kind {self.weighting!r}")
        object.__setattr__(self, "lambda2", valid_output_set(self.gamma, self.lambda1))

    @classmethod
    def make(cls, gamma: IndexSet2D, lambda1: IndexSet2D,
             weighting: str = IDENTITY) -> "LiftingConfig":
        """The named constructor existing callers use; the same as ``cls(...)``."""
        return cls(gamma, lambda1, weighting)

    @property
    def n_filter(self) -> int:
        return len(self.lambda1)

    @property
    def n_out(self) -> int:
        return len(self.lambda2)

    @cached_property
    def lifted_shape(self) -> tuple[int, int]:
        return (len(self.multipliers) * self.n_out, self.n_filter)

    @cached_property
    def multipliers(self) -> np.ndarray:
        """Per-block real weightings, stacked as (nblocks, *gamma.extents)."""
        if self.weighting == IDENTITY:
            return _read_only(np.ones((1, *self.gamma.extents)))
        r1, r2 = self.gamma.axis_ranges()
        return _read_only(np.stack(np.meshgrid(r1.astype(float), r2.astype(float), indexing="ij")))

    @cached_property
    def lift_geometry(self) -> np.ndarray:
        """(|lambda2|, N) flat row-major offsets into gamma: position (l, k)
        of every block reads index l - k (the rule on the rows [f - 1, e))."""
        (f1, f2), (e1, e2) = self.lambda1.extents, self.gamma.extents
        return _read_only(read_offsets((range(f1 - 1, e1), range(f2 - 1, e2)), (f1, f2), (e1, e2)))

    @cached_property
    def circular_lags(self) -> np.ndarray:
        """(N, N) flat offsets into gamma's array of the lag k - l, mod gamma's
        extents, between taps k and l of lambda1 (the rule on the rows [0, f))."""
        f1, f2 = self.lambda1.extents
        return _read_only(read_offsets((range(f1), range(f2)), (f1, f2), self.gamma.extents))

    @cached_property
    def corner_reads(self) -> np.ndarray:
        """((f1 - 1)(f2 - 1), N) flat offsets into gamma's array of the
        outputs in both wrapped strips (the rule on the rows [0, f - 1))."""
        f1, f2 = self.lambda1.extents
        return _read_only(read_offsets((range(f1 - 1), range(f2 - 1)), (f1, f2),
                                       self.gamma.extents))

    @cached_property
    def mask_shape(self) -> tuple[int, int]:
        """FFT grid of the condensed operator, per axis the fast length
        ``next_fast_len(e + 2f - 2)``, which holds the linear convolution of
        an axis of e samples with the mask's lags |d| <= f - 1 unwrapped."""
        return tuple(next_fast_len(e + 2 * f - 2)
                     for e, f in zip(self.gamma.extents, self.lambda1.extents))

    @cached_property
    def mask_lags(self) -> np.ndarray:
        """(N, N) flat offsets into the ``mask_shape`` grid of the lag k - l
        between taps k and l of lambda1 (``circular_lags`` on that grid)."""
        f1, f2 = self.lambda1.extents
        return _read_only(read_offsets((range(f1), range(f2)), (f1, f2), self.mask_shape))

    @cached_property
    def normal_diag(self) -> np.ndarray:
        """Diagonal of T^*T as a gamma-shaped array: each index's reference
        count times its summed squared multipliers."""
        return _read_only(lift_normal_diag(np.ones(self.n_filter), self))


def _axis_reads(rows: range, f: int, e: int) -> np.ndarray:
    """The read rule along one axis: (len(rows), f) indices (i - k) mod e of
    output i in ``rows`` and tap k < f on an axis of extent e."""
    return np.subtract.outer(np.arange(rows.start, rows.stop), np.arange(f)) % e


def read_offsets(rows: tuple[range, range], taps: tuple[int, int],
                 extents: tuple[int, int]) -> np.ndarray:
    """The read rule: output i reads index i - k at tap k, wrapped onto an
    array of the given extents.

    ``rows`` holds the output rows per axis, ``taps`` the filter extents.
    Returns the (outputs, N) flat row-major offsets
    ((i1 - k1) mod e1) e2 + (i2 - k2) mod e2, outputs and taps row-major.
    """
    (f1, f2), (e1, e2) = taps, extents
    d1, d2 = _axis_reads(rows[0], f1, e1), _axis_reads(rows[1], f2, e2)
    return (d1[:, None, :, None] * e2 + d2[None, :, None, :]).reshape(-1, f1 * f2)


def scatter_sum(offsets: np.ndarray, values: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Each value summed onto the entry of a ``shape`` array of the values'
    dtype at its flat offset, in input order (the adjoint of reading through
    ``offsets``), by ``np.add.at``."""
    # array methods, not np.ravel: this runs per block on every CG step
    out = np.zeros(shape[0] * shape[1], dtype=values.dtype)
    np.add.at(out, offsets.ravel(), values.ravel())
    return out.reshape(shape)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _check_input(x: KSpaceArray, cfg: LiftingConfig):
    if x.gamma != cfg.gamma:
        raise ValueError("k-space array is not defined on the config's gamma")


def lift_dense(x: KSpaceArray, cfg: LiftingConfig) -> np.ndarray:
    """Materialize the lifted matrix (rows = blocks x lambda2, cols = lambda1).

    Entry ((b, l), k) holds the block-b weighted sample at index l - k.
    """
    _check_input(x, cfg)
    return _lift(x.values, cfg)


def _lift(values: np.ndarray, cfg: LiftingConfig) -> np.ndarray:
    """``lift_dense`` of gamma-shaped complex values, unchecked: one gather
    of every weighted block through ``cfg.lift_geometry``."""
    g = cfg.multipliers * values
    return g.reshape(len(g), -1).take(cfg.lift_geometry, axis=1).reshape(cfg.lifted_shape)


def lift_adjoint(X: np.ndarray, cfg: LiftingConfig) -> np.ndarray:
    """Adjoint of x -> lift_dense(x, cfg), as a gamma-shaped array.

    Every lifted entry is summed onto the index it reads (``scatter_sum``
    per block), weighted by that block's real multiplier, and each later
    block is added into the first block's output.
    """
    X = np.asarray(X, dtype=np.complex128)
    if X.shape != cfg.lifted_shape:
        raise ValueError(f"lifted matrix shape {X.shape} does not match config")
    blocks, geometry = X.reshape(len(cfg.multipliers), -1), cfg.lift_geometry
    out = cfg.multipliers[0] * scatter_sum(geometry, blocks[0], cfg.gamma.extents)
    for xb, w in zip(blocks[1:], cfg.multipliers[1:]):
        out += w * scatter_sum(geometry, xb, cfg.gamma.extents)
    return out


def lift_normal_diag(d: np.ndarray, cfg: LiftingConfig) -> np.ndarray:
    """Diagonal of x -> T^*(T(x) W) for a weight matrix with diagonal ``d``
    (aligned with cfg.lambda1), as a real gamma-shaped array.

    Entry i is sum_b w_b(i)^2 times the sum of d[k] over the taps k whose
    window reads i; zero only where every multiplier vanishes.
    """
    reads = scatter_sum(cfg.lift_geometry, np.tile(d, cfg.n_out), cfg.gamma.extents)
    return reads * (cfg.multipliers**2).sum(axis=0)


def _strip_gram(ys: np.ndarray, f1: int, f2: int) -> np.ndarray:
    """(f1, f2, f1, f2) Gram of the circular lifting's row strips, the
    outputs m1 < f1 - 1 at every m2, of the weighted blocks ``ys``.

    The strips are circular along axis 2, so entry ((k1, k2), (l1, l2)) is
    ``rho[(k2 - l2) mod e2, k1, l1]``, where ``rho`` is the inverse FFT over
    the axis-2 frequency w of ``A_w^H A_w`` and
    ``A_w[(b, i), k1] = yhat_b[(i - k1) mod e1, w]`` for i < f1 - 1, with
    ``yhat_b`` the FFT of block b along axis 2: one f1 x f1 product per
    frequency.
    """
    e1, e2 = ys.shape[1:]
    a = fft2(ys, axes=(-1,))[:, _axis_reads(range(f1 - 1), f1, e1)]  # (b, i, k1, w)
    a = a.transpose(3, 0, 1, 2).reshape(e2, -1, f1)
    rho = ifft2(a.conj().swapaxes(1, 2) @ a, axes=(0,))
    return rho[_axis_reads(range(f2), f2, e2)].transpose(2, 0, 3, 1)


def gram_matrix(x: KSpaceArray, cfg: LiftingConfig) -> np.ndarray:
    """Hermitian N x N Gram of the lifting, T(x)^H T(x).

    The valid lifting is the circular lifting on gamma's array (windows
    wrapping mod gamma's extents) restricted to the outputs m with
    m1 >= f1 - 1 and m2 >= f2 - 1.  That indicator factors as
    (1 - [m1 < f1 - 1]) (1 - [m2 < f2 - 1]), so the Gram is
    ``G_c - G_R - G_C + G_corner``:

    - ``G_c``, the circular Gram, is Toeplitz in the circular autocorrelation
      ``r = ifft2(sum_b |fft2(w_b x)|^2)``, read through
      ``cfg.circular_lags``;
    - ``G_R`` (the row strips m1 < f1 - 1) and ``G_C`` (the column strips
      m2 < f2 - 1) are each circular along the other axis: 1-D FFTs and one
      f x f product per frequency (``_strip_gram``);
    - ``G_corner``, the (f1 - 1)(f2 - 1) outputs in both strips (the read
      rule on the rows [0, f - 1), ``cfg.corner_reads``), is added back one
      block at a time, so the lifted matrix is never held whole.

    The result is symmetrised, so it is exactly Hermitian.
    """
    _check_input(x, cfg)
    ys = cfg.multipliers * x.values
    f1, f2 = cfg.lambda1.extents
    gram = np.take(ifft2((np.abs(fft2(ys)) ** 2).sum(axis=0)), cfg.circular_lags)
    taps = gram.reshape(f1, f2, f1, f2)  # a view: gram[(k1, k2), (l1, l2)]
    taps -= _strip_gram(ys, f1, f2)
    taps -= _strip_gram(ys.swapaxes(1, 2), f2, f1).transpose(1, 0, 3, 2)
    for y in ys:
        t = np.take(y, cfg.corner_reads)
        gram += t.conj().T @ t
    gram += gram.conj().T
    gram *= 0.5
    return gram
