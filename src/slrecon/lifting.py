"""Convolutional lifting of k-space data to a structured matrix.

A filter ``h`` supported on ``lambda1`` maps through the lifting as
``T(x) h = restrict(weight(x) conv h, lambda2)`` where the convolution is the
plain (non-circular) discrete convolution of the gamma-supported data with
the filter, and ``lambda2`` is the valid output set.  With gradient weighting
the matrix stacks the k1-weighted block on top of the k2-weighted block.

The read rule, entry (l, k) holds the sample at index l - k, is written once,
as a sliding-window view of the data on an FFT grid just large enough that
the restricted outputs are alias-free: ``lift_dense``, its adjoint
``lift_adjoint`` and ``gram_matrix`` read through it.  ``apply_filter`` /
``adjoint_apply`` evaluate the same maps with circular FFTs on that grid and
are the view's independent oracle.  A ``LiftingConfig`` is a function of
gamma, lambda1, the weighting and the grid padding: lambda2 and the grid are
derived from them at construction, not accepted and checked.  The arrays
derived from its geometry are computed on first use and cached read-only, so
no per-call map re-derives them.

For symmetric (odd-extent) filter supports every matrix entry is an actual
weighted sample.  Asymmetric supports are allowed, but lambda2, placed so
that dilate(lambda1, lambda2) == gamma, then makes one boundary output row
read a single index just outside gamma, which counts as zero;
sliding-window identities (e.g. exact annihilation of a restricted infinite
sequence) hold only in the symmetric case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._fft import fft2, ifft2
from .grid import GridShape, IndexSet2D, valid_output_set

IDENTITY = "identity"
GRADIENT = "gradient"


@dataclass(frozen=True)
class KSpaceArray:
    """Complex Fourier samples on a rectangular index set.

    ``values`` is a 2-D complex array aligned row-major with the rectangle's
    index ranges (axis 0 = k1, axis 1 = k2).
    """

    gamma: IndexSet2D
    values: np.ndarray

    def __post_init__(self):
        if not self.gamma.rectangular:
            raise ValueError("KSpaceArray requires a rectangular index set")
        v = np.asarray(self.values, dtype=np.complex128)
        if v.shape != self.gamma.extents:
            raise ValueError(
                f"values shape {v.shape} does not match gamma extents {self.gamma.extents}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("k-space values must be finite")
        object.__setattr__(self, "values", v)

    @property
    def grid(self) -> GridShape:
        return GridShape(*self.gamma.extents)

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))

    def image(self, shape: GridShape | None = None) -> np.ndarray:
        """Spatial-domain view: inverse FFT of the grid-embedded samples."""
        shape = shape or self.grid
        g = embed(self.values, self.gamma, shape)
        return ifft2(g) * shape.size


def embed(values: np.ndarray, iset: IndexSet2D, shape: GridShape) -> np.ndarray:
    """Scatter rectangle-aligned values onto an FFT grid at signed indices mod n.

    Leading axes of ``values`` are kept (a stack is embedded in one assignment).
    """
    r1, r2 = iset.axis_ranges()
    if r1.size > shape.n1 or r2.size > shape.n2:
        raise ValueError(f"index set extents {iset.extents} exceed grid {shape}")
    values = np.asarray(values)
    g = np.zeros(values.shape[:-2] + shape.as_tuple(), dtype=np.complex128)
    g[(..., *np.ix_(r1 % shape.n1, r2 % shape.n2))] = values
    return g


def gather(g: np.ndarray, iset: IndexSet2D) -> np.ndarray:
    """Read rectangle-aligned values back off an FFT grid."""
    n1, n2 = g.shape
    r1, r2 = iset.axis_ranges()
    return g[np.ix_(r1 % n1, r2 % n2)]


def _alias_free_extents(gamma: IndexSet2D, lambda1: IndexSet2D, lambda2: IndexSet2D) -> tuple[int, int]:
    """Minimal per-axis grid so lambda2-restricted circular convolution is exact.

    Outputs on lambda2 read data indices in [min(l2)-max(l1), max(l2)-min(l1)];
    the grid must hold the union of that window and gamma injectively.
    """
    lo = np.minimum(gamma.kmin, lambda2.kmin - lambda1.kmax)
    hi = np.maximum(gamma.kmax, lambda2.kmax - lambda1.kmin)
    return (int(hi[0] - lo[0] + 1), int(hi[1] - lo[1] + 1))


@dataclass(frozen=True)
class LiftingConfig:
    """Geometry of one lifting, a function of the supports, the weighting and
    the grid padding; lambda2 and the FFT work grid are derived from them,
    and derived arrays are cached read-only.

    ``weighting`` is ``identity`` (the data untouched) or ``gradient`` (the
    data multiplied by the integer frequencies k1 and k2, one block each, the
    constant -j*2*pi being dropped since it only rescales all singular values
    uniformly).  The grid is the minimal alias-free one plus ``pad`` samples
    per axis; for symmetric (odd-extent) filters the minimal grid equals the
    gamma extents, asymmetric supports need one extra sample per axis.
    """

    gamma: IndexSet2D
    lambda1: IndexSet2D
    weighting: str = IDENTITY
    pad: int = 0
    lambda2: IndexSet2D = field(init=False)
    fft_grid: GridShape = field(init=False)

    def __post_init__(self):
        if self.weighting not in (IDENTITY, GRADIENT):
            raise ValueError(f"unknown weighting kind {self.weighting!r}")
        if self.pad < 0:
            raise ValueError(f"pad must be non-negative, got {self.pad}")
        lambda2 = valid_output_set(self.gamma, self.lambda1)
        e1, e2 = _alias_free_extents(self.gamma, self.lambda1, lambda2)
        object.__setattr__(self, "lambda2", lambda2)
        object.__setattr__(self, "fft_grid", GridShape(e1 + self.pad, e2 + self.pad))

    @classmethod
    def make(cls, gamma: IndexSet2D, lambda1: IndexSet2D, weighting: str = IDENTITY,
             pad: int = 0) -> "LiftingConfig":
        """The named constructor existing callers use; the same as ``cls(...)``."""
        return cls(gamma, lambda1, weighting, pad)

    @property
    def n_filter(self) -> int:
        return len(self.lambda1)

    @property
    def n_out(self) -> int:
        return len(self.lambda2)

    @property
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
    def cells(self) -> np.ndarray:
        """Flat FFT-grid offsets of gamma's indices (signed indices mod n),
        aligned row-major with gamma."""
        r1, r2 = self.gamma.axis_ranges()
        n1, n2 = self.fft_grid.as_tuple()
        return _read_only(((r1 % n1)[:, None] * n2 + r2 % n2).ravel())

    @cached_property
    def lift_geometry(self) -> np.ndarray:
        """(|lambda2|, N) flat FFT-grid offsets: position (l, k) of every block
        reads index l - k, a cell ``to_grid`` leaves zero if outside gamma."""
        cells = np.arange(self.fft_grid.size).reshape(self.fft_grid.as_tuple())
        return _read_only(_windows(cells, self).reshape(self.n_out, -1).copy())

    def to_grid(self, v: np.ndarray) -> np.ndarray:
        """Gamma-shaped values placed on a zeroed FFT grid (``embed`` on gamma)."""
        g = np.zeros(self.fft_grid.size, dtype=np.complex128)
        g[self.cells] = np.ravel(v)
        return g.reshape(self.fft_grid.as_tuple())

    def from_grid(self, g: np.ndarray) -> np.ndarray:
        """Gamma-shaped values read off an FFT grid (``gather`` on gamma)."""
        return np.take(g, self.cells).reshape(self.gamma.extents)


def _windows(g: np.ndarray, cfg: LiftingConfig) -> np.ndarray:
    """View of FFT-grid arrays with [..., m1, m2, k1, k2] at index lambda2[m] -
    lambda1[k]; the roll makes every index read contiguous, and the alias-free
    grid holds them injectively.  Leading axes are kept."""
    g = np.roll(g, cfg.lambda1.kmax - cfg.lambda2.kmin, axis=(-2, -1))
    view = np.lib.stride_tricks.sliding_window_view(g, cfg.lambda1.extents, axis=(-2, -1))
    return view[..., : cfg.lambda2.extents[0], : cfg.lambda2.extents[1], ::-1, ::-1]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _check_input(x: KSpaceArray, cfg: LiftingConfig):
    if x.gamma != cfg.gamma:
        raise ValueError("k-space array is not defined on the config's gamma")


def lift_dense(x: KSpaceArray, cfg: LiftingConfig) -> np.ndarray:
    """Materialize the lifted matrix (rows = blocks x lambda2, cols = lambda1).

    Entry ((b, l), k) holds the block-b weighted sample at index l - k, or
    zero when l - k falls outside gamma.
    """
    _check_input(x, cfg)
    g = np.stack([cfg.to_grid(w * x.values) for w in cfg.multipliers])
    lifted = np.take(g.reshape(len(g), -1), cfg.lift_geometry, axis=1)
    return lifted.reshape(cfg.lifted_shape)


def lift_adjoint(X: np.ndarray, cfg: LiftingConfig) -> np.ndarray:
    """Adjoint of x -> lift_dense(x, cfg), as a gamma-shaped array.

    Every lifted entry is summed onto the grid cell it reads (one bincount
    per real/imaginary part and block), read back onto gamma, then weighted
    by that block's real multiplier.
    """
    X = np.asarray(X)
    if X.shape != cfg.lifted_shape:
        raise ValueError(f"lifted matrix shape {X.shape} does not match config")
    flat = cfg.lift_geometry.ravel()
    size = cfg.fft_grid.size
    out = np.zeros(cfg.gamma.extents, dtype=np.complex128)
    for xb, w in zip(X.reshape(len(cfg.multipliers), -1), cfg.multipliers):
        re = np.bincount(flat, weights=xb.real, minlength=size)
        im = np.bincount(flat, weights=xb.imag, minlength=size)
        out += w * cfg.from_grid(re + 1j * im)
    return out


def filter_spectra(filters: np.ndarray, cfg: LiftingConfig) -> np.ndarray:
    """FFT-grid spectra of a filter bank (one filter per column, aligned with
    cfg.lambda1), shape (n_filters, n1, n2)."""
    bank = np.asarray(filters, dtype=np.complex128).T.reshape(-1, *cfg.lambda1.extents)
    return fft2(embed(bank, cfg.lambda1, cfg.fft_grid))


def apply_filter(x: KSpaceArray, h: np.ndarray, cfg: LiftingConfig) -> np.ndarray:
    """Implicit lifted matrix-vector product, via circular FFT convolution.

    ``h`` is aligned with cfg.lambda1.indices; the result stacks the per-block
    outputs on lambda2 (aligned with cfg.lambda2.indices) and equals
    lift_dense(x, cfg) @ h up to rounding.
    """
    _check_input(x, cfg)
    h = np.asarray(h, dtype=np.complex128).reshape(-1)
    if h.size != cfg.n_filter:
        raise ValueError(f"filter has {h.size} taps, expected {cfg.n_filter}")
    hhat = filter_spectra(h[:, None], cfg)[0]
    out = []
    for w in cfg.multipliers:
        g = embed(w * x.values, cfg.gamma, cfg.fft_grid)
        conv = ifft2(fft2(g) * hhat)
        out.append(gather(conv, cfg.lambda2).ravel())
    return np.concatenate(out)


def adjoint_apply(v: np.ndarray, h: np.ndarray, cfg: LiftingConfig) -> KSpaceArray:
    """Adjoint of apply_filter for a fixed filter: scatter, correlate, weight."""
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    nb = len(cfg.multipliers)
    if v.size != nb * cfg.n_out:
        raise ValueError(f"expected {nb * cfg.n_out} output samples, got {v.size}")
    h = np.asarray(h, dtype=np.complex128).reshape(-1)
    hhat_conj = np.conj(filter_spectra(h[:, None], cfg)[0])
    acc = np.zeros(cfg.gamma.extents, dtype=np.complex128)
    for b, w in enumerate(cfg.multipliers):
        vb = v[b * cfg.n_out : (b + 1) * cfg.n_out].reshape(cfg.lambda2.extents)
        g = embed(vb, cfg.lambda2, cfg.fft_grid)
        corr = ifft2(fft2(g) * hhat_conj)
        acc += w * gather(corr, cfg.gamma)
    return KSpaceArray(cfg.gamma, acc)


def gram_matrix(x: KSpaceArray, cfg: LiftingConfig) -> np.ndarray:
    """Hermitian N x N Gram of the lifting, T(x)^H T(x).

    Summed one lambda2 row at a time over the window view of the weighted
    data, so the lifted matrix is never held whole.  The result is
    symmetrised, so it is exactly Hermitian.
    """
    _check_input(x, cfg)
    gram = np.zeros((cfg.n_filter, cfg.n_filter), dtype=np.complex128)
    for w in cfg.multipliers:
        for row in _windows(cfg.to_grid(w * x.values), cfg):  # one lambda2 row of T(x): (o2, N)
            t = row.reshape(-1, cfg.n_filter)
            gram += t.conj().T @ t
    return 0.5 * (gram + gram.conj().T)


def lag_sums(m: np.ndarray, iset: IndexSet2D) -> np.ndarray:
    """Sums of an N x N matrix along its 2-D lags: c[d] = sum_{k-l=d} M[k, l].

    Rows and columns of ``m`` are aligned with iset.indices.  The result is
    a centred lag array: with bounding-box extents e, lag d sits at index
    d + (e - 1), for d in -(e-1)..(e-1) per axis.
    """
    e1, e2 = iset.extents
    d = iset.indices[:, None, :] - iset.indices[None, :, :]
    lag_shape = (2 * e1 - 1, 2 * e2 - 1)
    flat = ((d[..., 0] + e1 - 1) * lag_shape[1] + d[..., 1] + e2 - 1).ravel()
    m = np.asarray(m, dtype=np.complex128).ravel()
    size = lag_shape[0] * lag_shape[1]
    re = np.bincount(flat, weights=m.real, minlength=size)
    im = np.bincount(flat, weights=m.imag, minlength=size)
    return (re + 1j * im).reshape(lag_shape)


def toeplitz_from_lags(c: np.ndarray, iset: IndexSet2D) -> np.ndarray:
    """Toeplitz expansion M[k, l] = c[k - l] over iset (the adjoint of lag_sums).

    ``c`` is a centred lag array of any odd extents (lag d at index
    d + extent // 2); lags it does not cover read as zero.
    """
    c = np.asarray(c)
    h1, h2 = c.shape[0] // 2, c.shape[1] // 2
    d = iset.indices[:, None, :] - iset.indices[None, :, :]
    inside = (np.abs(d[..., 0]) <= h1) & (np.abs(d[..., 1]) <= h2)
    i1 = np.where(inside, d[..., 0] + h1, 0)
    i2 = np.where(inside, d[..., 1] + h2, 0)
    return np.where(inside, c[i1, i2], 0.0)
