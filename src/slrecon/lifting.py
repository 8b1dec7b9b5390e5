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
rows [0, f), the lag k - l of each pair of taps.  ``gram_matrix`` is the
one Gram of the package, chosen by the lifting's size: a small lifting is
gathered and multiplied out; a large one goes through ``_fft_gram``, the
circular Gram on gamma's array (Toeplitz in the circular autocorrelation)
minus the wrapped row and column strips' Grams plus the corner windows
they share (the rule on the rows [0, f - 1)), without the lifted matrix.
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
read-only, so no per-call map re-derives them.  The index tables among
them are ``lift_geometry``, ``circular_lags`` and ``mask_lags``, and the
int32 tables from which the solver assembles the exact normal operator's
matrix on small grids: ``band_pairs`` and ``band_offsets`` (the entries the
matrix can hold), ``band_diagonals`` (W's lag diagonals) and
``band_corners`` (each entry's box of taps); ``band_weights`` holds the
entries' multiplier products.
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
# the most lifted entries whose Gram ``gram_matrix`` multiplies out densely,
# below the measured crossover (the table in its docstring)
DENSE_GRAM_ENTRIES = 2**14


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
    def band_pairs(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per axis, the int32 position pairs (i, j) on gamma's array with
        |i - j| below lambda1's extent f: the band of the matrix of
        x -> T^*(T(x) W), whose entry (i, j) is nonzero only where both
        axes' pairs are in it.  The band's entries run over axis 1's pairs,
        then axis 2's (``band_offsets``).  A gamma whose |gamma|^2 exceeds
        int32's range raises ValueError."""
        n = len(self.gamma)
        if n * n > np.iinfo(np.int32).max:
            raise ValueError(f"a {n} x {n} matrix has more entries than int32 offsets reach")
        pairs = []
        for e, f in zip(self.gamma.extents, self.lambda1.extents):
            near = np.flatnonzero(abs(np.subtract.outer(np.arange(e), np.arange(e))) < f)
            pairs.append(tuple(_read_only(a.astype(np.int32)) for a in np.divmod(near, e)))
        return tuple(pairs)

    @cached_property
    def band_offsets(self) -> np.ndarray:
        """int32 flat row-major offsets of the band's entries (``band_pairs``)
        in the |gamma| x |gamma| matrix."""
        (i1, j1), (i2, j2) = self.band_pairs
        e2, n = self.gamma.extents[1], len(self.gamma)
        return _read_only(np.add.outer(i1 * (e2 * n) + j1 * e2, i2 * n + j2).ravel())

    @cached_property
    def band_corners(self) -> np.ndarray:
        """(4, entries) int32 flat offsets into the prefix sums of W's lag
        diagonals, shaped (lags, f1 + 1, f2 + 1) as in ``normal_matrix_exact``:
        per band entry (i, j), the corners (hi1, hi2), (lo1, hi2), (hi1, lo2)
        and (lo1, lo2) of the lag-(i - j) diagonal's tap box,
        [lo, hi) = [max(0, f - 1 - i), min(f, e - i)) per axis, the taps k
        whose output i + k lies in lambda2's rows [f - 1, e)."""
        (f1, f2), (e1, e2) = self.lambda1.extents, self.gamma.extents
        steps = ((2 * f2 - 1) * (f1 + 1) * (f2 + 1), f2 + 1), ((f1 + 1) * (f2 + 1), 1)
        axes = []
        for (i, j), e, f, (lag_step, tap_step) in zip(self.band_pairs, (e1, e2), (f1, f2), steps):
            lag = (i - j + f - 1) * lag_step
            axes.append((lag + np.minimum(e - i, f) * tap_step,
                         lag + np.maximum(f - 1 - i, 0) * tap_step))
        (hi1, lo1), (hi2, lo2) = axes
        return _read_only(np.stack([np.add.outer(c1, c2).ravel()
                                    for c1, c2 in ((hi1, hi2), (lo1, hi2), (hi1, lo2), (lo1, lo2))]))

    @cached_property
    def band_diagonals(self) -> np.ndarray:
        """(lags, f1, f2) int32 flat offsets into an N x N weight matrix
        followed by one zero: lag d's diagonal at tap k reads W[k + d, k],
        or the zero past W where k + d leaves lambda1; lags d run row-major
        over (1 - f1..f1 - 1) x (1 - f2..f2 - 1)."""
        (f1, f2), n = self.lambda1.extents, self.n_filter
        r1, r2 = (np.add.outer(np.arange(1 - f, f), np.arange(f)) for f in (f1, f2))
        flat = (r1[:, None, :, None] * f2 + r2[None, :, None, :]) * n + np.arange(n).reshape(f1, f2)
        inside = (((0 <= r1) & (r1 < f1))[:, None, :, None]
                  & ((0 <= r2) & (r2 < f2))[None, :, None, :])
        return _read_only(np.where(inside, flat, n * n).reshape(-1, f1, f2).astype(np.int32))

    @cached_property
    def band_weights(self) -> np.ndarray:
        """sum_b w_b(i) w_b(j) of each band entry (i, j) (``band_offsets``)."""
        (i1, j1), (i2, j2) = self.band_pairs
        return _read_only(sum((w[np.ix_(i1, i2)] * w[np.ix_(j1, j2)]).ravel()
                              for w in self.multipliers))

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


def _corner_gram(ys: np.ndarray, f1: int, f2: int) -> np.ndarray:
    """(f1, f2, f1, f2) Gram of the circular lifting's corner, the outputs
    m1 < f1 - 1 and m2 < f2 - 1, of the weighted blocks ``ys``.

    Output m and tap k read the row (m1 - k1) mod e1, and m1 - k1 takes the
    2(f1 - 1) values a - (f1 - 1), a < 2(f1 - 1): one wrapped patch of rows
    for all blocks.  With ``Z[(b, m2), (a, k2)]`` the patch read along axis 2
    at (m2 - k2) mod e2, one product ``H = Z^H Z`` sums over (b, m2), and
    entry ((k1, k2), (l1, l2)) sums H[a, k2, a', l2] over m1 along the (a, a')
    diagonal from (f1 - 1 - k1, f1 - 1 - l1), f1 - 1 steps long: the
    diagonal's suffix sum there less its suffix sum f1 - 1 steps on (none
    past the patch, where k1 or l1 is 0).
    """
    if f1 == 1 or f2 == 1:  # no output lies in both strips
        return np.zeros((f1, f2, f1, f2), dtype=complex)
    e1, e2 = ys.shape[1:]
    n = 2 * (f1 - 1)
    patch = ys[:, np.arange(1 - f1, f1 - 1) % e1]  # (b, a, e2)
    z = patch[:, :, _axis_reads(range(f2 - 1), f2, e2)].transpose(0, 2, 1, 3).reshape(-1, n * f2)
    h = (z.conj().T @ z).reshape(n, f2, n, f2)
    for a in range(n - 2, -1, -1):  # suffix sums along the (a, a') diagonals, in place
        h[a, :, :-1] += h[a + 1, :, 1:]
    corner = h[f1 - 1::-1, :, f1 - 1::-1].copy()
    corner[1:, :, 1:] -= h[n - 1:f1 - 2:-1, :, n - 1:f1 - 2:-1]
    return corner


def _strip_gram(yhat: np.ndarray, f1: int, f2: int) -> np.ndarray:
    """(f1, f2, f1, f2) Gram of the circular lifting's row strips, the
    outputs m1 < f1 - 1 at every m2, of weighted blocks whose FFT along
    axis 2 is ``yhat``.

    The strips are circular along axis 2, so entry ((k1, k2), (l1, l2)) is
    ``rho[(k2 - l2) mod e2, k1, l1]``, where ``rho`` is the inverse FFT over
    the axis-2 frequency w of ``A_w^H A_w`` and
    ``A_w[(b, i), k1] = yhat_b[(i - k1) mod e1, w]`` for i < f1 - 1: one
    f1 x f1 product per frequency.  Only the 2 f2 - 1 lags |d| < f2 are
    read, so they are taken by a (2 f2 - 1) x e2 inverse DFT product.
    """
    e1, e2 = yhat.shape[1:]
    a = yhat[:, _axis_reads(range(f1 - 1), f1, e1)]  # (b, i, k1, w)
    a = a.transpose(3, 0, 1, 2).reshape(e2, -1, f1)
    lags = np.arange(1 - f2, f2)
    idft = np.exp(2j * np.pi / e2 * np.arange(e2))[np.outer(lags, np.arange(e2)) % e2] / e2
    rho = (idft @ (a.conj().swapaxes(1, 2) @ a).reshape(e2, -1)).reshape(-1, f1, f1)
    return rho[np.subtract.outer(np.arange(f2), np.arange(f2)) + f2 - 1].transpose(2, 0, 3, 1)


def _fft_gram(values: np.ndarray, cfg: LiftingConfig) -> np.ndarray:
    """T(x)^H T(x) of gamma-shaped values, unchecked and not symmetrised,
    without the lifted matrix.  The valid outputs m1 >= f1 - 1, m2 >= f2 - 1
    of the circular lifting on gamma's array have the indicator
    (1 - [m1 < f1 - 1]) (1 - [m2 < f2 - 1]), so the Gram is
    ``G_corner - G_R - G_C + G_c``: the corner windows in both strips
    (``_corner_gram``), the row and the column strips, each circular along
    the other axis (``_strip_gram``; the row strips' axis-2 FFT is reused),
    and the circular Gram, Toeplitz in ``ifft2(sum_b |fft2(w_b x)|^2)``
    read through ``cfg.circular_lags``."""
    ys = cfg.multipliers * values
    f1, f2 = cfg.lambda1.extents
    taps = _corner_gram(ys, f1, f2)  # taps[k1, k2, l1, l2]
    yhat = fft2(ys, axes=(-1,))
    taps -= _strip_gram(yhat, f1, f2)
    taps -= _strip_gram(fft2(ys, axes=(-2,)).swapaxes(1, 2), f2, f1).transpose(1, 0, 3, 2)
    gram = taps.reshape(f1 * f2, f1 * f2)  # a view: gram[(k1, k2), (l1, l2)]
    gram += np.take(ifft2((np.abs(fft2(yhat, axes=(-2,))) ** 2).sum(axis=0)), cfg.circular_lags)
    return gram


def gram_matrix(x: KSpaceArray, cfg: LiftingConfig) -> np.ndarray:
    """Hermitian N x N Gram T(x)^H T(x) of the lifting, for every caller.

    Up to ``DENSE_GRAM_ENTRIES`` lifted entries (``cfg.lifted_shape`` alone
    decides) the gathered lifting is multiplied out; above, ``_fft_gram``
    works in the non-lifted domain.  Either result is symmetrised, so it is
    exactly Hermitian.  Host ms per Gram, min of 300 calls, 1 thread, 2-core
    host, identity weighting at 64x1/8x1 and gradient elsewhere; the dense
    product's time triples between 19,208 and 20,000 entries:

    lifting  64x1/8x1  17^2/5^2  21^2/5^2  20^2/7^2  24^2/5^2  33^2/5^2  65^2/15^2
    entries       456     8,450    14,450    19,208    20,000    42,050  1,170,450
    FFT         0.106     0.194     0.182     0.419     0.299     0.224      2.837
    dense       0.008     0.055     0.088     0.223     0.386     0.647     41.884
    """
    _check_input(x, cfg)
    rows, n = cfg.lifted_shape
    if rows * n > DENSE_GRAM_ENTRIES:
        gram = _fft_gram(x.values, cfg)
    else:
        t = _lift(x.values, cfg)
        gram = t.conj().T @ t
    gram += gram.conj().T
    gram *= 0.5
    return gram
