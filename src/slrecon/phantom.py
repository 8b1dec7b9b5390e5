"""Synthetic ground truth: band-limited edge sets, piecewise-constant images,
Dirac streams, k-space sampling masks, and the sampling operator with its
adjoint (``sample_kspace`` and ``zero_fill``).

Fourier coefficients of the piecewise-constant phantoms are computed by
midpoint-rule quadrature on an oversampled raster (error O(1/oversample));
the acceptance thresholds downstream are set accordingly.  The raster is
streamed in blocks of rows and never held whole, so the quadrature's memory
is O(block + n1 e2) rather than O(n1 n2).  Each step computes only what it
reads: one evaluator gives the edge polynomial's real values on any block of
raster rows, one axis at a time (small real matrix products, O(e0 n1 n2) in
all for e0 coefficients per axis), and ``rasterize_mu`` is its call on all
rows.  The quadrature takes an FFT along the block's rows (real to complex,
as scipy runs it on real input), keeps gamma's e2 columns and, once all
blocks are in, transforms only those down the columns (O(n1 n2 log n2 +
e2 n1 log n1)); no full-raster 2-D FFT is taken.  Dirac streams are exact
to rounding.  All randomness flows through counter-based Philox generators
so results are independent of thread placement.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from ._fft import fft2
from .grid import IndexSet2D, check_count, int_pair, json_field
from .lifting import KSpaceArray

# Raster entries per block of the phantom quadrature: the raster is
# evaluated and row-transformed this many entries at a time, never whole.
QUADRATURE_BLOCK = 2**16


@dataclass(frozen=True)
class EdgePolynomial:
    """Trigonometric polynomial with conjugate-symmetric coefficients.

    ``coeffs`` is aligned with ``lambda0`` the same way KSpaceArray values
    are; symmetry c[-k] = conj(c[k]) makes the polynomial real-valued.
    """

    lambda0: IndexSet2D
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.shape != self.lambda0.extents:
            raise ValueError("coefficient shape does not match support extents")
        object.__setattr__(self, "coeffs", c)
        if not np.isfinite(c).all():
            raise ValueError("edge polynomial coefficients must be finite")
        if not c.any():
            raise ValueError("edge polynomial must not be identically zero")
        sym = _conj_reflect(self.lambda0, c)
        if sym is None or not np.allclose(c, sym, rtol=0, atol=1e-12 * np.abs(c).max()):
            raise ValueError("coefficients must satisfy c[-k] == conj(c[k])")

    def to_json_dict(self) -> dict:
        return {
            "lambda0": self.lambda0.to_json_dict(),
            "coeffs": [
                [int(k1), int(k2), float(v.real), float(v.imag)]
                for (k1, k2), v in zip(self.lambda0.indices, self.coeffs.ravel())
            ],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "EdgePolynomial":
        lam0 = IndexSet2D.from_json_dict(json_field(d, "lambda0", dict, "edge"))
        c = np.zeros(lam0.extents, dtype=np.complex128)
        for entry in json_field(d, "coeffs", list, "edge"):
            if not (isinstance(entry, list) and len(entry) == 4
                    and all(isinstance(v, (int, float)) for v in entry[2:])):
                raise ValueError(f"edge field 'coeffs' must hold [k1, k2, re, im], got {entry!r}")
            k = int_pair(entry[:2], "coeffs")
            if not lam0.contains(IndexSet2D(k, (1, 1))):
                raise ValueError(f"edge coefficient index {k} lies outside lambda0")
            c[k[0] - lam0.kmin[0], k[1] - lam0.kmin[1]] = entry[2] + 1j * entry[3]
        return cls(lam0, c)


def _conj_reflect(iset: IndexSet2D, c: np.ndarray) -> np.ndarray | None:
    """conj(c[-k]) aligned like c over a box, or None if -k leaves it."""
    if iset.kmin != (-iset.kmax[0], -iset.kmax[1]):
        return None
    return np.conj(c[::-1, ::-1])


def rasterize_mu(edge: EdgePolynomial, shape: tuple[int, int], offset: float = 0.0) -> np.ndarray:
    """Sample the polynomial on the uniform (n1, n2) grid over [0,1)^2.
    ``offset`` shifts the sample points by a fraction of a pixel per axis
    (0.5 = midpoints).  No FFT is taken, so any grid size is allowed; see
    ``_mu_rows``."""
    return _mu_rows(edge, shape, offset)(0, shape[0])


def _mu_rows(edge: EdgePolynomial, shape: tuple[int, int],
             offset: float) -> Callable[[int, int], np.ndarray]:
    """The polynomial's values on the rows [i, j) of the (n1, n2) grid of
    ``rasterize_mu``, as ``rows_of(i, j)``.

    The values are ``E1[i:j] @ (coeffs @ E2^T)``, evaluated one axis at a
    time with ``E1[m, k1] = exp(2 pi i k1 (m + offset) / n1)`` and
    ``E2[m, k2] = exp(2 pi i k2 (m + offset) / n2)``: O(n1 e1 e2 + n1 e2 n2)
    work for e1 x e2 coefficients.  Only the real part is formed, as one
    real product of the stacked real and imaginary parts: the coefficients
    are conjugate-symmetric, which ``EdgePolynomial`` checks, so the
    imaginary part is rounding.
    """
    r1, r2 = edge.lambda0.axis_ranges()
    rows = _axis_phases(r1, shape[0], offset)
    cols = edge.coeffs @ _axis_phases(r2, shape[1], offset).T
    left, right = np.hstack([rows.real, -rows.imag]), np.vstack([cols.real, cols.imag])
    return lambda i, j: left[i:j] @ right


def _axis_phases(k: np.ndarray, n: int, offset: float) -> np.ndarray:
    """``exp(2 pi i k (m + offset) / n)`` over samples m (rows) and
    frequencies k (columns); the phase is reduced mod n before scaling."""
    m = np.arange(n) + offset
    return np.exp(2j * np.pi * (np.multiply.outer(m, k) % n) / n)


@dataclass(frozen=True)
class Phantom:
    """Piecewise-constant image: one amplitude per sign region of the edge set."""

    edge: EdgePolynomial
    region_values: tuple[float, float] = (1.0, 0.0)
    oversample: int = 8

    def __post_init__(self):
        check_count(self.oversample, "oversample", least=4)
        if len(self.region_values) != 2:
            raise ValueError(f"region_values must hold two amplitudes, got {len(self.region_values)}")
        if not all(np.isfinite(self.region_values)):
            raise ValueError("region amplitudes must be finite")


def _quadrature(rows_of: Callable[[int, int], np.ndarray], shape: tuple[int, int],
                gamma: IndexSet2D) -> KSpaceArray:
    """Fourier coefficients on gamma of an (n1, n2) raster over [0,1)^2
    sampled at pixel midpoints, read a block of rows at a time: ``rows_of(i,
    j)`` returns the raster's rows [i, j), about QUADRATURE_BLOCK entries.

    Midpoint-rule quadrature of the Fourier integral; the half-pixel offset
    is compensated with the matching phase so the estimate is second order
    in the grid spacing away from discontinuities.

    Each block takes a 1-D FFT along its rows (scipy runs it real to complex
    on a real raster) and keeps gamma's columns ``r2 % n2`` in an (n1, e2)
    buffer; then a 1-D FFT down those e2 columns alone, and gamma's rows
    ``r1 % n1`` kept.  So the work is O(n1 n2 log n2 + e2 n1 log n1) and the
    memory O(block + n1 e2): no full-raster array or 2-D FFT.  Indices wrap mod the raster as a gather
    off the 2-D FFT would, also for a gamma wider than the raster.
    """
    n1, n2 = shape
    r1, r2 = gamma.axis_ranges()
    cols = np.empty((n1, len(r2)), dtype=np.complex128)
    h = max(1, QUADRATURE_BLOCK // n2)
    for i in range(0, n1, h):
        cols[i:i + h] = fft2(rows_of(i, i + h), axes=(-1,))[:, r2 % n2]
    vals = fft2(cols, axes=(0,))[r1 % n1] / (n1 * n2)
    ph1 = np.exp(-1j * np.pi * r1 / n1)
    ph2 = np.exp(-1j * np.pi * r2 / n2)
    return KSpaceArray(gamma, vals * ph1[:, None] * ph2[None, :])


def phantom_fourier(ph: Phantom, gamma: IndexSet2D) -> KSpaceArray:
    """Quadrature Fourier samples of the phantom on gamma, from its raster on
    the ``oversample``-times finer midpoint grid (the region value on each
    midpoint's side of the edge set's zero level), made a block of rows at
    a time by ``_mu_rows`` and never held whole."""
    shape = (ph.oversample * gamma.extents[0], ph.oversample * gamma.extents[1])
    mu = _mu_rows(ph.edge, shape, 0.5)
    a_pos, a_neg = ph.region_values
    return _quadrature(lambda i, j: np.where(mu(i, j) > 0, a_pos, a_neg), shape, gamma)


def dirac_fourier(locations, amps, gamma: IndexSet2D) -> KSpaceArray:
    """Exact Fourier samples of a weighted Dirac stream on [0,1)^2."""
    locs = np.atleast_2d(np.asarray(locations, dtype=float))
    amps = np.asarray(amps, dtype=np.complex128).reshape(-1)
    if locs.shape[0] != amps.size:
        raise ValueError("locations and amplitudes must pair up")
    e1, e2 = gamma.extents
    if locs.shape[0] == 0:
        return KSpaceArray(gamma, np.zeros((e1, e2)))
    if len(np.unique(locs, axis=0)) != locs.shape[0]:
        raise ValueError("Dirac locations must be distinct")
    k = gamma.indices.astype(float)
    phases = np.exp(-2j * np.pi * (k @ locs.T))
    vals = (phases * amps[None, :]).sum(axis=1)
    return KSpaceArray(gamma, vals.reshape(e1, e2))


def random_edge_polynomial(
    lambda0: IndexSet2D,
    seed: int,
    min_region_area: float = 0.02,
) -> EdgePolynomial:
    """Random conjugate-symmetric coefficients, rejected until the zero
    level-set is non-empty and both sign regions cover the minimum area on a
    256 x 256 raster; at most 200 draws.  ``min_region_area`` lies in
    (0, 0.5], since both regions must reach it."""
    if not 0.0 < min_region_area <= 0.5:
        raise ValueError(f"min_region_area must lie in (0, 0.5], got {min_region_area}")
    if len(lambda0) == 1:  # a constant polynomial has no zero set
        raise ValueError("lambda0 must hold more than one index: a 1x1 edge polynomial is constant")
    rng = np.random.default_rng(np.random.Philox(key=seed))
    e1, e2 = lambda0.extents
    for _ in range(200):
        raw = rng.standard_normal((e1, e2)) + 1j * rng.standard_normal((e1, e2))
        sym = _conj_reflect(lambda0, raw)
        if sym is None:
            raise ValueError("lambda0 is not symmetric; cannot impose conjugate symmetry")
        c = 0.5 * (raw + sym)
        edge = EdgePolynomial(lambda0, c)
        mu = rasterize_mu(edge, (256, 256))
        frac_pos = float((mu > 0).mean())
        if min_region_area <= frac_pos <= 1.0 - min_region_area:
            return edge
    raise ValueError(f"no edge polynomial on lambda0 {e1}x{e2} reached min_region_area "
                     f"{min_region_area} in both sign regions in 200 draws")


@dataclass(frozen=True, eq=False)
class SamplingMask:
    """The sampled k-space locations: ``sampled`` is a read-only boolean array
    shaped like gamma.  Its row-major order, the lexicographic order of the
    sampled indices, is the order of the measurements b."""

    gamma: IndexSet2D
    sampled: np.ndarray

    def __post_init__(self):
        sampled = np.array(self.sampled)
        if sampled.dtype != bool or sampled.shape != self.gamma.extents:
            raise ValueError(f"sampled must be a boolean array of gamma's shape {self.gamma.extents}")
        if not sampled.any():
            raise ValueError("mask samples no index")
        sampled.setflags(write=False)
        object.__setattr__(self, "sampled", sampled)

    def to_json_dict(self) -> dict:
        return {
            "gamma": self.gamma.to_json_dict(),
            "indices": self.gamma.indices[self.sampled.ravel()].tolist(),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "SamplingMask":
        """Reads ``gamma`` and ``indices``; any other key is ignored."""
        gamma = IndexSet2D.from_json_dict(json_field(d, "gamma", dict, "mask"))
        pairs = [int_pair(e, "indices") for e in json_field(d, "indices", list, "mask")]
        if not pairs:
            raise ValueError("mask field 'indices' lists no index")
        rel = np.array(pairs, dtype=np.int64) - gamma.kmin
        outside = ((rel < 0) | (rel >= gamma.extents)).any(axis=1)
        if outside.any():
            raise ValueError(f"mask index {pairs[int(np.argmax(outside))]} lies outside gamma")
        sampled = np.zeros(gamma.extents, dtype=bool)
        sampled[rel[:, 0], rel[:, 1]] = True
        return cls(gamma, sampled)


def make_mask(
    gamma: IndexSet2D,
    scheme: str = "uniform",
    acceleration: float = 1.0,
    seed: int = 0,
) -> SamplingMask:
    """Random sampling locations at the requested acceleration.

    Uniform: a size-|gamma|/acceleration subset drawn without replacement.
    Variable density: keep probability proportional to a Gaussian in |k| with
    sigma = max extent / 4, renormalized to the same target count.  The DC
    index is always kept and draws are deterministic in the seed.
    """
    if not acceleration >= 1.0:
        raise ValueError(f"acceleration must be >= 1, got {acceleration}")
    m = len(gamma)
    target = int(round(m / acceleration))
    if target < 1:
        raise ValueError(f"acceleration {acceleration} leaves no samples")
    rng = np.random.default_rng(np.random.Philox(key=seed))
    if scheme == "uniform":
        order = rng.permutation(m)
    elif scheme == "variable_density":
        sigma = max(gamma.extents) / 4.0
        r1, r2 = gamma.axis_ranges()
        logp = -(r1[:, None] ** 2 + r2[None, :] ** 2).ravel() / (2.0 * sigma**2)
        # Gumbel top-k: sorting by perturbed log-weights samples without
        # replacement with the stated probabilities
        gumbel = -np.log(-np.log(rng.uniform(size=m)))
        order = np.argsort(-(logp + gumbel), kind="stable")
    else:
        raise ValueError(f"unknown sampling scheme {scheme!r}")
    sampled = np.zeros(gamma.extents, dtype=bool)
    sampled.flat[order[:target]] = True
    dc = (-gamma.kmin[0], -gamma.kmin[1])  # DC's position in gamma's array
    if gamma.contains(IndexSet2D((0, 0), (1, 1))) and not sampled[dc]:
        sampled.flat[order[target - 1]] = False  # DC takes the last drawn index's place
        sampled[dc] = True
    return SamplingMask(gamma, sampled)


def sample_kspace(x: KSpaceArray, mask: SamplingMask) -> np.ndarray:
    """Measured values b, in the row-major order of mask.sampled."""
    if x.gamma != mask.gamma:
        raise ValueError("k-space array and mask disagree on gamma")
    return x.values[mask.sampled]


def zero_fill(b: np.ndarray, mask: SamplingMask) -> KSpaceArray:
    """Samples placed on their sampled indices, zeros elsewhere in gamma: the
    adjoint of ``sample_kspace``.

    Every solver reads its samples through here, so this is where they are
    checked: one finite value per sampled index, in the row-major order of
    mask.sampled.
    """
    b = np.asarray(b, dtype=np.complex128).reshape(-1)
    count = int(np.count_nonzero(mask.sampled))
    if b.size != count:
        raise ValueError(f"expected {count} samples, got {b.size}")
    out = np.zeros(mask.gamma.extents, dtype=np.complex128)
    out[mask.sampled] = b
    return KSpaceArray(mask.gamma, out)


def add_noise(b: np.ndarray, sigma: float, seed: int = 0) -> np.ndarray:
    """Additive complex white Gaussian noise on the samples (the one knob)."""
    if not sigma >= 0.0:
        raise ValueError(f"noise sigma must be non-negative, got {sigma}")
    if sigma == 0.0:
        return b.copy()
    rng = np.random.default_rng(np.random.Philox(key=seed))
    noise = rng.standard_normal(b.shape) + 1j * rng.standard_normal(b.shape)
    return b + sigma * noise / np.sqrt(2.0)
