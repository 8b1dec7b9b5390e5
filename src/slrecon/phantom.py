"""Synthetic ground truth: band-limited edge sets, piecewise-constant images,
Dirac streams, and k-space sampling masks.

Fourier coefficients of the piecewise-constant phantoms are computed by
midpoint-rule quadrature on an oversampled raster (error O(1/oversample));
the acceptance thresholds downstream are set accordingly.  Dirac streams are
exact to rounding.  All randomness flows through counter-based Philox
generators so results are independent of thread placement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._fft import fft2, ifft2
from .grid import IndexSet2D, int_pair, is_int, json_field
from .lifting import KSpaceArray, embed, gather


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
        if np.allclose(c, 0.0):
            raise ValueError("edge polynomial must not be identically zero")
        sym = _conj_reflect(self.lambda0, c)
        if sym is None or not np.allclose(c, sym, atol=1e-12 * max(1.0, np.abs(c).max())):
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
        lam0 = IndexSet2D.from_json_dict(d["lambda0"])
        c = np.zeros(lam0.extents, dtype=np.complex128)
        for k1, k2, re, im in d["coeffs"]:
            c[k1 - lam0.kmin[0], k2 - lam0.kmin[1]] = re + 1j * im
        return cls(lam0, c)


def _conj_reflect(iset: IndexSet2D, c: np.ndarray) -> np.ndarray | None:
    """conj(c[-k]) aligned like c over a box, or None if -k leaves it."""
    if iset.kmin != (-iset.kmax[0], -iset.kmax[1]):
        return None
    return np.conj(c[::-1, ::-1])


def rasterize_mu(edge: EdgePolynomial, shape: tuple[int, int], offset: float = 0.0) -> np.ndarray:
    """Sample the polynomial on the uniform (n1, n2) grid over [0,1)^2 via
    zero-padded inverse FFT.  ``offset`` shifts the sample points by a
    fraction of a pixel per axis (0.5 = midpoints)."""
    n1, n2 = shape
    c = edge.coeffs
    if offset != 0.0:
        r1, r2 = edge.lambda0.axis_ranges()
        tw1 = np.exp(2j * np.pi * r1 * offset / n1)
        tw2 = np.exp(2j * np.pi * r2 * offset / n2)
        c = c * tw1[:, None] * tw2[None, :]
    g = embed(c, edge.lambda0, shape)
    vals = ifft2(g) * (n1 * n2)
    scale = max(np.abs(vals).max(), 1e-300)
    if np.abs(vals.imag).max() > 1e-10 * scale:
        raise ValueError("edge polynomial raster has non-negligible imaginary part")
    return vals.real


def mu_values_at(edge: EdgePolynomial, points: np.ndarray) -> np.ndarray:
    """Evaluate the polynomial at arbitrary points in [0,1)^2 (direct sum)."""
    pts = np.atleast_2d(points)
    phases = np.exp(2j * np.pi * (pts @ edge.lambda0.indices.T.astype(float)))
    vals = phases @ edge.coeffs.ravel()
    return vals.real


@dataclass(frozen=True)
class Phantom:
    """Piecewise-constant image: one amplitude per sign region of the edge set."""

    edge: EdgePolynomial
    region_values: tuple[float, float] = (1.0, 0.0)
    oversample: int = 8

    def __post_init__(self):
        if not (is_int(self.oversample) and self.oversample >= 4):
            raise ValueError(f"oversample must be an integer >= 4, got {self.oversample!r}")
        if len(self.region_values) != 2:
            raise ValueError(f"region_values must hold two amplitudes, got {len(self.region_values)}")
        if not all(np.isfinite(self.region_values)):
            raise ValueError("region amplitudes must be finite")

    def rasterize(self, gamma_extents: tuple[int, int]) -> np.ndarray:
        """Indicator raster on the oversampled midpoint grid."""
        shape = (self.oversample * gamma_extents[0], self.oversample * gamma_extents[1])
        mu = rasterize_mu(self.edge, shape, offset=0.5)
        a_pos, a_neg = self.region_values
        return np.where(mu > 0, a_pos, a_neg)


def kspace_of_image(img: np.ndarray, gamma: IndexSet2D) -> KSpaceArray:
    """Fourier coefficients of a [0,1)^2 image sampled at pixel midpoints.

    Midpoint-rule quadrature of the Fourier integral; the half-pixel offset
    is compensated with the matching phase so the estimate is second order
    in the grid spacing away from discontinuities.
    """
    n1, n2 = img.shape
    coef = fft2(img) / (n1 * n2)
    vals = gather(coef, gamma)
    r1, r2 = gamma.axis_ranges()
    ph1 = np.exp(-1j * np.pi * r1 / n1)
    ph2 = np.exp(-1j * np.pi * r2 / n2)
    return KSpaceArray(gamma, vals * ph1[:, None] * ph2[None, :])


def phantom_fourier(ph: Phantom, gamma: IndexSet2D) -> KSpaceArray:
    """Quadrature Fourier samples of the phantom on gamma."""
    return kspace_of_image(ph.rasterize(gamma.extents), gamma)


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
    raise RuntimeError("no admissible edge polynomial found in 200 draws")


@dataclass(frozen=True, eq=False)
class SamplingMask:
    """The sampled k-space locations: ``sampled`` is a read-only boolean array
    shaped like gamma.  Its row-major order, the lexicographic order of the
    sampled indices, is the order of the measurements b."""

    gamma: IndexSet2D
    sampled: np.ndarray
    scheme: str = "uniform"
    seed: int = 0
    acceleration: float = 1.0
    sigma: float | None = None  # variable-density Gaussian width, recorded for replay

    def __post_init__(self):
        sampled = np.array(self.sampled)
        if sampled.dtype != bool or sampled.shape != self.gamma.extents:
            raise ValueError(f"sampled must be a boolean array of gamma's shape {self.gamma.extents}")
        if not sampled.any():
            raise ValueError("mask samples no index")
        sampled.setflags(write=False)
        object.__setattr__(self, "sampled", sampled)

    def indicator(self) -> np.ndarray:
        """0/1 array aligned with the gamma box."""
        return self.sampled.astype(float)

    def to_json_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "seed": self.seed,
            "acceleration": self.acceleration,
            "sigma": self.sigma,
            "gamma": self.gamma.to_json_dict(),
            "indices": self.gamma.indices[self.sampled.ravel()].tolist(),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "SamplingMask":
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
        return cls(
            gamma=gamma,
            sampled=sampled,
            scheme=json_field(d, "scheme", str, "mask"),
            seed=json_field(d, "seed", int, "mask"),
            acceleration=json_field(d, "acceleration", (int, float), "mask"),
            sigma=d.get("sigma"),
        )


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
    sigma = None
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
    return SamplingMask(gamma, sampled, scheme, seed, acceleration, sigma)


def sample_kspace(x: KSpaceArray, mask: SamplingMask) -> np.ndarray:
    """Measured values b, in the row-major order of mask.sampled."""
    if x.gamma != mask.gamma:
        raise ValueError("k-space array and mask disagree on gamma")
    return x.values[mask.sampled]


def add_noise(b: np.ndarray, sigma: float, seed: int = 0) -> np.ndarray:
    """Additive complex white Gaussian noise on the samples (the one knob)."""
    if not sigma >= 0.0:
        raise ValueError(f"noise sigma must be non-negative, got {sigma}")
    if sigma == 0.0:
        return b.copy()
    rng = np.random.default_rng(np.random.Philox(key=seed))
    noise = rng.standard_normal(b.shape) + 1j * rng.standard_normal(b.shape)
    return b + sigma * noise / np.sqrt(2.0)
