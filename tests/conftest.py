import numpy as np
import pytest
from hypothesis import strategies as st

from slrecon import phantom
from slrecon.baselines import _div, _fwd_diff, _threshold, delift
from slrecon.grid import IndexSet2D
from slrecon._fft import fft2, ifft2
from slrecon.lifting import (KSpaceArray, LiftingConfig, embed, gather, gram_matrix, lift_adjoint,
                             lift_dense, scatter_sum)
from slrecon.phantom import EdgePolynomial, SamplingMask, zero_fill


def mu_values_at(edge: EdgePolynomial, points: np.ndarray) -> np.ndarray:
    """The edge polynomial's values at arbitrary points in [0,1)^2, by the
    direct sum over its coefficients: an oracle for ``rasterize_mu``."""
    pts = np.atleast_2d(points)
    phases = np.exp(2j * np.pi * (pts @ edge.lambda0.indices.T.astype(float)))
    return (phases @ edge.coeffs.ravel()).real


def kspace_of_image(img: np.ndarray, gamma: IndexSet2D) -> KSpaceArray:
    """Fourier coefficients of a [0,1)^2 image sampled at pixel midpoints,
    by the phantom's streamed quadrature over the image's rows."""
    return phantom._quadrature(lambda i, j: img[i:j], img.shape, gamma)


def tv_oracle(b: np.ndarray, mask: SamplingMask, iters: int) -> KSpaceArray:
    """TV's primal-dual loop with its k-space on gamma's array, moved to the
    FFT grid and back by ``embed`` and ``gather`` around every FFT and
    wrapped in a ``KSpaceArray`` at every step: an oracle for ``tv_solve``,
    which iterates on the FFT grid."""
    gamma = mask.gamma
    ntot = len(gamma)
    bfill = zero_fill(b, mask).values

    def project(u):
        return KSpaceArray(gamma, np.where(mask.sampled, bfill, gather(fft2(u) / ntot, gamma)))

    def image(x):
        return ifft2(embed(x.values, gamma, gamma.extents)) * ntot

    sigma = tau = 1.0 / np.sqrt(8.0)
    u = image(project(np.zeros(gamma.extents, dtype=np.complex128)))
    p1, p2 = np.zeros_like(u), np.zeros_like(u)
    ubar = u
    for _ in range(iters):
        g1, g2 = _fwd_diff(ubar)
        p1 = p1 + sigma * g1
        p2 = p2 + sigma * g2
        mag = np.maximum(1.0, np.sqrt(np.abs(p1) ** 2 + np.abs(p2) ** 2))
        p1, p2 = p1 / mag, p2 / mag
        u_old = u
        u = image(project(u + tau * _div(p1, p2)))
        ubar = 2.0 * u - u_old
    return project(u)


def log_penalty(sigmas) -> float:
    """The p = 0 (log-det) penalty sum_i log sigma_i: an oracle for the
    penalty of ``log_det_weights``."""
    return float(np.log(np.asarray(sigmas, dtype=float)).sum())


def random_kspace(gamma: IndexSet2D, seed: int) -> KSpaceArray:
    rng = np.random.default_rng(seed)
    e1, e2 = gamma.extents
    vals = rng.standard_normal((e1, e2)) + 1j * rng.standard_normal((e1, e2))
    return KSpaceArray(gamma, vals)


@st.composite
def lifting_configs(draw):
    """Liftings over odd/even filter extents, 1-D grids, both weightings,
    and gamma and lambda1 shifted off the origin."""
    g1 = draw(st.integers(2, 14))
    g2 = draw(st.sampled_from([1, draw(st.integers(2, 14))]))
    f1, f2 = draw(st.integers(1, g1)), draw(st.integers(1, g2))
    weighting = draw(st.sampled_from(["identity", "gradient"]))
    shift = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    gamma = IndexSet2D.rect(g1, g2, offset=draw(shift))
    return LiftingConfig.make(gamma, IndexSet2D.rect(f1, f2, offset=draw(shift)), weighting)


def gram_bound(x: KSpaceArray, cfg: LiftingConfig) -> float:
    """A bound on ||T(x)||^2, which the Gram oracles' tolerances are relative
    to: T(x) can be exactly zero (a 2x1 grid under gradient weighting) while
    an FFT rounds to ~1e-33."""
    return cfg.n_filter * np.abs(cfg.multipliers).max() ** 2 * np.linalg.norm(x.values) ** 2


def exact_apply_oracle(xv: np.ndarray, wm: np.ndarray, cfg: LiftingConfig) -> np.ndarray:
    """The exact annihilation term T^*(T(x) W) through the checked lifting,
    x wrapped as a ``KSpaceArray``: an oracle for ``normal_apply_exact``,
    which gathers unchecked."""
    return lift_adjoint(lift_dense(KSpaceArray(cfg.gamma, xv), cfg) @ wm, cfg)


def normal_diag_oracle(d: np.ndarray, cfg: LiftingConfig) -> np.ndarray:
    """The diagonal of x -> T^*(T(x) W) for a weight matrix with diagonal
    ``d``, by scattering d[k] over ``lift_geometry`` onto the index each
    window reads at tap k, times sum_b w_b^2: an oracle for
    ``lift_normal_diag``, which reads the tap boxes."""
    reads = scatter_sum(cfg.lift_geometry, np.tile(d, cfg.n_out), cfg.gamma.extents)
    return reads * (cfg.multipliers**2).sum(axis=0)


def scatter_oracle(offsets: np.ndarray, values: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Each value added, one at a time in input order, onto a zero array at
    its flat offset: a float array for real values, complex otherwise.  An
    oracle for ``scatter_sum``, which must sum in this order."""
    out = np.zeros(shape[0] * shape[1], dtype=np.complex128 if np.iscomplexobj(values) else float)
    for offset, value in zip(np.ravel(offsets).tolist(), np.ravel(values).tolist()):
        out[offset] += value
    return out.reshape(shape)


def conv_oracle(x: KSpaceArray, h: np.ndarray, lambda1: IndexSet2D, out_set: IndexSet2D) -> np.ndarray:
    """Direct (non-circular) convolution of gamma-supported data with a filter,
    sampled on out_set.  Data outside gamma counts as zero."""
    h = np.asarray(h).reshape(-1)
    lookup = {tuple(k): x.values[i1, i2]
              for (k, (i1, i2)) in zip(
                  map(tuple, x.gamma.indices),
                  [(a - x.gamma.kmin[0], b - x.gamma.kmin[1]) for a, b in x.gamma.indices],
              )}
    out = np.zeros(len(out_set), dtype=np.complex128)
    for i, ell in enumerate(map(tuple, out_set.indices)):
        acc = 0.0 + 0.0j
        for hv, k in zip(h, map(tuple, lambda1.indices)):
            key = (ell[0] - k[0], ell[1] - k[1])
            acc += hv * lookup.get(key, 0.0)
        out[i] = acc
    return out


# The lifting and its adjoint for one filter by circular FFT convolution on
# gamma's array, the filter at its first f1 x f2 entries, where the valid
# outputs are the slice [f1 - 1:, f2 - 1:] and read no wrapped sample: an
# oracle independent of the read rule that lift_dense gathers through.


def _filter_spectrum(h: np.ndarray, cfg: LiftingConfig) -> np.ndarray:
    """Spectrum of one filter aligned with cfg.lambda1.indices, its taps at
    the first f1 x f2 entries of gamma's array."""
    h = np.asarray(h, dtype=np.complex128).reshape(-1)
    if h.size != cfg.n_filter:
        raise ValueError(f"filter has {h.size} taps, expected {cfg.n_filter}")
    f1, f2 = cfg.lambda1.extents
    g = np.zeros(cfg.gamma.extents, dtype=np.complex128)
    g[:f1, :f2] = h.reshape(f1, f2)
    return fft2(g)


def apply_filter(x: KSpaceArray, h: np.ndarray, cfg: LiftingConfig) -> np.ndarray:
    """Implicit lifted matrix-vector product, via circular FFT convolution.

    ``h`` is aligned with cfg.lambda1.indices; the result stacks the per-block
    outputs on lambda2 (aligned with cfg.lambda2.indices) and equals
    lift_dense(x, cfg) @ h up to rounding.  On gamma's array the valid
    outputs are the slice [f1 - 1:, f2 - 1:], in lambda2's row-major order.
    """
    if x.gamma != cfg.gamma:
        raise ValueError("k-space array is not defined on the config's gamma")
    f1, f2 = cfg.lambda1.extents
    conv = ifft2(fft2(cfg.multipliers * x.values) * _filter_spectrum(h, cfg))
    return conv[:, f1 - 1:, f2 - 1:].ravel()


def adjoint_apply(v: np.ndarray, h: np.ndarray, cfg: LiftingConfig) -> KSpaceArray:
    """Adjoint of apply_filter for a fixed filter: scatter into the valid
    slice, correlate, weight."""
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    nb = len(cfg.multipliers)
    if v.size != nb * cfg.n_out:
        raise ValueError(f"expected {nb * cfg.n_out} output samples, got {v.size}")
    hhat_conj = np.conj(_filter_spectrum(h, cfg))
    f1, f2 = cfg.lambda1.extents
    g = np.zeros(cfg.multipliers.shape, dtype=np.complex128)
    g[:, f1 - 1:, f2 - 1:] = v.reshape(nb, *cfg.lambda2.extents)
    corr = ifft2(fft2(g) * hhat_conj)
    return KSpaceArray(cfg.gamma, (cfg.multipliers * corr).sum(axis=0))


def svt_oracle(b, mask, lifting, cfg):
    """SVT's splitting with its multiplier held apart, an oracle for the
    one-matrix recurrence in ``svt_solve``: three lifted matrices, U,
    y = T(x) + U in T(x)'s buffer and the thresholded z, which becomes the
    next U.  Returns the final iterate and each step's
    ``(sigma_max, penalty, change)``."""
    zf = zero_fill(b, mask)
    bfill, sampled = zf.values, mask.sampled
    x = bfill
    tau = cfg.threshold * float(np.sqrt(np.linalg.eigvalsh(gram_matrix(zf, lifting))[-1]))
    tx = lift_dense(zf, lifting)
    multiplier = np.zeros_like(tx)
    records = []
    for _ in range(cfg.max_iter):
        tx += multiplier
        z, s, _ = _threshold(tx, tau)
        z -= multiplier
        x_new = np.where(sampled, bfill, delift(z, lifting).values)
        tx = lift_dense(KSpaceArray(lifting.gamma, x_new), lifting)
        multiplier = tx - z
        change = np.linalg.norm(x_new - x) / max(np.linalg.norm(x), 1e-300)
        records.append((s[0], np.maximum(s - tau, 0.0).sum(), change))
        x = x_new
    return x, records


@pytest.fixture
def rng():
    return np.random.default_rng(0)
