import numpy as np
import pytest
from hypothesis import strategies as st

from slrecon.grid import IndexSet2D
from slrecon.lifting import KSpaceArray, LiftingConfig


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


@pytest.fixture
def rng():
    return np.random.default_rng(0)
