import numpy as np
import pytest

from slrecon.grid import IndexSet2D, predicted_rank
from slrecon.lifting import KSpaceArray, LiftingConfig, lift_dense
from slrecon.phantom import (
    EdgePolynomial,
    Phantom,
    SamplingMask,
    add_noise,
    dirac_fourier,
    make_mask,
    phantom_fourier,
    random_edge_polynomial,
    rasterize_mu,
    sample_kspace,
)


def sin_x_edge() -> EdgePolynomial:
    # sin(2 pi x): positive exactly on the strip (0, 1/2)
    lam0 = IndexSet2D.rect(3, 1)
    c = np.array([[-1 / 2j], [0.0], [1 / 2j]], dtype=complex)
    return EdgePolynomial(lam0, c)


class TestEdgePolynomial:
    def test_rejects_asymmetric_coeffs(self):
        lam0 = IndexSet2D.rect(3, 3)
        c = np.zeros((3, 3), dtype=complex)
        c[0, 0] = 1.0  # c[(-1,-1)] set without its mirror
        with pytest.raises(ValueError, match="conj"):
            EdgePolynomial(lam0, c)

    def test_json_roundtrip(self):
        edge = random_edge_polynomial(IndexSet2D.rect(3, 3), seed=1)
        back = EdgePolynomial.from_json_dict(edge.to_json_dict())
        assert np.allclose(back.coeffs, edge.coeffs)


class TestRandomEdgePolynomial:
    @pytest.mark.parametrize("area", [0.0, 0.51, 2.0, float("nan")])
    def test_min_region_area_outside_half_interval_rejected(self, area):
        with pytest.raises(ValueError, match="min_region_area"):
            random_edge_polynomial(IndexSet2D.rect(3, 3), seed=0, min_region_area=area)


class TestRasterizeMu:
    def test_dc_polynomial(self):
        lam0 = IndexSet2D.rect(1, 1)
        edge = EdgePolynomial(lam0, np.array([[1.0]]))
        vals = rasterize_mu(edge, (16, 16))
        assert np.allclose(vals, 1.0)

    def test_cosine(self):
        lam0 = IndexSet2D.rect(3, 1)
        c = np.array([[0.5], [0.0], [0.5]], dtype=complex)
        edge = EdgePolynomial(lam0, c)
        vals = rasterize_mu(edge, (32, 8))
        x = np.arange(32) / 32
        assert np.allclose(vals, np.cos(2 * np.pi * x)[:, None] * np.ones((1, 8)), atol=1e-12)

    def test_matches_direct_sum(self):
        edge = random_edge_polynomial(IndexSet2D.rect(3, 3), seed=2)
        n1, n2 = 24, 20
        vals = rasterize_mu(edge, (n1, n2))
        # independent oracle: explicit double loop over coefficients
        x = np.arange(n1) / n1
        y = np.arange(n2) / n2
        direct = np.zeros((n1, n2), dtype=complex)
        for (k1, k2), cv in zip(edge.lambda0.indices, edge.coeffs.ravel()):
            direct += cv * np.exp(2j * np.pi * (k1 * x[:, None] + k2 * y[None, :]))
        assert np.abs(direct.imag).max() < 1e-10
        assert np.abs(vals - direct.real).max() < 1e-10 * np.abs(direct).max()


class TestPhantomFourier:
    def test_constant_image(self):
        lam0 = IndexSet2D.rect(1, 1)
        edge = EdgePolynomial(lam0, np.array([[1.0]]))  # mu > 0 everywhere
        ph = Phantom(edge, region_values=(0.75, -5.0), oversample=8)
        gamma = IndexSet2D.rect(9, 9)
        ks = phantom_fourier(ph, gamma)
        dc = ks.values[4, 4]
        assert abs(dc - 0.75) < 1e-12
        rest = ks.values.copy()
        rest[4, 4] = 0.0
        assert np.abs(rest).max() < 1e-10

    @pytest.mark.parametrize("values", [(1.0,), (1.0, 0.0, 2.0)])
    def test_region_values_need_two(self, values):
        with pytest.raises(ValueError, match="region_values"):
            Phantom(sin_x_edge(), region_values=values)

    @pytest.mark.parametrize("oversample", [8.5, 8.0, True, 3, np.int64(2)])
    def test_oversample_must_be_an_integer_of_at_least_4(self, oversample):
        with pytest.raises(ValueError, match="oversample must be an integer >= 4"):
            Phantom(sin_x_edge(), oversample=oversample)

    def test_half_plane_matches_analytic_integral(self):
        ph = Phantom(sin_x_edge(), region_values=(1.0, 0.0), oversample=8)
        gamma = IndexSet2D.rect(17, 1)
        ks = phantom_fourier(ph, gamma)
        k = gamma.axis_ranges()[0]
        expect = np.where(
            k == 0, 0.5, (1.0 - np.exp(-1j * np.pi * k)) / np.where(k == 0, 1.0, 2j * np.pi * k)
        )
        assert np.abs(ks.values.ravel() - expect).max() < 1e-3

    def test_conjugate_symmetry(self):
        edge = random_edge_polynomial(IndexSet2D.rect(3, 3), seed=3)
        ph = Phantom(edge, (1.0, 0.2), oversample=8)
        ks = phantom_fourier(ph, IndexSet2D.rect(33, 33))
        flipped = np.conj(ks.values[::-1, ::-1])
        assert np.linalg.norm(ks.values - flipped) < 1e-9 * np.linalg.norm(ks.values)

    def test_lifted_rank_matches_prediction(self):
        gamma = IndexSet2D.rect(65, 65)
        lam0, lam1 = IndexSet2D.rect(3, 3), IndexSet2D.rect(5, 5)
        edge = random_edge_polynomial(lam0, seed=4)
        ks = phantom_fourier(Phantom(edge, (1.0, 0.0), oversample=8), gamma)
        cfg = LiftingConfig.make(gamma, lam1, "gradient")
        s = np.linalg.svd(lift_dense(ks, cfg), compute_uv=False)
        r = int((s > 1e-2 * s[0]).sum())
        assert r == predicted_rank(lam1, lam0) == 16

    @pytest.mark.parametrize("filt", [5, 7])
    def test_spectral_gap_past_predicted_rank(self, filt):
        # sigma_{R+1}/sigma_1 below the quadrature-limited 1e-2 threshold
        # for any admissible filter at least as large as the edge degree
        gamma = IndexSet2D.rect(65, 65)
        lam0, lam1 = IndexSet2D.rect(3, 3), IndexSet2D.rect(filt, filt)
        edge = random_edge_polynomial(lam0, seed=9)
        ks = phantom_fourier(Phantom(edge, (1.0, 0.0), oversample=8), gamma)
        cfg = LiftingConfig.make(gamma, lam1, "gradient")
        s = np.linalg.svd(lift_dense(ks, cfg), compute_uv=False)
        r = predicted_rank(lam1, lam0)
        assert s[r] / s[0] < 1e-2 < s[r - 1] / s[0] * 10


class TestDiracFourier:
    def test_single_dirac_at_origin(self):
        ks = dirac_fourier([(0.0, 0.0)], [1.0], IndexSet2D.rect(7, 7))
        assert np.allclose(ks.values, 1.0)

    def test_empty_stream_is_zero(self):
        ks = dirac_fourier(np.zeros((0, 2)), [], IndexSet2D.rect(5, 5))
        assert np.allclose(ks.values, 0.0)

    def test_linearity_in_amplitudes(self):
        locs = [(0.13, 0.71), (0.55, 0.22)]
        gamma = IndexSet2D.rect(9, 9)
        one = dirac_fourier(locs, [1.0, 2.0], gamma)
        two = dirac_fourier(locs, [2.0, 4.0], gamma)
        assert np.allclose(two.values, 2.0 * one.values)

    def test_line_stream_annihilated_by_root_filter(self):
        # K + 1 taps must be odd so the centered filter support is symmetric
        # and every lifted entry is a true sample (see lifting module notes)
        K = 4
        rng = np.random.default_rng(6)
        xs = np.sort(rng.uniform(0, 1, K))
        locs = [(x, 0.0) for x in xs]
        amps = rng.standard_normal(K) + 1j * rng.standard_normal(K)
        gamma = IndexSet2D.rect(32, 1)
        ks = dirac_fourier(locs, amps, gamma)
        mu = np.array([1.0 + 0j])
        for xm in xs:
            mu = np.convolve(mu, np.array([-np.exp(2j * np.pi * xm), 1.0]))
        cfg = LiftingConfig.make(gamma, IndexSet2D.rect(K + 1, 1))
        t = lift_dense(ks, cfg)
        assert np.linalg.norm(t @ mu) < 1e-10 * np.linalg.norm(t) * np.linalg.norm(mu)


class TestMakeMask:
    def test_full_sampling(self):
        gamma = IndexSet2D.rect(8, 8)
        mask = make_mask(gamma, "uniform", acceleration=1.0, seed=0)
        assert mask.sampled.all()

    def test_large_grid_sample_count(self):
        gamma = IndexSet2D.rect(255, 255)
        mask = make_mask(gamma, "uniform", acceleration=1.5, seed=1)
        assert np.count_nonzero(mask.sampled) == round(65025 / 1.5) == 43350

    def test_deterministic(self):
        gamma = IndexSet2D.rect(21, 21)
        a = make_mask(gamma, "variable_density", acceleration=3.0, seed=9)
        b = make_mask(gamma, "variable_density", acceleration=3.0, seed=9)
        assert np.array_equal(a.sampled, b.sampled)

    def test_dc_always_kept(self):
        gamma = IndexSet2D.rect(17, 17)
        for seed in range(5):
            for scheme in ("uniform", "variable_density"):
                mask = make_mask(gamma, scheme, acceleration=8.0, seed=seed)
                assert mask.sampled[8, 8]

    def test_variable_density_concentrates_center(self):
        gamma = IndexSet2D.rect(33, 33)
        vd = make_mask(gamma, "variable_density", acceleration=4.0, seed=3)
        uni = make_mask(gamma, "uniform", acceleration=4.0, seed=3)
        vd_k, uni_k = (gamma.indices[m.sampled.ravel()] for m in (vd, uni))
        assert np.abs(vd_k).mean() < np.abs(uni_k).mean()

    def test_too_aggressive_acceleration(self):
        with pytest.raises(ValueError, match="no samples"):
            make_mask(IndexSet2D.rect(3, 3), "uniform", acceleration=100.0, seed=0)

    def test_json_roundtrip(self):
        mask = make_mask(IndexSet2D.rect(11, 11), "variable_density", 2.5, seed=4)
        back = SamplingMask.from_json_dict(mask.to_json_dict())
        assert np.array_equal(back.sampled, mask.sampled) and back.sigma == mask.sigma

    def test_sample_kspace_alignment(self):
        gamma = IndexSet2D.rect(9, 9)
        edge = random_edge_polynomial(IndexSet2D.rect(3, 3), seed=5)
        ks = phantom_fourier(Phantom(edge, oversample=8), gamma)
        mask = make_mask(gamma, "uniform", 2.0, seed=6)
        b = sample_kspace(ks, mask)
        for val, (k1, k2) in zip(b[:5], gamma.indices[mask.sampled.ravel()][:5]):
            assert val == ks.values[k1 - gamma.kmin[0], k2 - gamma.kmin[1]]

    def test_sample_kspace_rejects_other_gamma(self):
        # negative offsets into a smaller array would otherwise wrap around
        small = KSpaceArray(IndexSet2D.rect(8, 8), np.arange(64.0).reshape(8, 8))
        sampled = np.zeros((16, 16), dtype=bool)
        sampled[[0, 2, 11], [0, 8, 11]] = True  # (-8, -8), (-6, 0), (3, 3)
        mask = SamplingMask(IndexSet2D.rect(16, 16), sampled)
        with pytest.raises(ValueError, match="disagree on gamma"):
            sample_kspace(small, mask)

    def test_sampled_is_a_read_only_copy(self):
        gamma = IndexSet2D.rect(7, 6, offset=(1, -1))
        drawn = np.zeros(gamma.extents, dtype=bool)
        drawn[::2, 1::3] = True
        mask = SamplingMask(gamma, drawn)
        drawn[0, 0] = True
        assert not mask.sampled[0, 0] and not mask.sampled.flags.writeable
        with pytest.raises(ValueError):
            mask.sampled[0, 0] = True

    @pytest.mark.parametrize("sampled, needle", [
        (np.zeros((4, 4), dtype=bool), "no index"),
        (np.ones((4, 5), dtype=bool), "gamma's shape"),
        (np.ones((4, 4)), "boolean"),
    ], ids=["empty", "wrong-shape", "not-boolean"])
    def test_bad_sampled_array_rejected(self, sampled, needle):
        with pytest.raises(ValueError, match=needle):
            SamplingMask(IndexSet2D.rect(4, 4), sampled)

    @pytest.mark.parametrize("scheme", ["uniform", "variable_density"])
    def test_sample_order_is_gamma_order(self, scheme):
        # b lists the sampled indices in gamma's row-major (lexicographic) order
        gamma = IndexSet2D.rect(10, 7, offset=(2, -1))
        ks = KSpaceArray(gamma, np.arange(70.0).reshape(10, 7) + 1j)
        mask = make_mask(gamma, scheme, 2.5, seed=3)
        order = gamma.indices[mask.sampled.ravel()]
        assert order.tolist() == sorted(order.tolist())
        rel = order - gamma.kmin
        assert np.array_equal(sample_kspace(ks, mask), ks.values[rel[:, 0], rel[:, 1]])

    def test_old_mask_file_reads_back_to_the_same_mask(self):
        # a mask.json as written before masks were boolean arrays: the sampled
        # indices listed in lexicographic order, gamma as a rect descriptor
        d = {"scheme": "uniform", "seed": 2, "acceleration": 3.0, "sigma": None,
             "gamma": {"kind": "rect", "extents": [5, 4], "offset": [0, 0]},
             "indices": [[-2, -2], [-1, 0], [0, 0], [0, 1], [2, 1]]}
        mask = SamplingMask.from_json_dict(d)
        expect = np.zeros((5, 4), dtype=bool)
        expect[[0, 1, 2, 2, 4], [0, 2, 2, 3, 3]] = True
        assert mask.gamma == IndexSet2D.rect(5, 4)
        assert np.array_equal(mask.sampled, expect)
        assert mask.to_json_dict() == d

    @pytest.mark.parametrize("indices, needle", [
        ([[0, 0], [3, 0]], r"\(3, 0\) lies outside gamma"),
        ([[-2, 1], [-2, 2]], r"\(-2, 2\) lies outside gamma"),
        ([[-3, 0]], r"\(-3, 0\) lies outside gamma"),
        ([[0, -3]], r"\(0, -3\) lies outside gamma"),
    ], ids=["past-kmax1", "past-kmax2", "before-kmin1", "before-kmin2"])
    def test_mask_file_indices_must_lie_in_gamma(self, indices, needle):
        d = make_mask(IndexSet2D.rect(5, 4), "uniform", 2.0, seed=0).to_json_dict()
        with pytest.raises(ValueError, match=needle):
            SamplingMask.from_json_dict({**d, "indices": indices})



class TestAddNoise:
    def test_zero_sigma_returns_equal_copy(self):
        b = np.arange(6.0) + 1j
        out = add_noise(b, 0.0, seed=3)
        assert out is not b and np.array_equal(out, b)

    @pytest.mark.parametrize("sigma", [-5.0, np.nan])
    def test_negative_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="non-negative"):
            add_noise(np.zeros(4, dtype=complex), sigma)

    def test_seeded(self):
        b = np.zeros(50, dtype=complex)
        assert np.array_equal(add_noise(b, 0.1, seed=4), add_noise(b, 0.1, seed=4))
        assert not np.array_equal(add_noise(b, 0.1, seed=4), add_noise(b, 0.1, seed=5))

    def test_power_matches_sigma(self):
        # complex noise with E|n|^2 = sigma^2, split evenly between re and im
        sigma = 0.3
        n = add_noise(np.zeros(100_000, dtype=complex), sigma, seed=0)
        assert abs(np.mean(np.abs(n) ** 2) / sigma**2 - 1.0) < 0.05
