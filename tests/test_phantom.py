import tracemalloc

import numpy as np
import pytest

from slrecon import phantom
from slrecon.grid import IndexSet2D, predicted_rank
from slrecon.lifting import KSpaceArray, LiftingConfig, embed, gather, lift_dense
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

from conftest import kspace_of_image, mu_values_at


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

    def test_rejects_slightly_asymmetric_coeffs(self):
        # the phantom's quadrature keeps only the polynomial's real part, so
        # the symmetry check has no relative slack: an asymmetry of 1e-7 of
        # the largest coefficient is refused
        c = random_edge_polynomial(IndexSet2D.rect(3, 3), seed=1).coeffs.copy()
        c[0, 1] += 1e-7 * np.abs(c).max()
        with pytest.raises(ValueError, match="conj"):
            EdgePolynomial(IndexSet2D.rect(3, 3), c)

    @pytest.mark.parametrize("scale", [2.0**-20, 2.0**-30])
    def test_any_scale_is_accepted_and_gives_the_same_phantom(self, scale):
        # scaling by a power of two is exact, so the raster keeps every sign
        edge = random_edge_polynomial(IndexSet2D.rect(3, 3), seed=1)
        small = EdgePolynomial(edge.lambda0, edge.coeffs * scale)
        gamma = IndexSet2D.rect(17, 17)
        assert np.array_equal(phantom_fourier(Phantom(small), gamma).values,
                              phantom_fourier(Phantom(edge), gamma).values)

    def test_asymmetry_is_relative_to_the_coefficients(self):
        c = random_edge_polynomial(IndexSet2D.rect(3, 3), seed=1).coeffs * 2.0**-20
        c[0, 1] += 1e-7 * np.abs(c).max()
        with pytest.raises(ValueError, match="conj"):
            EdgePolynomial(IndexSet2D.rect(3, 3), c)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_non_finite_coeffs(self, bad):
        with pytest.raises(ValueError, match="finite"):
            EdgePolynomial(IndexSet2D.rect(3, 1), np.array([[bad], [1.0], [bad]]))

    def test_rejects_zero_coeffs(self):
        with pytest.raises(ValueError, match="identically zero"):
            EdgePolynomial(IndexSet2D.rect(3, 1), np.zeros((3, 1)))

    def test_json_roundtrip(self):
        edge = random_edge_polynomial(IndexSet2D.rect(3, 3), seed=1)
        back = EdgePolynomial.from_json_dict(edge.to_json_dict())
        assert np.allclose(back.coeffs, edge.coeffs)

    def test_json_index_outside_lambda0_rejected(self):
        # (-2, 1) lies below a 3x3 support and must not wrap onto (1, 1)
        d = random_edge_polynomial(IndexSet2D.rect(3, 3), seed=1).to_json_dict()
        d["coeffs"] = [[-2, 1, *e[2:]] if e[:2] == [1, 1] else e for e in d["coeffs"]]
        with pytest.raises(ValueError, match=r"\(-2, 1\) lies outside lambda0"):
            EdgePolynomial.from_json_dict(d)

    @pytest.mark.parametrize("edit,needle", [
        (lambda d: {"lambda0": d["lambda0"]}, "'coeffs'"),
        (lambda d: {"coeffs": d["coeffs"]}, "'lambda0'"),
        (lambda d: {**d, "coeffs": [[0, 0, 1.0]]}, r"\[k1, k2, re, im\]"),
        (lambda d: {**d, "coeffs": [[0.5, 0, 1.0, 0.0]]}, "pairs of integers"),
    ], ids=["no-coeffs", "no-lambda0", "short-entry", "non-integer-index"])
    def test_malformed_json_names_the_field(self, edit, needle):
        d = random_edge_polynomial(IndexSet2D.rect(3, 3), seed=1).to_json_dict()
        with pytest.raises(ValueError, match=needle):
            EdgePolynomial.from_json_dict(edit(d))


class TestRandomEdgePolynomial:
    @pytest.mark.parametrize("area", [0.0, 0.51, 2.0, float("nan")])
    def test_min_region_area_outside_half_interval_rejected(self, area):
        with pytest.raises(ValueError, match="min_region_area"):
            random_edge_polynomial(IndexSet2D.rect(3, 3), seed=0, min_region_area=area)

    def test_single_index_support_refused_at_once(self, monkeypatch):
        # a 1x1 support is a constant: no zero set, so no draw could pass
        monkeypatch.setattr(phantom, "rasterize_mu", lambda *a: pytest.fail("drew a polynomial"))
        with pytest.raises(ValueError, match="lambda0 must hold more than one index"):
            random_edge_polynomial(IndexSet2D.rect(1, 1), seed=0)

    def test_exhausted_draws_name_their_inputs(self):
        # both sign regions of exactly half the raster: no draw passes
        with pytest.raises(ValueError, match=r"lambda0 3x3 reached min_region_area 0\.5"):
            random_edge_polynomial(IndexSet2D.rect(3, 3), seed=0, min_region_area=0.5)


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


# The full-raster formulations the phantom kernels replaced, kept as oracles:
# the polynomial by a zero-padded inverse FFT over the whole raster, and the
# quadrature by a gather off the image's full 2-D FFT.  ``rasterize_mu`` is
# the one evaluator that ``phantom_fourier`` also reads, a block of rows at a
# time.


def rasterize_mu_oracle(edge: EdgePolynomial, shape, offset=0.0) -> np.ndarray:
    n1, n2 = shape
    r1, r2 = edge.lambda0.axis_ranges()
    tw1 = np.exp(2j * np.pi * r1 * offset / n1)
    tw2 = np.exp(2j * np.pi * r2 * offset / n2)
    g = embed(edge.coeffs * tw1[:, None] * tw2[None, :], edge.lambda0, shape)
    return (np.fft.ifft2(g) * (n1 * n2)).real


def kspace_of_image_oracle(img: np.ndarray, gamma: IndexSet2D) -> np.ndarray:
    n1, n2 = img.shape
    r1, r2 = gamma.axis_ranges()
    vals = gather(np.fft.fft2(img) / (n1 * n2), gamma)
    return vals * np.exp(-1j * np.pi * r1 / n1)[:, None] * np.exp(-1j * np.pi * r2 / n2)[None, :]


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(a - b).max() / np.abs(b).max())


class TestAxisWiseKernels:
    @pytest.mark.parametrize("support", [(3, 3), (5, 3)])
    @pytest.mark.parametrize("shape", [(33, 33), (32, 32), (24, 40), (17, 8)],
                             ids=["odd", "even", "non-square", "odd-even"])
    @pytest.mark.parametrize("offset", [0.0, 0.5])
    def test_raster_matches_inverse_fft_oracle(self, support, shape, offset):
        edge = random_edge_polynomial(IndexSet2D.rect(*support), seed=3)
        assert rel_err(rasterize_mu(edge, shape, offset), rasterize_mu_oracle(edge, shape, offset)) < 1e-12

    def test_raster_coarser_than_the_support(self):
        # no FFT grid to fit the coefficients on: a 2x2 raster of a 3x3
        # polynomial is its values there
        edge = random_edge_polynomial(IndexSet2D.rect(3, 3), seed=3)
        pts = np.array([[m1, m2] for m1 in range(2) for m2 in range(2)]) / 2
        assert np.allclose(rasterize_mu(edge, (2, 2)).ravel(), mu_values_at(edge, pts), atol=1e-12)

    @pytest.mark.parametrize("shape, gamma", [
        ((40, 40), IndexSet2D.rect(9, 9)),
        ((41, 39), IndexSet2D.rect(8, 7, offset=(1, -2))),
        ((24, 56), IndexSet2D.rect(5, 12)),
        ((4, 5), IndexSet2D.rect(11, 13, offset=(3, -2))),
    ], ids=["even", "odd-off-centre", "non-square", "gamma-wider-than-image"])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_quadrature_matches_full_fft_gather(self, shape, gamma, kind):
        rng = np.random.default_rng(7)
        img = rng.standard_normal(shape)
        if kind == "complex":
            img = img + 1j * rng.standard_normal(shape)
        ks = kspace_of_image(img, gamma)
        assert ks.gamma == gamma
        assert rel_err(ks.values, kspace_of_image_oracle(img, gamma)) < 1e-12

    @pytest.mark.parametrize("grid", [65, 129])
    def test_acceptance_phantoms_unchanged(self, grid):
        # the acceptance suite's phantoms (edge seeds 0-11, 8x oversampled):
        # every pixel keeps its sign region and the k-space its values
        gamma = IndexSet2D.rect(grid, grid)
        shape = (8 * grid, 8 * grid)
        for seed in range(12):
            edge = random_edge_polynomial(IndexSet2D.rect(3, 3), seed=seed)
            region = rasterize_mu_oracle(edge, shape, offset=0.5) > 0
            assert np.array_equal(rasterize_mu(edge, shape, offset=0.5) > 0, region), seed
            ks = phantom_fourier(Phantom(edge, (1.0, 0.0), oversample=8), gamma)
            oracle = kspace_of_image_oracle(np.where(region, 1.0, 0.0), gamma)
            assert rel_err(ks.values, oracle) < 1e-12, seed


class TestStreamedQuadrature:
    # the quadrature runs over blocks of raster rows; a block of 1000 entries
    # splits these rasters into many blocks, the last one partial
    @pytest.mark.parametrize("block", [phantom.QUADRATURE_BLOCK, 1000], ids=["default", "small"])
    @pytest.mark.parametrize("gamma, oversample, support, values", [
        (IndexSet2D.rect(65, 33), 5, (3, 3), (1.0, 0.0)),
        (IndexSet2D.rect(64, 1), 8, (3, 1), (1.0, 0.0)),
        (IndexSet2D.rect(33, 33, offset=(2, -1)), 4, (3, 3), (0.8, -2.5)),
    ], ids=["65x33-partial-blocks", "1-D-64x1", "region-values"])
    def test_phantom_matches_full_raster(self, monkeypatch, block, gamma, oversample, support, values):
        monkeypatch.setattr(phantom, "QUADRATURE_BLOCK", block)
        edge = random_edge_polynomial(IndexSet2D.rect(*support), seed=4)
        shape = (oversample * gamma.extents[0], oversample * gamma.extents[1])
        img = np.where(rasterize_mu_oracle(edge, shape, offset=0.5) > 0, *values)
        ks = phantom_fourier(Phantom(edge, values, oversample=oversample), gamma)
        assert rel_err(ks.values, kspace_of_image_oracle(img, gamma)) < 1e-12

    def test_image_in_blocks_matches_full_fft_gather(self, monkeypatch):
        monkeypatch.setattr(phantom, "QUADRATURE_BLOCK", 100)
        rng = np.random.default_rng(8)
        img = rng.standard_normal((41, 30)) + 1j * rng.standard_normal((41, 30))
        gamma = IndexSet2D.rect(9, 16, offset=(1, -2))
        assert rel_err(kspace_of_image(img, gamma).values, kspace_of_image_oracle(img, gamma)) < 1e-12

    @pytest.mark.parametrize("grid", [129, 255])
    def test_peak_below_one_float64_raster(self, grid):
        # the raster is streamed: only a block of rows and gamma's columns
        # of it are held, never the (8 grid)^2 raster itself
        ph = Phantom(random_edge_polynomial(IndexSet2D.rect(3, 3), seed=11), oversample=8)
        gamma = IndexSet2D.rect(grid, grid)
        phantom_fourier(ph, gamma)
        tracemalloc.start()
        try:
            phantom_fourier(ph, gamma)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (8 * grid) ** 2 * 8


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
        with pytest.raises(ValueError, match="oversample must be an integer of at least 4"):
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


@pytest.mark.parametrize("make, needle", [
    (lambda g: dirac_fourier([[0.1, 0.2], [0.3, 0.4]], [1.0], g), "must pair up"),
    (lambda g: dirac_fourier([[0.1, 0.2], [0.1, 0.2]], [1.0, 2.0], g), "must be distinct"),
    (lambda g: make_mask(g, "radial", 2.0), "unknown sampling scheme 'radial'"),
], ids=["dirac-unpaired", "dirac-duplicate", "mask-unknown-scheme"])
def test_bad_ground_truth_request_refused(make, needle):
    with pytest.raises(ValueError, match=needle):
        make(IndexSet2D.rect(5, 5))


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
        assert back.gamma == mask.gamma and np.array_equal(back.sampled, mask.sampled)

    def test_json_holds_gamma_and_indices_only(self):
        # how the indices were drawn is the run's argv, not the mask's
        gamma = IndexSet2D.rect(7, 6, offset=(1, -1))
        d = make_mask(gamma, "variable_density", 2.0, seed=9).to_json_dict()
        assert list(d) == ["gamma", "indices"]
        assert d["gamma"] == gamma.to_json_dict()

    @pytest.mark.parametrize("scheme", ["uniform", "variable_density"])
    def test_mask_file_with_the_old_keys_loads_the_same_sampling(self, scheme):
        # mask files once also carried how the indices were drawn; those keys
        # are read by nothing and ignored, whatever they claim
        mask = make_mask(IndexSet2D.rect(9, 8), scheme, 3.0, seed=5)
        old = {"scheme": "variable_density", "seed": 99, "acceleration": 1.0, "sigma": 0.5,
               **mask.to_json_dict()}
        back = SamplingMask.from_json_dict(old)
        assert back.gamma == mask.gamma and np.array_equal(back.sampled, mask.sampled)
        assert back.to_json_dict() == mask.to_json_dict()

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
        assert mask.to_json_dict() == {"gamma": d["gamma"], "indices": d["indices"]}

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
