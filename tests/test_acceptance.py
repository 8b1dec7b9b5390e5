"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The full suite took
36 s on two shared cores (numpy 2.4, BLAS threads at their default);
criterion 4 dominates at about 29 s (dense SVT reference runs and an
exact-operator recovery at 65x65 with a 15x15 filter).
"""

import time

import numpy as np
import pytest

from slrecon.grid import IndexSet2D, predicted_rank
from slrecon.lifting import (
    KSpaceArray,
    LiftingConfig,
    adjoint_apply,
    apply_filter,
    gram_matrix,
    lift_dense,
)
from slrecon.giraf import (
    IRLSConfig,
    giraf_solve,
    mask_from_filters,
    normal_apply_approx,
    normal_apply_exact,
    weight_matrix,
)
from slrecon.baselines import SVTConfig, svt_solve, tv_solve, zero_fill
from slrecon.phantom import (
    Phantom,
    dirac_fourier,
    make_mask,
    phantom_fourier,
    random_edge_polynomial,
    sample_kspace,
)
from slrecon.analysis import (
    phase_transition,
    rho2,
    rho2_rayleigh_search,
    snr_db,
    subspace_check,
)

from test_giraf import brute_force_irls_iteration


def verdict(num: int, name: str, ok: bool, detail: str):
    print(f"\nACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def rel(a, b):
    return float(np.linalg.norm(np.ravel(a) - np.ravel(b)) / np.linalg.norm(np.ravel(b)))


@pytest.fixture(scope="module")
def table_problem():
    """Shared instance for criteria 4-6: 65x65 phantom, uniform masks."""
    gamma = IndexSet2D.rect(65, 65)
    edge = random_edge_polynomial(IndexSet2D.rect(3, 3), seed=11)
    truth = phantom_fourier(Phantom(edge, (1.0, 0.0), oversample=8), gamma)
    return gamma, edge, truth


def test_criterion_1_rank_law():
    t0 = time.time()
    gamma = IndexSet2D.rect(65, 65)
    lam0, lam1 = IndexSet2D.rect(3, 3), IndexSet2D.rect(5, 5)
    expected = predicted_rank(lam1, lam0)
    cfg = LiftingConfig.make(gamma, lam1, "gradient")
    ranks = []
    for seed in range(5):
        edge = random_edge_polynomial(lam0, seed=seed)
        ks = phantom_fourier(Phantom(edge, (1.0, 0.0), oversample=8), gamma)
        s = np.linalg.svd(lift_dense(ks, cfg), compute_uv=False)
        ranks.append(int((s > 1e-2 * s[0]).sum()))
    elapsed = time.time() - t0
    ok = all(r == expected == 16 for r in ranks) and elapsed < 60
    verdict(1, "rank law", ok, f"ranks {ranks} vs predicted {expected}, {elapsed:.1f}s")


def test_criterion_2_operator_oracles():
    gamma = IndexSet2D.rect(16, 16)
    worst_op, worst_adj, worst_gram = 0.0, 0.0, 0.0
    rng = np.random.default_rng(2)
    for ext in ((3, 3), (5, 5)):
        for weighting in ("identity", "gradient"):
            cfg = LiftingConfig.make(gamma, IndexSet2D.rect(*ext), weighting)
            for trial in range(10):
                vals = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
                x = KSpaceArray(gamma, vals)
                dense = lift_dense(x, cfg)
                h = rng.standard_normal(cfg.n_filter) + 1j * rng.standard_normal(cfg.n_filter)
                worst_op = max(worst_op, rel(apply_filter(x, h, cfg), dense @ h))
                v = rng.standard_normal(dense.shape[0]) + 1j * rng.standard_normal(dense.shape[0])
                lhs = np.vdot(v, apply_filter(x, h, cfg))
                rhs = np.vdot(adjoint_apply(v, h, cfg).values, x.values)
                worst_adj = max(worst_adj, abs(lhs - rhs) / max(abs(lhs), 1e-300))
                worst_gram = max(
                    worst_gram, rel(gram_matrix(x, cfg), dense.conj().T @ dense)
                )
    ok = worst_op <= 1e-9 and worst_gram <= 1e-9 and worst_adj <= 1e-10
    verdict(2, "operator oracle equivalence", ok,
            f"apply {worst_op:.1e}, gram {worst_gram:.1e}, adjoint {worst_adj:.1e}")


def test_criterion_3_irls_step_equivalence():
    gamma = IndexSet2D.rect(16, 16)
    lifting = LiftingConfig.make(gamma, IndexSet2D.rect(3, 3), "gradient")
    rng = np.random.default_rng(3)
    truth = KSpaceArray(gamma, rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
    mask = make_mask(gamma, "uniform", 1.5, seed=7)
    b = sample_kspace(truth, mask)
    lam, p = 10.0, 1.0
    dense = brute_force_irls_iteration(b, mask, lifting, p, lam, 1e-2)
    cfg = IRLSConfig(p=p, lam=lam, operator="exact", max_outer=1,
                     cg_tol=1e-13, cg_max=5000)
    rec, _ = giraf_solve(b, mask, lifting, cfg)
    err = rel(rec.values, dense)
    verdict(3, "IRLS step equivalence", err <= 1e-6, f"relative error {err:.2e}")


def test_criterion_4_giraf_svt_table(table_problem):
    t0 = time.time()
    gamma, edge, truth = table_problem
    mask = make_mask(gamma, "uniform", acceleration=1.5, seed=2)
    b = sample_kspace(truth, mask)
    lifting = LiftingConfig.make(gamma, IndexSet2D.rect(15, 15), "gradient")

    svt_cfg = SVTConfig(threshold=3e-2, max_iter=50)
    xstar, _ = svt_solve(b, mask, lifting, svt_cfg)
    _, svt_rep = svt_solve(b, mask, lifting, svt_cfg, reference=xstar)
    n_svt = svt_rep.iterations_to_mse(1e-4)

    giraf_cfg = IRLSConfig(p=1.0, lam=1e8, operator="exact", max_outer=8,
                           cg_tol=1e-9, cg_max=300, convergence_tol=1e-12)
    _, giraf_rep = giraf_solve(b, mask, lifting, giraf_cfg, reference=xstar)
    n_giraf = giraf_rep.iterations_to_mse(1e-4)

    # decomposition-cost scaling: eigen time flat in grid area, SVT SVD not
    svt_decomp, grams = {}, {}
    for g in (65, 129):
        gg = IndexSet2D.rect(g, g)
        tg = phantom_fourier(Phantom(edge, (1.0, 0.0), oversample=8), gg)
        mg = make_mask(gg, "uniform", 1.5, seed=2)
        bg = sample_kspace(tg, mg)
        lg = LiftingConfig.make(gg, IndexSet2D.rect(15, 15), "gradient")
        _, s_rep = svt_solve(bg, mg, lg, SVTConfig(threshold=3e-2, max_iter=5))
        c = IRLSConfig(p=1.0, lam=1e8, max_outer=5, cg_tol=1e-8, cg_max=100,
                       convergence_tol=1e-12)
        rec_g, _ = giraf_solve(bg, mg, lg, c)
        svt_decomp[g] = float(np.median([r.decomp_time for r in s_rep.iterations]))
        grams[g] = gram_matrix(rec_g, lg)
    # eigh runs on a 225 x 225 Gram at both sizes: timing the two alternately
    # exposes both to the same host load, and the fastest run is the cost
    eig_times = {g: [] for g in grams}
    for _ in range(7):
        for g, gram in grams.items():
            t = time.perf_counter()
            np.linalg.eigh(gram)
            eig_times[g].append(time.perf_counter() - t)
    area_ratio = 129**2 / 65**2
    svt_ratio = svt_decomp[129] / svt_decomp[65]
    eig_ratio = min(eig_times[129]) / min(eig_times[65])
    elapsed = time.time() - t0
    ok = (
        n_giraf is not None
        and n_svt is not None
        and n_giraf <= n_svt
        and svt_ratio > area_ratio
        and 0.8 <= eig_ratio <= 1.25
        and elapsed < 600
    )
    verdict(4, "giraf=svt at p=1", ok,
            f"iters to MSE<1e-4: giraf {n_giraf} vs svt {n_svt}; "
            f"svt svd scaling {svt_ratio:.2f}x vs area {area_ratio:.2f}x; "
            f"giraf eig ratio {eig_ratio:.2f}; {elapsed:.0f}s")


def test_criterion_5_approximation_quality(table_problem):
    gamma65, edge, truth = table_problem
    rng = np.random.default_rng(5)
    discs = []
    for g in (33, 65, 129):
        gamma = IndexSet2D.rect(g, g)
        cfg = LiftingConfig.make(gamma, IndexSet2D.rect(7, 7), "gradient")
        vals = rng.standard_normal((g, g)) + 1j * rng.standard_normal((g, g))
        x = KSpaceArray(gamma, vals)
        gram = gram_matrix(x, cfg)
        w, vecs = np.linalg.eigh(0.5 * (gram + gram.conj().T))
        eps = 1e-3 * w[-1]
        wm = weight_matrix(w, vecs, eps, 0.0)
        mask_fn = mask_from_filters(wm, cfg)
        xv = rng.standard_normal((g, g)) + 1j * rng.standard_normal((g, g))
        theta = np.zeros((g, g))
        exact = normal_apply_exact(xv, wm, cfg, 0.0, theta)
        approx = normal_apply_approx(xv, mask_fn, cfg, 0.0, theta)
        discs.append(rel(approx, exact))
    monotone = discs[0] > discs[1] > discs[2]

    mask = make_mask(gamma65, "uniform", acceleration=1.5, seed=2)
    b = sample_kspace(truth, mask)
    lifting = LiftingConfig.make(gamma65, IndexSet2D.rect(7, 7), "gradient")
    recs = {}
    for op in ("approximate", "exact"):
        cfg = IRLSConfig(p=0.0, lam=1e8, operator=op, max_outer=10,
                         cg_tol=1e-10, cg_max=500, convergence_tol=1e-8)
        recs[op], _ = giraf_solve(b, mask, lifting, cfg)
    diff = rel(recs["approximate"].values, recs["exact"].values)
    ok = monotone and diff < 0.01
    verdict(5, "approximation quality", ok,
            f"discrepancy {[f'{d:.3f}' for d in discs]} (decreasing={monotone}); "
            f"end-to-end exact-vs-approx {diff:.4%}")


def test_criterion_6_recovery_ordering(table_problem):
    gamma, edge, truth = table_problem
    mask = make_mask(gamma, "uniform", acceleration=2.0, seed=5)
    b = sample_kspace(truth, mask)
    lifting = LiftingConfig.make(gamma, IndexSet2D.rect(7, 7), "gradient")
    cfg = IRLSConfig(p=0.0, lam=1e8, max_outer=15, cg_tol=1e-10, cg_max=600,
                     convergence_tol=1e-6)
    rec_giraf, _ = giraf_solve(b, mask, lifting, cfg)
    rec_tv = tv_solve(b, mask, weight=1e3, iters=300)
    rec_zf = zero_fill(b, mask)
    s_giraf = snr_db(rec_giraf, truth)
    s_tv = snr_db(rec_tv, truth)
    s_zf = snr_db(rec_zf, truth)
    ok = (s_giraf >= s_tv + 0.5) and (s_tv >= s_zf + 3.0)
    verdict(6, "recovery quality ordering", ok,
            f"giraf {s_giraf:.1f} dB >= tv {s_tv:.1f} dB + 0.5; "
            f"tv >= zerofill {s_zf:.1f} dB + 3")


def test_criterion_7_filter_size_trend():
    gamma = IndexSet2D.rect(65, 65)
    edge = random_edge_polynomial(IndexSet2D.rect(7, 7), seed=3)
    truth = phantom_fourier(Phantom(edge, (1.0, 0.0), oversample=8), gamma)
    mask = make_mask(gamma, "variable_density", acceleration=5.0, seed=9)
    b = sample_kspace(truth, mask)
    snrs = []
    for f in (7, 11, 15):
        lifting = LiftingConfig.make(gamma, IndexSet2D.rect(f, f), "gradient")
        cfg = IRLSConfig(p=0.0, lam=1e8, max_outer=12, cg_tol=1e-9, cg_max=400,
                         convergence_tol=1e-6)
        rec, _ = giraf_solve(b, mask, lifting, cfg)
        snrs.append(snr_db(rec, truth))
    ok = all(later >= earlier - 0.2 for earlier, later in zip(snrs, snrs[1:]))
    verdict(7, "filter-size trend", ok,
            "SNR " + " -> ".join(f"{s:.1f}" for s in snrs) + " dB across 7/11/15")


def test_criterion_8_fri_exact_recovery():
    t0 = time.time()
    locs = [0.08, 0.31, 0.52, 0.74, 0.9]
    amps = np.array([1.0, -0.7 + 0.3j, 0.9, 1.2j, -0.5])
    gamma = IndexSet2D.rect(64, 1)
    truth = dirac_fourier([(x, 0.0) for x in locs], amps, gamma)
    mask = make_mask(gamma, "uniform", acceleration=2.0, seed=1)
    assert mask.sampled[0, 0]  # uniqueness: gamma's first index, (-32, 0), is sampled
    b = sample_kspace(truth, mask)
    lifting = LiftingConfig.make(gamma, IndexSet2D.rect(8, 1), "identity")
    cfg = IRLSConfig(p=0.0, lam=1e8, operator="exact", max_outer=40, eps_decay=1.5,
                     cg_tol=1e-13, cg_max=3000, convergence_tol=1e-10)
    rec, _ = giraf_solve(b, mask, lifting, cfg)
    err = rel(rec.values, truth.values)
    elapsed = time.time() - t0
    verdict(8, "exact FRI recovery", err < 1e-6 and elapsed < 60,
            f"relative error {err:.2e} in {elapsed:.1f}s")


def test_criterion_9_theory_suite():
    edge = random_edge_polynomial(IndexSet2D.rect(3, 3), seed=4)
    lam1 = IndexSet2D.rect(3, 3)
    r2 = rho2(edge, lam1)
    r2_search = rho2_rayleigh_search(edge, lam1, n_starts=30, refine_steps=300, seed=2)
    rho2_ok = abs(r2 - r2_search) < 0.01 * r2

    chk = subspace_check(Phantom(edge, (1.0, 0.0), oversample=8),
                         IndexSet2D.rect(5, 5), IndexSet2D.rect(65, 65),
                         n_points=40, seed=1)
    lemma_ok = chk.contrast > 1e2 and chk.col_span_dim == chk.rank

    gamma = IndexSet2D.rect(17, 17)
    lam1p = IndexSet2D.rect(5, 5)
    edge_p = random_edge_polynomial(IndexSet2D.rect(3, 3), seed=6)
    r = predicted_rank(lam1p, IndexSet2D.rect(3, 3))
    levels = [r // 2, 120, 190, len(gamma)]
    res = phase_transition(edge_p, lam1p, gamma, levels, trials=4, seed=0)
    phase_ok = (
        res.success_fractions[0] == 0.0
        and res.success_fractions[-1] == 1.0
        and res.monotone_within_noise()
    )
    ok = rho2_ok and lemma_ok and phase_ok
    verdict(9, "theory suite", ok,
            f"rho2 gap {abs(r2 - r2_search) / r2:.2e}; lemma contrast {chk.contrast:.0f}, "
            f"span {chk.col_span_dim}/{chk.rank}; phase {res.success_fractions}")
