"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete. The heavier criteria (9, 10) share session-scoped
replicated studies.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from scipy.stats import kstest

import epdtail as et
from epdtail.bayes import ClosedFormError, _chain, _closed_forms
from epdtail.cli import main
from epdtail.data import excess_matrix
from epdtail.epd import _tail_probs
from conftest import pareto_excesses
from oracles import (
    batch_means_se,
    epd_sample,
    grid_map_oracle,
    law_survival,
    loglik,
    loglik_value_and_grad,
    mse_opt_weighted,
    oracle_first_order,
    oracle_metropolis,
    quadrature_xi_mean,
    solve_first_order,
    stack,
)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# ------------------------------------------------------------------ 1

def _survival(y, xi, delta, tau):
    """The model's survival at each y >= 1: ``_tail_probs`` at level 1, one lane per y."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    return _tail_probs(1.0, y, np.full(y.size, tau), np.full((y.size, 1), xi), np.full((y.size, 1), delta))[:, 0]


def test_criterion_01_pareto_reduction():
    worst = 0.0
    for xi in (0.25, 0.5, 1.0, 2.0):
        for y in (1.0, 1.5, 2.0, 10.0, 100.0):
            worst = max(worst, abs(_survival(y, xi, 0.0, -1.0)[0] - y ** (-1.0 / xi)))
    _report(1, "pareto-reduction", worst <= 1e-12, f"max |deviation| {worst:.2e}")


# ------------------------------------------------------------------ 2

def test_criterion_02_likelihood_gradients():
    rng = np.random.default_rng(220)
    worst = 0.0
    step = 1e-6
    for i in range(50):
        tau = -float(rng.uniform(0.3, 2.0))
        truth = float(rng.uniform(0.3, 1.5)), float(rng.uniform(-0.3, 0.8))
        lik = stack([(np.sort(epd_sample(*truth, tau, 100, (221, i)))[::-1].copy(), tau)])
        xi = float(rng.uniform(0.4, 1.2))
        delta = float(rng.uniform(max(et.delta_lower_bound(tau) + 0.2, -0.5), 1.0))
        _, g_xi, g_delta = loglik_value_and_grad(lik, xi, delta)
        fd_xi = (loglik(lik, xi + step, delta) - loglik(lik, xi - step, delta)) / (2 * step)
        fd_delta = (loglik(lik, xi, delta + step) - loglik(lik, xi, delta - step)) / (2 * step)
        worst = max(worst, abs(g_xi - fd_xi) / abs(fd_xi),
                    abs(g_delta - fd_delta) / abs(fd_delta))
    _report(2, "likelihood-gradients", worst <= 1e-6,
            f"worst relative gap {worst:.2e} over 50 points")


# ------------------------------------------------------------------ 3

def test_criterion_03_asymptotic_identities():
    xis = (0.25, 0.5, 1.0)
    rhos = (-2.0, -1.0, -0.5)
    lams = (1e-3, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0)
    worst_ab = 0.0
    sandwich_ok = True
    lam0_ok = True
    for xi in xis:
        for rho in rhos:
            lam0_ok &= abs(et.mse_opt(xi, rho, 0.0) - xi * xi) <= 1e-12 * xi * xi
            for lam in lams:
                v = et.mse_opt(xi, rho, lam)
                worst_ab = max(worst_ab, abs(v - mse_opt_weighted(xi, rho, lam)) / v)
                r = et.AsymptoticRegime(xi=xi, rho=rho, lam=lam,
                                        zeta=et.zeta_opt(xi, rho, lam))
                direct = et.asym_mean(r) ** 2 + et.asym_var(r)
                worst_ab = max(worst_ab, abs(v - direct) / v)
                sandwich_ok &= v <= et.limit_mse("epd_ml", xi, rho, lam) + 1e-9
    ok = worst_ab <= 1e-10 and sandwich_ok and lam0_ok
    _report(3, "asymptotic-identities", ok,
            f"worst identity gap {worst_ab:.2e}, sandwich {sandwich_ok}, lam0 {lam0_ok}")


# ------------------------------------------------------------------ 4

def test_criterion_04_closed_form_vs_map_oracle():
    """Closed form tracks the exact posterior mode; alternate conventions lose.

    At this threshold depth (k/n = 0.4) the Burr excess law sits far from
    the small-perturbation regime: the fitted amplitude is of order -1
    on essentially every sample, so the estimating system's linear branch
    has no real solution and the estimator's exact-mode route carries the
    comparison. The 0.05 agreement bound and the 45-of-50 count are
    asserted as stated; the observed |delta| distribution is reported.
    """
    n, k = 500, 200
    agree = small_delta = 0
    gaps_default, gaps_centering = [], []
    gaps_sign_default, gaps_sign_variant = [], []
    # the 50 samples as the lanes of one estimate, at k and at 50
    samples = [et.sample_distribution(et.burr(0.75, -0.75), n, (20250808, rep)) for rep in range(50)]
    values, keys = np.array([s.values for s in samples]), [(rep,) for rep in range(50)]
    rho = [et.resolve_rho(s)[0] for s in samples]
    cells = et.estimate_cells(values, rho, keys, k, ("bayes_closed",))
    cells50 = et.estimate_cells(values, rho, keys, 50, ("hill",))
    for y, tau, sigma2, (xi, delta, _), y50, tau50, s50 in zip(
            excess_matrix(values, k)[1], cells.tau.tolist(), cells.sigma2.tolist(), cells.estimates[:, 0].tolist(),
            excess_matrix(values, 50)[1], cells50.tau.tolist(), cells50.sigma2.tolist()):
        xi_map, _, _ = grid_map_oracle(y, tau, sigma2)
        gaps_default.append(abs(xi - xi_map))
        if abs(xi - xi_map) < 0.05:
            agree += 1
        if abs(delta) < 0.1:
            small_delta += 1
        # centering adjudication at the same design point
        try:
            xi_v, _ = oracle_first_order(y, tau, sigma2, centering="rate-reciprocal")
            gaps_centering.append(abs(xi_v - xi_map))
        except (ClosedFormError, ValueError):
            gaps_centering.append(math.inf)
        # prior-term-sign adjudication where the linear branch solves (k=50)
        try:
            xi_d, _ = solve_first_order(y50, tau50, 1.0 / (y50.size * s50))
            xi_s, _ = oracle_first_order(y50, tau50, s50, prior_term_sign=-1.0)
            xm, _, _ = grid_map_oracle(y50, tau50, s50)
            gaps_sign_default.append(abs(xi_d - xm))
            gaps_sign_variant.append(abs(xi_s - xm))
        except (ClosedFormError, ValueError):
            pass

    med_def = float(np.median(gaps_default))
    med_cent = float(np.median(gaps_centering))
    med_sd = float(np.median(gaps_sign_default))
    med_sv = float(np.median(gaps_sign_variant))
    centering_rejected = med_cent > 10.0 * max(med_def, 0.01) and med_cent > 0.5
    sign_rejected = len(gaps_sign_default) >= 30 and med_sv > 1.2 * med_sd
    ok = agree >= 45 and centering_rejected and sign_rejected
    _report(
        4, "closed-form-vs-map", ok,
        f"xi agreement on {agree}/50 (need >=45); samples with |delta|<0.1: "
        f"{small_delta}/50 (no small-perturbation regime at this threshold depth; "
        f"the fitted amplitude is order -1 here); centering variant median gap "
        f"{med_cent:.3f} vs default {med_def:.4f} -> rejected {centering_rejected}; "
        f"prior-sign variant median gap {med_sv:.4f} vs default {med_sd:.4f} "
        f"-> rejected {sign_rejected}",
    )


# ------------------------------------------------------------------ 5

def test_criterion_05_prior_limits():
    cases = []
    seed = 0
    while len(cases) < 20 and seed < 300:
        y = pareto_excesses(1.0, 100, (71, seed))
        tau = -1.0 / (float(np.add.reduce(np.log(y))) / y.size)
        try:
            solve_first_order(y, tau, 1.0 / (y.size * 1e12))
            cases.append((y, tau))
        except ClosedFormError:
            pass
        seed += 1
    assert len(cases) == 20, "could not assemble 20 datasets with a solvable flat-prior system"

    worst_flat = worst_delta = worst_xi = 0.0
    lik = stack(cases)
    for (y, tau), h, est_inf, est_0 in zip(cases, (lik.sum_log_y / lik.k).tolist(),
                                           _closed_forms(lik, [1e12] * 20), _closed_forms(lik, [1e-12] * 20)):
        assert est_inf[2] == "linear"
        xi_ml, d_ml = solve_first_order(y, tau, 0.0)
        worst_flat = max(worst_flat, abs(est_inf[0] - xi_ml), abs(est_inf[1] - d_ml))
        worst_delta = max(worst_delta, abs(est_0[1]))
        worst_xi = max(worst_xi, abs(est_0[0] - h))
    ok = worst_flat <= 1e-6 and worst_delta < 1e-6 and worst_xi < 1e-8
    _report(5, "prior-limits", ok,
            f"flat-prior vs ML system gap {worst_flat:.2e}; degenerate-prior "
            f"|delta| {worst_delta:.2e}, |xi - hill| {worst_xi:.2e} on 20 datasets")


# ------------------------------------------------------------------ 6

def test_criterion_06_mcmc_validity(burr_k200):
    y, tau, sigma2 = burr_k200
    cfg = et.MCMCConfig(iterations=12000, burn_in=2000, seed=606)
    chain = _chain(stack([(y, tau)]), 0, sigma2, cfg)
    chain_again = _chain(stack([(y, tau)]), 0, sigma2, cfg)
    identical = np.array_equal(chain.draws, chain_again.draws) and np.array_equal(
        chain.logpost, chain_again.logpost
    )
    xi_mode, _ = et.posterior_mode(chain)
    xi_map, _, _ = grid_map_oracle(y, tau, sigma2)
    mode_gap = abs(xi_mode - xi_map)

    # the delta = 0 slice: the reference chain, which moves xi alone
    slice_draws, _, _ = oracle_metropolis(
        y, tau, sigma2, et.MCMCConfig(iterations=12000, burn_in=2000, seed=607), fix_delta=0.0
    )
    mean_chain = float(slice_draws[:, 0].mean())
    mean_quad = quadrature_xi_mean(y, tau, sigma2)
    se = batch_means_se(slice_draws[:, 0])
    quad_ok = abs(mean_chain - mean_quad) <= 3.0 * se
    ok = identical and mode_gap < 0.05 and quad_ok
    _report(6, "mcmc-validity", ok,
            f"mode gap {mode_gap:.4f} (<0.05); slice mean gap "
            f"{abs(mean_chain - mean_quad):.5f} vs 3se {3 * se:.5f}; "
            f"bit-identical reruns {identical}")


# ------------------------------------------------------------------ 7

def test_criterion_07_hpd():
    draws = np.random.default_rng(2024).standard_normal(100_000)
    lo, hi = et.hpd_interval(draws, 0.05)
    normal_ok = abs(lo + 1.96) <= 0.05 and abs(hi - 1.96) <= 0.05
    grid_ok = et.hpd_interval(np.arange(1000.0), 0.05) == (0.0, 949.0)
    _report(7, "hpd-intervals", normal_ok and grid_ok,
            f"normal endpoints ({lo:.3f}, {hi:.3f}); uniform tie-break exact {grid_ok}")


# ------------------------------------------------------------------ 8

def test_criterion_08_sampler_correctness():
    targets = {
        "frechet": (lambda seed: et.sample_distribution(et.frechet(0.5), 10_000, seed).values,
                    lambda v: 1.0 - np.atleast_1d(law_survival(et.frechet(0.5), v))),
        "burr": (lambda seed: et.sample_distribution(et.burr(0.75, -0.75), 10_000, seed).values,
                 lambda v: 1.0 - (1.0 + np.asarray(v)) ** (-4.0 / 3.0)),
        # the test sampler, by bisection, against the library's survival formula
        "epd": (lambda seed: epd_sample(0.5, 0.3, -1.0, 10_000, seed),
                lambda v: 1.0 - _survival(v, 0.5, 0.3, -1.0)),
    }
    detail = []
    ok = True
    for name, (draw, cdf) in targets.items():
        passes = sum(kstest(draw((808, s)), cdf).pvalue > 0.01 for s in range(10))
        detail.append(f"{name} {passes}/10")
        ok &= passes >= 9
    _report(8, "sampler-ks", ok, "; ".join(detail))


# ------------------------------------------------------------------ 9 and 10

@pytest.fixture(scope="session")
def burr_study():
    cfg = et.MCStudyConfig(
        dist=et.burr(0.75, -0.75), n=500, reps=200,
        k_grid=tuple(range(90, 411, 5)),
        estimators=("hill", "epd_ml", "bayes_closed"),
        rho_mode="fraga", target_p=1 / 500, master_seed=202408,
        smooth_window=5,
    )
    return et.run_study(cfg, workers=2)


@pytest.fixture(scope="session")
def frechet_study():
    cfg = et.MCStudyConfig(
        dist=et.frechet(0.5), n=500, reps=200,
        k_grid=tuple(range(10, 61, 5)),
        estimators=("hill", "epd_ml", "bayes_closed"),
        rho_mode="fixed_minus_one", target_p=1 / 500, master_seed=202408,
        smooth_window=5,
    )
    return et.run_study(cfg, workers=2)


def test_criterion_09_burr_pattern(burr_study):
    res = burr_study
    h, m, b = res.metrics["hill"], res.metrics["epd_ml"], res.metrics["bayes_closed"]
    i300 = res.k_grid.index(300)
    bias_ok = abs(h.bias[i300]) > abs(m.bias[i300])
    report_ks = [100, 150, 200, 250, 300, 350, 400]
    idx = [res.k_grid.index(k) for k in report_ks]
    ratios = b.rel_mse[idx] / np.minimum(h.rel_mse[idx], m.rel_mse[idx])
    ratio_ok = bool(np.all(ratios <= 1.10))
    _report(9, "burr-figure-pattern", bias_ok and ratio_ok,
            f"|bias| hill {abs(h.bias[i300]):.3f} > ml {abs(m.bias[i300]):.3f} at k=300: "
            f"{bias_ok}; tail-prob relMSE ratio max {ratios.max():.3f} (<=1.10) "
            f"over k={report_ks}; exclusions {res.exclusion_fraction:.3%}")


def test_criterion_10_frechet_pattern(frechet_study):
    res = frechet_study
    h, m, b = res.metrics["hill"], res.metrics["epd_ml"], res.metrics["bayes_closed"]
    sel = [i for i, k in enumerate(res.k_grid) if k <= 50]
    within_hill = bool(np.all(b.mse[sel] <= 1.25 * h.mse[sel]))
    below_ml = bool(np.all(b.mse[sel] < m.mse[sel]))
    _report(10, "frechet-figure-pattern", within_hill and below_ml,
            f"bayes/hill MSE max {float(np.max(b.mse[sel] / h.mse[sel])):.3f} (<=1.25); "
            f"strictly below ML everywhere (k<=50): {below_ml}")


# ------------------------------------------------------------------ 11

def test_criterion_11_simulate_determinism(tmp_path):
    def run(out, workers):
        argv = ["simulate", "--dist", "burr:0.75:-0.75", "--n", "300", "--reps", "24",
                "--k-min", "30", "--k-max", "120", "--k-step", "30",
                "--rho", "auto", "--estimators", "hill,epd_ml,bayes_closed",
                "--target-p", "0.005", "--seed", "77", "--smooth-window", "5",
                "--workers", str(workers), "--out", str(out)]
        assert main(argv) == 0
        return out.read_bytes(), out.with_suffix(".json").read_bytes()

    c1, j1 = run(tmp_path / "a.csv", 1)
    c2, j2 = run(tmp_path / "b.csv", 1)
    c3, j3 = run(tmp_path / "c.csv", 2)
    identical = c1 == c2 == c3 and j1 == j2 == j3
    manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
    _report(11, "simulate-determinism", identical and manifest["command"] == "simulate",
            f"byte-identical across rerun and worker counts: {identical}")
