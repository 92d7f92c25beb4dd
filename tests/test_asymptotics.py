from __future__ import annotations

import math

import numpy as np
import pytest

import epdtail as et
from oracles import asym_var_raw, mse_opt_weighted, mu_opt, sigma2_opt

GRID_XI = (0.25, 0.5, 1.0)
GRID_RHO = (-2.0, -1.0, -0.5)
GRID_LAM = (1e-3, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0)


def _regime(xi, rho, lam, zeta):
    return et.AsymptoticRegime(xi=xi, rho=rho, lam=lam, zeta=zeta)


class TestRegime:
    def test_requires_zeta(self):
        with pytest.raises(TypeError):
            et.AsymptoticRegime(xi=0.5, rho=-1.0, lam=1.0)

    @pytest.mark.parametrize("zeta", [-1.0, -math.inf, math.nan])
    def test_negative_zeta_rejected(self, zeta):
        with pytest.raises(ValueError, match="zeta"):
            _regime(0.5, -1.0, 1.0, zeta)


class TestMeanVar:
    def test_mean_hand_value(self):
        assert et.asym_mean(_regime(0.5, -1.0, 1.0, 0.75)) == pytest.approx(-0.5 * 0.75 / 1.75)

    def test_var_hand_value(self):
        assert et.asym_var(_regime(0.5, -1.0, 1.0, 0.75)) == pytest.approx(0.25 * 6.0625 / 3.0625)

    def test_zero_zeta_is_unbiased_with_ml_variance(self):
        r = _regime(0.5, -1.0, 1.0, 0.0)
        assert et.asym_mean(r) == 0.0
        assert et.asym_var(r) == pytest.approx(et.limit_mse("epd_ml", 0.5, -1.0, 1.0))

    def test_large_zeta_tends_to_hill(self):
        r = _regime(0.5, -1.0, 1.0, 1e12)
        assert et.asym_mean(r) == pytest.approx(-0.5 / 1.75 * 1.75, rel=1e-10)  # lam*rho/(1-rho)
        assert et.asym_var(r) == pytest.approx(0.25, rel=1e-10)
        r_inf = _regime(0.5, -1.0, 1.0, math.inf)
        assert et.asym_mean(r_inf) == pytest.approx(1.0 * -1.0 / 2.0)
        assert et.asym_var(r_inf) == 0.25

    def test_raw_and_stable_forms_agree(self):
        for xi in GRID_XI:
            for rho in GRID_RHO:
                for zeta in (0.0, 0.3, 2.0, 50.0):
                    r = _regime(xi, rho, 1.0, zeta)
                    assert et.asym_var(r) == pytest.approx(asym_var_raw(r), rel=1e-10)


class TestOptima:
    def test_zeta_opt_hand_value(self):
        assert et.zeta_opt(0.5, -1.0, 1.0) == pytest.approx(0.75)

    def test_zeta_opt_scaling(self):
        assert et.zeta_opt(1.0, -1.0, 1.0) == pytest.approx(4.0 * et.zeta_opt(0.5, -1.0, 1.0))
        assert et.zeta_opt(0.5, -1.0, 1e6) == pytest.approx(0.0, abs=1e-9)

    def test_zeta_opt_sentinel_at_zero_bias(self):
        assert et.zeta_opt(0.5, -1.0, 0.0) == math.inf

    def test_mu_opt_hand_value(self):
        assert mu_opt(-1.0, 1.0) == pytest.approx(4.0)
        assert mu_opt(-1.0, 0.0) == 0.0

    def test_sigma2_opt(self):
        assert sigma2_opt(-1.0, 0.3) == pytest.approx(4.0 * 0.09)

    def test_mu_and_zeta_opt_consistent(self):
        for xi in GRID_XI:
            for rho in GRID_RHO:
                for lam in (0.1, 1.0, 5.0):
                    mu = mu_opt(rho, lam)
                    implied = xi * xi * (1 - 2 * rho) * (1 - rho) ** 2 / mu
                    assert implied == pytest.approx(et.zeta_opt(xi, rho, lam), rel=1e-12)


class TestMSE:
    def test_zero_bias_scale(self):
        for xi in GRID_XI:
            for rho in GRID_RHO:
                assert et.mse_opt(xi, rho, 0.0) == pytest.approx(xi * xi, rel=1e-12)

    def test_large_lambda_tends_to_ml(self):
        for xi in GRID_XI:
            for rho in GRID_RHO:
                target = et.limit_mse("epd_ml", xi, rho, 1e8)
                assert et.mse_opt(xi, rho, 1e8) == pytest.approx(target, rel=1e-6)

    def test_weighted_form_identity(self):
        for xi in GRID_XI:
            for rho in GRID_RHO:
                for lam in GRID_LAM:
                    assert et.mse_opt(xi, rho, lam) == pytest.approx(
                        mse_opt_weighted(xi, rho, lam), rel=1e-10
                    )

    def test_equals_bias_squared_plus_variance_at_optimum(self):
        for xi in GRID_XI:
            for rho in GRID_RHO:
                for lam in GRID_LAM:
                    r = _regime(xi, rho, lam, et.zeta_opt(xi, rho, lam))
                    direct = et.asym_mean(r) ** 2 + et.asym_var(r)
                    assert et.mse_opt(xi, rho, lam) == pytest.approx(direct, rel=1e-10)

    def test_never_exceeds_ml(self):
        for xi in GRID_XI:
            for rho in GRID_RHO:
                for lam in GRID_LAM:
                    assert et.mse_opt(xi, rho, lam) <= et.limit_mse("epd_ml", xi, rho, lam) + 1e-9

    def test_small_lambda_follows_hill(self):
        lam = 1e-3
        for xi in GRID_XI:
            for rho in GRID_RHO:
                gap = abs(et.mse_opt(xi, rho, lam) - et.limit_mse("hill", xi, rho, lam))
                assert gap / lam ** 2 < 0.05

    def test_correction_increasing_in_lambda_squared(self):
        for xi in GRID_XI:
            for rho in GRID_RHO:
                vals = [et.mse_opt(xi, rho, lam) - xi * xi for lam in GRID_LAM]
                assert all(a < b for a, b in zip(vals, vals[1:]))


class TestLimitMSE:
    def test_hill_at_zero_lambda(self):
        assert et.limit_mse("hill", 0.5, -1.0, 0.0) == pytest.approx(0.25)

    def test_ml_independent_of_lambda(self):
        assert et.limit_mse("epd_ml", 0.5, -1.0, 0.0) == et.limit_mse("epd_ml", 0.5, -1.0, 7.0)

    def test_ml_hand_value(self):
        assert et.limit_mse("epd_ml", 0.5, -1.0, 1.0) == pytest.approx(1.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown kind"):
            et.limit_mse("weissman", 0.5, -1.0, 1.0)
