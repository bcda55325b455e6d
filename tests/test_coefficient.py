"""Coefficient model: constants, symmetries, certification."""

import math

import numpy as np
import pytest

from levyhom import (ModelParams, PeriodicCoefficient, PositivityUncertified,
                     SymmetryViolation, certify, compute_c0,
                     constant_coefficient, delta0_and_d0, effective_mu,
                     oracle_c0, rate_function, theory_constants,
                     theta_modulus, v_alpha, validate_coefficient)
from conftest import make_t1, make_t2, random_band_limited


class TestC0:
    def test_d1_alpha1_is_pi(self):
        assert compute_c0(ModelParams(1, 1.0)) == pytest.approx(math.pi, rel=1e-12)

    def test_d2_alpha1_is_two_pi(self):
        assert compute_c0(ModelParams(2, 1.0)) == pytest.approx(2 * math.pi, rel=1e-12)

    def test_divergence_near_two(self):
        # grows like (2 - alpha)^(-1); the measured ratio at 1.99 vs 1.5 is ~30
        c_mid = compute_c0(ModelParams(1, 1.5))
        c_hot = compute_c0(ModelParams(1, 1.99))
        c_hotter = compute_c0(ModelParams(1, 1.999))
        assert c_hot > 25 * c_mid
        assert c_hotter / c_hot == pytest.approx(10.0, rel=0.05)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_quadrature_cross_check(self, d, alpha):
        params = ModelParams(d, alpha)
        val, _ = oracle_c0(params)
        assert val == pytest.approx(compute_c0(params), rel=1e-3)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ModelParams(4, 1.0)
        with pytest.raises(ValueError):
            ModelParams(1, 2.0)
        with pytest.raises(ValueError):
            ModelParams(1, 0.0)


class TestVAlpha:
    def test_zero(self):
        assert v_alpha(ModelParams(1, 1.0), [0.0]) == 0.0

    def test_value(self):
        # c0(1,1) = pi, so V(pi/2) = pi^2/2
        params = ModelParams(1, 1.0)
        assert v_alpha(params, [math.pi / 2]) == pytest.approx(math.pi ** 2 / 2, rel=1e-12)

    def test_even(self):
        params = ModelParams(2, 0.7)
        xi = np.array([0.3, -1.1])
        assert v_alpha(params, xi) == v_alpha(params, -xi)


class TestEffectiveMu:
    def test_constant(self):
        assert effective_mu(constant_coefficient(1, 1.0)) == 1.0

    def test_t1_t2(self):
        assert effective_mu(make_t1()) == 1.0
        assert effective_mu(make_t2()) == 1.0

    def test_imaginary_mean_rejected(self):
        bad = PeriodicCoefficient(1, {((0,), (0,)): 1.0 + 1e-6j})
        with pytest.raises(SymmetryViolation):
            effective_mu(bad)


class TestValidation:
    def test_constant_exact(self):
        cert = validate_coefficient(constant_coefficient(1, 1.0))
        assert cert.lipschitz == 0.0
        assert cert.mu_minus == 1.0
        assert cert.mu_plus == 1.0

    def test_t1_bounds(self):
        cert = validate_coefficient(make_t1())
        # exact range of 1 + 0.5 cos is [0.5, 1.5]; certification is conservative
        assert 0.5 - 0.05 <= cert.mu_minus <= 0.5
        assert 1.5 <= cert.mu_plus <= 1.5 + 0.05

    def test_exchange_violation(self):
        bad = PeriodicCoefficient(1, {
            ((0,), (0,)): 1.0,
            ((1,), (0,)): 0.3, ((-1,), (0,)): 0.3,
            ((0,), (1,)): 0.2, ((0,), (-1,)): 0.2,
        })
        with pytest.raises(SymmetryViolation):
            validate_coefficient(bad)

    def test_conjugate_violation(self):
        bad = PeriodicCoefficient(1, {((0,), (0,)): 1.0,
                                      ((1,), (-1,)): 0.1 + 0.05j,
                                      ((-1,), (1,)): 0.1 + 0.05j})
        with pytest.raises(SymmetryViolation):
            validate_coefficient(bad)

    def test_positivity_uncertified(self):
        # 1 + 1.2 cos(2 pi (x - y)) dips to -0.2
        bad = PeriodicCoefficient(1, {((0,), (0,)): 1.0,
                                      ((1,), (-1,)): 0.6, ((-1,), (1,)): 0.6})
        with pytest.raises(PositivityUncertified):
            validate_coefficient(bad)

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError):
            validate_coefficient(constant_coefficient(1, 1.0), grid_points_per_dim=8)

    def test_certified_random_mu_eff_in_bounds(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            coeff = certify(random_band_limited(rng))
            mu0 = effective_mu(coeff)
            assert coeff.mu_minus <= mu0 <= coeff.mu_plus

    def test_d2_certification(self):
        cert = validate_coefficient(make_t2(dimension=2), grid_points_per_dim=32)
        assert cert.mu_minus > 0.0
        assert cert.mu_plus < 2.0

    @pytest.mark.parametrize(
        "coeff", [make_t2(dimension=2),
                  random_band_limited(np.random.default_rng(3), 2)],
        ids=["t2", "random"])
    def test_grid_extremes_match_pointwise_mu_d2(self, coeff):
        # 32 points per coordinate make a 1024 x 1024 (x, y) grid, several
        # chunks of the separable product; here mu is summed term by term
        grid = 32
        axis = np.arange(grid) / grid
        pts = np.stack(np.meshgrid(axis, axis, indexing="ij"), -1).reshape(-1, 2)
        mu = np.zeros((len(pts), len(pts)), dtype=complex)
        for (k, l), amp in coeff.modes.items():
            phase = (pts @ np.array(k))[:, None] + (pts @ np.array(l))[None, :]
            mu += amp * np.exp(2j * np.pi * phase)
        cert = validate_coefficient(coeff, grid_points_per_dim=grid)
        assert cert.grid_min == pytest.approx(mu.real.min(), rel=0.0, abs=1e-14)
        assert cert.grid_max == pytest.approx(mu.real.max(), rel=0.0, abs=1e-14)


class TestGapConstants:
    def test_delta0_formula(self):
        # alpha=1, mu-=0.5, mu+=1.5 -> delta0 = pi/9
        from dataclasses import replace
        coeff = replace(constant_coefficient(1, 1.0), mu_minus=0.5, mu_plus=1.5)
        params = ModelParams(1, 1.0)
        delta0, d0 = delta0_and_d0(params, coeff)
        assert delta0 == pytest.approx(math.pi / 9, rel=1e-12)
        assert d0 == pytest.approx(math.pi ** 2 / 2, rel=1e-12)

    def test_constant_delta0(self):
        for alpha in (0.5, 1.0, 1.5):
            params = ModelParams(1, alpha)
            coeff = certify(constant_coefficient(1, 1.0))
            delta0, _ = delta0_and_d0(params, coeff)
            assert delta0 == pytest.approx(math.pi * 3 ** (-1 / alpha), rel=1e-12)
            assert delta0 < math.pi

    def test_requires_certification(self):
        params = ModelParams(1, 1.0)
        with pytest.raises(ValueError):
            delta0_and_d0(params, constant_coefficient(1, 1.0))


class TestTheta:
    def test_alpha_one_spot_values(self):
        assert theta_modulus(1.0, math.exp(-1.0)) == pytest.approx(2 / math.e, rel=1e-12)
        assert theta_modulus(1.0, 1.0) == 1.0

    def test_branches(self):
        assert theta_modulus(0.5, 0.04) == pytest.approx(0.2, rel=1e-12)
        assert theta_modulus(1.5, 0.04) == 0.04
        assert theta_modulus(0.5, 0.0) == 0.0
        assert theta_modulus(1.0, 0.0) == 0.0

    def test_monotone(self):
        for alpha in (0.5, 1.0, 1.5):
            grid = np.linspace(1e-6, math.pi * math.sqrt(3), 300)
            vals = [theta_modulus(alpha, r) for r in grid]
            assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_matches_rate_function(self):
        # the scalar math path and the array numpy path read one table row
        r = np.geomspace(1e-4, 3.0, 50)
        for alpha in (0.5, 1.0, 1.5):
            scalar = [theta_modulus(alpha, v) for v in r]
            np.testing.assert_allclose(rate_function(alpha, "theta", r), scalar,
                                       rtol=1e-14)

    def test_theory_constants_bundle(self, t2, params_half):
        const = theory_constants(params_half, t2)
        assert 0.0 < const.delta0 < math.pi
        assert const.d0 == pytest.approx(
            const.mu_minus * const.c0 * math.pi ** 0.5, rel=1e-12)
        assert const.mu_minus <= const.mu_eff <= const.mu_plus
