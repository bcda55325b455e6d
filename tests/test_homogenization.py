"""Resolvent discrepancies, the xi grid, rate fits, and the main study."""

import math

import numpy as np
import pytest

from levyhom import (DegenerateFit, ModeSet, ModelParams,
                     assemble_effective_fiber, assemble_fiber_matrix,
                     build_xi_grid, certify, compute_c0, discrepancy_study,
                     fiber_resolvent_diff, fit_rate, rate_bound,
                     threshold_resolvent_diff, theory_constants)
from levyhom.homogenization import _resolvent_diffs

from conftest import random_band_limited


class TestXiGrid:
    def test_contains_origin_and_stays_inside(self):
        grid = build_xi_grid(2, points_per_dim=6, radial_per_decade=3)
        pts = np.array(grid.points)
        assert np.any(np.all(pts == 0.0, axis=1))
        assert np.all(pts >= -math.pi) and np.all(pts < math.pi)

    def test_deterministic(self):
        g1 = build_xi_grid(1, points_per_dim=8, radial_per_decade=4)
        g2 = build_xi_grid(1, points_per_dim=8, radial_per_decade=4)
        assert len(g1) == len(g2)
        assert all(np.array_equal(a, b) for a, b in zip(g1.points, g2.points))

    def test_no_duplicates(self):
        grid = build_xi_grid(1, points_per_dim=16, radial_per_decade=4)
        keys = {tuple(p) for p in grid.points}
        assert len(keys) == len(grid)

    def test_radial_refinement_present(self):
        grid = build_xi_grid(1, points_per_dim=4, radial_per_decade=4)
        norms = sorted(float(np.linalg.norm(p)) for p in grid.points)
        assert norms[1] == pytest.approx(1e-4)   # smallest nonzero radius

    def test_rejects_decreasing_radial_exponents(self):
        with pytest.raises(ValueError):
            build_xi_grid(1, radial_min_exp=-0.5, radial_max_exp=-4.0)


class TestResolventDiff:
    def test_constant_coefficient_zero(self, t0, params_half):
        modes = ModeSet(1, 6)
        for xi, eps in (([0.0], 0.1), ([0.7], 0.01), ([2.0], 1.0)):
            assert fiber_resolvent_diff(t0, params_half, modes, xi, eps) == 0.0

    def test_zero_xi_bound(self, t2, params_one):
        const = theory_constants(params_one, t2)
        modes = ModeSet(1, 8)
        for eps in (1e-3, 1e-2, 1e-1):
            val = fiber_resolvent_diff(t2, params_one, modes, [0.0], eps)
            assert val <= 2.0 / (const.mu_minus * const.c0 * math.pi ** 1.0)

    def test_determinism_and_shift_identity(self, t2, params_three_halves):
        modes = ModeSet(1, 8)
        a = fiber_resolvent_diff(t2, params_three_halves, modes, [0.3], 0.01)
        b = fiber_resolvent_diff(t2, params_three_halves, modes, [0.3], 0.01)
        assert a == b
        # epsilon enters only through the spectral shift eps^alpha
        symbol = assemble_effective_fiber(params_three_halves, 1.0, modes, [0.3])
        shifted = _resolvent_diffs(t2, params_three_halves, modes, [0.3],
                                   symbol, [0.01 ** 1.5])
        assert a == shifted[0]

    def test_threshold_diff_constant_diagonal(self, t0, params_half):
        modes = ModeSet(1, 6)
        c0 = compute_c0(params_half)
        xi, eps = 0.02, 1e-2
        val = threshold_resolvent_diff(t0, params_half, modes, [xi], eps)
        shift = eps ** 0.5
        n = np.arange(-6, 7)
        diag = 1.0 / (c0 * np.abs(2 * np.pi * n + xi) ** 0.5 + shift)
        diag[6] = 0.0   # zero mode cancels exactly against the comparator
        assert val == pytest.approx(np.max(diag), rel=1e-12)
        assert val <= 1.0 / (c0 * math.pi ** 0.5)
        assert val <= 2.0 * eps ** (-0.5)

    def test_rejects_nonpositive_epsilon(self, t0, params_half):
        with pytest.raises(ValueError):
            fiber_resolvent_diff(t0, params_half, ModeSet(1, 4), [0.1], 0.0)

    @pytest.mark.parametrize("dimension,truncation", [(1, 16), (2, 4)])
    def test_zero_xi_matches_direct_inverse(self, dimension, truncation):
        # at xi = 0 the zero mode decouples; its exact share of the difference
        # is 1/s - 1/s = 0, which the eigensolve alone rounds to u ||A|| / s^2
        coeff = certify(random_band_limited(np.random.default_rng(0), dimension))
        params = ModelParams(dimension, 1.9)
        modes = ModeSet(dimension, truncation)
        xi, eps = np.zeros(dimension), 1e-3
        shift = eps ** params.alpha
        a = assemble_fiber_matrix(coeff, params, modes, xi).entries
        res = np.linalg.inv(a + shift * np.eye(modes.size))
        diag = assemble_effective_fiber(params, 1.0, modes, xi)
        effective = np.linalg.norm(res - np.diag(1.0 / (diag + shift)), 2)
        res[modes.zero_index, modes.zero_index] -= 1.0 / shift
        rank_one = np.linalg.norm(res, 2)
        assert fiber_resolvent_diff(coeff, params, modes, xi, eps) == \
            pytest.approx(effective, rel=1e-10)
        assert threshold_resolvent_diff(coeff, params, modes, xi, eps) == \
            pytest.approx(rank_one, rel=1e-10)


class TestFitRate:
    def test_exact_power(self):
        eps = np.geomspace(1e-1, 1e-3, 10)
        fit = fit_rate(list(zip(eps, eps ** 0.5)), alpha=0.5)
        assert fit.slope == pytest.approx(0.5, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.log_corrected_slope is None

    def test_log_corrected_exact(self):
        eps = np.geomspace(1e-1, 1e-3, 12)
        vals = 3.0 * eps * (1.0 + np.abs(np.log(eps))) ** 2
        fit = fit_rate(list(zip(eps, vals)), alpha=1.0)
        assert fit.log_corrected_slope == pytest.approx(1.0, abs=1e-6)

    def test_noisy_power(self):
        rng = np.random.default_rng(42)
        eps = np.geomspace(1e-1, 1e-3, 12)
        vals = eps ** 0.5 * (1.0 + 0.01 * rng.normal(size=eps.size))
        fit = fit_rate(list(zip(eps, vals)), alpha=0.5)
        assert 0.48 <= fit.slope <= 0.52

    def test_degenerate_cases(self):
        eps = np.geomspace(1e-1, 1e-3, 10)
        with pytest.raises(DegenerateFit):
            fit_rate(list(zip(eps, np.zeros_like(eps))), alpha=0.5)
        with pytest.raises(DegenerateFit):
            fit_rate(list(zip(eps, np.ones_like(eps))), alpha=0.5)
        with pytest.raises(DegenerateFit):
            fit_rate([(1e-1, 1.0), (1e-2, 0.5)], alpha=0.5)


class TestRateBound:
    def test_branches(self):
        eps = np.array([1e-2])
        assert rate_bound(0.5, eps)[0] == pytest.approx(0.1)
        assert rate_bound(1.5, eps)[0] == pytest.approx(np.sqrt(1e-2))
        expected = 1e-2 * (1 + abs(math.log(1e-2))) ** 2
        assert rate_bound(1.0, eps)[0] == pytest.approx(expected)


@pytest.fixture(scope="module")
def small_grid():
    return build_xi_grid(1, points_per_dim=8, radial_per_decade=3)


class TestDiscrepancyStudy:
    def test_epsilon_validation(self, t0, params_half, small_grid):
        modes = ModeSet(1, 4)
        with pytest.raises(ValueError):
            discrepancy_study(t0, params_half, modes, small_grid,
                              np.geomspace(1e-1, 1e-3, 5))       # too few
        with pytest.raises(ValueError):
            discrepancy_study(t0, params_half, modes, small_grid,
                              np.geomspace(1e-1, 5e-2, 9))       # short span
        with pytest.raises(ValueError):
            discrepancy_study(t0, params_half, modes, small_grid,
                              np.linspace(1e-3, 1e-1, 9))        # not log-spaced

    def test_constant_coefficient_exact(self, t0, params_half, small_grid):
        modes = ModeSet(1, 4)
        res = discrepancy_study(t0, params_half, modes, small_grid,
                                np.geomspace(1e-1, 1e-3, 8))
        assert res.exact
        assert np.all(res.discrepancies == 0.0)
        assert res.fitted_slope is None
        assert res.truncation_stability == 0.0

    def test_t2_study(self, t2, params_half, small_grid):
        modes = ModeSet(1, 8)
        eps = np.geomspace(1e-1, 1e-3, 8)
        res = discrepancy_study(t2, params_half, modes, small_grid, eps)
        assert not res.exact
        assert np.all(res.discrepancies >= 0.0)
        assert np.all(res.discrepancies <= 2.0)
        # decays along the study: last <= 0.2 x first over >= 1.5 decades
        assert res.discrepancies[-1] <= 0.2 * res.discrepancies[0]
        assert res.fitted_slope >= 0.4
        ratios = res.bound_ratios
        assert ratios.max() / ratios.min() <= 10.0
        assert res.truncation_stability <= 0.05
        assert res.epsilons[0] > res.epsilons[-1]

    def test_worker_determinism(self, t2, params_half, small_grid):
        modes = ModeSet(1, 8)
        eps = np.geomspace(1e-1, 1e-3, 8)
        r1 = discrepancy_study(t2, params_half, modes, small_grid, eps, workers=1)
        r8 = discrepancy_study(t2, params_half, modes, small_grid, eps, workers=8)
        assert np.array_equal(r1.discrepancies, r8.discrepancies)
        assert np.array_equal(r1.argmax_xi_norm, r8.argmax_xi_norm)

    def test_grid_doubling_stable(self, t2, params_half):
        grid = build_xi_grid(1, points_per_dim=8, radial_per_decade=3)
        modes = ModeSet(1, 8)
        res = discrepancy_study(t2, params_half, modes, grid,
                                np.geomspace(1e-1, 1e-3, 8), check_grid=True)
        assert res.grid_stability is not None
        assert res.grid_stability <= 0.02

    def test_alpha_one_warns_and_fits_log(self, t2, small_grid):
        params = ModelParams(1, 1.0)
        modes = ModeSet(1, 8)
        res = discrepancy_study(t2, params, modes, small_grid,
                                np.geomspace(1e-1, 1e-3, 8))
        assert res.warnings
        assert res.log_corrected_slope is not None
        assert res.log_corrected_slope >= 0.9

    def test_truncation_unstable_raises(self, t2, params_half, small_grid,
                                        monkeypatch):
        # band-limited coefficients are stable in practice; force the
        # doubled-truncation pass to disagree to exercise the error contract
        import levyhom.homogenization as hom
        real = hom._sup_over_grid

        def skewed(coeff, params, modes, grid, shifts, workers):
            vals, idx = real(coeff, params, modes, grid, shifts, workers)
            if modes.truncation > 8:
                vals = vals * 1.2
            return vals, idx

        monkeypatch.setattr(hom, "_sup_over_grid", skewed)
        with pytest.raises(hom.TruncationUnstable) as err:
            discrepancy_study(t2, params_half, ModeSet(1, 8), small_grid,
                              np.geomspace(1e-1, 1e-3, 8))
        assert err.value.result is not None
        assert err.value.result.truncation_stability > 0.05
