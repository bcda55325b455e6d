"""Coefficient model: constants, symmetries, certification."""

import math

import numpy as np
import pytest
from scipy.special import gamma as scipy_gamma

from levyhom import (ModelParams, PeriodicCoefficient, PositivityUncertified,
                     QuadratureNotConverged, SymmetryViolation, certify, compute_c0,
                     constant_coefficient, effective_mu, oracle_c0,
                     oracle_form_element, rate_function, theory_constants, v_alpha)
from levyhom import coefficient
from levyhom.coefficient import (ORACLE_ABS_TOL, ORACLE_LIMIT, ORACLE_REL_TOL, _gamma,
                                 _grid_min_max, _quad, _quadpack)
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

    @pytest.mark.parametrize("d", [1, 2, 3])
    # the line integral's first QAGP core pass stays unflagged up to
    # alpha = 1.99904 and reports divergence (ier = 5) above it, in every
    # dimension; the second pass holds it to 1.9991
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 1.9, 1.99])
    def test_quadrature_cross_check(self, d, alpha):
        params = ModelParams(d, alpha)
        val = oracle_c0(params)
        assert val == pytest.approx(compute_c0(params), rel=1e-3)

    @pytest.mark.parametrize("alpha", [0.2, 0.5])
    def test_d2_bessel_tail_to_the_gamma_value(self, alpha):
        # named for the J0 route this oracle once took at d = 2; small alpha
        # makes the line integral's oscillatory tail beyond the cut matter most
        params = ModelParams(2, alpha)
        assert oracle_c0(params) == pytest.approx(compute_c0(params), rel=1e-9)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_alpha_sweep_to_the_gamma_value(self, d):
        # the line integral times the transverse factor; over 80 alphas the
        # worst relative error was 4.7e-11 at d = 1, 2 and 3 alike
        for alpha in np.linspace(0.01, 1.999, 20):
            params = ModelParams(d, float(alpha))
            assert oracle_c0(params) == pytest.approx(compute_c0(params), rel=1e-9)

    @pytest.mark.parametrize("d", [1, 2])
    def test_windows_above_1865_to_the_gamma_value(self, d):
        # one alpha in each window where a form element's first core pass is
        # refused, and 1.9991, where c0's own first pass reports divergence
        for alpha in (1.86525, 1.9061, 1.95822, 1.996, 1.9991):
            params = ModelParams(d, alpha)
            assert oracle_c0(params) == pytest.approx(compute_c0(params), rel=1e-9)

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 1.9, 1.999])
    def test_line_integral_is_the_unit_form_element(self, alpha):
        # c0's line integral is the unit coefficient's form element (0, 0) at
        # xi = 1, bit for bit; d = 2 and 3 multiply it by the transverse factor
        unit = constant_coefficient(1)
        line = oracle_form_element(unit, ModelParams(1, alpha), 0, 0, 1.0).real
        assert oracle_c0(ModelParams(1, alpha)) == line
        for d in (2, 3):
            assert (oracle_c0(ModelParams(d, alpha))
                    == line * coefficient._transverse_factor(d, alpha))

    def test_quadpack_flag_raises(self, monkeypatch):
        def flagged(*args, **kwargs):
            return 1.0, 0.0, 1  # ier = 1: the subdivision limit was reached

        monkeypatch.setattr(coefficient, "_quadpack", flagged)
        with pytest.raises(QuadratureNotConverged):
            oracle_c0(ModelParams(1, 1.0))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ModelParams(4, 1.0)
        with pytest.raises(ValueError):
            ModelParams(1, 2.0)
        with pytest.raises(ValueError):
            ModelParams(1, 0.0)


class TestQuadpack:
    """`_quad` calls QUADPACK's compiled routines without scipy.integrate's
    package; these pin it to `scipy.integrate.quad` bit for bit in each call
    form the package makes, guarding the private signatures."""

    ALPHA = 0.5

    def _mid(self, z):
        return (1.0 - math.cos(z)) / z ** (1 + self.ALPHA)

    def _core(self, z):
        # scaled to |value| ~ 90, where epsabs and epsrel set different
        # targets, so swapping them shows
        return (200.0 * math.sin(0.7 * z) * math.sin(3.5 * z) * math.cos(5.0 * z)
                / abs(z) ** (1 + self.ALPHA))

    def _tail(self, z):
        return z ** (-1 - self.ALPHA)

    @pytest.mark.parametrize("form", ["qags", "qagp", "qawf-cos", "qawf-sin"])
    def test_bitwise_scipy_quad(self, form):
        from scipy.integrate import quad
        tol = (ORACLE_ABS_TOL / 16.0, ORACLE_REL_TOL / 16.0)
        f, lo, hi, kwargs = {
            "qags": (self._mid, 1.0, 50.0, dict(limit=400)),
            "qagp": (self._core, -40.0, 40.0,
                     dict(points=[0.0], limit=ORACLE_LIMIT, epsabs=tol[0],
                          epsrel=tol[1])),
            "qawf-cos": (self._tail, 50.0, np.inf, dict(weight="cos", wvar=1.0)),
            "qawf-sin": (self._tail, 50.0, np.inf, dict(weight="sin", wvar=1.0)),
        }[form]
        val, err, _ = quad(f, lo, hi, full_output=1, **kwargs)  # 3 items: ier = 0
        assert _quadpack(f, lo, hi, **kwargs) == (val, err, 0)
        assert _quad(f, lo, hi, **kwargs) == val

    def test_starved_limit_raises_with_label(self):
        from scipy.integrate import quad
        kwargs = dict(points=[0.0], limit=2)
        val, err, _, message = quad(self._core, -40.0, 40.0, full_output=1, **kwargs)
        assert "subdivisions (2)" in message
        assert _quadpack(self._core, -40.0, 40.0, **kwargs) == (val, err, 1)
        with pytest.raises(QuadratureNotConverged, match=r"starved core over .*ier = 1"):
            _quad(self._core, -40.0, 40.0, label="starved core", **kwargs)

    @pytest.mark.parametrize("kwargs", [dict(epsabs=0.0, epsrel=1e-20),
                                        dict(weight="cos", wvar=1.0, limlst=2)])
    def test_invalid_input_is_value_error(self, kwargs):
        from scipy.integrate import quad
        hi = np.inf if "weight" in kwargs else 50.0
        with pytest.raises(ValueError):
            quad(self._tail, 1.0, hi, **kwargs)
        with pytest.raises(ValueError, match="ier = 6"):
            _quad(self._tail, 1.0, hi, **kwargs)


class TestGamma:
    # c0 and c1 are formed from these Gamma values, and the stored outputs
    # depend on c0's last bit, so the port must match scipy's bits exactly
    def test_bitwise_scipy_at_c0_c1_arguments(self):
        alphas = [i / 100 for i in range(1, 200)]
        alphas += [float(a) for a in np.linspace(0.0, 2.0, 4001)[1:-1]]
        args = {x for a in alphas
                for x in (-a / 2.0, (1 + a) / 2.0, *((d + a) / 2.0 for d in (1, 2, 3)))}
        bad = [x for x in sorted(args) if _gamma(x) != scipy_gamma(x)]
        assert bad == []

    def test_bitwise_scipy_on_domain_sample(self):
        rng = np.random.default_rng(20240)
        xs = np.concatenate([rng.uniform(-1.0, 3.0, 20000),
                             [-1e-10, 1e-10, 0.5, 0.75, 1.0, 2.0,
                              np.nextafter(-1.0, 0.0), np.nextafter(3.0, 0.0)]])
        bad = [x for x in map(float, xs) if _gamma(x) != scipy_gamma(x)]
        assert bad == []

    @pytest.mark.parametrize("x", [-1.0, 0.0, 3.0, -1.5, 4.0, math.inf, math.nan])
    def test_outside_domain_raises(self, x):
        with pytest.raises(ValueError):
            _gamma(x)


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
        # a zero Lipschitz margin leaves the grid extremes untouched
        coeff = certify(constant_coefficient(1, 1.0))
        assert coeff.mu_minus == 1.0
        assert coeff.mu_plus == 1.0

    def test_t1_bounds(self):
        coeff = certify(make_t1())
        # exact range of 1 + 0.5 cos is [0.5, 1.5]; certification is conservative
        assert 0.5 - 0.05 <= coeff.mu_minus <= 0.5
        assert 1.5 <= coeff.mu_plus <= 1.5 + 0.05

    def test_exchange_violation(self):
        bad = PeriodicCoefficient(1, {
            ((0,), (0,)): 1.0,
            ((1,), (0,)): 0.3, ((-1,), (0,)): 0.3,
            ((0,), (1,)): 0.2, ((0,), (-1,)): 0.2,
        })
        with pytest.raises(SymmetryViolation):
            certify(bad)

    def test_conjugate_violation(self):
        bad = PeriodicCoefficient(1, {((0,), (0,)): 1.0,
                                      ((1,), (-1,)): 0.1 + 0.05j,
                                      ((-1,), (1,)): 0.1 + 0.05j})
        with pytest.raises(SymmetryViolation):
            certify(bad)

    def test_positivity_uncertified(self):
        # 1 + 1.2 cos(2 pi (x - y)) dips to -0.2
        bad = PeriodicCoefficient(1, {((0,), (0,)): 1.0,
                                      ((1,), (-1,)): 0.6, ((-1,), (1,)): 0.6})
        with pytest.raises(PositivityUncertified):
            certify(bad)

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError):
            certify(constant_coefficient(1, 1.0), grid_points_per_dim=8)

    def test_certified_random_mu_eff_in_bounds(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            coeff = certify(random_band_limited(rng))
            mu0 = effective_mu(coeff)
            assert coeff.mu_minus <= mu0 <= coeff.mu_plus

    def test_d2_certification(self):
        coeff = certify(make_t2(dimension=2), grid_points_per_dim=32)
        assert coeff.mu_minus > 0.0
        assert coeff.mu_plus < 2.0

    @pytest.mark.parametrize("dimension,grid", [(1, 64), (2, 32), (3, 12)],
                             ids=["d1", "d2", "d3"])
    @pytest.mark.parametrize("draw", ["t2", "random"])
    def test_grid_extremes_match_pointwise_mu(self, draw, dimension, grid):
        # grid^d points make a grid^d x grid^d (x, y) grid, several chunks of
        # the separable product at d = 2 and 3; here mu is summed term by term
        coeff = (make_t2(dimension) if draw == "t2"
                 else random_band_limited(np.random.default_rng(3), dimension))
        axis = np.arange(grid) / grid
        pts = np.stack(np.meshgrid(*([axis] * dimension), indexing="ij"),
                       -1).reshape(-1, dimension)
        mu = np.zeros((len(pts), len(pts)))
        for (k, l), amp in coeff.modes.items():
            phase = (pts @ np.array(k))[:, None] + (pts @ np.array(l))[None, :]
            mu += (amp * np.exp(2j * np.pi * phase)).real
        lo, hi = _grid_min_max(coeff, grid)
        assert lo == pytest.approx(mu.min(), rel=0.0, abs=1e-14)
        assert hi == pytest.approx(mu.max(), rel=0.0, abs=1e-14)

    @pytest.mark.parametrize("dimension,grid", [(1, 64), (2, 32), (3, 12)],
                             ids=["d1", "d2", "d3"])
    @pytest.mark.parametrize("draw", ["t2", "random"])
    def test_grid_extremes_do_not_depend_on_the_block(self, draw, dimension, grid,
                                                      monkeypatch):
        # the fewest rows a block may hold, and the whole grid in one block,
        # give the default's min and max bit for bit
        coeff = (make_t2(dimension) if draw == "t2"
                 else random_band_limited(np.random.default_rng(3), dimension))
        default = _grid_min_max(coeff, grid)
        for floats in (1, grid ** (2 * dimension)):
            monkeypatch.setattr(coefficient, "GRID_BLOCK_FLOATS", floats)
            assert _grid_min_max(coeff, grid) == default

    def test_grid_extremes_in_one_chunk_each_d3(self):
        # mu = 1 + c (g(x) + g(y)), g(x) = sum_j s(x_j), on a 10^3 point
        # grid, with s(t) = sum_{n <= 4} sin(2 pi n t) / n odd: on the grid
        # its max is at t = 0.1 only and its min at t = 0.9 only.  The 1 MB
        # block holds 131 rows, so 8 row chunks, the last from row 917.  The
        # max sits only at x = y = (0.1, 0.1, 0.1) (row 111, first chunk)
        # and the min only at x = y = (0.9, 0.9, 0.9) (row 999, last chunk),
        # both on the diagonal, so no chunk and no diagonal block can be
        # skipped
        assert 111 < coefficient.GRID_BLOCK_FLOATS // 1000 < 1000
        c = 0.05
        modes = {((0, 0, 0), (0, 0, 0)): complex(1.0)}
        for j in range(3):
            for n in range(1, 5):
                e = tuple(n * int(i == j) for i in range(3))
                ne = tuple(-v for v in e)
                # sin(2 pi n t) / n = (e^(2 pi i n t) - e^(-2 pi i n t)) / (2 i n)
                modes[(e, (0, 0, 0))] = modes[((0, 0, 0), e)] = c / (2j * n)
                modes[(ne, (0, 0, 0))] = modes[((0, 0, 0), ne)] = -c / (2j * n)
        peak = sum(math.sin(0.2 * math.pi * n) / n for n in range(1, 5))
        lo, hi = _grid_min_max(PeriodicCoefficient(3, modes), 10)
        assert lo == pytest.approx(1.0 - 6 * c * peak, rel=0.0, abs=1e-14)
        assert hi == pytest.approx(1.0 + 6 * c * peak, rel=0.0, abs=1e-14)


class TestGapConstants:
    def test_delta0_formula(self):
        # alpha=1, mu-=0.5, mu+=1.5 -> delta0 = pi/9
        from dataclasses import replace
        coeff = replace(constant_coefficient(1, 1.0), mu_minus=0.5, mu_plus=1.5)
        params = ModelParams(1, 1.0)
        const = theory_constants(params, coeff)
        assert const.delta0 == pytest.approx(math.pi / 9, rel=1e-12)
        assert const.d0 == pytest.approx(math.pi ** 2 / 2, rel=1e-12)

    def test_constant_delta0(self):
        for alpha in (0.5, 1.0, 1.5):
            params = ModelParams(1, alpha)
            coeff = certify(constant_coefficient(1, 1.0))
            delta0 = theory_constants(params, coeff).delta0
            assert delta0 == pytest.approx(math.pi * 3 ** (-1 / alpha), rel=1e-12)
            assert delta0 < math.pi

    def test_requires_certification(self):
        params = ModelParams(1, 1.0)
        with pytest.raises(ValueError):
            theory_constants(params, constant_coefficient(1, 1.0))


class TestTheta:
    def test_alpha_one_spot_values(self):
        assert rate_function(1.0, "theta", math.exp(-1.0)) == \
            pytest.approx(2 / math.e, rel=1e-12)
        assert rate_function(1.0, "theta", 1.0) == 1.0

    def test_branches(self):
        assert rate_function(0.5, "theta", 0.04) == pytest.approx(0.2, rel=1e-12)
        assert rate_function(1.5, "theta", 0.04) == 0.04

    def test_monotone(self):
        for alpha in (0.5, 1.0, 1.5):
            grid = np.linspace(1e-6, math.pi * math.sqrt(3), 300)
            vals = rate_function(alpha, "theta", grid)
            assert np.all(np.diff(vals) >= 0.0)

    def test_theory_constants_bundle(self, t2, params_half):
        const = theory_constants(params_half, t2)
        assert 0.0 < const.delta0 < math.pi
        assert const.d0 == pytest.approx(
            const.mu_minus * const.c0 * math.pi ** 0.5, rel=1e-12)
        assert const.mu_minus <= const.mu_eff <= const.mu_plus
