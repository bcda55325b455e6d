"""Coefficient model: constants, symmetries, certification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gamma as scipy_gamma

from levyhom import (ModelParams, PeriodicCoefficient, PositivityUncertified,
                     QuadratureNotConverged, SymmetryViolation, certify, compute_c0,
                     constant_coefficient, effective_mu, oracle_c0,
                     oracle_form_element, rate_function, theory_constants, v_alpha)
from levyhom import coefficient
from levyhom._util import UNIT_ROUNDOFF
from levyhom.coefficient import (ORACLE_LIMIT, _gamma, _grid_min_max, _oracle_tol,
                                 _quad, _quadpack)
from levyhom.config import StudyConfig
from conftest import CONFIGS, bench_module, make_t1, make_t2, random_band_limited


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

    def _transverse(self, p):
        return math.sin(p) * math.cos(p) ** self.ALPHA

    def _core(self, z):
        # scaled to |value| ~ 90, where epsabs and epsrel set different
        # targets, so swapping them shows
        return (200.0 * math.sin(0.7 * z) * math.sin(3.5 * z) * math.cos(5.0 * z)
                / abs(z) ** (1 + self.ALPHA))

    def _tail(self, z):
        return z ** (-1 - self.ALPHA)

    @staticmethod
    def _scipy_quad(f, lo, hi, **kwargs):
        """`scipy.integrate.quad`'s full output for `_quadpack`'s keywords;
        scipy selects QAWF by its cosine weight, `_quadpack` by wvar alone."""
        from scipy.integrate import quad
        if "wvar" in kwargs:
            kwargs["weight"] = "cos"
        return quad(f, lo, hi, full_output=1, **kwargs)

    @pytest.mark.parametrize("form", ["qags", "qagp", "qagp-retry", "qawf-cos"])
    def test_bitwise_scipy_quad(self, form):
        # the oracles' four calls: the transverse factor (limit 50, the
        # default), the core pass and its retry, and a tail at the defaults
        epsabs, epsrel = _oracle_tol()
        core = dict(limit=ORACLE_LIMIT, epsabs=epsabs, epsrel=epsrel)
        f, lo, hi, kwargs = {
            "qags": (self._transverse, 0.0, 0.5 * math.pi,
                     dict(epsabs=epsabs, epsrel=epsrel)),
            "qagp": (self._core, -40.0, 40.0, dict(points=[0.0], **core)),
            "qagp-retry": (self._core, -40.0, 40.0, dict(points=[-1.0, 0.0, 1.0], **core)),
            "qawf-cos": (self._tail, 50.0, np.inf, dict(wvar=1.0)),
        }[form]
        val, err, _ = self._scipy_quad(f, lo, hi, **kwargs)  # 3 items: ier = 0
        assert _quadpack(f, lo, hi, **kwargs) == (val, err, 0)
        assert _quad(f, lo, hi, **kwargs) == val

    def test_starved_limit_raises_with_label(self):
        kwargs = dict(points=[0.0], limit=2)
        val, err, _, message = self._scipy_quad(self._core, -40.0, 40.0, **kwargs)
        assert "subdivisions (2)" in message
        assert _quadpack(self._core, -40.0, 40.0, **kwargs) == (val, err, 1)
        with pytest.raises(QuadratureNotConverged, match=r"starved core over .*ier = 1"):
            _quad(self._core, -40.0, 40.0, label="starved core", **kwargs)

    @pytest.mark.parametrize("kwargs", [dict(epsabs=0.0, epsrel=1e-20),
                                        dict(wvar=1.0, limlst=2)])
    def test_invalid_input_is_value_error(self, kwargs):
        hi = np.inf if "wvar" in kwargs else 50.0
        with pytest.raises(ValueError):
            self._scipy_quad(self._tail, 1.0, hi, **kwargs)
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
        # a zero curvature leaves the grid extremes widened by the rounding
        # allowance alone, (4 K + M + 80) u S with K = M = 1 and S = 1
        coeff = certify(constant_coefficient(1, 1.0))
        assert coeff.mu_minus == 1.0 - 85 * UNIT_ROUNDOFF
        assert coeff.mu_plus == 1.0 + 85 * UNIT_ROUNDOFF

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
        with pytest.raises(ValueError, match="positivity_grid"):
            certify(constant_coefficient(1, 1.0), grid_points_per_dim=7)

    @pytest.mark.parametrize("dimension,grid", [(1, 1025), (2, 33), (3, 11)])
    def test_grid_above_the_cap_rejected(self, dimension, grid):
        with pytest.raises(ValueError, match="positivity_grid"):
            certify(constant_coefficient(dimension, 1.0), grid_points_per_dim=grid)

    @pytest.mark.parametrize("dimension,grid", [(1, 8), (1, 1024), (2, 32), (3, 10)])
    def test_grid_at_the_edges_of_the_admitted_range(self, dimension, grid):
        assert certify(constant_coefficient(dimension, 1.0),
                       grid_points_per_dim=grid).mu_minus > 0.0

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

    @pytest.mark.parametrize("dimension,grid", [(1, 64), (2, 32), (3, 10)],
                             ids=["d1", "d2", "d3"])
    @pytest.mark.parametrize("draw", ["t2", "random"])
    def test_grid_extremes_match_pointwise_mu(self, draw, dimension, grid):
        # grid^d points make a grid^d x grid^d (x, y) grid, one product of
        # the separable phase matrices; here mu is summed term by term
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


@st.composite
def certified_draws(draw):
    """(coefficient, grid): a random band-limited real coefficient at
    d = 1, 2 or 3 and a positivity grid of the admitted range."""
    d = draw(st.sampled_from([1, 2, 3]))
    grid = draw(st.sampled_from({1: [8, 16, 64, 256], 2: [8, 16, 32], 3: [8, 10]}[d]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_band_limited(rng, d, max_index=2 if d < 3 else 1), grid


def _mu_on_product(coeff, x, y):
    """mu at every pair of the points x (n, d) and y (m, d), term by term."""
    out = np.zeros((len(x), len(y)))
    for (k, l), amp in coeff.modes.items():
        out += (amp * np.outer(np.exp(2j * np.pi * (x @ np.array(k))),
                               np.exp(2j * np.pi * (y @ np.array(l))))).real
    return out


def _lattice(axis, d):
    return np.stack(np.meshgrid(*([axis] * d), indexing="ij"), -1).reshape(-1, d)


# mu-, mu+ of the first-order (Lipschitz) certificate this one replaced
FIRST_ORDER_BOUNDS = {
    "t1_alpha1": (0.48264498852281873, 1.5173550114771817),
    "t2_alpha05": (0.4826449885228189, 1.5173550114771812),
    "t2_d2": (0.40182522957531897, 1.5981747704246811),
    "t2_d3": (0.5095219068446505, 1.4904780931553494),
    "blocks-1": (0.41378872498381236, 1.5862112750161876),
    "blocks-2": (0.41378872498381236, 1.5862112750161876),
    "blocks-7": (0.4137887249838125, 1.5862112750161876),
    "dense-1": (0.6705475688725959, 1.3294524311274045),
    "dense-2": (0.6705475688725958, 1.3294524311274045),
    "dense-7": (0.6705475688725959, 1.329452431127404),
}


class TestCertifiedBounds:
    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(certified_draws())
    def test_mu_lies_within_the_bounds(self, draw):
        # mu on the 8x finer grid over the certificate grid cells around its
        # argmin and argmax, and at 4000 random points: a margin a quarter
        # of (h^2 / 8) sum (2 pi)^2 (|k|^2 + |l|^2) |mu_hat| fails here
        coeff, grid = draw
        d = coeff.dimension
        cert = certify(coeff, grid)
        coarse = _lattice(np.arange(grid) / grid, d)
        on_grid = _mu_on_product(coeff, coarse, coarse)
        box = _lattice(np.arange(-4, 5) / (8 * grid), d)
        for flat in (on_grid.argmin(), on_grid.argmax()):
            i, j = np.unravel_index(flat, on_grid.shape)
            fine = _mu_on_product(coeff, coarse[i] + box, coarse[j] + box)
            assert cert.mu_minus <= fine.min() and fine.max() <= cert.mu_plus
        rng = np.random.default_rng(grid)
        x, y = rng.random((2, 4000, d))
        at_random = sum((amp * np.exp(2j * np.pi * (x @ np.array(k) + y @ np.array(l)))).real
                        for (k, l), amp in coeff.modes.items())
        assert cert.mu_minus <= at_random.min() and at_random.max() <= cert.mu_plus

    @pytest.mark.parametrize("name", sorted(FIRST_ORDER_BOUNDS))
    def test_no_looser_than_the_first_order_margin(self, name):
        if "-" in name:
            kind, seed = name.split("-")
            cfg = StudyConfig.from_dict(bench_module("workloads").d2_config(kind, int(seed)))
        else:
            cfg = StudyConfig.load(CONFIGS / f"{name}.json")
        coeff = certify(cfg.build_coefficient(), cfg.resolved_positivity_grid)
        lo, hi = FIRST_ORDER_BOUNDS[name]
        assert coeff.mu_minus >= lo and coeff.mu_plus <= hi


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
