"""Fiber assembly: closed form, oracle agreement, structure invariants."""

import cmath
import math

import numpy as np
import pytest

from levyhom import (ModeSet, ModelParams, QuadratureNotConverged,
                     TruncationTooSmall, assemble_effective_fiber,
                     assemble_fiber_matrix, c1_constant, certify, compute_c0,
                     constant_coefficient, oracle_form_element,
                     rho_and_rho_star)
from conftest import random_band_limited


def _herm_defect(a):
    return float(np.max(np.abs(a - a.conj().T)))


class TestModeSet:
    def test_lexicographic_and_zero(self):
        ms = ModeSet(1, 2)
        assert ms.size == 5
        assert [tuple(m) for m in ms.modes] == [(-2,), (-1,), (0,), (1,), (2,)]
        assert ms.zero_index == 2

    def test_index_roundtrip_2d(self):
        ms = ModeSet(2, 3)
        assert ms.size == 49
        for i in (0, 11, 24, 48):
            assert ms.index_of(ms.modes[i]) == i


class TestAssembly:
    def test_constant_is_diagonal(self, t0, params_half):
        modes = ModeSet(1, 8)
        rng = np.random.default_rng(3)
        for _ in range(5):
            xi = rng.uniform(-math.pi, math.pi, size=1)
            fiber = assemble_fiber_matrix(t0, params_half, modes, xi)
            eff = assemble_effective_fiber(params_half, 1.0, modes, xi)
            off = fiber.entries - np.diag(np.diag(fiber.entries))
            assert np.max(np.abs(off)) == 0.0
            diag = np.diag(fiber.entries).real
            assert np.allclose(diag, eff, rtol=1e-12, atol=0.0)

    def test_t2_entry_value(self, t2, params_one):
        # closed form at (m, n) = (1, -1), xi = 1: (pi/16)(2 - 4 pi)
        modes = ModeSet(1, 4)
        fiber = assemble_fiber_matrix(t2, params_one, modes, [1.0])
        got = fiber.entries[modes.index_of([1]), modes.index_of([-1])]
        assert got == pytest.approx((math.pi / 16) * (2 - 4 * math.pi), rel=1e-12)

    def test_zero_mode_column_exact_at_zero(self, t2, params_three_halves):
        modes = ModeSet(1, 16)
        fiber = assemble_fiber_matrix(t2, params_three_halves, modes, [0.0])
        z = modes.zero_index
        assert np.max(np.abs(fiber.entries[:, z])) == 0.0
        assert np.max(np.abs(fiber.entries[z, :])) == 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_xi_raises(self, t2, params_one, bad):
        with pytest.raises(ValueError, match="finite"):
            assemble_fiber_matrix(t2, params_one, ModeSet(1, 4), [bad])

    def test_truncation_too_small(self, t2, params_one):
        with pytest.raises(TruncationTooSmall):
            assemble_fiber_matrix(t2, params_one, ModeSet(1, 1), [0.0])

    def test_effective_example(self, params_one):
        # mu0=1, d=1, alpha=1, xi=0, N=1 -> diag(2 pi^2, 0, 2 pi^2)
        eff = assemble_effective_fiber(params_one, 1.0, ModeSet(1, 1), [0.0])
        assert eff == pytest.approx(
            [2 * math.pi ** 2, 0.0, 2 * math.pi ** 2], rel=1e-12)

    def test_effective_matches_constant_assembly(self, t0, params_three_halves):
        modes = ModeSet(1, 6)
        xi = np.array([0.7])
        fiber = assemble_fiber_matrix(t0, params_three_halves, modes, xi)
        eff = assemble_effective_fiber(params_three_halves, 1.0, modes, xi)
        assert np.allclose(fiber.entries, np.diag(eff), rtol=1e-13, atol=0.0)


class TestRho:
    def test_constant_at_half_pi(self, t0, params_one):
        rho, rho_star = rho_and_rho_star(t0, params_one, [math.pi / 2])
        assert rho == pytest.approx(math.pi ** 2 / 2, rel=1e-12)
        assert rho_star == 0.0

    def test_zero_xi(self, t2, params_half):
        rho, rho_star = rho_and_rho_star(t2, params_half, [0.0])
        assert rho == 0.0
        assert rho_star == 0.0

    def test_t1_rho_star_vanishes_alpha_one(self, t1, params_one):
        # |2 pi - xi| + |2 pi + xi| - 4 pi = 0 for |xi| <= 2 pi at alpha = 1
        for r in np.linspace(0.1, 2 * math.pi, 17):
            _, rho_star = rho_and_rho_star(t1, params_one, [r])
            assert abs(rho_star) <= 1e-12

    def test_matches_zero_mode_diagonal(self, t2, params_three_halves):
        modes = ModeSet(1, 8)
        for r in (0.01, 0.3, 1.0):
            rho, _ = rho_and_rho_star(t2, params_three_halves, [r])
            fiber = assemble_fiber_matrix(t2, params_three_halves, modes, [r])
            diag = fiber.entries[modes.zero_index, modes.zero_index].real
            assert rho == pytest.approx(diag, rel=1e-12)

    def test_rho_nonnegative(self, t2):
        for alpha in (0.5, 1.0, 1.5):
            params = ModelParams(1, alpha)
            for r in np.geomspace(1e-4, 3.0, 12):
                rho, _ = rho_and_rho_star(t2, params, [r])
                assert rho >= -1e-15

    def test_rho_star_slope_above_one(self, t2, params_three_halves):
        # remainder bound |rho*| <= C |xi|^2 for alpha > 1: slope >= 2 - 0.1
        from levyhom import loglog_slope
        radii = np.geomspace(1e-3, 1e-1, 12)
        vals = [abs(rho_and_rho_star(t2, params_three_halves, [r])[1])
                for r in radii]
        slope, _ = loglog_slope(radii, vals)
        assert slope >= 2.0 - 0.1

    def test_d2_assembly_structure(self):
        from conftest import make_t2
        coeff = certify(make_t2(2), 32)
        params = ModelParams(2, 0.8)
        c0 = compute_c0(params)
        modes = ModeSet(2, 4)
        xi = np.array([0.4, -0.9])
        fiber = assemble_fiber_matrix(coeff, params, modes, xi)
        a = fiber.entries
        assert a.shape == (81, 81)
        assert _herm_defect(a) <= 1e-12 * max(1.0, float(np.max(np.abs(a))))
        lam = np.linalg.eigvalsh(a)
        r = float(np.linalg.norm(xi))
        assert coeff.mu_minus * c0 * r ** 0.8 - 1e-10 <= lam[0]
        assert lam[0] <= coeff.mu_plus * c0 * r ** 0.8 + 1e-10
        rho, _ = rho_and_rho_star(coeff, params, xi)
        z = modes.zero_index
        assert rho == pytest.approx(a[z, z].real, rel=1e-12)


def _coupled_pairs(coeff, m, n):
    return [(k[0], l[0]) for (k, l) in sorted(coeff.modes) if k[0] + l[0] == m - n]


# core-integrand sample points; the integrand is even, QUADPACK samples both signs
SAMPLE_Z = [float(z) for z in np.concatenate([np.geomspace(1e-12, 40.0, 400),
                                              -np.geomspace(1e-12, 40.0, 37)])]


@pytest.fixture
def quad_spy(monkeypatch):
    """Record the keywords of every QUADPACK call, and a core integrand's
    values at SAMPLE_Z, taken at call time."""
    import levyhom.coefficient as coefficient
    calls = []
    real_quadpack = coefficient._quadpack

    def spy(func, *args, **kwargs):
        samples = [func(z) for z in SAMPLE_Z] if "points" in kwargs else None
        calls.append((kwargs, samples))
        return real_quadpack(func, *args, **kwargs)

    monkeypatch.setattr(coefficient, "_quadpack", spy)
    return calls


class TestOracle:
    def test_constant_reproduces_symbol(self, t0, params_one):
        # entry (0,0) at xi=1 must equal V(1) = pi
        got = oracle_form_element(t0, params_one, 0, 0, 1.0)
        assert got.real == pytest.approx(math.pi, rel=1e-8)
        assert abs(got.imag) < 1e-9

    def test_t2_entry(self, t2, params_one):
        got = oracle_form_element(t2, params_one, 1, -1, 1.0)
        assert got.real == pytest.approx((math.pi / 16) * (2 - 4 * math.pi), rel=1e-8)

    def test_off_band_zero(self, t2, params_one):
        # m - n = 1 is not a coupling of T2 (sums are -2, 0, 2)
        got = oracle_form_element(t2, params_one, 1, 0, 0.7)
        assert got == 0.0

    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    def test_matches_closed_form(self, t2, alpha):
        params = ModelParams(1, alpha)
        modes = ModeSet(1, 2)
        fiber = assemble_fiber_matrix(t2, params, modes, [0.3])
        for m, n in ((0, 0), (1, -1), (2, 0), (-1, 1), (1, 1)):
            closed = fiber.entries[modes.index_of([m]), modes.index_of([n])]
            if closed == 0:
                continue
            got = oracle_form_element(t2, params, m, n, 0.3)
            assert abs(got - closed) / abs(closed) < 1e-7

    @pytest.mark.parametrize("m, n", [(1, -1), (0, 0)])
    def test_one_real_core_pass_per_pair(self, t2, params_one, quad_spy, m, n):
        oracle_form_element(t2, params_one, m, n, 1.0)
        core = [kw for kw, _ in quad_spy if "points" in kw]
        assert len(core) == len(_coupled_pairs(t2, m, n))
        # the core integrand is real: QUADPACK gets no complex values
        assert all(type(v) is float for _, samples in quad_spy if samples for v in samples)

    @pytest.mark.parametrize("m, n", [(1, -1), (0, 0), (2, 0)])
    def test_half_angle_integrand_matches_product_form(self, t2, params_half, quad_spy,
                                                       m, n):
        xi = 1.0
        oracle_form_element(t2, params_half, m, n, xi)
        sampled = [samples for kw, samples in quad_spy if "points" in kw]
        pairs = _coupled_pairs(t2, m, n)
        assert len(sampled) == len(pairs)
        a = 2 * math.pi * n + xi
        b = 2 * math.pi * m + xi
        for samples, (_, l) in zip(sampled, pairs):
            for z, got in zip(SAMPLE_Z, samples):
                product = (cmath.exp(2j * math.pi * l * z) * (1 - cmath.exp(1j * a * z))
                           * (1 - cmath.exp(-1j * b * z)) / (2 * abs(z) ** 1.5))
                assert got == pytest.approx(product.real, rel=1e-13)

    def test_imaginary_part_is_exactly_zero(self, t1, t2, params_three_halves):
        for coeff in (t1, t2):
            assert all(amp.imag == 0 for amp in map(complex, coeff.modes.values()))
            for m, n in ((0, 0), (1, -1), (2, 0), (-2, 1)):
                assert oracle_form_element(coeff, params_three_halves, m, n, 0.3).imag == 0.0

    def test_not_converged_raises(self, t2, params_one, monkeypatch):
        import levyhom.coefficient as coefficient
        monkeypatch.setattr(coefficient, "ORACLE_REL_TOL", 1e-300)
        monkeypatch.setattr(coefficient, "ORACLE_ABS_TOL", 1e-300)
        with pytest.raises(QuadratureNotConverged):
            oracle_form_element(t2, params_one, 1, -1, 1.0)

    def test_starved_limit_raises(self, t2, params_one, monkeypatch):
        import levyhom.coefficient as coefficient
        monkeypatch.setattr(coefficient, "ORACLE_LIMIT", 2)
        with pytest.raises(QuadratureNotConverged):
            oracle_form_element(t2, params_one, 1, -1, 1.0)

    def test_flagged_tail_raises(self, t2, params_one, monkeypatch):
        import levyhom.coefficient as coefficient
        real_quadpack = coefficient._quadpack

        def few_cycles(func, *args, **kwargs):
            if "wvar" in kwargs:
                kwargs["limlst"] = 3
            return real_quadpack(func, *args, **kwargs)

        monkeypatch.setattr(coefficient, "_quadpack", few_cycles)
        with pytest.raises(QuadratureNotConverged, match="tail"):
            oracle_form_element(t2, params_one, 1, -1, 1.0)

    def test_requires_d1(self, params_one):
        coeff = certify(constant_coefficient(2, 1.0))
        with pytest.raises(ValueError):
            oracle_form_element(coeff, ModelParams(2, 1.0), 0, 0, 0.3)


class TestStructure:
    def test_random_coefficients_structure(self):
        rng = np.random.default_rng(11)
        modes = ModeSet(1, 8)
        for _ in range(10):
            coeff = certify(random_band_limited(rng))
            alpha = float(rng.uniform(0.2, 1.8))
            params = ModelParams(1, alpha)
            xi = rng.uniform(-math.pi, math.pi, size=1)
            fiber = assemble_fiber_matrix(coeff, params, modes, xi)
            a = fiber.entries
            scale = max(1.0, float(np.max(np.abs(a))))
            assert _herm_defect(a) <= 1e-12 * scale

            lam = np.linalg.eigvalsh(a)
            norm = max(1.0, float(np.max(np.abs(lam))))
            assert lam.min() >= -1e-10 * norm

            a0 = assemble_effective_fiber(params, 1.0, modes, xi)
            low = np.linalg.eigvalsh(a - coeff.mu_minus * np.diag(a0))
            high = np.linalg.eigvalsh(coeff.mu_plus * np.diag(a0) - a)
            assert low.min() >= -1e-10 * norm
            assert high.min() >= -1e-10 * norm

            # xi -> -xi conjugates the matrix under n -> -n: same spectrum
            lam_neg = np.linalg.eigvalsh(
                assemble_fiber_matrix(coeff, params, modes, -xi).entries)
            assert np.max(np.abs(lam - lam_neg)) <= 1e-10 * norm

    @pytest.mark.parametrize("dimension,truncation", [(1, 8), (2, 4)])
    def test_mirrored_entries_agree_to_rounding_only(self, dimension, truncation):
        # entries (m, n) and (n, m) group the same terms differently, so A - A^H
        # is rounding within 4u max |A| (0.17u measured), and not always zero:
        # the `fiber` command's hermitian_xi<i> verdicts can fail
        rng = np.random.default_rng(5)
        modes = ModeSet(dimension, truncation)
        u = np.finfo(float).eps / 2
        defects = []
        for _ in range(12):
            coeff = certify(random_band_limited(rng, dimension))
            alpha = float(rng.choice([0.5, 1.3, 1.9]))
            xi = rng.uniform(-math.pi, math.pi, dimension)
            a = assemble_fiber_matrix(coeff, ModelParams(dimension, alpha), modes,
                                      xi).entries
            if a.dtype == complex:
                defects.append(_herm_defect(a))
                assert defects[-1] <= 4 * u * float(np.max(np.abs(a)))
        assert len(defects) >= 10 and max(defects) > 0.0


class TestFormDifference:
    def test_zero_at_zero(self, t2, params_half):
        modes = ModeSet(1, 6)
        a0 = assemble_fiber_matrix(t2, params_half, modes, [0.0]).entries
        again = assemble_fiber_matrix(t2, params_half, modes, [0.0]).entries
        assert np.max(np.abs(a0 - again)) == 0.0

    def test_c1_exceeds_c0_below_one(self):
        # needed so the diagonal-case bound mu+ c1 |xi|^a dominates c0 |xi|^a
        for alpha in (0.3, 0.5, 0.7, 0.9):
            params = ModelParams(1, alpha)
            assert c1_constant(params) > compute_c0(params)

    @pytest.mark.parametrize("alpha", [0.1, 0.2, 0.5, 0.7, 0.9])
    def test_c1_against_crude_riemann_sum(self, alpha):
        # independent low-tech check of the defining integral over z > 0,
        # doubled: on [0, h] the series 2 sin(z/2) = z - z^3/24 + ... integrates
        # in closed form against the z^(-1-a) singularity, a midpoint sum covers
        # [h, 400], and |sin| averages 2/pi over the tail
        h, top, n = 1e-2, 400.0, 4_000_000
        head = h ** (1 - alpha) / (1 - alpha) - h ** (3 - alpha) / (24 * (3 - alpha))
        dz = (top - h) / n
        z = h + dz * (np.arange(n) + 0.5)
        body = np.sum(2.0 * np.abs(np.sin(z / 2.0)) / z ** (1 + alpha)) * dz
        tail = 4.0 * (2.0 / math.pi) * top ** (-alpha) / alpha
        got = c1_constant(ModelParams(1, alpha))
        assert got == pytest.approx(2.0 * (head + body) + tail, rel=1e-3)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("alpha", [0.05, 0.2, 0.5, 0.9, 0.99])
    def test_c1_bounds_the_exact_series_tightly(self, d, alpha):
        # S = sum_k k^a / (4k^2 - 1) = (1/4) sum_m 4^-m zeta(2 + 2m - a),
        # expanding 1 / (4k^2 - 1) in powers of 1 / (4k^2)
        from scipy.special import gamma, zeta
        s = 0.25 * math.fsum(4.0 ** -m * zeta(2 + 2 * m - alpha) for m in range(40))
        exact = 8.0 * s / (gamma(1 + alpha) * math.sin(math.pi * alpha / 2))
        exact *= (math.pi ** ((d - 1) / 2) * gamma((1 + alpha) / 2)
                  / gamma((d + alpha) / 2))
        got = c1_constant(ModelParams(d, alpha))
        assert exact <= got <= exact * (1.0 + 1e-6)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
    def test_c1_transverse_factor(self, alpha):
        # c1(d) / c1(1) integrates (1 + |w|^2)^(-(d + a)/2) over the d - 1
        # transverse coordinates: by quadrature at d = 2, in closed form at d = 3
        from scipy.integrate import quad
        c1_line = c1_constant(ModelParams(1, alpha))
        plane, _ = quad(lambda w: (1.0 + w * w) ** (-(2.0 + alpha) / 2.0),
                        -np.inf, np.inf, epsabs=0.0, epsrel=1e-13)
        assert (c1_constant(ModelParams(2, alpha)) / c1_line
                == pytest.approx(plane, rel=1e-12))
        assert (c1_constant(ModelParams(3, alpha)) / c1_line
                == pytest.approx(2.0 * math.pi / (1.0 + alpha), rel=1e-12))
