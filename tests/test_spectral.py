"""Eigen-analysis, circular contour, Riesz projectors, threshold reports."""

import json
import math
import pathlib

import numpy as np
import pytest

import levyhom.spectral as spectral_mod
from levyhom._util import hermitian_defect, hermitian_norm
from levyhom import (CircleContour, ModeSet, StudyConfig, certify,
                     ModelParams, assemble_fiber_matrix, compute_c0,
                     eig_hermitian, loglog_slope, projector_by_eig,
                     projector_by_riesz, rho_and_rho_star, theory_constants,
                     threshold_report, v_alpha)
from conftest import random_band_limited

REPO = pathlib.Path(__file__).resolve().parents[1]


def _counting_inv(monkeypatch):
    """A list that gets the block count of every later np.linalg.inv call."""
    inverted = []
    real_inv = np.linalg.inv

    def counting_inv(a):
        inverted.append(math.prod(a.shape[:-2]))
        return real_inv(a)

    monkeypatch.setattr(np.linalg, "inv", counting_inv)
    return inverted


class TestEig:
    def test_constant_coefficient_spectrum(self, t0, params_half):
        c0 = compute_c0(params_half)
        modes = ModeSet(1, 6)
        xi = np.array([0.4])
        fiber = assemble_fiber_matrix(t0, params_half, modes, xi).entries
        got, _ = eig_hermitian(fiber)
        expect = np.sort(c0 * np.abs(2 * np.pi * np.arange(-6, 7) + 0.4) ** 0.5)
        assert np.allclose(got, expect, rtol=1e-12, atol=1e-12)

    def test_zero_xi_kernel(self, t2, params_one):
        modes = ModeSet(1, 8)
        fiber = assemble_fiber_matrix(t2, params_one, modes, [0.0]).entries
        lam, vec = eig_hermitian(fiber)
        assert abs(lam[0]) <= 1e-13
        v = vec[:, 0]
        # ground vector is the zero-mode indicator up to phase
        assert abs(abs(v[modes.zero_index]) - 1.0) <= 1e-12

    def test_synthetic_recovery(self):
        rng = np.random.default_rng(0)
        lam = np.sort(rng.uniform(0.0, 10.0, size=5))
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
        a = (q * lam) @ q.conj().T
        a = 0.5 * (a + a.conj().T)
        got, _ = eig_hermitian(a)
        assert np.allclose(got, np.linalg.eigvalsh(a), atol=1e-10)
        assert np.max(np.abs(got - lam)) <= 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_one_hermiticity_rule_per_matrix_scale(self):
        # the rule `fiber` reports and eig_hermitian enforces: defect
        # <= 1e-12 max(1, max |A_ij|), each matrix of a stack on its own scale
        def mat(scale, defect):
            return np.array([[scale, 0.0], [defect, scale]])
        stack = np.array([mat(1e3, 0.99e-9), mat(1.0, 0.99e-9), mat(1e3, 1.01e-9)])
        defect, slack = hermitian_defect(stack)
        assert np.array_equal(defect, [0.99e-9, 0.99e-9, 1.01e-9])
        assert (slack >= 0.0).tolist() == [True, False, False]
        eig_hermitian(stack[0])
        for bad in (stack[1], stack[2], stack):
            with pytest.raises(ValueError, match="not Hermitian"):
                eig_hermitian(bad)


class TestProjectorByEig:
    def test_zero_xi_is_zero_mode_projector(self, t2, params_one):
        modes = ModeSet(1, 8)
        fiber = assemble_fiber_matrix(t2, params_one, modes, [0.0]).entries
        f = projector_by_eig(eig_hermitian(fiber))
        p = np.zeros_like(f)
        p[modes.zero_index, modes.zero_index] = 1.0
        assert np.max(np.abs(f - p)) <= 1e-12

    def test_lowest_eigenvector_projector_for_any_spectrum(self):
        # no eigenvalue count nor gap is judged here (the CLI's lambda1_bounds,
        # lambda2_gap and projector_routes are): the result is v0 v0^H
        rng = np.random.default_rng(0)
        for lam in ([0.5, 1.0, 2.0, 3.0],              # nothing near zero
                    [-2.0, -1.0, 1e-9, 4.0],           # several low eigenvalues
                    [1e-3, 1e-3 + 1e-12, 1.0, 1.0]):   # a near-degenerate bottom pair
            z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            vec = np.linalg.qr(z)[0]
            f = projector_by_eig((np.array(lam), vec))
            assert np.array_equal(f, np.outer(vec[:, 0], vec[:, 0].conj()))
            a = (vec * lam) @ vec.conj().T
            assert np.max(np.abs(a @ f - lam[0] * f)) <= 1e-12
            assert np.max(np.abs(f @ f - f)) <= 1e-12

    def test_rank_one_slightly_outside_ball(self, t2, params_one):
        # separation, not the certified radius, is what the projector needs
        const = theory_constants(params_one, t2)
        modes = ModeSet(1, 8)
        xi = np.array([const.delta0 * 1.05])
        fiber = assemble_fiber_matrix(t2, params_one, modes, xi).entries
        data = eig_hermitian(fiber)
        assert data[0][1] >= const.d0
        f = projector_by_eig(data)
        assert np.trace(f).real == pytest.approx(1.0, abs=1e-12)
        # the trace of v0 v0^H is 1 by construction: the Riesz route, which
        # sees every eigenvalue inside its circle, confirms the rank
        riesz = projector_by_riesz(fiber, CircleContour(const.d0)).projector
        assert hermitian_norm(riesz - f) <= 1e-11


class TestCircleContour:
    def test_arclength_formula(self):
        d0 = 4.7635
        expect = 2.0 * math.pi * math.sqrt(5.0) * d0 / 6.0
        for n in (128, 256, 512):
            contour = CircleContour(d0, n)
            arclength = float(np.abs(contour.weights).sum())
            assert abs(arclength - expect) / expect <= 1e-10

    def test_default_node_count_is_the_smallest_within_the_bound(self):
        # [0, d0/3] inside and [d0, inf) outside sit at ratio 1/sqrt(5) of
        # the radius, where the n-node sum errs by at most q^n / (1 - q^n)
        q = 1.0 / math.sqrt(5.0)
        bound = lambda n: q ** n / (1.0 - q ** n)
        n = spectral_mod.RIESZ_NODES
        assert n == 35
        assert bound(n) <= spectral_mod.RIESZ_TOL < bound(n - 1)
        assert CircleContour(1.0).num_nodes == n

    def test_counterclockwise(self):
        contour = CircleContour(3.0, 512)
        # winding of the node polygon around the enclosed segment midpoint
        z = contour.points - 0.5
        winding = np.sum(np.angle(np.roll(z, -1) / z)) / (2 * math.pi)
        assert winding == pytest.approx(1.0, abs=1e-9)


class TestRiesz:
    def test_constant_zero_xi(self, t0, params_one):
        const = theory_constants(params_one, t0)
        modes = ModeSet(1, 6)
        fiber = assemble_fiber_matrix(t0, params_one, modes, [0.0]).entries
        proj = projector_by_riesz(fiber, CircleContour(const.d0, 256))
        assert proj.nodes >= 256
        p = np.zeros((modes.size, modes.size))
        p[modes.zero_index, modes.zero_index] = 1.0
        assert np.linalg.norm(proj.projector - p, 2) <= 1e-8

    def test_agreement_and_projector_axioms(self, t2, params_half):
        const = theory_constants(params_half, t2)
        modes = ModeSet(1, 8)
        fiber = assemble_fiber_matrix(t2, params_half, modes, [0.02]).entries
        data = eig_hermitian(fiber)
        f_eig = projector_by_eig(data)
        proj = projector_by_riesz(fiber, CircleContour(const.d0, 256))
        f = proj.projector
        assert np.linalg.norm(f - f_eig, 2) <= 1e-8
        assert np.linalg.norm(f @ f - f, 2) <= 1e-8
        assert np.max(np.abs(f - f.conj().T)) <= 1e-8
        assert np.trace(f).real == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("n", [8, 9, 16, 41, 55, 64])
    def test_sum_is_the_exact_rational_function(self, n):
        # the n-node sum maps each eigenvalue to 1 / (1 - x^n), x its offset
        # from the centre in radii, on both sides of the circle
        contour = CircleContour(3.0, n)
        x = np.array([0.0, 0.5, -0.7, 0.93, -0.95, 1.06, -1.3, 2.5, -4.0])
        a = np.diag(contour.center + contour.radius * x)
        f = spectral_mod._riesz_sum(a[None], contour)[0]
        assert np.max(np.abs(np.diag(f) - 1.0 / (1.0 - x ** n))) <= 1e-13
        assert np.max(np.abs(f - np.diag(np.diag(f)))) <= 1e-13

    @pytest.mark.parametrize("start, gap, nodes", [(256, 1.0, 256), (8, 1.0, 55),
                                                   (256, 0.101, 425), (8, 0.101, 425),
                                                   (8, 0.7945981741370738, 66)])
    def test_node_count_is_the_smallest_within_the_bound(self, start, gap, nodes):
        # off the certified picture the caller picks the node count: at least
        # `start`, and the least within the bound for an eigenvalue `gap`
        # outside a circle of radius 1.5; at gap 0.7945... the bound at 65
        # nodes exceeds 1e-12 by a rounding error, where the logarithm says 65
        q = 1.5 / (1.5 + gap)
        bound = lambda n: q ** n / (1.0 - q ** n)
        n = max(start, spectral_mod.least_riesz_nodes(q))
        assert n == nodes
        assert bound(nodes) <= spectral_mod.RIESZ_TOL
        assert nodes == start or bound(nodes - 1) > spectral_mod.RIESZ_TOL
        contour = CircleContour(9.0 / math.sqrt(5.0), nodes)   # radius 1.5
        assert contour.radius == pytest.approx(1.5, rel=1e-15)
        a = np.diag([0.0, contour.center + contour.radius + gap])
        proj = projector_by_riesz(a, contour)
        assert proj.nodes == nodes
        assert np.linalg.norm(proj.projector - np.diag([1.0, 0.0]), 2) <= 1e-12

    def test_worst_case_spectrum_within_the_tolerance(self):
        # the ends of [0, d0/3] and the start of [d0, inf) sit at ratio
        # 1/sqrt(5) of the radius, where the bound q^n / (1 - q^n) is reached
        d0 = 3.0
        a = np.diag([0.0, d0 / 3.0, d0, 5.0 * d0])
        proj = projector_by_riesz(a, CircleContour(d0))
        assert proj.nodes == spectral_mod.RIESZ_NODES
        err = np.linalg.norm(proj.projector - np.diag([1.0, 1.0, 0.0, 0.0]), 2)
        assert err <= spectral_mod.RIESZ_TOL

    def test_solves_no_eigenproblem(self, t2, params_half, monkeypatch):
        const = theory_constants(params_half, t2)
        fiber = assemble_fiber_matrix(t2, params_half, ModeSet(1, 8), [0.02])

        def refused(*args, **kwargs):
            raise AssertionError("the Riesz route called an eigensolver")

        monkeypatch.setattr(np.linalg, "eigvalsh", refused)
        monkeypatch.setattr(np.linalg, "eigh", refused)
        for matrix in (fiber, fiber.entries):
            projector_by_riesz(matrix, CircleContour(const.d0))

    @staticmethod
    def _hermitian_stack(dtype):
        """Two 5 x 5 Hermitian blocks, one eigenvalue inside CircleContour(1)."""
        rng = np.random.default_rng(3)
        spectra = ([0.1, 1.2, 1.7, 2.5, 4.0], [0.9, 1.4, 2.2, 3.1, 5.0])
        blocks = []
        for lam in spectra:
            raw = rng.normal(size=(5, 5))
            if dtype is complex:
                raw = raw + 1j * rng.normal(size=(5, 5))
            q, _ = np.linalg.qr(raw)
            blocks.append((q * lam) @ q.conj().T)
        return np.array(blocks)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_half_circle_nested_sum_matches_full_circle(self, dtype):
        a = self._hermitian_stack(dtype)
        eye = np.eye(a.shape[-1])

        def full_circle(n):
            contour = CircleContour(1.0, n)
            return sum(w * np.linalg.inv(a - z * eye)
                       for z, w in zip(contour.points, contour.weights)) / (-2j * math.pi)

        for n in (55, 128, 256):   # odd n: k = 0 is the only real node
            half = spectral_mod._riesz_sum(a, CircleContour(1.0, n))
            assert np.max(np.abs(half - full_circle(n))) <= 1e-13

    def test_converged_call_inverts_the_upper_half_once(self, t2, params_half,
                                                        monkeypatch):
        const = theory_constants(params_half, t2)
        fiber = assemble_fiber_matrix(t2, params_half, ModeSet(1, 8), [0.02]).entries
        inverted = _counting_inv(monkeypatch)
        nodes = projector_by_riesz(fiber, CircleContour(const.d0)).nodes
        assert nodes == spectral_mod.RIESZ_NODES
        assert sum(inverted) == nodes // 2 + 1 == 18

    @pytest.mark.parametrize("name", ["t2_alpha05", "t2_d2"])
    def test_eighteen_inversions_per_block_on_the_ladder(self, name, monkeypatch):
        # every point `thresholds` visits: the origin and the radii <= delta0
        cfg = StudyConfig.from_dict(
            json.loads((REPO / "configs" / f"{name}.json").read_text()))
        params = ModelParams(cfg.dimension, cfg.alpha)
        coeff = certify(cfg.build_coefficient(), cfg.resolved_positivity_grid)
        const = theory_constants(params, coeff)
        modes = ModeSet(cfg.dimension, cfg.resolved_truncation)
        radii = cfg.xi_grid.radii()
        inverted = _counting_inv(monkeypatch)
        for r in [0.0, *radii[radii <= const.delta0]]:
            xi = r * np.eye(cfg.dimension)[0]
            fiber = assemble_fiber_matrix(coeff, params, modes, xi)
            inverted.clear()
            projector_by_riesz(fiber, CircleContour(const.d0))
            assert sum(inverted) == 18 * sum(len(s) for s in fiber.stacks), r


class TestThresholdReport:
    @pytest.mark.parametrize("which, alpha", [("t1", 1.0), ("t2", 0.5)])
    def test_riesz_nodes_and_agreement(self, which, alpha, request):
        coeff = request.getfixturevalue(which)
        params = ModelParams(1, alpha)
        const = theory_constants(params, coeff)
        for r in (0.0, 1e-3, const.delta0 / 2):
            fiber = assemble_fiber_matrix(coeff, params, ModeSet(1, 8), [r])
            riesz = projector_by_riesz(fiber, CircleContour(const.d0))
            f_eig = projector_by_eig(eig_hermitian(fiber.entries.astype(complex)))
            assert riesz.nodes < 64
            assert np.linalg.norm(riesz.projector - f_eig, 2) <= 1e-12

    @pytest.mark.parametrize("dimension", [1, 2])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_certified_picture_holds_the_default_contour(self, dimension, alpha):
        # inside the certified ball lambda1 lies in [0, d0/3] and lambda2 in
        # [d0, inf), so the 35-node sum is within RIESZ_TOL of the eig route
        params = ModelParams(dimension, alpha)
        modes = ModeSet(dimension, 8 if dimension == 1 else 4)
        direction = np.ones(dimension) / math.sqrt(dimension)
        for seed in range(6):
            coeff = certify(random_band_limited(np.random.default_rng(seed),
                                                dimension))
            const = theory_constants(params, coeff)
            for r in (0.0, 1e-3, const.delta0 / 2, const.delta0):
                rep = threshold_report(coeff, params, modes, r * direction)
                assert -1e-10 <= rep.lambda1 <= const.d0 / 3.0 + 1e-10
                assert rep.lambda2 >= const.d0 - 1e-10
                assert rep.projector_mismatch <= spectral_mod.RIESZ_TOL + 1e-14

    @pytest.mark.parametrize("truncation", [8, 32])
    def test_lambda1_at_zero_is_exact_near_alpha_two(self, t2, truncation):
        # at xi = 0 the zero mode's exact eigenpair (0, e_z) is taken as it
        # is; the dense eigensolve left |lambda1(0)| at about u ||A||, above
        # the thresholds check's 1e-10 at alpha = 1.99-1.999
        params = ModelParams(1, 1.999)
        rep = threshold_report(t2, params, ModeSet(1, truncation), [0.0])
        assert rep.lambda1 == 0.0
        assert rep.lambda2 >= theory_constants(params, t2).d0

    def test_zero_xi_all_zero(self, t2, params_half):
        modes = ModeSet(1, 8)
        rep = threshold_report(t2, params_half, modes, [0.0])
        assert rep.lambda1 == pytest.approx(0.0, abs=1e-12)
        assert rep.f_minus_p_norm <= 1e-10
        assert rep.phi_norm <= 1e-10
        assert rep.rho == 0.0
        assert rep.rho_star == 0.0

    def test_constant_mu_exact(self, t0, params_half):
        const = theory_constants(params_half, t0)
        modes = ModeSet(1, 8)
        for r in (0.01, 0.1, const.delta0 * 0.9):
            rep = threshold_report(t0, params_half, modes, [r])
            assert rep.f_minus_p_norm <= 1e-10
            assert rep.af_minus_effective_norm <= 1e-10
            assert rep.rho_star == pytest.approx(0.0, abs=1e-14)

    def test_invariants_inside_ball(self, t2, params_three_halves):
        const = theory_constants(params_three_halves, t2)
        modes = ModeSet(1, 8)
        for r in (1e-3, 0.05, const.delta0 * 0.8):
            rep = threshold_report(t2, params_three_halves, modes, [r])
            lo = const.mu_minus * const.c0 * r ** 1.5
            hi = const.mu_plus * const.c0 * r ** 1.5
            assert lo - 1e-12 <= rep.lambda1 <= hi + 1e-12
            assert rep.lambda2 >= const.d0 - 1e-12
            assert rep.projector_mismatch <= 1e-8
            assert -1e-12 <= rep.f_minus_p_norm <= 1.0 + 1e-12

    def test_norms_match_the_dense_zero_mode_projector(self, t2, params_half):
        # the report subtracts P0 at its one diagonal entry; the dense P0
        # formulas are the reference, bit for bit, and the projector routes'
        # mismatch is the one the cross-check bounds.  At xi = 0 the zero
        # mode's exact eigenpair (0, e_z) makes every threshold norm 0
        const = theory_constants(params_half, t2)
        modes = ModeSet(1, 8)
        origin = threshold_report(t2, params_half, modes, [0.0])
        assert (origin.lambda1, origin.f_minus_p_norm, origin.phi_norm,
                origin.af_minus_effective_norm) == (0.0, 0.0, 0.0, 0.0)
        assert origin.projector_mismatch <= 1e-8
        for r in (1e-3, const.delta0 * 0.8):
            rep = threshold_report(t2, params_half, modes, [r])
            fiber = assemble_fiber_matrix(t2, params_half, modes, [r])
            spectral = eig_hermitian(fiber.entries.astype(complex))
            f_eig = projector_by_eig(spectral)
            riesz = projector_by_riesz(fiber, CircleContour(const.d0)).projector
            p0 = np.zeros((modes.size, modes.size), dtype=complex)
            p0[modes.zero_index, modes.zero_index] = 1.0
            af = spectral[0][0] * f_eig
            rho = rho_and_rho_star(t2, params_half, [r])[0]
            v = v_alpha(params_half, np.array([r]))
            assert rep.f_minus_p_norm == hermitian_norm(f_eig - p0)
            assert rep.phi_norm == hermitian_norm(af - rho * p0)
            assert rep.af_minus_effective_norm == hermitian_norm(
                af - const.mu_eff * v * p0)
            assert rep.projector_mismatch == hermitian_norm(riesz - f_eig) <= 1e-8

    def test_af_minus_effective_slope(self, t2):
        # second-order threshold approximation: slope floors 2a - 0.15 / 2 - 0.15
        modes = ModeSet(1, 8)
        for alpha, floor in ((0.5, 2 * 0.5 - 0.15), (1.5, 2.0 - 0.15)):
            params = ModelParams(1, alpha)
            const = theory_constants(params, t2)
            radii = np.geomspace(1e-3, 1e-1, 12)
            radii = radii[radii <= const.delta0]
            vals = [threshold_report(t2, params, modes, [r]).af_minus_effective_norm
                    for r in radii]
            slope, _ = loglog_slope(radii, vals)
            assert slope >= floor
