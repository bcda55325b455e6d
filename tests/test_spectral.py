"""Eigen-analysis, circular contour, Riesz projectors, threshold reports."""

import math

import numpy as np
import pytest

import levyhom.spectral as spectral_mod
from levyhom import (CircleContour, ContourTooClose, GapViolation, ModeSet,
                     ModelParams, QuadratureNotConverged, assemble_fiber_matrix,
                     compute_c0, eig_hermitian, loglog_slope, projector_by_eig,
                     projector_by_riesz, theory_constants, threshold_report)


class TestEig:
    def test_constant_coefficient_spectrum(self, t0, params_half):
        c0 = compute_c0(params_half)
        modes = ModeSet(1, 6)
        xi = np.array([0.4])
        fiber = assemble_fiber_matrix(t0, params_half, modes, xi).entries
        got = eig_hermitian(fiber).eigenvalues
        expect = np.sort(c0 * np.abs(2 * np.pi * np.arange(-6, 7) + 0.4) ** 0.5)
        assert np.allclose(got, expect, rtol=1e-12, atol=1e-12)

    def test_zero_xi_kernel(self, t2, params_one):
        modes = ModeSet(1, 8)
        fiber = assemble_fiber_matrix(t2, params_one, modes, [0.0]).entries
        data = eig_hermitian(fiber)
        assert abs(data.eigenvalues[0]) <= 1e-13
        v = data.eigenvectors[:, 0]
        # ground vector is the zero-mode indicator up to phase
        assert abs(abs(v[modes.zero_index]) - 1.0) <= 1e-12

    def test_synthetic_recovery(self):
        rng = np.random.default_rng(0)
        lam = np.sort(rng.uniform(0.0, 10.0, size=5))
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
        a = (q * lam) @ q.conj().T
        a = 0.5 * (a + a.conj().T)
        got = eig_hermitian(a)
        assert np.allclose(got.eigenvalues, np.linalg.eigvalsh(a), atol=1e-10)
        assert np.max(np.abs(got.eigenvalues - lam)) <= 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestProjectorByEig:
    def test_zero_xi_is_zero_mode_projector(self, t2, params_one):
        modes = ModeSet(1, 8)
        const = theory_constants(params_one, t2)
        fiber = assemble_fiber_matrix(t2, params_one, modes, [0.0]).entries
        f = projector_by_eig(eig_hermitian(fiber), const.d0 / 3)
        p = np.zeros_like(f)
        p[modes.zero_index, modes.zero_index] = 1.0
        assert np.max(np.abs(f - p)) <= 1e-12

    def test_gap_violation_counts(self, t0, params_one):
        modes = ModeSet(1, 4)
        fiber = assemble_fiber_matrix(t0, params_one, modes, [0.3]).entries
        data = eig_hermitian(fiber)
        with pytest.raises(GapViolation):
            projector_by_eig(data, cutoff=1e-6)      # zero below
        with pytest.raises(GapViolation):
            projector_by_eig(data, cutoff=1e9)       # all below

    def test_rank_one_slightly_outside_ball(self, t2, params_one):
        # separation, not the certified radius, is what the projector needs
        const = theory_constants(params_one, t2)
        modes = ModeSet(1, 8)
        xi = np.array([const.delta0 * 1.05])
        fiber = assemble_fiber_matrix(t2, params_one, modes, xi).entries
        data = eig_hermitian(fiber)
        assert data.eigenvalues[1] >= const.d0
        f = projector_by_eig(data, const.d0 / 3)
        assert np.trace(f).real == pytest.approx(1.0, abs=1e-12)


class TestCircleContour:
    def test_arclength_formula(self):
        d0 = 4.7635
        expect = math.pi * d0
        for n in (128, 256, 512):
            contour = CircleContour(d0, n)
            arclength = float(np.abs(contour.weights).sum())
            assert abs(arclength - expect) / expect <= 1e-10

    def test_distance_to_real(self):
        contour = CircleContour(3.0, 128)
        r = 1.0  # d0 / 3
        assert contour.distance_to_real(0.0) == pytest.approx(r)
        assert contour.distance_to_real(0.5) == pytest.approx(1.5)
        assert contour.distance_to_real(2.0) == pytest.approx(0.0)
        assert contour.distance_to_real(3.0) == pytest.approx(1.0)

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
        f_eig = projector_by_eig(data, const.d0 / 3)
        proj = projector_by_riesz(fiber, CircleContour(const.d0, 256))
        f = proj.projector
        assert np.linalg.norm(f - f_eig, 2) <= 1e-8
        assert np.linalg.norm(f @ f - f, 2) <= 1e-8
        assert np.max(np.abs(f - f.conj().T)) <= 1e-8
        assert np.trace(f).real == pytest.approx(1.0, abs=1e-8)

    def test_doubling_stops_at_the_node_cap(self, monkeypatch):
        # no doubling meets a zero tolerance, so the contours run up to the
        # cap and the integral fails; none may have more nodes than the cap
        built = []

        def spy(d0, num_nodes=128):
            built.append(num_nodes)
            return CircleContour(d0, num_nodes)

        monkeypatch.setattr(spectral_mod, "RIESZ_TOL", 0.0)
        monkeypatch.setattr(spectral_mod, "RIESZ_MAX_NODES", 512)
        monkeypatch.setattr(spectral_mod, "CircleContour", spy)
        with pytest.raises(QuadratureNotConverged):
            projector_by_riesz(np.diag([0.0, 3.0]), CircleContour(1.0))
        assert built == [256, 512]

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

        f128 = spectral_mod._riesz_sum(a, CircleContour(1.0, 128))
        f256 = f128 / 2 + spectral_mod._riesz_sum(a, CircleContour(1.0, 256),
                                                  first=1, stride=2)
        assert np.max(np.abs(f128 - full_circle(128))) <= 1e-13
        assert np.max(np.abs(f256 - full_circle(256))) <= 1e-13

    def test_converged_call_inverts_the_upper_half_once(self, t2, params_half,
                                                        monkeypatch):
        const = theory_constants(params_half, t2)
        fiber = assemble_fiber_matrix(t2, params_half, ModeSet(1, 8), [0.02]).entries
        inverted = []
        real_inv = np.linalg.inv

        def counting_inv(a):
            inverted.append(math.prod(a.shape[:-2]))
            return real_inv(a)

        monkeypatch.setattr(np.linalg, "inv", counting_inv)
        assert projector_by_riesz(fiber, CircleContour(const.d0)).nodes == 256
        assert sum(inverted) == 65 + 64

    def test_contour_too_close(self):
        d0 = 3.0
        a = np.diag([2.0 * d0 / 3.0, 2.0 * d0])   # eigenvalue on the contour
        with pytest.raises(ContourTooClose):
            projector_by_riesz(a, CircleContour(d0, 128))


def _outside_point(d0, side, gap):
    """Real point at distance `gap` outside the circle on the given side."""
    return -d0 / 3.0 - gap if side == "left" else 2.0 * d0 / 3.0 + gap


class TestGuardBand:
    D0 = 3.0

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_converges_just_outside_guard(self, side):
        d0 = self.D0
        a = np.diag([0.0, _outside_point(d0, side, 1.01 * d0 / 30.0), 2.0 * d0])
        proj = projector_by_riesz(a, CircleContour(d0))
        assert proj.nodes <= 2048
        assert np.linalg.norm(proj.projector - np.diag([1.0, 0.0, 0.0]), 2) <= 1e-12

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_too_close_inside_guard(self, side):
        d0 = self.D0
        a = np.diag([0.0, _outside_point(d0, side, 0.99 * d0 / 30.0)])
        with pytest.raises(ContourTooClose):
            projector_by_riesz(a, CircleContour(d0))

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_distance_matches_segment_guard(self, side):
        # off [0, d0/3] the circle is as far from the real axis as a curve at
        # distance d0/3 around that segment, so the d0/30 guard is unchanged
        d0 = self.D0
        contour = CircleContour(d0)
        for gap in np.linspace(1e-3, 2.0 * d0, 41):
            v = -gap if side == "left" else d0 / 3.0 + gap
            expect = abs(max(0.0, -v, v - d0 / 3.0) - d0 / 3.0)
            assert contour.distance_to_real(v) == pytest.approx(expect, rel=1e-14,
                                                                abs=1e-15)


class TestThresholdReport:
    @pytest.mark.parametrize("which, alpha", [("t1", 1.0), ("t2", 0.5)])
    def test_riesz_nodes_and_agreement(self, which, alpha, request):
        coeff = request.getfixturevalue(which)
        params = ModelParams(1, alpha)
        const = theory_constants(params, coeff)
        for r in (0.0, 1e-3, const.delta0 / 2):
            fiber = assemble_fiber_matrix(coeff, params, ModeSet(1, 8), [r])
            riesz = projector_by_riesz(fiber, CircleContour(const.d0))
            f_eig = projector_by_eig(eig_hermitian(fiber.entries.astype(complex)),
                                     const.d0 / 3)
            assert riesz.nodes == 256
            assert np.linalg.norm(riesz.projector - f_eig, 2) <= 1e-12

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
            # the report exists only if its two projectors agree to 1e-8
            assert -1e-12 <= rep.f_minus_p_norm <= 1.0 + 1e-12

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
