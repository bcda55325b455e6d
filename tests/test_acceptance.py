"""Acceptance gate: one test per criterion, one printed verdict line each.

Standard test coefficients (d=1, truncation 32 unless stated):
    T0 = constant 1
    T1 = 1 + 0.5 cos(2 pi (x - y))
    T2 = 1 + 0.5 cos(2 pi x) cos(2 pi y)

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines.
"""

import json
import math

import numpy as np
import pytest

from levyhom import (CircleContour, ModeSet, ModelParams, XiGridSpec,
                     assemble_effective_fiber, assemble_fiber_matrix, certify,
                     compute_c0, constant_coefficient, discrepancy_study,
                     eig_hermitian, loglog_slope,
                     oracle_c0, oracle_form_element, projector_by_eig,
                     projector_by_riesz, rate_function, rho_and_rho_star,
                     threshold_resolvent_diff, theory_constants,
                     threshold_report)
from levyhom.cli import main as cli_main
from conftest import make_t1, make_t2, random_band_limited

N_STANDARD = 32


def _verdict(num, ok, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_constants():
    """c0(1,1) = pi and c0(2,1) = 2 pi, Gamma formula vs quadrature (rel 1e-3)."""
    p11, p21 = ModelParams(1, 1.0), ModelParams(2, 1.0)
    g11, g21 = compute_c0(p11), compute_c0(p21)
    q11 = oracle_c0(p11)
    q21 = oracle_c0(p21)
    ok = (abs(g11 - math.pi) <= 1e-12 * math.pi
          and abs(g21 - 2 * math.pi) <= 2e-12 * math.pi
          and abs(q11 - g11) <= 1e-3 * g11
          and abs(q21 - g21) <= 1e-3 * g21)
    _verdict(1, ok, f"c0(1,1)={g11:.12g} (quad {q11:.9g}), "
                    f"c0(2,1)={g21:.12g} (quad {q21:.9g})")


def test_criterion_2_assembly_exactness():
    """Constant coefficient assembles to the exact diagonal at 10 random xi."""
    t0 = certify(constant_coefficient(1, 1.0))
    modes = ModeSet(1, N_STANDARD)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(10):
        alpha = float(rng.uniform(0.25, 1.75))
        params = ModelParams(1, alpha)
        xi = rng.uniform(-math.pi, math.pi, size=1)
        fiber = assemble_fiber_matrix(t0, params, modes, xi)
        eff = assemble_effective_fiber(params, 1.0, modes, xi)
        off = np.abs(fiber.entries - np.diag(eff.astype(complex)))
        scale = float(np.max(eff))
        worst = max(worst, float(np.max(off)) / scale)
    _verdict(2, worst <= 1e-12, f"worst relative deviation from diagonal {worst:.3e}")


def test_criterion_3_oracle_equivalence():
    """Closed-form entries match the singular-quadrature oracle to rel 1e-3."""
    modes = ModeSet(1, 2)
    worst = 0.0
    cases = 0
    for coeff in (certify(make_t1()), certify(make_t2())):
        for alpha in (0.5, 1.0, 1.5):
            params = ModelParams(1, alpha)
            for xi in (0.3, 1.0):
                fiber = assemble_fiber_matrix(coeff, params, modes, [xi])
                for m in range(-2, 3):
                    for n in range(-2, 3):
                        closed = fiber.entries[modes.index_of([m]),
                                               modes.index_of([n])]
                        got = oracle_form_element(coeff, params, m, n, xi)
                        if closed == 0.0:
                            assert got == 0.0
                            continue
                        worst = max(worst, abs(got - closed) / abs(closed))
                        cases += 1
    _verdict(3, worst <= 1e-3, f"{cases} in-band entries, worst rel err {worst:.3e}")


def test_criterion_4_structure_suite():
    """Hermiticity, PSD, form sandwich, zero-mode kernel, xi-reflection symmetry."""
    rng = np.random.default_rng(77)
    modes = ModeSet(1, N_STANDARD)
    worst = {"herm": 0.0, "psd": 0.0, "sandwich": 0.0, "kernel": 0.0, "reflect": 0.0}
    for _ in range(50):
        coeff = certify(random_band_limited(rng))
        alpha = float(rng.uniform(0.25, 1.75))
        params = ModelParams(1, alpha)
        xi = rng.uniform(-math.pi, math.pi, size=1)

        a = assemble_fiber_matrix(coeff, params, modes, xi).entries
        scale = max(1.0, float(np.max(np.abs(a))))
        worst["herm"] = max(worst["herm"],
                            float(np.max(np.abs(a - a.conj().T))) / scale)

        lam = np.linalg.eigvalsh(a)
        norm = max(1.0, float(np.max(np.abs(lam))))
        worst["psd"] = max(worst["psd"], -float(lam.min()) / norm)

        diag = assemble_effective_fiber(params, 1.0, modes, xi)
        low = float(np.linalg.eigvalsh(a - coeff.mu_minus * np.diag(diag)).min())
        high = float(np.linalg.eigvalsh(coeff.mu_plus * np.diag(diag) - a).min())
        worst["sandwich"] = max(worst["sandwich"], -min(low, high) / norm)

        a0 = assemble_fiber_matrix(coeff, params, modes, [0.0]).entries
        z = modes.zero_index
        worst["kernel"] = max(worst["kernel"],
                              float(np.max(np.abs(a0[:, z]))),
                              float(np.max(np.abs(a0[z, :]))))

        lam_neg = np.linalg.eigvalsh(
            assemble_fiber_matrix(coeff, params, modes, -xi).entries)
        worst["reflect"] = max(worst["reflect"],
                               float(np.max(np.abs(lam - lam_neg))) / norm)

    ok = (worst["herm"] <= 1e-12 and worst["psd"] <= 1e-10
          and worst["sandwich"] <= 1e-10 and worst["kernel"] <= 1e-13
          and worst["reflect"] <= 1e-10)
    _verdict(4, ok, "50 random certified coefficients: "
             + " ".join(f"{k}={v:.2e}" for k, v in worst.items()))


def test_criterion_5_eigenvalue_bounds():
    """lambda1 in [mu- c0 |xi|^a, mu+ c0 |xi|^a]; gap floors d0 and 2^a d0."""
    modes = ModeSet(1, N_STANDARD)
    grid = -math.pi + 2 * math.pi * np.arange(64) / 64
    ok = True
    details = []
    for coeff in (certify(make_t1()), certify(make_t2())):
        for alpha in (0.5, 1.0, 1.5):
            params = ModelParams(1, alpha)
            const = theory_constants(params, coeff)
            for xi in grid:
                lam, _ = eig_hermitian(
                    assemble_fiber_matrix(coeff, params, modes, [xi]).entries)
                r = abs(xi)
                lo = const.mu_minus * const.c0 * r ** alpha
                hi = const.mu_plus * const.c0 * r ** alpha
                slack = 1e-10 * max(1.0, hi)
                if not (lo - slack <= lam[0] <= hi + slack):
                    ok = False
                    details.append(f"lambda1 out of band at xi={xi:.3f} a={alpha}")
                if r <= const.delta0 and lam[1] < const.d0 - slack:
                    ok = False
                    details.append(f"lambda2 below d0 at xi={xi:.3f} a={alpha}")
            lam0, _ = eig_hermitian(
                assemble_fiber_matrix(coeff, params, modes, [0.0]).entries)
            if lam0[1] < 2 ** alpha * const.d0 - 1e-10:
                ok = False
                details.append(f"lambda2(0) below 2^a d0 at a={alpha}")
    _verdict(5, ok, "T1,T2 x alpha in {0.5,1,1.5} on 64-point grid"
             + ("" if ok else ": " + "; ".join(details[:3])))


def test_criterion_6_projector_agreement():
    """Riesz and eigendecomposition projectors agree to 1e-8 at >=256 nodes."""
    t2 = certify(make_t2())
    params = ModelParams(1, 0.5)
    const = theory_constants(params, t2)
    modes = ModeSet(1, N_STANDARD)

    length = 2.0 * math.pi * math.sqrt(5.0) * const.d0 / 6.0   # 2 pi radius
    arc_err = max(abs(np.abs(CircleContour(const.d0, n).weights).sum() - length)
                  / length for n in (256, 512))

    worst = 0.0
    min_nodes = 10 ** 9
    for r in (1e-3, 0.01, const.delta0 * 0.9):
        fiber = assemble_fiber_matrix(t2, params, modes, [r]).entries
        f_eig = projector_by_eig(eig_hermitian(fiber))
        proj = projector_by_riesz(fiber, CircleContour(const.d0, 256))
        worst = max(worst, float(np.linalg.norm(proj.projector - f_eig, 2)))
        min_nodes = min(min_nodes, proj.nodes)
    ok = worst <= 1e-8 and min_nodes >= 256 and arc_err <= 1e-10
    _verdict(6, ok, f"|F_riesz - F_eig| <= {worst:.3e} at >= {min_nodes} nodes, "
                    f"arclength rel err {arc_err:.2e}")


def test_criterion_7_threshold_slopes():
    """Bound-compliance slopes of |F - P|, |Phi|, |rho*| near the threshold."""
    modes = ModeSet(1, N_STANDARD)
    t2 = certify(make_t2())
    ladder = np.geomspace(1e-3, 1e-1, 12)
    results = []
    ok = True

    for alpha, fmp_floor in ((0.5, 0.5 - 0.1), (1.5, 0.9)):
        params = ModelParams(1, alpha)
        const = theory_constants(params, t2)
        radii = ladder[ladder <= const.delta0]
        reports = [threshold_report(t2, params, modes, [r]) for r in radii]
        fmp = [rep.f_minus_p for rep in reports]
        slope_fmp, _ = loglog_slope(radii, fmp)
        ok &= slope_fmp >= fmp_floor
        results.append(f"a={alpha}: slope(F-P)={slope_fmp:.2f}>={fmp_floor}")
        if alpha == 0.5:
            phi = [rep.phi_norm for rep in reports]
            slope_phi, _ = loglog_slope(radii, phi)
            ok &= slope_phi >= 2 * alpha - 0.15
            results.append(f"slope(Phi)={slope_phi:.2f}>={2 * alpha - 0.15}")
            rst = [abs(rep.rho_star) for rep in reports]
            assert max(rst) > 0.0, "rho* vanishes identically; slope check moot"
            slope_rst, _ = loglog_slope(radii, rst)
            ok &= slope_rst >= 1 + alpha - 0.1
            results.append(f"slope(rho*)={slope_rst:.2f}>={1 + alpha - 0.1}")

    # T1 at alpha = 1: the remainder vanishes identically out to |xi| = 2 pi
    t1 = certify(make_t1())
    params = ModelParams(1, 1.0)
    worst_t1 = max(abs(rho_and_rho_star(t1, params, [r])[1])
                   for r in np.linspace(1e-3, 2 * math.pi, 40))
    ok &= worst_t1 <= 1e-12
    results.append(f"T1 a=1: max|rho*|={worst_t1:.1e}")
    _verdict(7, ok, "; ".join(results))


def test_criterion_8_threshold_resolvent_boundedness():
    """Rank-1-comparator resolvent sup stays within a factor 3 across eps.

    An alpha <= 1 statement: at alpha > 1 the sup grows like eps^(2 - 2 alpha),
    so T2 and T1 are checked at alpha = 0.5 and alpha = 1.
    """
    modes = ModeSet(1, N_STANDARD)
    spreads = {}
    for name, coeff, alpha in (("T2", make_t2(), 0.5), ("T1", make_t1(), 1.0)):
        coeff = certify(coeff)
        params = ModelParams(1, alpha)
        const = theory_constants(params, coeff)
        radii = np.geomspace(1e-4, const.delta0, 14)
        xis = [np.zeros(1)] + [np.array([r]) for r in radii]
        sups = [max(threshold_resolvent_diff(coeff, params, modes, xi, eps)
                    for xi in xis)
                for eps in np.geomspace(1e-3, 1e-1, 7)]
        spreads[f"{name} a={alpha}"] = max(sups) / min(sups)
    _verdict(8, max(spreads.values()) <= 3.0,
             "sup over |xi|<=delta0 varies by factor "
             + ", ".join(f"{v:.4f} ({k})" for k, v in spreads.items())
             + " <= 3 across eps in [1e-3, 1e-1]")


def test_criterion_9_main_rate_study():
    """Rate fits against the theoretical envelopes; exactness; truncation."""
    modes = ModeSet(1, N_STANDARD)
    grid = XiGridSpec(points_per_dim=16, radial_per_decade=4).points(1)
    eps = np.geomspace(1e-1, 1e-3, 12)
    t2 = certify(make_t2())
    ok = True
    parts = []

    for alpha, floor in ((0.5, 0.4), (1.5, 0.4)):
        params = ModelParams(1, alpha)
        res = discrepancy_study(t2, params, modes, grid, eps)
        ratios = res.discrepancies / rate_function(alpha, "discrepancy",
                                                   res.epsilons)
        spread = float(ratios.max() / ratios.min())
        slope, _ = loglog_slope(res.epsilons, res.discrepancies)
        ok &= slope >= floor and spread <= 10.0
        ok &= res.truncation_stability < 0.05
        parts.append(f"a={alpha}: slope={slope:.2f}>={floor} "
                     f"ratio={spread:.2f} trunc={res.truncation_stability:.1%}")

    params = ModelParams(1, 1.0)
    res = discrepancy_study(t2, params, modes, grid, eps)
    corrected, _ = loglog_slope(rate_function(1.0, "discrepancy", res.epsilons),
                                res.discrepancies)
    ok &= corrected >= 0.9
    ok &= res.truncation_stability < 0.05
    parts.append(f"a=1: log-corrected={corrected:.2f}>=0.9")

    t0 = certify(constant_coefficient(1, 1.0))
    res0 = discrepancy_study(t0, ModelParams(1, 0.5), modes, grid, eps)
    ok &= bool(np.all(res0.discrepancies == 0.0))
    parts.append("T0: exact zero")
    _verdict(9, ok, "; ".join(parts))


def test_criterion_10_determinism(tmp_path, threads_at_any_order):
    """Worker count does not change a single byte of the rate-study CSV."""
    config = {
        "dimension": 1,
        "alpha": 0.5,
        "coefficient": [
            {"k": [0], "l": [0], "re": 1.0, "im": 0.0},
            {"k": [1], "l": [1], "re": 0.125, "im": 0.0},
            {"k": [1], "l": [-1], "re": 0.125, "im": 0.0},
            {"k": [-1], "l": [1], "re": 0.125, "im": 0.0},
            {"k": [-1], "l": [-1], "re": 0.125, "im": 0.0},
        ],
        "truncation": N_STANDARD,
        "xi_grid": {"points_per_dim": 8, "radial_min_exp": -4.0,
                    "radial_max_exp": -0.5, "radial_per_decade": 3,
                    "directions": "axes"},
        "epsilons": {"min": 1e-3, "max": 1e-1, "count": 12},
        "seed": 11,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    outputs = []
    for workers, name in ((1, "w1"), (8, "w8")):
        out = tmp_path / name
        code = cli_main(["rate-study", "--config", str(cfg_path),
                         "--out", str(out), "--workers", str(workers)])
        assert code == 0
        outputs.append((out / "rate_study.csv").read_bytes())
    ok = outputs[0] == outputs[1]
    _verdict(10, ok, f"workers 1 vs 8: identical {len(outputs[0])}-byte CSV")
