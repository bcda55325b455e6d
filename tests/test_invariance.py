"""Exact invariances of the paper's quantities, end to end through the library.

Translating the coefficient, x -> x + tau, multiplies amp(k, l) by
e^{2 pi i (k + l) . tau}.  The coefficient stays real-valued and symmetric,
but its amplitudes turn complex, so the fiber is assembled in complex128, a
path no shipped config takes.  A(xi) changes by the diagonal unitary
e^{i (2 pi m + xi) . tau}, which commutes with the effective fiber and with
the zero mode's projector, so every discrepancy and threshold quantity is
invariant.  Scaling mu by c scales A(xi) by c: the discrepancy at
eps c^(1/alpha) is the base's at eps, and for c = 2 every threshold
eigenvalue quantity doubles bit for bit.  An axis flip g that keeps every
amplitude, amp(gk, gl) = amp(k, l), makes A(g xi) the matrix A(xi) with its
modes permuted by m -> g m.
"""

import cmath
import math

import numpy as np
import pytest

from levyhom import (ModeSet, ModelParams, StudyConfig, assemble_fiber_matrix,
                     certify, coefficient_from_records, discrepancy_study,
                     theory_constants, threshold_report)
from levyhom._util import UNIT_ROUNDOFF, hermitian_norm

from conftest import CONFIGS, bench_module

# quantities that translation keeps to 1e-12 relative: lambda2 >= d0 is far
# above its absolute rounding, and rho reads only the k = -l amplitudes,
# whose phase is e^0
EXACT = ("lambda2", "rho", "rho_star")
# quantities that carry the eig route's absolute rounding (see _eig_floor)
ROUNDED = ("lambda1", "f_minus_p", "phi_norm", "af_minus_eff")


def _transformed(cfg, tau=None, scale=1.0):
    """`cfg` with mu(x, y) replaced by scale * mu(x + tau, y + tau)."""
    data = cfg.to_dict()
    records = []
    for rec in data["coefficient"]:
        amp = scale * complex(rec["re"], rec["im"])
        if tau is not None:
            phase = sum((k + l) * t for k, l, t in zip(rec["k"], rec["l"], tau))
            amp *= cmath.exp(2j * math.pi * phase)
        records.append(dict(rec, re=amp.real, im=amp.imag))
    data["coefficient"] = records
    return StudyConfig.from_dict(data)


def _study(cfg, ladder=None, eps_scale=1.0):
    """Discrepancies at the config's epsilons times `eps_scale`, and threshold
    reports on `ladder`, by default the `thresholds` command's points: the
    origin, then each xi_grid radius within the certified delta0, along e1."""
    params = ModelParams(cfg.dimension, cfg.alpha)
    coeff = certify(cfg.build_coefficient(), cfg.resolved_positivity_grid)
    modes = ModeSet(cfg.dimension, cfg.resolved_truncation)
    if ladder is None:
        radii = cfg.xi_grid.radii()
        radii = radii[radii <= theory_constants(params, coeff).delta0]
        e1 = np.eye(cfg.dimension)[0]
        ladder = [np.zeros(cfg.dimension)] + [r * e1 for r in radii]
    study = discrepancy_study(coeff, params, modes, cfg.xi_grid.points(cfg.dimension),
                              cfg.epsilons.values() * eps_scale)
    reps = [threshold_report(coeff, params, modes, xi) for xi in ladder]
    return study.discrepancies, reps, (coeff, params, modes)


def _eig_floor(coeff, params, modes, rep):
    """The eig route's rounding floor at `rep`'s xi, per ROUNDED quantity.

    A Hermitian eigensolve of order n is exact for a matrix within
    p(n) u ||A|| of A (LAPACK Users' Guide, sec. 4.7), taken here as
    p(n) = n: lambda1, and lambda1 F against a fixed multiple of P0, move
    by up to n u ||A||, and the projector F by up to n u ||A|| / (lambda2 -
    lambda1).  Two runs differ by at most twice that.
    """
    n = modes.size
    eig = 2.0 * n * UNIT_ROUNDOFF * hermitian_norm(
        assemble_fiber_matrix(coeff, params, modes, rep.xi).entries)
    return {"lambda1": eig, "f_minus_p": eig / (rep.lambda2 - rep.lambda1),
            "phi_norm": eig, "af_minus_eff": eig}


@pytest.mark.parametrize("name,tau", [("t2_alpha05", (0.3,)),
                                      ("t2_d2", (0.3, 0.1))])
def test_translation_keeps_every_quantity(name, tau):
    base = StudyConfig.load(CONFIGS / f"{name}.json")
    moved = _transformed(base, tau)
    assert any(rec["im"] != 0.0 for rec in moved.coefficient)
    disc, reps, (coeff, params, modes) = _study(base)
    # the base's points: certified delta0 moves with the sampled mu_minus
    disc_moved, reps_moved, _ = _study(moved, [rep.xi for rep in reps])

    np.testing.assert_allclose(disc_moved, disc, rtol=1e-12, atol=0.0)
    for rep, rep_moved in zip(reps, reps_moved, strict=True):
        for quantity in EXACT:
            assert getattr(rep_moved, quantity) == pytest.approx(
                getattr(rep, quantity), rel=1e-12, abs=0.0), (quantity, rep.xi)
        floor = _eig_floor(coeff, params, modes, rep)
        for quantity in ROUNDED:
            move = abs(getattr(rep_moved, quantity) - getattr(rep, quantity))
            assert move <= floor[quantity], (quantity, rep.xi, move)


def test_scaling_by_two_doubles_every_threshold_quantity():
    base = StudyConfig.load(CONFIGS / "t2_alpha05.json")
    disc, reps, _ = _study(base)
    # D_2(eps 2^(1/alpha)) = D(eps); 2^(1/alpha) = 4 is exact at alpha = 1/2
    disc_scaled, reps_scaled, _ = _study(_transformed(base, scale=2.0),
                                         [rep.xi for rep in reps],
                                         eps_scale=2.0 ** (1.0 / base.alpha))

    np.testing.assert_allclose(disc_scaled, disc, rtol=1e-12, atol=0.0)
    for rep, rep_scaled in zip(reps, reps_scaled, strict=True):
        for quantity in ("lambda1", "lambda2", "phi_norm", "af_minus_eff", "rho",
                         "rho_star"):
            assert getattr(rep_scaled, quantity) == 2.0 * getattr(rep, quantity), \
                (quantity, rep.xi)
        assert rep_scaled.f_minus_p == rep.f_minus_p
        assert rep_scaled.xi_norm == rep.xi_norm


# the axis flips of d = 2: x1 -> -x1, x2 -> -x2, and both (x -> -x)
AXIS_FLIPS = (np.array([-1, 1]), np.array([1, -1]), np.array([-1, -1]))


def _d2_config(name):
    if name == "t2_d2":
        return StudyConfig.load(CONFIGS / "t2_d2.json")
    kind, seed = name.split("-")
    return StudyConfig.from_dict(bench_module("workloads").d2_config(kind, int(seed)))


def _flip_keeps_fibers(coeff, params, modes, g, points):
    """Whether A(g xi) is A(xi) with its modes permuted by m -> g m, bit for
    bit, at every xi of `points`."""
    perm = modes._ravel(modes.modes * g)
    cell = np.ix_(perm, perm)
    return [np.array_equal(assemble_fiber_matrix(coeff, params, modes, g * xi).entries[cell],
                           assemble_fiber_matrix(coeff, params, modes, xi).entries)
            for xi in points]


@pytest.mark.parametrize("factor", [1, 2], ids=["N", "2N"])
@pytest.mark.parametrize("name", ["t2_d2", "blocks-1", "blocks-2", "blocks-7",
                                  "dense-1", "dense-2", "dense-7"])
def test_axis_flips_permute_the_fiber(name, factor):
    cfg = _d2_config(name)
    coeff = certify(cfg.build_coefficient(), cfg.resolved_positivity_grid)
    params = ModelParams(2, cfg.alpha)
    modes = ModeSet(2, factor * cfg.resolved_truncation)
    points = np.random.default_rng(cfg.seed).uniform(-math.pi, math.pi, (3, 2))
    for g in AXIS_FLIPS:
        assert all(coeff.modes.get((tuple(g * k), tuple(g * l))) == amp
                   for (k, l), amp in coeff.modes.items())
        assert all(_flip_keeps_fibers(coeff, params, modes, g, points)), g


def test_a_coupling_that_breaks_the_x_flip_breaks_the_permutation():
    cfg = _d2_config("t2_d2")
    records = cfg.to_dict()["coefficient"]
    # 0.1 cos 2 pi (x1 + y2) + 0.1 cos 2 pi (x2 + y1): k + l = e1 + e2, whose
    # x-flipped image -e1 + e2 carries nothing; x -> -x still keeps it
    for k, l in (([1, 0], [0, 1]), ([0, 1], [1, 0]), ([-1, 0], [0, -1]),
                 ([0, -1], [-1, 0])):
        records.append({"k": k, "l": l, "re": 0.05, "im": 0.0})
    coeff = certify(coefficient_from_records(2, records), cfg.resolved_positivity_grid)
    params = ModelParams(2, cfg.alpha)
    modes = ModeSet(2, cfg.resolved_truncation)
    points = np.random.default_rng(cfg.seed).uniform(-math.pi, math.pi, (3, 2))
    x_flip, _, both = AXIS_FLIPS
    assert not any(_flip_keeps_fibers(coeff, params, modes, x_flip, points))
    assert all(_flip_keeps_fibers(coeff, params, modes, both, points))
