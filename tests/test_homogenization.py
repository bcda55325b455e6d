"""Resolvent discrepancies, the xi grid, rate fits, and the main study."""

import math
import pathlib

import numpy as np
import pytest

from levyhom import (DegenerateFit, ModeSet, ModelParams, XiGridSpec,
                     assemble_effective_fiber, assemble_fiber_matrix, certify,
                     compute_c0, discrepancy_study, effective_mu, loglog_slope,
                     rate_function, slope_check, threshold_resolvent_diff,
                     theory_constants)
from levyhom.config import StudyConfig
from levyhom.homogenization import (_mirror_reduced, _resolvent_diffs,
                                    _sup_over_points)

from conftest import bench_module, make_t2, random_band_limited

REPO = pathlib.Path(__file__).resolve().parents[1]


def effective_diff(coeff, params, modes, xi, eps):
    """Fiber resolvent difference against the effective fiber at shift eps^alpha."""
    symbol = assemble_effective_fiber(params, effective_mu(coeff), modes, xi)
    norms, _ = _resolvent_diffs(coeff, params, modes, xi, symbol,
                                [eps ** params.alpha])
    return float(norms[0])


class TestXiGrid:
    def test_contains_origin_and_stays_inside(self):
        pts = np.array(XiGridSpec(points_per_dim=6, radial_per_decade=3).points(2))
        assert np.any(np.all(pts == 0.0, axis=1))
        assert np.all(pts >= -math.pi) and np.all(pts < math.pi)

    def test_deterministic(self):
        spec = XiGridSpec(points_per_dim=8, radial_per_decade=4)
        g1, g2 = spec.points(1), spec.points(1)
        assert len(g1) == len(g2)
        assert all(np.array_equal(a, b) for a, b in zip(g1, g2))

    def test_no_duplicates(self):
        grid = XiGridSpec(points_per_dim=16, radial_per_decade=4).points(1)
        keys = {tuple(p) for p in grid}
        assert len(keys) == len(grid)

    def test_radial_refinement_present(self):
        grid = XiGridSpec(points_per_dim=4, radial_per_decade=4).points(1)
        norms = sorted(float(np.linalg.norm(p)) for p in grid)
        assert norms[1] == pytest.approx(1e-4)   # smallest nonzero radius

    def test_rejects_decreasing_radial_exponents(self):
        with pytest.raises(ValueError):
            XiGridSpec(radial_min_exp=-0.5, radial_max_exp=-4.0).points(1)

    def test_point_order_d2(self):
        # origin, the uniform lattice without the origin, then each radius
        # along e1, -e1, e2, -e2, diag, -diag
        spec = XiGridSpec(points_per_dim=2, radial_min_exp=-2.0,
                          radial_max_exp=-1.0, radial_per_decade=1)
        pi, d1, d2 = math.pi, 0.0070710678118654745, 0.07071067811865475
        expected = [
            (0.0, 0.0),
            (-pi, -pi), (-pi, 0.0), (0.0, -pi),
            (0.01, 0.0), (-0.01, 0.0), (0.0, 0.01), (0.0, -0.01),
            (d1, d1), (-d1, -d1),
            (0.1, 0.0), (-0.1, 0.0), (0.0, 0.1), (0.0, -0.1),
            (d2, d2), (-d2, -d2),
        ]
        assert [tuple(float(v) for v in p) for p in spec.points(2)] == expected


def _seeded_dense_d2(seed, budget=0.3):
    """The benchmark's dense d = 2 study: k + l in {+-e1, +-e2}, one block.

    The cos 2 pi x_j + cos 2 pi y_j terms get seeded weights in [0.5, 1.5],
    scaled so the non-constant amplitudes sum to `budget`.
    """
    weights = np.random.default_rng(seed).uniform(0.5, 1.5, 2)
    records = [{"k": [0, 0], "l": [0, 0], "re": 1.0}]
    for j, w in enumerate(weights):
        e = [int(i == j) for i in range(2)]
        ne = [-v for v in e]
        for k, l in ((e, [0, 0]), ([0, 0], e), (ne, [0, 0]), ([0, 0], ne)):
            records.append({"k": k, "l": l, "re": budget * w / (4 * weights.sum())})
    return StudyConfig.from_dict({
        "dimension": 2, "alpha": 0.5, "coefficient": records, "truncation": 3,
        "xi_grid": {"points_per_dim": 4},
        "epsilons": {"min": 1e-3, "max": 1e-1, "count": 8}})


def _study_inputs(name, alpha=None):
    """(coeff, params, modes, grid, shifts) of a shipped config, the dense d = 2
    one or the bench's seed-1 block one, at the config's alpha or at `alpha`."""
    if name == "dense-d2":
        cfg = _seeded_dense_d2(seed=7)
    elif name == "blocks-d2":
        cfg = StudyConfig.from_dict(bench_module("workloads").d2_config("blocks", 1))
    else:
        cfg = StudyConfig.load(REPO / "configs" / f"{name}.json")
    alpha = cfg.alpha if alpha is None else alpha
    params = ModelParams(cfg.dimension, alpha)
    coeff = certify(cfg.build_coefficient(), cfg.resolved_positivity_grid)
    modes = ModeSet(cfg.dimension, cfg.resolved_truncation)
    return (coeff, params, modes, cfg.xi_grid.points(cfg.dimension),
            cfg.epsilons.values() ** alpha)


def _random_complex_inputs(seed=3):
    """A certified random complex coefficient on the default d = 1 study."""
    coeff = certify(random_band_limited(np.random.default_rng(seed)))
    assert any(amp.imag for amp in coeff.modes.values())
    return (coeff, ModelParams(1, 0.5), ModeSet(1, 8), XiGridSpec().points(1),
            np.geomspace(1e-1, 1e-3, 12) ** 0.5)


class TestMirrorPairs:
    @pytest.mark.parametrize("dimension,points,paired,solved",
                             [(1, 46, 44, 24), (2, 346, 314, 189)])
    def test_default_grid_is_mirror_closed(self, dimension, points, paired,
                                           solved):
        grid = XiGridSpec().points(dimension)
        keys = {tuple(float(v) for v in p) for p in grid}
        inner = [p for p in grid if np.all(np.abs(p) < math.pi) and np.any(p != 0.0)]
        assert (len(grid), len(inner)) == (points, paired)
        for p in inner:
            assert tuple(float(-v) for v in p) in keys
        points = _mirror_reduced(grid)
        assert len(points) == solved
        # the kept points come in grid order, and each dropped point's
        # mirror is a kept point earlier in the grid
        index = {tuple(float(v) for v in p): i for i, p in enumerate(grid)}
        kept = [index[tuple(float(v) for v in p)] for p in points]
        assert kept == sorted(kept)
        for i in sorted(set(range(len(grid))) - set(kept)):
            j = index[tuple(float(-v) for v in grid[i])]
            assert j < i and j in kept

    def test_bench_d2_grid_solve_count(self):
        grid = XiGridSpec(points_per_dim=4).points(2)
        assert (len(grid), len(_mirror_reduced(grid))) == (106, 57)

    @pytest.mark.parametrize("name", ["t1_alpha1", "t2_alpha05", "t2_d2",
                                      "dense-d2"])
    def test_halved_sup_matches_every_point_solved(self, name):
        coeff, params, modes, grid, shifts = _study_inputs(name)
        mu0 = effective_mu(coeff)
        table = np.array([
            _resolvent_diffs(coeff, params, modes, xi,
                             assemble_effective_fiber(params, mu0, modes, xi), shifts)[0]
            for xi in grid])
        points = _mirror_reduced(grid)
        values, arg, _ = _sup_over_points(coeff, params, modes, points, shifts, 1)
        np.testing.assert_allclose(values, table.max(axis=0), rtol=1e-12, atol=0.0)
        norms = [np.linalg.norm(points[i]) for i in arg]
        ref_norms = [np.linalg.norm(grid[i]) for i in table.argmax(axis=0)]
        np.testing.assert_allclose(norms, ref_norms, rtol=1e-12, atol=0.0)


class TestSeededSweep:
    # t2_d2 checks its N pass only: the exhaustive 2N reference (1089 modes
    # in 66 blocks) alone takes 4 s, and the other cases cover the 2N seeds;
    # the bench's block config fails the all-shift pair at 51 of the 55 2N
    # points it tries, so its 2N norms are certified through the halving
    @pytest.mark.parametrize("name,alpha,passes", [
        ("t1_alpha1", None, 2), ("t2_alpha05", None, 2), ("t2_d2", None, 1),
        ("dense-d2", None, 2), ("t2_alpha05", 1.5, 2), ("t2_alpha05", 1.9, 2),
        ("random-complex", None, 2), ("blocks-d2", None, 2), ("t2_d3", None, 2)])
    def test_seeded_sweep_equals_exhaustive(self, name, alpha, passes,
                                            threads_at_any_order):
        # the passes of discrepancy_study, seeded as it seeds them, against
        # the same points solved with no floors (every point a seed); at
        # alpha > 1 the argmax moves with eps
        if name == "random-complex":
            coeff, params, modes, grid, shifts = _random_complex_inputs()
        else:
            coeff, params, modes, grid, shifts = _study_inputs(name, alpha)
        points = _mirror_reduced(grid)
        double = ModeSet(params.dimension, 2 * modes.truncation)
        seeds = (0,)
        for pass_modes in (modes, double)[:passes]:
            ref, ref_arg, (none, _, _) = _sup_over_points(
                coeff, params, pass_modes, points, shifts, 1,
                seeds=range(len(points)))
            assert none == 0
            runs = [_sup_over_points(coeff, params, pass_modes, points, shifts,
                                     workers, seeds) for workers in (1, 2)]
            for values, arg, certified in runs:
                assert np.array_equal(values, ref)
                assert np.array_equal(arg, ref_arg)
                assert certified == runs[0][2]
            seeds = tuple(ref_arg)
        # the last pass certifies most of its norms below the running max
        certified, pairs, _ = runs[0][2]
        assert 2 * certified > pairs

    def test_each_pass_gets_its_seeds(self, monkeypatch):
        # the origin seeds the N pass, and exactly the N pass's argmax
        # points seed the 2N pass; at alpha = 1.5 they move off the origin
        # with eps, and the origin then joins the 2N sweep unseeded
        import levyhom.homogenization as hom
        real = hom._sup_over_points
        calls = []

        def recording(coeff, params, modes, points, shifts, workers, seeds):
            out = real(coeff, params, modes, points, shifts, workers, seeds)
            calls.append((sorted({int(i) for i in seeds}), out[1]))
            return out

        monkeypatch.setattr(hom, "_sup_over_points", recording)
        coeff, params, modes, grid, _ = _study_inputs("t2_alpha05", 1.5)
        eps = StudyConfig.load(REPO / "configs" / "t2_alpha05.json").epsilons
        discrepancy_study(coeff, params, modes, grid, eps.values())
        (seeds_n, arg_n), (seeds_2n, _) = calls
        assert seeds_n == [0]
        assert seeds_2n == sorted({int(i) for i in arg_n})
        assert 0 not in seeds_2n and len(seeds_2n) > 1

    @pytest.mark.parametrize("name,skipped", [("dense-d2", (51, 54)),
                                              ("random-complex", (23, 23))])
    def test_points_with_no_eigensolve(self, name, skipped):
        # solved points of each pass whose every norm is certified; where
        # the pair fails on the whole shift set the halves are tried alone
        if name == "random-complex":
            coeff, params, modes, grid, shifts = _random_complex_inputs()
        else:
            coeff, params, modes, grid, shifts = _study_inputs(name)
        points = _mirror_reduced(grid)
        double = ModeSet(params.dimension, 2 * modes.truncation)
        _, arg, (*_, at_n) = _sup_over_points(coeff, params, modes, points,
                                              shifts, 1, seeds=(0,))
        *_, (*_, at_2n) = _sup_over_points(coeff, params, double, points,
                                           shifts, 1, seeds=tuple(arg))
        assert (at_n, at_2n) == skipped

    def test_halving_certifies_what_the_all_shift_pair_cannot(self, monkeypatch):
        # a pair certifies each shift of a set through the set's elementwise
        # min: on the dense d = 2 study some calls certify every shift only
        # through the halves, and some certify a strict subset
        import levyhom.homogenization as hom
        real_below, real_cholesky = hom._below_floors, np.linalg.cholesky
        factorizations, calls = [0], []

        def counting_cholesky(a):
            factorizations[0] += 1
            return real_cholesky(a)

        def recording(stack, sigma, shifts, floors):
            factorizations[0] = 0
            mask = real_below(stack, sigma, shifts, floors)
            calls.append((mask, factorizations[0]))
            return mask

        monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
        monkeypatch.setattr(hom, "_below_floors", recording)
        coeff, params, modes, grid, _ = _study_inputs("dense-d2")
        discrepancy_study(coeff, params, modes, grid,
                          _seeded_dense_d2(seed=7).epsilons.values(), workers=1)
        # a passing pair takes two factorizations, so more than two on a
        # call that certifies every shift means the all-shift pair failed
        rescued = sum(mask.all() and count > 2 for mask, count in calls)
        partial = sum(0 < mask.sum() < mask.size for mask, _ in calls)
        assert (rescued, partial) == (11, 2)

    @pytest.mark.parametrize("name,alpha", [("t2_alpha05", 1.5),
                                            ("random-complex", None)])
    def test_sweep_over_any_point_list(self, name, alpha, threads_at_any_order):
        # the sweep reads a plain list: shuffled and not mirror-closed, it
        # still gives the max and the first argmax of every point solved
        # with no floors
        if name == "random-complex":
            coeff, params, modes, grid, shifts = _random_complex_inputs()
        else:
            coeff, params, modes, grid, shifts = _study_inputs(name, alpha)
        rng = np.random.default_rng(5)
        points = [grid[i] for i in rng.permutation(len(grid))[:len(grid) - 9]]
        keys = {tuple(float(v) for v in p) for p in points}
        assert any(tuple(float(-v) for v in p) not in keys for p in points)
        mu0 = effective_mu(coeff)
        table = np.array([
            _resolvent_diffs(coeff, params, modes, xi,
                             assemble_effective_fiber(params, mu0, modes, xi), shifts)[0]
            for xi in points])
        for workers in (1, 2):
            values, arg, _ = _sup_over_points(coeff, params, modes, points,
                                              shifts, workers, seeds=(0,))
            assert np.array_equal(values, table.max(axis=0))
            assert np.array_equal(arg, table.argmax(axis=0))


class TestResolventDiff:
    def test_constant_coefficient_zero(self, t0, params_half):
        modes = ModeSet(1, 6)
        for xi, eps in (([0.0], 0.1), ([0.7], 0.01), ([2.0], 1.0)):
            assert effective_diff(t0, params_half, modes, xi, eps) == 0.0

    def test_zero_xi_bound(self, t2, params_one):
        const = theory_constants(params_one, t2)
        modes = ModeSet(1, 8)
        for eps in (1e-3, 1e-2, 1e-1):
            val = effective_diff(t2, params_one, modes, [0.0], eps)
            assert val <= 2.0 / (const.mu_minus * const.c0 * math.pi ** 1.0)

    def test_determinism_and_shift_identity(self, t2, params_three_halves):
        modes = ModeSet(1, 8)
        a = threshold_resolvent_diff(t2, params_three_halves, modes, [0.3], 0.01)
        b = threshold_resolvent_diff(t2, params_three_halves, modes, [0.3], 0.01)
        assert a == b
        # epsilon enters only through the spectral shift eps^alpha
        effective = assemble_effective_fiber(params_three_halves, effective_mu(t2),
                                             modes, [0.3])
        symbol = np.full(modes.size, np.inf)
        symbol[modes.zero_index] = effective[modes.zero_index]
        shifted, _ = _resolvent_diffs(t2, params_three_halves, modes, [0.3],
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
            threshold_resolvent_diff(t0, params_half, ModeSet(1, 4), [0.1], 0.0)

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
        assert effective_diff(coeff, params, modes, xi, eps) == \
            pytest.approx(effective, rel=1e-10)
        assert threshold_resolvent_diff(coeff, params, modes, xi, eps) == \
            pytest.approx(rank_one, rel=1e-10)


class TestFitRate:
    def test_exact_power(self):
        eps = np.geomspace(1e-1, 1e-3, 10)
        slope, r2 = loglog_slope(eps, eps ** 0.5)
        assert slope == pytest.approx(0.5, abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)
        # off alpha = 1 the rate is a pure power, fitted against eps itself
        assert slope_check(eps, eps ** 0.5, 0.5, "discrepancy", 0.1) == \
            (slope, 0.5 - 0.1)

    def test_log_corrected_exact(self):
        eps = np.geomspace(1e-1, 1e-3, 12)
        vals = 3.0 * eps * (1.0 + np.abs(np.log(eps))) ** 2
        slope, floor = slope_check(eps, vals, 1.0, "discrepancy", 0.15)
        assert slope == pytest.approx(1.0, abs=1e-6)
        # alpha = 1 is a singular exponent: the margin widens by 0.05
        assert floor == pytest.approx(1.0 - 0.15 - 0.05, abs=1e-15)

    def test_noisy_power(self):
        rng = np.random.default_rng(42)
        eps = np.geomspace(1e-1, 1e-3, 12)
        vals = eps ** 0.5 * (1.0 + 0.01 * rng.normal(size=eps.size))
        slope, _ = slope_check(eps, vals, 0.5, "discrepancy", 0.1)
        assert 0.48 <= slope <= 0.52

    def test_degenerate_cases(self):
        eps = np.geomspace(1e-1, 1e-3, 10)
        with pytest.raises(DegenerateFit):
            slope_check(eps, np.zeros_like(eps), 0.5, "discrepancy", 0.1)
        with pytest.raises(DegenerateFit):
            slope_check(eps, np.ones_like(eps), 0.5, "discrepancy", 0.1)
        with pytest.raises(DegenerateFit):
            loglog_slope([1e-1, 1e-2], [1.0, 0.5])


class TestRateBound:
    def test_branches(self):
        eps = np.array([1e-2])
        assert rate_function(0.5, "discrepancy", eps)[0] == pytest.approx(0.1)
        assert rate_function(1.5, "discrepancy", eps)[0] == \
            pytest.approx(np.sqrt(1e-2))
        expected = 1e-2 * (1 + abs(math.log(1e-2))) ** 2
        assert rate_function(1.0, "discrepancy", eps)[0] == pytest.approx(expected)


@pytest.fixture(scope="module")
def small_grid():
    return XiGridSpec(points_per_dim=8, radial_per_decade=3).points(1)


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

    def test_requires_certified_coefficient(self, params_half, small_grid):
        # mirror pairs share one solve only because realness was checked
        with pytest.raises(ValueError, match="certified"):
            discrepancy_study(make_t2(), params_half, ModeSet(1, 4), small_grid,
                              np.geomspace(1e-1, 1e-3, 8))

    def test_constant_coefficient_exact(self, t0, params_half, small_grid):
        modes = ModeSet(1, 4)
        res = discrepancy_study(t0, params_half, modes, small_grid,
                                np.geomspace(1e-1, 1e-3, 8))
        assert np.all(res.discrepancies == 0.0)
        assert res.truncation_stability == 0.0

    def test_t2_study(self, t2, params_half, small_grid):
        modes = ModeSet(1, 8)
        eps = np.geomspace(1e-1, 1e-3, 8)
        res = discrepancy_study(t2, params_half, modes, small_grid, eps)
        assert res.discrepancies.any()
        assert np.all(res.discrepancies >= 0.0)
        assert np.all(res.discrepancies <= 2.0)
        # decays along the study: last <= 0.2 x first over >= 1.5 decades
        assert res.discrepancies[-1] <= 0.2 * res.discrepancies[0]
        assert loglog_slope(res.epsilons, res.discrepancies)[0] >= 0.4
        ratios = res.discrepancies / rate_function(0.5, "discrepancy",
                                                   res.epsilons)
        assert ratios.max() / ratios.min() <= 10.0
        assert res.truncation_stability <= 0.05
        assert res.epsilons[0] > res.epsilons[-1]

    def test_worker_determinism(self, t2, params_half, small_grid,
                                threads_at_any_order):
        modes = ModeSet(1, 8)
        eps = np.geomspace(1e-1, 1e-3, 8)
        r1 = discrepancy_study(t2, params_half, modes, small_grid, eps, workers=1)
        r8 = discrepancy_study(t2, params_half, modes, small_grid, eps, workers=8)
        assert np.array_equal(r1.discrepancies, r8.discrepancies)
        assert np.array_equal(r1.argmax_xi_norm, r8.argmax_xi_norm)

    def test_alpha_one_fits_log(self, t2, small_grid):
        # at alpha = 1 the profile has a log factor, so slope_check fits
        # against the profile itself; the singular-band notice is the CLI's
        # (test_cli.py::test_singular_alpha_notice_is_one_report_line)
        params = ModelParams(1, 1.0)
        modes = ModeSet(1, 8)
        res = discrepancy_study(t2, params, modes, small_grid,
                                np.geomspace(1e-1, 1e-3, 8))
        slope, _ = slope_check(res.epsilons, res.discrepancies, 1.0,
                               "discrepancy", 0.0)
        assert slope >= 0.9

    def test_unstable_truncation_is_returned(self, t2, params_half, small_grid,
                                             monkeypatch):
        # band-limited coefficients are stable in practice; force the
        # doubled-truncation pass to disagree: the study reports the drift
        # and leaves its verdict to the caller
        import levyhom.homogenization as hom
        real = hom._sup_over_points

        def skewed(coeff, params, modes, points, shifts, workers, seeds):
            vals, idx, certified = real(coeff, params, modes, points, shifts,
                                        workers, seeds)
            if modes.truncation > 8:
                vals = vals * 1.2
            return vals, idx, certified

        monkeypatch.setattr(hom, "_sup_over_points", skewed)
        res = discrepancy_study(t2, params_half, ModeSet(1, 8), small_grid,
                                np.geomspace(1e-1, 1e-3, 8))
        assert res.truncation_stability > 0.05
