"""CLI contract: exit codes, CSV artifacts, digests, determinism."""

import dataclasses
import hashlib
import importlib.util
import json
import math
import pathlib
import re
import sys

import numpy as np
import pytest

from levyhom import (ModelParams, StudyConfig, c1_constant, certify, compute_c0,
                     loglog_slope, theory_constants)
from levyhom.cli import COMMANDS, main
from conftest import make_t2, random_band_limited

T2_RECORDS = [
    {"k": [0], "l": [0], "re": 1.0, "im": 0.0},
    {"k": [1], "l": [1], "re": 0.125, "im": 0.0},
    {"k": [1], "l": [-1], "re": 0.125, "im": 0.0},
    {"k": [-1], "l": [1], "re": 0.125, "im": 0.0},
    {"k": [-1], "l": [-1], "re": 0.125, "im": 0.0},
]


def write_config(path, **overrides):
    data = {
        "dimension": 1,
        "alpha": 0.5,
        "coefficient": T2_RECORDS,
        "truncation": 8,
        "xi_grid": {"points_per_dim": 8, "radial_min_exp": -4.0,
                    "radial_max_exp": -0.5, "radial_per_decade": 4,
                    "directions": "axes+diagonals"},
        "epsilons": {"min": 1e-3, "max": 1e-1, "count": 8},
        "tolerances": {"oracle_rel": 1e-3, "projector_abs": 1e-8,
                       "slope_margin": 0.1},
        "positivity_grid": 64,
        "seed": 7,
        "output": "out",
    }
    data.update(overrides)
    path.write_text(json.dumps(data))
    return data


def test_config_roundtrip(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    cfg = StudyConfig.load(cfg_path)
    again = StudyConfig.from_json(cfg.to_json())
    assert cfg == again
    assert cfg.digest() == again.digest()


def _sha256_digest(cfg):
    return hashlib.sha256(cfg.to_json().encode()).hexdigest()[:12]


@pytest.mark.parametrize("name", ["t1_alpha1", "t2_alpha05", "t2_d2"])
def test_shipped_config_digest_is_sha256(name):
    cfg = StudyConfig.load(REPO / "configs" / f"{name}.json")
    assert cfg.digest() == _sha256_digest(cfg)


@pytest.mark.parametrize("dimension", [1, 2, 3])
@pytest.mark.parametrize("draw", ["t2", "random"])
def test_built_config_digest_is_sha256(draw, dimension):
    coeff = (make_t2(dimension) if draw == "t2"
             else random_band_limited(np.random.default_rng(3), dimension))
    records = [{"k": list(k), "l": list(l), "re": complex(a).real,
                "im": complex(a).imag} for (k, l), a in coeff.modes.items()]
    cfg = StudyConfig.from_dict({"dimension": dimension, "alpha": 0.5,
                                 "coefficient": records})
    assert cfg.digest() == _sha256_digest(cfg)


def test_config_rejects_unknown_fields(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, bogus=1)
    assert main(["validate", "--config", str(cfg_path)]) == 1


@pytest.mark.parametrize("body", ["5", "[1, 2]", '"abc"', "null"])
def test_non_object_config_exits_1(tmp_path, capsys, body):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(body)
    assert main(["validate", "--config", str(cfg_path)]) == 1
    assert_one_line_config_error(capsys, "config must be a JSON object")


def test_validate_pass(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    assert main(["validate", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    for key in ("c0", "mu_minus", "mu_plus", "mu_eff", "delta0", "d0"):
        assert key in out


# a coefficient that breaks exchange symmetry: certify raises SymmetryViolation
SYMMETRY_BROKEN = [{"k": [0], "l": [0], "re": 1.0, "im": 0.0},
                   {"k": [1], "l": [0], "re": 0.3, "im": 0.0},
                   {"k": [-1], "l": [0], "re": 0.3, "im": 0.0},
                   {"k": [0], "l": [1], "re": 0.2, "im": 0.0},
                   {"k": [0], "l": [-1], "re": 0.2, "im": 0.0}]


def test_validate_symmetry_failure_exits_2(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, coefficient=SYMMETRY_BROKEN)
    assert main(["validate", "--config", str(cfg_path)]) == 2


def _assert_one_measurement_failure(capsys, error):
    """The printed report reads FAIL, its one fail line names `error`, and
    stderr is empty.  Returns the report's lines."""
    out, err = capsys.readouterr()
    assert err == ""
    lines = out.splitlines()
    assert lines[2].startswith("status:  FAIL ")
    fails = [line.strip() for line in lines
             if line.startswith("  ") and ": fail" in line]
    assert len(fails) == 1 and fails[0].startswith(f"measurement: fail [{error}: "), fails
    return lines


@pytest.mark.parametrize("command", list(COMMANDS))
def test_unmeasurable_quantity_is_one_report_verdict(tmp_path, capsys, command):
    # a LevyhomError from any command is one fail verdict of the printed
    # report, as every other failed check is
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, coefficient=SYMMETRY_BROKEN)
    xi = ["--xi", "0.3"] if command == "fiber" else []
    assert main([command, "--config", str(cfg_path), *xi,
                 "--out", str(tmp_path / "art")]) == 2
    _assert_one_measurement_failure(capsys, "SymmetryViolation")


def test_degenerate_rate_fit_prints_its_report(tmp_path, capsys, monkeypatch):
    import levyhom.cli as cli
    from levyhom import DegenerateFit

    def degenerate(x, y):
        raise DegenerateFit("no distinct points")

    monkeypatch.setattr(cli, "loglog_slope", degenerate)
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    assert main(["rate-study", "--config", str(cfg_path),
                 "--out", str(tmp_path / "art")]) == 2
    _assert_one_measurement_failure(capsys, "DegenerateFit")


def test_unmeasurable_ladder_point_is_one_report_verdict(tmp_path, capsys,
                                                         monkeypatch):
    # a ladder point that cannot be measured ends the run like any other
    # LevyhomError: no verdict of thresholds' own, and no partial CSV
    import levyhom.spectral as spectral
    from levyhom import ConvergenceFailure
    real = spectral.threshold_report
    calls = []

    def fails_third(coeff, params, modes, xi):
        calls.append(xi)
        if len(calls) == 3:     # the origin, then |xi| = 1e-4, then 10^-3.75
            raise ConvergenceFailure("eigh did not converge")
        return real(coeff, params, modes, xi)

    monkeypatch.setattr(spectral, "threshold_report", fails_third)
    out_dir = tmp_path / "art"
    assert main(["thresholds", "--config", str(REPO / "configs" / "t2_alpha05.json"),
                 "--out", str(out_dir), "--workers", "1"]) == 2
    _assert_one_measurement_failure(capsys, "ConvergenceFailure")
    assert not (out_dir / "thresholds.csv").exists()


def test_degenerate_ladder_fit_is_one_report_verdict(tmp_path, capsys, monkeypatch):
    # the first degenerate slope fit ends the run; the verdicts before it and
    # the CSV, written before the checks, stay
    import levyhom.cli as cli
    from levyhom import DegenerateFit

    def degenerate(*args):
        raise DegenerateFit("no distinct points")

    monkeypatch.setattr(cli, "slope_check", degenerate)
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    out_dir = tmp_path / "art"
    assert main(["thresholds", "--config", str(cfg_path),
                 "--out", str(out_dir)]) == 2
    lines = _assert_one_measurement_failure(capsys, "DegenerateFit")
    assert any(line.startswith("  lambda1_bounds: pass margin=") for line in lines)
    assert not any(line.startswith("  slope_") for line in lines)
    assert (out_dir / "thresholds.csv").exists()


def test_each_input_has_one_form(capsys):
    # the truncation is set in the config only, and every --xi carries all
    # of its components
    t2_d2 = str(REPO / "configs" / "t2_d2.json")
    assert main(["validate", "--config", t2_d2, "--truncation", "4"]) == 1
    assert "unrecognized arguments: --truncation 4" in capsys.readouterr().err
    assert main(["fiber", "--config", t2_d2, "--xi", "0.3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: xi must have 2 finite components") and \
        err.count("\n") == 1, err


def test_missing_config_exits_1(tmp_path):
    assert main(["validate", "--config", str(tmp_path / "nope.json")]) == 1


def test_bad_json_exits_1(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("{not json")
    assert main(["validate", "--config", str(cfg_path)]) == 1


def test_usage_error_exits_1():
    assert main(["validate"]) == 1          # missing --config
    assert main(["no-such-command"]) == 1


def test_constants(tmp_path, capsys):
    # `constants` is validate's report under the name the benchmark runs:
    # the same lines but the command and the wall time
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    reports = []
    for command in ("validate", "constants"):
        assert main([command, "--config", str(cfg_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"command: {command}"
        assert lines[2].startswith("status:  PASS (wall ")
        reports.append([lines[1]] + lines[3:])
    assert reports[0] == reports[1]
    assert any(line.startswith("  mu_eff_within_bounds: pass margin=")
               for line in reports[1])


def test_fiber_export(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    out_dir = tmp_path / "art"
    code = main(["fiber", "--config", str(cfg_path), "--out", str(out_dir),
                 "--xi", "0.5"])
    assert code == 0
    csv_path = out_dir / "fiber_0.csv"
    text = csv_path.read_text().splitlines()
    assert text[0].startswith("# config=")
    assert text[1].startswith("re_0,im_0,")
    assert len(text) == 2 + 17   # digest + header + (2*8+1) matrix rows
    # T2's amplitudes are real, so its fiber is assembled in float64; the
    # CSV still holds re/im pairs, with every imaginary part zero
    rows = [[float(c) for c in line.split(",")] for line in text[2:]]
    assert all(len(row) == 2 * 17 for row in rows)
    assert all(row[1::2] == [0.0] * 17 for row in rows)


def test_margins_are_slack(tmp_path, capsys):
    # a margin is the distance from failing: mu_eff's to the nearer bound,
    # and the Hermitian rule's bound less the defect, which at xi = 0 (T2's
    # fiber is exactly symmetric there) is all of the bound
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, truncation=4)
    cfg = StudyConfig.load(cfg_path)
    coeff = certify(cfg.build_coefficient(), cfg.resolved_positivity_grid)
    assert main(["validate", "--config", str(cfg_path)]) == 0
    verdict = _report_checks(capsys)["mu_eff_within_bounds"]
    assert verdict == (f"pass margin="
                       f"{min(1.0 - coeff.mu_minus, coeff.mu_plus - 1.0)!r}")
    out_dir = tmp_path / "art"
    assert main(["fiber", "--config", str(cfg_path), "--out", str(out_dir),
                 "--xi", "0", "0.5"]) == 0
    checks = _report_checks(capsys)
    for idx in (1, 0):
        rows = (out_dir / f"fiber_{idx}.csv").read_text().splitlines()[2:]
        a = np.array([[float(c) for c in row.split(",")] for row in rows]).view(complex)
        bound = 1e-12 * max(1.0, float(np.abs(a).max()))
        slack = bound - float(np.abs(a - a.conj().T).max())
        assert checks[f"hermitian_xi{idx}"] == f"pass margin={slack!r}"
    assert slack == bound


def test_thresholds(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, xi_grid={"points_per_dim": 4, "radial_min_exp": -3.0,
                                    "radial_max_exp": -1.0,
                                    "radial_per_decade": 5,
                                    "directions": "axes"})
    out_dir = tmp_path / "art"
    code = main(["thresholds", "--config", str(cfg_path), "--out", str(out_dir)])
    assert code == 0
    lines = (out_dir / "thresholds.csv").read_text().splitlines()
    assert lines[0].startswith("# config=")
    assert lines[1] == ("xi_1,xi_norm,lambda1,lambda2,f_minus_p,phi_norm,"
                        "af_minus_eff,rho,rho_star")
    assert len(lines) > 10


def test_thresholds_empty_ladder_fails(tmp_path, capsys):
    # delta0 is about 0.035 here, so no radius of 10^-1 .. 10^-0.5 lies inside
    # the certified ball and the CSV holds only xi = 0: no slope evidence
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, xi_grid={"points_per_dim": 8, "radial_min_exp": -1.0,
                                    "radial_max_exp": -0.5,
                                    "radial_per_decade": 4,
                                    "directions": "axes+diagonals"})
    out_dir = tmp_path / "art"
    assert main(["thresholds", "--config", str(cfg_path),
                 "--out", str(out_dir)]) == 2
    out = capsys.readouterr().out
    for name in ("lambda1_bounds", "slope_f_minus_p", "slope_phi", "slope_rho_star"):
        assert f"{name}: fail [empty ladder" in out


def test_rate_study_and_determinism(tmp_path, capsys, threads_at_any_order):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["rate-study", "--config", str(cfg_path), "--out", str(out1),
                 "--workers", "1"]) == 0
    assert main(["rate-study", "--config", str(cfg_path), "--out", str(out2),
                 "--workers", "8"]) == 0
    # the origin, -pi and one point of each of the 18 mirror pairs; at
    # either worker count every norm off the seed (the origin) is certified
    # below the running max, 19 points x 8 epsilons per pass, and none of
    # those 19 points needs an eigensolve
    out = capsys.readouterr().out
    assert out.count("20 of 38 grid points solved; norms certified below the "
                     "running max: 152 of 152 at N, 152 of 152 at 2N; solved "
                     "points with no eigensolve: 19 at N, 19 at 2N]") == 2
    b1 = (out1 / "rate_study.csv").read_bytes()
    b2 = (out2 / "rate_study.csv").read_bytes()
    assert b1 == b2
    lines = b1.decode().splitlines()
    assert lines[1] == "epsilon,discrepancy,rate_bound,bound_ratio,argmax_xi_norm"
    assert any(line.startswith("fitted_slope,") for line in lines)
    assert any(line.startswith("truncation_stability,") for line in lines)


def test_rate_study_exact_constant(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, coefficient=[{"k": [0], "l": [0], "re": 1.0, "im": 0.0}])
    out_dir = tmp_path / "art"
    assert main(["rate-study", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    assert "exact" in capsys.readouterr().out
    lines = (out_dir / "rate_study.csv").read_text().splitlines()
    assert any(line.startswith("fitted_slope,exact") for line in lines)


def test_oracle_check(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, truncation=2)
    out_dir = tmp_path / "art"
    assert main(["oracle-check", "--config", str(cfg_path),
                 "--out", str(out_dir)]) == 0
    lines = (out_dir / "oracle_check.csv").read_text().splitlines()
    assert lines[1].startswith("m,n,xi,alpha,")
    out = capsys.readouterr().out
    assert "c0_quadrature: pass" in out
    assert "form_elements: pass" in out
    assert "form_difference: pass" in out


def _checks_of(stdout):
    """Verdict name -> the rest of its line, from a command's printed report."""
    return dict(line.strip().split(": ", 1) for line in stdout.splitlines()
                if line.startswith("  ") and ": " in line)


def _report_checks(capsys):
    return _checks_of(capsys.readouterr().out)


# the verdicts that compare a number with a limit, and print it as margin=
# wherever the number exists (not on a skip or an empty ladder); the others
# (identically zero or exact fits, the measurement verdict) are structural
NUMERIC_VERDICTS = {"mu_eff_within_bounds", "projector_routes", "lambda1_at_zero",
                    "lambda1_bounds", "lambda2_gap", "truncation_stability",
                    "bound_ratio", "c0_quadrature", "form_elements",
                    "form_difference"}


def _assert_margins_are_slack(checks):
    """pass <=> margin >= 0 on every line with a margin, from _report_checks."""
    assert checks
    for name, rest in checks.items():
        status = rest.split(" ", 1)[0]
        if not rest.startswith(f"{status} margin="):
            assert status == "skip" or name not in NUMERIC_VERDICTS, (name, rest)
            assert not name.startswith("hermitian_xi"), (name, rest)
            continue
        margin = float(rest.split("margin=", 1)[1].split()[0])
        assert (status == "pass") == (margin >= 0.0), (name, rest)


@pytest.mark.parametrize("alpha", [1.0, 1.5])
def test_form_difference_skips_at_alpha_ge_1(tmp_path, capsys, alpha):
    # the norm bound mu+ c1 |xi|^a is an alpha < 1 statement
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, alpha=alpha, truncation=2)
    assert main(["oracle-check", "--config", str(cfg_path),
                 "--out", str(tmp_path / "art")]) == 0
    assert _report_checks(capsys)["form_difference"].startswith("skip")


def test_form_difference_constant_coefficient(tmp_path, capsys):
    # for a constant coefficient A(xi) - A(0) is diagonal, so its norm is
    # c0 max_n | |2 pi n + xi|^a - |2 pi n|^a | in closed form
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, truncation=2,
                 coefficient=[{"k": [0], "l": [0], "re": 1.0, "im": 0.0}])
    assert main(["oracle-check", "--config", str(cfg_path),
                 "--out", str(tmp_path / "art")]) == 0
    verdict = _report_checks(capsys)["form_difference"]
    cfg = StudyConfig.load(cfg_path)
    a = cfg.alpha
    params = ModelParams(1, a)
    mu_plus = certify(cfg.build_coefficient(), cfg.resolved_positivity_grid).mu_plus
    n = 2.0 * math.pi * np.arange(-2, 3)
    ratio = max(compute_c0(params) * np.max(np.abs(np.abs(n + r) ** a - np.abs(n) ** a))
                / (mu_plus * c1_constant(params) * r ** a)
                for r in cfg.xi_grid.radii())
    assert verdict.startswith("pass margin=")
    margin = float(verdict.split("margin=")[1].split()[0])
    # the slack of the check ratio <= 1 + 1e-9, its rounding allowance
    assert margin == pytest.approx(1.0 + 1e-9 - ratio, rel=1e-10)


# ----------------------------------------------------------------------
# Mutants: every printed verdict can fail.  MUTANTS maps each verdict name
# to a command, the configs it runs on and a fault; under the fault that
# verdict reads fail, and the command still prints its report and exits 2.
# test_every_margin_is_slack fails on a printed verdict with no entry.
# ----------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Mutant:
    command: str
    configs: tuple      # `t2_n8` (write_config's T2 at N = 8) or shipped names
    fault: object       # fault(monkeypatch, cfg) installs it; may return a record


def _constants(cfg):
    return theory_constants(ModelParams(cfg.dimension, cfg.alpha),
                            certify(cfg.build_coefficient(),
                                    cfg.resolved_positivity_grid))


def _grid_min(value):
    """`_grid_min_max` reports value(lo, hi) as the grid min of mu."""
    def fault(monkeypatch, cfg):
        import levyhom.coefficient as coefficient
        real = coefficient._grid_min_max

        def faulty(coeff, grid):
            lo, hi = real(coeff, grid)
            return value(lo, hi), hi

        monkeypatch.setattr(coefficient, "_grid_min_max", faulty)
    return fault


def _skewed_fiber_blocks(monkeypatch, cfg):
    """1e-9 max |A| added to one off-diagonal entry of every fiber block."""
    import levyhom.fiber as fiber
    real = fiber.assemble_fiber_matrix

    def skewed(*args):
        matrix = real(*args)
        scale = max(float(np.abs(stack).max()) for stack in matrix.stacks)
        stacks = tuple(stack.copy() for stack in matrix.stacks)
        for stack in stacks:
            if stack.shape[-1] > 1:
                stack[:, 0, 1] += 1e-9 * scale
        return dataclasses.replace(matrix, stacks=stacks)

    monkeypatch.setattr(fiber, "assemble_fiber_matrix", skewed)


def _scaled_subtracted_constants(monkeypatch, cfg):
    """The closed form's subtracted |2 pi k|^a, |2 pi l|^a scaled by 1 + 1e-6:
    at xi = 0 the zero mode no longer decouples."""
    import levyhom.fiber as fiber
    real_plan, real_pow = fiber._assembly_plan, fiber._sym_pow
    lks = []

    def plan(coeff, modes):
        out = real_plan(coeff, modes)
        lks.append(out.lk)
        return out

    def sym_pow(vecs, xi, alpha):
        out = real_pow(vecs, xi, alpha)
        return out * (1.0 + 1e-6) if any(vecs is lk for lk in lks) else out

    monkeypatch.setattr(fiber, "_assembly_plan", plan)
    monkeypatch.setattr(fiber, "_sym_pow", sym_pow)


def _eigenvalues_times_4(monkeypatch, cfg):
    """eig_hermitian's eigenvalues four times too large, its vectors right."""
    import levyhom.spectral as spectral
    real = spectral.eig_hermitian

    def scaled(matrix):
        lam, vec = real(matrix)
        return 4.0 * lam, vec

    monkeypatch.setattr(spectral, "eig_hermitian", scaled)


def _riesz_shifted(monkeypatch, cfg):
    """A Riesz projector 1e-6 I off the eig route's."""
    import levyhom.spectral as spectral
    real = spectral.projector_by_riesz

    def skewed(matrix, contour):
        riesz = real(matrix, contour)
        shift = 1e-6 * np.eye(len(riesz.projector))
        return spectral.RieszProjection(riesz.projector + shift, riesz.nodes)

    monkeypatch.setattr(spectral, "projector_by_riesz", skewed)


def _low_second_eigenvalue(monkeypatch, cfg):
    """lambda2 of the first ladder row moved to d0/6, under the d0/3 that
    bounds lambda1; returns the list of eigensolved matrices."""
    import levyhom.spectral as spectral
    d0 = _constants(cfg).d0
    real = spectral.eig_hermitian
    calls = []

    def low_lambda2(matrix):
        data = real(matrix)
        calls.append(matrix)
        if len(calls) != 2:        # the origin's eigensolve is the first
            return data
        lam, vec = data
        lam = lam.copy()
        lam[1] = d0 / 6
        assert lam[0] < lam[1]
        return lam, vec

    monkeypatch.setattr(spectral, "eig_hermitian", low_lambda2)
    return calls


def _slow_ladder(attr):
    """threshold_report's `attr` replaced by its modulus to the power 1/4: a
    quarter of its decay rate."""
    def fault(monkeypatch, cfg):
        import levyhom.spectral as spectral
        real = spectral.threshold_report

        def slow(*args):
            rep = real(*args)
            return dataclasses.replace(rep, **{attr: abs(getattr(rep, attr)) ** 0.25})

        monkeypatch.setattr(spectral, "threshold_report", slow)
    return fault


def _skew_doubled_pass(monkeypatch, cfg):
    """Scale the 2N pass of an N = 8 rate study by 1.2: a 20% truncation drift."""
    import levyhom.homogenization as hom
    real = hom._sup_over_points

    def skewed(coeff, params, modes, points, shifts, workers, seeds):
        vals, idx, certified = real(coeff, params, modes, points, shifts,
                                    workers, seeds)
        return (vals * 1.2 if modes.truncation > 8 else vals), idx, certified

    monkeypatch.setattr(hom, "_sup_over_points", skewed)


def _discrepancies(change):
    """The rate study's discrepancies replaced by change(discrepancies)."""
    def fault(monkeypatch, cfg):
        import levyhom.homogenization as hom
        real = hom.discrepancy_study

        def changed(*args, **kwargs):
            result = real(*args, **kwargs)
            return dataclasses.replace(result,
                                       discrepancies=change(result.discrepancies))

        monkeypatch.setattr(hom, "discrepancy_study", changed)
    return fault


def _scaled(target, factor):
    """The function at the dotted path `target` returns `factor` times its value."""
    def fault(monkeypatch, cfg):
        module, name = target.rsplit(".", 1)
        real = getattr(importlib.import_module(module), name)
        monkeypatch.setattr(target, lambda *args: factor * real(*args))
    return fault


def _bump_first(values):
    out = values.copy()
    out[0] *= 100.0
    return out


MUTANTS = {
    "measurement": Mutant("validate", ("t2_n8",), _grid_min(lambda lo, hi: 0.0)),
    "mu_eff_within_bounds": Mutant("validate", ("t2_n8",),
                                   _grid_min(lambda lo, hi: hi)),
    "hermitian_xi": Mutant("fiber", ("t2_n8", "t2_d2"), _skewed_fiber_blocks),
    "projector_routes": Mutant("thresholds", ("t2_n8",), _riesz_shifted),
    "lambda2_gap": Mutant("thresholds", ("t2_alpha05", "t2_d2"),
                          _low_second_eigenvalue),
    "lambda1_at_zero": Mutant("thresholds", ("t2_alpha05", "t2_d2"),
                              _scaled_subtracted_constants),
    "lambda1_bounds": Mutant("thresholds", ("t2_n8",), _eigenvalues_times_4),
    "slope_f_minus_p": Mutant("thresholds", ("t2_n8",),
                              _slow_ladder("f_minus_p_norm")),
    "slope_phi": Mutant("thresholds", ("t2_n8",), _slow_ladder("phi_norm")),
    "slope_rho_star": Mutant("thresholds", ("t2_n8",), _slow_ladder("rho_star")),
    "truncation_stability": Mutant("rate-study", ("t2_n8",), _skew_doubled_pass),
    "slope": Mutant("rate-study", ("t2_n8",), _discrepancies(np.sqrt)),
    "bound_ratio": Mutant("rate-study", ("t2_n8",), _discrepancies(_bump_first)),
    "c0_quadrature": Mutant("oracle-check", ("t2_n8",),
                            _scaled("levyhom.cli.oracle_c0", 1.01)),
    "form_elements": Mutant("oracle-check", ("t2_n8",),
                            _scaled("levyhom.fiber.oracle_form_element", 1.01)),
    "form_difference": Mutant("oracle-check", ("t2_n8",),
                              _scaled("levyhom.fiber.c1_constant", 1e-3)),
}


def _verdict_key(name):
    """The MUTANTS key of a printed verdict: one for every hermitian_xi<i>."""
    return "hermitian_xi" if re.fullmatch(r"hermitian_xi\d+", name) else name


def _fiber_xi(dimension):
    zeros = ",0.0" * (dimension - 1)
    return ["--xi", "0.3" + zeros, "1.0" + zeros]


def _run_mutant(name, config, tmp_path, capsys, monkeypatch):
    """Run MUTANTS[name] on `config` and check the contract: exit 2, nothing
    on stderr, a FAIL report in which every `name` line fails and every
    margin is slack.  Returns the
    report's checks, the output directory, the config and the fault's record."""
    mutant = MUTANTS[name]
    if config == "t2_n8":
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
    else:
        cfg_path = REPO / "configs" / f"{config}.json"
    cfg = StudyConfig.load(cfg_path)
    record = mutant.fault(monkeypatch, cfg)
    out_dir = tmp_path / "art"
    xi = _fiber_xi(cfg.dimension) if mutant.command == "fiber" else []
    assert main([mutant.command, "--config", str(cfg_path), "--out", str(out_dir),
                 "--workers", "1", *xi]) == 2
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines()[2].startswith("status:  FAIL ")
    checks = _checks_of(out)
    lines = [rest for verdict, rest in checks.items() if _verdict_key(verdict) == name]
    assert lines and all(rest.startswith("fail") for rest in lines), checks
    _assert_margins_are_slack(checks)
    return checks, out_dir, cfg, record


# the mutants whose own test below checks more of what the fault leaves
OWN_TESTS = {"form_difference", "truncation_stability", "projector_routes",
             "lambda2_gap"}


@pytest.mark.parametrize("name,config", [(name, config)
                                         for name, mutant in MUTANTS.items()
                                         if name not in OWN_TESTS
                                         for config in mutant.configs])
def test_mutant_fails_its_verdict(tmp_path, capsys, monkeypatch, name, config):
    _run_mutant(name, config, tmp_path, capsys, monkeypatch)


def test_form_difference_violation_exits_2(tmp_path, capsys, monkeypatch):
    # a c1 far too small must trip the bound
    checks = _run_mutant("form_difference", "t2_n8", tmp_path, capsys, monkeypatch)[0]
    assert checks["form_difference"].startswith("fail margin=-")
    assert checks["form_elements"].startswith("pass")


def test_unstable_truncation_prints_its_slack(tmp_path, capsys, monkeypatch):
    checks, out_dir, _, _ = _run_mutant("truncation_stability", "t2_n8", tmp_path,
                                        capsys, monkeypatch)
    verdict = checks["truncation_stability"]
    footer = [line for line in (out_dir / "rate_study.csv").read_text().splitlines()
              if line.startswith("truncation_stability,")]
    stability = float(footer[0].split(",")[1])
    assert stability > 0.05
    assert verdict.startswith(f"fail margin={0.05 - stability!r} "
                              f"[{stability:.2%} under N doubling; 20 of 38 grid")


def _ladder_rows(cfg):
    """Rows of thresholds.csv: the origin and each radius in the certified ball."""
    return 1 + int(np.sum(cfg.xi_grid.radii() <= _constants(cfg).delta0))


def test_projector_mismatch_fails_only_its_verdict(tmp_path, capsys, monkeypatch):
    # a Riesz projector 1e-6 off the eig route's fails projector_routes with
    # its negative slack; every ladder row is still measured and written
    checks, out_dir, cfg, _ = _run_mutant("projector_routes", "t2_n8", tmp_path,
                                          capsys, monkeypatch)
    assert checks["projector_routes"].startswith("fail margin=-")
    rows = _ladder_rows(cfg)
    assert len((out_dir / "thresholds.csv").read_text().splitlines()) == 2 + rows


@pytest.mark.parametrize("config", ["t2_alpha05", "t2_d2"])
def test_gap_break_fails_only_its_verdict(tmp_path, capsys, monkeypatch, config):
    # lambda2 of the first ladder row moved to d0/6: lambda2_gap fails with
    # its negative slack, and every row is still measured and written
    checks, out_dir, cfg, calls = _run_mutant("lambda2_gap", config, tmp_path,
                                              capsys, monkeypatch)
    assert {n for n, rest in checks.items() if rest.startswith("fail")} == {"lambda2_gap"}
    d0 = _constants(cfg).d0
    margin = float(checks["lambda2_gap"].split("margin=")[1].split()[0])
    assert margin == pytest.approx(d0 / 6 - d0 + 1e-10, rel=1e-12)
    rows = _ladder_rows(cfg)
    assert len(calls) == rows
    assert len((out_dir / "thresholds.csv").read_text().splitlines()) == 2 + rows


def _collector_runs(config, tmp_path):
    """argv of every run of `config`: a shipped config through every command,
    a bench workload's seed-1 config through the commands the bench runs on it."""
    if config in ("d2-blocks", "d2-dense"):
        workload = _bench_module("workloads").build(config, 1, str(REPO), str(tmp_path))
        return [workload.argv(step, str(tmp_path / step.command), 1)
                for step in workload.steps if not step.serial]
    path = str(REPO / "configs" / f"{config}.json")
    dimension = StudyConfig.load(path).dimension
    return [[command, "--config", path, "--out", str(tmp_path / command),
             "--workers", "1", *(_fiber_xi(dimension) if command == "fiber" else [])]
            for command in COMMANDS]


@pytest.mark.parametrize("config", ["t1_alpha1", "t2_alpha05", "t2_d2", "t2_d3",
                                    "d2-blocks", "d2-dense"])
def test_every_margin_is_slack(tmp_path, capsys, config):
    # a margin= line passes exactly where its margin is >= 0, so a pass never
    # prints a negative margin; every numeric verdict prints one; and every
    # printed verdict but a skip has a MUTANTS entry, a fault that fails it
    for argv in _collector_runs(config, tmp_path):
        assert main(argv) == 0, argv
        checks = _report_checks(capsys)
        _assert_margins_are_slack(checks)
        unjudged = {name for name, rest in checks.items()
                    if not rest.startswith("skip") and _verdict_key(name) not in MUTANTS}
        assert not unjudged, (argv[0], unjudged)


@pytest.mark.parametrize("config", ["t1_alpha1", "t2_alpha05", "t2_d3"])
def test_eigenvalue_margins_from_the_csv(tmp_path, capsys, config):
    # the printed slacks of the eigenvalue checks, recomputed from the rows of
    # thresholds.csv: the origin (bounds [0, 0]), the ladder and the gap floor
    cfg_path = REPO / "configs" / f"{config}.json"
    out_dir = tmp_path / "art"
    assert main(["thresholds", "--config", str(cfg_path), "--out", str(out_dir),
                 "--workers", "1"]) == 0
    checks = _report_checks(capsys)
    cfg = StudyConfig.load(cfg_path)
    params = ModelParams(cfg.dimension, cfg.alpha)
    const = theory_constants(params, certify(cfg.build_coefficient(),
                                             cfg.resolved_positivity_grid))
    lines = (out_dir / "thresholds.csv").read_text().splitlines()
    header = lines[1].split(",")
    table = np.array([[float(c) for c in line.split(",")] for line in lines[2:]])
    r, lam1, lam2 = (table[:, header.index(k)]
                     for k in ("xi_norm", "lambda1", "lambda2"))
    assert r[0] == 0.0 and np.all(r[1:] > 0.0)
    scale = const.c0 * r[1:] ** params.alpha
    expect = {
        "lambda1_at_zero": 1e-10 - abs(lam1[0]),
        "lambda1_bounds": min(np.min(lam1[1:] - const.mu_minus * scale),
                              np.min(const.mu_plus * scale - lam1[1:])) + 1e-10,
        "lambda2_gap": np.min(lam2) - const.d0 + 1e-10,
    }
    for name, slack in expect.items():
        assert checks[name].startswith("pass margin=")
        margin = float(checks[name].split("margin=")[1].split()[0])
        assert margin == pytest.approx(slack, rel=1e-12, abs=1e-22), name
    # the origin's bounds are [0, 0]: its slack is the 1e-10 allowance alone
    assert 0.0 < expect["lambda1_at_zero"] <= 1e-10


def test_thresholds_constant_coefficient_all_zero(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, coefficient=[{"k": [0], "l": [0], "re": 1.0, "im": 0.0}])
    out_dir = tmp_path / "art"
    assert main(["thresholds", "--config", str(cfg_path),
                 "--out", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert out.count("identically zero") >= 2   # F-P and rho* vanish for T0


def test_rate_study_alpha_one_log_footer(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, alpha=1.0)
    out_dir = tmp_path / "art"
    assert main(["rate-study", "--config", str(cfg_path),
                 "--out", str(out_dir)]) == 0
    lines = (out_dir / "rate_study.csv").read_text().splitlines()
    assert any(line.startswith("log_corrected_slope,") for line in lines)


def test_singular_alpha_notice_is_one_report_line(tmp_path, capsys, caplog):
    # alpha = 1 lies in SINGULAR_ALPHA_BANDS: the notice is a skip verdict
    # on stdout, printed once; nothing goes to stderr nor to a log record
    # (under pytest a record reaches caplog's handler, not stderr)
    assert main(["rate-study", "--config", str(REPO / "configs" / "t1_alpha1.json"),
                 "--out", str(tmp_path), "--workers", "1"]) == 0
    out, err = capsys.readouterr()
    assert out.count("alpha_singularity_warning: skip [") == 1
    assert err == ""
    assert caplog.records == []


# shipped config, overrides
RATE_STUDY_CONFIGS = {
    "t1": ("t1_alpha1", {}),
    "t2": ("t2_alpha05", {}),
    "t2_alpha15": ("t2_alpha05", {"alpha": 1.5}),
    "constant": ("t1_alpha1", {"coefficient": T2_RECORDS[:1]}),
}


@pytest.mark.parametrize("name", sorted(RATE_STUDY_CONFIGS))
def test_rate_study_footers_refit_from_the_columns(tmp_path, name):
    # each derived value of rate_study.csv is one fit or one division of the
    # CSV's own columns, bit for bit
    base, overrides = RATE_STUDY_CONFIGS[name]
    data = json.loads((REPO / "configs" / f"{base}.json").read_text())
    data.update(overrides)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    assert main(["rate-study", "--config", str(cfg_path), "--out", str(tmp_path),
                 "--workers", "1"]) == 0
    lines = (tmp_path / "rate_study.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[2:]]
    footer = {row[0]: row[1] for row in rows if row[0].isidentifier()}
    table = np.array([row for row in rows if not row[0].isidentifier()], dtype=float)
    cols = dict(zip(lines[1].split(","), table.T))
    eps, disc, bound = cols["epsilon"], cols["discrepancy"], cols["rate_bound"]
    assert np.array_equal(cols["bound_ratio"], disc / bound)
    if name == "constant":
        assert not disc.any()
        assert "fitted_slope,exact,,," in lines
    else:
        assert (float(footer["fitted_slope"]),
                float(footer["r_squared"])) == loglog_slope(eps, disc)
    assert ("log_corrected_slope" in footer) == (name == "t1")
    if name == "t1":
        assert float(footer["log_corrected_slope"]) == loglog_slope(bound, disc)[0]


def test_validate_rejects_short_epsilon_span(tmp_path):
    # one decade is below the 1.5 decades a rate study needs
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, epsilons={"min": 0.01, "max": 0.1, "count": 8})
    assert main(["validate", "--config", str(cfg_path)]) == 1


def test_nan_tolerance_exits_1(tmp_path):
    # json reads the NaN literal; config validation rejects a NaN projector
    # tolerance before any run
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, tolerances={"oracle_rel": 1e-3,
                                       "projector_abs": math.nan,
                                       "slope_margin": 0.1})
    assert "NaN" in cfg_path.read_text()
    assert main(["thresholds", "--config", str(cfg_path),
                 "--out", str(tmp_path / "art")]) == 1


def test_fractional_grid_count_exits_1(tmp_path):
    # 2.5 points per dimension would build a lattice that is not uniform
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, xi_grid={"points_per_dim": 2.5, "radial_min_exp": -4.0,
                                    "radial_max_exp": -0.5,
                                    "radial_per_decade": 4,
                                    "directions": "axes+diagonals"})
    assert main(["rate-study", "--config", str(cfg_path),
                 "--out", str(tmp_path / "art")]) == 1


@pytest.mark.parametrize("field,value", [("positivity_grid", 64.5), ("seed", 1.5),
                                         ("truncation", 8.5)])
def test_fractional_count_exits_1(tmp_path, field, value):
    # a grid, seed or truncation that is not a whole number is a config error
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, **{field: value})
    assert main(["thresholds", "--config", str(cfg_path),
                 "--out", str(tmp_path / "art")]) == 1


def assert_one_line_config_error(capsys, field=""):
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    assert field in err, err


def _scaled(records, factor):
    return [dict(rec, k=[v * factor for v in rec["k"]], l=[v * factor for v in rec["l"]])
            for rec in records]


@pytest.mark.parametrize("records", [
    _scaled(T2_RECORDS, 1.5),                           # int() used to truncate
    [dict(T2_RECORDS[0], k=[True])] + T2_RECORDS[1:],   # json's true is no index
    [dict(T2_RECORDS[0], re=math.inf)] + T2_RECORDS[1:],
    [dict(T2_RECORDS[0], re=math.nan)] + T2_RECORDS[1:],
    [dict(T2_RECORDS[0], im=True)] + T2_RECORDS[1:],
    [dict(T2_RECORDS[0], re="1.0")] + T2_RECORDS[1:],
    # a misspelt key used to be dropped, certifying the constant coefficient
    T2_RECORDS[:1] + [{"k": r["k"], "l": r["l"], "real": r["re"], "im": r["im"]}
                      for r in T2_RECORDS[1:]],
    [{"k": [0], "re": 1.0}] + T2_RECORDS[1:],          # used to say only 'l'
    T2_RECORDS[0],                                      # a record, not a list
])
def test_bad_coefficient_record_exits_1(tmp_path, capsys, records):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, coefficient=records)
    for command in ("validate", "thresholds"):
        assert main([command, "--config", str(cfg_path),
                     "--out", str(tmp_path / "art")]) == 1
        assert_one_line_config_error(capsys, "coefficient")


@pytest.mark.parametrize("field,value", [
    ("dimension", 1.0), ("dimension", True), ("truncation", True), ("seed", True),
    ("xi_grid", {"points_per_dim": True}), ("xi_grid", {"radial_per_decade": True}),
    # each of these would otherwise load as 1.0 and pass validation
    ("alpha", True),
    ("tolerances", {"oracle_rel": 1e-3, "projector_abs": 1e-8, "slope_margin": True}),
    ("xi_grid", {"radial_min_exp": True, "radial_max_exp": 2.0}),
    ("epsilons", {"min": 1e-3, "max": True, "count": 8}),
    # each of these used to load, or to fail with Python's own error text
    ("output", 5), ("seed", None), ("dimension", "1"),
    ("epsilons", {"min": 1e-3, "max": 1e-1, "count": 12.0}),
    ("epsilons", {"min": 1e-3, "max": 1e-1, "count": True}),
    ("xi_grid", [16]), ("epsilons", 8), ("tolerances", "strict"),
    ("xi_grid", {"foo": 1}), ("epsilons", {"foo": 1}), ("tolerances", {"foo": 1}),
])
def test_float_or_bool_count_exits_1(tmp_path, capsys, field, value):
    # json's true is an int to Python, and 1.0 == 1; neither is a count, and
    # true is no real number either
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, **{field: value})
    assert main(["thresholds", "--config", str(cfg_path),
                 "--out", str(tmp_path / "art")]) == 1
    assert_one_line_config_error(capsys, field)


def test_fiber_non_finite_xi_exits_1(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    out_dir = tmp_path / "art"
    assert main(["fiber", "--config", str(cfg_path), "--out", str(out_dir),
                 "--xi", "0.3", "nan"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert (out_dir / "fiber_0.csv").exists()
    assert not (out_dir / "fiber_1.csv").exists()
    # a rejected first --xi fails before any CSV: no directory is made
    rejected = tmp_path / "rejected"
    assert main(["fiber", "--config", str(cfg_path), "--out", str(rejected),
                 "--xi", "nan"]) == 1
    assert not rejected.exists()


def _listed_artifacts(stdout):
    lines = stdout.splitlines()
    if "artifacts:" not in lines:
        return []
    return [line.strip() for line in lines[lines.index("artifacts:") + 1:]]


@pytest.mark.parametrize("command", list(COMMANDS))
def test_every_csv_is_a_listed_stamped_artifact(tmp_path, capsys, command):
    # the run protocol: every CSV lands under --out (default: the config's
    # output), starts with the report's config digest and is listed under
    # artifacts:, and a command that writes no CSV makes no directory
    cfg_path = tmp_path / "cfg.json"
    default = tmp_path / "default"
    write_config(cfg_path, output=str(default))
    xi = ["--xi", "0.3", "1.7"] if command == "fiber" else []
    if xi:
        assert main([command, "--config", str(cfg_path)]) == 1
        capsys.readouterr()
        assert not default.exists()
    art = tmp_path / "art"
    for out_dir, out_flag in ((art, ["--out", str(art)]), (default, [])):
        assert main([command, "--config", str(cfg_path), *xi, *out_flag]) == 0
        stdout = capsys.readouterr().out
        digest = next(line.split()[1] for line in stdout.splitlines()
                      if line.startswith("config:"))
        listed = _listed_artifacts(stdout)
        assert out_dir.exists() == bool(listed)
        written = [str(p) for p in out_dir.rglob("*")] if listed else []
        assert sorted(listed) == sorted(written)
        for path in listed:
            with open(path) as fh:
                assert fh.readline() == f"# config={digest}\n"


def test_rejects_workers_below_one(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    for workers in ("0", "-3"):
        assert main(["validate", "--config", str(cfg_path),
                     "--workers", workers]) == 1


def test_default_workers_follow_the_affinity_mask(monkeypatch):
    import concurrent.futures
    import levyhom._util as util
    widths = []

    class Pool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            widths.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(util.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(util.os, "sched_getaffinity", lambda pid: {0, 3, 5},
                        raising=False)
    order = util.PARALLEL_MIN_ORDER
    assert util.parallel_map(abs, [-1, -2, -3, -4], order=order) == [1, 2, 3, 4]
    assert widths == [3]
    monkeypatch.setattr(util.os, "sched_getaffinity", lambda pid: {2})
    assert util.parallel_map(abs, [-1, -2], order=order) == [1, 2]
    assert widths == [3]                    # one CPU: no pool at all
    monkeypatch.delattr(util.os, "sched_getaffinity")
    assert util.available_cpus() == 64


def test_workers_are_capped_at_the_available_cpus(monkeypatch):
    # each thread holds its own point's matrices: a width beyond the CPUs
    # this process may run on adds memory, not speed
    import concurrent.futures
    import levyhom._util as util
    widths = []

    class Pool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            widths.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(util, "available_cpus", lambda: 3)
    order = util.PARALLEL_MIN_ORDER
    assert util.parallel_map(abs, [-1, -2, -3, -4], 10_000, order=order) == [1, 2, 3, 4]
    assert widths == [3]
    monkeypatch.setattr(util, "available_cpus", lambda: 1)
    assert util.parallel_map(abs, [-1, -2], 10_000, order=order) == [1, 2]
    assert widths == [3]                    # one CPU: no pool at all


def test_threads_start_only_at_the_minimum_order(monkeypatch):
    # --workers is an upper bound: below the order the map stays on the
    # calling thread, whatever the width
    import concurrent.futures
    import levyhom._util as util
    widths = []

    class Pool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            widths.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(util, "available_cpus", lambda: 8)
    order = util.PARALLEL_MIN_ORDER
    assert util.parallel_map(abs, [-1, -2, -3], 2, order=order - 1) == [1, 2, 3]
    assert util.parallel_map(abs, [-1, -2, -3], 8, order=1) == [1, 2, 3]
    assert widths == []
    assert util.parallel_map(abs, [-1, -2, -3], 2, order=order) == [1, 2, 3]
    assert widths == [2]


def test_commands_pass_the_order_of_their_dense_work(tmp_path, monkeypatch):
    # thresholds eigensolves the dense fiber (17 modes at N = 8); the rate
    # study's passes solve t2's even and odd blocks, of 9 modes at N = 8
    # and 17 at 2N = 16
    import levyhom._util as util
    import levyhom.cli
    import levyhom.homogenization
    orders = []

    def spy(fn, items, workers=None, *, order):
        orders.append(order)
        return util.parallel_map(fn, items, workers, order=order)

    monkeypatch.setattr(levyhom.cli, "parallel_map", spy)
    monkeypatch.setattr(levyhom.homogenization, "parallel_map", spy)
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    assert main(["thresholds", "--config", str(cfg_path),
                 "--out", str(tmp_path / "t")]) == 0
    assert orders == [17]
    orders.clear()
    assert main(["rate-study", "--config", str(cfg_path),
                 "--out", str(tmp_path / "r")]) == 0
    assert set(orders) == {9, 17} and orders == sorted(orders)


def test_identical_config_identical_bytes(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    outs = []
    for name in ("x", "y"):
        out_dir = tmp_path / name
        assert main(["thresholds", "--config", str(cfg_path),
                     "--out", str(out_dir)]) == 0
        outs.append((out_dir / "thresholds.csv").read_bytes())
    assert outs[0] == outs[1]


# The printed end of every slope verdict of `thresholds` and `rate-study` in
# each alpha regime (T2, N = 8, slope_margin 0.1).  At alpha = 1 every margin
# widens by 0.05 and the fits are log-corrected; off it phi's fits take 0.05
# more; rho* vanishes identically for T2 at alpha = 1.
SLOPE_VERDICTS = {
    0.5: {"slope_f_minus_p": "floor=0.400]", "slope_phi": "floor=0.850]",
          "slope_rho_star": "floor=1.400]", "slope": "floor=0.400]"},
    1.0: {"slope_f_minus_p": "floor=0.850]", "slope_phi": "floor=0.850]",
          "slope_rho_star": "[identically zero]", "slope": "floor=0.850]"},
    1.5: {"slope_f_minus_p": "floor=0.900]", "slope_phi": "floor=1.850]",
          "slope_rho_star": "floor=1.900]", "slope": "floor=0.400]"},
}


@pytest.mark.parametrize("alpha", sorted(SLOPE_VERDICTS))
def test_slope_verdicts_per_regime(tmp_path, capsys, alpha):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, alpha=alpha)
    for command in ("thresholds", "rate-study"):
        assert main([command, "--config", str(cfg_path),
                     "--out", str(tmp_path / command)]) == 0
    checks = dict(line.strip().split(": ", 1)
                  for line in capsys.readouterr().out.splitlines()
                  if line.startswith("  slope"))
    assert set(checks) == set(SLOPE_VERDICTS[alpha])
    for name, ending in SLOPE_VERDICTS[alpha].items():
        assert checks[name].startswith("pass "), checks[name]
        assert checks[name].endswith(ending), checks[name]
    assert ("[log-corrected slope=" in checks["slope"]) == (alpha == 1.0)


def _lifted_t2(dimension, amplitude=0.125):
    """T2 on the first axis of d dimensions: k + l in {0, +-2 e1}, many blocks."""
    zero = [0] * dimension
    e1 = [1] + [0] * (dimension - 1)
    ne1 = [-v for v in e1]
    return ([{"k": zero, "l": zero, "re": 1.0, "im": 0.0}]
            + [{"k": k, "l": l, "re": amplitude, "im": 0.0}
               for k in (e1, ne1) for l in (e1, ne1)])


def _one_block(dimension, budget=0.3):
    """k + l in {+-e_j}: the shifts generate Z^d, so the fiber is one block."""
    zero = [0] * dimension
    records = [{"k": zero, "l": zero, "re": 1.0, "im": 0.0}]
    for j in range(dimension):
        e = [int(i == j) for i in range(dimension)]
        ne = [-v for v in e]
        for k, l in ((e, zero), (zero, e), (ne, zero), (zero, ne)):
            records.append({"k": k, "l": l, "re": budget / (4 * dimension),
                            "im": 0.0})
    return records


D2_COEFFICIENTS = {"blocks": _lifted_t2(2), "one-block": _one_block(2)}
COARSE_GRID = {"points_per_dim": 2, "radial_min_exp": -4.0,
               "radial_max_exp": -0.5, "radial_per_decade": 2,
               "directions": "axes"}


@pytest.mark.parametrize("kind", sorted(D2_COEFFICIENTS))
def test_thresholds_d2(tmp_path, capsys, kind):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, dimension=2, truncation=2, positivity_grid=64,
                 coefficient=D2_COEFFICIENTS[kind])
    out_dir = tmp_path / "art"
    assert main(["thresholds", "--config", str(cfg_path),
                 "--out", str(out_dir), "--workers", "1"]) == 0
    lines = (out_dir / "thresholds.csv").read_text().splitlines()
    assert lines[1].startswith("xi_1,xi_2,xi_norm,lambda1,")
    assert len(lines) >= 2 + 9       # xi = 0 and at least 8 ladder radii
    assert "FAIL" not in capsys.readouterr().out


# the one-block coefficient drifts by 7.7% under N doubling from N = 2, so
# its study starts at N = 3; the worker-count comparison runs on the cheaper
# block-diagonal one
@pytest.mark.parametrize("kind,truncation,workers",
                         [("blocks", 2, ("1", "2")), ("one-block", 3, ("1",))])
def test_rate_study_d2(tmp_path, capsys, kind, truncation, workers,
                       threads_at_any_order):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, dimension=2, truncation=truncation,
                 positivity_grid=64, xi_grid=COARSE_GRID,
                 coefficient=D2_COEFFICIENTS[kind])
    outs = []
    for count in workers:
        out_dir = tmp_path / count
        assert main(["rate-study", "--config", str(cfg_path),
                     "--out", str(out_dir), "--workers", count]) == 0
        outs.append((out_dir / "rate_study.csv").read_bytes())
    assert all(out == outs[0] for out in outs)
    out = capsys.readouterr().out
    assert "truncation_stability: pass" in out
    assert "slope: pass" in out


def test_thresholds_d3_smoke(tmp_path, capsys):
    # T2 at half strength keeps the certified ball wide enough on the
    # coarsest positivity grid: delta0 is about 0.04
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, dimension=3, truncation=2, positivity_grid=16,
                 coefficient=_lifted_t2(3, amplitude=0.0625))
    out_dir = tmp_path / "art"
    assert main(["thresholds", "--config", str(cfg_path),
                 "--out", str(out_dir), "--workers", "1"]) == 0
    lines = (out_dir / "thresholds.csv").read_text().splitlines()
    assert lines[1].startswith("xi_1,xi_2,xi_3,xi_norm,")
    assert len(lines) >= 2 + 9
    assert "FAIL" not in capsys.readouterr().out


def test_rate_study_d3(tmp_path, capsys, threads_at_any_order):
    # the d = 3 smoke coefficient through the whole sweep, N = 2 doubled to 4
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, dimension=3, truncation=2, positivity_grid=16,
                 xi_grid=COARSE_GRID, coefficient=_lifted_t2(3, amplitude=0.0625))
    outs = []
    for count in ("1", "2"):
        out_dir = tmp_path / count
        assert main(["rate-study", "--config", str(cfg_path),
                     "--out", str(out_dir), "--workers", count]) == 0
        outs.append((out_dir / "rate_study.csv").read_bytes())
    assert outs[0] == outs[1]
    out = capsys.readouterr().out
    assert "truncation_stability: pass" in out
    assert "slope: pass" in out


@pytest.mark.parametrize("dimension", [2, 3])
def test_oracle_check_beyond_d1(tmp_path, capsys, dimension):
    # c0's quadrature and the form-difference bound hold at every d; the
    # form-element oracle is d = 1 only, so its CSV keeps just the header
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, dimension=dimension, truncation=2, positivity_grid=16,
                 coefficient=_lifted_t2(dimension))
    out_dir = tmp_path / "art"
    assert main(["oracle-check", "--config", str(cfg_path),
                 "--out", str(out_dir)]) == 0
    checks = _report_checks(capsys)
    assert checks["c0_quadrature"].startswith("pass")
    assert checks["form_elements"].startswith("skip")
    assert checks["form_difference"].startswith("pass")
    lines = (out_dir / "oracle_check.csv").read_text().splitlines()
    assert lines[1:] == ["m,n,xi,alpha,closed_re,closed_im,oracle_re,oracle_im,rel_err"]


REPO = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", ["t1_alpha1", "t2_alpha05"])
def test_oracle_check_holds_over_the_working_range(tmp_path, name):
    # README's working range, alpha <= 1.999: the d = 1 form elements pass
    # at every alpha of a scan up to 1.865 (step 1e-5 over [1.7, 1.865]),
    # and above it in the windows of the test below
    data = json.loads((REPO / "configs" / f"{name}.json").read_text())
    cfg_path = tmp_path / "cfg.json"
    for alpha in [*np.linspace(0.05, 1.85, 10), 1.86, 1.865, 1.8652, 1.999]:
        data.update(alpha=float(alpha), truncation=2)
        cfg_path.write_text(json.dumps(data))
        assert main(["oracle-check", "--config", str(cfg_path),
                     "--out", str(tmp_path / "art")]) == 0, alpha


@pytest.mark.parametrize("name", ["t1_alpha1", "t2_alpha05"])
def test_oracle_check_passes_in_the_windows_above_1865(tmp_path, name):
    # one alpha in each window where a core pass broken at 0 alone reaches
    # QUADPACK's subdivision limit for some element, [1.86515, 1.86540],
    # [1.90600, 1.90615], [1.95815, 1.95829] and [1.99, 1.999]; the second
    # pass, also broken at -1 and 1, converges at the same tolerances
    data = json.loads((REPO / "configs" / f"{name}.json").read_text())
    cfg_path = tmp_path / "cfg.json"
    for alpha in (1.86525, 1.9061, 1.95822, 1.996):
        data.update(alpha=alpha, truncation=2)
        cfg_path.write_text(json.dumps(data))
        assert main(["oracle-check", "--config", str(cfg_path),
                     "--out", str(tmp_path / "art")]) == 0, alpha


def _bench_module(name):
    """A module of the benchmark, loaded from its file (bench/ is no package)."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  REPO / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("config", ["t1_alpha1", "t2_alpha05"])
def test_shipped_configs_match_reference(tmp_path, config):
    # the stored seed-commit CSVs, within the benchmark's 1e-12 drift rule
    checks = _bench_module("checks")
    for command in ("thresholds", "rate-study", "oracle-check"):
        out_dir = tmp_path / command
        assert main([command, "--config", str(REPO / "configs" / f"{config}.json"),
                     "--out", str(out_dir), "--workers", "1"]) == 0
        csv_path = out_dir / checks.REFERENCE_CSVS[command]
        assert checks.reference_problems(str(csv_path), config, command) == []
