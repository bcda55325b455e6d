"""CLI contract: exit codes, CSV artifacts, digests, determinism."""

import importlib.util
import json
import math
import pathlib

import numpy as np
import pytest

from levyhom import ModelParams, StudyConfig, c1_constant, certify, compute_c0
from levyhom.cli import main

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


def test_config_rejects_unknown_fields(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, bogus=1)
    assert main(["validate", "--config", str(cfg_path)]) == 1


def test_validate_pass(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    assert main(["validate", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    for key in ("c0", "mu_minus", "mu_plus", "mu_eff", "delta0", "d0"):
        assert key in out


def test_validate_symmetry_failure_exits_2(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    bad = [{"k": [0], "l": [0], "re": 1.0, "im": 0.0},
           {"k": [1], "l": [0], "re": 0.3, "im": 0.0},
           {"k": [-1], "l": [0], "re": 0.3, "im": 0.0},
           {"k": [0], "l": [1], "re": 0.2, "im": 0.0},
           {"k": [0], "l": [-1], "re": 0.2, "im": 0.0}]
    write_config(cfg_path, coefficient=bad)
    assert main(["validate", "--config", str(cfg_path)]) == 2


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
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    assert main(["constants", "--config", str(cfg_path)]) == 0
    assert "theta(1)" in capsys.readouterr().out


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
    for name in ("f_minus_p", "phi", "rho_star"):
        assert f"slope_{name}: fail [empty ladder" in out


def test_rate_study_and_determinism(tmp_path, capsys):
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


def _oracle_checks(capsys):
    """Verdict name -> the rest of its line, from oracle-check's report."""
    return dict(line.strip().split(": ", 1)
                for line in capsys.readouterr().out.splitlines()
                if line.startswith("  ") and ": " in line)


@pytest.mark.parametrize("alpha", [1.0, 1.5])
def test_form_difference_skips_at_alpha_ge_1(tmp_path, capsys, alpha):
    # the norm bound mu+ c1 |xi|^a is an alpha < 1 statement
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, alpha=alpha, truncation=2)
    assert main(["oracle-check", "--config", str(cfg_path),
                 "--out", str(tmp_path / "art")]) == 0
    assert _oracle_checks(capsys)["form_difference"].startswith("skip")


def test_form_difference_constant_coefficient(tmp_path, capsys):
    # for a constant coefficient A(xi) - A(0) is diagonal, so its norm is
    # c0 max_n | |2 pi n + xi|^a - |2 pi n|^a | in closed form
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, truncation=2,
                 coefficient=[{"k": [0], "l": [0], "re": 1.0, "im": 0.0}])
    assert main(["oracle-check", "--config", str(cfg_path),
                 "--out", str(tmp_path / "art")]) == 0
    verdict = _oracle_checks(capsys)["form_difference"]
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
    assert margin == pytest.approx(1.0 - ratio, rel=1e-10)


def test_form_difference_violation_exits_2(tmp_path, capsys, monkeypatch):
    # a c1 far too small must trip the bound
    monkeypatch.setattr("levyhom.cli.c1_constant", lambda p: 1e-3 * c1_constant(p))
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, truncation=2)
    assert main(["oracle-check", "--config", str(cfg_path),
                 "--out", str(tmp_path / "art")]) == 2
    checks = _oracle_checks(capsys)
    assert checks["form_difference"].startswith("fail margin=-")
    assert checks["form_elements"].startswith("pass")


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


def test_validate_rejects_short_epsilon_span(tmp_path):
    # one decade is below the 1.5 decades a rate study needs
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, epsilons={"min": 0.01, "max": 0.1, "count": 8})
    assert main(["validate", "--config", str(cfg_path)]) == 1


def test_nan_tolerance_exits_1(tmp_path):
    # json reads the NaN literal; `mismatch > NaN` is never true, so a NaN
    # projector tolerance would switch the Riesz-vs-eig cross-check off
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


def assert_one_line_config_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err


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
])
def test_bad_coefficient_record_exits_1(tmp_path, capsys, records):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, coefficient=records)
    for command in ("validate", "thresholds"):
        assert main([command, "--config", str(cfg_path),
                     "--out", str(tmp_path / "art")]) == 1
        assert_one_line_config_error(capsys)


@pytest.mark.parametrize("field,value", [
    ("dimension", 1.0), ("dimension", True), ("truncation", True), ("seed", True),
    ("xi_grid", {"points_per_dim": True}), ("xi_grid", {"radial_per_decade": True}),
    # each of these would otherwise load as 1.0 and pass validation
    ("alpha", True),
    ("tolerances", {"oracle_rel": 1e-3, "projector_abs": 1e-8, "slope_margin": True}),
    ("xi_grid", {"radial_min_exp": True, "radial_max_exp": 2.0}),
    ("epsilons", {"min": 1e-3, "max": True, "count": 8}),
])
def test_float_or_bool_count_exits_1(tmp_path, capsys, field, value):
    # json's true is an int to Python, and 1.0 == 1; neither is a count, and
    # true is no real number either
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, **{field: value})
    assert main(["thresholds", "--config", str(cfg_path),
                 "--out", str(tmp_path / "art")]) == 1
    assert_one_line_config_error(capsys)


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


def test_rejects_workers_below_one(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    for workers in ("0", "-3"):
        assert main(["validate", "--config", str(cfg_path),
                     "--workers", workers]) == 1


def test_default_workers_follow_the_affinity_mask(monkeypatch):
    import levyhom._util as util
    widths = []

    class Pool(util.ThreadPoolExecutor):
        def __init__(self, max_workers):
            widths.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(util, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(util.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(util.os, "sched_getaffinity", lambda pid: {0, 3, 5},
                        raising=False)
    assert util.parallel_map(abs, [-1, -2, -3, -4]) == [1, 2, 3, 4]
    assert widths == [3]
    monkeypatch.setattr(util.os, "sched_getaffinity", lambda pid: {2})
    assert util.parallel_map(abs, [-1, -2]) == [1, 2]
    assert widths == [3]                    # one CPU: no pool at all
    monkeypatch.delattr(util.os, "sched_getaffinity")
    assert util.available_cpus() == 64


def test_truncation_override(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    out_dir = tmp_path / "art"
    code = main(["fiber", "--config", str(cfg_path), "--out", str(out_dir),
                 "--truncation", "4", "--xi", "0.1"])
    assert code == 0
    header = (out_dir / "fiber_0.csv").read_text().splitlines()[1]
    assert header.count("re_") == 9   # 2*4+1 modes


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
def test_rate_study_d2(tmp_path, capsys, kind, truncation, workers):
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


def test_rate_study_d3(tmp_path, capsys):
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
    checks = _oracle_checks(capsys)
    assert checks["c0_quadrature"].startswith("pass")
    assert checks["form_elements"].startswith("skip")
    assert checks["form_difference"].startswith("pass")
    lines = (out_dir / "oracle_check.csv").read_text().splitlines()
    assert lines[1:] == ["m,n,xi,alpha,closed_re,closed_im,oracle_re,oracle_im,rel_err"]


REPO = pathlib.Path(__file__).resolve().parents[1]


def _reference_checks():
    """The benchmark's CSV checks, loaded from their file (bench/ is no package)."""
    spec = importlib.util.spec_from_file_location("bench_checks",
                                                  REPO / "bench" / "checks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("config", ["t1_alpha1", "t2_alpha05"])
def test_shipped_configs_match_reference(tmp_path, config):
    # the stored seed-commit CSVs, within the benchmark's 1e-12 drift rule
    checks = _reference_checks()
    for command in ("thresholds", "rate-study", "oracle-check"):
        out_dir = tmp_path / command
        assert main([command, "--config", str(REPO / "configs" / f"{config}.json"),
                     "--out", str(out_dir), "--workers", "1"]) == 0
        csv_path = out_dir / checks.REFERENCE_CSVS[command]
        assert checks.reference_problems(str(csv_path), config, command) == []
