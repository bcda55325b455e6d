"""CLI contract: exit codes, CSV artifacts, digests, determinism."""

import json

import pytest

from levyhom import StudyConfig
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


def test_rate_study_and_determinism(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["rate-study", "--config", str(cfg_path), "--out", str(out1),
                 "--workers", "1"]) == 0
    assert main(["rate-study", "--config", str(cfg_path), "--out", str(out2),
                 "--workers", "8"]) == 0
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


def test_rejects_workers_below_one(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    for workers in ("0", "-3"):
        assert main(["validate", "--config", str(cfg_path),
                     "--workers", workers]) == 1


def test_oracle_check_requires_d1(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, dimension=2, truncation=3, positivity_grid=24,
                 coefficient=[{"k": [0, 0], "l": [0, 0], "re": 1.0, "im": 0.0}])
    assert main(["oracle-check", "--config", str(cfg_path)]) == 1


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
