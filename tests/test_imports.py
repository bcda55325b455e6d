"""What each command process loads: the lazy package namespace."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import levyhom

REPO = pathlib.Path(__file__).resolve().parents[1]
# what every command loads of the package
BASE = {"levyhom", "levyhom.cli", "levyhom.config", "levyhom.coefficient",
        "levyhom.errors", "levyhom._util"}

# the package's public names before they were resolved lazily: every name
# it imported from its submodules, and the submodules themselves, less the
# since removed TruncationUnstable, ContourTooClose and GapViolation
PUBLIC = {
    "CircleContour", "ConvergenceFailure", "DegenerateFit",
    "EpsilonSpec", "FiberMatrix", "LevyhomError", "ModeSet",
    "ModelParams", "PeriodicCoefficient", "PositivityUncertified",
    "QuadratureNotConverged", "RateStudyResult", "RieszProjection",
    "SpectralData", "StudyConfig", "SymmetryViolation", "TheoryConstants",
    "ThresholdReport", "Tolerances", "TruncationTooSmall",
    "XiGridSpec", "assemble_effective_fiber", "assemble_fiber_matrix",
    "c1_constant", "certify", "coefficient", "coefficient_from_records",
    "compute_c0", "config", "constant_coefficient", "discrepancy_study",
    "effective_mu", "eig_hermitian", "errors", "fiber", "homogenization",
    "loglog_slope", "oracle_c0", "oracle_form_element", "projector_by_eig",
    "projector_by_riesz", "rate_function", "rate_profile", "rho_and_rho_star",
    "slope_check", "slope_widening", "spectral", "theory_constants",
    "threshold_report", "threshold_resolvent_diff", "v_alpha",
}


def _fresh(code):
    """The literal that `code` prints last, run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return ast.literal_eval(out.strip().splitlines()[-1])


def _modules_after(code):
    """Every module loaded in a fresh interpreter once `code` has run."""
    return set(_fresh("import sys; " + code + "; print(sorted(sys.modules))"))


def _after_commands(tmp_path, commands):
    """`_modules_after` running `commands` on t1 and `t2_d2`."""
    runs = []
    for name in ("t1_alpha1", "t2_d2"):
        common = ["--config", str(REPO / "configs" / f"{name}.json"),
                  "--workers", "1", "--truncation", "2"]
        for command in commands:
            extra = ["--xi", "0.3"] if command == "fiber" else []
            runs.append([command, *common, *extra,
                         "--out", str(tmp_path / name / command)])
    return _modules_after("from levyhom.cli import main; "
                          f"assert all(main(argv) == 0 for argv in {runs!r})")


def _package(loaded):
    return {m for m in loaded if m.split(".")[0] == "levyhom"}


def test_package_import_loads_no_submodule():
    assert _package(_modules_after("import levyhom")) == {"levyhom"}


def test_validate_and_constants_load_no_solver_nor_openssl(tmp_path):
    # the config digest takes CPython's own SHA-256, not OpenSSL's
    loaded = _after_commands(tmp_path, ("validate", "constants"))
    assert _package(loaded) == BASE
    assert "_hashlib" not in loaded


def test_fiber_and_oracle_check_add_only_the_fiber_module(tmp_path):
    loaded = _after_commands(tmp_path, ("fiber", "oracle-check"))
    assert _package(loaded) == BASE | {"levyhom.fiber"}


def test_thresholds_adds_only_the_fiber_and_spectral_modules(tmp_path):
    # the slope checks live beside the rate laws in coefficient
    loaded = _after_commands(tmp_path, ("thresholds",))
    assert _package(loaded) == BASE | {"levyhom.fiber", "levyhom.spectral"}


def test_no_command_loads_numpy_ma(tmp_path):
    # np.unique imports numpy.ma (numpy 2.4), 13-15 ms under -X importtime
    loaded = _after_commands(tmp_path, ("validate", "constants", "fiber",
                                        "thresholds", "rate-study",
                                        "oracle-check"))
    assert "numpy.ma" not in loaded


def test_no_command_loads_logging(tmp_path):
    # the library neither logs nor prints: its notices are report lines
    loaded = _after_commands(tmp_path, ("validate", "constants", "fiber",
                                        "thresholds", "rate-study",
                                        "oracle-check"))
    assert not loaded & {"logging", "traceback", "string"}


def test_public_names_unchanged():
    # in a fresh interpreter, as the names of an eager import depend on
    # which submodules have been imported before
    assert set(levyhom.__all__) == PUBLIC
    listed = _fresh("import levyhom; print(dir(levyhom))")
    assert {n for n in listed if not n.startswith("_")} == PUBLIC
    starred = _fresh("from levyhom import *; print(dir())")
    assert {n for n in starred if not n.startswith("__")} == PUBLIC


def test_lazy_names_resolve_to_their_submodule():
    for module, names in levyhom._EXPORTS.items():
        sub = importlib.import_module(f"levyhom.{module}")
        assert getattr(levyhom, module) is sub
        for name in names:
            assert getattr(levyhom, name) is getattr(sub, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        levyhom.nope
