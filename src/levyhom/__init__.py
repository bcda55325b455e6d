"""Desk-scale spectral workbench for homogenization of periodic Levy-type
nonlocal operators: fiber assembly on a Fourier truncation, threshold
spectral projectors by two routes, and operator-norm convergence-rate
measurements against the theoretical envelopes.

The public names are resolved on first access (PEP 562), so importing the
package, or one command of `levyhom.cli`, loads only the submodules used.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "coefficient": ("ModelParams", "PeriodicCoefficient", "TheoryConstants",
                    "certify", "coefficient_from_records", "compute_c0",
                    "constant_coefficient", "effective_mu", "loglog_slope",
                    "oracle_c0", "rate_function", "rate_profile",
                    "slope_check", "slope_widening", "theory_constants",
                    "v_alpha"),
    "config": ("EpsilonSpec", "StudyConfig", "Tolerances", "XiGridSpec"),
    "errors": ("ConvergenceFailure", "DegenerateFit", "LevyhomError",
               "PositivityUncertified", "QuadratureNotConverged",
               "SymmetryViolation", "TruncationTooSmall"),
    "fiber": ("FiberMatrix", "ModeSet", "assemble_effective_fiber",
              "assemble_fiber_matrix", "c1_constant", "oracle_form_element",
              "rho_and_rho_star"),
    "homogenization": ("RateStudyResult", "discrepancy_study",
                       "threshold_resolvent_diff"),
    "spectral": ("CircleContour", "RieszProjection", "ThresholdReport",
                 "eig_hermitian", "projector_by_eig", "projector_by_riesz",
                 "threshold_report"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_SOURCE])


def __getattr__(name):
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
