"""Desk-scale spectral workbench for homogenization of periodic Levy-type
nonlocal operators: fiber assembly on a Fourier truncation, threshold
spectral projectors by two routes, and operator-norm convergence-rate
measurements against the theoretical envelopes.
"""

from .coefficient import (ModelParams, PeriodicCoefficient, TheoryConstants,
                          certify, coefficient_from_records, compute_c0,
                          constant_coefficient, effective_mu, oracle_c0,
                          rate_function, rate_profile, theory_constants,
                          v_alpha)
from .config import EpsilonSpec, StudyConfig, Tolerances, XiGridSpec
from .errors import (ContourTooClose, ConvergenceFailure, DegenerateFit,
                     GapViolation, LevyhomError, PositivityUncertified,
                     QuadratureNotConverged, SymmetryViolation,
                     TruncationTooSmall, TruncationUnstable)
from .fiber import (FiberMatrix, ModeSet, assemble_effective_fiber,
                    assemble_fiber_matrix, c1_constant, oracle_form_element,
                    rho_and_rho_star)
from .homogenization import (RateStudyResult, discrepancy_study, loglog_slope,
                             slope_check, slope_widening,
                             threshold_resolvent_diff)
from .spectral import (CircleContour, RieszProjection, SpectralData,
                       ThresholdReport, eig_hermitian, projector_by_eig,
                       projector_by_riesz, threshold_report)

__version__ = "0.1.0"
