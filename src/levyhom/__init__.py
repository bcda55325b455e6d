"""Desk-scale spectral workbench for homogenization of periodic Levy-type
nonlocal operators: fiber assembly on a Fourier truncation, threshold
spectral projectors by two routes, and operator-norm convergence-rate
measurements against the theoretical envelopes.
"""

from .coefficient import (CoefficientCertificate, ModelParams,
                          PeriodicCoefficient, TheoryConstants, certify,
                          coefficient_from_records, compute_c0,
                          constant_coefficient, delta0_and_d0, effective_mu,
                          oracle_c0, rate_function, rate_profile,
                          theory_constants, theta_modulus, v_alpha,
                          validate_coefficient)
from .config import EpsilonSpec, StudyConfig, Tolerances, XiGridSpec
from .errors import (BlockLeak, BoundViolated, ContourTooClose,
                     ConvergenceFailure, DegenerateFit, GapViolation,
                     LevyhomError, PositivityUncertified,
                     QuadratureNotConverged, SymmetryViolation,
                     TruncationTooSmall, TruncationUnstable)
from .fiber import (FiberMatrix, ModeSet, OracleValue,
                    assemble_effective_fiber, assemble_fiber_matrix,
                    c1_constant, coupling_blocks, form_difference_checks,
                    oracle_form_element, rho_and_rho_star)
from .homogenization import (RateStudyResult, XiGrid, build_xi_grid,
                             discrepancy_study, fiber_resolvent_diff,
                             loglog_slope, rate_bound, slope_check,
                             slope_widening, threshold_resolvent_diff)
from .spectral import (CircleContour, RieszProjection, SpectralData,
                       ThresholdReport, eig_hermitian, projector_by_eig,
                       projector_by_riesz, threshold_report)

__version__ = "0.1.0"
