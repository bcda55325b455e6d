"""Command-line driver for batch verification runs.

Commands: validate, fiber, thresholds, rate-study, oracle-check, and
constants, which prints validate's report under the name the benchmark runs.
`main` builds one RunReport, the command fills it, `main` prints it; every
CSV goes through RunReport.write_csv: under --out (default: the config's
`output`), stamped with the `config:` digest, listed under `artifacts:`.
Exit codes: 0 all checks pass, 1 usage or I/O error, 2 a failed verdict.
A LevyhomError, the library's signal that a quantity cannot be measured,
leaves any command, `thresholds` too, as one `measurement` fail verdict,
detail "<ErrorClass>: <message>", after the verdicts added before it.
`fiber --xi` takes every component of each point.
Every numeric verdict goes through RunReport.check: its `margin=` is its
slack, the distance from the check's limit with the check's own tolerance
included, and the line passes exactly where that is >= 0.  A line without
a margin is a structural verdict.  Every printed verdict is one that a
fault can flip: certify raises on a broken symmetry or an uncertified
positivity, so those reach the report as its measurement verdict and have
no line of their own.  The library measures and reports (the
projector routes' distance, the rate study's discrepancies and the doubled
truncation's drift) and raises only where it cannot measure, so each slope
is fitted and each limit judged here, once, and a failed check still
writes its CSV.  The library neither prints nor logs, and the package
reads no environment variable; identical config plus seed gives
byte-identical CSV artifacts for any --workers, at a fixed BLAS thread
count (OPENBLAS_NUM_THREADS).
--workers is an upper bound on the thread count, capped at the CPUs this
process may run on: a pass runs on threads only where each point's largest
dense matrix has at least _util.PARALLEL_MIN_ORDER (256) rows, and on the
calling thread otherwise.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from ._util import (PARALLEL_MIN_ORDER, fmt, hermitian_defect, hermitian_norm,
                    parallel_map, write_csv)
from .coefficient import (ModelParams, certify, loglog_slope, oracle_c0,
                          rate_function, rate_profile, slope_check,
                          slope_widening, theory_constants, v_alpha)
from .config import StudyConfig
from .errors import LevyhomError, at_quasimomentum

# fiber, spectral and homogenization are imported by the commands that use
# them, so each command process loads only what it runs


@dataclass
class CheckVerdict:
    name: str
    status: str          # pass | fail | skip
    margin: float | None = None
    detail: str = ""


@dataclass
class RunReport:
    command: str
    config_digest: str
    out_dir: str
    wall_time: float = 0.0
    checks: list = field(default_factory=list)
    artifacts: list = field(default_factory=list)
    values: dict = field(default_factory=dict)

    def add(self, name, status, detail=""):
        """A verdict with no number: structure, a skip, or a failure to compute."""
        self.checks.append(CheckVerdict(name, status, detail=detail))

    def check(self, name, slack, detail=""):
        """The one numeric verdict rule: pass where slack >= 0, so NaN fails."""
        slack = float(slack)
        self.checks.append(CheckVerdict(name, "pass" if slack >= 0.0 else "fail",
                                        slack, detail))

    def write_csv(self, name, header, rows, footer_rows=()):
        """Write `name` under out_dir, stamped with the digest, as an artifact."""
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir, name)
        self.artifacts.append(write_csv(path, header, rows, self.config_digest,
                                        footer_rows))

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def render(self) -> str:
        lines = [f"command: {self.command}",
                 f"config:  {self.config_digest}",
                 f"status:  {'PASS' if self.passed else 'FAIL'} "
                 f"(wall {self.wall_time:.2f} s)"]
        if self.values:
            lines.append("values:")
            for key, val in self.values.items():
                lines.append(f"  {key} = {fmt(val)}")
        lines.append("checks:")
        for c in self.checks:
            extra = f" margin={fmt(c.margin)}" if c.margin is not None else ""
            detail = f" [{c.detail}]" if c.detail else ""
            lines.append(f"  {c.name}: {c.status}{extra}{detail}")
        if self.artifacts:
            lines.append("artifacts:")
            for path in self.artifacts:
                lines.append(f"  {path}")
        return "\n".join(lines)


def _prepare(cfg: StudyConfig):
    params = ModelParams(cfg.dimension, cfg.alpha)
    coeff = certify(cfg.build_coefficient(), cfg.resolved_positivity_grid)
    return params, coeff, theory_constants(params, coeff)


def _modes(cfg: StudyConfig):
    from .fiber import ModeSet
    return ModeSet(cfg.dimension, cfg.resolved_truncation)


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------

def cmd_validate(cfg: StudyConfig, report: RunReport, args) -> None:
    _, _, constants = _prepare(cfg)
    report.values.update({name: getattr(constants, name) for name in
                          ("c0", "mu_minus", "mu_plus", "mu_eff", "delta0", "d0")})
    report.check("mu_eff_within_bounds", min(constants.mu_eff - constants.mu_minus,
                                             constants.mu_plus - constants.mu_eff))


def cmd_fiber(cfg: StudyConfig, report: RunReport, args) -> None:
    from .fiber import assemble_fiber_matrix
    params, coeff, constants = _prepare(cfg)
    modes = _modes(cfg)
    for idx, xi_spec in enumerate(args.xi):
        xi = np.array([float(v) for v in xi_spec.split(",")])
        fiber = assemble_fiber_matrix(coeff, params, modes, xi)
        header = [f"{part}_{j}" for j in range(modes.size) for part in ("re", "im")]
        # complex for every coefficient: the CSV keeps its re/im column pairs
        report.write_csv(f"fiber_{idx}.csv", header,
                         fiber.entries.astype(complex).view(float))
        report.check(f"hermitian_xi{idx}", hermitian_defect(fiber.entries)[1])


def cmd_thresholds(cfg: StudyConfig, report: RunReport, args) -> None:
    from .spectral import threshold_report
    params, coeff, constants = _prepare(cfg)
    modes = _modes(cfg)
    d = cfg.dimension

    radii = cfg.xi_grid.radii()
    radii = radii[radii <= constants.delta0]
    direction = np.eye(d)[0]
    xis = [np.zeros(d)] + [r * direction for r in radii]

    def report_at(xi):
        with at_quasimomentum(xi):
            return threshold_report(coeff, params, modes, xi)

    # threshold_report eigensolves the dense fiber, of order modes.size
    reps = parallel_map(report_at, xis, args.workers, order=modes.size)

    # the columns after the xi_j are ThresholdReport fields of the same names
    columns = ("xi_norm", "lambda1", "lambda2", "f_minus_p", "phi_norm",
               "af_minus_eff", "rho", "rho_star")
    rows = [[float(v) for v in rep.xi] + [getattr(rep, f) for f in columns]
            for rep in reps]
    header = [f"xi_{j + 1}" for j in range(d)] + list(columns)
    report.write_csv("thresholds.csv", header, rows)

    mismatch = max(rep.projector_mismatch for rep in reps)
    report.check("projector_routes", cfg.tolerances.projector_abs - mismatch,
                 detail=f"max ||F_riesz - F_eig|| = {mismatch:.3e}")
    report.check("lambda2_gap", min(rep.lambda2 for rep in reps) - constants.d0 + 1e-10)
    # reps[0] is the origin, where both eigenvalue bounds are 0
    report.check("lambda1_at_zero", 1e-10 - abs(reps[0].lambda1))
    ladder = reps[1:]
    slopes = {"f_minus_p": ("theta", "f_minus_p"), "phi": ("phi", "phi_norm"),
              "rho_star": ("rho_star", "rho_star")}
    if not ladder:
        for name in ["lambda1_bounds", *(f"slope_{q}" for q in slopes)]:
            report.add(name, "fail", detail=f"empty ladder: no xi_grid radius in "
                                            f"(0, delta0={constants.delta0:.6g}]")
        return

    def field(name):
        return np.array([getattr(rep, name) for rep in ladder])

    norms, lam1 = field("xi_norm"), field("lambda1")
    symbol = np.array([v_alpha(params, rep.xi) for rep in ladder])
    report.check("lambda1_bounds", min(np.min(lam1 - constants.mu_minus * symbol),
                                       np.min(constants.mu_plus * symbol - lam1)) + 1e-10)

    for name, (quantity, attr) in slopes.items():
        vals = np.abs(field(attr))
        if np.all(vals <= 1e-12):
            report.add(f"slope_{name}", "pass", detail="identically zero")
            continue
        slope, floor = slope_check(norms, vals, params.alpha, quantity,
                                   cfg.tolerances.slope_margin)
        report.check(f"slope_{name}", slope - floor,
                     detail=f"slope={slope:.3f} floor={floor:.3f}")


def cmd_rate_study(cfg: StudyConfig, report: RunReport, args) -> None:
    from .homogenization import discrepancy_study
    params, coeff, constants = _prepare(cfg)
    modes = _modes(cfg)
    grid = cfg.xi_grid.points(cfg.dimension)
    result = discrepancy_study(coeff, params, modes, grid, cfg.epsilons.values(),
                               workers=args.workers)

    eps, disc = result.epsilons, result.discrepancies
    bounds = rate_function(params.alpha, "discrepancy", eps)
    ratios = disc / bounds
    exact = not disc.any()
    log_corrected = not exact and rate_profile(params.alpha, "discrepancy")[1] > 0
    fit = ("exact", "") if exact else loglog_slope(eps, disc)
    footers = [("fitted_slope", fit[0]), ("r_squared", fit[1]),
               ("truncation_stability", result.truncation_stability)]
    if not exact:
        # with a log factor the judged slope is the fit against the profile
        slope, floor = slope_check(eps, disc, params.alpha, "discrepancy",
                                   cfg.tolerances.slope_margin)
        if log_corrected:
            footers.append(("log_corrected_slope", slope))
    report.write_csv("rate_study.csv", ["epsilon", "discrepancy", "rate_bound",
                                        "bound_ratio", "argmax_xi_norm"],
                     zip(eps, disc, bounds, ratios, result.argmax_xi_norm), footers)

    if slope_widening(params.alpha) > 0.0:
        report.add("alpha_singularity_warning", "skip",
                   detail=f"alpha={params.alpha} is near a singular exponent; "
                          f"theoretical constants degrade and slope tolerances "
                          f"widen by 0.05")

    (cert, pairs, skip), (cert_d, pairs_d, skip_d) = result.certified
    solved = (f"{result.solved_points} of {len(grid)} grid points solved; "
              f"norms certified below the running max: {cert} of {pairs} at N, "
              f"{cert_d} of {pairs_d} at 2N; solved points with no "
              f"eigensolve: {skip} at N, {skip_d} at 2N")
    report.check("truncation_stability", 0.05 - result.truncation_stability,
                 detail=f"{result.truncation_stability:.2%} under N doubling; {solved}")

    if exact:
        report.add("slope", "pass", detail="discrepancy identically zero (exact)")
        report.add("bound_ratio", "pass", detail="exact")
        return

    kind = "log-corrected " if log_corrected else ""
    report.check("slope", slope - floor,
                 detail=f"{kind}slope={slope:.3f} floor={floor:.3f}")

    ratios = ratios[ratios > 0]
    spread = float(ratios.max() / ratios.min())
    report.check("bound_ratio", 10.0 - spread, detail=f"max/min={spread:.3f}")


def cmd_oracle_check(cfg: StudyConfig, report: RunReport, args) -> None:
    from .fiber import assemble_fiber_matrix, c1_constant, oracle_form_element
    params, coeff, constants = _prepare(cfg)
    modes = _modes(cfg)
    tol = cfg.tolerances.oracle_rel

    c0_quad = oracle_c0(params)
    rel_c0 = abs(c0_quad - constants.c0) / constants.c0
    report.check("c0_quadrature", tol - rel_c0,
                 detail=f"gamma={constants.c0:.9g} quad={c0_quad:.9g}")

    rows = []
    if cfg.dimension == 1:
        span = min(2, modes.truncation)
        fibers = {xi: assemble_fiber_matrix(coeff, params, modes, np.array([xi])).entries
                  for xi in (0.3, 1.0)}
        worst = 0.0
        for m in range(-span, span + 1):
            for n in range(-span, span + 1):
                for xi, entries in fibers.items():
                    closed = complex(entries[modes.index_of([m]), modes.index_of([n])])
                    orc = oracle_form_element(coeff, params, m, n, xi)
                    err = abs(orc - closed)
                    rel = err / abs(closed) if abs(closed) > 1e-9 else err
                    worst = max(worst, rel)
                    rows.append([m, n, xi, params.alpha, closed.real, closed.imag,
                                 orc.real, orc.imag, rel])
        report.check("form_elements", tol - worst, detail=f"worst rel err {worst:.3e}")
    else:
        report.add("form_elements", "skip", detail="the oracle is defined for d = 1")
    report.write_csv("oracle_check.csv", ["m", "n", "xi", "alpha", "closed_re",
                                          "closed_im", "oracle_re", "oracle_im",
                                          "rel_err"], rows)

    # ||A(xi) - A(0)|| <= mu_plus c1 |xi|^alpha for alpha < 1, on the radial
    # ladder along e1; A(xi) and A(0) share their coupling blocks
    if params.alpha >= 1.0:
        report.add("form_difference", "skip", detail="the bound holds for alpha < 1")
        return
    c1 = c1_constant(params)
    direction = np.eye(cfg.dimension)[0]
    zero = assemble_fiber_matrix(coeff, params, modes, np.zeros(cfg.dimension)).stacks
    radii = cfg.xi_grid.radii()
    ratio = 0.0
    for r in radii:
        stacks = assemble_fiber_matrix(coeff, params, modes, r * direction).stacks
        lhs = max(hermitian_norm(a - b) for a, b in zip(stacks, zero))
        ratio = max(ratio, lhs / (coeff.mu_plus * c1 * r ** params.alpha))
    report.check("form_difference", 1.0 + 1e-9 - ratio,
                 detail=f"worst ||A(xi)-A(0)|| / (mu+ c1 |xi|^a) = {ratio:.6g} "
                      f"over {len(radii)} radii")


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Parser whose usage errors exit 1 (2 is reserved for verification)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


COMMANDS = {
    "validate": cmd_validate,
    "constants": cmd_validate,      # the name the benchmark runs
    "fiber": cmd_fiber,
    "thresholds": cmd_thresholds,
    "rate-study": cmd_rate_study,
    "oracle-check": cmd_oracle_check,
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="levyhom",
                     description="Spectral verification runs for periodic "
                                 "nonlocal-operator homogenization")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to JSON config")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--workers", type=int, default=None,
                       help="upper bound on the parallel map width, capped at "
                            "the CPUs this process may run on (the default); "
                            "threads start only where each point's largest "
                            f"dense matrix has at least {PARALLEL_MIN_ORDER} rows")
        if name == "fiber":
            p.add_argument("--xi", nargs="+", required=True,
                           help="quasimomenta, each with every component, "
                                "comma-separated")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.workers is not None and args.workers < 1:
            parser.error(f"argument --workers: must be >= 1, got {args.workers}")
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        cfg = StudyConfig.load(args.config)
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    report = RunReport(args.command, cfg.digest(),
                       args.out if args.out is not None else cfg.output)
    start = time.perf_counter()
    try:
        COMMANDS[args.command](cfg, report, args)
    except LevyhomError as exc:
        report.add("measurement", "fail", detail=f"{type(exc).__name__}: {exc}")
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report.wall_time = time.perf_counter() - start
    print(report.render())
    return 0 if report.passed else 2


if __name__ == "__main__":
    sys.exit(main())
