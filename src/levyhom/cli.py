"""Command-line driver for batch verification runs.

Commands: validate, constants, fiber, thresholds, rate-study, oracle-check.
Exit codes are a stable contract: 0 all checks pass, 1 usage or I/O error,
2 verification failure.  The only environment knob is LEVYHOM_LOG (log
verbosity); identical config plus seed gives byte-identical CSV artifacts.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from ._util import fmt, hermitian_norm, parallel_map, write_csv
from .coefficient import (ModelParams, certify, oracle_c0, rate_function,
                          theory_constants)
from .config import StudyConfig
from .errors import LevyhomError, TruncationUnstable
from .fiber import (ModeSet, assemble_fiber_matrix, c1_constant,
                    oracle_form_element)
from .homogenization import discrepancy_study, slope_check
from .spectral import threshold_report

log = logging.getLogger(__name__)


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
    wall_time: float = 0.0
    checks: list = field(default_factory=list)
    artifacts: list = field(default_factory=list)
    values: dict = field(default_factory=dict)

    def add(self, name, status, margin=None, detail=""):
        self.checks.append(CheckVerdict(name, status, margin, detail))

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
    constants = theory_constants(params, coeff)
    modes = ModeSet(cfg.dimension, cfg.resolved_truncation)
    return params, coeff, constants, modes


def _constant_values(constants) -> dict:
    """The constants that `validate` and `constants` both report, in print order."""
    return {name: getattr(constants, name)
            for name in ("c0", "mu_minus", "mu_plus", "mu_eff", "delta0", "d0")}


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------

def cmd_validate(cfg: StudyConfig, out_dir: str, workers: int | None) -> RunReport:
    report = RunReport("validate", cfg.digest())
    params = ModelParams(cfg.dimension, cfg.alpha)
    try:
        coeff = certify(cfg.build_coefficient(), cfg.resolved_positivity_grid)
    except LevyhomError as exc:
        report.add("symmetry+positivity", "fail", detail=str(exc))
        return report
    report.add("symmetry", "pass")
    report.add("positivity", "pass", margin=coeff.mu_minus,
               detail=f"certified mu_minus={coeff.mu_minus:.6g}")
    constants = theory_constants(params, coeff)
    report.values.update(_constant_values(constants))
    report.add("mu_eff_within_bounds",
               "pass" if constants.mu_minus <= constants.mu_eff <= constants.mu_plus
               else "fail")
    return report


def cmd_constants(cfg: StudyConfig, out_dir: str, workers: int | None) -> RunReport:
    report = RunReport("constants", cfg.digest())
    params, coeff, constants, _ = _prepare(cfg)
    report.values.update(_constant_values(constants))
    report.values.update({
        "theta(1/e)": float(rate_function(params.alpha, "theta", math.exp(-1.0))),
        "theta(1)": float(rate_function(params.alpha, "theta", 1.0)),
    })
    report.add("delta0_below_pi", "pass" if constants.delta0 < math.pi else "fail",
               margin=math.pi - constants.delta0)
    return report


def cmd_fiber(cfg: StudyConfig, out_dir: str, workers: int | None,
              xi_values=()) -> RunReport:
    report = RunReport("fiber", cfg.digest())
    params, coeff, constants, modes = _prepare(cfg)
    if not xi_values:
        raise ValueError("fiber requires --xi with at least one value")
    os.makedirs(out_dir, exist_ok=True)
    for idx, xi_spec in enumerate(xi_values):
        xi = np.array([float(v) for v in str(xi_spec).split(",")], dtype=float)
        if xi.size == 1 and cfg.dimension > 1:
            xi = np.concatenate([xi, np.zeros(cfg.dimension - 1)])
        fiber = assemble_fiber_matrix(coeff, params, modes, xi)
        header = [f"{part}_{j}" for j in range(modes.size) for part in ("re", "im")]
        path = os.path.join(out_dir, f"fiber_{idx}.csv")
        # complex for every coefficient: the CSV keeps its re/im column pairs
        write_csv(path, header, fiber.entries.astype(complex).view(float),
                  digest=cfg.digest())
        report.artifacts.append(path)
        herm = float(np.max(np.abs(fiber.entries - fiber.entries.conj().T)))
        scale = max(1.0, float(np.max(np.abs(fiber.entries))))
        report.add(f"hermitian_xi{idx}", "pass" if herm <= 1e-12 * scale else "fail",
                   margin=herm)
    return report


def cmd_thresholds(cfg: StudyConfig, out_dir: str, workers: int | None) -> RunReport:
    report = RunReport("thresholds", cfg.digest())
    params, coeff, constants, modes = _prepare(cfg)
    d = cfg.dimension

    radii = cfg.xi_grid.radii()
    radii = radii[radii <= constants.delta0]
    direction = np.eye(d)[0]
    xis = [np.zeros(d)] + [r * direction for r in radii]

    def one_report(xi):
        try:
            return threshold_report(coeff, params, modes, xi,
                                    projector_tol=cfg.tolerances.projector_abs)
        except LevyhomError as exc:
            return exc

    rows = []
    failure = None
    for xi, rep in zip(xis, parallel_map(one_report, xis, workers)):
        if isinstance(rep, LevyhomError):
            failure = f"threshold_report failed at |xi|={np.linalg.norm(xi):.3g}: {rep}"
            break
        rows.append(
            [float(v) for v in rep.xi] + [rep.xi_norm, rep.lambda1, rep.lambda2,
                                          rep.f_minus_p_norm, rep.phi_norm,
                                          rep.af_minus_effective_norm, rep.rho,
                                          rep.rho_star]
        )

    os.makedirs(out_dir, exist_ok=True)
    header = [f"xi_{j + 1}" for j in range(d)] + [
        "xi_norm", "lambda1", "lambda2", "f_minus_p", "phi_norm",
        "af_minus_eff", "rho", "rho_star"]
    path = os.path.join(out_dir, "thresholds.csv")
    write_csv(path, header, rows, digest=cfg.digest())
    report.artifacts.append(path)
    if failure is not None:
        report.add("threshold_rows", "fail", detail=failure)
        return report
    report.add("threshold_rows", "pass", detail=f"{len(rows)} quasimomenta")

    arr = np.array(rows)
    norms = arr[:, d]
    ladder = norms > 0.0
    lam1, lam2 = arr[:, d + 1], arr[:, d + 2]
    lower = constants.mu_minus * constants.c0 * norms ** params.alpha
    upper = constants.mu_plus * constants.c0 * norms ** params.alpha
    ok1 = bool(np.all(lam1 >= lower - 1e-10) and np.all(lam1 <= upper + 1e-10))
    report.add("lambda1_bounds", "pass" if ok1 else "fail")
    ok2 = bool(np.all(lam2 >= constants.d0 - 1e-10))
    report.add("lambda2_gap", "pass" if ok2 else "fail",
               margin=float(np.min(lam2) - constants.d0))

    quantities = {"f_minus_p": ("theta", arr[:, d + 3]),
                  "phi": ("phi", arr[:, d + 4]),
                  "rho_star": ("rho_star", np.abs(arr[:, d + 7]))}
    for name, (quantity, vals) in quantities.items():
        r, v = norms[ladder], vals[ladder]
        if r.size == 0:
            report.add(f"slope_{name}", "fail",
                       detail=f"empty ladder: no xi_grid radius in "
                              f"(0, delta0={constants.delta0:.6g}]")
            continue
        if np.all(v <= 1e-12):
            report.add(f"slope_{name}", "pass", detail="identically zero")
            continue
        try:
            slope, floor = slope_check(r, v, params.alpha, quantity,
                                       cfg.tolerances.slope_margin)
        except LevyhomError as exc:
            report.add(f"slope_{name}", "fail", detail=str(exc))
            continue
        status = "pass" if slope >= floor else "fail"
        report.add(f"slope_{name}", status, margin=slope - floor,
                   detail=f"slope={slope:.3f} floor={floor:.3f}")
    return report


def cmd_rate_study(cfg: StudyConfig, out_dir: str, workers: int | None) -> RunReport:
    report = RunReport("rate-study", cfg.digest())
    params, coeff, constants, modes = _prepare(cfg)
    grid = cfg.xi_grid.points(cfg.dimension)
    eps = cfg.epsilons.values()
    truncation_failed = None
    try:
        result = discrepancy_study(coeff, params, modes, grid, eps, workers=workers)
    except TruncationUnstable as exc:
        result = exc.result
        truncation_failed = str(exc)

    os.makedirs(out_dir, exist_ok=True)
    bounds = rate_function(params.alpha, "discrepancy", result.epsilons)
    rows = list(zip(result.epsilons, result.discrepancies, bounds,
                    result.bound_ratios, result.argmax_xi_norm))
    footers = [("fitted_slope", result.fitted_slope if result.fitted_slope is not None
                else "exact"),
               ("r_squared", result.r_squared if result.r_squared is not None else ""),
               ("truncation_stability", result.truncation_stability)]
    if result.log_corrected_slope is not None:
        footers.append(("log_corrected_slope", result.log_corrected_slope))
    path = os.path.join(out_dir, "rate_study.csv")
    write_csv(path, ["epsilon", "discrepancy", "rate_bound", "bound_ratio",
                     "argmax_xi_norm"], rows, digest=cfg.digest(), footer_rows=footers)
    report.artifacts.append(path)

    for msg in result.warnings:
        report.add("alpha_singularity_warning", "skip", detail=msg)

    (cert, pairs, skip), (cert_d, pairs_d, skip_d) = result.certified
    solved = (f"{result.solved_points} of {len(grid)} grid points solved; "
              f"norms certified below the running max: {cert} of {pairs} at N, "
              f"{cert_d} of {pairs_d} at 2N; solved points with no "
              f"eigensolve: {skip} at N, {skip_d} at 2N")
    if truncation_failed:
        report.add("truncation_stability", "fail",
                   detail=f"{truncation_failed}; {solved}")
    else:
        report.add("truncation_stability", "pass",
                   margin=0.05 - result.truncation_stability,
                   detail=f"{result.truncation_stability:.2%} under N doubling; "
                          f"{solved}")

    if result.exact:
        report.add("slope", "pass", detail="discrepancy identically zero (exact)")
        report.add("bound_ratio", "pass", detail="exact")
        return report

    slope, floor = slope_check(result.epsilons, result.discrepancies,
                               params.alpha, "discrepancy",
                               cfg.tolerances.slope_margin)
    kind = "log-corrected " if result.log_corrected_slope is not None else ""
    report.add("slope", "pass" if slope >= floor else "fail", margin=slope - floor,
               detail=f"{kind}slope={slope:.3f} floor={floor:.3f}")

    ratios = result.bound_ratios[result.bound_ratios > 0]
    spread = float(ratios.max() / ratios.min()) if ratios.size else 1.0
    report.add("bound_ratio", "pass" if spread <= 10.0 else "fail",
               margin=10.0 - spread, detail=f"max/min={spread:.3f}")
    return report


def cmd_oracle_check(cfg: StudyConfig, out_dir: str, workers: int | None) -> RunReport:
    report = RunReport("oracle-check", cfg.digest())
    params, coeff, constants, modes = _prepare(cfg)
    tol = cfg.tolerances.oracle_rel

    c0_quad, c0_err = oracle_c0(params)
    rel_c0 = abs(c0_quad - constants.c0) / constants.c0
    report.add("c0_quadrature", "pass" if rel_c0 <= tol else "fail",
               margin=tol - rel_c0,
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
                    err = abs(orc.value - closed)
                    rel = err / abs(closed) if abs(closed) > 1e-9 else err
                    worst = max(worst, rel)
                    rows.append([m, n, xi, params.alpha, closed.real, closed.imag,
                                 orc.value.real, orc.value.imag, rel])
        report.add("form_elements", "pass" if worst <= tol else "fail",
                   margin=tol - worst, detail=f"worst rel err {worst:.3e}")
    else:
        report.add("form_elements", "skip", detail="the oracle is defined for d = 1")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "oracle_check.csv")
    write_csv(path, ["m", "n", "xi", "alpha", "closed_re", "closed_im",
                     "oracle_re", "oracle_im", "rel_err"], rows,
              digest=cfg.digest())
    report.artifacts.append(path)

    # ||A(xi) - A(0)|| <= mu_plus c1 |xi|^alpha for alpha < 1, on the radial
    # ladder along e1; A(xi) and A(0) share their coupling blocks
    if params.alpha >= 1.0:
        report.add("form_difference", "skip", detail="the bound holds for alpha < 1")
        return report
    c1 = c1_constant(params)
    direction = np.eye(cfg.dimension)[0]
    zero = assemble_fiber_matrix(coeff, params, modes, np.zeros(cfg.dimension)).stacks
    radii = cfg.xi_grid.radii()
    ratio = 0.0
    for r in radii:
        stacks = assemble_fiber_matrix(coeff, params, modes, r * direction).stacks
        lhs = max(hermitian_norm(a - b) for a, b in zip(stacks, zero))
        ratio = max(ratio, lhs / (coeff.mu_plus * c1 * r ** params.alpha))
    report.add("form_difference", "pass" if ratio <= 1.0 + 1e-9 else "fail",
               margin=1.0 - ratio,
               detail=f"worst ||A(xi)-A(0)|| / (mu+ c1 |xi|^a) = {ratio:.6g} "
                      f"over {len(radii)} radii")
    return report


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
    "constants": cmd_constants,
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
                       help="parallel map width (default: all CPUs this "
                            "process may run on)")
        p.add_argument("--truncation", type=int, default=None,
                       help="override the configured truncation")
        if name == "fiber":
            p.add_argument("--xi", nargs="+", required=True,
                           help="quasimomenta, comma-separated per component")
    return parser


def main(argv=None) -> int:
    level = os.environ.get("LEVYHOM_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.workers is not None and args.workers < 1:
            parser.error(f"argument --workers: must be >= 1, got {args.workers}")
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        cfg = StudyConfig.load(args.config)
        if args.truncation is not None:
            cfg = replace(cfg, truncation=args.truncation)
            cfg.validate()
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    out_dir = args.out if args.out is not None else cfg.output
    start = time.perf_counter()
    try:
        if args.command == "fiber":
            report = cmd_fiber(cfg, out_dir, args.workers, xi_values=args.xi)
        else:
            report = COMMANDS[args.command](cfg, out_dir, args.workers)
    except LevyhomError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report.wall_time = time.perf_counter() - start
    print(report.render())
    return 0 if report.passed else 2


if __name__ == "__main__":
    sys.exit(main())
