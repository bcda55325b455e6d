"""In-process run of CLI commands, optionally traced from outside.

Usage: python3 bench/traced.py PLAN.json RESULT.json

PLAN holds {"trace": bool, "spans": path or null, "steps": [{"label",
"argv"}]}.  The script imports `levyhom.cli` (timed as `cli.import_s`),
then calls `levyhom.cli.main(argv)` for each step in this one process and
writes each step's exit code, printed report and wall time to RESULT.

With "trace" set, the public functions of the layer modules are wrapped
before the first step: every module attribute (and `cli.COMMANDS` entry)
that refers to one of them is replaced by a wrapper that records a span
(name, parent span, start, end).  No source file changes.  Spans stay in
memory and are written to the "spans" path when the run ends; the per-layer
metrics are computed from them.  Steps must run with --workers 1, because
the thread pool does not carry the span stack into its workers.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import json
import os
import sys
import time

LAYERS = ("coefficient", "fiber", "spectral", "homogenization", "cli")


class Recorder:
    """Span stack for one thread; spans are [name, parent, start, end, value]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counters = {}

    def span(self, fn, name, measure=None):
        """Wrap `fn` so that each call records a span named `name`.

        `measure(bound_arguments, result)` gives a work count for the span.
        """
        sig = inspect.signature(fn) if measure else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, self.stack[-1] if self.stack else -1, 0.0, 0.0, None]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            rec[2] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                self.stack.pop()
            if measure:
                rec[4] = measure(sig.bind(*args, **kwargs).arguments, out)
            return out

        return wrapper

    def counter(self, fn, name, measure):
        """Wrap `fn` to add `measure(result)` to a counter, with no span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.counters[name] = self.counters.get(name, 0) + measure(out)
            return out

        return wrapper


def _size(matrix) -> int:
    return len(getattr(matrix, "entries", matrix))


def _riesz_inversions(args, out) -> int:
    # the sums are taken at the starting node count, then at each doubling
    # up to the returned count: n0 + 2 n0 + ... + n = 2 n - n0
    nodes = args.get("nodes")
    start = max(128, nodes if nodes is not None else args["contour"].num_nodes)
    return 2 * out.nodes - start


# work counts per span name, computed from the arguments and the result
MEASURES = {
    "spectral.eig_hermitian": lambda a, out: _size(a["matrix"]) ** 3,
    "spectral.projector_by_riesz": _riesz_inversions,
    "fiber.assemble_fiber_matrix": lambda a, out: out.entries.nbytes,
    "homogenization.discrepancy_study": lambda a, out: len(a["grid"]),
    "homogenization.norm": lambda a, out: _size(a["mat"]) ** 3,
}


def install(recorder: Recorder) -> None:
    """Replace layer functions by span-recording wrappers, wherever referenced."""
    mods = {layer: importlib.import_module(f"levyhom.{layer}") for layer in LAYERS}
    wrappers = {}
    for layer, mod in mods.items():
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                name = f"{layer}.{attr}"
                wrappers[obj] = recorder.span(obj, name, MEASURES.get(name))
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "levyhom" or mod_name.startswith("levyhom."):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
    cli = mods["cli"]
    for key, fn in cli.COMMANDS.items():
        cli.COMMANDS[key] = wrappers.get(fn, fn)
    # the multi-shift resolvent-norm sweep: norms taken by homogenization
    homog = mods["homogenization"]
    if hasattr(homog, "hermitian_norm"):
        homog.hermitian_norm = recorder.span(homog.hermitian_norm, "homogenization.norm",
                                             MEASURES["homogenization.norm"])
    if hasattr(cli, "write_csv"):
        cli.write_csv = recorder.counter(cli.write_csv, "cli.csv_bytes", os.path.getsize)


def layer_metrics(recorder: Recorder) -> dict:
    """Per-layer times and work counts from the recorded spans."""
    spans = recorder.spans
    exclusive = [end - start for _, _, start, end, _ in spans]
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            exclusive[parent] -= end - start

    def outermost(names):
        # spans of `names` not nested in another span of `names`
        for i, (name, parent, *_rest) in enumerate(spans):
            if name not in names:
                continue
            while parent >= 0 and spans[parent][0] not in names:
                parent = spans[parent][1]
            if parent < 0:
                yield i

    def busy(*names):
        return sum(spans[i][3] - spans[i][2] for i in outermost(set(names)))

    def self_time(pred):
        return sum(x for x, s in zip(exclusive, spans) if pred(s[0]))

    def calls(name):
        return sum(1 for s in spans if s[0] == name)

    def work(name):
        return sum(s[4] for s in spans if s[0] == name and s[4] is not None)

    return {
        "spectral.riesz_s": busy("spectral.projector_by_riesz"),
        "spectral.riesz_calls": calls("spectral.projector_by_riesz"),
        "spectral.riesz_inversions": work("spectral.projector_by_riesz"),
        "homogenization.norm_s": busy("homogenization.norm"),
        "homogenization.norm_calls": calls("homogenization.norm"),
        "homogenization.norm_n3": work("homogenization.norm"),
        "homogenization.study_self_s":
            self_time(lambda n: n == "homogenization.discrepancy_study"),
        "homogenization.grid_points": work("homogenization.discrepancy_study"),
        "spectral.eig_s": busy("spectral.eig_hermitian"),
        "spectral.eig_calls": calls("spectral.eig_hermitian"),
        "spectral.eig_n3": work("spectral.eig_hermitian"),
        "fiber.assemble_s": busy("fiber.assemble_fiber_matrix"),
        "fiber.assemble_calls": calls("fiber.assemble_fiber_matrix"),
        "fiber.assemble_mb": work("fiber.assemble_fiber_matrix") / 1e6,
        "spectral.threshold_report_self_s":
            self_time(lambda n: n == "spectral.threshold_report"),
        "fiber.oracle_s": busy("fiber.oracle_form_element"),
        "fiber.oracle_calls": calls("fiber.oracle_form_element"),
        "coefficient.oracle_c0_s": busy("coefficient.oracle_c0"),
        "coefficient.certify_s": busy("coefficient.certify",
                                      "coefficient.validate_coefficient"),
        "coefficient.constants_s": busy("coefficient.theory_constants"),
        "cli.self_s": self_time(lambda n: n.startswith("cli.")),
        "cli.csv_bytes": recorder.counters.get("cli.csv_bytes", 0),
    }


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path) as fh:
        plan = json.load(fh)
    start = time.perf_counter()
    cli = importlib.import_module("levyhom.cli")
    import_s = time.perf_counter() - start

    recorder = Recorder()
    if plan["trace"]:
        install(recorder)
    steps = []
    seq_start = time.perf_counter()
    for step in plan["steps"]:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(step["argv"])
        steps.append({"label": step["label"], "rc": rc,
                      "wall_s": time.perf_counter() - t0,
                      "stdout": out.getvalue(), "stderr": err.getvalue()})
    sequence_s = time.perf_counter() - seq_start

    result = {"import_s": import_s, "sequence_s": sequence_s, "steps": steps}
    if plan["trace"]:
        result["metrics"] = dict(layer_metrics(recorder), **{"cli.import_s": import_s})
        with open(plan["spans"], "w") as fh:
            json.dump({"fields": ["name", "parent", "start", "end", "work"],
                       "spans": recorder.spans}, fh)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
