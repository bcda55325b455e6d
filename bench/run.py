"""levyhom benchmark: time-to-verdict of the CLI, and a traced per-layer run.

Usage (from the repository root):

    python3 bench/run.py --workload d1-paper --seed 1 --seconds 20 --trace 0

Workloads are defined in `workloads.py`.  With `--trace 0` the benchmark
runs the workload's CLI commands as separate processes, repeating the whole
command sequence until `--seconds` have passed (at least once), and reports
the end-to-end metrics as medians over the repetitions.  With `--trace 1`
it runs the commands in-process twice (`traced.py`), once plain and once
with every layer function wrapped, and reports the per-layer metrics.

Each command process gets `--workers <nproc>` (or `--workers 1` for the
serial rate study) and one BLAS thread, so no more threads run than there
are cores.  Every run checks the outputs: exit codes 0 and PASS verdicts,
byte-identical rate-study CSVs for both worker counts and across
repetitions, and the d = 1 CSVs against values stored from the seed commit
(`reference/`).  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; a full record, machine
description included, goes to `.bench_work/results/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import checks
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# validate processes per repetition, split evenly over the configs, for the
# setup_s median; one of each config's samples is the sequence's own validate
SETUP_SAMPLES = 6
# no repetition starts unless it is expected to end within this many seconds
# of the run's start, and no process outlives HARD_LIMIT_S
SOFT_LIMIT_S = 140.0
HARD_LIMIT_S = 170.0

# per-command times: name -> (command, serial).  They go to the record and
# the console; the JSON line carries only BENCHMARK.json's end-to-end metrics
COMMAND_TIMES = {"rate_study_s": ("rate-study", False),
                 "rate_study_serial_s": ("rate-study", True),
                 "thresholds_s": ("thresholds", False),
                 "oracle_check_s": ("oracle-check", False)}
# work counts that must repeat exactly across traced runs and seeds
REPEATED_COUNTS = ("spectral.riesz_calls", "spectral.riesz_inversions",
                   "homogenization.norm_calls", "homogenization.norm_n3",
                   "homogenization.grid_points", "spectral.eig_calls",
                   "spectral.eig_n3", "fiber.assemble_calls", "fiber.oracle_calls")


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("LEVYHOM_LOG", None)
    return env


def run_process(argv, log_path, timeout):
    """Run to completion; return (exit code, wall s, peak RSS MB).

    A process still running after `timeout` seconds is killed and reported
    with its negative signal number as exit code.
    """
    start = time.perf_counter()
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
    box = {}

    def reap():
        _, status, usage = os.wait4(proc.pid, 0)
        box.update(end=time.perf_counter(), status=status, usage=usage)

    reaper = threading.Thread(target=reap)
    reaper.start()
    try:
        reaper.join(max(timeout, 0.0))
    finally:
        if reaper.is_alive():
            proc.kill()
            reaper.join()
    proc.returncode = os.waitstatus_to_exitcode(box["status"])
    return proc.returncode, box["end"] - start, box["usage"].ru_maxrss / 1024.0


def source_digest() -> str:
    """Digest of the program and benchmark sources, for runs outside git."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src", "levyhom"), BENCH_DIR):
        for base, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".py", ".csv")):
                    path = os.path.join(base, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    h.update(checks.file_digest(path).encode())
    return h.hexdigest()[:16]


def machine_record(workload) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
            timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    env = child_env()
    return {
        "nproc": nproc(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_vars": {v: env[v] for v in THREAD_VARS},
        "git_commit": commit,
        "source_digest": source_digest(),
        "configs": {name: checks.file_digest(path)[:16] for name, path in workload.configs.items()},
    }


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# ----------------------------------------------------------------------
# Output checks shared by both modes
# ----------------------------------------------------------------------

def config_size(path: str) -> int:
    with open(path) as fh:
        cfg = json.load(fh)
    return (2 * cfg["truncation"] + 1) ** cfg["dimension"]


def step_problems(workload, step, rc, stdout, out_dir) -> list:
    problems = checks.verdict_problems(rc, stdout)
    if rc != 0:
        return problems
    if step.command == "fiber":
        problems += checks.fiber_problems(out_dir, config_size(workload.configs[step.config]),
                                          workloads.FIBER_XI_PER_CONFIG)
    if workload.d1_reference and step.command in checks.REFERENCE_CSVS:
        csv = os.path.join(out_dir, checks.REFERENCE_CSVS[step.command])
        problems += checks.reference_problems(csv, step.config, step.command)
    return problems


class Tally:
    """Attempted and failed commands, with the problems of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = {}

    def add(self, label, problems) -> str:
        self.attempted += 1
        key = f"{self.attempted}:{label}"
        if problems:
            self.failures[key] = problems
        return key

    def fail(self, record, problem):
        """Add a problem found after the command was counted."""
        record["problems"].append(problem)
        self.failures[record["key"]] = record["problems"]

    @property
    def failed(self) -> int:
        return len(self.failures)


# ----------------------------------------------------------------------
# Timed runs (--trace 0)
# ----------------------------------------------------------------------

def timed_repetition(workload, rep, work, started, tally):
    """One pass over the workload's commands, plus the setup samples."""
    workers = nproc()
    rep_dir = os.path.join(work, f"rep{rep}")
    records, setup = [], []

    def run(step, out_dir):
        os.makedirs(out_dir, exist_ok=True)
        log = out_dir + ".log"
        argv = [sys.executable, "-m", "levyhom.cli"] + workload.argv(step, out_dir, workers)
        rc, wall, rss = run_process(argv, log, HARD_LIMIT_S - (time.perf_counter() - started))
        with open(log, errors="replace") as fh:
            stdout = fh.read()
        problems = step_problems(workload, step, rc, stdout, out_dir)
        return {"label": step.label, "rc": rc, "wall_s": wall, "rss_mb": rss,
                "problems": problems, "out": out_dir,
                "key": tally.add(step.label, problems)}

    for cfg in workload.configs:
        for i in range(SETUP_SAMPLES // len(workload.configs) - 1):
            rec = run(workloads.Step(cfg, "validate"),
                      os.path.join(rep_dir, "setup", f"{cfg}-{i}"))
            setup.append(rec["wall_s"])
            records.append(rec)
    seq_start = time.perf_counter()
    for step in workload.steps:
        rec = run(step, os.path.join(rep_dir, step.label))
        rec["step"] = step
        records.append(rec)
        if step.command == "validate":
            setup.append(rec["wall_s"])
    seq_wall = time.perf_counter() - seq_start

    # both worker counts of the rate study must write the same bytes
    steps = [r for r in records if "step" in r]
    by_label = {r["label"]: r for r in steps}
    for cfg in workload.configs:
        par, ser = by_label.get(f"{cfg}/rate-study"), by_label.get(f"{cfg}/rate-study-serial")
        if par and ser and not par["problems"] and not ser["problems"]:
            a, b = (os.path.join(r["out"], "rate_study.csv") for r in (par, ser))
            if checks.file_digest(a) != checks.file_digest(b):
                tally.fail(par, "rate_study.csv differs from the --workers 1 run")

    # a command's time, summed over the workload's configs
    times = {"wall_s": seq_wall}
    for key, (command, serial) in COMMAND_TIMES.items():
        sel = [r["wall_s"] for r in steps
               if r["step"].command == command and r["step"].serial == serial]
        if sel:
            times[key] = sum(sel)
    return {"records": records, "setup": setup, "times": times}


def run_timed(workload, seconds, work, tally):
    started = time.perf_counter()
    reps = []
    while True:
        rep_start = time.perf_counter()
        reps.append(timed_repetition(workload, len(reps), work, started, tally))
        now = time.perf_counter()
        if now - started >= seconds or now - started + (now - rep_start) > SOFT_LIMIT_S:
            break

    # outputs must repeat byte for byte across repetitions
    first = {r["label"]: checks.tree_digests(r["out"]) for r in reps[0]["records"]
             if "step" in r and not r["problems"]}
    for rep in reps[1:]:
        for r in rep["records"]:
            if r["label"] in first and "step" in r and not r["problems"]:
                if checks.tree_digests(r["out"]) != first[r["label"]]:
                    tally.fail(r, "outputs differ from the first repetition")

    setup = [s for rep in reps for s in rep["setup"]]
    metrics = {"setup_s": statistics.median(setup)}
    for key in ("wall_s", *COMMAND_TIMES):
        vals = [rep["times"][key] for rep in reps if key in rep["times"]]
        if vals:
            metrics[key] = statistics.median(vals)
    metrics["peak_rss_mb"] = max(r["rss_mb"] for rep in reps for r in rep["records"])
    detail = {
        "repetitions": len(reps),
        "setup_samples": setup,
        "per_repetition": [rep["times"] for rep in reps],
        "commands": [{k: r[k] for k in ("label", "rc", "wall_s", "rss_mb", "problems")}
                     for rep in reps for r in rep["records"]],
    }
    return metrics, detail


# ----------------------------------------------------------------------
# Traced run (--trace 1)
# ----------------------------------------------------------------------

def traced_pass(workload, steps, trace, work, results, started, tally):
    name = "traced" if trace else "plain"
    pass_dir = os.path.join(work, name)
    os.makedirs(pass_dir, exist_ok=True)
    plan = {"trace": trace,
            "spans": os.path.join(results, f"{workload.name}.spans.json"),
            "steps": [{"label": s.label,
                       "argv": workload.argv(s, os.path.join(pass_dir, s.label), 1)}
                      for s in steps]}
    plan_path = os.path.join(pass_dir, "plan.json")
    result_path = os.path.join(pass_dir, "result.json")
    with open(plan_path, "w") as fh:
        json.dump(plan, fh)
    argv = [sys.executable, os.path.join(BENCH_DIR, "traced.py"), plan_path, result_path]
    rc, _, _ = run_process(argv, os.path.join(pass_dir, "log.txt"),
                           HARD_LIMIT_S - (time.perf_counter() - started))
    if rc != 0 or not os.path.exists(result_path):
        for s in steps:
            tally.add(f"{name}:{s.label}", [f"in-process runner exited with {rc}"])
        return None
    with open(result_path) as fh:
        result = json.load(fh)
    for s, r in zip(steps, result["steps"]):
        out = os.path.join(pass_dir, s.label)
        r["out"] = out
        r["problems"] = step_problems(workload, s, r["rc"], r["stdout"], out)
        r["key"] = tally.add(f"{name}:{s.label}", r["problems"])
    return result


def check_counts(workload, metrics, results) -> list:
    """Work counts must equal those of every earlier traced run of this source."""
    path = os.path.join(results, f"counts-{workload.name}-{source_digest()}.json")
    counts = {k: metrics[k] for k in REPEATED_COUNTS}
    if not os.path.exists(path):
        with open(path, "w") as fh:
            json.dump(counts, fh, indent=1)
        return []
    with open(path) as fh:
        earlier = json.load(fh)
    return [f"{k} = {counts[k]}, an earlier run had {earlier.get(k)}"
            for k in REPEATED_COUNTS if counts[k] != earlier.get(k)]


def run_traced(workload, work, results, tally):
    started = time.perf_counter()
    # --workers 1 throughout, so the --workers <nproc> rate study is dropped
    steps = [s for s in workload.steps if s.command != "rate-study" or s.serial]
    plain = traced_pass(workload, steps, False, work, results, started, tally)
    traced = traced_pass(workload, steps, True, work, results, started, tally)
    if plain is None or traced is None:
        return None, {}
    for a, b in zip(plain["steps"], traced["steps"]):
        if not a["problems"] and not b["problems"] and \
                checks.tree_digests(a["out"]) != checks.tree_digests(b["out"]):
            tally.fail(b, "traced outputs differ from the plain pass")
    metrics = dict(traced["metrics"])
    metrics["trace.overhead_s"] = traced["sequence_s"] - plain["sequence_s"]
    count_problems = check_counts(workload, metrics, results)
    detail = {
        "plain_sequence_s": plain["sequence_s"],
        "traced_sequence_s": traced["sequence_s"],
        "count_problems": count_problems,
        "commands": [{"pass": p, "label": r["label"], "rc": r["rc"],
                      "wall_s": r["wall_s"], "problems": r["problems"]}
                     for p, res in (("plain", plain), ("traced", traced))
                     for r in res["steps"]],
    }
    return metrics, detail


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def load_spec() -> dict:
    """BENCHMARK.json: workload names and the metrics to report, with units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    spec["why"] = {w["name"]: w["why"] for w in spec["workloads"]}
    return spec


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec["why"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in ("src/levyhom/cli.py", "configs/t1_alpha1.json", "configs/t2_alpha05.json"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise SetupError(f"{needed} not found under {ROOT}: not a levyhom checkout")
    for var in THREAD_VARS:
        os.environ[var] = "1"

    results = os.path.join(ROOT, ".bench_work", "results")
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    work = os.path.join(ROOT, ".bench_work", f"{tag}-{os.getpid()}")
    os.makedirs(results, exist_ok=True)
    os.makedirs(work, exist_ok=True)
    try:
        workload = workloads.build(args.workload, args.seed, ROOT, work)
        machine = machine_record(workload)
        print("machine: " + json.dumps(machine, sort_keys=True), flush=True)
        tally = Tally()
        if args.trace:
            metrics, detail = run_traced(workload, work, results, tally)
        else:
            metrics, detail = run_timed(workload, args.seconds, work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = (tally.failed == 0 and metrics is not None
               and not detail.get("count_problems"))
    metrics = metrics or {}
    why = spec["why"][args.workload]
    record = {"workload": args.workload, "why": why, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "machine": machine,
              "correct": correct, "attempted": tally.attempted, "failed": tally.failed,
              "failed_ops_frac": tally.failed / max(tally.attempted, 1),
              "failures": tally.failures, "metrics": metrics, "detail": detail}
    with open(os.path.join(results, f"BENCH_{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1, default=str)

    print(f"workload {args.workload} seed {args.seed}: {why}")
    for key, problems in tally.failures.items():
        print(f"FAILED {key}: {'; '.join(problems)}")
    for problem in detail.get("count_problems", ()):
        print(f"FAILED work count check: {problem}")
    print(f"failed_ops_frac = {record['failed_ops_frac']:.4g} "
          f"({tally.failed} of {tally.attempted} commands)")
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    for name, value in metrics.items():
        # console-only command times are in seconds
        print(f"{name} = {value:.6g} {units.get(name, 's')}")
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
           for m in wanted if m["name"] in metrics}
    print(json.dumps({"correct": correct and len(out) == len(wanted),
                      "attempted": max(tally.attempted, 1), "failed": tally.failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    # a terminated run still stops and reaps its command process
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        sys.exit(main())
    except SetupError as exc:
        print(f"benchmark setup error: {exc}", file=sys.stderr)
        sys.exit(2)
