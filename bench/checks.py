"""Output checks: verdicts, stored seed-commit values, byte identity."""

from __future__ import annotations

import hashlib
import os

# ROADMAP allowance for summation-order drift, relative.
DRIFT_REL = 1e-12
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
# CSVs of a d = 1 config that must match the reference (fiber outputs depend
# on the seeded --xi points and are checked for shape instead).
REFERENCE_CSVS = {"thresholds": "thresholds.csv", "rate-study": "rate_study.csv",
                  "oracle-check": "oracle_check.csv"}
# columns that already hold a relative error: drift is compared absolutely
RELATIVE_COLUMNS = {"rel_err"}


def verdict_problems(rc: int, stdout: str) -> list:
    """Problems with a command's exit code and its printed verdicts."""
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    if "status:  PASS" not in stdout:
        problems.append("no PASS status line")
    for line in stdout.splitlines():
        name, _, rest = line.strip().partition(": ")
        if rest.split(" ", 1)[0] == "fail":
            problems.append(f"check {name} failed")
    return problems


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def tree_digests(directory: str) -> dict:
    """sha256 of every file below `directory`, keyed by relative path."""
    out = {}
    for base, _, files in os.walk(directory):
        for name in files:
            path = os.path.join(base, name)
            out[os.path.relpath(path, directory)] = file_digest(path)
    return out


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _rows(path: str) -> list:
    with open(path) as fh:
        return [line.rstrip("\n").split(",") for line in fh]


def reference_problems(csv_path: str, config: str, command: str) -> list:
    """Compare a d = 1 CSV with the value stored from the seed commit.

    The digest comment, the header and every text cell must match exactly.
    A number may drift by DRIFT_REL relative to the larger of its own
    magnitude and its column's largest data-row magnitude (a footer row: its
    own magnitude).  A number that is zero at working precision, at most
    DRIFT_REL times the file's largest data-row magnitude, may drift by that
    much: such cells (eigenvalues and norms at xi = 0) are rounding residue.
    """
    ref_path = os.path.join(REFERENCE_DIR, config, REFERENCE_CSVS[command])
    if not os.path.exists(csv_path):
        return [f"missing {os.path.basename(csv_path)}"]
    got, ref = _rows(csv_path), _rows(ref_path)
    if len(got) != len(ref):
        return [f"{len(got)} lines, reference has {len(ref)}"]
    if got[:2] != ref[:2]:
        return ["digest line or header differs from the reference"]
    header = ref[1]
    body = ref[2:]
    data = [row for row in body if _number(row[0]) is not None]
    scale = []
    for j, name in enumerate(header):
        vals = [abs(_number(r[j])) for r in data
                if j < len(r) and _number(r[j]) is not None]
        scale.append(1.0 if name in RELATIVE_COLUMNS else max(vals, default=0.0))
    zero_level = DRIFT_REL * max(s for s, name in zip(scale, header)
                                 if name not in RELATIVE_COLUMNS)
    problems = []
    for i, (g_row, r_row) in enumerate(zip(got[2:], body)):
        is_data = _number(r_row[0]) is not None
        if len(g_row) != len(r_row):
            problems.append(f"row {i}: {len(g_row)} cells, reference {len(r_row)}")
            continue
        for j, (g, r) in enumerate(zip(g_row, r_row)):
            gv, rv = _number(g), _number(r)
            if rv is None or gv is None:
                if g != r:
                    problems.append(f"row {i} col {j}: {g!r} != {r!r}")
                continue
            tol = DRIFT_REL * max(abs(rv), scale[j] if is_data else 0.0)
            if abs(rv) <= zero_level:
                tol = max(tol, zero_level)
            if abs(gv - rv) > tol:
                problems.append(f"row {i} {header[j]}: {gv!r} vs reference {rv!r}")
    return problems


def fiber_problems(out_dir: str, size: int, count: int) -> list:
    """Each fiber CSV holds a size x size complex matrix after its digest line."""
    problems = []
    for idx in range(count):
        path = os.path.join(out_dir, f"fiber_{idx}.csv")
        if not os.path.exists(path):
            problems.append(f"missing fiber_{idx}.csv")
            continue
        rows = _rows(path)
        if not rows[0][0].startswith("# config=") or len(rows) != size + 2:
            problems.append(f"fiber_{idx}.csv: {len(rows)} lines, want {size + 2}")
        elif any(len(r) != 2 * size or any(_number(c) is None for c in r)
                 for r in rows[2:]):
            problems.append(f"fiber_{idx}.csv: a row is not {2 * size} numbers")
    return problems
