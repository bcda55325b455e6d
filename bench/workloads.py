"""The benchmark's workloads: which configs, which commands, in which order.

A workload is a list of configs and, for each, the CLI commands to run on
it.  The seed generates only the d = 2 configs and the `fiber --xi` points;
the d = 1 configs are the shipped files under `configs/`.

The d = 2 generator draws real, positive amplitudes on a fixed support, so
the coupling lattice (hence the block structure of every fiber), the mode
counts, the quasimomentum grid and the threshold ladder are the same for
every seed, and so is every work count.  Only the split of a fixed
amplitude budget between the support terms changes with the seed.
Positivity holds by construction:

* every support term has the same |k|_1 + |l|_1, so the Lipschitz margin
  of the positivity certificate depends only on the budget;
* with positive amplitudes mu(x, y) is largest at x = y = 0 and smallest at
  a point of the certificate's grid where every cosine equals -1, so the
  certified mu_minus and mu_plus, and with them delta0, d0 and the number
  of threshold radii inside the certified ball, depend only on the budget.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass

ALPHA_D2 = 0.5
TRUNCATION_D2 = 3          # the rate study doubles it: 13 x 13 = 169 modes
EPSILON_COUNT_D2 = 8       # the smallest count the CLI accepts
FIBER_XI_PER_CONFIG = 2


@dataclass(frozen=True)
class Step:
    """One CLI invocation: command, config and the workers layout."""

    config: str            # config name, a key of Workload.configs
    command: str
    serial: bool = False   # --workers 1 instead of --workers <nproc>

    @property
    def label(self) -> str:
        suffix = "-serial" if self.serial else ""
        return f"{self.config}/{self.command}{suffix}"


@dataclass(frozen=True)
class Workload:
    name: str
    configs: dict          # config name -> path of the config file
    steps: tuple           # Step, in run order
    fiber_xi: dict         # config name -> `fiber --xi` arguments
    d1_reference: bool     # compare CSVs with the stored seed-commit values

    def argv(self, step: Step, out_dir: str, workers: int) -> list:
        """CLI arguments of one step (after the program name)."""
        args = [step.command, "--config", self.configs[step.config],
                "--out", out_dir, "--workers", str(1 if step.serial else workers)]
        if step.command == "fiber":
            args += ["--xi"] + self.fiber_xi[step.config]
        return args


def _unit(dimension: int, axis: int) -> list:
    return [1 if j == axis else 0 for j in range(dimension)]


def _neg(v: list) -> list:
    return [-x for x in v]


def _record(k, l, amp: float) -> dict:
    return {"k": list(k), "l": list(l), "re": amp, "im": 0.0}


# Support terms, one list of (k, l) pairs per independently weighted term.
# Each list is closed under realness (k, l) -> (-k, -l) and exchange
# (k, l) -> (l, k), so a real common amplitude satisfies both symmetries.
_E1, _E2, _O = _unit(2, 0), _unit(2, 1), [0, 0]

# k + l in {0, +-2 e1}: the coupling lattice is 2Z x {0}, so each fiber
# splits into one block per (m_2, parity of m_1).  |k|_1 + |l|_1 = 2.
BLOCK_TERMS = (
    ((_E1, _neg(_E1)), (_neg(_E1), _E1)),          # cos 2pi(x1 - y1)
    ((_E2, _neg(_E2)), (_neg(_E2), _E2)),          # cos 2pi(x2 - y2)
    ((_E1, _E1), (_neg(_E1), _neg(_E1))),          # cos 2pi(x1 + y1)
)

# k + l in {+-e1, +-e2}: the shifts generate Z^2, so each fiber is one dense
# block.  |k|_1 + |l|_1 = 1.
DENSE_TERMS = (
    ((_E1, _O), (_O, _E1), (_neg(_E1), _O), (_O, _neg(_E1))),  # cos 2pi x1 + cos 2pi y1
    ((_E2, _O), (_O, _E2), (_neg(_E2), _O), (_O, _neg(_E2))),  # cos 2pi x2 + cos 2pi y2
)

# Sum of |amplitude| over the non-constant records, against mu_hat[0, 0] = 1.
# 0.49 puts delta0 at 0.0238 for every seed, between the threshold ladder
# radii 10^-1.75 and 10^-1.5, so `thresholds` reports 11 quasimomenta.  0.3
# keeps the dense rate study's truncation drift near 2% (the gate is 5%).
BLOCK_BUDGET = 0.49
DENSE_BUDGET = 0.30


def d2_config(kind: str, seed: int) -> dict:
    """Seeded d = 2 config with the block (`blocks`) or dense support."""
    terms, budget = {"blocks": (BLOCK_TERMS, BLOCK_BUDGET),
                     "dense": (DENSE_TERMS, DENSE_BUDGET)}[kind]
    rng = random.Random(f"d2-{kind}:{seed}")
    weights = [rng.uniform(0.5, 1.5) for _ in terms]
    total = sum(w * len(t) for w, t in zip(weights, terms))
    records = [_record(_O, _O, 1.0)]
    for w, term in zip(weights, terms):
        for k, l in term:
            records.append(_record(k, l, budget * w / total))
    return {
        "dimension": 2,
        "alpha": ALPHA_D2,
        "coefficient": records,
        "truncation": TRUNCATION_D2,
        "xi_grid": {"points_per_dim": 4, "radial_min_exp": -4.0,
                    "radial_max_exp": -0.5, "radial_per_decade": 4,
                    "directions": "axes+diagonals"},
        "epsilons": {"min": 0.001, "max": 0.1, "count": EPSILON_COUNT_D2},
        "tolerances": {"oracle_rel": 0.001, "projector_abs": 1e-08,
                       "slope_margin": 0.1},
        "seed": seed,
        "output": "out",
    }


def fiber_xi(workload: str, config: str, dimension: int, seed: int) -> list:
    """Seeded `fiber --xi` arguments inside the dual cell (-pi, pi)^d.

    The first component is drawn from (0, pi): an argument that starts with
    '-' and holds a comma would parse as an option, and A(-xi) is the
    reflection of A(xi), so the half cell loses nothing.
    """
    rng = random.Random(f"fiber:{workload}:{config}:{seed}")
    points = []
    for _ in range(FIBER_XI_PER_CONFIG):
        xi = [rng.uniform(0.0, math.pi)]
        xi += [rng.uniform(-math.pi, math.pi) for _ in range(dimension - 1)]
        points.append(",".join(f"{v:.6f}" for v in xi))
    return points


ALL_COMMANDS = ("validate", "constants", "fiber", "thresholds", "rate-study",
                "oracle-check")


def _steps(configs, commands) -> tuple:
    steps = []
    for cfg in configs:
        for cmd in commands:
            steps.append(Step(cfg, cmd))
            if cmd == "rate-study":
                steps.append(Step(cfg, cmd, serial=True))
    return tuple(steps)


def build(name: str, seed: int, root: str, work: str) -> Workload:
    """Resolve a workload for `seed`; d = 2 configs are written under `work`."""
    if name == "d1-paper":
        configs = {c: os.path.join(root, "configs", f"{c}.json")
                   for c in ("t1_alpha1", "t2_alpha05")}
        commands = ALL_COMMANDS
    elif name in ("d2-blocks", "d2-dense"):
        kind = name.split("-")[1]
        path = os.path.join(work, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(d2_config(kind, seed), fh, indent=1)
            fh.write("\n")
        configs = {name: path}
        commands = (("validate", "constants", "fiber", "thresholds", "rate-study")
                    if kind == "blocks" else ("validate", "rate-study"))
    else:
        raise KeyError(name)
    xis = {}
    for cfg, path in configs.items():
        with open(path) as fh:
            xis[cfg] = fiber_xi(name, cfg, json.load(fh)["dimension"], seed)
    return Workload(name=name, configs=configs,
                    steps=_steps(configs, commands), fiber_xi=xis,
                    d1_reference=name == "d1-paper")
