"""Shared fixtures: the standard test coefficients and parameter builders."""

import json
import pathlib

import numpy as np
import pytest

from levyhom import ModelParams, PeriodicCoefficient, certify, constant_coefficient


CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"


def shipped_config_at(tmp_path, name, truncation) -> str:
    """Path of a copy of configs/<name>.json with its truncation replaced."""
    data = json.loads((CONFIGS / f"{name}.json").read_text())
    data["truncation"] = truncation
    path = tmp_path / f"{name}_n{truncation}.json"
    path.write_text(json.dumps(data))
    return str(path)


def make_t1(dimension: int = 1) -> PeriodicCoefficient:
    """1 + 0.5 cos(2 pi (x1 - y1)): modes (1,-1), (-1,1) at 0.25."""
    zero = (0,) * dimension
    e1 = tuple([1] + [0] * (dimension - 1))
    ne1 = tuple(-v for v in e1)
    return PeriodicCoefficient(dimension, {
        (zero, zero): 1.0,
        (e1, ne1): 0.25,
        (ne1, e1): 0.25,
    })


def make_t2(dimension: int = 1) -> PeriodicCoefficient:
    """1 + 0.5 cos(2 pi x1) cos(2 pi y1): four corner modes at 0.125."""
    zero = (0,) * dimension
    e1 = tuple([1] + [0] * (dimension - 1))
    ne1 = tuple(-v for v in e1)
    return PeriodicCoefficient(dimension, {
        (zero, zero): 1.0,
        (e1, e1): 0.125,
        (e1, ne1): 0.125,
        (ne1, e1): 0.125,
        (ne1, ne1): 0.125,
    })


def random_band_limited(rng: np.random.Generator, dimension: int = 1,
                        max_index: int = 2, strength: float = 0.35
                        ) -> PeriodicCoefficient:
    """Random certified-by-construction coefficient: 1 + small symmetric part.

    Symmetries are enforced by adding each drawn amplitude together with its
    conjugate and exchange partners; the total perturbation is scaled below
    `strength` so positivity certification always succeeds.
    """
    zero = (0,) * dimension
    modes = {(zero, zero): complex(1.0)}
    n_draws = int(rng.integers(1, 4))
    raw = {}
    for _ in range(n_draws):
        k = tuple(int(v) for v in rng.integers(-max_index, max_index + 1, dimension))
        l = tuple(int(v) for v in rng.integers(-max_index, max_index + 1, dimension))
        if k == zero and l == zero:
            continue
        amp = complex(rng.normal(), rng.normal())
        nk, nl = tuple(-v for v in k), tuple(-v for v in l)
        for key, val in (((k, l), amp), ((l, k), amp),
                         ((nk, nl), amp.conjugate()), ((nl, nk), amp.conjugate())):
            raw[key] = raw.get(key, 0.0) + val
    total = sum(abs(v) for v in raw.values())
    if total > 0:
        scale = strength / total
        for key, val in raw.items():
            modes[key] = modes.get(key, 0.0) + val * scale
    return PeriodicCoefficient(dimension, modes)


@pytest.fixture(scope="session")
def t0():
    return certify(constant_coefficient(1, 1.0))


@pytest.fixture(scope="session")
def t1():
    return certify(make_t1())


@pytest.fixture(scope="session")
def t2():
    return certify(make_t2())


@pytest.fixture
def params_half():
    return ModelParams(1, 0.5)


@pytest.fixture
def params_one():
    return ModelParams(1, 1.0)


@pytest.fixture
def params_three_halves():
    return ModelParams(1, 1.5)


@pytest.fixture
def threads_at_any_order(monkeypatch):
    """Let `parallel_map` start threads for matrices of any order, and on a
    1-CPU host too, so that a width-independence test on small fibers
    compares a threaded run."""
    import levyhom._util
    monkeypatch.setattr(levyhom._util, "PARALLEL_MIN_ORDER", 1)
    monkeypatch.setattr(levyhom._util, "available_cpus", lambda: 8)
