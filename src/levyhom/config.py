"""Study configuration: a single self-describing JSON file.

The config round-trips losslessly through serialization; its canonical JSON
digest is stamped into every CSV artifact so outputs are traceable to the
exact inputs that produced them.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, field, fields, replace

# CPython's own SHA-256, so the digest does not map OpenSSL's libcrypto
try:
    from _sha2 import sha256 as _sha256      # Python >= 3.12
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256

import numpy as np

from .coefficient import (DEFAULT_POSITIVITY_GRID, DEFAULT_TRUNCATION,
                          PeriodicCoefficient, check_positivity_grid,
                          coefficient_from_records)


def _is_int(value) -> bool:
    """An integer that is not a bool: json reads `true` as one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A finite real number that is not a bool."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def _object(value, keys, name: str) -> dict:
    """`value` if it is a JSON object with no key outside `keys`; else ValueError."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object")
    unknown = set(value) - set(keys)
    if unknown:
        raise ValueError(f"unknown {name} fields: {sorted(unknown)}")
    return value


def _record(rec: dict, dimension: int) -> dict:
    """Canonical copy of a coefficient record; ValueError unless it is valid."""
    _object(rec, ("k", "l", "re", "im"), "coefficient record")
    k, l, re, im = rec.get("k"), rec.get("l"), rec.get("re", 0.0), rec.get("im", 0.0)
    for name, index in (("k", k), ("l", l)):
        if not (isinstance(index, list) and len(index) == dimension
                and all(map(_is_int, index))):
            raise ValueError(f"coefficient {name} must be a list of {dimension} "
                             f"integers, got {index!r}")
    for name, value in (("re", re), ("im", im)):
        if not _is_real(value):
            raise ValueError(f"coefficient {name} must be a finite number, "
                             f"got {value!r}")
    return {"k": k, "l": l, "re": float(re), "im": float(im)}


@dataclass(frozen=True)
class XiGridSpec:
    """Quasimomentum grid: a uniform cell lattice plus log-spaced radii."""

    points_per_dim: int = 16
    radial_min_exp: float = -4.0
    radial_max_exp: float = -0.5
    radial_per_decade: int = 4
    directions: str = "axes+diagonals"

    def validate(self):
        for name in ("points_per_dim", "radial_per_decade"):
            value = getattr(self, name)
            if not _is_int(value) or value < 1:
                raise ValueError(f"xi_grid.{name} must be an integer >= 1")
        if not (_is_real(self.radial_min_exp) and _is_real(self.radial_max_exp)):
            raise ValueError("xi_grid radial exponents must be finite numbers")
        if self.radial_min_exp >= self.radial_max_exp:
            raise ValueError("xi_grid radial exponents must be increasing")
        if self.directions not in ("axes", "axes+diagonals"):
            raise ValueError("xi_grid.directions must be 'axes' or 'axes+diagonals'")

    def radii(self) -> np.ndarray:
        """Ascending radial ladder 10^radial_min_exp .. 10^radial_max_exp."""
        n_rad = max(2, int(round((self.radial_max_exp - self.radial_min_exp)
                                 * self.radial_per_decade)) + 1)
        return np.logspace(self.radial_min_exp, self.radial_max_exp, n_rad)

    def points(self, dimension: int) -> tuple:
        """The grid's points in [-pi, pi)^dimension, each once.

        Order: the origin; the uniform lattice in lexicographic order; the
        radial points by (radius, direction), directions e1, -e1, ..., then
        the diagonal pair.  The set is mirror-closed: with every point whose
        coordinates all lie in (-pi, pi), -xi is a point too, bit for bit,
        because the lattice nodes 2 pi (k - n/2) / n negate exactly.
        ValueError if the spec is invalid.
        """
        self.validate()
        n = self.points_per_dim
        axis = 2.0 * math.pi * (np.arange(n) - n / 2) / n
        lattice = np.stack(np.meshgrid(*([axis] * dimension), indexing="ij"), axis=-1)
        units = list(np.eye(dimension))
        if self.directions == "axes+diagonals" and dimension > 1:
            units.append(np.ones(dimension) / math.sqrt(dimension))
        radial = (r * w for r in self.radii() for v in units for w in (v, -v))
        pts, seen = [], set()
        for xi in (np.zeros(dimension), *lattice.reshape(-1, dimension),
                   *(x for x in radial if np.max(np.abs(x)) < math.pi)):
            key = tuple(float(v) for v in xi)
            if key not in seen:
                seen.add(key)
                pts.append(xi)
        return tuple(pts)


def _validate_epsilons(epsilons) -> np.ndarray:
    """Descending copy of `epsilons`; ValueError unless the set is a valid study.

    A valid set has at least 8 positive, log-spaced points spanning at least
    1.5 decades.
    """
    eps = np.sort(np.asarray(epsilons, dtype=float))[::-1]
    if eps.size < 8:
        raise ValueError("need at least 8 epsilon points")
    if np.any(eps <= 0.0):
        raise ValueError("epsilons must be positive")
    if math.log10(eps[0] / eps[-1]) < 1.5 - 1e-9:
        raise ValueError("epsilons must span at least 1.5 decades")
    ratios = eps[:-1] / eps[1:]
    if np.max(np.abs(ratios / ratios[0] - 1.0)) > 1e-6:
        raise ValueError("epsilons must be log-spaced")
    return eps


@dataclass(frozen=True)
class EpsilonSpec:
    """Log-spaced scale parameters for rate studies."""

    min: float = 1e-3
    max: float = 1e-1
    count: int = 12

    def validate(self):
        if not (_is_real(self.min) and _is_real(self.max)
                and 0.0 < self.min < self.max):
            raise ValueError("epsilons must be finite numbers with 0 < min < max")
        if not _is_int(self.count):
            raise ValueError("epsilons.count must be an integer")
        _validate_epsilons(self.values())

    def values(self):
        return np.geomspace(self.max, self.min, self.count)


@dataclass(frozen=True)
class Tolerances:
    oracle_rel: float = 1e-3
    projector_abs: float = 1e-8
    slope_margin: float = 0.1

    def validate(self):
        for name in ("oracle_rel", "projector_abs", "slope_margin"):
            value = getattr(self, name)
            if not (_is_real(value) and value > 0.0):
                raise ValueError(f"tolerances.{name} must be a finite positive number")


@dataclass(frozen=True)
class StudyConfig:
    dimension: int = 1
    alpha: float = 0.5
    coefficient: tuple = ()
    truncation: int | None = None
    xi_grid: XiGridSpec = field(default_factory=XiGridSpec)
    epsilons: EpsilonSpec = field(default_factory=EpsilonSpec)
    tolerances: Tolerances = field(default_factory=Tolerances)
    positivity_grid: int | None = None
    seed: int = 0
    output: str = "out"

    def validate(self):
        if not _is_int(self.dimension) or self.dimension not in (1, 2, 3):
            raise ValueError("dimension must be 1, 2 or 3")
        if not (_is_real(self.alpha) and 0.0 < self.alpha < 2.0):
            raise ValueError("alpha must be a number in (0, 2)")
        if not self.coefficient:
            raise ValueError("coefficient mode list must not be empty")
        for name, value, least in (("truncation", self.resolved_truncation, 1),
                                   ("seed", self.seed, 0)):
            if not _is_int(value) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}")
        check_positivity_grid(self.resolved_positivity_grid, self.dimension)
        if not (isinstance(self.output, str) and self.output):
            raise ValueError("output must be a non-empty string")
        self.xi_grid.validate()
        self.epsilons.validate()
        self.tolerances.validate()

    @property
    def resolved_truncation(self) -> int:
        return self.truncation if self.truncation is not None else \
            DEFAULT_TRUNCATION[self.dimension]

    @property
    def resolved_positivity_grid(self) -> int:
        return self.positivity_grid if self.positivity_grid is not None else \
            DEFAULT_POSITIVITY_GRID[self.dimension]

    def build_coefficient(self) -> PeriodicCoefficient:
        return coefficient_from_records(self.dimension, self.coefficient)

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        data = asdict(self)
        data["coefficient"] = [dict(rec) for rec in self.coefficient]
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: dict) -> "StudyConfig":
        _object(data, [f.name for f in fields(cls)], "config")
        records = data.get("coefficient", [])
        if not isinstance(records, list):
            raise ValueError("coefficient must be a list of record objects")
        kwargs = dict(data, coefficient=tuple(records))
        for name, spec in (("xi_grid", XiGridSpec), ("epsilons", EpsilonSpec),
                           ("tolerances", Tolerances)):
            section = _object(data.get(name, {}), [f.name for f in fields(spec)], name)
            kwargs[name] = spec(**section)
        cfg = cls(**kwargs)
        cfg.validate()   # dimension first: the records are read against it
        return replace(cfg, coefficient=tuple(_record(rec, cfg.dimension)
                                              for rec in records))

    @classmethod
    def from_json(cls, text: str) -> "StudyConfig":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path) -> "StudyConfig":
        with open(path) as fh:
            return cls.from_json(fh.read())

    def digest(self) -> str:
        return _sha256(self.to_json().encode()).hexdigest()[:12]
