"""Periodic jump-coefficient model and the scalar constants of the theory.

The coefficient mu(x, y) is a band-limited trigonometric polynomial on the
torus, stored as a finite map (k, l) -> mu_hat[k, l] of Fourier amplitudes.
Realness and the exchange symmetry mu(x, y) = mu(y, x) are checked exactly
on the map; positivity is certified on a sampling grid with a Lipschitz
margin, so every downstream constant (mu_minus, mu_plus, the gap floor d0,
the threshold radius delta0) is a certified bound rather than an assumption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .errors import PositivityUncertified, SymmetryViolation

Mode = tuple[tuple[int, ...], tuple[int, ...]]

# Grid sizes keep validation sub-second; the Lipschitz margin covers the rest.
DEFAULT_POSITIVITY_GRID = {1: 256, 2: 64, 3: 24}

# Galerkin truncation defaults per dimension.
DEFAULT_TRUNCATION = {1: 32, 2: 8, 3: 4}


@dataclass(frozen=True)
class ModelParams:
    """Dimension and jump exponent of the operator family."""

    dimension: int
    alpha: float

    def __post_init__(self):
        if self.dimension not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.dimension}")
        if not 0.0 < self.alpha < 2.0:
            raise ValueError(f"alpha must lie in (0, 2), got {self.alpha}")

    @property
    def c0(self) -> float:
        """Normalization constant of (-Delta)^(alpha/2); see :func:`compute_c0`."""
        return compute_c0(self)


@dataclass(frozen=True)
class PeriodicCoefficient:
    """Band-limited coefficient with optional certified bounds.

    `modes` maps (k, l) index pairs to complex amplitudes.  `mu_minus` and
    `mu_plus` are populated by :func:`certify`; they are None until then.
    """

    dimension: int
    modes: Mapping[Mode, complex]
    mu_minus: float | None = None
    mu_plus: float | None = None

    def __post_init__(self):
        clean = {}
        for (k, l), amp in self.modes.items():
            kk = tuple(int(v) for v in k)
            ll = tuple(int(v) for v in l)
            if len(kk) != self.dimension or len(ll) != self.dimension:
                raise ValueError(f"mode ({k}, {l}) has wrong dimension")
            clean[(kk, ll)] = complex(amp)
        object.__setattr__(self, "modes", clean)

    @property
    def certified(self) -> bool:
        return self.mu_minus is not None and self.mu_plus is not None

    @property
    def coupling_span(self) -> int:
        """Largest sup-norm of k+l over the support (band width of couplings)."""
        span = 0
        for (k, l) in self.modes:
            span = max(span, max((abs(a + b) for a, b in zip(k, l)), default=0))
        return span


def constant_coefficient(dimension: int, value: float = 1.0) -> PeriodicCoefficient:
    zero = (0,) * dimension
    return PeriodicCoefficient(dimension, {(zero, zero): complex(value)})


def coefficient_from_records(dimension: int, records) -> PeriodicCoefficient:
    """Build a coefficient from CLI-schema records {k, l, re, im}."""
    modes: dict[Mode, complex] = {}
    for rec in records:
        key = (tuple(int(v) for v in rec["k"]), tuple(int(v) for v in rec["l"]))
        amp = complex(float(rec.get("re", 0.0)), float(rec.get("im", 0.0)))
        modes[key] = modes.get(key, 0.0) + amp
    return PeriodicCoefficient(dimension, modes)


# ----------------------------------------------------------------------
# Scalar constants
# ----------------------------------------------------------------------

# cephes' Gamma rational approximation on [2, 3], highest power first
_GAMMA_P = (1.60119522476751861407e-4, 1.19135147006586384913e-3,
            1.04213797561761569935e-2, 4.76367800457137231464e-2,
            2.07448227648435975150e-1, 4.94214826801497100753e-1,
            9.99999999999999996796e-1)
_GAMMA_Q = (-2.31581873324120129819e-5, 5.39605580493303397842e-4,
            -4.45641913851797240494e-3, 1.18139785222060435552e-2,
            3.58236398605498653373e-2, -2.34591795718243348568e-1,
            7.14304917030273074085e-2, 1.00000000000000000320e0)


def _polevl(x: float, coef: tuple) -> float:
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _gamma(x: float) -> float:
    """Gamma on (-1, 3), operation for operation as cephes' `Gamma`.

    `math.gamma` differs from it in the last bit at some arguments (0.75 is
    one), and c0 enters every stored output, so the port keeps the bits
    `scipy.special.gamma` gives.  ValueError outside the domain and at 0.
    """
    if not -1.0 < x < 3.0 or x == 0.0:
        raise ValueError(f"_gamma is defined on (-1, 3) without 0, got {x!r}")
    z = 1.0
    while x < 0.0:
        if x > -1e-9:
            return z / ((1.0 + 0.5772156649015329 * x) * x)
        z /= x
        x += 1.0
    while x < 2.0:
        if x < 1e-9:
            return z / ((1.0 + 0.5772156649015329 * x) * x)
        z /= x
        x += 1.0
    if x == 2.0:
        return z
    x -= 2.0
    return z * _polevl(x, _GAMMA_P) / _polevl(x, _GAMMA_Q)


def compute_c0(params: ModelParams) -> float:
    """Normalization constant of the fractional kernel, Gamma closed form."""
    d, a = params.dimension, params.alpha
    return math.pi ** (d / 2.0) * abs(_gamma(-a / 2.0)) / (2.0 ** a * _gamma((d + a) / 2.0))


def oracle_c0(params: ModelParams) -> tuple[float, float]:
    """Quadrature cross-check of :func:`compute_c0`, avoiding Gamma identities.

    Reduces the defining d-dimensional integral of (1 - cos z_1)/|z|^(d+alpha)
    to a radial one (angular averages: cos / J0 / sinc for d = 1, 2, 3) and
    integrates it numerically, with the far tail of the non-oscillatory part
    done in closed elementary form.  Returns (value, error_estimate).
    """
    from scipy.integrate import quad
    from scipy.special import j0 as _bessel_j0
    d, a = params.dimension, params.alpha
    err = 0.0

    if d == 1:
        cut = 50.0
        core, e1 = quad(lambda z: (1.0 - math.cos(z)) / z ** (1 + a), 0.0, 1.0, limit=200)
        mid, e2 = quad(lambda z: (1.0 - math.cos(z)) / z ** (1 + a), 1.0, cut, limit=400)
        osc, e3 = quad(lambda z: z ** (-1 - a), cut, np.inf, weight="cos", wvar=1.0)
        val = 2.0 * (core + mid + cut ** (-a) / a - osc)
        err = 2.0 * (e1 + e2 + e3)
        return val, err

    if d == 2:
        # angular average of cos(r cos t) over the circle is J0(r)
        cut = 200.0
        f = lambda r: (1.0 - _bessel_j0(r)) / r ** (1 + a)
        core, e1 = quad(f, 0.0, 1.0, limit=200)
        err += e1
        mid = 0.0
        lo = 1.0
        while lo < cut:
            hi = min(lo + 25.0, cut)
            v, e = quad(f, lo, hi, limit=200)
            mid += v
            err += e
            lo = hi
        # oscillatory remainder of J0 in short blocks, then the envelope
        # bound sqrt(2/pi) B^(-1/2-a) / (1/2+a) for what is left
        tail_j = 0.0
        lo = cut
        for _ in range(20):
            v, e = quad(lambda r: _bessel_j0(r) / r ** (1 + a), lo, lo + 25.0,
                        limit=200)
            tail_j += v
            err += e
            lo += 25.0
        err += math.sqrt(2.0 / math.pi) * lo ** (-0.5 - a) / (0.5 + a)
        val = 2.0 * math.pi * (core + mid + cut ** (-a) / a - tail_j)
        return val, 2.0 * math.pi * err

    # d == 3: angular average of cos(r cos t) over the sphere is sin(r)/r
    cut = 50.0
    f = lambda r: (1.0 - math.sin(r) / r) / r ** (1 + a)
    core, e1 = quad(f, 0.0, 1.0, limit=200)
    mid, e2 = quad(f, 1.0, cut, limit=800)
    osc, e3 = quad(lambda r: r ** (-2 - a), cut, np.inf, weight="sin", wvar=1.0)
    val = 4.0 * math.pi * (core + mid + cut ** (-a) / a - osc)
    return val, 4.0 * math.pi * (e1 + e2 + e3)


def v_alpha(params: ModelParams, xi) -> float:
    """Symbol of the constant-coefficient operator: c0 |xi|^alpha."""
    r = float(np.linalg.norm(np.atleast_1d(np.asarray(xi, dtype=float))))
    return params.c0 * r ** params.alpha


# The paper's three alpha regimes in one place.  Each quantity decays like the
# profile x^p (1 + |ln x|)^q; a row gives (p, q) below alpha = 1 (as a function
# of alpha), at alpha = 1 and above it, then the extra slope margin of its
# pure-power fits.
RATE_TABLE = {
    #               alpha < 1              alpha = 1  alpha > 1              extra
    "theta":       (lambda a: (a, 0),      (1, 1),    lambda a: (1, 0),      0.0),
    "phi":         (lambda a: (2 * a, 0),  (2, 2),    lambda a: (2, 0),      0.05),
    "rho_star":    (lambda a: (1 + a, 0),  (2, 1),    lambda a: (2, 0),      0.0),
    "discrepancy": (lambda a: (a, 0),      (1, 2),    lambda a: (2 - a, 0),  0.0),
}


def rate_profile(alpha: float, quantity: str) -> tuple:
    """(p, q) of the rate x^p (1 + |ln x|)^q of `quantity` at exponent alpha."""
    below, at_one, above, _ = RATE_TABLE[quantity]
    if alpha == 1.0:
        return at_one
    return below(alpha) if alpha < 1.0 else above(alpha)


def rate_function(alpha: float, quantity: str, x) -> np.ndarray:
    """The rate profile of `quantity` evaluated elementwise on positive `x`."""
    p, q = rate_profile(alpha, quantity)
    x = np.asarray(x, dtype=float)
    power = x if p == 1 else x ** p
    return power * (1.0 + np.abs(np.log(x))) ** q if q else power


def effective_mu(coeff: PeriodicCoefficient) -> float:
    """Mean value of the coefficient: the (0, 0) Fourier amplitude."""
    zero = (0,) * coeff.dimension
    amp = coeff.modes.get((zero, zero), 0.0 + 0.0j)
    if abs(amp.imag) > 1e-12:
        raise SymmetryViolation(
            f"mean amplitude has imaginary part {amp.imag:.3e}; realness is broken"
        )
    return float(amp.real)


# ----------------------------------------------------------------------
# Certification
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CoefficientCertificate:
    """Outcome of symmetry and positivity validation."""

    grid_points_per_dim: int
    grid_min: float
    grid_max: float
    lipschitz: float
    margin: float
    mu_minus: float
    mu_plus: float


def _check_map_symmetries(coeff: PeriodicCoefficient) -> None:
    modes = coeff.modes
    for (k, l), amp in modes.items():
        neg = (tuple(-v for v in k), tuple(-v for v in l))
        if neg not in modes or modes[neg] != amp.conjugate():
            raise SymmetryViolation(
                f"realness broken: mu_hat[{neg}] != conj(mu_hat[{(k, l)}])"
            )
        swp = (l, k)
        if swp not in modes or modes[swp] != amp:
            raise SymmetryViolation(
                f"exchange symmetry broken: mu_hat[{swp}] != mu_hat[{(k, l)}]"
            )


def _grid_min_max(coeff: PeriodicCoefficient, grid: int) -> tuple[float, float]:
    """Min/max of mu on the (x, y) product grid via separable phase matrices."""
    d = coeff.dimension
    ks = sorted({k for (k, _) in coeff.modes})
    ls = sorted({l for (_, l) in coeff.modes})
    kidx = {k: i for i, k in enumerate(ks)}
    lidx = {l: i for i, l in enumerate(ls)}
    amp = np.zeros((len(ks), len(ls)), dtype=complex)
    for (k, l), a in coeff.modes.items():
        amp[kidx[k], lidx[l]] = a

    axis = np.arange(grid) / grid
    pts = np.stack(np.meshgrid(*([axis] * d), indexing="ij"), axis=-1).reshape(-1, d)
    ek = np.exp(2j * np.pi * (pts @ np.asarray(ks, dtype=float).T))
    el = np.exp(2j * np.pi * (pts @ np.asarray(ls, dtype=float).T))

    # mu is real: Re(ek @ right) = [ek.re, -ek.im] @ [right.re; right.im],
    # one real GEMM
    right = amp @ el.T  # (K, npts)
    right = np.concatenate([right.real, right.imag])
    ek = np.concatenate([ek.real, -ek.imag], axis=1)
    lo, hi = np.inf, -np.inf
    chunk = max(1, int(2**19 // max(right.shape[1], 1)))  # 4 MB float blocks
    for start in range(0, ek.shape[0], chunk):
        vals = ek[start : start + chunk] @ right
        lo = min(lo, float(vals.min()))
        hi = max(hi, float(vals.max()))
    return lo, hi


def validate_coefficient(
    coeff: PeriodicCoefficient, grid_points_per_dim: int | None = None
) -> CoefficientCertificate:
    """Check symmetries exactly and certify global bounds for mu.

    The grid min/max are widened by L * h * sqrt(2d) / 2, where L is the
    gradient bound sum(2 pi (|k|_1 + |l|_1) |mu_hat|) and h the grid spacing,
    so the returned bounds hold everywhere, not just on grid points.
    """
    if grid_points_per_dim is None:
        grid_points_per_dim = DEFAULT_POSITIVITY_GRID[coeff.dimension]
    if grid_points_per_dim < 16:
        raise ValueError("positivity grid needs at least 16 points per coordinate")

    _check_map_symmetries(coeff)

    lip = 0.0
    for (k, l), amp in coeff.modes.items():
        lip += 2.0 * math.pi * (sum(map(abs, k)) + sum(map(abs, l))) * abs(amp)

    lo, hi = _grid_min_max(coeff, grid_points_per_dim)
    h = 1.0 / grid_points_per_dim
    margin = lip * h * math.sqrt(2 * coeff.dimension) / 2.0
    mu_minus = lo - margin
    mu_plus = hi + margin
    if mu_minus <= 0.0:
        raise PositivityUncertified(
            f"certified lower bound {mu_minus:.6g} is not positive "
            f"(grid min {lo:.6g}, Lipschitz margin {margin:.3g})"
        )
    return CoefficientCertificate(
        grid_points_per_dim=grid_points_per_dim,
        grid_min=lo,
        grid_max=hi,
        lipschitz=lip,
        margin=margin,
        mu_minus=mu_minus,
        mu_plus=mu_plus,
    )


def certify(
    coeff: PeriodicCoefficient, grid_points_per_dim: int | None = None
) -> PeriodicCoefficient:
    """Return a copy of `coeff` carrying certified mu_minus / mu_plus."""
    cert = validate_coefficient(coeff, grid_points_per_dim)
    return replace(coeff, mu_minus=cert.mu_minus, mu_plus=cert.mu_plus)


def delta0_and_d0(
    params: ModelParams, coeff: PeriodicCoefficient
) -> tuple[float, float]:
    """Threshold radius delta0 = pi (mu-/(3 mu+))^(1/alpha) and gap floor d0."""
    if not coeff.certified:
        raise ValueError("coefficient must be certified before computing delta0/d0")
    if coeff.mu_minus <= 0.0:
        raise PositivityUncertified("certified mu_minus must be positive")
    delta0 = math.pi * (coeff.mu_minus / (3.0 * coeff.mu_plus)) ** (1.0 / params.alpha)
    d0 = coeff.mu_minus * params.c0 * math.pi ** params.alpha
    assert delta0 < math.pi
    return delta0, d0


@dataclass(frozen=True)
class TheoryConstants:
    """Certified scalar constants used across the verification runs."""

    c0: float
    mu_eff: float
    mu_minus: float
    mu_plus: float
    d0: float
    delta0: float


def theory_constants(params: ModelParams, coeff: PeriodicCoefficient) -> TheoryConstants:
    """Compute all scalar constants for a certified coefficient."""
    delta0, d0 = delta0_and_d0(params, coeff)
    return TheoryConstants(
        c0=params.c0,
        mu_eff=effective_mu(coeff),
        mu_minus=coeff.mu_minus,
        mu_plus=coeff.mu_plus,
        d0=d0,
        delta0=delta0,
    )
