"""Periodic jump-coefficient model and the scalar constants of the theory.

The coefficient mu(x, y) is a band-limited trigonometric polynomial on the
torus, stored as a finite map (k, l) -> mu_hat[k, l] of Fourier amplitudes.
Realness and the exchange symmetry mu(x, y) = mu(y, x) are checked exactly
on the map; positivity is certified on a sampling grid with a Lipschitz
margin, so every downstream constant (mu_minus, mu_plus, the gap floor d0,
the threshold radius delta0) is a certified bound rather than an assumption.
The paper's rate laws and the log-log slope checks against them live here.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import os
from dataclasses import dataclass, replace
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from typing import Mapping

import numpy as np

from .errors import (DegenerateFit, PositivityUncertified,
                     QuadratureNotConverged, SymmetryViolation)

Mode = tuple[tuple[int, ...], tuple[int, ...]]

# Grid sizes keep validation sub-second; the Lipschitz margin covers the rest.
DEFAULT_POSITIVITY_GRID = {1: 256, 2: 64, 3: 24}

# Galerkin truncation defaults per dimension.
DEFAULT_TRUNCATION = {1: 32, 2: 8, 3: 4}

# floats in one block of the positivity grid's product: 1 MB stays in cache
GRID_BLOCK_FLOATS = 2**17


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

    @functools.cached_property
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

    @functools.cached_property
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


def oracle_c0(params: ModelParams) -> float:
    """Quadrature cross-check of :func:`compute_c0`, avoiding Gamma identities.

    With z' = |z_1| u the defining integral of (1 - cos z_1) / |z|^(d+alpha)
    over R^d is the line integral of (1 - cos z) / |z|^(1+alpha) times the
    transverse factor :func:`_transverse_factor`.  That line integral is the
    unit coefficient's form element (0, 0) at xi = 1, so it is
    :func:`_form_line_integral` with k = l = m = n = 0.  Raises
    QuadratureNotConverged when QUADPACK flags an integral or its error
    estimate is refused.
    """
    return (_form_line_integral(params.alpha, 0, 0, 0, 0, 1.0)
            * _transverse_factor(params.dimension, params.alpha))


def _transverse_factor(d: int, alpha: float) -> float:
    """T_d = int_{R^(d-1)} (1 + |u|^2)^(-(d+alpha)/2) du
    = |S^(d-2)| int_0^(pi/2) sin^(d-2) p cos^alpha p dp (|u| = tan p;
    |S^0| = 2, |S^1| = 2 pi, and T_1 = 1), to the oracle tolerances."""
    if d == 1:
        return 1.0
    sphere = 2.0 if d == 2 else 2.0 * math.pi
    return sphere * _quad(lambda p: math.sin(p) ** (d - 2) * math.cos(p) ** alpha,
                          0.0, 0.5 * math.pi, tol=_oracle_tol(), label="transverse factor")


@functools.cache
def _quadpack_module():
    """scipy's compiled QUADPACK extension `_quadpack`, loaded from its file.

    Importing it through `scipy.integrate` would run that package's
    `__init__`, which loads scipy.special, scipy.optimize,
    scipy.sparse.linalg, numpy.testing and numpy.f2py as well.  Loaded by
    file location, the extension needs numpy alone; it is not registered
    in `sys.modules`.
    """
    scipy = importlib.util.find_spec("scipy")
    directory = os.path.join(scipy.submodule_search_locations[0], "integrate")
    spec = FileFinder(directory, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(
        "_quadpack")
    if spec is None:
        raise ImportError(f"no QUADPACK extension _quadpack in {directory}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _quadpack(f, lo: float, hi: float, *, points=None, weight=None, wvar=None,
              epsabs=1.49e-8, epsrel=1.49e-8, limit=50, limlst=50,
              maxp1=50) -> tuple[float, float, int]:
    """(value, error estimate, ier) of QUADPACK on f over [lo, hi].

    The argument handling of `scipy.integrate.quad`, with its defaults, for
    the three forms the package uses: QAGS on a finite interval, QAGP with
    break `points`, and QAWF with `weight` "cos" or "sin" times
    wvar from lo to infinity (QAWF takes no epsrel).
    """
    ext = _quadpack_module()
    if weight is not None:
        if hi != math.inf or points is not None:
            raise ValueError("QAWF integrates from lo to infinity, without break points")
        integr = {"cos": 1, "sin": 2}[weight]
        return ext._qawfe(f, lo, wvar, integr, (), 0, epsabs, limlst, limit, maxp1)
    if points is None:
        return ext._qagse(f, lo, hi, (), 0, epsabs, epsrel, limit)
    # duplicates would force evaluations at the break points
    inner = [p for p in sorted(set(map(float, points))) if lo < p < hi]
    return ext._qagpe(f, lo, hi, np.array([*inner, 0.0, 0.0]), (), 0,
                      epsabs, epsrel, limit)


# QUADPACK's conditions by ier; QAWF's 1, 4 and 7 concern its cycles
_QUADPACK_CONDITIONS = {
    1: "the subdivision limit (QAWF: the cycle limit) was reached",
    2: "roundoff error prevents the requested tolerance",
    3: "extremely bad integrand behaviour",
    4: "roundoff error in the extrapolation table",
    5: "the integral is probably divergent or slowly convergent",
    7: "abnormal termination",
}


def _quad(f, lo: float, hi: float, tol=None, label: str = "quadrature",
          **kwargs) -> float:
    """QUADPACK integral of f over [lo, hi], the package's one quadrature.

    `kwargs` go to :func:`_quadpack`.  With `tol = (epsabs, epsrel)`
    QUADPACK aims at that tolerance and an error estimate above
    epsabs + epsrel max(|value|, 1) is refused too.  Raises
    QuadratureNotConverged when QUADPACK flags the integral (ier != 0) or
    the estimate is refused, ValueError when QUADPACK rejects its input
    (ier = 6), as `scipy.integrate.quad` does; `label` names the integral
    in the message.
    """
    if tol is not None:
        kwargs.update(epsabs=tol[0], epsrel=tol[1])
    val, err, ier = _quadpack(f, lo, hi, **kwargs)
    where = f"{label} over [{lo}, {hi}]"
    if ier == 6:
        raise ValueError(f"{where}: QUADPACK rejected its input (ier = 6)")
    limit = math.inf if tol is None else tol[0] + tol[1] * max(abs(val), 1.0)
    if ier or err > limit:
        reason = (f"ier = {ier}, {_QUADPACK_CONDITIONS.get(ier, 'unknown condition')}"
                  if ier else f"error estimate {err:.3e} > {limit:.3e}")
        raise QuadratureNotConverged(f"{where}: {reason}")
    return val


def _tail_cos(omega: float, z_cut: float, alpha: float) -> float:
    """Two-sided tail integral of e^{i omega z} |z|^(-1-alpha) beyond z_cut.

    The odd (sine) part cancels over the symmetric tail; the zero-frequency
    case is an elementary power integral.  Raises QuadratureNotConverged when
    QUADPACK flags the Fourier integral.
    """
    if omega == 0.0:
        return 2.0 * z_cut ** (-alpha) / alpha
    return 2.0 * _quad(lambda z: z ** (-1.0 - alpha), z_cut, np.inf, weight="cos",
                       wvar=abs(omega), label=f"tail quadrature at frequency {omega}")


# The quadrature oracles integrate the core [-ORACLE_Z_CUTOFF, ORACLE_Z_CUTOFF]
# with QUADPACK at 1/16 of these tolerances and this subinterval limit; the
# tails are semi-analytic.
ORACLE_Z_CUTOFF = 40.0
ORACLE_REL_TOL = 1e-8
ORACLE_ABS_TOL = 1e-10
ORACLE_LIMIT = 400


def _oracle_tol() -> tuple[float, float]:
    """(epsabs, epsrel) of every oracle pass: 1/16 of the oracle tolerances."""
    return ORACLE_ABS_TOL / 16.0, ORACLE_REL_TOL / 16.0


def _form_line_integral(alpha: float, k: int, l: int, m: int, n: int,
                        xi: float) -> float:
    """Line integral of the form element (m, n) for the pair (k, l), d = 1.

    The real part of e^{2 pi i l z} (1 - e^{i a z}) (1 - e^{-i b z})
    / (2 |z|^(1 + alpha)), with a = 2 pi n + xi and b = 2 pi m + xi, in the
    half-angle form of 1 - e^{it} = -2i sin(t/2) e^{it/2}:

        2 sin(a z/2) sin(b z/2) cos((2 pi l + (a - b)/2) z) / |z|^(1 + alpha),

    which does not cancel as z -> 0.  The core [-Z, Z] is one QAGP pass
    with break point 0; where QUADPACK refuses it (in narrow windows of
    alpha above 1.865) a second pass, at the same tolerances and limit,
    also breaks at -1 and 1, so the |z|^(1 - alpha) cusp gets its own
    subintervals.  Beyond Z the integrand splits into four pure
    exponentials, whose tails are :func:`_tail_cos`.  Raises
    QuadratureNotConverged when QUADPACK flags a tail, or refuses both core
    passes (then with the first pass's message).
    """
    z_cut = ORACLE_Z_CUTOFF
    a_half = 0.5 * (2.0 * math.pi * n + xi)
    b_half = 0.5 * (2.0 * math.pi * m + xi)
    carrier = 2.0 * math.pi * l + a_half - b_half

    def integrand(z):
        return (2.0 * math.sin(a_half * z) * math.sin(b_half * z)
                * math.cos(carrier * z) / abs(z) ** (1.0 + alpha))

    def core(points):
        return _quad(integrand, -z_cut, z_cut, points=points, limit=ORACLE_LIMIT,
                     tol=_oracle_tol(), label=f"core quadrature for entry ({m},{n})")

    try:
        value = core([0.0])
    except QuadratureNotConverged as refused:
        try:
            value = core([-1.0, 0.0, 1.0])
        except (QuadratureNotConverged, ValueError):   # ValueError: limit too small
            raise refused

    freqs = (2.0 * math.pi * l, 2.0 * math.pi * (l + n) + xi,
             2.0 * math.pi * (l - m) - xi, -2.0 * math.pi * k)
    signs = (1.0, -1.0, -1.0, 1.0)
    tail = sum(s * _tail_cos(w, z_cut, alpha) for w, s in zip(freqs, signs))
    return value + 0.5 * tail


def _sym_pow(vecs: np.ndarray, xi: np.ndarray, alpha: float) -> np.ndarray:
    """|2 pi v + xi|^alpha for integer rows v, the package's one code path
    for it: shared by the fiber's four closed-form terms, so that algebraic
    cancellations (zero-mode column at xi = 0, constant coefficient
    off-diagonals) are exact in floats, and by every symbol they are
    measured against (v_alpha, the effective fiber, rho)."""
    y = 2.0 * np.pi * vecs.astype(float) + xi
    r = np.sqrt(np.einsum("ij,ij->i", y, y))
    return r ** alpha


def v_alpha(params: ModelParams, xi) -> float:
    """Symbol of the constant-coefficient operator: c0 |xi|^alpha."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    return params.c0 * float(_sym_pow(np.zeros((1, xi.size), dtype=int), xi,
                                      params.alpha)[0])


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
    return x ** p * (1.0 + np.abs(np.log(x))) ** q


# near these exponents the theory's constants blow up; slope verdicts widen
SINGULAR_ALPHA_BANDS = ((0.95, 1.05), (1.90, 2.00))


def slope_widening(alpha: float) -> float:
    """Extra slope tolerance near the singular exponents (0.05 or 0)."""
    for lo, hi in SINGULAR_ALPHA_BANDS:
        if lo < alpha < hi:
            return 0.05
    return 0.0


def loglog_slope(x, values) -> tuple[float, float]:
    """OLS slope and r^2 of log(values) against log(x); needs 8+ positive points."""
    x = np.asarray(x, dtype=float)
    val = np.asarray(values, dtype=float)
    pos = (val > 0.0) & (x > 0.0)
    if int(pos.sum()) < 8:
        raise DegenerateFit(f"need >= 8 positive points, got {int(pos.sum())}")
    y = np.log(val[pos])
    if float(np.max(y) - np.min(y)) == 0.0:
        raise DegenerateFit("all values equal; slope undefined")
    coef = np.polyfit(np.log(x[pos]), y, 1)
    fitted = np.polyval(coef, np.log(x[pos]))
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(coef[0]), r2


def slope_check(x, values, alpha: float, quantity: str,
                margin: float) -> tuple[float, float]:
    """Log-log slope of `values` against the rate of `quantity`, and its floor.

    The margin widens by `slope_widening(alpha)` near the singular exponents.
    A pure power x^p is fitted against x and must reach p less the margin
    and the quantity's extra; a log-corrected profile is fitted against the
    profile itself and must reach 1 less the margin.
    """
    margin = margin + slope_widening(alpha)
    p, q = rate_profile(alpha, quantity)
    if q:
        slope, _ = loglog_slope(rate_function(alpha, quantity, x), values)
        return slope, 1.0 - margin
    *_, extra = RATE_TABLE[quantity]
    slope, _ = loglog_slope(x, values)
    return slope, p - (margin + extra)


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
    """Min/max of mu on the (x, y) product grid via separable phase matrices.

    Needs the exchange symmetry mu(x, y) = mu(y, x), which `certify` checks
    exactly first.  So the k's and the l's are one index set, and each row
    chunk evaluates only the columns from its first row on.
    """
    d = coeff.dimension
    ks = sorted({k for (k, _) in coeff.modes})
    kidx = {k: i for i, k in enumerate(ks)}
    amp = np.zeros((len(ks), len(ks)), dtype=complex)
    for (k, l), a in coeff.modes.items():
        amp[kidx[k], kidx[l]] = a

    axis = np.arange(grid) / grid
    pts = np.stack(np.meshgrid(*([axis] * d), indexing="ij"), axis=-1).reshape(-1, d)
    ek = np.exp(2j * np.pi * (pts @ np.asarray(ks, dtype=float).T))

    # mu is real: Re(ek @ right) = [ek.re, -ek.im] @ [right.re; right.im],
    # one real GEMM
    right = amp @ ek.T  # (K, npts)
    right = np.concatenate([right.real, right.imag])
    ek = np.concatenate([ek.real, -ek.imag], axis=1)
    lo, hi = np.inf, -np.inf
    # rows of a GRID_BLOCK_FLOATS block, and no fewer than `right` has: each
    # chunk reads its columns of `right` once, and that read should not cost
    # more than writing the block
    chunk = min(len(ek), max(len(right), GRID_BLOCK_FLOATS // len(ek)))
    # one block for every chunk: freed blocks of shrinking size stay on the heap
    buf = np.empty((chunk, len(ek)))
    for start in range(0, len(ek), chunk):
        vals = np.matmul(ek[start : start + chunk], right[:, start:],
                         out=buf[: len(ek) - start, start:])
        lo = min(lo, float(vals.min()))
        hi = max(hi, float(vals.max()))
    return lo, hi


def certify(
    coeff: PeriodicCoefficient, grid_points_per_dim: int | None = None
) -> PeriodicCoefficient:
    """Check symmetries exactly; return a copy carrying certified mu_minus / mu_plus.

    The grid min/max are widened by L * h * sqrt(2d) / 2, where L is the
    gradient bound sum(2 pi (|k|_1 + |l|_1) |mu_hat|) and h the grid spacing,
    so the bounds hold everywhere, not just on grid points.
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
    if mu_minus <= 0.0:
        raise PositivityUncertified(
            f"certified lower bound {mu_minus:.6g} is not positive "
            f"(grid min {lo:.6g}, Lipschitz margin {margin:.3g})"
        )
    return replace(coeff, mu_minus=mu_minus, mu_plus=hi + margin)


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
    """All scalar constants of a certified coefficient.

    Threshold radius delta0 = pi (mu-/(3 mu+))^(1/alpha), gap floor
    d0 = mu- c0 pi^alpha.  ValueError if `coeff` is not certified.
    """
    if not coeff.certified:
        raise ValueError("coefficient must be certified before computing delta0/d0")
    if coeff.mu_minus <= 0.0:
        raise PositivityUncertified("certified mu_minus must be positive")
    delta0 = math.pi * (coeff.mu_minus / (3.0 * coeff.mu_plus)) ** (1.0 / params.alpha)
    d0 = coeff.mu_minus * params.c0 * math.pi ** params.alpha
    return TheoryConstants(
        c0=params.c0,
        mu_eff=effective_mu(coeff),
        mu_minus=coeff.mu_minus,
        mu_plus=coeff.mu_plus,
        d0=d0,
        delta0=delta0,
    )
