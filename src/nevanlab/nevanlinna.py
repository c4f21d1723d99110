"""Counting, proximity, and characteristic functionals on radial grids.

The integrated counting function is evaluated in closed form from the
divisor: N(r) = sum over |z_k| <= r of m_k (log r - log max(|z_k|, 1)).
Proximity m(r) is a composite-trapezoid average of log+|f| over N
equispaced points z_j = r w^j, w = exp(2 pi i/N), computed in the log
domain from the canonical form (num/den) exp(expo).  Since
p(z_j) = sum_k (c_k r^k) w^(jk), proximity builds one table
powers[j, k] = w^(jk), indexed exactly by (j k) mod N, once per call, and
Canonical.log_abs_on_circle evaluates every radius as one matrix product
against it.  num and den of degree d are scaled to r^d sum_k c_k r^(k-d)
w^(jk), so the sum runs on unit-modulus points and d log r is added back
in the log domain: neither r^d nor an exponential factor overflows.
Coefficients go in blocks of 16, joined by Horner in w^16, so the table
has at most 17 columns whatever the degree.  A radius where the circle
passes through a pole has the nearby samples moved half a step (the
dodge); such radii, and samples whose log|f| is NaN or +inf and are
retried half a step over, are evaluated by Canonical.log_abs (Horner) at
those explicit points.  Samples still singular after the retry raise
QuadratureError.  T = m + N by construction.  FunctionData holds the
inputs: the canonical form and the denominator roots at construction, the
divisors (which need the numerator roots) on first use.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .expressions import (
    Const,
    canonical_divisors,
    canonicalize,
    differentiate,
    div,
    evaluate_on_grid,
    print_expr,
)
from .polynomials import poly_roots

DEFAULT_SAMPLES = 4096
_MIN_SAMPLES = 64
_ANGLE_DODGE = 1e-8


class QuadratureError(RuntimeError):
    """Samples of log|f| on a circle stay singular after the half-step retry."""


def _require_radius(r):
    r = float(r)
    if not math.isfinite(r):
        raise ValueError(f"radius must be finite, got {r}")
    if r <= 1.0:
        raise ValueError("radii must be greater than 1 (counting is based at 1)")
    return r


def _require_samples(samples):
    if samples is None:
        return DEFAULT_SAMPLES
    if not isinstance(samples, int) or samples < _MIN_SAMPLES:
        raise ValueError(f"samples must be an integer >= {_MIN_SAMPLES}")
    if samples & (samples - 1):
        raise ValueError("samples must be a power of two")
    return samples


@dataclass(frozen=True)
class RadialGrid:
    """Strictly increasing geometric grid of radii, all above 1."""

    radii: tuple

    def __post_init__(self):
        radii = tuple(float(r) for r in self.radii)
        if not radii:
            raise ValueError("empty radial grid")
        if not all(map(math.isfinite, radii)):
            raise ValueError("grid radii must be finite")
        if radii[0] <= 1.0:
            raise ValueError("grid radii must exceed 1")
        for a, b in zip(radii, radii[1:]):
            if b <= a:
                raise ValueError("grid radii must be strictly increasing")
        if len(radii) > 2:
            q = radii[1] / radii[0]
            for a, b in zip(radii, radii[1:]):
                if abs(b / a - q) > 1e-9 * q:
                    raise ValueError("grid spacing must be geometric")
        object.__setattr__(self, "radii", radii)

    @classmethod
    def geometric(cls, rmin=2.0, rmax=128.0, count=64):
        if count < 2:
            raise ValueError("need at least two radii")
        ratio = (rmax / rmin) ** (1.0 / (count - 1))
        return cls(tuple(rmin * ratio ** k for k in range(count)))

    @property
    def ratio(self):
        if len(self.radii) < 2:
            return 1.0
        return self.radii[1] / self.radii[0]

    def __len__(self):
        return len(self.radii)

    def __iter__(self):
        return iter(self.radii)


def unintegrated_counting(divisor, t):
    """n(t): multiplicity mass of the divisor inside |z| <= t."""
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    if t < 0:
        raise ValueError("t must be nonnegative")
    return divisor.count_within(t)


def counting_N(divisor, r, truncated=False):
    """Integrated counting function of the divisor at radius r > 1."""
    r = _require_radius(r)
    d = divisor.truncated() if truncated else divisor
    acc = 0.0
    for z, m in d.entries:
        az = abs(z)
        if az <= r:
            acc += m * (math.log(r) - math.log(max(az, 1.0)))
    return acc


class FunctionData:
    """Nevanlinna data of one expression, each piece computed once.

    The canonical form and the denominator's root pairs are computed on
    construction; zeros and poles, which also need the numerator's roots,
    on first use, so proximity alone never root-finds the numerator.
    Each proximity call builds its power table once for all its radii.
    """

    def __init__(self, expr):
        self.expr = expr
        self.canonical = canonicalize(expr)
        if self.canonical.num.is_zero:
            raise ValueError("the zero function has no Nevanlinna data")
        den = self.canonical.den
        self._den_pairs = poly_roots(den) if den.degree > 0 else []

    @cached_property
    def _divisors(self):
        return canonical_divisors(self.canonical, self._den_pairs)

    @property
    def zeros(self):
        return self._divisors[0]

    @property
    def poles(self):
        return self._divisors[1]

    def proximity(self, radii, samples):
        """m(r) for each radius by trapezoid quadrature of log+|f|.

        One power table (Canonical.circle_powers) serves every radius
        through Canonical.log_abs_on_circle (see the module docstring).
        A radius where a pole is dodged, and samples retried half a step
        over, go through Canonical.log_abs at those explicit points.  Only
        a non-finite sum of log+|f| triggers the retry; if the sum is
        still not finite, QuadratureError is raised.
        """
        samples = _require_samples(samples)
        c = self.canonical
        out = []
        base = 2.0 * np.pi * np.arange(samples) / samples
        unit = np.exp(1j * base)
        powers = c.circle_powers(unit)
        half = np.pi / samples
        for r in radii:
            r = _require_radius(r)
            theta = base  # replaced, never written to, where a pole is dodged
            for rho, _ in self._den_pairs:
                if abs(abs(rho) - r) <= _ANGLE_DODGE * r:
                    ang = math.atan2(rho.imag, rho.real) % (2.0 * np.pi)
                    near = np.abs((theta - ang + np.pi) % (2.0 * np.pi) - np.pi) <= _ANGLE_DODGE
                    theta = np.where(near, theta + half, theta)
            if theta is base:
                vals = c.log_abs_on_circle(r, powers)
            else:
                vals = c.log_abs(r * np.exp(1j * theta))
            with np.errstate(over="ignore"):
                total = np.maximum(vals, 0.0, out=vals).sum()
                if not math.isfinite(total):  # NaN or +inf samples: retry them
                    bad = ~np.isfinite(vals)
                    vals[bad] = np.maximum(c.log_abs(r * np.exp(1j * (theta[bad] + half))), 0.0)
                    total = vals.sum()
            if not math.isfinite(total):
                raise QuadratureError(f"quadrature hit singular samples at r = {r}")
            out.append(float(total) / samples)
        return out

    def characteristic(self, radii, samples):
        ms = self.proximity(radii, samples)
        return [m + counting_N(self.poles, r) for m, r in zip(ms, radii)]


def proximity_m(f, r, samples=None):
    """Proximity function m(r, f), a circle average of log+|f|."""
    return FunctionData(f).proximity([r], samples)[0]


def characteristic_T(f, r, samples=None):
    """Nevanlinna characteristic T(r, f) = m(r, f) + N(r, poles of f)."""
    return FunctionData(f).characteristic([r], samples)[0]


def _sharp(w, dw):
    """|dw| / (1 + |w|^2), as |dw/w| / (|w| + 1/|w|) where |w| > 1.

    NaN wherever w, dw or the result is not finite.
    """
    a = np.abs(w)
    d = np.abs(dw)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = np.where(a <= 1.0, d / (1.0 + a * a), (d / a) / (a + 1.0 / a))
    ok = np.isfinite(w) & np.isfinite(dw) & np.isfinite(out)
    return np.where(ok, out, np.nan)


def spherical_derivative(f, z):
    """Spherical derivative |f'| / (1 + |f|^2) at a point or an ndarray of points.

    f is differentiated once per call and f, f' are evaluated over all the
    points with evaluate_on_grid; where |f| > 1 the equal form
    |f'/f| / (|f| + 1/|f|) is used, so |f|^2 never overflows.  Where f or f'
    is not finite (a pole, overflow or 0/0) the same formula is applied to
    1/f and (1/f)', which have the same spherical derivative, on those points
    only.  Array input gives an ndarray of the same shape with NaN at points
    that are still undefined; a scalar point gives a float and raises
    ValueError when it is undefined.
    """
    zs = np.asarray(z, dtype=complex)
    pts = np.atleast_1d(zs)
    out = _sharp(evaluate_on_grid(f, pts),
                 evaluate_on_grid(differentiate(f, 1), pts))
    bad = np.isnan(out)
    if bad.any():
        g = div(Const(1), f)
        out[bad] = _sharp(evaluate_on_grid(g, pts[bad]),
                          evaluate_on_grid(differentiate(g, 1), pts[bad]))
    if zs.ndim:
        return out
    if np.isnan(out[0]):
        raise ValueError(f"spherical derivative undefined at {complex(z)}")
    return float(out[0])


@dataclass(frozen=True)
class NevanlinnaReport:
    """Radial table of (r, m, N, Nbar, T) for one function."""

    function_text: str
    samples: int
    rows: tuple  # of (r, m, N, Nbar, T)

    @property
    def monotone_ok(self):
        """T should be nondecreasing in r up to 1e-6 slack."""
        ts = [row[4] for row in self.rows]
        return all(b >= a - 1e-6 for a, b in zip(ts, ts[1:]))

    def to_csv_text(self):
        lines = ["r,m,N,Nbar,T"]
        for r, m, n, nbar, t in self.rows:
            lines.append(f"{r!r},{m!r},{n!r},{nbar!r},{t!r}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self):
        return {
            "config": {
                "function": self.function_text,
                "samples": self.samples,
                "radii": [row[0] for row in self.rows],
            },
            "columns": ["r", "m", "N", "Nbar", "T"],
            "rows": [list(row) for row in self.rows],
            "monotone_ok": self.monotone_ok,
        }


def radial_report(f, grid=None, samples=None):
    """Tabulate m, N, Nbar, T for f over the radial grid."""
    grid = grid if grid is not None else RadialGrid.geometric()
    samples = _require_samples(samples)
    data = FunctionData(f)
    ms = data.proximity(grid.radii, samples)
    rows = []
    for r, m in zip(grid.radii, ms):
        n = counting_N(data.poles, r)
        nbar = counting_N(data.poles, r, truncated=True)
        rows.append((r, m, n, nbar, m + n))
    return NevanlinnaReport(print_expr(data.expr), samples, tuple(rows))
