"""Normal-family hypothesis checkers and rescaling probes.

Criterion arithmetic runs in exact rational arithmetic (1/infinity = 0), so
verdicts are deterministic.  The numeric probes are evidence generators, not
proofs: the Marty probe reports spherical-derivative growth over a family,
and the rescaling helpers demonstrate convergence of zoomed-in functions
g_v(xi) = f_v(z_v + rho_v xi) / rho_v^alpha on explicit parameter sequences.
Each probe evaluates whole grids in numpy, once per family member: one
symbolic derivative and one grid evaluation, not one per point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .diffpoly import (
    MonomialSpec,
    alpha_index,
    compose_monomial,
    generalized_polynomial,
)
from .expressions import (
    _csv_text,
    Const,
    Expr,
    add,
    differentiate,
    divisors,
    evaluate,
    mul,
    parse,
    parse_complex,
    pow_int,
    print_expr,
    spherical_derivative,
    substitute_affine,
)

INFINITE_MULTIPLICITY = math.inf
_DIVERGENCE_FACTOR = 100.0
_DIVERGENCE_TAIL = 5
_CONVERGENCE_TOL = 1e-3


def chordal_distance(a, b):
    """Distance on the Riemann sphere (diameter normalized to 1).

    a and b are points or ndarrays of points, broadcast against each other;
    a value with any non-finite component is the point at infinity.  Scalar
    input gives a float, array input an ndarray.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    a_inf = ~np.isfinite(a)
    b_inf = ~np.isfinite(b)
    with np.errstate(invalid="ignore", over="ignore"):
        ha = np.hypot(1.0, np.abs(a))
        hb = np.hypot(1.0, np.abs(b))
        d = np.abs(a - b) / ha / hb
    d = np.where(a_inf, 1.0 / hb, d)
    d = np.where(b_inf, 1.0 / ha, d)
    d = np.where(a_inf & b_inf, 0.0, d)
    return float(d) if d.ndim == 0 else d


def _sup_chordal(a, b):
    return float(np.max(chordal_distance(a, b)))


# ---------------------------------------------------------------------------
# criterion arithmetic


def _check_multiplicity_value(m):
    if m == INFINITE_MULTIPLICITY:
        return INFINITE_MULTIPLICITY
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise ValueError("multiplicities must be integers >= 1 or infinity")
    return m


@dataclass(frozen=True)
class CriterionParams:
    """Tuple (n, pairs, values a_m, multiplicity floors ell_m)."""

    n: int
    pairs: tuple
    values: tuple
    multiplicities: tuple

    def __post_init__(self):
        spec = MonomialSpec(self.n, self.pairs)  # reuse its validation
        object.__setattr__(self, "pairs", spec.pairs)
        values = tuple(complex(v) for v in self.values)
        if not values:
            raise ValueError("need at least one target value")
        for i, v in enumerate(values):
            if v == 0:
                raise ValueError("target values must be nonzero")
            if v in values[:i]:
                raise ValueError(f"target values must be distinct; {v} repeats")
        mult = tuple(_check_multiplicity_value(m) for m in self.multiplicities)
        if len(mult) != len(values):
            raise ValueError("need one multiplicity floor per value")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "multiplicities", mult)

    @property
    def q(self):
        return len(self.values)

    def spec(self):
        return MonomialSpec(self.n, self.pairs)


def _reciprocal_sum(multiplicities):
    total = Fraction(0)
    for m in multiplicities:
        if m != INFINITE_MULTIPLICITY:
            total += Fraction(1, m)
    return total


@dataclass(frozen=True)
class CriterionReport:
    """Outcome of one hypothesis check: booleans plus both sides of b)."""

    kind: str
    condition_a: bool
    condition_b: bool
    lhs: Fraction
    rhs: Fraction

    @property
    def applicable(self):
        return self.condition_a and self.condition_b

    def to_json_dict(self):
        return {
            "kind": self.kind,
            "condition_a": self.condition_a,
            "condition_b": self.condition_b,
            "applicable": self.applicable,
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
        }


def _condition_a(params):
    pairs_ok = all(nj >= tj for nj, tj in params.pairs)
    mult_ok = all(m == INFINITE_MULTIPLICITY or m >= 2
                  for m in params.multiplicities)
    return pairs_ok and mult_ok


def _criterion(params, kind, drop, t_weight):
    """Condition b) of the criterion of this kind: sum(1/ell_i) against
    (q n - drop + q sum(n_j - t_j)) / (n + sum(n_j + t_weight t_j)) exactly."""
    q = params.q
    n = params.n
    num = q * n - drop + q * sum(nj - tj for nj, tj in params.pairs)
    den = n + sum(nj + t_weight * tj for nj, tj in params.pairs)
    rhs = Fraction(num, den)
    lhs = _reciprocal_sum(params.multiplicities)
    return CriterionReport(kind, _condition_a(params), lhs < rhs, lhs, rhs)


def check_meromorphic_criterion(params):
    """Hypothesis arithmetic for families of meromorphic functions.

    Condition b) compares sum(1/ell_i) against
    (q n - 2 + q sum(n_j - t_j)) / (n + sum(n_j + t_j)) exactly.
    """
    return _criterion(params, "meromorphic", 2, 1)


def check_holomorphic_criterion(params):
    """Hypothesis arithmetic for families of holomorphic functions.

    Condition b) compares sum(1/ell_i) against
    (q n - 1 + q sum(n_j - t_j)) / (n + sum(n_j)) exactly.
    """
    return _criterion(params, "holomorphic", 1, 0)


def _reduction(n, pairs, floor):
    """(lhs, rhs, holds) for n + sum n_j >= floor + sum t_j."""
    spec = MonomialSpec(n, tuple(pairs))
    lhs = spec.n + sum(nj for nj, _ in spec.pairs)
    rhs = floor + sum(tj for _, tj in spec.pairs)
    return lhs, rhs, lhs >= rhs


def meromorphic_reduction(n, pairs):
    """Integer reduction of the meromorphic criterion at q = 1, ell = inf.

    Returns (lhs, rhs, holds) for the inequality n + sum n_j >= 3 + sum t_j.
    """
    return _reduction(n, pairs, 3)


def holomorphic_reduction(n, pairs):
    """Integer reduction of the holomorphic criterion at q = 1, ell = inf.

    Returns (lhs, rhs, holds) for the inequality n + sum n_j >= 2 + sum t_j.
    """
    return _reduction(n, pairs, 2)


# ---------------------------------------------------------------------------
# zero-multiplicity verification


@dataclass(frozen=True)
class MultiplicityReport:
    passed: bool
    required: object  # int or math.inf
    min_multiplicity: object  # int or None when there are no zeros
    zeros: tuple  # of (point, multiplicity)

    def to_json_dict(self):
        return {
            "passed": self.passed,
            "required": "inf" if self.required == INFINITE_MULTIPLICITY
                        else self.required,
            "min_multiplicity": self.min_multiplicity,
            "zeros": [[z.real, z.imag, m] for z, m in self.zeros],
        }


def check_multiplicities(f, spec, a, ell):
    """Verify that every zero of P(f) - a has multiplicity at least ell.

    ell may be an integer >= 1 or infinity, the latter demanding that
    P(f) - a has no zeros at all.
    """
    ell = _check_multiplicity_value(ell)
    shifted = add(compose_monomial(spec, f), Const(-complex(a)))
    zeros, _ = divisors(shifted)
    if zeros.is_empty:
        return MultiplicityReport(True, ell, None, ())
    min_mult = min(m for _, m in zeros.entries)
    if ell == INFINITE_MULTIPLICITY:
        return MultiplicityReport(False, ell, min_mult, zeros.entries)
    return MultiplicityReport(min_mult >= ell, ell, min_mult, zeros.entries)


# ---------------------------------------------------------------------------
# families and grids


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


@dataclass(frozen=True)
class FamilySpec:
    """Template in z with parameter v, instantiated over a disc."""

    template: str
    params: tuple
    center: complex = 0j
    radius: float = 1.0

    def __post_init__(self):
        params = tuple(float(v) for v in self.params)
        if not params:
            raise ValueError("empty parameter sequence")
        if not all(map(math.isfinite, params)):
            raise ValueError("family params must be finite")
        for a, b in zip(params, params[1:]):
            if b <= a:
                raise ValueError("parameters must be strictly increasing")
        if not math.isfinite(self.radius):
            raise ValueError(f"disc radius must be finite, got {self.radius}")
        if self.radius <= 0:
            raise ValueError("disc radius must be positive")
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "center", complex(self.center))
        # fail fast on bad templates; instantiate hands out this first member
        object.__setattr__(self, "_first", parse(self.template, {"v": params[0]}))

    @classmethod
    def from_json_dict(cls, payload):
        if not isinstance(payload, dict) or not (
                {"template", "params"} <= set(payload)):
            raise ValueError('family needs keys "template" and "params"')
        template, params = payload["template"], payload["params"]
        disc = payload.get("disc", {})
        if not isinstance(template, str):
            raise ValueError('family "template" must be a string')
        if not isinstance(params, list) or not all(map(_is_number, params)):
            raise ValueError('family "params" must be a list of numbers')
        if not isinstance(disc, dict) or not _is_number(disc.get("radius", 1.0)):
            raise ValueError('family "disc" must be an object with a '
                             '"center" and a numeric "radius"')
        center = parse_complex(str(disc.get("center", "0")))
        return cls(template, tuple(params), center,
                   float(disc.get("radius", 1.0)))

    def to_json_dict(self):
        return {
            "template": self.template,
            "params": list(self.params),
            "disc": {"center": print_expr(Const(self.center)),
                     "radius": self.radius},
        }

    def instantiate(self, v):
        return self._first if v == self.params[0] else parse(self.template, {"v": v})

    def contains(self, z):
        return abs(z - self.center) < self.radius


def disc_grid(center, radius, resolution):
    """Square lattice clipped to the closed disc, as a tuple of points.

    The lattice coordinates are t_i = -1 + 2 i / (resolution - 1); the point
    center + radius (t_i + i t_j) is kept where t_i^2 + t_j^2 <= 1 + 1e-12,
    ordered by i, then j.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    t = -1.0 + 2.0 * np.arange(resolution) / (resolution - 1)
    i, j = np.nonzero(t[:, None] * t[:, None] + t * t <= 1.0 + 1e-12)
    center = complex(center)
    pts = np.empty(len(i), dtype=complex)
    pts.real = center.real + radius * t[i]
    pts.imag = center.imag + radius * t[j]
    return tuple(pts.tolist())


# ---------------------------------------------------------------------------
# Marty probe


@dataclass(frozen=True)
class MartyReport:
    family: FamilySpec
    shrink: float
    resolution: int
    entries: tuple  # of (v, max_spherical, argmax point)
    flag: str

    @property
    def divergent(self):
        return self.flag == "NOT-NORMAL-EVIDENCE"

    def to_csv_text(self):
        return _csv_text("v,max_spherical,argmax_re,argmax_im",
                         ((v, m, z.real, z.imag) for v, m, z in self.entries))

    def to_json_dict(self):
        return {
            "family": self.family.to_json_dict(),
            "shrink": self.shrink,
            "resolution": self.resolution,
            "flag": self.flag,
            "entries": [[v, m, z.real, z.imag] for v, m, z in self.entries],
            "csv": self.to_csv_text(),
        }


def _divergence_flag(maxima):
    if len(maxima) < 2 or maxima[-1] <= _DIVERGENCE_FACTOR * maxima[0]:
        return "NORMAL-CONSISTENT"
    tail = maxima[-_DIVERGENCE_TAIL:]
    if all(b >= a for a, b in zip(tail, tail[1:])):
        return "NOT-NORMAL-EVIDENCE"
    return "NORMAL-CONSISTENT"


def marty_probe(family, resolution=21, shrink=0.8):
    """Max spherical derivative of each family member on a shrunken disc.

    Divergence of the maxima (last above 100x the first, monotone on the
    final stretch) is flagged as evidence against normality, never as proof.
    """
    if not 0.0 < shrink < 1.0:
        raise ValueError("shrink must lie in (0, 1)")
    pts = np.array(disc_grid(family.center, family.radius * shrink, resolution))
    entries = []
    for v in family.params:
        try:
            sharp = spherical_derivative(family.instantiate(v), pts)
        except (ValueError, ZeroDivisionError):
            sharp = None
        if sharp is None or np.isnan(sharp).all():
            raise ValueError(f"no usable grid points for parameter v = {v}")
        k = int(np.nanargmax(sharp))  # the first maximum wins
        entries.append((v, float(sharp[k]), complex(pts[k])))
    flag = _divergence_flag([m for _, m, _ in entries])
    return MartyReport(family, shrink, resolution, tuple(entries), flag)


# ---------------------------------------------------------------------------
# rescaling


@dataclass(frozen=True)
class RescalingSpec:
    """Zoom exponent alpha and explicit (z_v, rho_v) pairs."""

    alpha: Fraction
    pairs: tuple  # of (z_v, rho_v), aligned with the family parameters

    def __post_init__(self):
        alpha = Fraction(self.alpha)
        if not Fraction(-1) < alpha < Fraction(1):
            raise ValueError("alpha must lie strictly between -1 and 1")
        pairs = tuple((complex(z), float(r)) for z, r in self.pairs)
        if not pairs:
            raise ValueError("need at least one (z_v, rho_v) pair")
        rhos = [r for _, r in pairs]
        if any(r <= 0 for r in rhos):
            raise ValueError("rho_v must be positive")
        if any(b >= a for a, b in zip(rhos, rhos[1:])):
            raise ValueError("rho_v must be strictly decreasing")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "pairs", pairs)

    @classmethod
    def from_rules(cls, alpha, params, z_rule, rho_rule):
        """Generate the pairs by applying rules to each parameter value."""
        pairs = tuple((complex(z_rule(v)), float(rho_rule(v))) for v in params)
        return cls(Fraction(alpha), pairs)


def rescaled_function(f, z_v, rho_v, alpha):
    """The zoomed function g(xi) = f(z_v + rho_v xi) / rho_v^alpha."""
    inner = substitute_affine(f, rho_v, z_v)
    scale = float(rho_v) ** (-float(alpha))
    return mul(Const(scale), inner)


def rescaling_identity_values(f, nj, tj, z_v, rho_v, alpha, xi):
    """Both sides of the derivative scaling identity at one point xi.

    Returns (lhs, rhs) with lhs = (g^{n_j})^(t_j)(xi) for the rescaled g and
    rhs = rho_v^{t_j - n_j alpha} (f^{n_j})^(t_j)(z_v + rho_v xi).
    """
    g = rescaled_function(f, z_v, rho_v, alpha)
    lhs = evaluate(differentiate(pow_int(g, nj), tj), xi)
    w = z_v + rho_v * xi
    rhs = (float(rho_v) ** (tj - nj * float(alpha))
           * evaluate(differentiate(pow_int(f, nj), tj), w))
    return lhs, rhs


@dataclass(frozen=True)
class RescaleReport:
    family: FamilySpec
    rescaling: RescalingSpec
    entries: tuple  # of (v, z_v, rho_v, dist_prev, dist_limit, sharp0)
    converged: bool

    def to_csv_text(self):
        return _csv_text("v,rho,dist_prev,dist_limit,sharp0",
                         ((v, rho, dp, dl, s0) for v, _, rho, dp, dl, s0 in self.entries))

    def to_json_dict(self):
        return {
            "family": self.family.to_json_dict(),
            "alpha": str(self.rescaling.alpha),
            "converged": self.converged,
            "entries": [[v, z.real, z.imag, rho, dp, dl, s0]
                        for v, z, rho, dp, dl, s0 in self.entries],
            "csv": self.to_csv_text(),
        }


_XI = np.array(disc_grid(0j, 2.0, 9))  # the xi grid of every rescaled family
_XI.flags.writeable = False


def _domain_points(family, z_v, rho_v):
    """w = z_v + rho_v xi for the xi grid; raises when a w leaves the disc."""
    w = z_v + rho_v * _XI
    inside = family.contains(w)
    if not inside.all():
        k = int(np.argmin(inside))
        raise ValueError(
            f"rescaled point escapes the domain at xi = {complex(_XI[k])} "
            f"(z = {complex(w[k])}, "
            f"|z - center| = {float(abs(w[k] - family.center))})")
    return w


def zalcman_rescale(family, rescaling, limit=None):
    """Evaluate the zoomed family on a xi-grid and track convergence.

    Convergence is declared when the final consecutive sup chordal distance
    (or the distance to the supplied limit) drops below 1e-3.
    """
    if len(rescaling.pairs) != len(family.params):
        raise ValueError("need one (z_v, rho_v) pair per family parameter")
    limit_vals = None
    if limit is not None:
        limit_vals = evaluate(limit, _XI)
    prev_vals = None
    entries = []
    for v, (z_v, rho_v) in zip(family.params, rescaling.pairs):
        _domain_points(family, z_v, rho_v)  # raises if the zoom leaves the disc
        g = rescaled_function(family.instantiate(v), z_v, rho_v,
                              rescaling.alpha)
        vals = evaluate(g, _XI)
        dist_prev = None
        if prev_vals is not None:
            dist_prev = _sup_chordal(vals, prev_vals)
        dist_limit = None
        if limit_vals is not None:
            dist_limit = _sup_chordal(vals, limit_vals)
        sharp0 = spherical_derivative(g, 0j)
        entries.append((v, z_v, rho_v, dist_prev, dist_limit, sharp0))
        prev_vals = vals
    finals = [e[4] if limit_vals is not None else e[3] for e in entries]
    finals = [d for d in finals if d is not None]
    converged = bool(finals) and finals[-1] < _CONVERGENCE_TOL
    return RescaleReport(family, rescaling, tuple(entries), converged)


@dataclass(frozen=True)
class ExtrasReport:
    family: FamilySpec
    rescaling: RescalingSpec
    entries: tuple  # of (v, main_dist_prev, extras_sup)
    main_converged: bool
    extras_vanish: bool

    def to_csv_text(self):
        return _csv_text("v,main_dist_prev,extras_sup", self.entries)

    def to_json_dict(self):
        return {
            "family": self.family.to_json_dict(),
            "alpha": str(self.rescaling.alpha),
            "main_converged": self.main_converged,
            "extras_vanish": self.extras_vanish,
            "entries": [[v, dp, sup] for v, dp, sup in self.entries],
            "csv": self.to_csv_text(),
        }


def rescale_extras_check(main, extras, family, rescaling):
    """Check that extra terms die off under rescaling while the main survives.

    The main monomial is evaluated in rescaled form M(g_v); each extra term is
    evaluated directly as c_I(w) M_I(f_v)(w) at w = z_v + rho_v xi, which is
    exactly its contribution in the rescaled frame when alpha matches the main
    index.  Verdict: extras' sup modulus is nonincreasing and ends below 1e-3.
    """
    generalized_polynomial(main, extras)  # validates the alpha comparisons
    if Fraction(rescaling.alpha) != alpha_index(main):
        raise ValueError("rescaling alpha must equal the main monomial index")
    if len(rescaling.pairs) != len(family.params):
        raise ValueError("need one (z_v, rho_v) pair per family parameter")
    entries = []
    prev_main = None
    sups = []
    for v, (z_v, rho_v) in zip(family.params, rescaling.pairs):
        w = _domain_points(family, z_v, rho_v)
        f = family.instantiate(v)
        g = rescaled_function(f, z_v, rho_v, rescaling.alpha)
        main_vals = evaluate(compose_monomial(main, g), _XI)
        dist_prev = None
        if prev_main is not None:
            dist_prev = _sup_chordal(main_vals, prev_main)
        sup = 0.0
        for coeff, spec in extras:
            vals = evaluate(compose_monomial(spec, f), w)
            poles = ~np.isfinite(vals)
            if poles.any():
                pole = complex(w[np.argmax(poles)])
                raise ValueError(f"extra term has a pole at z = {pole}")
            c = evaluate(coeff, w) if isinstance(coeff, Expr) else complex(coeff)
            # a pole of c at a zero of the term gives NaN, which fmax skips
            with np.errstate(invalid="ignore"):
                terms = np.abs(c * vals)
            sup = float(np.fmax.reduce(terms, initial=sup))
        entries.append((v, dist_prev, sup))
        sups.append(sup)
        prev_main = main_vals
    dists = [d for _, d, _ in entries if d is not None]
    main_converged = bool(dists) and dists[-1] < _CONVERGENCE_TOL
    nonincreasing = all(b <= a + 1e-12 for a, b in zip(sups, sups[1:]))
    extras_vanish = (not extras) or (nonincreasing
                                     and sups[-1] < _CONVERGENCE_TOL)
    return ExtrasReport(family, rescaling, tuple(entries),
                        main_converged, extras_vanish)
