"""Empirical slack harnesses for the classical growth inequalities.

Each check tabulates LHS and RHS of one inequality over a radial grid and
returns a SlackSeries (slack = rhs - lhs, normalized by T(r, g)).  The first
main theorem is exact, and its verdict checks it at every radius.  The others'
o(T) error terms are not modeled; instead one fixed tolerance policy lets the
normalized slack dip on a few tail radii.  Each verdict says which form it checks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .expressions import Const, NotNormalizableError, _csv_text, add, differentiate, div, divisors, print_expr
from .nevanlinna import FunctionData, RadialGrid, counting_series

_NORM_FLOOR = 1e-9
# fmt's allowance for quadrature and root error, relative to 1 + T(r, f): at
# a = 0, correct divisors leave at most 1.8e-6 (1 + T), smeared ones (D^3..D^5
# of (z^2 - 1)/(z + 3)) 5e-3 to 0.25.
FMT_TOL = 1e-4
# The tolerance policy of the smt, logderiv, hinchliffe and lemma3 verdicts,
# standing in for the o(T) terms of their inequalities: a series passes when
# slack / T >= -EPSILON on the last TAIL_FRACTION of the grid radii, except
# on at most MAX_EXCEPTIONAL of those tail radii.
EPSILON = 0.05
MAX_EXCEPTIONAL = 0.10
TAIL_FRACTION = 0.60


def policy_json():
    """The tolerance policy as verdict and config JSON report it."""
    return {"epsilon": EPSILON, "max_exceptional": MAX_EXCEPTIONAL,
            "tail_fraction": TAIL_FRACTION}


@dataclass(frozen=True)
class SlackSeries:
    """Per-radius (r, lhs, rhs, normalizer) records for one inequality."""

    name: str
    params: dict
    rows: tuple

    def __post_init__(self):
        rows = tuple(tuple(float(v) for v in row) for row in self.rows)
        if not rows:
            raise ValueError("empty slack series")
        for r, lhs, rhs, norm in rows:
            if not all(math.isfinite(v) for v in (r, lhs, rhs, norm)):
                raise ValueError(f"non-finite series entry at r = {r}")
        object.__setattr__(self, "rows", rows)

    @property
    def radii(self):
        return tuple(row[0] for row in self.rows)

    def slack(self, i):
        _, lhs, rhs, _ = self.rows[i]
        return rhs - lhs

    def normalized_slack(self, i):
        return self.slack(i) / max(self.rows[i][3], _NORM_FLOOR)

    def to_csv_text(self):
        return _csv_text("r,lhs,rhs,slack,normalized_slack",
                         ((r, lhs, rhs, self.slack(i), self.normalized_slack(i))
                          for i, (r, lhs, rhs, _) in enumerate(self.rows)))

    def to_json_dict(self, verdict=None):
        payload = {
            "inequality": self.name,
            "params": self.params,
            "columns": ["r", "lhs", "rhs", "slack", "normalized_slack"],
            "rows": [[row[0], row[1], row[2], self.slack(i),
                      self.normalized_slack(i)]
                     for i, row in enumerate(self.rows)],
        }
        if verdict is not None:
            payload["verdict"] = verdict.to_json_dict()
        return payload


@dataclass(frozen=True)
class Verdict:
    passed: bool
    worst_radius: float
    worst_normalized_slack: float
    exceptional_fraction: float
    tail_count: int

    def to_json_dict(self):
        return {
            "passed": self.passed,
            "worst_radius": self.worst_radius,
            "worst_normalized_slack": self.worst_normalized_slack,
            "exceptional_fraction": self.exceptional_fraction,
            "tail_count": self.tail_count,
            "form": "policy",
            "policy": policy_json(),
        }


def slack_verdict(series):
    """Apply the tolerance policy to the tail of a slack series."""
    count = len(series.rows)
    start = count - max(1, int(round(count * TAIL_FRACTION)))
    slacks = {i: series.normalized_slack(i) for i in range(start, count)}
    # slacks within 1e-12 of the minimum tie; the smallest radius wins
    low = min(slacks.values())
    worst_i = min((i for i, s in slacks.items() if s <= low + 1e-12),
                  key=lambda i: series.rows[i][0])
    fraction = sum(1 for s in slacks.values() if s < -EPSILON) / len(slacks)
    return Verdict(
        passed=fraction <= MAX_EXCEPTIONAL,
        worst_radius=series.rows[worst_i][0],
        worst_normalized_slack=slacks[worst_i],
        exceptional_fraction=fraction,
        tail_count=len(slacks),
    )


@dataclass(frozen=True)
class BoundednessVerdict:
    """The first main theorem checked exactly on a fmt series (fmt_boundedness_verdict)."""

    passed: bool
    j1: float
    bound: float
    worst_radius: float
    worst_deviation: float

    def to_json_dict(self):
        return {
            "form": "exact",
            "passed": self.passed,
            "j1": self.j1,
            "bound": self.bound,
            "tol": FMT_TOL,
            "worst_radius": self.worst_radius,
            "worst_deviation": self.worst_deviation,
        }


def fmt_boundedness_verdict(series):
    """Check |slack(r) - j1| <= bound + FMT_TOL (1 + T(r, f)) at every radius.

    j1 and bound come from the series params (check_fmt).  The worst radius
    is the one closest to failing, and worst_deviation its |slack - j1|.
    """
    j1, bound = series.params["j1"], series.params["bound"]
    excess = [abs(series.slack(i) - j1) - bound - FMT_TOL * (1.0 + row[3])
              for i, row in enumerate(series.rows)]
    worst = max(range(len(excess)), key=excess.__getitem__)
    return BoundednessVerdict(max(excess) <= 0.0, j1, bound, series.rows[worst][0],
                              abs(series.slack(worst) - j1))


def _ensure_nonconstant(data, what):
    """ValueError unless the function has a base or a nonconstant expo: the
    canonical form keeps no base that cancels, so those are what make it
    vary."""
    c = data.canonical
    if not c.factors and not c.expo.degree:
        raise ValueError(f"{what} must be nonconstant")


def _grid_or_default(grid):
    return grid if grid is not None else RadialGrid.geometric()


def check_log_derivative(f, k, grid=None, samples=None):
    """Slack series for the smallness of m(r, f^(k)/f).

    lhs = m(r, f^(k)/f) and rhs = EPSILON * T(r, f), so nonnegative slack
    means the proximity of the logarithmic derivative stays below the
    policy's fraction EPSILON of the characteristic.  A polynomial f of
    degree < k has f^(k) = 0, and lhs = m(r, 0) = log+ 0 = 0.
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError("k must be a positive integer")
    grid = _grid_or_default(grid)
    data = FunctionData(f)
    _ensure_nonconstant(data, "f")
    derivative = differentiate(data.expr, k)
    if not derivative.num:
        lhs = [0.0] * len(grid.radii)
    else:
        lhs = FunctionData(div(derivative, data.expr)).proximity(grid.radii, samples)
    ts = data.characteristic(grid.radii, samples)
    rows = tuple((r, a, EPSILON * t, t) for r, a, t in zip(grid.radii, lhs, ts))
    params = {"f": print_expr(data.expr), "k": k, "epsilon": EPSILON}
    return SlackSeries("logderiv", params, rows)


def check_fmt(f, a, grid=None, samples=None):
    """Difference series T(r, 1/(f-a)) vs T(r, f), with the first main theorem's constants.

    With N(r) based at 1, Jensen gives T(r, 1/g) = T(r, g) - J(1, g) for
    g = f - a, and N(r, g) = N(r, f).  So the slack is j1 = J(1, f - a) plus
    m(r, f) - m(r, f - a), within bound = log(1 + |a|) of j1, as
    |log+|x - a| - log+|x|| <= log(1 + |a|).  params carries j1 and bound.
    """
    grid = _grid_or_default(grid)
    data = FunctionData(f)
    _ensure_nonconstant(data, "f")
    a = complex(a)
    shifted = FunctionData(div(Const(1), add(f, Const(-a))))
    lhs = shifted.characteristic(grid.radii, samples)
    rhs = data.characteristic(grid.radii, samples)
    rows = tuple((r, x, y, y) for r, x, y in zip(grid.radii, lhs, rhs))
    params = {"f": print_expr(data.expr), "a": repr(a),
              "j1": -shifted.log_mean_at_1(), "bound": math.log1p(abs(a))}
    return SlackSeries("fmt", params, rows)


def _distinct(values):
    vals = [complex(v) for v in values]
    for i, v in enumerate(vals):
        for w in vals[i + 1:]:
            if v == w:
                raise ValueError(f"values must be distinct; {v} repeats")
    return vals


def check_smt(f, values, grid=None, samples=None):
    """Slack series for the defect-style bound at q >= 2 target values.

    lhs = (q - 1) T(r, f); rhs = truncated pole counting plus the truncated
    zero counting of f - a for each target a.
    """
    values = _distinct(values)
    if len(values) < 2:
        raise ValueError("need at least two target values")
    grid = _grid_or_default(grid)
    data = FunctionData(f)
    _ensure_nonconstant(data, "f")
    zero_divs = []
    for a in values:
        try:
            zero_divs.append(divisors(add(f, Const(-a)))[0])
        except NotNormalizableError as exc:
            raise NotNormalizableError(
                f"divisor extraction failed for f - ({a}): {exc}") from exc
    ts = data.characteristic(grid.radii, samples)
    q = len(values)
    nbar_poles = counting_series(data.poles.truncated(), grid.radii)
    nbar_zeros = [counting_series(d.truncated(), grid.radii) for d in zero_divs]
    rows = []
    for i, (r, t) in enumerate(zip(grid.radii, ts)):
        rhs = nbar_poles[i] + sum(n[i] for n in nbar_zeros)
        rows.append((r, (q - 1) * t, rhs, t))
    params = {"f": print_expr(data.expr), "values": [repr(v) for v in values]}
    return SlackSeries("smt", params, rows)


def _poly_of_g(p, data, values):
    """Compose P with g = data.expr and extract zero divisors of P - a for each a."""
    from .diffpoly import diffpoly_expression
    p_expr = diffpoly_expression(p, data.expr)
    divs = []
    for j, a in enumerate(values):
        try:
            divs.append(divisors(add(p_expr, Const(-a)))[0])
        except NotNormalizableError as exc:
            raise NotNormalizableError(
                f"P - a_{j + 1} (a = {a}) is outside the normalizable class: "
                f"{exc}") from exc
    return divs


def check_hinchliffe(g, P, grid=None, samples=None):
    """Single-value growth bound T <= (theta+1)/(d-1) Nbar(1/g) + Nbar(1/(P-1))/(d-1):
    check_hinchliffe_multi at the one value 1, under its own name."""
    series = check_hinchliffe_multi(g, P, [1], grid, samples)
    params = {k: v for k, v in series.params.items() if k != "entire"}
    return SlackSeries("hinchliffe", params, series.rows)


def check_hinchliffe_multi(g, P, values, grid=None, samples=None, entire=False):
    """Multi-value growth bound on T(r, g) from the zeros of g and of P - a_j.

    Meromorphic variant: T <= (q theta + 1)/(q d - 1) Nbar(r, 1/g)
    + (1/(q d - 1)) sum_j Nbar(r, 1/(P - a_j)); the entire variant (pole-free
    g required) replaces both denominators by q d.
    """
    from .diffpoly import degree_d, weight_theta
    values = _distinct(values)
    if not values:
        raise ValueError("need at least one target value")
    for v in values:
        if v == 0:
            raise ValueError("target values must be nonzero")
    d = degree_d(P)
    theta = weight_theta(P)
    if d < 2:
        raise ValueError("the bound needs degree d(P) >= 2")
    q = len(values)
    den = float(q * d) if entire else float(q * d - 1)
    grid = _grid_or_default(grid)
    data = FunctionData(g)
    if entire and not data.poles.is_empty:
        raise ValueError("the entire variant requires a pole-free g")
    _ensure_nonconstant(data, "g")
    nbar_g = counting_series(data.zeros.truncated(), grid.radii)
    nbar_p = [counting_series(z.truncated(), grid.radii) for z in _poly_of_g(P, data, values)]
    ts = data.characteristic(grid.radii, samples)
    num_coeff = float(q * theta + 1)
    rows = [(r, t, (num_coeff / den) * nbar_g[i] + sum(n[i] for n in nbar_p) / den, t)
            for i, (r, t) in enumerate(zip(grid.radii, ts))]
    params = {"g": print_expr(data.expr), "P_degree": d, "P_weight": theta,
              "values": [repr(complex(v)) for v in values], "entire": entire}
    name = "hinchliffe-multi-entire" if entire else "hinchliffe-multi"
    return SlackSeries(name, params, tuple(rows))
