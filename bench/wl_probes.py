"""Workload `probes`: the normal-family probes through nevanlab.cli.main.

marty, zalcman and remark14 over rational and rational x exp families whose
spherical derivative and rescaled limits have closed forms.  Scalar evaluate
and differentiate at every grid point do the work: many tiny evaluations,
where the divisors workload does a few large canonicalisations.
"""
from __future__ import annotations

import json
import math

import numpy as np

from ops import Op, cli, cli_report
from refs import Factored, close, cnum, dyadic, dyadic_point, falling

SHRINK = 0.8  # the CLI's default Marty shrink
XI_GRID_RADIUS = 2.0  # radius of the library's default xi grid
DIVERGENCE_FACTOR, DIVERGENCE_TAIL = 100.0, 5
TOL = 1e-9


def _lattice(center, radius, resolution):
    """The square lattice clipped to the disc, as the probes sample it."""
    pts = []
    for i in range(resolution):
        x = -1.0 + 2.0 * i / (resolution - 1)
        for j in range(resolution):
            y = -1.0 + 2.0 * j / (resolution - 1)
            if x * x + y * y <= 1.0 + 1e-12:
                pts.append(center + radius * complex(x, y))
    return np.array(pts)


def _params(rng, first, ratio, count=4):
    start = first * rng.choice((1.0, 1.25, 1.5))
    return [start * ratio ** k for k in range(count)]


def _family_json(template, params):
    return json.dumps({"template": template, "params": params,
                       "disc": {"center": "0", "radius": 1}})


# Marty families: template text and the factorisation of f_v.
def _linear(rng):
    a, c = complex(dyadic(rng, 0.5, 2, 16), dyadic(rng, -1, 1, 16)), dyadic_point(rng, 0.5)
    return (f"{cnum(a)}*v*(z-{cnum(c)})",
            lambda v: Factored(a * v, ((c, 1),), ()))


def _exponential(rng):
    c = dyadic_point(rng, 0.5)
    return f"exp(v*(z-{cnum(c)}))", lambda v: Factored(1, (), (), (-v * c, v))


def _rational_exp(rng):
    a = dyadic_point(rng, 0.75)
    b = dyadic_point(rng, 1.5, gap=0.0)
    while abs(b) <= 1.0:
        b = dyadic_point(rng, 1.5, gap=0.0)
    return (f"(z-{cnum(a)})/(z-{cnum(b)})*exp(v*z)",
            lambda v: Factored(1, ((a, 1),), ((b, 1),), (0, v)))


def _divergence_flag(maxima):
    if len(maxima) < 2 or maxima[-1] <= DIVERGENCE_FACTOR * maxima[0]:
        return "NORMAL-CONSISTENT"
    tail = maxima[-DIVERGENCE_TAIL:]
    if all(b >= a for a, b in zip(tail, tail[1:])):
        return "NOT-NORMAL-EVIDENCE"
    return "NORMAL-CONSISTENT"


def marty(rng, family, resolution):
    template, factored = family(rng)
    params = _params(rng, 1.0, 4.0)
    pts = _lattice(0j, SHRINK, resolution)
    sharp = {}
    maxima = []
    for v in params:
        f = factored(v)
        w = f(pts)
        sharp[v] = np.abs(f.derivative(pts)) / (1.0 + np.abs(w) ** 2)
        maxima.append(float(sharp[v].max()))
    flag = _divergence_flag(maxima)
    argv = ["marty", "--family", _family_json(template, params),
            "--resolution", str(resolution), "--format", "json"]

    def check(output):
        rep = cli_report(output)
        if rep is None or rep["flag"] != flag or len(rep["entries"]) != len(params):
            return False
        for (v, m, re, im), ref_v, ref_m in zip(rep["entries"], params, maxima):
            at = np.abs(pts - complex(re, im)).argmin()
            if not (close(v, ref_v, TOL) and close(m, ref_m, TOL)
                    and close(float(sharp[ref_v][at]), ref_m, TOL)):
                return False
        return True
    return Op(f"marty{resolution}", f"res={resolution} template={template}",
              cli(argv), check)


def _rule_number(w):
    return f"({w.real!r}+{w.imag!r}j)"


def zalcman(rng, exponential):
    """f_v = A v (z - c) or exp(v (z - c)) zoomed at c by 1/v: g(xi) = A xi or e^xi."""
    c = dyadic_point(rng, 0.375)
    if exponential:
        template, limit, sharp0 = f"exp(v*(z-{cnum(c)}))", "exp(z)", 0.5
    else:
        a = complex(dyadic(rng, 0.5, 2, 16), dyadic(rng, -1, 1, 16))
        template, limit, sharp0 = f"{cnum(a)}*v*(z-{cnum(c)})", f"{cnum(a)}*z", abs(a)
    params = _params(rng, 4.0, 2.0)
    argv = ["zalcman", "--family", _family_json(template, params), "--alpha", "0",
            "--zv", _rule_number(c), "--rho", "1/v", "--limit", limit,
            "--format", "json"]

    def check(output):
        rep = cli_report(output)
        if rep is None or not rep["converged"] or len(rep["entries"]) != len(params):
            return False
        for i, (v, zr, zi, rho, dp, dl, s0) in enumerate(rep["entries"]):
            if not (close(v, params[i], TOL) and close(complex(zr, zi), c, TOL)
                    and close(rho, 1.0 / params[i], TOL) and close(s0, sharp0, TOL)
                    and dl < TOL and (dp is None) == (i == 0)
                    and (dp is None or dp < TOL)):
                return False
        return True
    return Op("zalcman", f"template={template}", cli(argv), check)


# (main spec, main index as a fraction string, rho exponent, extra spec): each
# extra's index is strictly below its main's.
REMARK14_CASES = (
    ({"n": 1, "pairs": [[2, 1]]}, "1/3", "-3/2", {"n": 3, "pairs": [[1, 1]]}),
    ({"n": 1, "pairs": [[2, 1]]}, "1/3", "-3/2", {"n": 4, "pairs": [[1, 1]]}),
    ({"n": 1, "pairs": [[1, 1]]}, "1/2", "-2", {"n": 2, "pairs": [[1, 1]]}),
    ({"n": 1, "pairs": [[1, 1]]}, "1/2", "-2", {"n": 1, "pairs": [[2, 1]]}),
)


def remark14(rng, case):
    """f_v = A v z with rho_v = v^(-1/(1 - alpha)): the rescaled main term is
    M(A xi) for every v, and an extra monomial contributes in closed form."""
    main, alpha, rho_exp, extra = case
    a = complex(dyadic(rng, 0.5, 1.5, 16), dyadic(rng, -0.5, 0.5, 16))
    coeff = dyadic(rng, 0.5, 2, 16)
    params = _params(rng, 100.0, 100.0)
    num, den = (int(x) for x in rho_exp.split("/")) if "/" in rho_exp else (int(rho_exp), 1)
    deg = extra["n"] + sum(nj for nj, _ in extra["pairs"])
    wt = sum(tj for _, tj in extra["pairs"])
    k = math.prod(falling(nj, tj) for nj, tj in extra["pairs"])
    sups = []
    for v in params:
        rho = v ** (num / den)
        sups.append(coeff * abs(a) ** deg * abs(k) * v ** deg
                    * (rho * XI_GRID_RADIUS) ** (deg - wt))
    vanish = all(b <= a_ + 1e-12 for a_, b in zip(sups, sups[1:])) and sups[-1] < 1e-3
    argv = ["remark14", "--family", _family_json(f"{cnum(a)}*v*z", params),
            "--main", json.dumps(main),
            "--extras", json.dumps([{"coeff": coeff, "spec": extra}]),
            "--alpha", alpha, "--zv", "0", "--rho", f"v^({rho_exp})", "--format", "json"]

    def check(output):
        rep = cli_report(output)
        if (rep is None or not rep["main_converged"] or rep["extras_vanish"] != vanish
                or len(rep["entries"]) != len(params)):
            return False
        for i, (v, dp, sup) in enumerate(rep["entries"]):
            if not (close(v, params[i], TOL) and close(sup, sups[i], 1e-7)
                    and (dp is None) == (i == 0) and (dp is None or dp < TOL)):
                return False
        return True
    return Op("remark14", f"main={main} extra={extra} A={cnum(a)}", cli(argv), check)


def round_ops(rng):
    """One stratified round: a fixed quota per op kind and grid size.

    Twelve ops: the two slow Marty probes of a rational x exp family hold p90
    inside their class, and eight cheap rescaling probes, the four remark14
    cases above the four zalcman ones, put the median in the middle of the
    remark14 class rather than in the tail of the cheap ops.  Cheap and slow
    ops alternate, so cheap ops are not all timed just after the slow ones.
    """
    cases = [remark14(rng, case) for case in REMARK14_CASES]
    return [
        marty(rng, _linear, 25), zalcman(rng, False), cases[0],
        marty(rng, _rational_exp, 31), zalcman(rng, True), cases[1],
        marty(rng, _exponential, 25), zalcman(rng, False), cases[2],
        marty(rng, _rational_exp, 31), zalcman(rng, True), cases[3],
    ]


def defect_ops(rng):
    """No probe class fails at this commit."""
    return []
