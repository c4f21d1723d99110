"""Workload `growth`: the README growth subcommands through nevanlab.cli.main.

Circle quadrature (FunctionData.proximity and Canonical.log_abs under it)
does most of the work; poly_roots, behind the divisors that logderiv k = 2,
fmt, smt and lemma3 need, does about a quarter.  Every op's table is checked row by
row against an independent numpy quadrature of the known factorisation and
closed-form counting functions.

Every root of a generated function lies in |w| <= ROOT_RADIUS, at least 0.5
inside the smallest circle r = RMIN.  The library's m(r) loses digits when a
pole lies within about 0.05 of a quadrature circle (3.6e-3 relative in
logderiv k = 1 for a pole 1.5e-3 from |z| = 2); defect_ops holds that class,
which run.py adds only with --known-defects.
"""
from __future__ import annotations

import json

import numpy as np
from numpy.polynomial import polynomial as P

from ops import Op, cli, cli_report
from refs import (Factored, circle, cnum, counting, dyadic, dyadic_point,
                  mean_log_plus, rows_close, simple_roots)

RMIN, RMAX, STEPS = 2.0, 128.0, 64
CHAR_SAMPLES = 8192
DEFAULT_SAMPLES = 4096  # the library default the verify commands run with
EPSILON = 0.05  # the CLI's default slack policy epsilon
ROOT_RADIUS = 1.5
NEAR_CIRCLE = 1.0 / 32  # defect_ops put a pole this close inside |z| = RMIN

# Multiplicity patterns: each class fixes the total degree, the seed picks one
# pattern and the root positions.
ZERO_PATTERNS = ((2, 1), (1, 1, 1))
POLE_PATTERNS = ((2,), (1, 1))
G_PATTERNS = ((2, 1), (1, 1, 1))
SPECS = ({"n": 1, "pairs": [[2, 1]]}, {"n": 2, "pairs": [[1, 1]]},
         {"n": 0, "pairs": [[2, 1]]}, {"n": 1, "pairs": [[1, 2]]})


def _radii():
    ratio = (RMAX / RMIN) ** (1.0 / (STEPS - 1))
    return [RMIN * ratio ** k for k in range(STEPS)]


def _value(rng):
    while True:
        a = complex(dyadic(rng, -2, 2, 16), dyadic(rng, -2, 2, 16))
        if abs(a) >= 0.25:
            return a


def _values(rng, count):
    """count distinct target values; smt and lemma3 reject a repeated value."""
    values = []
    while len(values) < count:
        a = _value(rng)
        if a not in values:
            values.append(a)
    return values


def _near_circle(rng, avoid):
    """A grid point at most NEAR_CIRCLE inside the circle |w| = RMIN."""
    while True:
        w = dyadic_point(rng, RMIN, avoid)
        if abs(w) >= RMIN - NEAR_CIRCLE:
            return w


def _function(rng, expo_degree, zeros=None, poles=None, near_circle=False):
    zeros = zeros if zeros is not None else rng.choice(ZERO_PATTERNS)
    poles = poles if poles is not None else rng.choice(POLE_PATTERNS)
    pts = []
    zs, ps = [], []
    for out, mults in ((zs, zeros), (ps, poles)):
        for m in mults:
            if near_circle and out is ps and not ps:
                w = _near_circle(rng, pts)
            else:
                w = dyadic_point(rng, ROOT_RADIUS, pts)
            pts.append(w)
            out.append((w, m))
    coeff = complex(dyadic(rng, 0.5, 2, 16), dyadic(rng, -1, 1, 16))
    expo = ()
    if expo_degree:
        expo = (0j,) + tuple(complex(dyadic(rng, -1, 1, 16), dyadic(rng, -1, 1, 16))
                             for _ in range(expo_degree - 1)) + (_value(rng) / 2,)
    return Factored(coeff, tuple(zs), tuple(ps), expo)


def _op(kind, label, argv, expected_rows, ncols):
    argv = list(argv) + ["--format", "json"]

    def check(output):
        rep = cli_report(output)
        if rep is None:
            return False
        return rows_close([row[:ncols] for row in rep["rows"]], expected_rows)
    return Op(kind, label, cli(argv), check)


def characteristic(rng, expo_degree):
    f = _function(rng, expo_degree)
    rows = []
    for r in _radii():
        m = mean_log_plus(f.log_abs(circle(r, CHAR_SAMPLES)))
        n = counting(f.poles, r)
        rows.append((r, m, n, counting(f.poles, r, True), m + n))
    argv = ["characteristic", "--f", f.text(), "--samples", str(CHAR_SAMPLES)]
    return _op("characteristic", f.text(), argv, rows, 5)


def logderiv(rng, k, expo_degree, near_circle=False):
    f = _function(rng, expo_degree, near_circle=near_circle)
    rows = []
    for r in _radii():
        zs = circle(r, DEFAULT_SAMPLES)
        lg = f.logderiv(zs)
        q = lg if k == 1 else f.logderiv(zs, 1) + lg * lg
        t = mean_log_plus(f.log_abs(zs)) + counting(f.poles, r)
        rows.append((r, mean_log_plus(np.log(np.abs(q))), EPSILON * t))
    argv = ["verify", "logderiv", "--f", f.text(), "--k", str(k)]
    return _op("logderiv", f"k={k} f={f.text()}", argv, rows, 3)


def _shift_zeros(f, a):
    """Zeros of f - a for rational f and generic a != 0 (all simple)."""
    num = f.numerator()
    den = f.denominator()
    size = max(len(num), len(den))
    c = np.zeros(size, complex)
    c[:len(num)] += num
    c[:len(den)] -= a * den
    return simple_roots(c)


def fmt(rng):
    f = _function(rng, 0)
    a = _value(rng)
    zeros = _shift_zeros(f, a)
    rows = []
    for r in _radii():
        zs = circle(r, DEFAULT_SAMPLES)
        n = counting(f.poles, r)
        t_shift = mean_log_plus(-np.log(np.abs(f(zs) - a))) + counting(zeros, r)
        rows.append((r, t_shift, mean_log_plus(f.log_abs(zs)) + n))
    argv = ["verify", "fmt", "--f", f.text(), "--a", cnum(a)]
    return _op("fmt", f"a={cnum(a)} f={f.text()}", argv, rows, 3)


def smt(rng, q):
    f = _function(rng, 0)
    values = [0j] + _values(rng, q - 1)
    divs = [f.zeros] + [_shift_zeros(f, a) for a in values[1:]]
    rows = []
    for r in _radii():
        t = mean_log_plus(f.log_abs(circle(r, DEFAULT_SAMPLES))) + counting(f.poles, r)
        rhs = counting(f.poles, r, True) + sum(counting(d, r, True) for d in divs)
        rows.append((r, (q - 1) * t, rhs))
    text = ",".join(cnum(a) for a in values)
    argv = ["verify", "smt", "--f", f.text(), "--values", text]
    return _op("smt", f"values={text} f={f.text()}", argv, rows, 3)


def _compose(gc, spec):
    """Coefficients of g^n (g^n1)^(t1) ... for polynomial g."""
    out = P.polypow(gc, spec["n"]) if spec["n"] else np.ones(1, complex)
    for nj, tj in spec["pairs"]:
        out = P.polymul(out, P.polyder(P.polypow(gc, nj), tj))
    return out


def lemma3(rng, q):
    g = _function(rng, 0, zeros=rng.choice(G_PATTERNS), poles=())
    spec = rng.choice(SPECS)
    values = _values(rng, q)
    p = _compose(g.numerator(), spec)
    divs = []
    for a in values:
        c = p.copy()
        c[0] -= a
        divs.append(simple_roots(c))
    d = spec["n"] + sum(nj for nj, _ in spec["pairs"])
    theta = sum(tj for _, tj in spec["pairs"])
    den = q * d - 1
    rows = []
    for r in _radii():
        t = mean_log_plus(g.log_abs(circle(r, DEFAULT_SAMPLES)))
        rhs = ((q * theta + 1) / den * counting(g.zeros, r, True)
               + sum(counting(dv, r, True) for dv in divs) / den)
        rows.append((r, t, rhs))
    text = ",".join(cnum(a) for a in values)
    spec_text = json.dumps(spec)
    argv = ["verify", "lemma3", "--g", g.text(), "--spec", spec_text, "--values", text]
    return _op("lemma3", f"spec={spec_text} values={text} g={g.text()}", argv, rows, 3)


def round_ops(rng):
    """One stratified round: a fixed quota per op kind and degree class."""
    return [
        characteristic(rng, 2), characteristic(rng, 1),
        logderiv(rng, 1, 2), logderiv(rng, 2, 0),
        fmt(rng), fmt(rng),
        smt(rng, 2), smt(rng, 3),
        lemma3(rng, 1), lemma3(rng, 2),
    ]


def defect_ops(rng):
    """logderiv with a pole just inside |z| = RMIN, where m(r) loses digits."""
    return [logderiv(rng, 1, 2, near_circle=True), logderiv(rng, 2, 0, near_circle=True)]
