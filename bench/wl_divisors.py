"""Workload `divisors`: exact zero and pole divisors, no quadrature.

Ops call the library directly: divisors(parse(s)) for D^k f, D^k f / f and
f - a, and check_multiplicities for P(g) - a.  canonicalize and poly_roots
with the multiplicity merge ladder do the work.  The references are closed
forms from the generator's known roots:

- a pole b of order n of f is a pole of order n + k of D^k f, and of order k
  of D^k f / f; a zero a of order m is a zero of order m - k of D^k f when
  m > k, and a pole of order min(m, k) of D^k f / f;
- zero totals come from an exact degree count, and every zero not forced by
  the above is simple for generic root positions;
- for g = c (z - b)^-n, P(g) = C (z - b)^-K, so P(g) - a has K simple zeros
  on a circle around b.

round_ops holds the classes the library gets right at this commit, each of
which passed every one of 3000 seeded draws: D^1 f and D^1 f / f where every
zero and pole of f is simple, or f is exp(cz) times a rational function with
one double zero and simple poles; f - a; and P(g) - a for n = 1 and K = 4.
Higher derivatives and multiplicities come back wrong (ROADMAP item 1):
defect_ops holds those classes, and run.py adds them only with
--known-defects.
"""
from __future__ import annotations

import cmath
import math

from ops import Op
from refs import ROOT_TOL, Factored, cnum, divisor_matches, dyadic, dyadic_point, falling

# A pattern is (zero multiplicities, pole multiplicities, exp degree); a class
# (zero patterns, pole patterns, exp degree) stands for every pair of its
# patterns.  Every round runs a fixed quota of each op kind per pattern, and
# the seed picks only the root positions and coefficients: whether the
# library gets an op right depends mostly on its multiplicity pattern.
SIMPLE_PATTERNS = (((1,), (1, 1), 0), ((1, 1), (1, 1, 1), 0), ((1,), (1,), 1), ((1, 1), (1,), 1))
DOUBLE_ZERO = ((2, 1), (1, 1), 1)
SHIFT_CLASS = (((3, 1), (2, 2)), ((2,), (1, 1)), 0)
SPECS = ((1, ((2, 1),)), (0, ((1, 1), (1, 1))))
# Classes with wrong multiplicities at this commit, for defect_ops.
DEFECT_CLASSES = ((((3, 1), (2, 2)), ((2,),), 1), (((2,), (1, 1)), ((3, 1), (2, 2)), 0))
DEFECT_SPECS = ((2, ((2, 2),)), (1, ((1, 3),)))


def _patterns(cls):
    """Every (zero pattern, pole pattern) pair of a class, with its exp degree."""
    zero_patterns, pole_patterns, expo_degree = cls
    return [(zp, pp, expo_degree) for zp in zero_patterns for pp in pole_patterns]


def _function(rng, pattern):
    zero_mults, pole_mults, expo_degree = pattern
    pts, zeros, poles = [], [], []
    for out, mults in ((zeros, zero_mults), (poles, pole_mults)):
        for m in mults:
            w = dyadic_point(rng, 1.5, pts)
            pts.append(w)
            out.append((w, m))
    coeff = complex(dyadic(rng, 0.5, 2, 16), dyadic(rng, -1, 1, 16))
    expo = ()
    if expo_degree:
        expo = (0j, complex(dyadic(rng, 0.25, 1, 16), dyadic(rng, -1, 1, 16)))
    return Factored(coeff, tuple(zeros), tuple(poles), expo)


def _zeros_match(got, forced, total):
    """Forced zeros with exact orders, every other zero simple, exact total."""
    if sum(m for _, m in got) != total:
        return False
    rest = list(got)
    for w, m in forced:
        near = [e for e in rest if abs(e[0] - w) <= ROOT_TOL * (1.0 + abs(w))]
        if len(near) != 1 or near[0][1] != m:
            return False
        rest.remove(near[0])
    return all(m == 1 for _, m in rest)


def _divisor_op(kind, text, forced, total, poles):
    def call(lib):
        zeros, pole_div = lib.divisors(lib.parse(text))
        return zeros.entries, pole_div.entries

    def check(output):
        zeros, got_poles = output
        return _zeros_match(zeros, forced, total) and divisor_matches(got_poles, poles)
    return Op(kind, text, call, check)


def _derivative_degree(f, k):
    """deg M_k where D^k f = exp(p) M_k / (B * prod (z - b)^k)."""
    distinct = len(f.poles)
    if f.expo_degree:
        return f.zero_degree + k * (f.expo_degree - 1) + k * distinct
    s = f.zero_degree - f.pole_degree
    if s >= 0:
        raise ValueError("rational classes must be proper, so no leading term cancels")
    return s - k + f.pole_degree + k * distinct


def derivative(rng, pattern, k):
    f = _function(rng, pattern)
    forced = [(a, m - k) for a, m in f.zeros if m > k]
    poles = [(b, n + k) for b, n in f.poles]
    return _divisor_op(f"D{k}", f"D[{f.text()},{k}]", forced,
                       _derivative_degree(f, k), poles)


def log_derivative(rng, pattern, k):
    f = _function(rng, pattern)
    lost = sum(m - k for _, m in f.zeros if m > k)
    poles = [(a, min(m, k)) for a, m in f.zeros] + [(b, k) for b, _ in f.poles]
    text = f"D[{f.text()},{k}]/({f.text()})"
    return _divisor_op(f"D{k}/f", text, (), _derivative_degree(f, k) - lost, poles)


def shift(rng, pattern):
    f = _function(rng, pattern)
    a = complex(dyadic(rng, -2, 2, 16), dyadic(rng, 0.25, 2, 16))
    total = max(f.zero_degree, f.pole_degree)
    return _divisor_op("f-a", f"{f.text()}-{cnum(a)}", (), total, list(f.poles))


def multiplicities(rng, n, spec):
    n0, pairs = spec
    b = dyadic_point(rng, 1.0)
    c = complex(dyadic(rng, 0.5, 2, 16), dyadic(rng, -1, 1, 16))
    a = complex(dyadic(rng, 0.5, 2, 16), dyadic(rng, -2, 2, 16))
    ell = rng.choice((1, 2))
    big_c = c ** (n0 + sum(nj for nj, _ in pairs))
    for nj, tj in pairs:
        big_c *= falling(-n * nj, tj)
    order = n * n0 + sum(n * nj + tj for nj, tj in pairs)
    rho = cmath.exp(cmath.log(big_c / a) / order)
    zeros = [(b + rho * cmath.exp(2j * math.pi * j / order), 1) for j in range(order)]
    g_text = f"{cnum(c)}/(z-{cnum(b)})^{n}"
    spec = {"n": n0, "pairs": [list(p) for p in pairs]}

    def call(lib):
        return lib.check_multiplicities(lib.parse(g_text),
                                        lib.MonomialSpec.from_json_dict(spec), a, ell)

    def check(report):
        return (divisor_matches(report.zeros, zeros) and report.min_multiplicity == 1
                and report.passed == (ell <= 1))
    return Op("P(g)-a", f"g={g_text} spec={spec} a={cnum(a)} ell={ell}", call, check)


def round_ops(rng):
    """One stratified round: every op kind once per multiplicity pattern.

    20 ops: D^1 f and D^1 f / f over the simple patterns (8 ops), D^1 f once
    and D^1 f / f three times with a double zero, f - a over the four shift
    patterns and P(g) - a twice per spec.  The median falls inside the
    P(g) - a class and p90 inside the D^1 f / f double-zero class, the
    slowest.
    """
    ops = []
    for pattern in SIMPLE_PATTERNS:
        ops.append(derivative(rng, pattern, 1))
        ops.append(log_derivative(rng, pattern, 1))
    ops.append(derivative(rng, DOUBLE_ZERO, 1))
    ops += [log_derivative(rng, DOUBLE_ZERO, 1) for _ in range(3)]
    ops += [shift(rng, pattern) for pattern in _patterns(SHIFT_CLASS)]
    ops += [multiplicities(rng, 1, spec) for spec in SPECS for _ in range(2)]
    return ops


def defect_ops(rng):
    """The divisor classes the library gets wrong at this commit (ROADMAP item 1).

    D^k f and D^k f / f for k = 1, 2, 3 over patterns with triple or two
    double roots, and P(g) - a for n = 1 with K = 5, 6 and for n = 2.
    """
    ops = []
    for k in (1, 2, 3):
        for pattern in [p for cls in DEFECT_CLASSES for p in _patterns(cls)]:
            ops.append(derivative(rng, pattern, k))
            ops.append(log_derivative(rng, pattern, k))
    ops += [multiplicities(rng, 1, spec) for spec in DEFECT_SPECS]
    ops += [multiplicities(rng, 2, spec) for spec in SPECS + DEFECT_SPECS]
    return ops
