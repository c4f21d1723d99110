"""Functions of the tractable class as sums of factored terms.

The class is generated by rational functions and exponentials of
polynomials.  A function is one Expr: a numerator and a denominator, each a
tuple of Canonical terms (lead/den_lead) * prod b^e * exp(expo), with monic
bases b, nonzero integer exponents e and pairwise distinct exponential parts
expo.  A denominator of one term is inverted into the numerator, so every
function with a canonical form is exactly one term over 1.  Products,
quotients and integer powers add or scale exponents, terms with one
exponential part join through _add, and D[...] is Canonical.derivative per
term, so multiplicities follow from the structure, never estimated.  Only a
denominator of several terms, one sum S of distinct exponential parts
raised to a power m, needs the quotient rule, which raises m by one; such a
function has no canonical form.

Expression grammar accepted by parse() and emitted by print_expr():
complex literals (3, 2.5, 1i, 1+2i as arithmetic), the variable z, + - * /,
^ with integer exponents, exp(polynomial), and D[expr, k] which constructs
the k-th derivative on the spot.  While it reads, parse folds sums of
polynomial pieces into one Polynomial and keeps the constant factor of a
product apart from its pieces; a piece becomes a term only where it meets
a quotient, exp, D[...] or the end, its polynomials split once into linear
bases but for a lone one with simple roots, which stays one whole base
until it meets the bases of another term.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .polynomials import Polynomial, RootFindingError, poly_roots

INFINITY = complex(math.inf, 0.0)

# Two linear bases whose roots agree within _ROUNDING of their moduli are one;
# a polynomial within _ROUNDING of its coefficients' scale is 0 (_split, _add,
# derivative).
_ROUNDING = 2.0 ** -40
_ONE, _NIL = Polynomial([1]), Polynomial([0])
_Z = Polynomial([0, 1])


def is_infinite(w):
    """True for the infinity marker (any non-finite complex value)."""
    return not (math.isfinite(w.real) and math.isfinite(w.imag))


class NotNormalizableError(ValueError):
    """The expression does not reduce to (num/den) * exp(p)."""


class IndeterminatePointError(ValueError):
    """Evaluation hit 0/0; the caller should perturb the point."""


class ParseError(ValueError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# ---------------------------------------------------------------------------
# terms: the factored canonical form

@dataclass(frozen=True)
class Canonical:
    """f = (lead/den_lead) prod b^e exp(expo), factors the pairs (b, e): b monic,
    linear with distinct roots (each a zero of order e > 0 or a pole of order
    -e) unless derivative made it, _split kept it whole or it is a piece's
    lone polynomial (_Piece.expr), and e a nonzero int, positive exponents
    first.  lead (0 for f = 0) and den_lead stay apart, so their quotient
    cannot overflow.  num and den are the expanded products."""

    lead: complex
    den_lead: complex
    factors: tuple
    expo: Polynomial

    num = cached_property(lambda self: math.prod(
        (b ** e for b, e in self.factors if e > 0), start=Polynomial([self.lead])))
    den = cached_property(lambda self: math.prod(
        (b ** -e for b, e in self.factors if e < 0), start=Polynomial([self.den_lead])))

    def derivative(self, k=1):
        """The k-th derivative, exact: f' = lead prod b^(e-1) exp(expo) H, with
        H = expo' P + sum e b' P/b and P = prod b, kept as one whole base.  At
        a root of b, H = e b' P/b != 0, so each order moves by one with no
        root finding; f' = 0 exactly when H = 0.  Where f is regular at
        infinity (expo constant, sum e deg b = 0) the top terms of H cancel:
        a top coefficient within _ROUNDING * sum |e| deg b of the next one of
        prod |b| (the bases with their coefficients' moduli) is that rounding."""
        c = self
        for _ in range(k):
            left = [_ONE]  # left[i] = prod of the first i bases: no division by
            for b, _e in c.factors:  # b, as deflation amplifies rounding
                left.append(left[-1] * b)
            h, right = (c.expo.derivative() * left[-1] if c.expo.degree else _NIL), _ONE
            for i in range(len(c.factors) - 1, -1, -1):
                b, e = c.factors[i]
                h = h + (left[i] * right * (b.derivative() if b.degree > 1 else _ONE)) * e
                right = right * b
            if h.degree and not c.expo.degree and not sum(e * b.degree for b, e in c.factors):
                size = _ONE
                for b, _e in c.factors:
                    size = size * Polynomial._of([abs(x) for x in b.coefficients])
                noise = _ROUNDING * sum(abs(e) * b.degree for b, e in c.factors)
                h = _drop_top(h, [noise * x.real for x in size.coefficients[1:]])
            if h.is_zero:
                return _ZERO
            factors = ([(b, e - 1) for b, e in c.factors if e > 1] + [(_monic(h), 1)] * (h.degree > 0)
                       + [(b, e - 1) for b, e in c.factors if e < 0])
            c = Canonical(c.lead * h.leading, c.den_lead, tuple(factors), c.expo)
        return c

    def values(self, zs, shift=None):
        """f at a numpy scalar or array zs, raw: a root of a base with e < 0
        gives inf or NaN, and an overflow inf.  With a real shift like zs,
        f exp(-shift), the shift taken inside the exponential."""
        if not self.factors and self.expo.is_zero and shift is None:
            return np.full_like(zs, self.lead / self.den_lead)
        top = [self.lead] * (self.lead != 1)
        bottom = [self.den_lead] * (self.den_lead != 1)
        for b, e in self.factors:
            w = zs + b.coefficients[0] if b.degree == 1 else b(zs)
            (top if e > 0 else bottom).append(w if abs(e) == 1 else w ** abs(e))
        if shift is not None:
            top.append(np.exp(self.expo(zs) - shift))
        elif not self.expo.is_zero:
            top.append(np.exp(self.expo(zs)))
        return math.prod(top) / math.prod(bottom) if bottom else math.prod(top)

    def log(self, zs):
        """Complex log f on an ndarray of points, log lead - log den_lead + expo
        + sum e log b(z) with no product expanded: a linear base is log(z - a), a
        whole one _log_poly; a root of b gives real part -inf for e > 0, else +inf."""
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            logs = self.expo(zs) + (np.log(complex(self.lead)) - np.log(complex(self.den_lead)))
            for b, m in self.factors:
                w = np.log(zs + b.coefficients[0]) if b.degree == 1 else _log_poly(b, zs)
                logs.real += m * w.real  # not m * w: m * (-inf + 0j) has a NaN part
                logs.imag += m * w.imag
        return logs

    def log_abs(self, zs):
        """log|f| on an ndarray of points, the real part of log."""
        return self.log(zs).real


_ZERO = Canonical(0j, 1 + 0j, (), _NIL)


def _drop_top(h, floor):
    """h without the top coefficients that lie within floor[k] at their degree k."""
    top = list(h.coefficients)
    while len(top) > 1 and abs(top[-1]) <= floor[len(top) - 1]:
        top.pop()
    return Polynomial._of(top)


def _monic(p):
    """p over its leading coefficient; p itself where that is 1, so that the
    roots found on a base stay with it (_roots)."""
    if p.leading == 1:
        return p
    return Polynomial._of([c / p.leading for c in p.coefficients[:-1]] + [1 + 0j])


def _roots(b):
    """poly_roots of the base b, found once per base object and kept on it;
    a RootFindingError is kept too and raised again."""
    try:
        roots = b._roots
    except AttributeError:
        try:
            roots = poly_roots(b)
        except RootFindingError as error:
            roots = error
        b._roots = roots
    if isinstance(roots, RootFindingError):
        raise roots.with_traceback(None)
    return roots


def _deflated(p, root):
    """p / (z - root) by synthetic division, the remainder dropped."""
    q = list(p.coefficients)
    for j in range(len(q) - 1, 0, -1):
        q[j - 1] += q[j] * root
    return Polynomial._of(q[1:])


def _same(b, c):
    """Whether the bases b and c are one: linear ones whose roots agree within
    _ROUNDING of their moduli, so a root exactly 0 matches only itself."""
    x, y = b.coefficients, c.coefficients
    if x == y:
        return True
    if len(x) != 2 or len(y) != 2:
        return False
    d = abs(x[0] - y[0])
    return d <= _ROUNDING * abs(x[0]) or d <= _ROUNDING * abs(y[0])


def _merge(factors):
    """The (base, exponent) pairs with equal bases joined, _ordered."""
    out = []
    for b, e in factors:
        for i, (c, m) in enumerate(out):
            if _same(b, c):
                out[i] = (c, m + e)
                break
        else:
            out.append((b, e))
    return _ordered(out)


def _ordered(factors):
    """The factors of positive exponent first, then the negative ones, each
    in order, as print_expr writes them; exponent 0 dropped."""
    return tuple(f for f in factors if f[1] > 0) + tuple(f for f in factors if f[1] < 0)


def _split(p, expo=_NIL, den_lead=1 + 0j, factors=()):
    """p/den_lead * prod factors * exp(expo), p split into linear bases by
    the roots of its monic form (_roots).  Where poly_roots fails, or the
    product of its roots is not that form within _ROUNDING of its largest
    coefficient (an ill-conditioned p, whose derivative from those roots
    would be wrong), the monic form stays one whole base, and splitting it
    again decides the same from the same roots."""
    if p.is_zero:
        return _ZERO
    bases = [(_monic(p), 1)] if p.degree else []
    if p.degree < 2 and not factors:
        return Canonical(p.leading, den_lead, tuple(bases), expo)
    if p.degree > 1:
        m = bases[0][0]
        try:
            roots = [x for x, k in _roots(m) for _ in range(k)]
        except RootFindingError:
            roots = []
        q = Polynomial.from_roots(roots)
        if roots and max(map(abs, (m - q).coefficients)) <= _ROUNDING * max(map(abs, m.coefficients)):
            bases = [(Polynomial._of([-x, 1 + 0j]), 1) for x in roots]
    return Canonical(p.leading, den_lead, _merge(list(factors) + bases), expo)


def _times(cs, split=False):
    """The product of the terms.  Where bases of two or more terms meet, or
    split is set, a whole base is split by _split first, so that a root
    shared by chance, as in (z^3+1)'/z = 3z^2/z, joins its linear base."""
    lead = math.prod(c.lead for c in cs)
    if lead == 0:
        return _ZERO
    expo, factors = _NIL, [f for c in cs for f in c.factors]
    for c in cs:
        if not c.expo.is_zero:
            expo = c.expo if expo is _NIL else expo + c.expo
    if split or sum(bool(c.factors) for c in cs) > 1:
        if any(b.degree > 1 for b, _e in factors):
            factors = [(x, m * e) for b, e in factors
                       for x, m in (_split(b).factors if b.degree > 1 else [(b, 1)])]
        factors = _merge(factors)
    return Canonical(lead, math.prod(c.den_lead for c in cs), tuple(factors), expo)


def _power(c, k):
    """c^k for k >= 1, leads by products: complex ** k raises on overflow."""
    if k == 1:
        return c
    return Canonical(complex(math.prod([c.lead] * k)), complex(math.prod([c.den_lead] * k)),
                     tuple((b, m * k) for b, m in c.factors), c.expo * k)


def _add(cs):
    """The sum of terms with one exponential part: each base is factored out
    at its least exponent over the terms, and the remainders, over the
    common den_lead, add into one polynomial H that _split splits.  Where
    the top terms cancel, a top coefficient of H within _ROUNDING of the sum
    of the terms' coefficient moduli at its degree is that rounding and is
    dropped.  H can vanish at a root of a base only at a tie, where two
    terms share a nonzero least exponent; there it is divided by the base
    while it vanishes within _ROUNDING, as in (z+1)/(z-1) - 2/(z-1) = 1.
    Where bases of two or more terms meet, a whole base is split first, as
    in _times, so that the tie of z^2/(z^2+1) + 1/(z^2+1) is seen."""
    if sum(bool(c.factors) for c in cs) > 1:
        cs = [_times([c], split=True) if any(b.degree > 1 for b, _e in c.factors) else c for c in cs]
    bases = []
    for b, _e in (f for c in cs for f in c.factors):
        if not any(_same(b, u) for u in bases):
            bases.append(b)
    rows = [[sum(e for b, e in c.factors if _same(b, u)) for u in bases] for c in cs]
    least = [min(column) for column in zip(*rows)]
    h = size = _NIL
    for j, (c, row) in enumerate(zip(cs, rows)):
        term = Polynomial([c.lead * math.prod(d.den_lead for d in cs[:j] + cs[j + 1:])])
        for b, e, m in zip(bases, row, least):
            term = term * b ** (e - m)
        h = h + term
        size = size + Polynomial._of([abs(x) for x in term.coefficients])
    h = _drop_top(h, [_ROUNDING * x.real for x in size.coefficients])
    for i, b in enumerate(bases):
        root = -b.coefficients[0]
        if b.degree == 1 and least[i] and sum(row[i] == least[i] for row in rows) > 1:
            while h.degree and abs(h(root)) <= _ROUNDING * h.abs_coeff_value(abs(root)):
                h, least[i] = _deflated(h, root), least[i] + 1
    return _split(h, cs[0].expo, math.prod(c.den_lead for c in cs), zip(bases, least))


def _sum(terms):
    """The terms with equal expo joined by _add, zero terms dropped, in order
    of first appearance."""
    groups = {}
    for c in terms:
        if c.lead != 0:
            groups.setdefault(c.expo, []).append(c)
    joined = (g[0] if len(g) == 1 else _add(g) for g in groups.values())
    return tuple(c for c in joined if c.lead != 0)


def _product(xs, ys):
    """The product of two sums of terms, () standing for 1."""
    if not xs or not ys:
        return xs or ys
    return _sum([_times([x, y]) for x in xs for y in ys])


def _expand(s, m):
    """The sum s^m multiplied out, () for m = 0."""
    return reduce(_product, [s] * m, ())


def _derived(terms, k):
    """The nonzero k-th derivatives of the terms."""
    return tuple(d for d in (c.derivative(k) for c in terms) if d.lead != 0)


# ---------------------------------------------------------------------------
# functions: a numerator and a denominator of terms

@dataclass(frozen=True)
class Expr:
    """f = sum(num) / sum(den)^power, Canonical terms with nonzero lead and
    pairwise distinct expo on each side.  num () is the zero function; den
    () is 1 with power 0, and otherwise holds at least two terms, as one is
    inverted into the numerator, with power >= 1.  Build it with Const, Var,
    Poly, Exp, parse and the combinators; the operators are sugar for them."""

    num: tuple
    den: tuple = ()
    power: int = 0

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return add(self, mul(-1, other))

    def __rsub__(self, other):
        return add(other, mul(-1, self))

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __pow__(self, k):
        return pow_int(self, k)

    def __neg__(self):
        return mul(Const(-1), self)

    def __str__(self):
        return print_expr(self)


def _one(c):
    """The function of the one term c, or of none where c is 0."""
    return Expr((c,) if c.lead != 0 else ())


def Const(value):
    """The constant function value."""
    return _one(Canonical(complex(value), 1 + 0j, (), _NIL))


def Var():
    """The function z."""
    return Expr((Canonical(1 + 0j, 1 + 0j, ((_Z, 1),), _NIL),))


def Poly(p):
    """The polynomial p, split into linear bases by _split."""
    return _one(_split(p))


def Exp(p):
    """exp(p) for a Polynomial p."""
    return Expr((Canonical(1 + 0j, 1 + 0j, (), p),))


def _coerce(x):
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, float, complex)):
        return Const(x)
    raise TypeError(f"cannot use {type(x).__name__} as an expression")


def _divided(num, c):
    """Each term of num divided by the term c, inverted into it; a term
    whose lead underflows to 0 is dropped."""
    inverse = Canonical(c.den_lead, c.lead, _ordered([(b, -m) for b, m in c.factors]), -c.expo)
    return tuple(t for t in (_times([d, inverse]) for d in num) if t.lead != 0)


def _over(num, den, power=1):
    """num/den^power as an Expr, power > 1 only where den has several terms:
    a denominator of one term is inverted into each numerator term."""
    if not num or not den:
        return Expr(num)
    if len(den) > 1:
        return Expr(num, den, power)
    return Expr(_divided(num, den[0]))


def add(*terms):
    """The sum: terms with one exponential part join through _add, all of a
    group at once.  Over one sum S, S^m + S^n lifts the lower power to the
    higher; unequal denominators multiply out, crossed, at power 1."""
    es = [e for e in map(_coerce, terms) if e.num]
    if not es:
        return Expr(())
    num, den, m = es[0].num, es[0].den, es[0].power
    for e in es[1:]:
        s = den or e.den
        if e.den in ((), s):
            high = max(m, e.power)
            num = _product(num, _expand(s, high - m)) + _product(e.num, _expand(s, high - e.power))
            den, m = s, high
        else:
            num = _product(num, _expand(e.den, e.power)) + _product(e.num, _expand(den, m))
            den, m = _product(_expand(den, m), _expand(e.den, e.power)), 1
    return _over(_sum(num), den, m)


def mul(*factors):
    """The product: one term each multiplies in one _times.  Powers of one
    sum S add; unequal denominators multiply out at power 1."""
    es = [_coerce(f) for f in factors]
    if any(not e.num for e in es):
        return Expr(())
    if all(len(e.num) == 1 and not e.den for e in es):
        return _one(_times([e.num[0] for e in es]))
    num, den, m = (), (), 0
    for e in es:
        num, s = _product(num, e.num), den or e.den
        if e.den in ((), s):
            den, m = s, m + e.power
        else:
            den, m = _product(_expand(den, m), _expand(e.den, e.power)), 1
    return _over(num, den, m)


def div(num, den):
    """The quotient: numerators and denominators cross, and a denominator
    of one term inverts into each numerator term (_over).  A divisor of one
    term inverts into the numerator, so N/S^m over it keeps S^m; dividing
    N/S^m by S/T^n gives N T^n / S^(m+1); other denominators multiply out
    at power 1."""
    a, b = _coerce(num), _coerce(den)
    if not b.num:
        raise ZeroDivisionError("division by the zero function")
    if not a.num:
        return a
    if len(b.num) == 1 and not b.den:
        return _over(_divided(a.num, b.num[0]), a.den, a.power)
    top = _product(a.num, _expand(b.den, b.power))
    if b.num == a.den:
        return _over(top, a.den, a.power + 1)
    return _over(top, _product(_expand(a.den, a.power), b.num))


def pow_int(base, k):
    if not isinstance(k, int):
        raise ValueError("exponents must be integers")
    base = _coerce(base)
    if k < 0 and len(base.num) > 1 and not base.den:  # 1/S^-k, not multiplied out
        return Expr(Const(1).num, base.num, -k)
    if k < 0:
        return div(Const(1), pow_int(base, -k))
    if k == 0:
        return Const(1)
    if len(base.num) == 1 and not base.den:
        return _one(_power(base.num[0], k))
    return mul(*[base] * k)


def differentiate(e, k=1):
    """k-th derivative of e, k >= 1: Canonical.derivative per term, exact
    and with no root finding.  Over a denominator S^m of several terms, the
    quotient rule (N/S^m)' = (N'S - m N S')/S^(m+1), k times, with the
    numerator's whole bases split, as parse splits what print_expr writes."""
    if not isinstance(k, int) or k < 1:
        raise ValueError("derivative order must be a positive integer")
    e = _coerce(e)
    if not e.den:
        return Expr(_derived(e.num, k))
    for _ in range(k):
        n, s, m = e.num, e.den, e.power
        minus = Canonical(complex(-m), 1 + 0j, (), _NIL)
        parts = [_times([c, u], True) for c in _derived(n, 1) for u in s]
        parts += [_times([minus, c, u], True) for c in n for u in _derived(s, 1)]
        e = _over(_sum(parts), s, m + 1)
    return e


def canonicalize(e):
    """The one term of e over 1, its factored Canonical form; a sum of
    distinct exponential parts, or a quotient of such sums, has none."""
    e = _coerce(e)
    if e.den or len(e.num) > 1:
        raise NotNormalizableError("sum mixes distinct exponential parts; no canonical form")
    c = e.num[0] if e.num else _ZERO
    if c.den_lead == 0:
        raise ZeroDivisionError("denominator is identically zero")
    return c


def substitute_affine(e, a, b):
    """The function z -> e(a*z + b), a != 0, term by term with no root
    finding: each base is composed and made monic again, its leading
    coefficient^|e| moving into lead (e > 0) or den_lead (e < 0), and expo
    is composed."""
    a, b = complex(a), complex(b)
    if a == 0:
        raise ValueError("substitute_affine needs a != 0")

    def term(c):
        lead, den_lead, factors = c.lead, c.den_lead, []
        for p, m in c.factors:
            q = Polynomial._of([b + p.coefficients[0], a]) if p.degree == 1 else p.compose_affine(a, b)
            scale = math.prod([q.leading] * abs(m))
            if m > 0:
                lead *= scale
            else:
                den_lead *= scale
            factors.append((_monic(q), m))
        return Canonical(lead, den_lead, tuple(factors), c.expo.compose_affine(a, b))

    return Expr(tuple(map(term, e.num)), tuple(map(term, e.den)), e.power)


# ---------------------------------------------------------------------------
# evaluation

def evaluate(e, z):
    """Value of e at a point or an ndarray of points, classified on the sphere.

    evaluate_on_grid computes every value, a point as a numpy scalar; only
    where a value is not finite does _classify decide, once per call, what
    the point is.  A pole or an overflow reads as the INFINITY marker, a
    removable singularity as its limit, and 0/0 without a canonical form
    raises IndeterminatePointError.  A point gives a complex, an ndarray an
    ndarray of the same shape.
    """
    zs = np.asarray(z, dtype=complex)
    vals = np.atleast_1d(evaluate_on_grid(e, zs))
    bad = ~np.isfinite(vals)
    if bad.any():
        vals[bad] = _classify(e, np.atleast_1d(zs)[bad], vals[bad])
    return vals if zs.ndim else complex(vals[0])


def _classify(e, zs, raw):
    """Values of e at points where evaluate_on_grid gave the raw inf or NaN.

    Where e is one term, each value is computed again as the exp of its
    Canonical.log, so overflowing factors that cancel, as in
    exp(z)/exp(z), give their finite value and a root of a base with e < 0
    is a pole.  Otherwise raw is kept.
    An infinite part then reads as INFINITY and NaN raises
    IndeterminatePointError.
    """
    vals = raw
    if len(e.num) == 1 and not e.den:
        with np.errstate(invalid="ignore", over="ignore"):
            vals = np.exp(e.num[0].log(zs))
    pole = np.isinf(vals.real) | np.isinf(vals.imag)
    undecided = np.isnan(vals) & ~pole
    if undecided.any():
        raise IndeterminatePointError(f"0/0 at z = {complex(zs[undecided][0])}")
    return np.where(pole, INFINITY, vals)


def _log_poly(p, zs):
    """Complex log p(z); where |z| > 1 it is d log z + log(z^-d p(z)), with
    z^-d p(z) the reversed coefficients at 1/z, so p(z) never overflows."""
    big = np.abs(zs) > 1
    w = np.where(big, 1 / zs, zs)
    rev = Polynomial(p.coefficients[::-1])
    return np.where(big, p.degree * np.log(zs) + np.log(rev(w)), np.log(p(w)))


def evaluate_on_grid(e, zs):
    """Raw vectorized values of e at a point or over an ndarray of points.

    Poles and overflow show up as inf, 0/0 and inf - inf as NaN, unclassified,
    for callers that mask them (spherical_derivative retries those points
    on 1/f); evaluate classifies them instead.  Over a denominator S^m of
    several terms, S and the numerator are scaled by exp(-M) and exp(-m M),
    with M the largest Re expo of the terms of S at each point, so that
    neither overflows where their quotient does not.
    """
    zs = np.asarray(zs, dtype=complex)[()]  # a point as a numpy scalar, not 0-d
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if not e.den:
            return _values(e.num, zs)
        shift = reduce(np.maximum, [c.expo(zs).real for c in e.den])
        return _values(e.num, zs, e.power * shift) / _values(e.den, zs, shift) ** e.power


def _values(terms, zs, shift=None):
    vals = [c.values(zs, shift) for c in terms] or [np.zeros_like(zs)]
    return sum(vals[1:], vals[0])


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
    only: 1/f swaps the numerator and the denominator of f, and a term's
    exponents, so no point of f is lost and none is added.  Array input gives an
    ndarray of the same shape with NaN at points that are still undefined;
    a scalar point gives a float and raises ValueError when it is undefined.
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


# ---------------------------------------------------------------------------
# divisors

@dataclass(frozen=True)
class Divisor:
    """Finite weighted point set (zeros or poles) with positive multiplicities."""

    entries: tuple  # ((point, multiplicity), ...) sorted by (re, im)
    kind: str

    @classmethod
    def from_pairs(cls, pairs, kind):
        pairs = [(complex(z), int(m)) for z, m in pairs if m > 0]
        pairs.sort(key=lambda e: (e[0].real, e[0].imag))
        return cls(tuple(pairs), kind)

    def truncated(self):
        """Same support, every multiplicity clamped to 1."""
        return Divisor(tuple((z, 1) for z, _ in self.entries), self.kind)

    def count_within(self, t):
        """Sum of multiplicities over points with |z| <= t."""
        return sum(m for z, m in self.entries if abs(z) <= t)

    @property
    def total(self):
        return sum(m for _, m in self.entries)

    @property
    def is_empty(self):
        return not self.entries

    def as_dict(self):
        return {z: m for z, m in self.entries}

    def __len__(self):
        return len(self.entries)


def divisors(e):
    """Zero and pole divisors of e as (zeros, poles), read off its canonical
    form with each whole base that _split can split taken as its linear
    bases and merged (_times), the form FunctionData reads."""
    c = canonicalize(e)
    if c.lead == 0:
        raise ValueError("the zero function has no divisor")
    if any(b.degree > 1 for b, _e in c.factors):
        c = _times([c], split=True)
    return canonical_divisors(c, 1), canonical_divisors(c, -1)


def canonical_divisors(c, sign):
    """The zeros (sign 1) or the poles (sign -1) of the canonical form c: the
    root of a linear base b^e, of order sign * e > 0, and the roots of a
    whole base, found once per base (_roots)."""
    pairs = [(x, m * e * sign) for b, e in c.factors if e * sign > 0
             for x, m in ([(-b.coefficients[0], 1)] if b.degree == 1 else _roots(b))]
    return Divisor.from_pairs(pairs, "zeros" if sign > 0 else "poles")


# ---------------------------------------------------------------------------
# parsing

_SYMBOLS = set("+-*/^()[],")


def _tokenize(text):
    """(kind, value, position, lexeme) tokens, ending with an "end" token."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _SYMBOLS:
            tokens.append((ch, ch, i, ch))
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            lexeme = text[i:j]
            try:
                value = float(lexeme)
            except ValueError:
                raise ParseError(f"bad number {lexeme!r}", i) from None
            if not math.isfinite(value):
                raise ParseError(f"number out of range {lexeme!r}", i)
            if j < n and text[j] == "i":
                tokens.append(("number", complex(0.0, value), i, text[i:j + 1]))
                j += 1
            else:
                tokens.append(("number", complex(value, 0.0), i, lexeme))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i, text[i:j]))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n, None))
    return tokens


class _Piece:
    """A product of polynomial pieces as read: lead/den_lead * prod p^k over
    the Polynomials p typed between the operators.  It folds into one
    Polynomial where a sum or exp needs it, and becomes a term (lead and
    den_lead kept apart) where it meets anything else: each p split by
    _split, but the only p of a piece stays one whole monic base where it
    has degree 2 or more, a nonzero constant term and roots that poly_roots
    finds all simple (_lone).  So parse(print_expr(f)) rebuilds the lead and
    the bases of f bit for bit."""

    __slots__ = ("lead", "den_lead", "factors")

    def __init__(self, lead, den_lead=1 + 0j, factors=()):
        self.lead, self.den_lead, self.factors = lead, den_lead, factors

    @classmethod
    def of(cls, p):
        return cls(p.coefficients[0]) if p.degree == 0 else cls(1 + 0j, 1 + 0j, ((p, 1),))

    def poly(self):
        acc = Polynomial._of([self.lead])
        for p, k in self.factors:
            acc = acc * p ** k
        return acc if self.den_lead == 1 else acc * (1 / self.den_lead)

    def expr(self):
        lead, factors = self.lead, []
        for p, k in self.factors:
            b = _monic(p)
            lead *= p.leading if k == 1 else math.prod([p.leading] * k)
            if len(self.factors) == 1 and _lone(b):
                factors.append((b, k))
            else:
                factors += [(x, m * k) for x, m in _split(b).factors]
        return _one(Canonical(lead, self.den_lead, _merge(factors), _NIL))


def _lone(b):
    """Whether the monic b, the only polynomial of a piece, stays one whole
    base: degree 2 or more, a nonzero constant term (a zero root is exact
    either way) and roots that poly_roots finds, all simple."""
    if b.degree < 2 or b.coefficients[0] == 0:
        return False
    try:
        return all(m == 1 for _, m in _roots(b))
    except RootFindingError:
        return False


def _expr(node):
    return node.expr() if isinstance(node, _Piece) else node


def _constant(node):
    return isinstance(node, _Piece) and not node.factors


def _finite(node):
    """Whether the leads of a piece, or of every term of a function, are finite."""
    terms = [node] if isinstance(node, _Piece) else node.num
    return all(cmath.isfinite(c.lead) and cmath.isfinite(c.den_lead) for c in terms)


def _overflow(op):
    return ParseError(f"{op[3]!r} overflows the double range", op[2])


class _Parser:
    def __init__(self, tokens, params):
        self.tokens = tokens
        self.pos = 0
        self.params = params

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            found = "end of input" if tok[0] == "end" else repr(tok[3])
            raise ParseError(f"expected {kind!r}, found {found}", tok[2])
        return tok

    def parse_expr(self):
        node = self.parse_term()
        while self.peek()[0] in "+-":
            op = self.next()
            rhs = self.parse_term()
            if op[0] == "-":
                rhs = _negate(rhs)
            if isinstance(node, _Piece) and isinstance(rhs, _Piece):
                p = node.poly() + rhs.poly()
                if not all(map(cmath.isfinite, p.coefficients)):
                    raise _overflow(op)
                node = _Piece.of(p)
            else:
                node = add(_expr(node), _expr(rhs))
        return node

    def parse_term(self):
        node = self.parse_unary()
        while self.peek()[0] in "*/":
            op = self.next()
            rhs = self.parse_unary()
            if op[0] == "/":
                node = _quotient(node, rhs)
                continue
            scaled = _constant(node) or _constant(rhs)
            if isinstance(node, _Piece) and isinstance(rhs, _Piece):
                node = _Piece(node.lead * rhs.lead, node.den_lead * rhs.den_lead,
                              node.factors + rhs.factors)
            else:
                node = mul(_expr(node), _expr(rhs))
            if scaled and not _finite(node):  # a constant factor left the double range
                raise _overflow(op)
        return node

    def parse_unary(self):
        if self.peek()[0] == "-":
            self.next()
            return _negate(self.parse_unary())
        if self.peek()[0] == "+":
            self.next()
            return self.parse_unary()
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        if self.peek()[0] != "^":
            return base
        op = self.next()
        k = self.parse_int_exponent()
        if not isinstance(base, _Piece) or k < 0 and base.factors:
            return pow_int(_expr(base), k)
        if k < 0:  # of a constant
            if base.lead == 0:
                raise ZeroDivisionError("division by the zero function")
            base, k = _Piece(base.den_lead, base.lead), -k
        node = _Piece(complex(math.prod([base.lead] * k)), complex(math.prod([base.den_lead] * k)),
                      tuple((p, m * k) for p, m in base.factors if k))
        if not base.factors and not _finite(node):
            raise _overflow(op)
        return node

    def parse_int_exponent(self):
        tok = self.peek()
        if tok[0] == "(":
            self.next()
            k = self.parse_int_exponent()
            self.expect(")")
            return k
        sign = 1
        if tok[0] == "-":
            self.next()
            sign = -1
            tok = self.peek()
        if tok[0] != "number":
            raise ParseError("exponent must be an integer", tok[2])
        self.next()
        v = tok[1]
        if v.imag != 0 or v.real != int(v.real):
            raise ParseError("exponent must be an integer", tok[2])
        return sign * int(v.real)

    def parse_atom(self):
        kind, value, pos, lexeme = self.next()
        if kind == "number":
            return _Piece(value)
        if kind == "(":
            node = self.parse_expr()
            self.expect(")")
            return node
        if kind == "name":
            if value == "z":
                return _Piece(1 + 0j, 1 + 0j, ((_Z, 1),))
            if value == "i":
                return _Piece(1j)
            if value == "exp":
                self.expect("(")
                arg = self.parse_expr()
                self.expect(")")
                if isinstance(arg, _Piece):
                    return Exp(arg.poly())
                c = arg.num[0] if arg.num else _ZERO
                if len(arg.num) > 1 or arg.den or any(e < 0 for _, e in c.factors) or not c.expo.is_zero:
                    raise ParseError(
                        "unsupported construct: exp argument must be a polynomial",
                        pos,
                    )
                return Exp(c.num * (1 / c.den_lead))  # a polynomial that D[...] made
            if value == "D":
                self.expect("[")
                arg = self.parse_expr()
                self.expect(",")
                tok = self.expect("number")
                order = tok[1]
                if order.imag != 0 or order.real != int(order.real) or order.real < 1:
                    raise ParseError("derivative order must be a positive integer", tok[2])
                self.expect("]")
                return differentiate(_expr(arg), int(order.real))
            if value in self.params:
                return _Piece(complex(self.params[value]))
            raise ParseError(f"unknown symbol {value!r}", pos)
        if kind == "end":
            raise ParseError("unexpected end of input", pos)
        raise ParseError(f"unexpected token {lexeme!r}", pos)


def _negate(node):
    if isinstance(node, _Piece):
        return _Piece(node.lead * -1, node.den_lead, node.factors)
    return mul(Const(-1), node)


def _quotient(node, rhs):
    """node / rhs; a piece over a constant piece stays a piece, with its
    den_lead apart, so exp((z^2+1)/2) folds and (2*z)/3 keeps 2 and 3."""
    if isinstance(node, _Piece) and _constant(rhs):
        if rhs.lead == 0:
            raise ZeroDivisionError("division by the zero function")
        return _Piece(node.lead * rhs.den_lead, node.den_lead * rhs.lead, node.factors)
    return div(_expr(node), _expr(rhs))


def parse(text, params=None):
    """Parse the expression grammar; params maps extra symbols to constants.

    Sums of polynomial pieces fold as Polynomials while they are read, and
    an operator that folds coefficients out of the double range, or
    multiplies a constant factor out of it, is a ParseError."""
    parser = _Parser(_tokenize(text), dict(params or {}))
    node = parser.parse_expr()
    end = parser.next()
    if end[0] != "end":
        raise ParseError(f"trailing input {end[3]!r}", end[2])
    return _expr(node)


def parse_complex(text):
    """Parse a literal like '2', '-1.5', '1+2i', '3i' into a complex number."""
    e = parse(text)
    c = e.num[0] if e.num else _ZERO
    if len(e.num) > 1 or e.den or c.factors or not c.expo.is_zero:
        raise ValueError(f"expected a complex literal, got {text!r}")
    return c.lead if c.den_lead == 1 else c.lead / c.den_lead


# ---------------------------------------------------------------------------
# printing

def _fmt_float(x):
    if abs(x) < 1e16 and x == int(x):  # inf and NaN print as their repr
        return repr(float(x))
    return repr(x)


def _fmt_const(c):
    re, im = c.real, c.imag
    if im == 0:
        s = _fmt_float(re)
        return f"({s})" if re < 0 else s
    if re == 0:
        s = f"{_fmt_float(abs(im))}i"
        return f"(-{s})" if im < 0 else s
    sign = "+" if im > 0 else "-"
    return f"({_fmt_float(re)}{sign}{_fmt_float(abs(im))}i)"


def _fmt_coeff_factor(c):
    """Coefficient prefix for a monomial, e.g. '' for 1, '-' for -1."""
    if c == 1:
        return ""
    if c == -1:
        return "-"
    return _fmt_const(c) + "*"


def _fmt_poly(p):
    if p.is_zero:
        return "0.0"
    pieces = []
    for k in range(p.degree, -1, -1):
        c = p.coefficients[k]
        if c == 0:
            continue
        if k == 0:
            if c.imag == 0 and c.real < 0:
                term = "-" + _fmt_float(abs(c.real))
            else:
                term = _fmt_const(c)
        elif k == 1:
            term = _fmt_coeff_factor(c) + "z"
        else:
            term = _fmt_coeff_factor(c) + f"z^{k}"
        pieces.append(term)
    out = pieces[0]
    for term in pieces[1:]:
        out += "+" + term if not term.startswith("-") else term
    return out


def _fmt_base(b, e):
    s = _fmt_poly(b)
    s = s if s == "z" else f"({s})"
    return s if e == 1 else f"{s}^{e}"


def _fmt_term(c):
    top = [_fmt_base(b, e) for b, e in c.factors if e > 0]
    bottom = [_fmt_base(b, -e) for b, e in c.factors if e < 0]
    if not c.expo.is_zero:
        top.append(f"exp({_fmt_poly(c.expo)})")
    if c.lead != 1 or not top:
        top.insert(0, _fmt_const(c.lead))
    if c.den_lead != 1:
        bottom.insert(0, _fmt_const(c.den_lead))
    num, den = "*".join(top), "*".join(bottom)
    if not bottom:
        return num
    wrapped = len(bottom) == 1 and den[0] == "(" and den[-1] == ")"  # one base or constant
    return f"({num})/{den}" if wrapped else f"({num})/({den})"


def _fmt_sum(terms):
    return "+".join(map(_fmt_term, terms)) or "0.0"


def print_expr(e):
    """Render e in the accepted grammar, term by term: the lead, the bases
    of positive exponent (a linear one as the typed factor (z-a), a whole
    one as its polynomial) and exp(expo), over den_lead and the bases of
    negative exponent.  A denominator S of several terms follows a slash,
    or at a power m > 1 is written (N)*(S)^(-m), as (S)^m would multiply S
    out.  parse(print_expr(e)) rebuilds the same terms and power bit for
    bit, but a whole base comes back split where _Piece.expr splits a typed
    polynomial: beside other bases, or with a zero or a multiple root.  A
    whole base alone in its term, such as z^2 + 1 or the H of D[z^3+z,1],
    stays whole."""
    if not e.den:
        return _fmt_sum(e.num)
    if e.power == 1:
        return f"({_fmt_sum(e.num)})/({_fmt_sum(e.den)})"
    return f"({_fmt_sum(e.num)})*({_fmt_sum(e.den)})^(-{e.power})"


def _csv_text(header, rows):
    """A report table as CSV: the header line, then one line per row, each
    value by repr and None as an empty field."""
    lines = [header] + [",".join("" if v is None else repr(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"
