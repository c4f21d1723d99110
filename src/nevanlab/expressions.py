"""Symbolic expressions closed under arithmetic, powers, and differentiation.

The tractable class is generated by rational functions and exponentials of
polynomials.  Every member that matters for divisor extraction has the
factored canonical form (lead/den_lead) * prod b^e * exp(p), monic bases b
with integer exponents e: products, quotients, powers and derivatives act on
the exponents, so multiplicities follow from the structure, never estimated.
Sums that mix distinct exponentials have no canonical form.

Expression grammar accepted by parse() and emitted by print_expr():
complex literals (3, 2.5, 1i, 1+2i as arithmetic), the variable z, + - * /,
^ with integer exponents, exp(polynomial), and D[expr, k] which constructs
the k-th derivative on the spot.  Sums and scalar multiples of polynomial
pieces fold into one Polynomial, as add and mul fold them; a product of
nonconstant pieces stays a Product and p^k (k >= 2) a Power, so the factors
the user typed are kept.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .polynomials import Polynomial, RootFindingError, poly_roots

INFINITY = complex(math.inf, 0.0)

# Two linear bases whose roots agree within _ROUNDING (1 + |root|) are one; a
# polynomial within _ROUNDING of its coefficients' scale is 0 (_split, _add, derivative).
_ROUNDING = 2.0 ** -40
_ONE, _NIL = Polynomial([1]), Polynomial([0])


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


class Expr:
    """Base class carrying operator sugar; nodes are frozen dataclasses."""

    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return add(self, mul(Const(-1), _coerce(other)))

    def __rsub__(self, other):
        return add(_coerce(other), mul(Const(-1), self))

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __truediv__(self, other):
        return div(self, _coerce(other))

    def __rtruediv__(self, other):
        return div(_coerce(other), self)

    def __pow__(self, k):
        return pow_int(self, k)

    def __neg__(self):
        return mul(Const(-1), self)

    def __str__(self):
        return print_expr(self)


@dataclass(frozen=True)
class Const(Expr):
    value: complex

    def __post_init__(self):
        object.__setattr__(self, "value", complex(self.value))


@dataclass(frozen=True)
class Var(Expr):
    pass


@dataclass(frozen=True)
class Poly(Expr):
    poly: Polynomial


@dataclass(frozen=True)
class Exp(Expr):
    exponent: Polynomial


@dataclass(frozen=True)
class Sum(Expr):
    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))


@dataclass(frozen=True)
class Product(Expr):
    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))


@dataclass(frozen=True)
class Power(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True)
class Quotient(Expr):
    numerator: Expr
    denominator: Expr


def _coerce(x):
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, float, complex)):
        return Const(x)
    raise TypeError(f"cannot use {type(x).__name__} as an expression")


def as_polynomial(e):
    """Polynomial form of e when it is built purely from polynomial pieces."""
    if isinstance(e, Const):
        return Polynomial([e.value])
    if isinstance(e, Var):
        return Polynomial([0, 1])
    if isinstance(e, Poly):
        return e.poly
    if isinstance(e, Sum):
        acc = Polynomial([0])
        for t in e.terms:
            p = as_polynomial(t)
            if p is None:
                return None
            acc = acc + p
        return acc
    if isinstance(e, Product):
        acc = Polynomial([1])
        for f in e.factors:
            p = as_polynomial(f)
            if p is None:
                return None
            acc = acc * p
        return acc
    if isinstance(e, Power):
        p = as_polynomial(e.base)
        return None if p is None else p ** e.exponent
    return None


def _wrap_poly(p):
    if p.degree == 0:
        return Const(p.coefficients[0])
    return Poly(p)


def add(*terms):
    flat = []
    for t in terms:
        t = _coerce(t)
        if isinstance(t, Sum):
            flat.extend(t.terms)
        else:
            flat.append(t)
    poly_part = None
    rest = []
    for t in flat:
        p = as_polynomial(t)
        if p is None:
            rest.append(t)
        else:
            poly_part = p if poly_part is None else poly_part + p
    if poly_part is not None and not poly_part.is_zero:
        rest.append(_wrap_poly(poly_part))
    if not rest:
        return Const(0)
    if len(rest) == 1:
        return rest[0]
    return Sum(tuple(rest))


def mul(*factors):
    """Product of the factors: the constants' product scales the first Poly or
    Var factor, or else leads; other factors, Poly ones included, stay."""
    scale, rest = None, []
    for f in factors:
        f = _coerce(f)
        for g in f.factors if isinstance(f, Product) else (f,):
            if not isinstance(g, Const):
                rest.append(g)
            elif g.value == 0:
                return Const(0)
            elif g.value != 1:
                scale = g.value if scale is None else scale * g.value
    if scale is not None:
        i = next((i for i, g in enumerate(rest) if isinstance(g, (Poly, Var))), None)
        if i is None:
            rest.insert(0, Const(scale))
        else:
            rest[i] = _wrap_poly(as_polynomial(rest[i]) * scale)
    if not rest:
        return Const(1)
    return rest[0] if len(rest) == 1 else Product(tuple(rest))


def pow_int(base, k):
    if not isinstance(k, int):
        raise ValueError("exponents must be integers")
    base = _coerce(base)
    if k < 0:
        return div(Const(1), pow_int(base, -k))
    if k == 0:
        return Const(1)
    if k == 1:
        return base
    if isinstance(base, Const):
        return _wrap_poly(as_polynomial(base) ** k)
    if isinstance(base, Exp):
        return Exp(base.exponent * k)
    return Power(base, k)


def div(num, den):
    num = _coerce(num)
    den = _coerce(den)
    if isinstance(den, Const):
        if den.value == 0:
            raise ZeroDivisionError("division by the zero constant")
        return mul(Const(1 / den.value), num)
    p = as_polynomial(den)
    if p is not None and p.is_zero:
        raise ZeroDivisionError("division by the identically zero polynomial")
    # flatten nested quotients so reciprocals stay structurally simple
    if isinstance(den, Quotient):
        return div(mul(num, den.denominator), den.numerator)
    if isinstance(num, Quotient):
        return div(num.numerator, mul(num.denominator, den))
    return Quotient(num, den)


# ---------------------------------------------------------------------------
# differentiation

def _d(e):
    """e' by the product, power and quotient rules, for a tree with no canonical form."""
    if isinstance(e, Product):
        return add(*[mul(*e.factors[:i], differentiate(f), *e.factors[i + 1:])
                     for i, f in enumerate(e.factors)])
    if isinstance(e, Power):
        return mul(Const(e.exponent), pow_int(e.base, e.exponent - 1), differentiate(e.base))
    u, v = e.numerator, e.denominator
    return div(add(mul(differentiate(u), v), mul(Const(-1), u, differentiate(v))), pow_int(v, 2))


def differentiate(e, k=1):
    """k-th symbolic derivative of e, k >= 1.

    Where e has a canonical form, Canonical.derivative gives it exactly,
    with no root finding, and its tree is returned.  A sum of distinct
    exponential parts is differentiated term by term, other trees by _d.
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError("derivative order must be a positive integer")
    e = _coerce(e)
    try:
        return canonicalize(e).derivative(k).to_expr()
    except (NotNormalizableError, ZeroDivisionError):
        pass
    if isinstance(e, Sum):
        return add(*[differentiate(t, k) for t in e.terms])
    return _d(e) if k == 1 else differentiate(_d(e), k - 1)


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

    Each value is computed again as the exp of log(lead/den_lead) + expo +
    sum e log b(z) over the bases of the canonical form, so overflowing
    factors that cancel, as in exp(z)/exp(z), give their finite value, a root
    of a base with e < 0 is a pole and a removable singularity (z/z at 0)
    its limit.  With no canonical form raw is kept.  An infinite part then
    reads as INFINITY and NaN raises IndeterminatePointError.
    """
    vals = raw
    try:
        c = canonicalize(e)
    except (NotNormalizableError, ZeroDivisionError):
        pass
    else:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            logs = c.expo(zs) + (np.log(complex(c.lead)) - np.log(complex(c.den_lead)))
            for b, m in c.factors:
                w = np.log(zs + b.coefficients[0]) if b.degree == 1 else _log_poly(b, zs)
                logs.real += m * w.real  # not m * w: m * (-inf + 0j) has a NaN part
                logs.imag += m * w.imag
            vals = np.exp(logs)
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
    on 1/f); evaluate classifies them instead.
    """
    zs = np.asarray(zs, dtype=complex)[()]  # a point as a numpy scalar, not 0-d
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _eval_grid(e, zs)


def _eval_grid(e, zs):
    if isinstance(e, Const):
        return np.full_like(zs, e.value)
    if isinstance(e, Var):
        return zs.copy()
    if isinstance(e, Poly):
        return e.poly(zs)
    if isinstance(e, Exp):
        return np.exp(e.exponent(zs))
    if isinstance(e, Sum):
        return sum(_eval_grid(t, zs) for t in e.terms)
    if isinstance(e, Product):
        return math.prod(_eval_grid(f, zs) for f in e.factors)
    if isinstance(e, Power):
        return _eval_grid(e.base, zs) ** e.exponent
    if isinstance(e, Quotient):
        return _eval_grid(e.numerator, zs) / _eval_grid(e.denominator, zs)
    raise TypeError(f"cannot evaluate {type(e).__name__}")


def substitute_affine(e, a, b):
    """The expression z -> e(a*z + b), staying inside the tractable class."""
    a = complex(a)
    b = complex(b)
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        return _wrap_poly(Polynomial([b, a]))
    if isinstance(e, Poly):
        return _wrap_poly(e.poly.compose_affine(a, b))
    if isinstance(e, Exp):
        return Exp(e.exponent.compose_affine(a, b))
    if isinstance(e, Sum):
        return add(*[substitute_affine(t, a, b) for t in e.terms])
    if isinstance(e, Product):
        return mul(*[substitute_affine(f, a, b) for f in e.factors])
    if isinstance(e, Power):
        return pow_int(substitute_affine(e.base, a, b), e.exponent)
    if isinstance(e, Quotient):
        return Quotient(
            substitute_affine(e.numerator, a, b),
            substitute_affine(e.denominator, a, b),
        )
    raise TypeError(f"cannot substitute into {type(e).__name__}")


# ---------------------------------------------------------------------------
# canonical form and divisors

_BLOCK = 16  # coefficients per block in Canonical.log_abs_on_circle
_CHUNK_BYTES = 1 << 20  # bytes of power-table columns per pass of Canonical.log_abs_on_circle


@dataclass(frozen=True)
class Canonical:
    """f = (lead/den_lead) prod b^e exp(expo), factors the pairs (b, e): b monic,
    linear with distinct roots (each a zero of order e > 0 or a pole of order
    -e) unless derivative made it or _split kept it whole, and e a nonzero int.
    lead (0 for f = 0) and den_lead stay apart, so their quotient cannot
    overflow.  num and den are the expanded products."""

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
            factors = [(b, e - 1) for b, e in c.factors if e != 1] + [(_monic(h), 1)] * (h.degree > 0)
            c = Canonical(c.lead * h.leading, c.den_lead, tuple(factors), c.expo)
        return c

    def to_expr(self):
        """The tree of f: lead prod b^e exp(expo) over den_lead prod b^-e."""
        if self.lead == 0:
            return Const(0)
        top = [pow_int(_wrap_poly(b), e) for b, e in self.factors if e > 0]
        bottom = [pow_int(_wrap_poly(b), -e) for b, e in self.factors if e < 0]
        if not self.expo.is_zero:
            top.append(Exp(self.expo))
        num = mul(Const(self.lead), *top)
        if not bottom and self.den_lead == 1:
            return num
        return div(num, mul(Const(self.den_lead), *bottom))

    def log_abs(self, zs):
        """log|f| on an ndarray of points, the real part of _log_poly's logs,
        so neither num nor den overflows where |z| > 1."""
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return (_log_poly(self.num, zs) - _log_poly(self.den, zs)).real + self.expo(zs).real

    def circle_powers(self, unit):
        """The real table log_abs_on_circle takes: rows 2k and 2k + 1 hold
        the real and imaginary parts of w^(jk) = unit[(k*j) % N], j < N.

        unit[j] = w^j for w = exp(2 pi i/N), and N must be a power of two
        (proximity's sample counts are), so (k*j) % N is the bitmask
        (k*j) & (N - 1).  There are min(max degree, _BLOCK) + 1 powers k,
        each filled as two contiguous rows from an exact integer index, so
        every entry is w^(jk) to the accuracy of unit itself and no
        (N x powers) index array is built.
        """
        n = unit.size
        degree = max(self.num.degree, self.den.degree, self.expo.degree)
        powers = np.empty((2 * (min(degree, _BLOCK) + 1), n))
        re, im = unit.real.copy(), unit.imag.copy()
        step = np.arange(n)
        index = np.zeros(n, dtype=step.dtype)
        for k in range(0, len(powers), 2):  # "clip": index is in range, out unbuffered
            np.take(re, index, out=powers[k], mode="clip")
            np.take(im, index, out=powers[k + 1], mode="clip")
            index += step
            index &= n - 1
        return powers

    @cached_property
    def _circle_terms(self):
        """The parts of log_abs_on_circle that do not depend on r.

        Returns (kinds, coef, exponents, offset, slope).  Each nonconstant
        polynomial has kind 1 (num), -1 (den) or 0 (expo), in that order.
        coef holds a real and an imaginary row per (block of _BLOCK
        coefficients, polynomial), block-major, against the table's (Re, Im)
        row pairs: x + iy is [x, -y] and [y, x]; a single-block expo keeps
        only its real row.  exponents holds the power of r of each entry.
        num and den are divided by 2^s, s midway between the exponents of
        their largest and leading coefficient parts, so that for r >= 1
        |p|^2 stays in range unless those differ by 2^1000.  s log 2 and
        the constant polynomials make offset; slope * log r sums the d log r
        terms.
        """
        polys, kinds = [], []
        offset = slope = 0.0
        for kind, p in ((1, self.num), (-1, self.den), (0, self.expo)):
            c = np.array(p.coefficients)
            d = len(c) - 1
            if d == 0:
                if kind == 0:
                    offset += c[0].real
                else:
                    offset += kind * (math.log(abs(c[0])) if c[0] else -math.inf)
                continue
            k = np.arange(d + 1.0)
            if kind:
                top = np.abs(c.view(float)).max()
                lead = max(abs(c[-1].real), abs(c[-1].imag))
                shift = (math.frexp(top)[1] + math.frexp(lead)[1]) // 2
                c = np.ldexp(c.view(float), -shift).view(complex)  # exact
                offset += kind * shift * math.log(2.0)
                k -= d
            polys.append((c, k))
            kinds.append(kind)
            slope += kind * d
        if not polys:
            return kinds, None, None, offset, slope
        length = max(len(c) for c, _ in polys)
        width = min(length, _BLOCK)
        blocks = -(-length // width)
        x = np.zeros((len(polys), blocks * width), dtype=complex)
        exps = np.zeros(x.shape)  # padding gets r^0, times a zero coefficient
        for i, (c, k) in enumerate(polys):
            x[i, :len(c)], exps[i, :len(k)] = c, k
        x = x.reshape(len(polys), blocks, width, 1).swapaxes(0, 1)
        coef = np.stack([np.concatenate([x.real, -x.imag], 3),
                         np.concatenate([x.imag, x.real], 3)], 2).reshape(-1, 2 * width)
        exps = exps.reshape(len(polys), blocks, width).swapaxes(0, 1).repeat(2, 1).repeat(2, 2)
        rows = len(coef) - (blocks == 1 and kinds[-1] == 0)
        return kinds, coef[:rows], exps.reshape(-1, 2 * width)[:rows], offset, slope

    def log_abs_on_circle(self, r, powers):
        """log|f| at z_j = r w^j, j < N, given the table of circle_powers.

        Each polynomial is one real matrix product against the table.  num
        and den of degree d are r^d sum_k c_k r^(k-d) w^(jk), so the sum runs
        on unit-modulus points and d log r is added back as a logarithm: r^d
        never overflows.  expo is sum_k c_k r^k w^(jk).  Blocks of _BLOCK
        coefficients are joined by Horner in w^_BLOCK, so the table needs at
        most _BLOCK + 1 powers.  Each sample takes one log, 1/2 log(|num|^2
        / |den|^2), plus Re expo; a zero of num gives -inf, of den +inf and
        of both NaN, as log|0| would.  The product runs over slices of table
        columns of at most _CHUNK_BYTES, which stay in cache, and the num and
        den rows of each slice are squared in place, with no temporary.
        """
        kinds, coef, exps, offset, slope = self._circle_terms
        n = powers.shape[1]
        base = offset + slope * math.log(r)
        if not kinds:
            return np.full(n, base)
        logs = len(kinds) - (kinds[-1] == 0)  # num and den rows lead, expo's follow
        width = coef.shape[1] // 2
        blocks = -(-len(coef) // (2 * len(kinds)))
        step = max(1, _CHUNK_BYTES // (len(powers) * powers.itemsize))
        out = np.empty(n)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            scaled = coef * r ** exps
            for start in range(0, n, step):
                cols = slice(start, start + step)
                sums = scaled @ powers[:2 * width, cols]
                if blocks > 1:
                    sums = sums.reshape(blocks, -1, sums.shape[1])
                    wr, wi = powers[2 * _BLOCK, cols], powers[2 * _BLOCK + 1, cols]
                    acc = sums[-1]
                    for b in range(blocks - 2, -1, -1):
                        re, im = acc[0::2], acc[1::2]
                        acc = sums[b]
                        acc[0::2] += re * wr - im * wi
                        acc[1::2] += re * wi + im * wr
                    sums = acc
                chunk = out[cols]
                if logs:
                    sq = sums[:2 * logs]
                    np.multiply(sq, sq, out=sq)
                    sq[0] += sq[1]
                    if logs == 2:
                        sq[2] += sq[3]
                        sq[0] /= sq[2]
                    np.log(sq[0], out=chunk)
                    chunk *= 0.5 if kinds[0] > 0 else -0.5
                    chunk += base
                else:
                    chunk[:] = base
                if logs < len(kinds):
                    chunk += sums[2 * logs]
        return out


def canonicalize(e):
    """Reduce e to its factored Canonical form or raise NotNormalizableError."""
    c = _canon(_coerce(e))
    if c.den_lead == 0:
        raise ZeroDivisionError("denominator is identically zero")
    return c


_ZERO = Canonical(0j, 1 + 0j, (), _NIL)


def _drop_top(h, floor):
    """h without the top coefficients that lie within floor[k] at their degree k."""
    top = list(h.coefficients)
    while len(top) > 1 and abs(top[-1]) <= floor[len(top) - 1]:
        top.pop()
    return Polynomial._of(top)


def _monic(p):
    return Polynomial._of([c / p.leading for c in p.coefficients[:-1]] + [1 + 0j])


def _same(b, c):
    """Whether the bases b and c are one: linear ones whose roots agree to rounding."""
    x, y = b.coefficients, c.coefficients
    return x == y or len(x) == len(y) == 2 and abs(x[0] - y[0]) <= _ROUNDING * (1 + abs(y[0]))


def _merge(factors):
    """The (base, exponent) pairs with equal bases joined and exponent 0 dropped."""
    out = []
    for b, e in factors:
        for i, (c, m) in enumerate(out):
            if _same(b, c):
                out[i] = (c, m + e)
                break
        else:
            out.append((b, e))
    return tuple(f for f in out if f[1])


def _split(p, expo=_NIL, den_lead=1 + 0j, factors=()):
    """p/den_lead * prod factors * exp(expo), p split into linear bases by
    poly_roots.  Where poly_roots fails, or the product of its roots is not p
    within _ROUNDING of p's largest coefficient (an ill-conditioned p, whose
    derivative from those roots would be wrong), p stays one whole base."""
    if p.is_zero:
        return _ZERO
    bases = [(_monic(p), 1)] if p.degree else []
    if p.degree > 1:
        try:
            roots = [x for x, m in poly_roots(p) for _ in range(m)]
        except RootFindingError:
            roots = []
        q = Polynomial.from_roots(roots, p.leading)
        if roots and max(map(abs, (p - q).coefficients)) <= _ROUNDING * max(map(abs, p.coefficients)):
            bases = [(Polynomial._of([-x, 1 + 0j]), 1) for x in roots]
    return Canonical(p.leading, den_lead, _merge(list(factors) + bases), expo)


def _times(cs):
    lead, factors = math.prod(c.lead for c in cs), [f for c in cs for f in c.factors]
    if lead == 0:
        return _ZERO
    return Canonical(lead, math.prod(c.den_lead for c in cs), _merge(factors),
                     sum((c.expo for c in cs), _NIL))


def _canon(e):
    if isinstance(e, Const):
        return Canonical(e.value, 1 + 0j, (), _NIL) if e.value != 0 else _ZERO
    if isinstance(e, (Var, Poly)):
        return _split(as_polynomial(e))
    if isinstance(e, Exp):
        return Canonical(1 + 0j, 1 + 0j, (), e.exponent)
    if isinstance(e, Product):
        return _times([_canon(f) for f in e.factors])
    if isinstance(e, Power):
        c, k = _canon(e.base), e.exponent  # leads by products: complex ** k raises on overflow
        return Canonical(math.prod([c.lead] * k), math.prod([c.den_lead] * k),
                         tuple((b, m * k) for b, m in c.factors), c.expo * k)
    if isinstance(e, Quotient):
        d = _canon(e.denominator)
        if d.lead == 0:
            raise ZeroDivisionError("denominator is identically zero")
        inverse = Canonical(d.den_lead, d.lead, tuple((b, -m) for b, m in d.factors), -d.expo)
        return _times([_canon(e.numerator), inverse])
    if isinstance(e, Sum):
        groups = {}
        for t in e.terms:
            c = _canon(t)
            if c.lead != 0:
                groups.setdefault(c.expo, []).append(c)
        parts = [g[0] if len(g) == 1 else _add(g) for g in groups.values()]
        parts = [c for c in parts if c.lead != 0]
        if len(parts) > 1:
            raise NotNormalizableError("sum mixes distinct exponential parts; no canonical form")
        return parts[0] if parts else _ZERO
    raise TypeError(f"cannot canonicalize {type(e).__name__}")


def _add(cs):
    """The sum of canonical forms with one exponential part: each base is
    factored out at its least exponent over the terms, and the remainders,
    over the common den_lead, add into one polynomial H that _split splits.
    Where the top terms cancel, a top coefficient of H within _ROUNDING of
    the sum of the terms' coefficient moduli at its degree is that rounding
    and is dropped.  H can vanish at a root of a base only at a tie, where
    two terms share a nonzero least exponent; there it is divided by the
    base while it vanishes within _ROUNDING, as in (z+1)/(z-1) - 2/(z-1) = 1."""
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
                q = list(h.coefficients)  # h / (z - root), by synthetic division
                for j in range(len(q) - 1, 0, -1):
                    q[j - 1] += q[j] * root
                h, least[i] = Polynomial._of(q[1:]), least[i] + 1
    return _split(h, cs[0].expo, math.prod(c.den_lead for c in cs), zip(bases, least))


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
    """Zero and pole divisors of e as (zeros, poles), read off its canonical form."""
    c = canonicalize(e)
    if c.lead == 0:
        raise ValueError("the zero function has no divisor")
    return canonical_divisors(c, 1), canonical_divisors(c, -1)


def canonical_divisors(c, sign):
    """The zeros (sign 1) or the poles (sign -1) of the canonical form c: the
    root of a linear base b^e, of order sign * e > 0.  A whole base, kept
    where poly_roots failed on it, goes through poly_roots again."""
    pairs = [(x, m * e * sign) for b, e in c.factors if e * sign > 0
             for x, m in ([(-b.coefficients[0], 1)] if b.degree == 1 else poly_roots(b))]
    return Divisor.from_pairs(pairs, "zeros" if sign > 0 else "poles")


# ---------------------------------------------------------------------------
# parsing

_SYMBOLS = set("+-*/^()[],")
_Z = Polynomial([0, 1])  # z as read; only +p and (p) pass it on, so _node sees a bare z


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


def _piece(node):
    """The Polynomial of a parsed piece, None if it is not polynomial."""
    return node if isinstance(node, Polynomial) else as_polynomial(node)


def _node(piece):
    """The tree of a parsed piece: Var for a bare z, a Polynomial wrapped as add does."""
    if piece is _Z:
        return Var()
    return _wrap_poly(piece) if isinstance(piece, Polynomial) else piece


def _checked(piece, op):
    """piece, or a ParseError at the operator token op where it, or a constant
    or polynomial factor that mul folded into a product, left the double
    range."""
    for f in piece.factors if isinstance(piece, Product) else (piece,):
        p = as_polynomial(f) if isinstance(f, (Const, Poly)) else f
        if isinstance(p, Polynomial) and not all(map(cmath.isfinite, p.coefficients)):
            raise ParseError(f"{op[3]!r} overflows the double range", op[2])
    return piece


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
            if op[0] == "-":  # -x as mul(Const(-1), x) makes it
                rhs = rhs * -1 if isinstance(rhs, Polynomial) else mul(Const(-1), rhs)
            p, q = _piece(node), _piece(rhs)  # polynomial pieces fold as add folds them
            node = _checked(add(_node(node), _node(rhs)) if p is None or q is None else p + q, op)
        return node

    def parse_term(self):
        node = self.parse_unary()
        while self.peek()[0] in "*/":
            op = self.next()
            rhs = self.parse_unary()
            if op[0] == "*":
                node = _checked(mul(_node(node), _node(rhs)), op)
            else:
                node = div(_node(node), _node(rhs))
        return node

    def parse_unary(self):
        if self.peek()[0] == "-":
            self.next()
            node = self.parse_unary()
            return node * -1 if isinstance(node, Polynomial) else mul(Const(-1), node)
        if self.peek()[0] == "+":
            self.next()
            return self.parse_unary()
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        if self.peek()[0] != "^":
            return base
        op = self.next()
        return _checked(pow_int(_node(base), self.parse_int_exponent()), op)

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
            return Polynomial([value])
        if kind == "(":
            node = self.parse_expr()
            self.expect(")")
            return node
        if kind == "name":
            if value == "z":
                return _Z
            if value == "i":
                return Polynomial([1j])
            if value == "exp":
                self.expect("(")
                arg = self.parse_expr()
                self.expect(")")
                p = _piece(arg)
                if p is None:
                    raise ParseError(
                        "unsupported construct: exp argument must be a polynomial",
                        pos,
                    )
                return Exp(p)
            if value == "D":
                self.expect("[")
                arg = self.parse_expr()
                self.expect(",")
                tok = self.expect("number")
                order = tok[1]
                if order.imag != 0 or order.real != int(order.real) or order.real < 1:
                    raise ParseError("derivative order must be a positive integer", tok[2])
                self.expect("]")
                return differentiate(_node(arg), int(order.real))
            if value in self.params:
                return Polynomial([self.params[value]])
            raise ParseError(f"unknown symbol {value!r}", pos)
        if kind == "end":
            raise ParseError("unexpected end of input", pos)
        raise ParseError(f"unexpected token {lexeme!r}", pos)


def parse(text, params=None):
    """Parse the expression grammar; params maps extra symbols to constants.

    Sums of polynomial pieces fold as Polynomials while they are read, other
    operators build their nodes with the combinators; an operator whose
    folded coefficients overflow is a ParseError."""
    parser = _Parser(_tokenize(text), dict(params or {}))
    node = parser.parse_expr()
    end = parser.next()
    if end[0] != "end":
        raise ParseError(f"trailing input {end[3]!r}", end[2])
    return _node(node)


def parse_complex(text):
    """Parse a literal like '2', '-1.5', '1+2i', '3i' into a complex number."""
    p = as_polynomial(parse(text))
    if p is None or p.degree > 0:
        raise ValueError(f"expected a complex literal, got {text!r}")
    return p.coefficients[0]


# ---------------------------------------------------------------------------
# printing

def _fmt_float(x):
    if x == int(x) and abs(x) < 1e16:
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


def _needs_parens_in_product(e):
    if isinstance(e, (Sum, Quotient)):
        return True
    if isinstance(e, Const):
        return e.value.real < 0 and e.value.imag == 0
    if isinstance(e, Poly):  # a scaled Poly too, or c*z*p would parse as (c*z*p)
        s = _fmt_poly(e.poly)
        return any(op in s[1:] for op in "+-*")
    return False


def _atom_str(e):
    s = print_expr(e)
    if isinstance(e, (Var, Exp)):
        return s
    if isinstance(e, Const) and e.value.imag == 0 and e.value.real >= 0:
        return s
    return f"({s})"


def print_expr(e):
    """Render e in the accepted grammar; parse(print_expr(e)) evaluates identically."""
    if isinstance(e, Const):
        return _fmt_const(e.value)
    if isinstance(e, Var):
        return "z"
    if isinstance(e, Poly):
        return _fmt_poly(e.poly)
    if isinstance(e, Exp):
        return f"exp({_fmt_poly(e.exponent)})"
    if isinstance(e, Sum):
        parts = [print_expr(t) for t in e.terms]
        out = parts[0]
        for p in parts[1:]:
            out += p if p.startswith("-") else "+" + p
        return out
    if isinstance(e, Product):
        parts = []
        for f in e.factors:
            s = print_expr(f)
            parts.append(f"({s})" if _needs_parens_in_product(f) else s)
        return "*".join(parts)
    if isinstance(e, Power):
        return f"{_atom_str(e.base)}^{e.exponent}"
    if isinstance(e, Quotient):
        return f"({print_expr(e.numerator)})/({print_expr(e.denominator)})"
    raise TypeError(f"cannot print {type(e).__name__}")
