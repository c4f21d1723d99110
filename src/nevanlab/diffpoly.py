"""Differential monomials in g and their multi-index expansions.

A monomial spec (n, [(n_1, t_1), ..., (n_k, t_k)]) denotes
g^n (g^{n_1})^(t_1) ... (g^{n_k})^(t_k).  Expanding each derivative factor by
the product rule writes the whole thing as an integer combination of products
g^{m_0} (g')^{m_1} (g'')^{m_2} ..., the form DiffPolynomial stores.  The
expansion is self-checking: substituting g = e^z turns every basis product
into e^{nz}, so the coefficients of (g^n)^(t) must sum to n^t.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .expressions import (
    Const,
    Expr,
    INFINITY,
    add,
    differentiate,
    evaluate,
    is_infinite,
    mul,
    pow_int,
    print_expr,
)

MAX_TERMS = 10 ** 6


class AlphaViolation(ValueError):
    """An extra term's index fails the strict comparison with the main one."""


@dataclass(frozen=True)
class MonomialSpec:
    """Parameters (n, pairs) of g^n (g^{n_1})^(t_1) ... (g^{n_k})^(t_k)."""

    n: int
    pairs: tuple

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 0:
            raise ValueError("n must be a nonnegative integer")
        if not isinstance(self.pairs, (list, tuple)) or not all(
                isinstance(p, (list, tuple)) and len(p) == 2
                and all(isinstance(x, int) and not isinstance(x, bool) for x in p)
                for p in self.pairs):
            raise ValueError("pairs must be (n_j, t_j) pairs of integers")
        pairs = tuple((a, b) for a, b in self.pairs)
        if not pairs:
            raise ValueError("at least one derivative factor is required")
        for nj, tj in pairs:
            if nj < 1 or tj < 1:
                raise ValueError("each pair needs n_j >= 1 and t_j >= 1")
        object.__setattr__(self, "pairs", pairs)

    @classmethod
    def from_json_dict(cls, payload):
        if not isinstance(payload, dict) or set(payload) != {"n", "pairs"}:
            raise ValueError('expected keys {"n", "pairs"}')
        return cls(payload["n"], payload["pairs"])

    def to_json_dict(self):
        return {"n": self.n, "pairs": [list(p) for p in self.pairs]}


def alpha_index(spec):
    """Exact ratio (sum of t_j) / (n + sum of n_j) for the spec."""
    den = spec.n + sum(nj for nj, _ in spec.pairs)
    if den <= 0:
        raise ValueError("alpha index needs a positive exponent total")
    return Fraction(sum(tj for _, tj in spec.pairs), den)


def expand_power_derivative(n, t):
    """Multi-index expansion of (g^n)^(t) as [(coefficient, indices), ...].

    Each indices tuple (m_0, ..., m_t) gives the exponents of g, g', ...,
    g^(t); every term satisfies sum(m) = n and sum(j*m_j) = t.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("n must be a positive integer")
    if not isinstance(t, int) or t < 0:
        raise ValueError("t must be a nonnegative integer")
    terms = {(n,) + (0,) * t: 1}
    for _ in range(t):
        stepped = {}
        for vec, c in terms.items():
            for j in range(len(vec) - 1):
                if vec[j]:
                    w = list(vec)
                    w[j] -= 1
                    w[j + 1] += 1
                    key = tuple(w)
                    stepped[key] = stepped.get(key, 0) + c * vec[j]
        terms = stepped
    return sorted(((c, vec) for vec, c in terms.items()),
                  key=lambda item: item[1])


def _trim(vec):
    vec = tuple(int(v) for v in vec)
    while vec and vec[-1] == 0:
        vec = vec[:-1]
    return vec


@dataclass(frozen=True)
class DiffTerm:
    """One product coefficient * g^{S_0} (g')^{S_1} ... with S trimmed."""

    coefficient: object  # int, Fraction, complex, or Expr
    exponents: tuple

    def __post_init__(self):
        vec = _trim(self.exponents)
        if not vec or any(v < 0 for v in vec):
            raise ValueError("a term needs nonnegative exponents, one positive")
        if not isinstance(self.coefficient, Expr) and complex(self.coefficient) == 0:
            raise ValueError("zero coefficient")
        object.__setattr__(self, "exponents", vec)

    @property
    def degree(self):
        return sum(self.exponents)

    @property
    def weight(self):
        return sum(j * m for j, m in enumerate(self.exponents))


@dataclass(frozen=True)
class DiffPolynomial:
    """Sum of DiffTerms; the expanded multi-index form of P(g)."""

    terms: tuple

    def __post_init__(self):
        terms = tuple(self.terms)
        if not terms:
            raise ValueError("empty differential polynomial")
        for term in terms:
            if not isinstance(term, DiffTerm):
                raise TypeError("terms must be DiffTerm instances")
        object.__setattr__(self, "terms", terms)


def degree_d(p):
    """Minimum over terms of the exponent sum."""
    return min(t.degree for t in p.terms)


def weight_theta(p):
    """Maximum over terms of the derivative-order-weighted exponent sum."""
    return max(t.weight for t in p.terms)


def _product_expand(factors):
    # factors: list of [(coeff, vec), ...]; multiply out, merging on the index
    acc = {(): 1}
    for factor in factors:
        nxt = {}
        for vec1, c1 in acc.items():
            for c2, vec2 in factor:
                width = max(len(vec1), len(vec2))
                v1 = vec1 + (0,) * (width - len(vec1))
                v2 = vec2 + (0,) * (width - len(vec2))
                key = tuple(a + b for a, b in zip(v1, v2))
                nxt[key] = nxt.get(key, 0) + c1 * c2
        if len(nxt) > MAX_TERMS:
            raise ValueError("expansion exceeds the term budget; "
                             "use smaller exponents or orders")
        acc = nxt
    return acc


def build_standard_monomial(spec):
    """Fully expanded DiffPolynomial of g^n (g^{n_1})^(t_1) ... ."""
    factors = []
    if spec.n:
        factors.append([(1, (spec.n,))])
    for nj, tj in spec.pairs:
        factors.append([(c, vec) for c, vec in expand_power_derivative(nj, tj)])
    expanded = _product_expand(factors)
    terms = [DiffTerm(c, vec) for vec, c in expanded.items() if c != 0]
    terms.sort(key=lambda t: t.exponents)
    return DiffPolynomial(tuple(terms))


def generalized_polynomial(main, extras=()):
    """Expansion of the main monomial plus lower-index extra monomials.

    Every extra spec must have a strictly smaller alpha index than the main
    spec; offenders raise AlphaViolation.  Extra coefficients may be numbers
    or rational-function expressions (no exponential part).
    """
    alpha = alpha_index(main)
    collected = list(build_standard_monomial(main).terms)
    for coeff, spec in extras:
        a_extra = alpha_index(spec)
        if not a_extra < alpha:
            raise AlphaViolation(
                f"extra {spec.to_json_dict()} has index {a_extra}, "
                f"not below the main index {alpha}")
        if isinstance(coeff, Expr) and not _is_rational(coeff):
            raise ValueError("extra coefficients must be rational functions")
        for term in build_standard_monomial(spec).terms:
            merged = _scale_coeff(coeff, term.coefficient)
            collected.append(DiffTerm(merged, term.exponents))
    return DiffPolynomial(tuple(collected))


def _is_rational(e):
    """True when no term of e has an exponential part; a denominator of
    several terms has distinct ones."""
    return all(c.expo.is_zero for c in e.num + e.den)


def _scale_coeff(outer, inner):
    # inner is always an exact integer from the expansion
    if isinstance(outer, Expr):
        return mul(Const(inner), outer)
    if isinstance(outer, (int, Fraction)):
        return outer * inner
    return complex(outer) * inner


def compose_monomial(spec, g):
    """Direct symbolic composition g^n * (g^{n_1})^(t_1) * ... as an Expr."""
    factors = []
    if spec.n:
        factors.append(pow_int(g, spec.n))
    for nj, tj in spec.pairs:
        factors.append(differentiate(pow_int(g, nj), tj))
    return mul(*factors)


def compose_generalized(main, extras, g):
    """Symbolic composition of a generalized polynomial, unexpanded."""
    parts = [compose_monomial(main, g)]
    for coeff, spec in extras:
        c = coeff if isinstance(coeff, Expr) else Const(complex(coeff))
        parts.append(mul(c, compose_monomial(spec, g)))
    return add(*parts)


def _derivatives(g, order):
    """[g, g', ..., g^(order)], each g^(j) the derivative of the one before."""
    derivs = [g]
    for _ in range(order):
        derivs.append(differentiate(derivs[-1]))
    return derivs


def diffpoly_expression(p, g):
    """Symbolic Expr of the expanded form: sum of c * prod g^(j)^{S_j}."""
    derivs = _derivatives(g, max(len(t.exponents) for t in p.terms) - 1)
    parts = []
    for term in p.terms:
        factors = []
        if isinstance(term.coefficient, Expr):
            factors.append(term.coefficient)
        else:
            factors.append(Const(complex(term.coefficient)))
        for j, m in enumerate(term.exponents):
            if m:
                factors.append(pow_int(derivs[j], m))
        parts.append(mul(*factors))
    return add(*parts)


def evaluate_diffpoly(p, g, z):
    """Value of the expanded polynomial at z from derivative values of g."""
    z = complex(z)
    order = max(len(t.exponents) for t in p.terms) - 1
    derivs = [evaluate(d, z) for d in _derivatives(g, order)]
    if any(is_infinite(v) for v in derivs):
        return INFINITY
    total = 0j
    for term in p.terms:
        if isinstance(term.coefficient, Expr):
            c = evaluate(term.coefficient, z)
            if is_infinite(c):
                return INFINITY
        else:
            c = complex(term.coefficient)
        for j, m in enumerate(term.exponents):
            if m:
                c *= derivs[j] ** m
        total += c
    return total


def _factor_text(j, m):
    if j == 0:
        base = "g"
    elif j <= 2:
        base = "g" + "'" * j
    else:
        base = f"g^({j})"
    if m == 1:
        return base
    if j == 0:
        return f"g^{m}"
    return f"({base})^{m}"


def _coeff_text(c):
    if isinstance(c, Expr):
        return "(" + print_expr(c) + ")"
    if isinstance(c, (int, Fraction)):
        return str(c)
    c = complex(c)
    if c.imag == 0 and float(c.real).is_integer():
        return str(int(c.real))
    return repr(c)


def print_diffpoly(p):
    """Readable form using the g, g', g'', g^(j) tokens."""
    chunks = []
    for term in p.terms:
        factors = [_factor_text(j, m)
                   for j, m in enumerate(term.exponents) if m]
        coeff = term.coefficient
        if not isinstance(coeff, Expr) and complex(coeff) == 1:
            chunks.append("*".join(factors))
        else:
            chunks.append("*".join([_coeff_text(coeff)] + factors))
    return " + ".join(chunks)
