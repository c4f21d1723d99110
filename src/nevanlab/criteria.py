"""Exact hypothesis checks of the normality criteria.

This module holds the criterion arithmetic on (n, pairs, q, ell), the two
integer reductions at q = 1, ell = infinity, and the zero-multiplicity
check of P(f) - a (check_multiplicities).  The arithmetic runs in exact
rational arithmetic (1/infinity = 0), so verdicts are deterministic.  The
numeric Marty and Zalcman probes live in normality, which binds the names
of this module too, so nevanlab.normality.check_multiplicities and the
others keep working; a criterion check or a multiplicity check never
imports the probes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .diffpoly import MonomialSpec, compose_monomial
from .expressions import Const, add, divisors

INFINITE_MULTIPLICITY = math.inf


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
