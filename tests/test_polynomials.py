"""Root finder and polynomial arithmetic checks."""
from __future__ import annotations

import random

import pytest

from nevanlab.polynomials import Polynomial, poly_roots


def residual_bound(p, root):
    maxc = max(abs(c) for c in p.coefficients)
    return 1e-8 * (1.0 + maxc) * (1.0 + abs(root)) ** p.degree


def test_arithmetic_basics():
    p = Polynomial([1, 2, 3])
    q = Polynomial([0, 1])
    assert (p + q).coefficients == (1 + 0j, 3 + 0j, 3 + 0j)
    assert (p * q).coefficients == (0j, 1 + 0j, 2 + 0j, 3 + 0j)
    assert (q ** 3).coefficients == (0j, 0j, 0j, 1 + 0j)
    assert p.derivative().coefficients == (2 + 0j, 6 + 0j)
    assert p(2.0) == 1 + 4 + 12


def test_trailing_zeros_trimmed_and_zero_flagged():
    p = Polynomial([1, 2, 0, 0])
    assert p.degree == 1
    z = Polynomial([0, 0])
    assert z.is_zero and z.degree == 0
    diff = Polynomial([3, 1]) - Polynomial([0, 1])
    assert diff.coefficients == (3 + 0j,)


def test_compose_affine():
    p = Polynomial([1, 0, 1])  # 1 + z^2
    q = p.compose_affine(2.0, 1.0)  # 1 + (2z+1)^2
    for z in (0.3 + 0.1j, -1.2, 2j):
        assert abs(q(z) - p(2 * z + 1)) < 1e-12


def test_roots_simple_quadratic():
    roots = poly_roots(Polynomial([1, 0, 1]))  # z^2 + 1
    pts = sorted((r for r, _ in roots), key=lambda w: w.imag)
    assert abs(pts[0] + 1j) < 1e-9 and abs(pts[1] - 1j) < 1e-9
    assert all(m == 1 for _, m in roots)


def test_roots_double_root():
    p = Polynomial([1, -2, 1])  # (z-1)^2
    roots = poly_roots(p)
    assert len(roots) == 1
    r, m = roots[0]
    assert m == 2 and abs(r - 1) < 1e-7


def test_roots_quintuple_root_collapses():
    p = Polynomial.from_roots([1, 1, 1, 1, 1])
    roots = poly_roots(p)
    assert len(roots) == 1
    r, m = roots[0]
    assert m == 5 and abs(r - 1) < 1e-6


def test_roots_triple_plus_simple():
    p = Polynomial.from_roots([2j, 2j, 2j, -1.5])
    roots = poly_roots(p)
    mults = sorted(m for _, m in roots)
    assert mults == [1, 3]
    for r, m in roots:
        if m == 3:
            assert abs(r - 2j) < 1e-6
        else:
            assert abs(r + 1.5) < 1e-8


@pytest.mark.parametrize("root", [2j, -3, 1.09375 + 0.609375j])
def test_roots_sextuple_root_collapses(root):
    # companion eigenvalues spread a sextuple root over a ~5e-3 hexagon, and
    # only the last merge level gathers all three of these
    roots = poly_roots(Polynomial.from_roots([root] * 6))
    assert len(roots) == 1
    r, m = roots[0]
    assert m == 6 and abs(r - root) < 1e-9


def test_close_but_distinct_roots_not_merged():
    # the widest separations sit at and beyond the last merge level
    for sep in (1e-3, 1e-2, 1.5e-2, 3e-2):
        p = Polynomial.from_roots([0.5, 0.5 + sep, -2.0])
        roots = poly_roots(p)
        assert sorted(m for _, m in roots) == [1, 1, 1], sep


def test_degree_zero_and_zero_poly():
    assert poly_roots(Polynomial([5])) == []
    with pytest.raises(ValueError):
        poly_roots(Polynomial([0]))


def test_residual_bound_random_unit_box():
    rng = random.Random(20240817)
    for _ in range(60):
        deg = rng.randint(1, 12)
        coeffs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(deg + 1)]
        p = Polynomial(coeffs)
        if p.degree < 1:
            continue
        roots = poly_roots(p)
        assert sum(m for _, m in roots) == p.degree
        for r, _ in roots:
            assert abs(p(r)) <= residual_bound(p, r)


def test_from_roots_matches_expansion():
    p = Polynomial.from_roots([1, -1], leading=2)
    assert p.coefficients == (-2 + 0j, 0j, 2 + 0j)
