"""Root finder and polynomial arithmetic checks."""
from __future__ import annotations

import random
import statistics
import warnings

import pytest

from nevanlab.polynomials import Polynomial, RootFindingError, _newton, poly_roots


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


def test_companion_overflow_is_a_root_finding_error():
    # 1e300 / 1e-300 overflows the companion row: refused, with no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RootFindingError, match="companion matrix overflows"):
            poly_roots(Polynomial([1e300, 0, 0, 1e-300]))


def test_eigenvalues_that_are_not_finite_are_a_root_finding_error():
    # the companion row of z^2 + (1.57e308 - 8.99e307i) z + 8.99e307 is
    # finite, but its eigenvalues are NaN: refused, where abs() of a NaN
    # complex in the clustering raised OverflowError
    c = [8.99e307, 1.57e308 - 8.99e307j, 1.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RootFindingError, match="not finite"):
            poly_roots(Polynomial(c))


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


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_zero_roots_are_exact(k):
    # z^k q: the zero constant terms are stripped before the eigensolve and
    # come back as one exact 0 of multiplicity k
    q = Polynomial.from_roots([1.5 - 0.5j, -0.75 + 1.25j, 2j])
    p = Polynomial([0] * k + list(q.coefficients))
    roots = poly_roots(p)
    assert [(r, m) for r, m in roots if r == 0] == [(0j, k)]
    assert sorted(m for r, m in roots if r != 0) == [1, 1, 1]


def test_newton_stall_stop_waits_for_the_rounding_floor():
    # from -2+2j the Newton corrections on z^3 - 2z + 2 run 1.0, 0.83, 1.2
    # far from any root; a correction that grows there is no reason to stop
    p = Polynomial([2, -2, 0, 1])
    x = _newton(p, -2 + 2j, steps=12)
    assert abs(p(x)) <= 1e-14


def _evaluations(monkeypatch, p):
    """Polynomial.__call__ calls inside poly_roots(p), and the multiplicities."""
    count = [0]
    call = Polynomial.__call__

    def counted(self, z):
        count[0] += 1
        return call(self, z)

    with monkeypatch.context() as m:
        m.setattr(Polynomial, "__call__", counted)
        roots = poly_roots(p)
    return count[0], sorted(m for _, m in roots)


def test_multiple_roots_take_few_evaluations(monkeypatch):
    # Newton stops where its correction stops shrinking, and merge levels
    # with no two groups within reach are skipped.  Medians over a few root
    # positions, because the count of any one depends on the last bits of
    # the companion eigenvalues; the parent took medians of 140 and 352.
    quads = [0.4375 + 0.1875j, -0.4375 - 0.1875j, 1.25 - 0.5j, -0.75 + 1.125j,
             0.125 + 0.625j, -1.5 - 0.25j, 0.875 + 0.875j]
    counts = []
    for b in quads:
        n, mults = _evaluations(monkeypatch, Polynomial.from_roots([b] * 4))
        assert mults == [4], b
        counts.append(n)
    assert statistics.median(counts) <= 60, counts
    patterns = [(0.75 - 0.5j, -1.25 + 0.25j, 0.5 + 1.125j, -0.375 - 1.0j),
                (1.0, 1j, -1.0, -1j),
                (0.25 + 0.25j, 1.5, -0.5 + 1.25j, -1.0 - 0.75j),
                (-1.25j, 0.625 + 0.5j, 1.375 - 0.125j, -0.875 + 0.375j),
                (0.5, -0.5 + 0.5j, 1.25 + 1.25j, -1.5 - 1.0j)]
    counts = []
    for a, b, c, d in patterns:
        p = Polynomial.from_roots([a] + [b] * 2 + [c] * 3 + [d] * 3)
        n, mults = _evaluations(monkeypatch, p)
        assert mults == [1, 2, 3, 3], (a, b, c, d)
        counts.append(n)
    assert statistics.median(counts) <= 150, counts
