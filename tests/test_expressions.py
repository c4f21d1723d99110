"""Expression layer: parse/print, evaluation, derivatives, divisors."""
from __future__ import annotations

import cmath
import math
import random

import pytest

from nevanlab.polynomials import Polynomial
from nevanlab.expressions import (
    Const,
    Var,
    Poly,
    Exp,
    Quotient,
    INFINITY,
    IndeterminatePointError,
    NotNormalizableError,
    ParseError,
    canonicalize,
    differentiate,
    divisors,
    evaluate,
    is_infinite,
    parse,
    parse_complex,
    print_expr,
    substitute_affine,
)


def test_parse_atoms():
    assert isinstance(parse("z"), Var)
    e = parse("exp(2*z)")
    assert isinstance(e, Exp) and e.exponent.coefficients == (0j, 2 + 0j)
    q = parse("(z^2-1)/(z^2+1)")
    assert isinstance(q, Quotient)
    assert isinstance(q.numerator, Poly) and isinstance(q.denominator, Poly)


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse("z^2 + $")
    assert "position" in str(err.value)
    with pytest.raises(ParseError):
        parse("exp(1/z)")
    with pytest.raises(ParseError):
        parse("z^z")


def test_parse_complex_literals():
    assert parse_complex("2") == 2
    assert parse_complex("1+2i") == 1 + 2j
    assert parse_complex("-1.5") == -1.5
    assert parse_complex("3i") == 3j
    with pytest.raises(ValueError):
        parse_complex("z+1")


def test_evaluate_examples():
    assert evaluate(parse("z^2"), 1 + 1j) == pytest.approx(2j)
    v = evaluate(parse("1/z"), 0.0)
    assert is_infinite(v)
    w = evaluate(parse("exp(i*z)"), math.pi)
    assert abs(w + 1) < 1e-12


def test_evaluate_indeterminate():
    # z/z at 0 hits 0/0
    e = Quotient(Var(), Var())
    with pytest.raises(IndeterminatePointError):
        evaluate(e, 0.0)


def test_differentiate_examples():
    e = differentiate(parse("z^3"), 2)
    for z in (0.5, 1 + 2j, -3.0):
        assert abs(evaluate(e, z) - 6 * z) < 1e-12
    c = 2 - 1j
    f = Exp(Polynomial([0, c]))
    fp = differentiate(f, 1)
    for z in (0.3, 1j, -1 + 0.5j):
        assert abs(evaluate(fp, z) - c * cmath.exp(c * z)) < 1e-12


def test_derivative_of_power_of_exponential():
    # ((e^{cz+d})^{k+1})^{(k)} = ((k+1)c)^k e^{(k+1)(cz+d)}
    rng = random.Random(7)
    for _ in range(10):
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if abs(c) < 0.1:
            c += 0.5
        d = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        k = rng.randint(1, 4)
        g = Exp(Polynomial([d, c]))
        lhs = differentiate(g ** (k + 1), k)
        for _ in range(3):
            xi = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            want = ((k + 1) * c) ** k * cmath.exp((k + 1) * (c * xi + d))
            got = evaluate(lhs, xi)
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def _random_expr(rng, depth):
    if depth == 0:
        pick = rng.randrange(3)
        if pick == 0:
            return Const(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
        if pick == 1:
            return Var()
        coeffs = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                  for _ in range(rng.randint(1, 4))]
        return Poly(Polynomial(coeffs)) if Polynomial(coeffs).degree > 0 else Const(coeffs[0])
    pick = rng.randrange(6)
    if pick == 0:
        return _random_expr(rng, depth - 1) + _random_expr(rng, depth - 1)
    if pick == 1:
        return _random_expr(rng, depth - 1) * _random_expr(rng, depth - 1)
    if pick == 2:
        return _random_expr(rng, depth - 1) ** rng.randint(2, 3)
    if pick == 3:
        den = _random_expr(rng, depth - 1)
        try:
            return _random_expr(rng, depth - 1) / den
        except ZeroDivisionError:
            return _random_expr(rng, depth - 1)
    if pick == 4:
        coeffs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3)]
        return Exp(Polynomial(coeffs))
    return _random_expr(rng, depth - 1)


def test_derivative_matches_finite_differences():
    # spec-level closure property: symbolic derivative vs central differences
    rng = random.Random(123456)
    checked = 0
    for _ in range(1000):
        e = _random_expr(rng, rng.randint(1, 5))
        k = rng.randint(1, 3)
        try:
            de = differentiate(e, k)
            base = differentiate(e, k - 1) if k > 1 else e
        except (ZeroDivisionError, OverflowError):
            continue
        pts = 0
        attempts = 0
        while pts < 5 and attempts < 40:
            attempts += 1
            z = cmath.rect(rng.uniform(0.3, 1.5), rng.uniform(0, 2 * math.pi))
            h = 1e-5 * max(1.0, abs(z))
            try:
                f0 = evaluate(base, z)
                fp = evaluate(base, z + h)
                fm = evaluate(base, z - h)
                fp2 = evaluate(base, z + h / 2)
                fm2 = evaluate(base, z - h / 2)
                d = evaluate(de, z)
            except IndeterminatePointError:
                continue
            vals = [f0, fp, fm, fp2, fm2, d]
            if any(is_infinite(v) for v in vals):
                continue
            scale = max(abs(d), 1.0)
            if max(abs(v) for v in vals) > 1e3 * scale:
                continue  # roundoff in the difference quotient would dominate
            fd = (fp - fm) / (2 * h)
            fd2 = (fp2 - fm2) / h
            if abs(fd - fd2) > 1e-8 * scale:
                continue  # step halving disagrees: curvature too high for FD
            richardson = (4 * fd2 - fd) / 3
            assert abs(richardson - d) <= 1e-6 * scale, print_expr(e)
            pts += 1
        checked += 1
    assert checked > 800


def test_print_parse_round_trip():
    rng = random.Random(99)
    for _ in range(300):
        e = _random_expr(rng, rng.randint(0, 4))
        text = print_expr(e)
        e2 = parse(text)
        for _ in range(10):
            z = cmath.rect(rng.uniform(0.2, 2.0), rng.uniform(0, 2 * math.pi))
            try:
                v1 = evaluate(e, z)
            except IndeterminatePointError:
                continue
            try:
                v2 = evaluate(e2, z)
            except IndeterminatePointError:
                pytest.fail(f"round trip changed behavior at {z}: {text}")
            if is_infinite(v1) or is_infinite(v2):
                assert is_infinite(v1) == is_infinite(v2)
            else:
                assert v1 == v2, text


def test_canonicalize_and_not_normalizable():
    c = canonicalize(parse("(z^2-1)/z*exp(3*z)"))
    assert c.num.coefficients == (-1 + 0j, 0j, 1 + 0j)
    assert c.den.coefficients == (0j, 1 + 0j)
    assert c.expo.coefficients == (0j, 3 + 0j)
    with pytest.raises(NotNormalizableError):
        canonicalize(parse("exp(z)+1"))
    # constant groups that cancel drop out
    ok = canonicalize(parse("2+exp(z)-2"))
    assert ok.expo.coefficients == (0j, 1 + 0j)


def test_divisors_examples():
    f = parse("(z-1)^2/z*exp(3*z)")
    zeros, poles = divisors(f)
    assert zeros.as_dict() == {1 + 0j: 2} or (
        len(zeros) == 1 and abs(zeros.entries[0][0] - 1) < 1e-7 and zeros.entries[0][1] == 2
    )
    assert len(poles) == 1 and abs(poles.entries[0][0]) < 1e-9 and poles.entries[0][1] == 1
    g = Exp(Polynomial([0.5, 2 - 1j]))
    zeros, poles = divisors(g)
    assert zeros.is_empty and poles.is_empty


def test_divisors_cancellation():
    f = parse("(z^2-1)/(z-1)")
    zeros, poles = divisors(f)
    assert poles.is_empty
    assert len(zeros) == 1 and abs(zeros.entries[0][0] + 1) < 1e-8


def test_divisors_of_derivative_with_high_order_pole():
    # the quotient rule squares the cube pole: the unreduced denominator holds
    # it six times and the numerator twice, so its six approximations must
    # merge for the common factor to cancel to a pole of order four
    f = parse("D[(0.75-1.0i)*(z-(-0.390625-1.28125i))^2/((z-(0.78125+0.796875i))^3"
              "*(z-(0.09375+0.984375i))^1),1]")
    zeros, poles = divisors(f)
    assert sorted(m for _, m in poles.entries) == [2, 4]
    for x, m in poles.entries:
        target = 0.78125 + 0.796875j if m == 4 else 0.09375 + 0.984375j
        assert abs(x - target) < 1e-9
    assert zeros.total == 3
    assert any(m == 1 and abs(x - (-0.390625 - 1.28125j)) < 1e-9
               for x, m in zeros.entries)


def test_divisor_truncation_and_counting():
    f = parse("(z-1)^2/z*exp(3*z)")
    zeros, _ = divisors(f)
    assert zeros.total == 2
    assert zeros.truncated().total == 1
    assert zeros.count_within(0.5) == 0
    assert zeros.count_within(2.0) == 2


def test_product_divisor_additivity():
    rng = random.Random(4242)
    for _ in range(10):
        def rand_rational():
            num = Polynomial([complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                              for _ in range(rng.randint(2, 5))])
            den = Polynomial([complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                              for _ in range(rng.randint(2, 5))])
            if num.degree < 1 or den.degree < 1:
                return rand_rational()
            return Quotient(Poly(num), Poly(den))

        f = rand_rational()
        g = rand_rational()
        zf, pf = divisors(f)
        zg, pg = divisors(g)
        zfg, pfg = divisors(f * g)

        def merged(a, b):
            out = {}
            for z, m in list(a.entries) + list(b.entries):
                for w in out:
                    if abs(w - z) < 1e-5:
                        out[w] += m
                        break
                else:
                    out[z] = m
            return out

        def against(expected, got):
            got_items = dict(got.entries)
            assert sum(got_items.values()) == sum(expected.values())
            for z, m in expected.items():
                match = [w for w in got_items if abs(w - z) < 1e-5]
                assert match, f"missing point {z}"
                assert sum(got_items[w] for w in match) == m

        ez, ep = merged(zf, zg), merged(pf, pg)
        # random factors share no roots, so no cancellation is expected
        against(ez, zfg)
        against(ep, pfg)


def test_substitute_affine():
    f = parse("(z^2-1)/z*exp(z)")
    g = substitute_affine(f, 0.5, 1 + 1j)
    rng = random.Random(5)
    for _ in range(5):
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        w = 0.5 * z + (1 + 1j)
        assert abs(evaluate(g, z) - evaluate(f, w)) < 1e-10 * max(1.0, abs(evaluate(f, w)))


def test_operator_sugar_builds_expected_nodes():
    z = Var()
    e = (z ** 2 - 1) / (z ** 2 + 1)
    assert isinstance(e, Quotient)
    assert isinstance(e.numerator, Poly)
    assert evaluate(e, 2.0) == pytest.approx(3 / 5)
