"""Expression layer: parse/print, evaluation, derivatives, divisors."""
from __future__ import annotations

import cmath
import math
import random

import numpy as np
import pytest

import nevanlab.expressions as expressions
from nevanlab.polynomials import Polynomial
from nevanlab.expressions import (
    Const,
    Var,
    Poly,
    Exp,
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
    assert parse("z") == Var()
    assert parse("exp(2*z)") == Exp(Polynomial([0, 2]))
    assert parse("exp(D[z^3,1])") == Exp(Polynomial([0, 0, 3]))
    # a quotient of polynomials is one term over 1, each split into linear bases
    e = parse("(z^2-1)/(z^2+1)")
    assert len(e.num) == 1 and e.den == ()
    c = canonicalize(e)
    assert (c.lead, c.den_lead, c.expo) == (1, 1, Polynomial([0]))
    assert {(complex(round(-b.coefficients[0].real, 12), round(-b.coefficients[0].imag, 12)), m)
            for b, m in c.factors} == {(1, 1), (-1, 1), (1j, -1), (-1j, -1)}


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse("z^2 + $")
    assert "position" in str(err.value)
    with pytest.raises(ParseError):
        parse("exp(1/z)")
    with pytest.raises(ParseError):
        parse("z^z")
    # messages quote the source text as written
    for text, message in [
        ("1i2", "trailing input '2' (at position 2)"),
        ("(z", "expected ')', found end of input (at position 2)"),
        ("", "unexpected end of input (at position 0)"),
    ]:
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == message


def test_literal_out_of_range_is_a_parse_error():
    # a literal that overflows a double would enter a term as inf
    for text, lexeme, position in [("1e400", "1e400", 0), ("2*z + 1e400i", "1e400", 6)]:
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == f"number out of range {lexeme!r} (at position {position})"
    with pytest.raises(ParseError, match="number out of range '1e999'"):
        parse_complex("-1e999")
    assert parse_complex("1.7e308") == 1.7e308


def test_parse_folds_polynomials_without_the_combinators(monkeypatch):
    # sums of polynomial pieces fold as Polynomials, with no add call, into
    # one polynomial that is split once
    z = Polynomial([0, 1])
    folded = "(1.5-0.25i)*(z-(0.5+1i))*0.5-3*z+2i^2"
    expected = (Polynomial([(1.5 - 0.25j) * 0.5]) * (z - Polynomial([0.5 + 1j]))
                + z * -3 + Polynomial([2j * 2j]))
    calls = []
    for name in ("add", "mul", "pow_int"):
        def counted(*args, _f=getattr(expressions, name), _name=name):
            calls.append(_name)
            return _f(*args)
        monkeypatch.setattr(expressions, name, counted)
    assert parse(folded) == Poly(expected)
    assert calls == []
    # a product and a power keep the pieces typed as bases, and the constant
    # factor apart as the lead
    c = canonicalize(parse("(1.5-0.25i)*(z-(0.5+1i))^2*(z+2i)"))
    assert (c.lead, c.den_lead) == (1.5 - 0.25j, 1)
    assert c.factors == ((Polynomial([-0.5 - 1j, 1]), 2), (Polynomial([2j, 1]), 1))
    c = canonicalize(parse("3*(z-0.1)"))
    assert (c.lead, c.factors) == (3, ((Polynomial([-0.1, 1]), 1),))


def test_parse_matches_the_combinators():
    # Oracle: each generated text comes with the function that Const, Var,
    # Exp, the operator sugar and differentiate build for the same
    # operations, and a polynomial text also with its Polynomial.  The
    # parser folds sums of polynomial pieces as Polynomials where the
    # combinators join terms through _add, so the two agree as functions:
    # in value at sample points, or in the exception type they raise.
    # Where the parser refuses an overflow, some operation of the oracle's
    # must have left the double range, even if a later product through zero
    # hides it.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    v = complex(-0.75, 0.5)
    points = (0.7 + 0.2j, -0.4 + 1.1j, 1.3 - 0.6j)
    overflowed = []

    def noted(x):
        if _nonfinite(x):
            overflowed.append(x)
        return x

    def leaf(text, value):
        return st.just((text, lambda: Const(value), lambda: Polynomial([value])))

    # full mantissas round in products, so the order of the operands shows;
    # 2^960 scales overflow in a product, where mul's shortcut through zero shows
    dyadic = st.builds(math.ldexp, st.integers(0, 2 ** 53), st.sampled_from([-53, -8, 0, 960]))
    poly_leaves = st.one_of(
        dyadic.map(lambda x: (repr(x), lambda: Const(x), lambda: Polynomial([x]))),
        dyadic.map(lambda x: (f"{x!r}i", lambda: Const(complex(0.0, x)),
                              lambda: Polynomial([complex(0.0, x)]))),
        leaf("i", 1j), leaf("v", v), st.just(("z", Var, lambda: Polynomial([0, 1]))))

    OPS = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
           "*": lambda a, b: a * b, "/": lambda a, b: a / b}

    def binary(children, ops):
        return st.tuples(children, st.sampled_from(ops), children).map(
            lambda t: (f"({t[0][0]}){t[1]}({t[2][0]})",
                       lambda: noted(OPS[t[1]](t[0][1](), t[2][1]())),
                       lambda: noted(OPS[t[1]](t[0][2](), t[2][2]()))))

    def power(children, ks):
        return st.tuples(children, ks).map(
            lambda t: (f"({t[0][0]})^{t[1]}", lambda: noted(t[0][1]() ** t[1]),
                       lambda: noted(t[0][2]() ** max(t[1], 0))))

    def negate(children):
        return children.map(lambda a: (f"-({a[0]})", lambda: noted(-a[1]()),
                                       lambda: noted(a[2]() * -1)))

    polys = st.recursive(poly_leaves, lambda c: st.one_of(
        binary(c, "+-*"), negate(c), power(c, st.integers(0, 4))), max_leaves=6)

    def extend(c):
        return st.one_of(
            binary(c, "+-*/"), negate(c), power(c, st.integers(-3, 4)),
            polys.map(lambda p: (f"exp({p[0]})", lambda: Exp(p[2]()), None)),
            st.tuples(c, st.integers(1, 2)).map(
                lambda t: (f"D[({t[0][0]}),{t[1]}]",
                           lambda: differentiate(t[0][1](), t[1]), None)))

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.recursive(poly_leaves, extend, max_leaves=10))
    @hypothesis.example(("(z)^1", lambda: Var() ** 1, None))
    @hypothesis.example(("((z)^1)/((z)+(1.0))", lambda: Var() ** 1 / (Var() + Const(1.0)), None))
    @hypothesis.example(("(1e300)*(1e300)*(0.0)",
                         lambda: noted(Const(1e300) * Const(1e300)) * 0.0, None))
    @hypothesis.example((
        "(z+0.2608454438348897+0.9481070537185868i)^2"
        "*(z+0.9384650409074214+0.3834882899908848i)^2",
        lambda: (Var() + Const(0.2608454438348897) + Const(0.9481070537185868j)) ** 2
        * (Var() + Const(0.9384650409074214) + Const(0.3834882899908848j)) ** 2, None))
    def check(item):
        text, build = item[:2]
        overflowed.clear()
        try:
            expected = build()
        except Exception as exc:
            with pytest.raises((type(exc), ParseError) if overflowed else type(exc)):
                parse(text, {"v": v})
            return
        try:
            got = parse(text, {"v": v})
        except ParseError as exc:
            assert "overflows" in str(exc) and overflowed, text
            return
        for w in points:
            try:
                a, b = evaluate(got, w), evaluate(expected, w)
            except IndeterminatePointError:
                continue
            if cmath.isfinite(a) and cmath.isfinite(b):
                assert abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b)), (text, w, a, b)

    check()


def _nonfinite(x):
    """Whether a coefficient of the Polynomial x, or a number in a term of
    the function x, is not finite."""
    if isinstance(x, Polynomial):
        return not all(map(cmath.isfinite, x.coefficients))
    return any(not cmath.isfinite(y) or _nonfinite(c.expo) or any(_nonfinite(b) for b, _ in c.factors)
               for c in x.num + x.den for y in (c.lead, c.den_lead))


def test_overflow_in_a_folded_product_is_a_parse_error():
    # 1e300 * 1e300 would fold to inf, and inf * z to a NaN coefficient; a
    # constant folded into a product with a non-polynomial factor is checked too
    for text, op, position in [("1e300*1e300*z", "*", 5), ("1e200^2", "^", 5),
                               ("z+1e308+1e308", "+", 7),
                               ("1e200*z^2*1e200", "*", 9),
                               ("1e200*exp(z)*1e200", "*", 12),
                               ("(z+1)^2*1e200*1e200", "*", 13)]:
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == f"{op!r} overflows the double range (at position {position})"
    assert parse("1e200*1e100*z") == Poly(Polynomial([0, 1e300]))


def test_parse_complex_literals():
    assert parse_complex("2") == 2
    assert parse_complex("1+2i") == 1 + 2j
    assert parse_complex("-1.5") == -1.5
    assert parse_complex("3i") == 3j
    with pytest.raises(ValueError):
        parse_complex("z+1")
    # a sum of distinct exponential parts, or a quotient over one, is no literal
    for text in ("exp(z)+1", "1/(exp(z)+1)"):
        with pytest.raises(ValueError, match="expected a complex literal"):
            parse_complex(text)


def test_evaluate_examples():
    assert evaluate(parse("z^2"), 1 + 1j) == pytest.approx(2j)
    v = evaluate(parse("1/z"), 0.0)
    assert is_infinite(v)
    w = evaluate(parse("exp(i*z)"), math.pi)
    assert abs(w + 1) < 1e-12


def test_evaluate_indeterminate():
    # z/z at 0 is a removable singularity: the reduced form gives its limit
    assert evaluate(Var() / Var(), 0.0) == 1
    # 0/0 with no canonical form to reduce raises
    with pytest.raises(IndeterminatePointError):
        evaluate(parse("(exp(z)-1)/(exp(2*z)-1)"), 0.0)
    # a quotient of sums is scaled by its largest exponential, so e^800 / e^800
    # is not inf/inf
    assert evaluate(parse("(exp(z)+exp(-z))/(exp(z)+exp(-z))"), 800.0) == 1


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


@pytest.mark.parametrize("text, printed", [
    # a constant divisor stays den_lead, apart from the lead
    ("exp(-z^2)/(-1.25i*0.5)", "(exp(-z^2))/(-0.625i)"),
    ("0.8i", "0.8i"),
    ("2*z*(0.5i)-z", "(-1.0+1.0i)*z"),
    ("(z-1)*(z+1)-z^2", "(-1.0)"),
    # a polynomial prints as its lead and linear bases
    ("z^2*0.5-1i*z*(z-0.5i)", "(0.5-1.0i)*z*(z+(-0.2-0.4i))"),
    ("(1.5-0.25i)*(z-(0.5+1i))^2/(z+2i)",
     "((1.5-0.25i)*(z+(-0.5-1.0i))^2)/(z+2.0i)"),
    # the derivative's new base H prints whole
    ("D[(z-0.5)^2*exp(z^2)/(z+1.25),1]",
     "(2.0*(z-0.5)*(z^3+0.75*z^2+(-0.125)*z+1.5)*exp(z^2))/((z+1.25)^2)"),
    ("D[(z^2-1)/(z+3),8]", "(322560.0)/((z+3.0)^9)"),
    # a constant exponential part is a factor the derivative keeps
    ("D[exp(1)*z^2,1]", "2.0*z*exp(1.0)"),
    ("D[z*exp(z)/exp(z-1),1]", "exp(1.0)"),
    ("D[exp(0.5i)/(z-1),2]", "(2.0*exp(0.5i))/((z-1.0)^3)"),
    ("-(z-1i)*exp(2*z)*(-1)", "(z+(-1.0i))*exp(2.0*z)"),
    ("1/(0.25i*z-0.5)", "(1.0)/(0.25i*(z+2.0i))"),
    ("3-3+z*0", "0.0"),
    ("(-0.5i)*(2i)*z", "z"),
    # a lone typed polynomial with simple roots stays one whole base
    ("z^2+1", "(z^2+1.0)"),
])
def test_printed_forms(text, printed):
    # each term prints as its lead, its bases and exp(expo) over den_lead
    # and the bases of negative exponent
    assert print_expr(parse(text)) == printed


def _quotient_or_none(a, b):
    """a / b, or None where b is the zero function (an underflow included)."""
    try:
        return a / b
    except ZeroDivisionError:
        return None


def _power_or_none(a, k):
    """a^k, or None where a negative power divides by the zero function."""
    try:
        return a ** k
    except ZeroDivisionError:
        return None


def test_print_parse_round_trip_is_bit_for_bit():
    # parse(print_expr(f)) rebuilds every term of f and the power of its
    # denominator bit for bit (lead, den_lead, bases, exponents, expo) over
    # products, quotients, integer powers of either sign, sums within one
    # exponential part and across parts, quotients of those and their
    # derivatives; the grammar writes no -0.0, so equality of the floats
    # counts a zero of either sign as the same bits
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    number = st.builds(complex, st.floats(-2, 2), st.floats(-2, 2)).filter(lambda c: c != 0)
    atoms = st.one_of(
        number.map(Const), st.just(Var()),
        number.map(lambda a: Poly(Polynomial([a, 1]))),
        st.lists(number, min_size=3, max_size=4).map(lambda cs: Poly(Polynomial(cs))),
        st.sampled_from([0.5, -1, 1j]).map(lambda c: Exp(Polynomial([0, c]))),
        number.map(lambda a: 1 / (Exp(Polynomial([0, 1])) + a)))

    def combine(children):
        pairs = st.tuples(children, children)
        return st.one_of(
            pairs.map(lambda t: t[0] * t[1]), pairs.map(lambda t: t[0] + t[1]),
            pairs.map(lambda t: t[0] - t[1]),
            pairs.map(lambda t: _quotient_or_none(*t)).filter(lambda q: q is not None),
            st.tuples(children, st.integers(-3, 3)).map(lambda t: _power_or_none(*t))
            .filter(lambda q: q is not None),
            children.map(lambda x: _quotient_or_none(1, x)).filter(lambda q: q is not None),
            children.map(lambda x: differentiate(x) if x.den else x))

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(st.recursive(atoms, combine, max_leaves=6))
    def check(f):
        # no inf or NaN to write, and no den_lead underflowed to 0
        hypothesis.assume(all(c.den_lead != 0 and cmath.isfinite(x)
                              for c in f.num + f.den for x in _numbers(c)))
        g = parse(print_expr(f))
        assert (g.num, g.den, g.power) == (f.num, f.den, f.power), print_expr(f)

    check()
    # a high derivative prints as its few factored terms
    assert len(print_expr(parse("D[(z^2-1)/(z+3),8]"))) <= 200


def test_quotient_rule_keeps_one_denominator_and_its_power():
    # (N/S^m)' = (N'S - m N S')/S^(m+1): D^k of 1/(e^z+1) is k terms over
    # (e^z+1)^(k+1), not over (e^z+1)^(2^k) multiplied out
    mpmath = pytest.importorskip("mpmath")
    s = parse("exp(z)+1")
    for k in range(1, 9):
        f = parse(f"D[1/(exp(z)+1),{k}]")
        assert (f.den, f.power, len(f.num)) == (s.num, k + 1, k)
    assert len(print_expr(f)) <= 2000
    rng = random.Random(13)
    with mpmath.workdps(30):
        for _ in range(20):
            z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            want = complex(mpmath.diff(lambda w: 1 / (mpmath.exp(w) + 1), mpmath.mpc(z), 8))
            assert abs(evaluate(f, z) - want) <= 1e-10 * abs(want), z


def test_division_by_one_term_keeps_the_sum_and_its_power():
    # D^3 of 1/(e^z+1) is 3 terms over (e^z+1)^4; dividing it by z inverts z
    # into the numerator, as multiplying by 1/z does, instead of multiplying
    # (e^z+1)^4 out into 5 terms at power 1
    f = parse("D[1/(exp(z)+1),3]")
    quotient, product = parse("D[1/(exp(z)+1),3]/z"), parse("D[1/(exp(z)+1),3]*(1/z)")
    assert (quotient.den, quotient.power) == (product.den, product.power) == (f.den, 4)
    assert len(quotient.den) == 2
    rng = random.Random(29)
    for _ in range(20):
        z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        want = evaluate(product, z)
        assert abs(evaluate(quotient, z) - want) <= 1e-12 * abs(want), z
        assert abs(evaluate(quotient, z) - evaluate(f, z) / z) <= 1e-12 * abs(want), z


def test_quotient_of_sums_evaluates_where_the_sums_overflow():
    # D[1/(e^z+1),1] = -e^z/(e^z+1)^2 = -e^-|z|/(1+e^-|z|)^2 for real z;
    # e^800 overflows, so the numerator and (e^z+1)^2 are scaled by the
    # largest exponential of the denominator's terms at each point
    f = parse("D[1/(exp(z)+1),1]")
    for z in (400.0, -400.0, 800.0, -800.0):
        want = -math.exp(-abs(z)) / (1.0 + math.exp(-abs(z))) ** 2
        got = evaluate(f, z)
        assert abs(got - want) <= 1e-12 * abs(want), z
        assert math.isfinite(expressions.evaluate_on_grid(f, np.array([z]))[0].real)


def _numbers(c):
    return (c.lead, c.den_lead, *c.expo.coefficients,
            *(x for b, _ in c.factors for x in b.coefficients))


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


def _as_dict(divisor):
    return {complex(round(z.real, 9), round(z.imag, 9)): m for z, m in divisor.entries}


A = 0.390625 + 1.28125j
CUBE_ROOTS = [cmath.exp(1j * math.pi * (2 * j + 1) / 3) for j in range(3)]  # of -1


@pytest.mark.parametrize("text, zeros, poles", [
    # D^k of (z^2 - 1)/(z + 3) is 16 (-1)^k k!/2 / (z + 3)^(k + 1) for k >= 2
    ("D[(z^2-1)/(z+3),4]", {}, {-3: 5}),
    ("D[(z^2-1)/(z+3),8]", {}, {-3: 9}),
    # D^3 f / f = -48 / ((z + 3)^3 (z^2 - 1))
    ("D[(z^2-1)/(z+3),3]/((z^2-1)/(z+3))", {}, {-3: 3, 1: 1, -1: 1}),
    # roots 1e-6 apart stay apart
    ("z/(z-0.000001*i)", {0: 1}, {1e-6j: 1}),
    # a typed power keeps its multiplicity
    ("1/(z-1)^9", {}, {1: 9}),
    *[(f"1/(z-({A.real}+{A.imag}i))^{m}", {}, {A: m}) for m in (8, 10, 12)],
    # common factors of numerator and denominator, typed or added, cancel
    ("(z^2-1)/(z-1)", {-1: 1}, {}),
    ("(z^2-0.01)/(z-0.1)", {-0.1: 1}, {}),
    ("(z+1)/(z-1)-2/(z-1)", {}, {}),
    # f = 1/(z^3 + 1): f'' = 6 z (2 z^3 - 1) / (z^3 + 1)^3
    ("D[1/(z^3+1),2]", {0: 1, **{0.5 ** (1 / 3) * cmath.exp(2j * math.pi * j / 3): 1
                                 for j in range(3)}}, {r: 3 for r in CUBE_ROOTS}),
    # f - f(infinity) = 0.2/((z-0.3)(z+0.9)): the cancelled z^2 and z terms
    # leave no zero near 1e15; f - 2 keeps its two zeros -0.3 -+ sqrt(0.56)
    ("(z-0.1)*(z+0.7)/((z-0.3)*(z+0.9))-1", {}, {0.3: 1, -0.9: 1}),
    ("(z-0.1)*(z+0.7)/((z-0.3)*(z+0.9))-2", {-0.3 + 0.56 ** 0.5: 1, -0.3 - 0.56 ** 0.5: 1},
     {0.3: 1, -0.9: 1}),
    # roots are one base only within rounding of their moduli, so a zero
    # and a pole near 0 stay apart, and an exact 0 root still cancels
    ("z/(z+1e-15)", {0: 1}, {-1e-15: 1}),
    ("z^2/(z+1e-300)^2", {0: 2}, {-1e-300: 2}),
    ("(z^2+0.001*z)/z", {-0.001: 1}, {}),
    # both sums are z - b over the tie (z - a)^k, k = 8 and 9: H vanishes to
    # order k at a and is divided by z - a k times, leaving no zero or pole there
    *[(f"((z-({a}))^{k}*(z-({b})) - (z-({c}))^2)/(z-({a}))^{k} + (z-({c}))^2/(z-({a}))^{k}",
       {complex(b.replace("i", "j")): 1}, {})
      for a, b, c, k in (("-1.5-0.98i", "0.91+1.73i", "-2.44-2.83i", 8),
                         ("-0.35-0.3i", "0.74+0.67i", "-0.25-2.83i", 9))],
])
def test_exact_multiplicities(text, zeros, poles):
    got = divisors(parse(text))
    for want, divisor in zip((zeros, poles), got):
        assert len(divisor) == len(want), (text, divisor)
        for z, m in want.items():
            near = [k for x, k in divisor.entries if abs(x - z) <= 1e-9 * (1 + abs(z))]
            assert near == [m], (text, z, divisor)


def test_derivative_of_a_function_regular_at_infinity_drops_the_cancelled_top():
    # f regular at infinity: the top coefficients of H cancel to rounding,
    # and kept they would be zeros near -1.8e16, 2.4e33 and |z| = 3e5
    zeros = divisors(parse("D[(z^2+0.1*z+0.3)/(z^2+0.1*z-0.7),1]"))[0]
    assert len(zeros) == 1 and zeros.entries[0][1] == 1 and abs(zeros.entries[0][0] + 0.05) <= 1e-12
    zeros = divisors(parse("D[(z^2+2)/(z^2-3),2]"))[0]
    assert [m for _, m in zeros.entries] == [1, 1]
    assert all(abs(x - w) <= 1e-12 for (x, _), w in zip(zeros.entries, (-1j, 1j)))
    # -20 z^3 / (z^4 - 3)^2: its triple zero at 0 comes out as three spread ones
    zeros = divisors(parse("D[(z^4+2)/(z^4-3),1]"))[0]
    assert zeros.total == 3 and all(abs(x) <= 1.0 for x, _ in zeros.entries)


def test_growth_log_derivative_is_reduced():
    # f''/f for f = (z - 0.5)^2 (z + 0.3i) / (z + 1.2) exp(z^2): the poles are
    # (z - 0.5)^2, (z + 0.3i) and (z + 1.2)^2, as sympy reduces it
    f = "(z-0.5)^2*(z+0.3i)/(z+1.2)*exp(z^2)"
    c = canonicalize(parse(f"D[{f},2]/({f})"))
    assert (c.num.degree, c.den.degree) == (7, 5)
    assert _as_dict(divisors(parse(f"D[{f},2]/({f})"))[1]) == {0.5: 2, -0.3j: 1, -1.2: 2}


def test_divisors_of_derivatives_are_exact():
    # c prod (z - a)^m / prod (z - b)^n exp(p) on a dyadic grid 1/8 apart:
    # D^k f has poles b of order n + k, zeros a of order m - k where m > k,
    # and deg p - 1 + (number of poles) more zeros per derivative
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    point = st.tuples(st.integers(-12, 12), st.integers(-12, 12)).map(
        lambda p: complex(p[0], p[1]) / 8)
    dyadic = st.integers(-16, 16).map(lambda x: x / 16)

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(
        roots=st.lists(st.tuples(point, st.integers(1, 12)), min_size=1, max_size=5,
                       unique_by=lambda e: e[0]),
        split=st.integers(0, 5), k=st.integers(0, 3),
        c=st.tuples(dyadic, dyadic).filter(any),
        p=st.lists(dyadic, min_size=1, max_size=2).filter(lambda p: p[-1] != 0))
    def check(roots, split, k, c, p):
        zeros, poles = roots[:split], roots[split:]
        num = "*".join(f"(z-({a.real}+{a.imag}i))^{m}" for a, m in zeros) or "1"
        den = "*".join(f"(z-({b.real}+{b.imag}i))^{n}" for b, n in poles) or "1"
        expo = "+".join(f"({x})*z^{j + 1}" for j, x in enumerate(p))
        f = f"({c[0]}+{c[1]}i)*{num}/({den})*exp({expo})"
        got_zeros, got_poles = divisors(parse(f"D[{f},{k}]" if k else f))
        assert _as_dict(got_poles) == {complex(b): n + k for b, n in poles}, f
        for a, m in zeros:
            near = [j for x, j in got_zeros.entries if abs(x - a) <= 1e-9]
            assert near == ([m - k] if m > k else []) or m <= k, (f, k)
        total = sum(m for _, m in zeros) + k * (len(p) - 1 + len(poles))
        assert got_zeros.total == total, (f, k)

    check()


def test_divisors_of_derivative_with_high_order_pole():
    # the cube pole gains one order: D f has a pole of order four there and
    # keeps the simple pole's order two
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


def test_a_lone_typed_polynomial_stays_one_whole_base():
    # z^k + 1, the only polynomial of its piece, with simple roots and a
    # nonzero constant term, is one whole base, which the derivative takes
    # by its own coefficients: D[z^k+1,1] = k z^(k-1) exactly, one zero of
    # order k - 1 at 0 (from its split roots it spread into k - 1 simple
    # zeros from k = 4 on)
    for k in range(2, 13):
        zeros, poles = divisors(parse(f"D[z^{k}+1,1]"))
        assert zeros.entries == ((0j, k - 1),) and poles.is_empty, k
    f = parse("z^7+1")
    assert [(b.degree, e) for b, e in canonicalize(f).factors] == [(7, 1)]
    assert print_expr(f) == "(z^7+1.0)" and parse(print_expr(f)) == f
    # a piece's second polynomial, a multiple or a zero root, and Poly split
    for e in (parse("(z^2+1)*(z-3)"), parse("z^2-2*z+1"), parse("z^3+z"),
              Poly(Polynomial([1, 0, 1]))):
        assert all(b.degree == 1 for b, _ in canonicalize(e).factors), print_expr(e)
    # it splits where it meets another term's bases
    assert all(b.degree == 1 for b, _ in canonicalize(parse("(z^2+1)/(z-3)")).factors)


def test_a_divisor_holds_each_point_once():
    # divisors reads the form with whole bases split and merged, as
    # FunctionData does: (D[z^4+1,1]^2)' = 2 (4 z^3) (12 z^2) = 96 z^5, whose
    # whole bases z^3 and z^2 give the one zero of order 5, and
    # (D[z^3+1,1]^2)' = 36 z^3, whose whole base z^2 and base z give one of
    # order 3
    assert divisors(parse("D[D[z^4+1,1]^2,1]"))[0].entries == ((0j, 5),)
    zeros, poles = divisors(parse("D[D[z^3+1,1]^2,1]"))
    assert zeros.entries == ((0j, 3),) and poles.is_empty


def test_a_sum_splits_a_lone_whole_base_where_it_meets_another_term():
    # z^2/(z^2+1) + 1/(z^2+1) = 1: the first term's z^2+1 met z and split,
    # the second's is a lone whole base, which the sum splits too, so the
    # tie at +-i divides H = z^2 + 1 and no zero or pole is left
    for text in ("z^2/(z^2+1) + 1/(z^2+1)", "1/(z^2+1) + z^2/(z^2+1)"):
        f = parse(text)
        zeros, poles = divisors(f)
        assert zeros.is_empty and poles.is_empty, text
        assert print_expr(f) == "1.0"
    # where only one term has bases, its lone base stays whole
    assert [(b.degree, e) for b, e in canonicalize(parse("1/(z^2+1) + 1")).factors][-1] == (2, -1)


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
            return Poly(num) / Poly(den)

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
    # the operators build terms, as the parser and the combinators do
    z = Var()
    e = (z ** 2 - 1) / (z ** 2 + 1)
    assert e == parse("(z^2-1)/(z^2+1)")
    assert len(e.num) == 1 and e.den == ()
    assert evaluate(e, 2.0) == pytest.approx(3 / 5)
    assert e.power == 0
    # a denominator of several exponential parts stays a denominator, and
    # its powers stay one sum and an exponent, with no cancellation against
    # the numerator
    s = Exp(Polynomial([0, 1])) + 1
    f = 1 / s
    assert len(f.num) == 1 and f.den == s.num and f.power == 1
    assert evaluate(f, 0.0) == pytest.approx(0.5)
    for g, power in ((f * f, 2), (f / s, 2), (s ** -3, 3), (f ** 2 + f, 2), (f ** 3 * s, 3)):
        assert (g.den, g.power) == (s.num, power)
    assert evaluate(f ** 3 * s, 0.0) == pytest.approx(0.25)
    assert (f * z).power == 1 and (f * (1 / (s + 1))).power == 1


# ---------------------------------------------------------------------------
# one value walker: evaluate classifies what evaluate_on_grid leaves non-finite

SINGULAR_POINTS = [
    ("1/z", 0, INFINITY),
    ("(1/z)*2", 0, INFINITY),
    ("z/z", 0, 1),  # removable singularities: the limit, from the reduced form
    ("z*(1/z)", 0, 1),
    ("(z^2-1)/(z-1)", 1, 2),
    ("exp(z^2)", 30, INFINITY),
    ("exp(z)+exp(-z)", 800, INFINITY),
    ("1/(exp(z)-exp(z))", 0, ZeroDivisionError),  # the zero function, at parse
    ("(exp(z)-exp(z))/z^2", 0, 0),  # the zero function
    ("(exp(z)+exp(-z))/(exp(z)+exp(-z))", 800, 1),  # sums scaled by their largest exponential
    ("(exp(z)-1)/(exp(2*z)-1)", 0, IndeterminatePointError),  # 0/0, no canonical form
    ("z^3", 1e103, INFINITY),  # overflow
    ("1/z^200", 1e10, 0),
]


def test_singular_points_are_classified():
    for text, z, want in SINGULAR_POINTS:
        if want is ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                parse(text)
        elif want is IndeterminatePointError:
            with pytest.raises(IndeterminatePointError):
                evaluate(parse(text), z)
        else:
            assert evaluate(parse(text), z) == want, text
    # near a pole but not on it: the large finite value, as on a grid
    near = evaluate(parse("1/(z-1)"), 1 + 1e-14)
    assert math.isfinite(near.real) and abs(near) > 1e13
    # a numerator vanishes against its own coefficient scale, not 1e-12
    assert evaluate(parse("1e-15/z"), 0) == INFINITY
    # overflowing factors that cancel: the value from the canonical form
    assert evaluate(parse("exp(z)/exp(z)"), 800) == 1
    assert evaluate(parse("exp(z^2)*exp(-z^2)"), 30) == 1
    assert evaluate(parse("exp(z)-exp(z)"), 800) == 0
    assert evaluate(parse("(z-800)*exp(z)"), 800) == 0
    assert evaluate(parse("D[exp(z^2),1]/exp(z^2)"), 30) == pytest.approx(60, rel=1e-12)
    # num and den overflow: their logs from the reversed coefficients at 1/z
    assert evaluate(parse("z^200/(z^199+1)"), 1e10) == pytest.approx(1e10, rel=1e-12)
    assert evaluate(parse("z^3/(z^3+1)"), 1e103) == pytest.approx(1, rel=1e-12)
    assert evaluate(parse("z^3*exp(-z^2)"), 1e103) == 0
    assert evaluate(parse("z^200"), 1e10) == INFINITY
    # a pole shared by terms of a sum, or of a derivative
    for text, z in [("1/z+1/z", 0), ("1/z-1/z^2", 0), ("D[1/z*exp(z),1]", 0),
                    ("D[1/z,2]", 0), ("D[z/(z-1),3]", 1)]:
        assert evaluate(parse(text), z) == INFINITY, text


def test_canonical_log_keeps_the_argument_at_zeros_and_poles():
    # log f from the factors: log|f| is -inf at a zero and +inf at a pole,
    # and arg f stays the sum of the other factors' arguments there, as
    # log(0j) = -inf + 0j; elsewhere exp(log f) is f
    c = canonicalize(parse("(z-1)^2*exp(1i*z)/(z+2)"))
    logs = c.log(np.array([1.0, -2.0, 0.5j]))
    assert logs[0] == complex(-math.inf, 1.0)
    assert logs[1] == complex(math.inf, 2.0 * math.pi - 2.0)
    assert np.exp(logs[2]) == pytest.approx(c.values(np.array([0.5j]))[0], rel=1e-14)
    assert np.array_equal(c.log_abs(np.array([1.0, -2.0])), [-math.inf, math.inf])


def test_array_evaluate_matches_point_by_point():
    rng = random.Random(31337)
    seen = {"infinity": 0, "raised": 0, "finite": 0}
    for _ in range(400):
        e = _random_expr(rng, rng.randint(0, 4))
        if rng.random() < 0.5:
            e = e / (Var() - 1)  # a pole at 1 beside whatever e does at 0
        pts = np.array([0, 1, -1, 1j] + [
            cmath.rect(rng.uniform(0.2, 2.0), rng.uniform(0, 2 * math.pi))
            for _ in range(6)]).reshape(2, 5)
        singles = []
        try:
            for z in pts.ravel():
                singles.append(evaluate(e, z))
        except IndeterminatePointError:
            seen["raised"] += 1
            with pytest.raises(IndeterminatePointError):
                evaluate(e, pts)
            continue
        got = evaluate(e, pts)
        assert got.shape == pts.shape
        # a point runs on numpy's scalar math, an array on its array loops,
        # whose complex product can round differently in the last bit
        assert [v == INFINITY for v in got.ravel()] == [v == INFINITY for v in singles]
        np.testing.assert_allclose(got.ravel(), singles, rtol=1e-12,
                                   err_msg=print_expr(e))
        seen["infinity"] += sum(v == INFINITY for v in singles)
        seen["finite"] += sum(v != INFINITY for v in singles)
    # 0/0 is raised only without a canonical form, which no e here lacks
    assert min(seen["infinity"], seen["finite"]) > 20, seen


def _random_text_and_sympy(rng, depth, sp, z):
    """A random expression as (text, sympy expression), built side by side
    from the same draws as _random_expr, so the oracle never reads the
    library's representation back."""
    def number():
        c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        sign = "+" if c.imag >= 0 else "-"
        return (f"({c.real!r}{sign}{abs(c.imag)!r}i)",
                sp.Rational(c.real) + sp.I * sp.Rational(c.imag))

    def poly(degree, scale):
        cs = [(rng.uniform(-scale, scale), rng.uniform(-scale, scale)) for _ in range(degree + 1)]
        text = "+".join(f"({re!r}+({im!r})*i)*z^{k}" for k, (re, im) in enumerate(cs))
        return f"({text})", sp.Add(*[(sp.Rational(re) + sp.I * sp.Rational(im)) * z ** k
                                     for k, (re, im) in enumerate(cs)])

    if depth == 0:
        pick = rng.randrange(3)
        if pick == 0:
            return number()
        if pick == 1:
            return "z", z
        return poly(rng.randint(0, 3), 2)
    pick = rng.randrange(6)
    if pick == 5:
        return _random_text_and_sympy(rng, depth - 1, sp, z)
    if pick == 4:
        text, p = poly(2, 1)
        return f"exp({text})", sp.exp(p)
    a, x = _random_text_and_sympy(rng, depth - 1, sp, z)
    if pick == 2:
        k = rng.randint(2, 3)
        return f"({a})^{k}", x ** k
    b, y = _random_text_and_sympy(rng, depth - 1, sp, z)
    op = {0: "+", 1: "*", 3: "/"}[pick]
    return f"({a}){op}({b})", {"+": x + y, "*": x * y, "/": x / y}[op]


def test_evaluate_matches_sympy_oracle():
    sp = pytest.importorskip("sympy")
    mpmath = pytest.importorskip("mpmath")
    z = sp.Symbol("z")
    rng = random.Random(8128)
    compared = 0
    for _ in range(60):
        text, exact = _random_text_and_sympy(rng, rng.randint(1, 3), sp, z)
        try:
            e = parse(text)
        except ZeroDivisionError:
            continue
        oracle = sp.lambdify(z, (exact, sp.diff(exact, z)), "mpmath")
        ours = (e, differentiate(e))
        for _ in range(4):
            w = cmath.rect(rng.uniform(0.3, 1.5), rng.uniform(0, 2 * math.pi))
            with mpmath.workdps(40):
                wants = [complex(v) for v in oracle(mpmath.mpc(w))]
            for f, want in zip(ours, wants):
                try:
                    got = evaluate(f, w)
                except IndeterminatePointError:
                    continue
                if is_infinite(got) or not (math.isfinite(want.real)
                                            and math.isfinite(want.imag)):
                    continue
                assert abs(got - want) <= 1e-9 * abs(want), (text, w)
                compared += 1
    assert compared > 400
