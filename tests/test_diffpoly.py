import cmath
import random
from fractions import Fraction

import pytest

from nevanlab import evaluate, is_infinite, parse
from nevanlab.diffpoly import (
    AlphaViolation,
    DiffPolynomial,
    DiffTerm,
    MonomialSpec,
    alpha_index,
    build_standard_monomial,
    compose_generalized,
    compose_monomial,
    degree_d,
    diffpoly_expression,
    evaluate_diffpoly,
    expand_power_derivative,
    generalized_polynomial,
    print_diffpoly,
    weight_theta,
)


def _as_dict(expansion):
    return {vec: c for c, vec in expansion}


def test_expand_small_cases():
    # product rule: (g^2)' = 2 g g'
    assert _as_dict(expand_power_derivative(2, 1)) == {(1, 1): 2}
    # (g^2)'' = 2 (g')^2 + 2 g g''
    assert _as_dict(expand_power_derivative(2, 2)) == {(0, 2, 0): 2, (1, 0, 1): 2}
    # (g^3)'' = 6 g (g')^2 + 3 g^2 g''
    assert _as_dict(expand_power_derivative(3, 2)) == {(1, 2, 0): 6, (2, 0, 1): 3}
    # t = 0 leaves the power alone
    assert _as_dict(expand_power_derivative(5, 0)) == {(5,): 1}
    # first power just shifts the derivative order
    assert _as_dict(expand_power_derivative(1, 3)) == {(0, 0, 0, 1): 1}


def test_expand_constraints_and_coefficient_sum():
    for n in range(1, 9):
        for t in range(0, 6):
            expansion = expand_power_derivative(n, t)
            assert sum(c for c, _ in expansion) == n ** t
            for c, vec in expansion:
                assert c > 0
                assert sum(vec) == n
                assert sum(j * m for j, m in enumerate(vec)) == t
                assert len(vec) == t + 1


def test_expand_input_validation():
    with pytest.raises(ValueError):
        expand_power_derivative(0, 1)
    with pytest.raises(ValueError):
        expand_power_derivative(2, -1)


def test_monomial_spec_validation_and_json():
    spec = MonomialSpec(2, ((3, 1), (2, 2)))
    assert spec.to_json_dict() == {"n": 2, "pairs": [[3, 1], [2, 2]]}
    again = MonomialSpec.from_json_dict({"n": 2, "pairs": [[3, 1], [2, 2]]})
    assert again == spec
    with pytest.raises(ValueError):
        MonomialSpec(-1, ((1, 1),))
    with pytest.raises(ValueError):
        MonomialSpec(1, ())
    with pytest.raises(ValueError):
        MonomialSpec(1, ((0, 1),))
    with pytest.raises(ValueError):
        MonomialSpec(1, ((1, 0),))
    with pytest.raises(ValueError):
        MonomialSpec.from_json_dict({"n": 1})


@pytest.mark.parametrize("pairs", [((1.5, 1),), ((2, 1.0),), ((True, 1),),
                                   ((2, 1, 1),), (2, 1), 5])
def test_monomial_spec_refuses_non_integer_pairs(pairs):
    # a float entry used to be truncated silently: (1.5, 1) became (1, 1)
    with pytest.raises(ValueError, match="pairs of integers"):
        MonomialSpec(1, pairs)
    with pytest.raises(ValueError, match="pairs of integers"):
        MonomialSpec.from_json_dict({"n": 1, "pairs": pairs})


@pytest.mark.parametrize("n", [True, False, 1.0])
def test_monomial_spec_refuses_non_integer_n(n):
    # a JSON true used to be read as n = 1
    with pytest.raises(ValueError, match="nonnegative integer"):
        MonomialSpec(n, ((1, 1),))
    with pytest.raises(ValueError, match="nonnegative integer"):
        MonomialSpec.from_json_dict({"n": n, "pairs": [[2, 1]]})


def test_build_standard_monomial_examples():
    # g * (g^2)' = 2 g^2 g'
    p = build_standard_monomial(MonomialSpec(1, ((2, 1),)))
    assert [(t.coefficient, t.exponents) for t in p.terms] == [(2, (2, 1))]
    # n = 0 with one pair is exactly the bare expansion
    p = build_standard_monomial(MonomialSpec(0, ((3, 2),)))
    # trailing zero orders are trimmed in stored terms
    assert {t.exponents: t.coefficient for t in p.terms} == {(1, 2): 6, (2, 0, 1): 3}
    # g^2 * (2 g g')^2 = 4 g^4 (g')^2
    p = build_standard_monomial(MonomialSpec(2, ((2, 1), (2, 1))))
    assert [(t.coefficient, t.exponents) for t in p.terms] == [(4, (4, 2))]


def test_degree_and_weight():
    spec = MonomialSpec(2, ((3, 1), (2, 2)))
    p = build_standard_monomial(spec)
    assert degree_d(p) == 2 + 3 + 2
    assert weight_theta(p) == 1 + 2
    mixed = DiffPolynomial((DiffTerm(1, (3,)), DiffTerm(1, (1, 1))))
    assert degree_d(mixed) == 2
    assert weight_theta(mixed) == 1
    assert weight_theta(DiffPolynomial((DiffTerm(1, (2, 0, 0, 1)),))) == 3


def test_degree_weight_random_specs():
    rng = random.Random(20240819)
    for _ in range(50):
        n = rng.randrange(0, 4)
        k = rng.randrange(1, 4)
        pairs = tuple((rng.randrange(1, 6), rng.randrange(1, 4)) for _ in range(k))
        spec = MonomialSpec(n, pairs)
        p = build_standard_monomial(spec)
        assert degree_d(p) == n + sum(nj for nj, _ in pairs)
        assert weight_theta(p) == sum(tj for _, tj in pairs)
        for term in p.terms:
            assert term.degree == n + sum(nj for nj, _ in pairs)


def test_alpha_index():
    assert alpha_index(MonomialSpec(0, ((4, 3),))) == Fraction(3, 4)
    assert alpha_index(MonomialSpec(3, ((3, 1),))) == Fraction(1, 6)
    assert alpha_index(MonomialSpec(1, ((2, 1),))) == Fraction(1, 3)


def test_exponential_monomial_identity():
    # for g = e^{cz+d} each derivative factor multiplies by (n_j c)^{t_j} and
    # the total exponent is (n + sum n_j)(cz + d)
    rng = random.Random(20240820)
    for _ in range(20):
        c = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        d = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        g = parse(f"exp(({c.real!r} + {c.imag!r}i)*z + ({d.real!r} + {d.imag!r}i))")
        n = rng.randrange(0, 3)
        pairs = tuple((rng.randrange(1, 4), rng.randrange(1, 4))
                      for _ in range(rng.randrange(1, 3)))
        spec = MonomialSpec(n, pairs)
        p = build_standard_monomial(spec)
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        got = evaluate_diffpoly(p, g, z)
        scale = 1.0
        for nj, tj in pairs:
            scale *= (nj * c) ** tj
        total = n + sum(nj for nj, _ in pairs)
        want = scale * cmath.exp(total * (c * z + d))
        assert abs(got - want) <= 1e-9 * (1.0 + abs(want))


def test_exponential_power_derivative_identity():
    # (g^{k+1})^(k) for g = e^{cz+d} equals ((k+1)c)^k e^{(k+1)(cz+d)}
    c, d = 0.7 - 0.3j, 0.2 + 0.1j
    g = parse("exp((0.7 - 0.3i)*z + (0.2 + 0.1i))")
    for k in range(1, 5):
        p = build_standard_monomial(MonomialSpec(0, ((k + 1, k),)))
        for z in (0j, 1.0 + 0.5j, -2.0 + 0.25j):
            got = evaluate_diffpoly(p, g, z)
            want = ((k + 1) * c) ** k * cmath.exp((k + 1) * (c * z + d))
            assert abs(got - want) <= 1e-9 * (1.0 + abs(want))


def test_affine_degenerate_values():
    # g = az + b with n_j = t_j collapses to a constant: (g^t)^(t) = t! a^t
    g = parse("2*z + 1")
    p = build_standard_monomial(MonomialSpec(0, ((3, 3),)))
    for z in (0j, 2.0 + 1.0j):
        assert evaluate_diffpoly(p, g, z) == pytest.approx(48.0, rel=1e-12)
    # g * (g^3)'' = 24 (2z)^2 for g = 2z
    g = parse("2*z")
    p = build_standard_monomial(MonomialSpec(1, ((3, 2),)))
    assert evaluate_diffpoly(p, g, 1.0) == pytest.approx(96.0, rel=1e-12)
    # g = z, n = 1, pairs [(2, 1)]: z * (z^2)' = 2 z^2
    p = build_standard_monomial(MonomialSpec(1, ((2, 1),)))
    assert evaluate_diffpoly(p, parse("z"), 3.0) == pytest.approx(18.0, rel=1e-12)


def test_dual_route_agreement():
    rng = random.Random(20240821)
    g_texts = (
        "z^3 - 2*z + 1",
        "(z - 1)/(z + 2)",
        "(z^2 + 1) * exp(z)",
        "exp(z^2 - z)/(z - 4)",
    )
    for text in g_texts:
        g = parse(text)
        for _ in range(4):
            n = rng.randrange(0, 3)
            k = rng.randrange(1, 3)
            pairs = tuple((rng.randrange(1, 4), rng.randrange(1, 3))
                          for _ in range(k))
            spec = MonomialSpec(n, pairs)
            p = build_standard_monomial(spec)
            direct = compose_monomial(spec, g)
            expanded_expr = diffpoly_expression(p, g)
            checked = 0
            while checked < 10:
                z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                via_values = evaluate_diffpoly(p, g, z)
                via_direct = evaluate(direct, z)
                via_expr = evaluate(expanded_expr, z)
                if is_infinite(via_direct) or is_infinite(via_values):
                    continue
                scale = 1.0 + abs(via_direct)
                if abs(via_direct) > 1e9:
                    continue
                assert abs(via_values - via_direct) <= 1e-8 * scale
                assert abs(via_expr - via_direct) <= 1e-8 * scale
                checked += 1


def test_evaluate_at_pole_returns_infinity():
    g = parse("1/(z - 1)")
    p = build_standard_monomial(MonomialSpec(1, ((2, 1),)))
    assert is_infinite(evaluate_diffpoly(p, g, 1.0))


def test_generalized_polynomial_alpha_rules():
    main = MonomialSpec(1, ((2, 1),))  # alpha = 1/3
    ok_extra = MonomialSpec(3, ((1, 1),))  # alpha = 1/4
    p = generalized_polynomial(main, ((2.0, ok_extra),))
    assert degree_d(p) == 3
    # exponents present from both monomials
    vecs = {t.exponents for t in p.terms}
    assert (2, 1) in vecs and (3, 1) in vecs
    bad_extra = MonomialSpec(1, ((1, 1),))  # alpha = 1/2 >= 1/3
    with pytest.raises(AlphaViolation):
        generalized_polynomial(main, ((1.0, bad_extra),))
    # equal alpha also violates the strict comparison
    with pytest.raises(AlphaViolation):
        generalized_polynomial(main, ((1.0, MonomialSpec(2, ((4, 2),))),))
    # empty extras reduce to the standard monomial
    assert generalized_polynomial(main) == build_standard_monomial(main)


def test_generalized_polynomial_expr_coefficients():
    main = MonomialSpec(1, ((2, 1),))
    extra = MonomialSpec(3, ((1, 1),))
    coeff = parse("1/(z + 5)")
    p = generalized_polynomial(main, ((coeff, extra),))
    g = parse("z^2 + 1")
    direct = compose_generalized(main, ((coeff, extra),), g)
    for z in (0.5 + 0.25j, -1.0 + 2.0j):
        got = evaluate_diffpoly(p, g, z)
        want = evaluate(direct, z)
        assert abs(got - want) <= 1e-10 * (1.0 + abs(want))
    with pytest.raises(ValueError):
        generalized_polynomial(main, ((parse("exp(z)"), extra),))


def test_term_budget_guard(monkeypatch):
    # merging keeps realistic cases small, so shrink the budget to reach the
    # guard rather than building an astronomically large spec
    import nevanlab.diffpoly as dp

    monkeypatch.setattr(dp, "MAX_TERMS", 5)
    with pytest.raises(ValueError, match="term budget"):
        build_standard_monomial(MonomialSpec(0, ((6, 4), (6, 4))))


def test_print_diffpoly():
    p = build_standard_monomial(MonomialSpec(1, ((2, 1),)))
    assert print_diffpoly(p) == "2*g^2*g'"
    p = build_standard_monomial(MonomialSpec(0, ((2, 2),)))
    assert print_diffpoly(p) == "2*(g')^2 + 2*g*g''"
    p = DiffPolynomial((DiffTerm(1, (1, 0, 0, 2)),))
    assert print_diffpoly(p) == "g*(g^(3))^2"


def test_extra_coefficients_must_be_rational():
    main = MonomialSpec(1, ((2, 1),))
    extra = MonomialSpec(3, ((1, 1),))
    # exponentials that cancel leave a rational coefficient
    generalized_polynomial(main, ((parse("exp(z)/exp(z)"), extra),))
    # exponential parts that stay
    for text in ("exp(z)+z", "exp(z)+exp(2*z)", "1/(exp(z)+1)"):
        with pytest.raises(ValueError, match="must be rational functions"):
            generalized_polynomial(main, ((parse(text), extra),))
    # an identically zero denominator is refused where the quotient is built
    with pytest.raises(ZeroDivisionError):
        parse("1/(exp(z)-exp(z))")
