"""End-to-end acceptance checks.

Each test covers one headline capability at a fixed tolerance and prints
a single PASS or FAIL line even under pytest's output capture, so a plain
run of this module doubles as a scorecard.
"""

import cmath
import contextlib
import math
import random
import time
from fractions import Fraction

import pytest

from nevanlab import (
    AlphaViolation,
    CriterionParams,
    FamilySpec,
    INFINITE_MULTIPLICITY,
    MonomialSpec,
    RadialGrid,
    RescalingSpec,
    build_standard_monomial,
    characteristic_T,
    check_fmt,
    check_hinchliffe,
    check_hinchliffe_multi,
    check_holomorphic_criterion,
    check_meromorphic_criterion,
    degree_d,
    evaluate_diffpoly,
    expand_power_derivative,
    holomorphic_reduction,
    marty_probe,
    meromorphic_reduction,
    parse,
    rescale_extras_check,
    rescaling_identity_values,
    slack_verdict,
    weight_theta,
    zalcman_rescale,
)
from nevanlab.expressions import canonicalize
from nevanlab.inequalities import FMT_TOL

GRID = RadialGrid.geometric(2.0, 128.0, 64)


@contextlib.contextmanager
def scored(capsys, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"{label}: FAIL")
        raise
    else:
        with capsys.disabled():
            print(f"{label}: PASS")


def test_1_expansion_oracle(capsys):
    with scored(capsys, "1/9 expansion coefficient sums"):
        start = time.time()
        for n in range(1, 9):
            for t in range(0, 6):
                terms = expand_power_derivative(n, t)
                assert sum(c for c, _ in terms) == n ** t
                for _, vec in terms:
                    assert sum(vec) == n
                    assert sum(j * m for j, m in enumerate(vec)) == t
        assert time.time() - start < 5.0


def test_2_closed_form_indices(capsys):
    with scored(capsys, "2/9 degree and weight indices"):
        rng = random.Random(20240902)
        for _ in range(50):
            n = rng.randint(0, 4)
            k = rng.randint(1, 3)
            pairs = tuple((rng.randint(1, 5), rng.randint(1, 3))
                          for _ in range(k))
            p = build_standard_monomial(MonomialSpec(n, pairs))
            assert degree_d(p) == n + sum(nj for nj, _ in pairs)
            assert weight_theta(p) == sum(tj for _, tj in pairs)


def test_3_exponential_power_identity(capsys):
    with scored(capsys, "3/9 exponential power-derivative identity"):
        rng = random.Random(20240903)
        for _ in range(10):
            c = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            if abs(c) < 0.1:
                c += 0.5
            d = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
            # snap both routes to the same decimal literals
            c = complex(float(f"{c.real:.8f}"), float(f"{c.imag:.8f}"))
            d = complex(float(f"{d.real:.8f}"), float(f"{d.imag:.8f}"))
            g = parse(f"exp(({c.real:.8f}{c.imag:+.8f}i)*z"
                      f" + ({d.real:.8f}{d.imag:+.8f}i))")
            for k in range(1, 5):
                p = build_standard_monomial(MonomialSpec(0, ((k + 1, k),)))
                for _ in range(10):
                    xi = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                    got = evaluate_diffpoly(p, g, xi)
                    want = (((k + 1) * c) ** k
                            * cmath.exp((k + 1) * (c * xi + d)))
                    assert abs(got - want) <= 1e-10 * abs(want)


def test_4_characteristic_accuracy(capsys):
    with scored(capsys, "4/9 characteristic accuracy"):
        ez = parse("exp(z)")
        for r in (10.0, 20.0, 50.0):
            expected = r / math.pi
            got = float(characteristic_T(ez, r, samples=4096))
            assert abs(got - expected) <= 0.02 * expected
        ident = parse("z")
        for r in (5.0, 50.0, 500.0):
            assert abs(float(characteristic_T(ident, r))
                       - math.log(r)) <= 1e-6


def _random_rational_text(rng):
    def poly_text(deg):
        coeffs = [complex(rng.randint(-3, 3), rng.randint(-3, 3))
                  for _ in range(deg)]
        coeffs.append(complex(rng.choice([1, -1, 2, -2]), 0))
        parts = []
        for j, c in enumerate(coeffs):
            lit = f"({c.real:+g}{c.imag:+g}i)"
            parts.append(f"{lit}*z^{j}" if j else lit)
        return " + ".join(parts)

    num_deg = rng.randint(1, 5)
    den_deg = rng.randint(0, num_deg - 1)
    if den_deg == 0:
        return poly_text(num_deg)
    return f"({poly_text(num_deg)})/({poly_text(den_deg)})"


def test_5_fmt_bounded_difference(capsys):
    with scored(capsys, "5/9 bounded inverted-target difference"):
        rng = random.Random(20240904)
        for _ in range(10):
            f = parse(_random_rational_text(rng))
            for _ in range(3):
                a = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                series = check_fmt(f, a, grid=GRID, samples=512)
                # the first main theorem: |slack - J(1, f - a)| <= log(1 + |a|)
                j1 = series.params["j1"]
                for i in range(len(series.rows)):
                    assert abs(series.slack(i) - j1) <= math.log1p(abs(a)) + FMT_TOL


GROWTH_CORPUS = (
    ("z",                     (1, ((2, 1),)),        (1.0, 2.0)),
    ("z^2 + 1",               (0, ((3, 1),)),        (1.0,)),
    ("(z^2 - 1)/z",           (0, ((3, 1),)),        (1.0, 2.0)),
    ("z^3 - z",               (2, ((1, 1),)),        (1.0, -1.0)),
    ("1/(z - 1)",             (1, ((2, 1),)),        (2.0,)),
    ("z^2",                   (1, ((2, 2),)),        (1.0,)),
    ("(z - 2)*(z + 1)",       (0, ((2, 1), (2, 1))), (1.0, 3.0)),
    ("(z^2 + z + 1)/(z - 1)", (1, ((2, 1),)),        (2.0,)),
    ("z^4 - 1",               (0, ((2, 1),)),        (1.0, 3.0)),
    ("(z - 1)/(z + 2)",       (2, ((2, 2),)),        (1.0,)),
)


def test_6_growth_bound_corpus(capsys):
    with scored(capsys, "6/9 multi-value growth bound corpus"):
        for g_text, (n, pairs), values in GROWTH_CORPUS:
            g = parse(g_text)
            p = build_standard_monomial(MonomialSpec(n, pairs))
            series = check_hinchliffe_multi(g, p, values, grid=GRID,
                                            samples=512)
            assert slack_verdict(series).passed, g_text
            if canonicalize(g).den.degree == 0:
                entire = check_hinchliffe_multi(g, p, values, grid=GRID,
                                                samples=512, entire=True)
                assert slack_verdict(entire).passed, g_text
            # the single-value bound is the q=1, a=1 slice of the general one
            single = check_hinchliffe(g, p, grid=GRID, samples=512)
            multi = check_hinchliffe_multi(g, p, (1.0,), grid=GRID,
                                           samples=512)
            for row_s, row_m in zip(single.rows, multi.rows):
                for x, y in zip(row_s, row_m):
                    assert abs(x - y) <= 1e-12


def test_7_criterion_reductions(capsys):
    with scored(capsys, "7/9 exact criterion arithmetic"):
        rng = random.Random(20240905)
        for _ in range(200):
            n = rng.randint(0, 5)
            k = rng.randint(1, 3)
            pairs = tuple((rng.randint(1, 6), rng.randint(1, 4))
                          for _ in range(k))
            params = CriterionParams(n, pairs, (1.0,),
                                     (INFINITE_MULTIPLICITY,))
            mero = check_meromorphic_criterion(params)
            holo = check_holomorphic_criterion(params)
            assert mero.condition_b == meromorphic_reduction(n, pairs)[2]
            assert holo.condition_b == holomorphic_reduction(n, pairs)[2]
            assert isinstance(mero.rhs, Fraction)
            assert isinstance(holo.rhs, Fraction)
        boundary = check_holomorphic_criterion(
            CriterionParams(0, ((2, 1),), (1.0,), (INFINITE_MULTIPLICITY,)))
        assert boundary.rhs == 0
        assert not boundary.condition_b


def test_8_normality_probes(capsys):
    with scored(capsys, "8/9 normal-family probes"):
        params = tuple(float(4 ** i) for i in range(5))
        scaling = FamilySpec("v*z", params)
        assert marty_probe(scaling, resolution=15).divergent
        translation = FamilySpec("z + v", params)
        assert not marty_probe(translation, resolution=15).divergent

        zoom_params = tuple(float(2 ** i) for i in range(2, 7))
        fam = FamilySpec("v*z", zoom_params)
        spec = RescalingSpec.from_rules(0, zoom_params, lambda v: 0j,
                                        lambda v: 1.0 / v)
        report = zalcman_rescale(fam, spec, limit=parse("z"))
        assert report.converged
        assert all(entry[4] <= 1e-10 for entry in report.entries)

        rng = random.Random(20240906)
        f = parse("(z^2 - 1) * exp(z)")
        for _ in range(20):
            nj, tj = rng.randint(1, 3), rng.randint(1, 3)
            alpha = Fraction(rng.randint(-2, 2), 4)
            z_v = complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))
            rho = rng.uniform(0.05, 0.5)
            xi = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            lhs, rhs = rescaling_identity_values(f, nj, tj, z_v, rho,
                                                 alpha, xi)
            assert abs(lhs - rhs) <= 1e-8 * (1.0 + abs(rhs))


def test_9_extra_terms_vanish(capsys):
    with scored(capsys, "9/9 lower-index extras vanish under rescaling"):
        params = tuple(float(10 ** k) for k in (2, 4, 6, 8))
        fam = FamilySpec("v*z", params)
        main = MonomialSpec(1, ((2, 1),))
        spec = RescalingSpec.from_rules(Fraction(1, 3), params,
                                        lambda v: 0j, lambda v: v ** -1.5)
        report = rescale_extras_check(
            main, ((1.0, MonomialSpec(3, ((1, 1),))),), fam, spec)
        assert report.main_converged
        assert report.extras_vanish
        assert report.entries[-1][2] < 1e-3
        with pytest.raises(AlphaViolation):
            rescale_extras_check(main, ((1.0, MonomialSpec(1, ((1, 1),))),),
                                 fam, spec)
