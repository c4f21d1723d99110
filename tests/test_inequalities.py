import cmath
import json
import math
import random

import pytest

import nevanlab
from nevanlab import NotNormalizableError, Poly, Polynomial, div, parse
from nevanlab.diffpoly import DiffPolynomial, DiffTerm, MonomialSpec, build_standard_monomial
from nevanlab.inequalities import (
    EPSILON,
    FMT_TOL,
    MAX_EXCEPTIONAL,
    TAIL_FRACTION,
    SlackSeries,
    check_fmt,
    check_hinchliffe,
    check_hinchliffe_multi,
    check_log_derivative,
    check_smt,
    fmt_boundedness_verdict,
    slack_verdict,
)
from nevanlab.nevanlinna import RadialGrid

SMALL_GRID = RadialGrid.geometric(2.0, 32.0, 16)


def _series_from_slacks(slacks, normalizer=1.0):
    rows = tuple((2.0 + i, 0.0, s, normalizer) for i, s in enumerate(slacks))
    return SlackSeries("synthetic", {}, rows)


def test_policy_constants():
    assert (EPSILON, MAX_EXCEPTIONAL, TAIL_FRACTION) == (0.05, 0.10, 0.60)
    v = slack_verdict(_series_from_slacks([0.5] * 10))
    assert v.to_json_dict()["policy"] == {
        "epsilon": EPSILON, "max_exceptional": MAX_EXCEPTIONAL, "tail_fraction": TAIL_FRACTION}


def test_slack_verdict_arithmetic():
    # all positive slack: PASS with no exceptional radii
    v = slack_verdict(_series_from_slacks([0.5] * 10))
    assert v.passed and v.exceptional_fraction == 0.0

    # a single dip of -0.2 T among 12 tail radii stays within the 10% budget
    slacks = [1.0] * 20
    slacks[15] = -0.2
    v = slack_verdict(_series_from_slacks(slacks))
    assert v.tail_count == 12
    assert v.passed
    assert v.exceptional_fraction == pytest.approx(1.0 / 12.0)
    assert v.worst_radius == 2.0 + 15
    assert v.worst_normalized_slack == pytest.approx(-0.2)

    # half the tail below -epsilon fails
    slacks = [1.0] * 20
    for i in range(14, 20):
        slacks[i] = -0.2
    assert not slack_verdict(_series_from_slacks(slacks)).passed

    # the default 64-radius grid has a 38-radius tail: 3 exceptional radii
    # pass (3/38 <= 0.10) and 4 fail (4/38 > 0.10); dips ahead of the tail,
    # and dips to exactly -epsilon, do not count
    for bad, passed in ((3, True), (4, False)):
        slacks = [1.0] * 64
        slacks[:26] = [-1.0] * 26
        slacks[26:26 + bad] = [-0.06] * bad
        slacks[-1] = -0.05
        v = slack_verdict(_series_from_slacks(slacks))
        assert v.tail_count == 38
        assert v.exceptional_fraction == bad / 38
        assert v.passed is passed


def test_slack_verdict_ties_report_the_smallest_radius():
    # tail slacks equal up to rounding: the smaller radius wins, with its slack
    v = slack_verdict(_series_from_slacks([1.0, 1.0, 0.05, 0.049999999999999996, 0.3]))
    assert v.tail_count == 3
    assert v.worst_radius == 4.0
    assert v.worst_normalized_slack == 0.05


def test_series_rejects_nonfinite():
    with pytest.raises(ValueError):
        SlackSeries("bad", {}, ((2.0, math.inf, 0.0, 1.0),))
    with pytest.raises(ValueError):
        SlackSeries("bad", {}, ())


def test_series_csv_and_json():
    s = _series_from_slacks([1.0, 2.0])
    csv = s.to_csv_text()
    assert csv.splitlines()[0] == "r,lhs,rhs,slack,normalized_slack"
    payload = json.loads(json.dumps(s.to_json_dict(slack_verdict(s))))
    assert payload["columns"] == ["r", "lhs", "rhs", "slack", "normalized_slack"]
    assert payload["verdict"]["passed"] is True
    assert payload["verdict"]["policy"]["epsilon"] == 0.05
    assert payload["verdict"]["form"] == "policy"


def test_log_derivative_trivial_cases():
    # (e^z)'/e^z = 1, whose positive-part log mean vanishes
    s = check_log_derivative(parse("exp(z)"), 1, SMALL_GRID, samples=256)
    assert max(row[1] for row in s.rows) == 0.0
    # (z)'/z = 1/z has modulus below 1 on every grid circle
    s = check_log_derivative(parse("z"), 1, SMALL_GRID, samples=256)
    assert max(row[1] for row in s.rows) <= 1e-12
    # a polynomial of degree < k has f^(k) = 0, and m(r, 0) = log+ 0 = 0
    for text, k in (("z", 2), ("3*z+1", 2), ("z^2", 3)):
        s = check_log_derivative(parse(text), k, SMALL_GRID, samples=256)
        assert all(row[1] == 0.0 for row in s.rows)
        assert slack_verdict(s).passed
    with pytest.raises(ValueError):
        check_log_derivative(parse("3"), 1, SMALL_GRID)
    with pytest.raises(ValueError):
        check_log_derivative(parse("z"), 0, SMALL_GRID)


def test_log_derivative_mixed_function():
    # f'/f = 5/(z - 1) + 2 has bounded modulus on large circles, so the
    # proximity stays far below the characteristic
    f = parse("(z - 1)^5 * exp(2*z)")
    grid = RadialGrid.geometric(2.0, 128.0, 32)
    s = check_log_derivative(f, 1, grid, samples=1024)
    for r, lhs, _, t in s.rows:
        if r >= 20.0:
            assert lhs / t < 0.05
    assert slack_verdict(s).passed


def test_fmt_exact_and_exponential():
    s = check_fmt(parse("z"), 0.0, SMALL_GRID, samples=256)
    for i, (r, lhs, rhs, _) in enumerate(s.rows):
        assert lhs == pytest.approx(math.log(r), abs=1e-8)
        assert rhs == pytest.approx(math.log(r), abs=1e-8)
        assert abs(s.slack(i)) <= 1e-6
    assert fmt_boundedness_verdict(s).passed

    s = check_fmt(parse("exp(z)"), 0.0, SMALL_GRID, samples=1024)
    for i, (r, lhs, rhs, _) in enumerate(s.rows):
        assert lhs == pytest.approx(r / math.pi, rel=1e-3)
        assert abs(s.slack(i)) <= 1e-3 * (1.0 + rhs)
    assert fmt_boundedness_verdict(s).passed


def test_fmt_huge_value_stays_bounded():
    # for |a| far outside the grid the difference is log r - 0 growing toward
    # log|a|; it never exceeds log|a| plus a small constant
    a = 1e6
    s = check_fmt(parse("z"), a, SMALL_GRID, samples=256)
    for i in range(len(s.rows)):
        assert abs(s.slack(i)) <= math.log(a) + 2.0


def _shift_j1(series, delta):
    return SlackSeries(series.name, dict(series.params, j1=series.params["j1"] + delta),
                       series.rows)


def test_fmt_tolerance_is_pinned():
    assert FMT_TOL == 1e-4


@pytest.mark.parametrize("text,a,j1", [
    # (z^2 - 1)/(z + 3) - 1 = (z^2 - z - 4)/(z + 3): the zeros (1 -+ sqrt 17)/2
    # and the pole -3 lie outside |z| = 1, so Jensen gives log(4/3)
    ("(z^2-1)/(z+3)", 1, math.log(4.0 / 3.0)),
    # 1000/(z - 0.5) - 1 = -(z - 1000.5)/(z - 0.5)
    ("1000/(z-0.5)", 1, math.log(1000.5)),
])
def test_fmt_j1_closed_form(text, a, j1):
    s = check_fmt(parse(text), a, SMALL_GRID)
    assert s.params["j1"] == pytest.approx(j1, abs=1e-12)
    assert s.params["bound"] == math.log(2.0)
    v = fmt_boundedness_verdict(s)
    assert v.passed and v.j1 == s.params["j1"] and v.bound == math.log(2.0)
    assert v.worst_radius in s.radii
    assert v.worst_deviation <= v.bound


def test_fmt_without_j1_fails():
    # the slack sits near log 1000.5 = 6.9, far beyond the bound log 2
    s = check_fmt(parse("1000/(z-0.5)"), 1, SMALL_GRID)
    assert not fmt_boundedness_verdict(_shift_j1(s, -s.params["j1"])).passed


@pytest.mark.parametrize("text", ["z", "exp(z)", "(z^2-1)/(z+3)"])
def test_fmt_identity_at_zero(text):
    # a = 0 leaves bound 0: the slack equals j1 to the tolerance, and a j1
    # off by 0.01 fails
    s = check_fmt(parse(text), 0, SMALL_GRID)
    assert s.params["bound"] == 0.0
    for i, row in enumerate(s.rows):
        assert abs(s.slack(i) - s.params["j1"]) <= FMT_TOL * (1.0 + row[3])
    assert fmt_boundedness_verdict(s).passed
    for delta in (0.01, -0.01):
        assert not fmt_boundedness_verdict(_shift_j1(s, delta)).passed


@pytest.mark.parametrize("k", [4, 5])
def test_fmt_identity_on_high_derivatives(k):
    s = check_fmt(parse(f"D[(z^2-1)/(z+3),{k}]"), 0, RadialGrid.geometric())
    assert fmt_boundedness_verdict(s).passed


def test_fmt_first_main_theorem_property():
    # |slack - j1| <= log(1 + |a|) + FMT_TOL over factored rationals with
    # distinct zeros and poles on the lattice (Z + iZ)/8 within |Re|, |Im|
    # <= 1.5, multiplicities up to 3, and a on (Z + iZ)/4 within 3, 0 included.
    # The lattice keeps a from values so small that f - a has roots closer
    # than the root finder resolves, where it refuses with RootFindingError.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    lattice = st.tuples(st.integers(-12, 12), st.integers(-12, 12))

    @hypothesis.settings(max_examples=60)
    @hypothesis.given(
        points=st.lists(st.tuples(lattice, st.integers(1, 3)), min_size=1, max_size=6,
                        unique_by=lambda e: e[0]),
        split=st.integers(1, 6),
        a=lattice.map(lambda p: complex(p[0], p[1]) / 4))
    def check(points, split, a):
        roots = [(complex(x, y) / 8, m) for (x, y), m in points]
        factors = [Polynomial.from_roots([z for z, m in part for _ in range(m)])
                   for part in (roots[:split], roots[split:])]
        s = check_fmt(div(Poly(factors[0]), Poly(factors[1])), a, SMALL_GRID)
        for i in range(len(s.rows)):
            assert abs(s.slack(i) - s.params["j1"]) <= math.log1p(abs(a)) + FMT_TOL

    check()


def test_smt_square_closed_form():
    s = check_smt(parse("z^2"), [0.0, 1.0, -1.0], SMALL_GRID, samples=256)
    for i, (r, lhs, rhs, t) in enumerate(s.rows):
        # lhs = 2 T(r, z^2) = 4 log r; rhs counts {0}, {1,-1}, {i,-i}
        assert lhs == pytest.approx(4.0 * math.log(r), abs=1e-6)
        assert rhs == pytest.approx(5.0 * math.log(r), abs=1e-6)
        assert s.slack(i) == pytest.approx(math.log(r), abs=1e-6)
    assert slack_verdict(s).passed


def test_smt_random_rationals():
    rng = random.Random(20240822)
    built = 0
    while built < 8:
        num_deg = rng.randrange(1, 4)
        den_deg = rng.randrange(0, num_deg)
        num = [rng.randrange(-2, 3) for _ in range(num_deg + 1)]
        den = [rng.randrange(-2, 3) for _ in range(den_deg + 1)]
        num[-1] = rng.choice([1, 2, -1])
        den[-1] = rng.choice([1, 2])
        text_num = "+".join(f"({c})*z^{k}" for k, c in enumerate(num))
        text_den = "+".join(f"({c})*z^{k}" for k, c in enumerate(den))
        try:
            f = parse(f"({text_num})/({text_den})")
            s = check_smt(f, [0.0, 1.0], SMALL_GRID, samples=512)
        except (ValueError, ZeroDivisionError):
            continue
        assert slack_verdict(s).passed, s.params
        built += 1


def test_smt_error_paths():
    with pytest.raises(ValueError):
        check_smt(parse("z"), [1.0, 1.0], SMALL_GRID)
    with pytest.raises(ValueError):
        check_smt(parse("z"), [1.0], SMALL_GRID)
    with pytest.raises(NotNormalizableError):
        check_smt(parse("exp(z)"), [1.0, -1.0], SMALL_GRID, samples=256)


def _monomial(n, pairs):
    return build_standard_monomial(MonomialSpec(n, tuple(pairs)))


def test_growth_bound_linear_closed_form():
    # g = z, P = 2 g^2 g', values {1, 2}: every ingredient is exact and the
    # slack is 0.4 log r (2/5 of the characteristic) at each radius
    g = parse("z")
    p = _monomial(1, [(2, 1)])
    s = check_hinchliffe_multi(g, p, [1.0, 2.0], SMALL_GRID, samples=256)
    for i, (r, lhs, rhs, _) in enumerate(s.rows):
        assert lhs == pytest.approx(math.log(r), abs=1e-8)
        assert s.slack(i) == pytest.approx(0.4 * math.log(r), abs=1e-6)
    assert slack_verdict(s).passed

    entire = check_hinchliffe_multi(g, p, [1.0, 2.0], SMALL_GRID,
                                    samples=256, entire=True)
    for i, (r, lhs, rhs, _) in enumerate(entire.rows):
        assert entire.slack(i) == pytest.approx(math.log(r) / 6.0, abs=1e-6)
    assert slack_verdict(entire).passed


def test_entire_variant_root_finds_g_once(monkeypatch):
    # g's leaf z^2 - 1 is split once, where parse reads it,
    # and P - 1 (degree 5) once; the divisors and derivatives find no roots
    original = nevanlab.expressions.poly_roots
    for entire in (False, True):
        degrees = []

        def counting(p):
            degrees.append(p.degree)
            return original(p)
        monkeypatch.setattr(nevanlab.expressions, "poly_roots", counting)
        check_hinchliffe_multi(parse("z^2 - 1"), _monomial(1, [(2, 1)]), [1.0],
                               SMALL_GRID, samples=256, entire=entire)
        assert sorted(degrees) == [2, 5]


def test_lemma3_rhs_counts_the_six_simple_zeros():
    # g = 1/(z - 1), P = g^2 (g^2)'' = 6 (z - 1)^-6: P - 1 has six simple zeros
    # 1 + 6^(1/6) w^j and g none, so rhs = Nbar(r, 1/(P - 1)) / (q d - 1), d = 4
    s = check_hinchliffe_multi(parse("1/(z-1)"), _monomial(2, [(2, 2)]), [1.0], SMALL_GRID,
                               samples=256)
    zeros = [1 + 6 ** (1 / 6) * cmath.exp(1j * math.pi * j / 3) for j in range(6)]
    for r, _, rhs, _ in s.rows:
        want = sum(math.log(r / max(abs(z), 1.0)) for z in zeros if abs(z) <= r) / 3
        assert rhs == pytest.approx(want, rel=1e-12)
    big = check_hinchliffe_multi(parse("1/(z-1)"), _monomial(2, [(2, 2)]), [1.0],
                                 RadialGrid.geometric(), samples=256)
    assert big.rows[-3][0] == pytest.approx(112.17, abs=0.01)
    assert big.rows[-3][2] == pytest.approx(8.5517, abs=1e-4)


def test_growth_bound_pure_power_rational():
    # P = g^3 as a bare differential polynomial (degree 3, weight 0)
    g = parse("(z^2 - 1)/z")
    p = DiffPolynomial((DiffTerm(1, (3,)),))
    s = check_hinchliffe_multi(g, p, [1.0, 2.0], SMALL_GRID, samples=512)
    assert s.params["P_degree"] == 3
    assert s.params["P_weight"] == 0
    assert slack_verdict(s).passed


def test_single_value_bound_agreement():
    g = parse("(z - 1)/(z + 1)")
    p = _monomial(1, [(2, 1)])
    one = check_hinchliffe(g, p, SMALL_GRID, samples=512)
    multi = check_hinchliffe_multi(g, p, [1.0], SMALL_GRID, samples=512)
    assert len(one.rows) == len(multi.rows)
    for a, b in zip(one.rows, multi.rows):
        assert a[0] == b[0]
        assert abs(a[1] - b[1]) <= 1e-12
        assert abs(a[2] - b[2]) <= 1e-12
    assert slack_verdict(one).passed


def test_growth_bound_preconditions():
    g = parse("z")
    low = _monomial(0, [(1, 1)])  # degree 1
    with pytest.raises(ValueError):
        check_hinchliffe(g, low, SMALL_GRID)
    with pytest.raises(ValueError):
        check_hinchliffe_multi(g, low, [1.0], SMALL_GRID)
    p = _monomial(1, [(2, 1)])
    with pytest.raises(ValueError):
        check_hinchliffe_multi(g, p, [0.0, 1.0], SMALL_GRID)
    with pytest.raises(ValueError):
        check_hinchliffe_multi(g, p, [1.0, 1.0], SMALL_GRID)
    with pytest.raises(ValueError):
        check_hinchliffe_multi(parse("1/z"), p, [1.0], SMALL_GRID, entire=True)
    with pytest.raises(NotNormalizableError, match="a_1"):
        check_hinchliffe_multi(parse("exp(z)"), _monomial(1, [(1, 1)]),
                               [1.0], SMALL_GRID, samples=256)


@pytest.mark.parametrize("text", ["3*exp(0)", "(z-1)/(z-1)"])
def test_constants_are_refused(text):
    # a constant has no base left after cancelling and a constant expo,
    # whichever way it is written
    f = parse(text)
    checks = (lambda: check_log_derivative(f, 1, SMALL_GRID), lambda: check_fmt(f, 1, SMALL_GRID),
              lambda: check_smt(f, [0, 1, 2], SMALL_GRID),
              lambda: check_hinchliffe(f, _monomial(1, [(2, 1)]), SMALL_GRID))
    for check, what in zip(checks, "fffg"):
        with pytest.raises(ValueError, match=f"^{what} must be nonconstant$"):
            check()


def test_slack_stable_under_sample_doubling():
    f = parse("(z - 1)^5 * exp(2*z)")
    a = check_log_derivative(f, 1, SMALL_GRID, samples=512)
    b = check_log_derivative(f, 1, SMALL_GRID, samples=1024)
    for i in range(len(a.rows)):
        t = a.rows[i][3]
        assert abs(a.slack(i) - b.slack(i)) <= 1e-3 * (1.0 + t)
