import cmath
import json
import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest

import nevanlab.expressions
import nevanlab.nevanlinna
from nevanlab import (
    DEFAULT_SAMPLES,
    Canonical,
    Const,
    Divisor,
    Exp,
    FamilySpec,
    FunctionData,
    Poly,
    Polynomial,
    QuadratureError,
    RadialGrid,
    canonicalize,
    characteristic_T,
    counting_N,
    counting_series,
    differentiate,
    div,
    divisors,
    mul,
    parse,
    pow_int,
    print_expr,
    proximity_m,
    radial_report,
    spherical_derivative,
    unintegrated_counting,
)


def test_grid_validation():
    g = RadialGrid.geometric(2.0, 128.0, 64)
    assert len(g) == 64
    assert g.radii[0] == pytest.approx(2.0)
    assert g.radii[-1] == pytest.approx(128.0)
    q = g.ratio
    for a, b in zip(g.radii, g.radii[1:]):
        assert b / a == pytest.approx(q, rel=1e-9)
    with pytest.raises(ValueError):
        RadialGrid((0.5, 2.0))
    with pytest.raises(ValueError):
        RadialGrid((4.0, 2.0))
    with pytest.raises(ValueError):
        RadialGrid((2.0, 4.0, 6.0))  # arithmetic, not geometric
    with pytest.raises(ValueError):
        RadialGrid(())


def test_non_finite_constant_factor_has_no_nevanlinna_data():
    # (1e300 z)^2 folds to lead inf: m = T = inf would be no number at all,
    # while its divisor, a double zero at 0, is still right
    for text in ("(1e300*z)^2", "(1e300*z)*(1e300*z)/((1e300*z+1)*(1e300*z+1))"):
        with pytest.raises(ValueError, match="constant factor"):
            FunctionData(parse(text))
    zeros, poles = divisors(parse("(1e300*z)^2"))
    assert zeros.entries == ((0j, 2),) and poles.entries == ()


def test_sample_count_validation():
    f = parse("z")
    with pytest.raises(ValueError):
        proximity_m(f, 10.0, samples=100)
    with pytest.raises(ValueError):
        proximity_m(f, 10.0, samples=32)
    rep = radial_report(f, RadialGrid((2.0, 4.0)))
    assert rep.samples == DEFAULT_SAMPLES


def test_unintegrated_counting():
    d = Divisor.from_pairs([(1 + 0j, 2), (3j, 1)], kind="zeros")
    assert unintegrated_counting(d, 0.5) == 0
    assert unintegrated_counting(d, 1.0) == 2
    assert unintegrated_counting(d, 5.0) == 3


def test_non_finite_radii_are_refused():
    d = Divisor.from_pairs([(1 + 0j, 2)], kind="poles")
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="radius must be finite"):
            counting_N(d, bad)
        with pytest.raises(ValueError, match="radius must be finite"):
            proximity_m(parse("z"), bad)
        with pytest.raises(ValueError, match="t must be finite"):
            unintegrated_counting(d, bad)
        with pytest.raises(ValueError, match="grid radii must be finite"):
            RadialGrid((2.0, bad, 8.0))
        with pytest.raises(ValueError, match="grid radii must be finite"):
            RadialGrid.geometric(2.0, bad, 4)
        with pytest.raises(ValueError, match="family params must be finite"):
            FamilySpec("v*z", (1.0, bad))
        with pytest.raises(ValueError, match="disc radius must be finite"):
            FamilySpec("v*z", (1.0, 2.0), radius=bad)


def test_counting_closed_form_values():
    one = Divisor.from_pairs([(1 + 0j, 1)], kind="zeros")
    assert counting_N(one, math.e) == pytest.approx(1.0, abs=1e-12)

    d = Divisor.from_pairs([(2 + 0j, 3)], kind="zeros")
    assert counting_N(d, 16.0) == pytest.approx(3.0 * math.log(8.0), abs=1e-12)

    # entries inside the unit disk contribute log r each, entries outside r none
    mixed = Divisor.from_pairs([(0j, 2), (0.5 + 0j, 1), (100 + 0j, 7)], kind="zeros")
    assert counting_N(mixed, 10.0) == pytest.approx(3.0 * math.log(10.0), abs=1e-12)

    multi = Divisor.from_pairs([(1 + 0j, 5), (3j, 2)], kind="zeros")
    expect = 5.0 * math.log(20.0) + 2.0 * (math.log(20.0) - math.log(3.0))
    assert counting_N(multi, 20.0) == pytest.approx(expect, abs=1e-12)
    trunc = math.log(20.0) + (math.log(20.0) - math.log(3.0))
    assert counting_N(multi, 20.0, truncated=True) == pytest.approx(trunc, abs=1e-12)

    with pytest.raises(ValueError):
        counting_N(one, 1.0)


def _scalar_counting(divisor, r, truncated):
    # reference: N(r) summed entry by entry at one radius, in entry order
    acc = 0.0
    for z, m in divisor.entries:
        if abs(z) <= r:
            acc += (1 if truncated else m) * (math.log(r) - math.log(max(abs(z), 1.0)))
    return acc


def test_counting_series_matches_scalar_loop():
    grid = RadialGrid.geometric(2.0, 128.0, 17)
    on_grid = grid.radii[5]
    rng = random.Random(7)
    pairs = [(0j, 2), (0.5 - 0.5j, 1), (1 + 0j, 3), (-1j, 1), (on_grid, 2),
             (on_grid * 1j, 1), (grid.radii[-1], 4), (200.0, 1)]
    for _ in range(12):
        pairs.append((cmath.rect(rng.uniform(0.0, 150.0), rng.uniform(0.0, 6.3)),
                      rng.randrange(1, 5)))
    d = Divisor.from_pairs(pairs, kind="zeros")
    for radii in (grid.radii, (1.5, on_grid, 300.0)):
        for truncated in (False, True):
            assert counting_series(d, radii, truncated) == [
                _scalar_counting(d, r, truncated) for r in radii]
    assert counting_series(Divisor.from_pairs([], kind="poles"), grid.radii) == [0.0] * 17
    with pytest.raises(ValueError):
        counting_series(d, (2.0, 1.0))


def _integral_oracle(divisor, r):
    # N(r) should equal the integral of n(t)/t from 1 to r; integrate exactly
    # over the piecewise-constant segments of n.
    bps = sorted({1.0, r} | {abs(z) for z, _ in divisor.entries if 1.0 < abs(z) <= r})
    total = 0.0
    for a, b in zip(bps, bps[1:]):
        mid = math.sqrt(a * b)
        n_mid = sum(m for z, m in divisor.entries if abs(z) <= mid)
        total += n_mid * (math.log(b) - math.log(a))
    return total


def test_counting_matches_integral_of_n():
    rng = random.Random(20240818)
    for _ in range(200):
        pairs = []
        for _ in range(rng.randrange(1, 7)):
            rad = rng.uniform(0.0, 12.0)
            ang = rng.uniform(0.0, 2.0 * math.pi)
            pairs.append((rad * complex(math.cos(ang), math.sin(ang)), rng.randrange(1, 5)))
        d = Divisor.from_pairs(pairs, kind="poles")
        for r in (3.0, 7.5):
            want = _integral_oracle(d, r)
            got = counting_N(d, r)
            assert abs(got - want) <= 1e-10 * (1.0 + abs(want))


def test_proximity_frozen_values():
    # |z| = 10 on the whole circle, integrand constant
    assert proximity_m(parse("z"), 10.0) == pytest.approx(math.log(10.0), abs=1e-8)
    # mean of max(r cos t, 0) over the circle is r/pi
    assert proximity_m(parse("exp(z)"), 10.0) == pytest.approx(10.0 / math.pi, rel=1e-4)
    # bounded below 1 everywhere: log+ vanishes
    assert proximity_m(parse("0.5"), 7.0) == 0.0
    assert proximity_m(parse("1/(z - 2)"), 10.0) == 0.0
    # constant above 1
    assert proximity_m(parse("5"), 3.0) == pytest.approx(math.log(5.0), abs=1e-12)


def test_proximity_jensen_mean():
    # circle mean of log|z - a| is log r for |a| < r and log|a| for |a| > r;
    # for a monic polynomial the means add, a spectral-accuracy quadrature check
    f = parse("(z - 0.5) * (z - 2) * (z + 3i) * (z - 20)")
    data = FunctionData(f)
    theta = 2.0 * np.pi * np.arange(4096) / 4096
    vals = data.canonical.log_abs(10.0 * np.exp(1j * theta))
    mean = float(np.mean(vals))
    want = 3.0 * math.log(10.0) + math.log(20.0)
    assert mean == pytest.approx(want, abs=1e-10)


def test_characteristic_values():
    assert characteristic_T(parse("z"), 10.0) == pytest.approx(math.log(10.0), abs=1e-8)
    # Jensen: mean of log|z - 1| over |z| = 10 is exactly log 10, and the
    # modulus stays above 1 there so log+ is log
    assert characteristic_T(parse("z - 1"), 10.0) == pytest.approx(math.log(10.0), abs=1e-8)
    # pole at 1 contributes N = log 10, proximity vanishes on |z| = 10
    assert characteristic_T(parse("1/(z - 1)"), 10.0) == pytest.approx(math.log(10.0), abs=1e-8)


def test_pole_on_circle_is_dodged():
    f = parse("1/(z - 2)")
    m = proximity_m(f, 2.0)
    assert math.isfinite(m)
    assert m > 0.0
    m2 = proximity_m(f, 2.0 * (1.0 + 1e-12))
    assert math.isfinite(m2)
    # only the middle radius carries the pole: its sampling from the form
    # without the pole's base must leave the other radii untouched
    radii = (1.5, 2.0, 2.5)
    ms = FunctionData(f).proximity(radii, 4096)
    assert ms[1] == m
    for r, got in zip(radii, ms):
        assert got == proximity_m(f, r, samples=4096)


def test_dodged_samples_do_not_overflow():
    # the radius through the pole goes through Canonical.log_abs, where
    # Horner's z^200 at |z| = 100 overflows; Jensen's mean is
    # 200 log 100 - log 100, and |f| > 1 on the circle, so m(100) is that
    # mean, and with the pole's term taken at its exact mean it is exact but
    # for rounding
    m = proximity_m(parse("z^200/(z-100)"), 100.0)
    assert m == pytest.approx(199.0 * math.log(100.0), abs=1e-9)


def test_proximity_of_a_high_power_is_jensen():
    # m(r, (z - a)^k) = k log r where r - |a| >= 1, as |f| >= 1 on the circle;
    # the expanded (z - a)^k would sum terms up to (r + |a|)^k to a value of
    # about (r - |a|)^k, but no circle reads it: a root near the circle is a
    # near root of the row, with its k log|z - a| at the nodes
    for a in (1.0, 0.5, 1.5, 1.2j, 0.7 + 0.7j):
        for k in range(1, 296, 7):
            radii = [r for r in (2.0, 2.5, 3.0) if r - abs(a) >= 1.0]
            data = FunctionData(pow_int(Poly(Polynomial([-a, 1])), k))
            for r, m in zip(radii, data.proximity(radii, DEFAULT_SAMPLES)):
                assert abs(m - k * math.log(r)) <= 1e-9 * k * math.log(r), (a, k, r, m)


@pytest.mark.parametrize("k", [30, 50, 100])
def test_dodged_high_power_matches_mpmath(k):
    # (z - 1)^k/(z - 2) on |z| = 2: the pole lies on the node z = 2, and with
    # s = sin(t/2) |z - 1|^2 = 1 + 8 s^2 and |z - 2|^2 = 16 s^2
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        ref = float(mpmath.quad(lambda t: max(0, k * mpmath.log(1 + 8 * mpmath.sin(t / 2) ** 2)
                                              - mpmath.log(16 * mpmath.sin(t / 2) ** 2)) / 2,
                                [0, mpmath.pi]) / mpmath.pi)
    assert math.isfinite(ref)
    assert abs(proximity_m(parse(f"(z-1)^{k}/(z-2)"), 2.0) - ref) <= 1e-13 * ref


@pytest.mark.parametrize("k", [30, 50, 100])
def test_pole_on_a_node_keeps_jensen(k):
    # |f| >= 1 on |z| = 2 for f = (z - 1)^k/(z - 2), so m(2) is the mean of
    # log|f|, (k - 1) log 2 by Jensen's formula; the smooth part k log|z - 1|
    # is sampled at every node, the pole's included, not moved off it
    want = (k - 1) * math.log(2.0)
    for samples in (64, 4096):
        assert abs(proximity_m(parse(f"(z-1)^{k}/(z-2)"), 2.0, samples) - want) <= 1e-14 * want


def test_sampled_circle_is_its_trapezoid_near_a_multiple_pole():
    # D^4 of (z^2 - 1)/(z + 3) is 192/(z + 3)^5, whose 5-fold pole lies 0.9%
    # outside the circle: the expanded den would lose 7 digits there, and the
    # row takes the pole as a near root, to the N-point sum's rounding
    mpmath = pytest.importorskip("mpmath")
    r, samples = 2.971988578273895, DEFAULT_SAMPLES
    with mpmath.workdps(30):
        nodes = [r * mpmath.expjpi(mpmath.mpf(2 * j) / samples) for j in range(samples)]
        logs = [mpmath.log(192) - 5 * mpmath.log(abs(z + 3)) for z in nodes]
        want = float(sum(max(v, 0) for v in logs) / samples)
    assert abs(proximity_m(parse("D[(z^2-1)/(z+3),4]"), r) - want) <= 1e-15 * want


@pytest.mark.parametrize("text", ["1/(z-2)", "1/(z-(1.2+1.6i))", "1/(z^2+4)", "5/(z-2)^2"])
def test_pole_on_circle_quadrature_error_is_removed(text):
    # poles on |z| = 2, at a node or between nodes: the sample mean
    # of log+|f| alone misses by up to m log(pi)/N (2.8e-4 per unit of
    # multiplicity at 4096 samples); what is left is the kink error
    f = parse(text)
    assert proximity_m(f, 2.0, 4096) == pytest.approx(proximity_m(f, 2.0, 65536), abs=1e-6)


def test_pole_of_a_whole_base_on_a_node():
    # the ill-conditioned (z - 1) ... (z - 24) stays one whole base, whose
    # computed root 2 does not cancel the node z = 2 exactly: that node
    # moves half a step, and the pole's term is still taken at its mean
    f = div(Const(1e20), Poly(Polynomial.from_roots(range(1, 25))))
    data = FunctionData(f)
    assert [(b.degree, e) for b, e in data.canonical.factors] == [(24, -1)]
    assert data.proximity([2.0], 4096)[0] == pytest.approx(data.proximity([2.0], 65536)[0], abs=1e-6)


def test_quadrature_sample_doubling():
    for text, r in (("exp(z)", 10.0), ("(z - 1)/(z + 1) * exp(z)", 6.0)):
        f = parse(text)
        a = proximity_m(f, r, samples=4096)
        b = proximity_m(f, r, samples=8192)
        assert abs(a - b) <= 1e-4 * (1.0 + abs(a))


def test_spherical_derivative():
    assert spherical_derivative(parse("z"), 0.0) == pytest.approx(1.0, abs=1e-12)
    assert spherical_derivative(parse("z^2"), 0.0) == pytest.approx(0.0, abs=1e-12)
    # at a pole the reciprocal branch takes over
    assert spherical_derivative(parse("1/z"), 0.0) == pytest.approx(1.0, abs=1e-12)
    # enormous values route through the reciprocal without overflow
    v = spherical_derivative(parse("exp(z)"), 400.0)
    assert math.isfinite(v)
    assert v < 1e-150
    # exp(z) overflows at z = 800; its reciprocal exp(-z) and that one's
    # derivative -exp(-z) underflow to the correct 0.0
    out = spherical_derivative(parse("exp(z)"), np.array([0.0, 800.0]))
    assert out[0] == pytest.approx(0.5, rel=1e-12)
    assert out[1] == 0.0
    # e^z + e^-z overflows at z = 800, and 1/f, a quotient of sums, is
    # scaled by e^-800, so f# = |f'| / (1 + |f|^2) underflows to 0.0
    assert spherical_derivative(parse("exp(z)+exp(-z)"), 800.0) == 0.0
    # where f and 1/f are both 0/0, as for a quotient of sums with no
    # canonical form: NaN in an array, ValueError for a scalar point
    f = parse("(exp(z)-1)/(exp(2*z)-1)")
    assert np.isnan(spherical_derivative(f, np.array([0.0]))[0])
    with pytest.raises(ValueError, match="undefined"):
        spherical_derivative(f, 0.0)


def test_spherical_derivative_over_a_sum_matches_mpmath():
    # f = 1/(e^z+1) has f# = |e^z| / (|e^z+1|^2 + 1), 1 at its poles
    mpmath = pytest.importorskip("mpmath")
    f = parse("1/(exp(z)+1)")
    rng = random.Random(31)
    zs = [complex(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(40)] + [math.pi * 1j]
    got = spherical_derivative(f, np.array(zs))
    with mpmath.workdps(30):
        for z, value in zip(zs, got):
            w = mpmath.exp(mpmath.mpc(z))
            want = float(abs(w) / (abs(w + 1) ** 2 + 1))
            assert value == pytest.approx(want, rel=1e-12), z
            assert spherical_derivative(f, z) == pytest.approx(want, rel=1e-12)


def test_spherical_derivative_inversion_invariance():
    f = parse("(z^2 - 1)/(z - 3)")
    g = parse("(z - 3)/(z^2 - 1)")
    rng = random.Random(777)
    for _ in range(100):
        z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        a = spherical_derivative(f, z)
        b = spherical_derivative(g, z)
        assert a == pytest.approx(b, rel=1e-8, abs=1e-12)
    # arrays agree point by point with the scalar calls, including the pole
    # of f at 3 and the poles of g at +-1
    zs = np.array([complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
                   for _ in range(60)] + [3.0, 1.0, -1.0]).reshape(7, 9)
    a = spherical_derivative(f, zs)
    b = spherical_derivative(g, zs)
    assert a.shape == b.shape == zs.shape
    for z, sa, sb in zip(zs.ravel(), a.ravel(), b.ravel()):
        assert sa == pytest.approx(spherical_derivative(f, z), rel=1e-8, abs=1e-12)
        assert sb == pytest.approx(spherical_derivative(g, z), rel=1e-8, abs=1e-12)
        assert sa == pytest.approx(sb, rel=1e-8, abs=1e-12)


def test_radial_report_table():
    f = parse("(z - 1)/(z + 1)")
    grid = RadialGrid.geometric(2.0, 16.0, 8)
    rep = radial_report(f, grid, samples=256)
    assert len(rep.rows) == 8
    assert rep.monotone_ok
    for r, m, n, nbar, t in rep.rows:
        assert n == pytest.approx(math.log(r), abs=1e-12)  # simple pole at -1
        assert nbar == pytest.approx(n, abs=1e-12)
        assert t == pytest.approx(m + n, abs=1e-12)
    csv = rep.to_csv_text()
    assert csv.splitlines()[0] == "r,m,N,Nbar,T"
    assert len(csv.splitlines()) == 9
    payload = json.loads(json.dumps(rep.to_json_dict()))
    assert payload["columns"] == ["r", "m", "N", "Nbar", "T"]
    assert payload["config"]["samples"] == 256
    assert payload["monotone_ok"] is True


@pytest.mark.parametrize("k", [5, 6, 7, 8])
def test_high_derivative_proximity_matches_mpmath(k):
    # D^k of (z^2 - 1)/(z + 3) is 8 (-1)^k k! / (z + 3)^(k + 1); on |z| = 2,
    # |z + 3|^2 = 13 + 12 cos t, and log+|f| is the integral over the arc where
    # |f| > 1, split at the crossing
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        lead = mpmath.log(8 * mpmath.factorial(k))
        cos0 = (mpmath.exp(2 * lead / (k + 1)) - 13) / 12
        ref = mpmath.quad(lambda t: lead - (k + 1) / 2 * mpmath.log(13 + 12 * mpmath.cos(t)),
                          [mpmath.acos(max(-1, min(1, cos0))), mpmath.pi]) / mpmath.pi
    m = proximity_m(parse(f"D[(z^2-1)/(z+3),{k}]"), 2.0, samples=65536)
    assert abs(m - float(ref)) <= 1e-8


def test_zero_function_rejected():
    with pytest.raises(ValueError):
        proximity_m(parse("0"), 2.0)


def test_divisors_need_no_root_finding_after_canonicalize(monkeypatch):
    # the typed factors are linear bases and D^2 adds one whole polynomial
    # H, which the quotient by f splits once; the zeros and poles are then read
    # off the bases, with the multiplicities D^2 f / f has
    calls = []
    original = nevanlab.expressions.poly_roots

    def counting(p):
        calls.append(p)
        return original(p)
    monkeypatch.setattr(nevanlab.expressions, "poly_roots", counting)
    f = parse("D[(z-1)^2/(z+3)*exp(z),2]/((z-1)^2/(z+3)*exp(z))")
    data = FunctionData(f)
    assert [p.degree for p in calls] == [4]
    data.characteristic((2.0, 4.0), 256)
    assert sorted(m for _, m in data.poles.entries) == [2, 2]
    assert data.zeros.total == 4 and len(calls) == 1


def test_function_data_finds_the_roots_of_a_whole_base_once(monkeypatch):
    # D[...] alone keeps H whole in the canonical form; the bases that
    # proximity reads, the zeros and the poles all come from one split of it
    calls = []
    original = nevanlab.expressions.poly_roots

    def counting(p):
        calls.append(p.degree)
        return original(p)
    monkeypatch.setattr(nevanlab.expressions, "poly_roots", counting)
    for text in ("D[(z-1)^2/(z+3)*exp(z),2]", "D[(z-0.5)^2*exp(z^2)/(z+1.25),1]", "1/D[(z-1)^3*exp(z^2),1]"):
        calls.clear()
        f = parse(text)
        data = FunctionData(f)
        assert any(b.degree > 1 for b, _ in data.canonical.factors) and calls == [], text
        data.characteristic(RadialGrid.geometric().radii, 1024)
        zeros, poles = data.zeros, data.poles
        assert not data.bases.whole and len(calls) == 1, (text, calls)
        assert (zeros, poles) == divisors(f), text


@pytest.mark.parametrize("text", ["D[(z-1)^2/(z+3),1]/((z-1)^2/(z+3))",
                                  "(z-1)^2*(z+2i)*exp(z)"])
def test_function_data_divisors_match_divisors(text):
    f = parse(text)
    data = FunctionData(f)
    zeros, poles = divisors(f)
    assert data.zeros == zeros
    assert data.poles == poles


def _disc_points(rng, count, radius):
    return radius * np.sqrt(rng.uniform(0.0, 1.0, count)) * np.exp(
        2j * np.pi * rng.uniform(0.0, 1.0, count))


def test_proximity_matches_log_abs_trapezoid():
    # the rows, with near roots or without, against a trapezoid mean of
    # log+|f| from Canonical.log_abs on the same nodes: up to 40 zeros and 40
    # poles, and the last case has more roots than samples
    rng = np.random.default_rng(2014)
    cases = [(*rng.integers(0, 41, 2), rng.integers(0, 4), 2 ** int(rng.integers(6, 14)))
             for _ in range(40)]
    cases.append((70, 3, 2, 64))
    for dn, dd, de, samples in cases:
        zeros, poles = _disc_points(rng, dn, 3.0), _disc_points(rng, dd, 3.0)
        lead = complex(*rng.uniform(0.5, 2.0, 2))
        expo = Polynomial(rng.uniform(-1.0, 1.0, de + 1) + 1j * rng.uniform(-1.0, 1.0, de + 1))
        f = mul(div(Poly(Polynomial.from_roots(zeros, lead)),
                    Poly(Polynomial.from_roots(poles))), Exp(expo))
        data = FunctionData(f)
        moduli = np.abs(np.concatenate([zeros, poles]))
        radii = [r for r in np.exp(rng.uniform(math.log(1.2), math.log(20.0), 4))
                 if np.all(np.abs(moduli - r) > 0.05)]
        theta = 2.0 * np.pi * np.arange(samples) / samples
        for r, m in zip(radii, data.proximity(radii, samples)):
            vals = data.canonical.log_abs(r * np.exp(1j * theta))
            want = float(np.mean(np.maximum(vals, 0.0)))
            assert abs(m - want) <= 1e-10 * (1.0 + abs(m)), (dn, dd, de, samples, r)


def test_proximity_where_horner_overflows(monkeypatch):
    # r^deg overflows a double, so Horner would give non-finite samples at
    # every point; the bases take logs, and the rows powers of r / a or a / r
    assert proximity_m(parse("z^150"), 128.0) == pytest.approx(
        150.0 * math.log(128.0), rel=1e-12)
    assert proximity_m(parse("z^200/(z^199+1)"), 128.0) == pytest.approx(
        math.log(128.0), rel=1e-12)
    _sampled_only(monkeypatch)
    assert proximity_m(parse("z^200/(z^199+1)"), 128.0) == pytest.approx(
        math.log(128.0), rel=1e-12)


def test_singular_samples_raise_quadrature_error():
    # Re z^200 overflows at r = 128 on every retry as well
    with pytest.raises(QuadratureError, match="singular samples"):
        proximity_m(parse("exp(z^200)"), 128.0)
    assert issubclass(QuadratureError, RuntimeError)
    # one class, defined beside RootFindingError, whichever module names it
    assert QuadratureError is nevanlab.nevanlinna.QuadratureError is nevanlab.polynomials.QuadratureError


def _sampled_only(monkeypatch):
    # no circle is settled: each goes to the certified row or is sampled
    monkeypatch.setattr(nevanlab.nevanlinna, "_settled_circles",
                        lambda c, radii, samples: np.full(len(radii), np.nan))


def _near_circle_points(rng, count, radii):
    # moduli within 1e-6 to 1e-1 relative of a grid radius, inside or outside
    rel = 10.0 ** rng.uniform(-6.0, -1.0, count) * rng.choice([-1.0, 1.0], count)
    angles = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, count))
    return rng.choice(radii, count) * (1.0 + rel) * angles


def _settle_cases(rng, radii):
    # (f, samples) pairs; samples is drawn just before each yield
    for _ in range(80):
        dn, dd, de = rng.integers(0, 6), rng.integers(0, 6), rng.integers(0, 4)
        near = rng.integers(0, 3)
        zeros = np.concatenate([_disc_points(rng, dn, 1.5),
                                _near_circle_points(rng, near, radii)])
        poles = _disc_points(rng, dd, 1.5)
        if rng.uniform() < 0.5:
            poles = np.concatenate([poles, _near_circle_points(rng, 1, radii)])
        lead = 10.0 ** rng.uniform(-3.0, 3.0) * np.exp(2j * np.pi * rng.uniform())
        # the coefficient of z^k shrinks by up to 10^(-4k), so that the
        # exponential factor can stay near a constant on the circles
        scale = 10.0 ** -(rng.uniform(0.0, 4.0, de + 1) * np.arange(de + 1))
        expo = Polynomial(scale * (rng.uniform(-1.0, 1.0, de + 1)
                                   + 1j * rng.uniform(-1.0, 1.0, de + 1)))
        f = mul(div(Poly(Polynomial.from_roots(zeros, lead)),
                    Poly(Polynomial.from_roots(poles))), Exp(expo))
        yield f, 2 ** int(rng.integers(6, 14))
        if rng.uniform() < 0.25:
            yield div(differentiate(f, int(rng.integers(1, 3))), f), 2 ** int(rng.integers(6, 14))
    # typed roots of multiplicity up to 4 within 1e-3 relative of the
    # closed-form edge r exp(-40/N), inside or outside
    for _ in range(60):
        samples = 2 ** int(rng.integers(6, 14))
        count = int(rng.integers(1, 4))
        edge = rng.choice(radii, count) * math.exp(-40.0 / samples)
        roots = (edge * (1.0 + rng.uniform(-1e-3, 1e-3, count))
                 * np.exp(2j * np.pi * rng.uniform(size=count)))
        tops, bottoms = [], []
        for rho, m, pole in zip(roots, rng.integers(1, 5, count), rng.uniform(size=count) < 0.4):
            (bottoms if pole else tops).append(pow_int(Poly(Polynomial([-rho, 1])), int(m)))
        lead = 10.0 ** rng.uniform(-3.0, 6.0) * np.exp(2j * np.pi * rng.uniform())
        zeros = _disc_points(rng, rng.integers(0, 3), 1.5)
        f = mul(Poly(Polynomial.from_roots(zeros, lead)), *tops)
        yield (div(f, mul(*bottoms)) if bottoms else f), samples


def _factored_trapezoid(c, r, samples):
    # the N-point mean of log+|f| from the bases, each log|z - a| to rounding,
    # and expo's term k at node j taken as p_k r^k w^(jk mod N): the power z^k
    # of a rounded node would err in phase by about k ulps, which a term of
    # degree 128 whose real part cancels to 1/80 of its modulus turns into
    # 1e-12 of m(r)
    unit = nevanlab.nevanlinna._unit_circle(samples)[1]
    z = r * unit
    k = np.arange(len(c.expo.coefficients))
    terms = np.array(c.expo.coefficients) * r ** (k // 2) * r ** (k - k // 2)  # no r^k overflows
    vals = (math.log(abs(c.lead)) - math.log(abs(c.den_lead))
            + (terms @ unit[np.outer(k, np.arange(samples)) % samples]).real)
    for b, e in c.factors:
        vals = vals + e * np.log(np.abs(b(z)))
    return float(np.mean(np.maximum(vals, 0.0)))


def _routes(c, radii):
    # how each unsettled circle is summed: "row" where the certified row
    # takes it, "sampled" where it is sampled at every node
    r = np.asarray(radii, dtype=float)
    bases = nevanlab.nevanlinna._Bases(nevanlab.expressions._times([c], split=True))
    return ["row" if x else "sampled" for x in nevanlab.nevanlinna._row_terms(bases, r)[2]]


def _row_taken(c, radii):
    # whether each circle's samples come from the Fourier row of all its roots
    return [route == "row" for route in _routes(c, radii)]


def test_settled_circles_match_sampled_circles(monkeypatch):
    # a zero circle gives exactly 0.0, as the sampled circle does, and a
    # closed-form circle, one summed by the certified row or a sampled one
    # the trapezoid mean on the same N nodes to rounding, where a 4-fold
    # root lies within 1% of the circle too (N = 4096 or 8192 at the edge
    # r exp(-40/N)); the expanded num and den would lose up to 1e-11 of m(r)
    # there.  An unsettled circle reads the same when no circle is settled
    rng = np.random.default_rng(1964)
    radii = RadialGrid.geometric(2.0, 128.0, 16).radii
    kinds = {"zero": 0, "closed": 0, "row": 0, "sampled": 0}
    for f, samples in _settle_cases(rng, radii):
        data = FunctionData(f)
        settled = nevanlab.nevanlinna._settled_circles(data.bases, radii, samples)
        routes = _routes(data.canonical, radii)
        got = data.proximity(radii, samples)
        with monkeypatch.context() as patch:
            _sampled_only(patch)
            want = data.proximity(radii, samples)
        for r, s, route, m, w in zip(radii, settled, routes, got, want):
            if s == 0.0:
                kinds["zero"] += 1
                assert m == w == 0.0
                continue
            kinds["closed" if math.isfinite(s) else route] += 1
            x = _factored_trapezoid(data.canonical, r, samples)
            assert abs(m - x) <= 1e-13 * (1.0 + abs(x)), (print_expr(f), samples, r)
            assert math.isfinite(s) or m == w
    assert min(kinds.values()) >= 100, kinds


def test_root_moduli_of_linear_bases_settle_circles():
    # the linear base of 1e4 (z - 1.9)^3 gives its root modulus 1.9 itself,
    # inside 2 exp(-40/4096) = 1.98, where Fujiwara's bound on the expanded
    # polynomial, 2 * 3 * 1.9 = 11.4, would leave r = 2 to samples; |f| >= 10
    # on the circle, so Jensen's value is the mean of log|f|
    data = FunctionData(parse("1e4*(z-1.9)^3"))
    assert data.bases.moduli.tolist() == [1.9] and data.bases.reach < 2.0 * math.exp(-40.0 / DEFAULT_SAMPLES)
    settled = nevanlab.nevanlinna._settled_circles(data.bases, [2.0], DEFAULT_SAMPLES)[0]
    unit = nevanlab.nevanlinna._unit_circle(DEFAULT_SAMPLES)[1]
    want = float(np.mean(data.canonical.log_abs(2.0 * unit)))
    assert abs(settled - want) <= 1e-13 * abs(want)
    assert data.proximity([2.0], DEFAULT_SAMPLES) == [settled]


class _SamplingCalls:
    # the paths of the unsettled circles: their coefficients, the certified
    # row, the inverse FFT and the exact logs of the sampled circles, and the
    # factored log_abs that takes samples again
    def __init__(self, monkeypatch):
        self.calls = []
        monkeypatch.setattr(Canonical, "log_abs", self._wrap("log_abs", Canonical.log_abs))
        monkeypatch.setattr(np.fft, "irfft", self._wrap("irfft", np.fft.irfft))
        for name in ("_row_coefficients", "_row_sums", "_near_logs"):
            original = getattr(nevanlab.nevanlinna, name)
            monkeypatch.setattr(nevanlab.nevanlinna, name, self._wrap(name, original))

    def _wrap(self, name, original):
        def counting(*args, **kwargs):
            self.calls.append(name)
            return original(*args, **kwargs)
        return counting


def test_settled_circles_skip_the_kernel(monkeypatch):
    paths = _SamplingCalls(monkeypatch)
    radii = (4.0, 9.5, 64.0, 128.0)
    for r, m in zip(radii, FunctionData(parse("z^3+1")).proximity(radii, DEFAULT_SAMPLES)):
        assert abs(m - 3.0 * math.log(r)) <= 1e-14 * 3.0 * math.log(r)
    radii = (2.0, 3.0, 50.0)
    data = FunctionData(parse("1/(z^2+1)"))
    assert data.proximity(radii, DEFAULT_SAMPLES) == [0.0] * 3
    # r = 2 sits on the edge of the bases' bound: |z -+ i| >= r - 1 = 1 gives
    # log|f| <= 0 only, so the circle is not settled; its row sums it
    assert paths.calls == ["_row_coefficients", "_row_sums"]
    paths.calls.clear()
    assert data.proximity(radii[1:], DEFAULT_SAMPLES) == [0.0] * 2
    assert paths.calls == []


def test_proximity_of_linear_bases_expands_no_polynomial():
    # proximity reads the bases only: over the default grid and over radii
    # next to the roots, where near roots take their own logs, num and den
    # are never expanded
    for samples in (4096, 8192):
        for text in (_GROWTH_F, _GROWTH_LOGDERIV, "(z-1)^50/(z-2)", "D[(z^2-1)/(z+3),4]"):
            data = FunctionData(parse(text))
            data.proximity(RadialGrid.geometric().radii + RadialGrid.geometric(1.1, 4.0, 40).radii, samples)
            assert "num" not in data.canonical.__dict__ and "den" not in data.canonical.__dict__


def test_proximity_makes_at_most_one_row_call(monkeypatch):
    # every unsettled circle of a call, row or sampled, takes its
    # coefficients from one _row_coefficients call; the certified rows share
    # one _row_sums call and the sampled circles one inverse FFT per
    # _SAMPLED_ROWS of them, and log_abs runs only where a sample is not
    # finite: at the whole base's poles 2, 3 and 4 on a node, at the node and
    # again half a step over.  1e-200 * 128^200 at r = 128 is finite, as
    # 1e-200 takes 128^100 twice, where 128^200 alone overflows
    paths = _SamplingCalls(monkeypatch)
    wilkinson = div(Const(1e20), Poly(Polynomial.from_roots(range(1, 25))))
    chunk = nevanlab.nevanlinna._SAMPLED_ROWS
    for f, kinds, through in (("D[(z^2-1)/(z+3),4]", 2, 0), ("(z-1)^50/(z-2)", 2, 0),
                              ("5/(z-2)^3 + z", 2, 0), (_GROWTH_F, 2, 0),
                              ("(z-1.9)^3*exp(z^2)/(z+2.1)", 2, 0), (wilkinson, 1, 6),
                              ("exp(z^200)", 1, 0), ("exp(1e-200*z^200)", 1, 0)):
        paths.calls.clear()
        data = FunctionData(parse(f) if isinstance(f, str) else f)
        radii = RadialGrid.geometric(1.5, 4.0, 40).radii + (2.0, 3.0) + (128.0,) * (f == "exp(1e-200*z^200)")
        data.proximity(radii, 256)
        settled = nevanlab.nevanlinna._settled_circles(data.bases, radii, 256)
        routes = _routes(data.canonical, [r for r, m in zip(radii, settled) if math.isnan(m)])
        sampled = routes.count("sampled")
        assert paths.calls.count("_row_coefficients") == 1, f
        assert paths.calls.count("_row_sums") == ("row" in routes) and ("row" in routes) + (sampled > 0) == kinds, f
        assert paths.calls.count("irfft") == -(-sampled // chunk) and (sampled or "_near_logs" not in paths.calls), f
        assert paths.calls.count("log_abs") == through, f


@pytest.mark.parametrize("text,r,samples", [
    ("1000*(z - 3.996)", 4.0, DEFAULT_SAMPLES),  # a zero at 0.999 r
    ("exp(z^64 + 5)", 1.01, 64),  # deg expo >= N: the trapezoid aliases z^64
    ("5/(z - 2)", 2.0, DEFAULT_SAMPLES),  # a pole on the circle
    ("exp(z)", 2.0, 64),  # no roots: the circle's row
])
def test_unsettled_circles_are_sampled(monkeypatch, text, r, samples):
    data = FunctionData(parse(text))
    assert math.isnan(nevanlab.nevanlinna._settled_circles(data.bases, [r], samples)[0])
    with monkeypatch.context() as patch:
        _sampled_only(patch)
        want = data.proximity([r], samples)
    paths = _SamplingCalls(monkeypatch)
    assert data.proximity([r], samples) == want
    assert paths.calls


def test_closed_form_needs_deg_expo_below_samples():
    # on 64 points z^64 = r^64 at every node, so the trapezoid reads
    # 5 + r^64; on 128 points it is settled at Jensen's 5
    f = parse("exp(z^64 + 5)")
    assert proximity_m(f, 1.01, samples=64) == pytest.approx(5.0 + 1.01 ** 64, rel=1e-12)
    assert proximity_m(f, 1.01, samples=128) == 5.0


_GROWTH_F = "(z-0.5)^2*(z+0.3i)/(z+1.2)*exp(z^2)"
_GROWTH_LOGDERIV = f"D[{_GROWTH_F},2]/({_GROWTH_F})"


def test_row_sums_are_the_factored_trapezoid(monkeypatch):
    # f = lead prod (z - a_j)^e_j exp(p) with |e_j| <= 8, deg p <= 3 and roots
    # on both sides of the circles, zeros and poles alike, and at most one
    # simple root at a ratio of 0.6 to 0.77 to the first circle, inside or
    # outside, which takes up to 128 terms: more than the 8 to 64 coarse
    # nodes.  lead puts log|f| near 0 on the first circle, so that |f| = 1
    # crosses it.  Every circle that takes its row reads the N-point mean
    # of log+|f| from the bases
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    angle = st.floats(0.0, 2.0 * math.pi)
    exponent = st.integers(-8, 8).filter(bool)

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(
        inner=st.lists(st.tuples(st.floats(0.0, 0.3), angle, exponent), max_size=4),
        outer=st.lists(st.tuples(st.floats(3.5, 30.0), angle, exponent), max_size=4),
        edge=st.lists(st.tuples(st.floats(0.6, 0.77), angle, st.sampled_from([-1, 1]), st.booleans()),
                      max_size=1),
        expo=st.lists(st.tuples(st.floats(0.0, 2.0), angle), max_size=4),
        r=st.floats(1.5, 40.0), shift=st.floats(-2.0, 2.0),
        samples=st.sampled_from([64, 256, 4096, 8192]))
    @hypothesis.example(  # no roots: the row's terms are the 4 of p
        inner=[], outer=[], edge=[], expo=[(0.0, 0.0), (0.5, 0.3), (0.7, 1.0), (1.5, 2.0)],
        r=3.0, shift=0.0, samples=256)
    @hypothesis.example(  # a simple pole at 0.77 r: 128 terms
        inner=[(0.1, 1.0, 3)], outer=[(5.0, 2.0, -2)], edge=[(0.77, 0.5, -1, True)], expo=[],
        r=2.0, shift=0.5, samples=4096)
    def check(inner, outer, edge, expo, r, shift, samples):
        roots = [(rel * r * cmath.exp(1j * t), e) for rel, t, e in inner + outer]
        roots += [((rel if inside else 1.0 / rel) * r * cmath.exp(1j * t), e) for rel, t, e, inside in edge]
        p = [size * r ** -k * cmath.exp(1j * t) for k, (size, t) in enumerate(expo)] or [0j]
        jensen = sum(e * math.log(max(r, abs(a))) for a, e in roots) + p[0].real
        lead = math.exp(shift - jensen)
        f = mul(Const(lead), Exp(Polynomial(p)),
                *[pow_int(Poly(Polynomial([-a, 1])), e) for a, e in roots])
        c = FunctionData(f).canonical
        radii = [r, r * 1.1, r * 0.9]
        row = _row_taken(c, radii)
        assert row[0], (roots, r)
        with monkeypatch.context() as patch:
            _sampled_only(patch)
            got = FunctionData(f).proximity(radii, samples)
        for radius, by_row, m in zip(radii, row, got):
            if by_row:
                x = _factored_trapezoid(c, radius, samples)
                assert abs(m - x) <= 1e-13 * (1.0 + abs(m)), (roots, p, radius, samples)

    check()


def test_row_finds_an_arc_inside_one_coarse_interval():
    # log|f| = -21.6 + sum_(m<=24) cos(m (theta - theta_0)) on |z| = 2 is
    # positive only within 0.032 of theta_0, the middle of a coarse
    # interval of 2 pi / 64 at N = 4096: both of its coarse nodes are
    # negative, and only the slope bound keeps the interval from counting
    # as negative throughout, as most of the other intervals rightly do
    samples, r, count, terms = 4096, 2.0, 64, 24
    theta = 2.0 * math.pi * 17.5 / count
    p = [-21.6] + [(r * cmath.exp(1j * theta)) ** -m for m in range(1, terms + 1)]
    f = Exp(Polynomial(p))
    c = FunctionData(f).canonical
    assert _row_taken(c, [r])[0]
    nodes = 2.0 * np.pi * np.arange(samples) / samples
    g = -21.6 + np.cos(np.arange(1, terms + 1)[:, None] * (nodes - theta)).sum(0)
    arc = np.flatnonzero(g > 0.0)
    assert 30 <= len(arc) and arc[0] > 17 * samples // count and arc[-1] < 18 * samples // count
    m = FunctionData(f).proximity([r], samples)[0]
    x = _factored_trapezoid(c, r, samples)
    assert m > 0.0 and abs(m - x) <= 1e-13 * (1.0 + m), (m, x)


def _row_reference(c, r):
    # (terms, near roots, row) of a circle, one base at a time: the least
    # number of terms whose truncation bound is at most 2^-53 with every
    # root, or else with the roots past a ratio of 0.7 left out as near ones,
    # or else with every root near; row where the certified row takes the
    # circle: no root is near, no base is whole and deg expo <= 128
    roots = [(-b.coefficients[0], e) for b, e in c.factors if b.degree == 1]
    rhos = [(min(abs(a) / r, r / abs(a)) if a else 0.0, abs(e), a) for a, e in roots]
    certified = c.expo.degree <= 128 and len(roots) == len(c.factors)
    for near in (set(), {a for rho, _, a in rhos if rho > 0.7}, {a for _, _, a in rhos}):
        far = [(rho, e) for rho, e, a in rhos if a not in near]
        if any(rho >= 1.0 for rho, _ in far):
            continue
        bound = [sum(e * rho ** (m + 1) / ((m + 1) * (1.0 - rho)) for rho, e in far) for m in range(129)]
        passing = [m for m in range(129) if bound[m] <= 2.0 ** -53]
        if passing:
            return max(passing[0], c.expo.degree), near, certified and not near


def _row_radii(monkeypatch):
    # the radii each _row_coefficients call takes, with their near roots,
    # and the term counts of each _row_sums call
    taken = []
    original = nevanlab.nevanlinna._row_sums
    coefficients = nevanlab.nevanlinna._row_coefficients

    def recording(bases, r, terms, near):
        taken.append([(x, set(bases.roots[m].tolist())) for x, m in zip(r, near)])
        return coefficients(bases, r, terms, near)

    def counting(d, terms, samples):
        taken.append(list(terms))
        return original(d, terms, samples)
    monkeypatch.setattr(nevanlab.nevanlinna, "_row_coefficients", recording)
    monkeypatch.setattr(nevanlab.nevanlinna, "_row_sums", counting)
    return taken


@pytest.mark.parametrize("text,some", [
    (_GROWTH_F, True), ("exp(z)/(z-2)", True), ("(z-0.25)^8*exp(3*z^3)/(z+0.3)^5", True),
    ("exp(z^32)", True), ("exp(z^128)", True), ("exp(z^129)", False), ("5/(z-2)^3 + z", True),
    ("D[(z-0.5)^2*exp(z)/(z+0.3),1]", True), ("(z-1.9)^3*exp(z^2)/(z+2.1)", True)])
def test_row_takes_the_unsettled_circles_whose_bound_passes(monkeypatch, text, some):
    # every unsettled circle takes its coefficients, with the least number
    # of terms whose truncation bound is at most 2^-53, with every root or
    # with the near ones left out; the certified row takes a circle exactly
    # when every base is linear once split (the factor H of the derivative
    # splits too), deg expo <= 128 and no root is near: not r = 2 through
    # the pole of exp(z)/(z-2), where the pole is near and lies on the circle
    radii = RadialGrid.geometric(1.1, 128.0, 40).radii + (2.0,)
    data = FunctionData(parse(text))
    c = nevanlab.expressions._times([data.canonical], split=True)
    settled = nevanlab.nevanlinna._settled_circles(data.bases, radii, DEFAULT_SAMPLES)
    want = [(r, _row_reference(c, r)) for r, s in zip(radii, settled) if math.isnan(s)]
    rows = [(r, terms) for r, (terms, _, row) in want if row]
    assert bool(rows) == some
    assert text != "exp(z)/(z-2)" or 2.0 not in [r for r, _ in rows]
    assert text != "(z-1.9)^3*exp(z^2)/(z+2.1)" or any(near for _, (_, near, _) in want)
    assert some or c.expo.degree > 128
    taken = _row_radii(monkeypatch)
    data.proximity(radii, DEFAULT_SAMPLES)
    assert taken == [[(r, near) for r, (_, near, _) in want]] + [[terms for _, terms in rows]] * bool(rows)


def test_circle_sums_do_not_depend_on_the_call():
    # each radius's m(r) is bit for bit the same alone and inside random
    # subsets of 20 or more radii, whose products and inverse FFT hold other
    # radii and pad to other numbers of terms: circles summed by the
    # certified row and sampled circles alike, with near roots, a folded
    # exponential part of degree 150 and a whole base
    rng = np.random.default_rng(2025)
    kinds = {"row": 0, "sampled": 0}
    wilkinson = div(Const(1e20), Poly(Polynomial.from_roots(range(1, 25))))
    for f in (_GROWTH_F, _GROWTH_LOGDERIV, "exp(z^40)*(z-0.3)/(z+5i)", "(z-1.9)^3*exp(z^2)/(z+2.1)",
              "exp(z^150/1e90)/(z-1.5)", wilkinson):
        data = FunctionData(parse(f) if isinstance(f, str) else f)
        for samples in (64, 128, 256, 512, 1024, 2048, 4096, 8192):
            radii = np.exp(rng.uniform(math.log(1.1), math.log(40.0), 40))
            settled = nevanlab.nevanlinna._settled_circles(data.bases, radii, samples)
            for s, route in zip(settled, _routes(data.canonical, radii)):
                if math.isnan(s) and route in kinds:
                    kinds[route] += 1
            alone = [data.proximity([r], samples)[0] for r in radii]
            for _ in range(3):
                pick = rng.choice(len(radii), int(rng.integers(20, len(radii) + 1)), replace=False)
                got = data.proximity(radii[pick], samples)
                assert got == [alone[i] for i in pick], (f, samples)
    assert min(kinds.values()) >= 100, kinds


def _check_base_bounds(c, radii, tight=None):
    # the table's bounds of log|f| on |z| = r hold at every node against
    # log_abs of the bases, to the last bit; tight names the bound that
    # node 0 (z = r) attains, which it must then be to within its margins
    # (a gap of 1e-3 r of a root of order 50 loses 1e-10)
    unit = nevanlab.nevanlinna._unit_circle(1024)[1]
    lower, upper = nevanlab.nevanlinna._Bases(c).log_bounds(np.asarray(radii, dtype=float))
    for r, lo, hi in zip(radii, lower, upper):
        logs = c.log_abs(r * unit)
        assert lo <= logs.min() and logs.max() <= hi, (c.factors, r, lo, logs.min(), logs.max(), hi)
        if tight == "upper":
            assert hi <= logs[0] + 1e-9 * (1.0 + abs(hi)), (c.factors, r)
        if tight == "lower":
            assert lo >= logs[0] - 1e-9 * (1.0 + abs(lo)), (c.factors, r)


def _linear(roots, exponents):
    # the bases (z - a)^e, zeros first
    return tuple(sorted(((Polynomial([-a, 1]), int(e)) for a, e in zip(roots, exponents)),
                        key=lambda f: f[1] < 0))


def test_log_abs_bounds_hold_and_are_tight():
    rng = np.random.default_rng(1986)
    # linear bases inside, outside and within 1e-3 of the circle, orders up
    # to 50, with and without an exponential factor
    for _ in range(80):
        r = float(np.exp(rng.uniform(math.log(1.1), math.log(50.0))))
        count = int(rng.integers(1, 6))
        place = rng.integers(0, 3, count)
        rel = np.choose(place, [rng.uniform(0.0, 0.95, count), rng.uniform(1.05, 20.0, count),
                                1.0 + rng.uniform(-1e-3, 1e-3, count)])
        roots = rel * r * np.exp(2j * np.pi * rng.uniform(size=count))
        orders = rng.integers(1, 51, count) * rng.choice([-1, 1], count)
        degree = int(rng.integers(0, 4))
        expo = Polynomial(rng.uniform(-1.0, 1.0, degree + 1) * r ** -np.arange(degree + 1.0)
                          * np.exp(2j * np.pi * rng.uniform(size=degree + 1)))
        lead = 10.0 ** rng.uniform(-5.0, 5.0) * np.exp(2j * np.pi * rng.uniform())
        c = Canonical(complex(lead), 1 + 0j, _linear(roots, orders), expo)
        _check_base_bounds(c, [r, r * 1.5, r / 1.05])
    # a root within a few ulps of a node of the circle, where the rounding
    # of the node and of |a| moves the distance by a large part of itself
    unit = nevanlab.nevanlinna._unit_circle(1024)[1]
    for _ in range(40):
        r = float(np.exp(rng.uniform(math.log(1.1), math.log(50.0))))
        a = r * (1.0 + int(rng.integers(1, 17)) * 2.0 ** -48 * rng.choice([-1, 1])) * unit[rng.integers(1024)]
        e = int(rng.integers(1, 51)) * int(rng.choice([-1, 1]))
        _check_base_bounds(Canonical(1 + 0j, 1 + 0j, _linear([a], [e]), Polynomial([0])), [r])
    # roots on one ray of the circle's node 0, where a bound is attained:
    # zeros on the negative axis (the upper bound) and on the positive axis
    # (the lower one), poles on the negative axis (the lower one)
    for _ in range(40):
        r = float(np.exp(rng.uniform(math.log(1.1), math.log(50.0))))
        count = int(rng.integers(1, 5))
        rel = np.where(rng.uniform(size=count) < 0.5, rng.uniform(0.0, 3.0, count),
                       1.0 + rng.uniform(-1e-3, 1e-3, count))
        orders = rng.integers(1, 51, count)
        lead = complex(10.0 ** rng.uniform(-5.0, 5.0))
        for sign, e, tight in ((-1.0, 1, "upper"), (1.0, 1, "lower"), (-1.0, -1, "lower")):
            c = Canonical(lead, 1 + 0j, _linear(sign * rel * r, e * orders), Polynomial([0]))
            _check_base_bounds(c, [r], tight)


def test_log_abs_bounds_cover_the_last_bit():
    # the linear bases of a polynomial with positive coefficients, whose log
    # at z = r read one ulp above a bound that raised only its tail when the
    # polynomial was one whole base: alone, over (z - q)^3 and with an
    # exponential factor
    p = Polynomial([0.002364324873260698, 0.251262036591864, 0.16606002300944264,
                    0.002734724769588961, 10.498661780399072, 6.3154518353232,
                    2.1588039632111107, 0.0022736386385672266, 20.452176269017922])
    lines = nevanlab.expressions._split(p).factors
    assert [(b.degree, e) for b, e in lines] == [(1, 1)] * 8
    q = Polynomial([0.3593633522165813 - 0.22184008712110137j, 1])
    expo = Polynomial([0.5, 1e-3j, -2e-5])
    for factors, radii in ((lines, [29.74817761946716, 5.10737414445334]),
                           (((q, 3), *((b, -1) for b, _ in lines)), [5.10737414445334, 29.74817761946716])):
        for e in (Polynomial([0]), expo):
            _check_base_bounds(Canonical(2.5 + 0j, 1 + 0j, factors, e), radii)


def test_root_bound_falls_back_to_fujiwara_quietly():
    # D^8 f is 322560 / (z + 3)^9: |f| < 1 on the circle r = 2000, which the
    # modulus 3 of its linear base settles with no warning
    with warnings.catch_warnings(), np.errstate(all="warn"):
        warnings.simplefilter("error")
        assert proximity_m(parse("D[(z^2-1)/(z+3),8]"), 2000.0) == 0.0


def test_proximity_beyond_the_pole_bound_root_finds_nothing(monkeypatch):
    calls = []
    original = nevanlab.expressions.poly_roots

    def counting(p):
        calls.append(p)
        return original(p)
    data = FunctionData(parse(_GROWTH_LOGDERIV))
    monkeypatch.setattr(nevanlab.expressions, "poly_roots", counting)
    radii = (1.25, 2.0, 4.0, 8.0)  # the first one next to the pole at -1.2, not settled
    assert math.isnan(nevanlab.nevanlinna._settled_circles(data.bases, radii, 256)[0])
    paths = _SamplingCalls(monkeypatch)
    ms = data.proximity(radii, 256)
    data.poles, data.zeros
    assert paths.calls and calls == []
    assert data.proximity(radii, 256) == ms


def test_unit_circle_is_cached_read_only():
    theta, unit = nevanlab.nevanlinna._unit_circle(256)
    assert nevanlab.nevanlinna._unit_circle(256)[1] is unit
    assert not theta.flags.writeable and not unit.flags.writeable
    assert np.array_equal(unit, np.exp(2j * np.pi * np.arange(256) / 256))


def test_circle_powers_are_exact_strided_copies():
    # the node tables of the rows: every column holds Re and -Im of
    # unit[(m*k*s) % N] over K = min(64, N/8) coarse nodes k, of
    # unit[(m*t) % N] over the s = N/K nodes t of an interval, and q_m their
    # sum for t > 0; all read-only and cached
    for n in (64, 4096, 8192):
        unit = nevanlab.nevanlinna._unit_circle(n)[1]
        coarse, inner, q = nevanlab.nevanlinna._row_tables(n)
        count = min(64, n // 8)
        stride = n // count
        m = np.arange(1, 129)[:, None]
        for x, nodes in ((coarse, np.arange(count) * stride), (inner, np.arange(stride))):
            want = unit[(m * nodes) % n]
            assert x.shape == (256, len(nodes)), n
            assert np.array_equal(x[0::2], want.real) and np.array_equal(x[1::2], -want.imag), n
        assert np.array_equal(q, (inner[0::2, 1:] - 1j * inner[1::2, 1:]).sum(1))
        assert not (coarse.flags.writeable or inner.flags.writeable or q.flags.writeable)
        assert nevanlab.nevanlinna._row_tables(n)[0] is coarse


def test_near_row_holds_no_array_per_radius():
    # the sampled circles go through the inverse FFT _SAMPLED_ROWS = 4 at a
    # time, each with its spectrum and its row of samples, and the near logs
    # of one radius at a time through the same three buffers of N = 8192
    # nodes: one radius holds 4 rows of N, and a call of any length about 8
    # (16 with numpy 1.x, which also pads the spectra to N complex), so 64
    # radii add less than a quarter row each, where the samples of every
    # radius at once would add two rows per radius
    samples = 8192
    data = FunctionData(parse("1e6*(z-1.9)^6"))
    peaks = []
    for radii in ([2.0], np.linspace(1.95, 2.05, 64)):
        r = np.array(radii)
        terms, near, row = nevanlab.nevanlinna._row_terms(data.bases, r)
        assert near.any(axis=1).all() and not row.any()
        d = nevanlab.nevanlinna._row_coefficients(data.bases, r, terms, near)
        data._sampled_circles(r, d, near, samples)
        tracemalloc.start()
        try:
            data._sampled_circles(r, d, near, samples)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 4 * samples * 8 + 65536, peaks
    assert peaks[1] - peaks[0] <= 63 * samples * 8 / 4, peaks


def test_long_expo_is_held_per_chunk_of_sampled_circles():
    # the rows of a call's circles stop at _ROW_TERMS = 128 terms, and the
    # 4872 terms of expo past them are formed for the circles of one inverse
    # FFT at a time: 60 radii more add far less than such a row each
    # (5001 complex terms, 80 KB), where every radius's full row would
    data = FunctionData(parse("exp(1e-3*z^5000)"))
    peaks = []
    for count in (4, 64):
        radii = RadialGrid.geometric(1.0001, 1.001, count).radii
        data.proximity(radii, 64)
        tracemalloc.start()
        try:
            data.proximity(radii, 64)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 60 * 5001 * 16 / 8, peaks


def test_extreme_scales_match_the_factored_form(monkeypatch):
    # |num|^2 of 1e300 z^3 overflows a double, and that of 1e3 + 1e-300 z^40
    # at r = 1e5 underflows it, so no sample squares a polynomial.  At
    # r = 1e160 the near roots' differences from the nodes are about 1e160,
    # whose squares would overflow: the near logs are taken scaled by a
    # power of two near 1/r, so a near zero, a near pole (log|f| from -1 to
    # 2.8 on the circle) and both are sampled without log_abs and match the
    # factored trapezoid.  The 3000000-fold zero at 1.39 fails the row's
    # bound at r = 2, so every root, the pole at 1e200 too, takes its own
    # logs, scaled by a power of two near 1/1e200: by one near 1/r, its
    # square would overflow to a sample of -inf at every node, m(2) = 0.0
    _sampled_only(monkeypatch)
    unit = nevanlab.nevanlinna._unit_circle(DEFAULT_SAMPLES)[1]
    near = {"(z-9.5e159)^2": 1e160, "1e160/(z-9.5e159)": 1e160,
            "1e-160*(z-9.5e159)^3/(z+1.05e160)^2": 1e160, "(z-1.39)^3000000/(z-1e200)": 2.0}
    for text, r in (("1e300*z^3/(1e-300*z^2+1)", 2.0), ("1e3 + 1e-300*z^40", 1e5), *near.items()):
        c = canonicalize(parse(text))
        want = float(np.maximum(c.log_abs(r * unit), 0.0).mean())
        paths = _SamplingCalls(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = proximity_m(parse(text), r)
        assert want > 0.3 and m == pytest.approx(want, rel=1e-13), text
        if text in near:
            assert _routes(c, [r]) == ["sampled"] and "log_abs" not in paths.calls, text


def test_near_row_of_a_multiple_root_beside_the_circle():
    # 1e6 (z - 1.9)^6 at r = 2: the row of every root fails at 128 terms, and
    # the near root's six logs at the nodes give the N-point mean of log+|f|
    # to rounding, where samples of the expanded polynomial lose 2e-11 of m(2)
    for text, r in (("1e6*(z-1.9)^6", 2.0), ("(z-1.9)^3*exp(z^2)/(z+2.1)", 2.0),
                    ("1e6*(z-1.9)^6", 1.8), ("(z-1.99)^5*(z+2.03i)^-4*exp(z)", 2.0)):
        c = canonicalize(parse(text))
        assert _routes(c, [r]) == ["sampled"], text
        for samples in (64, 1024, 4096, 8192):
            m = proximity_m(parse(text), r, samples)
            want = _factored_trapezoid(c, r, samples)
            assert abs(m - want) <= 4e-16 * (1.0 + want), (text, r, samples, m, want)


def test_near_row_is_the_factored_trapezoid(monkeypatch):
    # f = prod (z - a_j)^e_j exp(p) with |e_j| <= 50, deg p <= 3, and one to
    # six roots at a ratio of 0.05 to 1 - 1e-6 to the first circle, inside or
    # outside, zeros and poles alike (none on it), at N = 64 to 8192; p_0 puts
    # log|f| near 0 on the first circle.  No circle is settled, so each goes
    # to the certified row or is sampled, with near roots or without, and
    # every m(r) is the N-point mean of log+|f| from the bases
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    angle = st.floats(0.0, 2.0 * math.pi)
    root = st.tuples(st.floats(0.05, 1.0 - 1e-6), st.booleans(), angle, st.integers(-50, 50).filter(bool))
    seen = {"row": 0, "sampled": 0}

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(
        roots=st.lists(root, min_size=1, max_size=6),
        expo=st.lists(st.tuples(st.floats(0.0, 2.0), angle), max_size=4),
        r=st.floats(1.5, 40.0), shift=st.floats(-2.0, 2.0),
        samples=st.sampled_from([64, 128, 256, 512, 1024, 2048, 4096, 8192]))
    @hypothesis.example(  # a 50-fold pole 1e-6 r outside: the near log is all of log|f|
        roots=[(1.0 - 1e-6, False, 0.3, -50)], expo=[], r=2.0, shift=0.5, samples=8192)
    @hypothesis.example(  # a 5-fold pole at 9.000009 beside the node z = 9: a / r would round
        roots=[(1.0 - 1e-6, False, 0.0, -5)], expo=[], r=9.0, shift=-2.0, samples=64)
    def check(roots, expo, r, shift, samples):
        roots = [((rel if inside else 1.0 / rel) * r * cmath.exp(1j * t), e) for rel, inside, t, e in roots]
        p = [size * r ** -k * cmath.exp(1j * t) for k, (size, t) in enumerate(expo)] or [0j]
        p[0] += shift - sum(e * math.log(max(r, abs(a))) for a, e in roots)
        f = mul(Exp(Polynomial(p)), *[pow_int(Poly(Polynomial([-a, 1])), e) for a, e in roots])
        c = FunctionData(f).canonical
        radii = [r, r * 1.1, r * 0.9]
        for route in _routes(c, radii):
            seen[route] += 1
        with monkeypatch.context() as patch:
            _sampled_only(patch)
            got = FunctionData(f).proximity(radii, samples)
        for radius, m in zip(radii, got):
            x = _factored_trapezoid(c, radius, samples)
            assert abs(m - x) <= 1e-13 * (1.0 + abs(m)), (roots, p, radius, samples, m, x)

    check()
    assert seen["sampled"] >= 100, seen


def test_near_logs_do_not_round_the_root_by_r():
    # 1e-15/(z - 3.00000006)^50 on |z| = 3 at N = 64: the pole lies 6e-8
    # outside the node z = 3, and a / r rounds by more than that distance
    # allows (2.9e-9 off m(3)); r and a scaled by a power of two do not
    mpmath = pytest.importorskip("mpmath")
    a, samples = 3.00000006, 64
    with mpmath.workdps(40):
        logs = [mpmath.log(mpmath.mpf(1e-15)) - 50 * mpmath.log(abs(3 * mpmath.expjpi(mpmath.mpf(2 * j) / samples) - a))
                for j in range(samples)]
        want = float(sum(max(v, 0) for v in logs) / samples)
    got = proximity_m(parse("1e-15/(z-3.00000006)^50"), 3.0, samples)
    assert abs(got - want) <= 2e-15 * want, (got, want)


def test_sampled_circles_are_the_factored_trapezoid(monkeypatch):
    # f = lead prod W_i^k_i prod (z - a_j)^e_j exp(p): one or two whole bases
    # W_i of degree 2 to 6, kept unsplit as for a base that _split refuses,
    # with roots at a ratio of 0.1 to 0.6 to the circle r, inside or
    # outside, and |k_i| <= 3; up to three linear roots at a ratio of 0.7 to
    # 1 - 1e-6, |e_j| <= 20; and up to four terms of p of degree up to 2N,
    # N = 64 or 128, so that the row's terms past N/2 fold mod N.  lead puts
    # log|f| near 0 on the circle r.  No circle, r or 1.5 r, settles or takes
    # the certified row, and every m(r) is the N-point mean of log+|f| from
    # the bases, to 1e-12 (1 + m).  The examples: a term of degree 128 = 0
    # mod 64 whose real part is 1/80 of its modulus, where a power of a
    # rounded node errs by 1e-12 of m(r), and p_197 = 40^-197, subnormal, at
    # 1.5 r = 60, where 60^197 overflows and Horner's sum from p_197 errs
    # by 2.3e-11 of m(r)
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    angle = st.floats(0.0, 2.0 * math.pi)
    monkeypatch.setattr(nevanlab.nevanlinna, "_times", lambda cs, split=False: cs[0])

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.example(whole=[([(0.5, False, 0.0), (0.5, False, 0.0)], 1)], lines=[],
                        expo=[(128, 1.5, 1.25), (128, 0.625, 2.375)], r=2.0, shift=0.0, samples=64)
    @hypothesis.example(whole=[([(0.5, False, 0.0), (0.5, False, 0.0)], 1)], lines=[],
                        expo=[(197, 1.0, 0.0)], r=40.0, shift=0.0, samples=128)
    @hypothesis.given(
        whole=st.lists(st.tuples(st.lists(st.tuples(st.floats(0.1, 0.6), st.booleans(), angle),
                                          min_size=2, max_size=6),
                                 st.integers(-3, 3).filter(bool)), min_size=1, max_size=2),
        lines=st.lists(st.tuples(st.floats(0.7, 1.0 - 1e-6), st.booleans(), angle,
                                 st.integers(-20, 20).filter(bool)), max_size=3),
        expo=st.lists(st.tuples(st.integers(0, 256), st.floats(0.0, 2.0), angle), max_size=4),
        r=st.floats(1.5, 40.0), shift=st.floats(-2.0, 2.0), samples=st.sampled_from([64, 128]))
    def check(whole, lines, expo, r, shift, samples):
        place = lambda rel, inside, t: (rel if inside else 1.0 / rel) * r * cmath.exp(1j * t)
        bases = [(Polynomial.from_roots([place(*x) for x in roots]), k) for roots, k in whole]
        bases += [(Polynomial([-place(rel, inside, t), 1]), e) for rel, inside, t, e in lines]
        p = [0j] * (max([min(k, 2 * samples) for k, _, _ in expo], default=0) + 1)
        for k, size, t in expo:
            p[min(k, 2 * samples)] += size * r ** -min(k, 2 * samples) * cmath.exp(1j * t)
        jensen = p[0].real + sum(e * (b.degree * math.log(r) + sum(math.log(max(1.0, abs(x) / r))
                                                                   for x in np.roots(b.coefficients[::-1])))
                                 for b, e in bases)
        c = Canonical(complex(math.exp(shift - jensen)), 1 + 0j, tuple(bases), Polynomial(p))
        data = FunctionData(nevanlab.expressions.Expr((c,)))
        radii = [r, r * 1.5]
        assert data.bases.whole and not nevanlab.nevanlinna._row_terms(data.bases, np.array(radii))[2].any()
        for radius, m in zip(radii, data.proximity(radii, samples)):
            x = _factored_trapezoid(c, radius, samples)
            assert abs(m - x) <= 1e-12 * (1.0 + abs(m)), (bases, p, radius, samples, m, x)

    check()


def _whole(num, den, expo):
    """The Canonical of num/den exp(expo) with num and den kept whole."""
    factors = tuple((p * (1 / p.leading), e) for p, e in ((num, 1), (den, -1)) if p.degree)
    return Canonical(num.leading, den.leading, factors, expo)


def test_proximity_is_the_trapezoid_at_the_nodes_it_uses(monkeypatch):
    # f = 1e-300 (z^60 + 1e307 (z^59 + ... + 1)) / (z - rho), whose num
    # poly_roots cannot split (its companion matrix overflows), so that no
    # circle is settled or taken by the certified row, and every circle, one
    # close to the roots of num (r = 1.2), one through the pole and farther
    # ones, is sampled with the logs of the whole num at every node; rho
    # lies on a node of the circle r = |rho|.  m(r) is the mean of
    # max(log|f|, 0) from Canonical.log_abs at the nodes, where samples that
    # it leaves not finite are retried half a step over.  On the circle
    # through the pole, m(r) is the mean of max(log|f| + L, L),
    # L = log|z - rho|, at the nodes themselves, the pole's node included,
    # minus L's exact mean log|rho|: log|f| + L is log|num| there, with the
    # pole's base left out
    rng = np.random.default_rng(2022)
    for samples in (4096, 8192):
        node = int(rng.integers(samples))
        pole = float(rng.uniform(3.0, 4.0))
        rho = pole * np.exp(2j * np.pi * node / samples)
        num = Polynomial([1e7 * complex(*rng.uniform(0.5, 1.0, 2))] * 60 + [1e-300])
        c = _whole(num, Polynomial([-rho, 1]), Polynomial([0]))
        radii = [1.2, pole, *sorted(rng.uniform(5.0, 20.0, 2))]
        data = FunctionData(nevanlab.expressions.Expr((c,)))
        assert data.bases.whole
        assert np.all(np.isnan(nevanlab.nevanlinna._settled_circles(data.bases, radii, samples)))
        theta = 2.0 * np.pi * np.arange(samples) / samples
        half = np.pi / samples
        want = []
        for r in radii:
            if r == pole:
                zs = r * np.exp(1j * theta)
                with np.errstate(divide="ignore"):
                    pole_log = np.log(np.abs(zs - rho))
                assert pole_log[node] == -math.inf
                rest = _whole(num, Polynomial([1]), Polynomial([0]))
                want.append(float(np.mean(np.maximum(rest.log_abs(zs), pole_log))) - math.log(pole))
                continue
            angles = theta.copy()
            bad = ~np.isfinite(c.log_abs(r * np.exp(1j * angles)))
            angles[bad] += half
            want.append(float(np.mean(np.maximum(c.log_abs(r * np.exp(1j * angles)), 0.0))))
        with monkeypatch.context() as patch:
            paths = _SamplingCalls(patch)
            got = data.proximity(radii, samples)
        assert "_row_sums" not in paths.calls
        assert paths.calls.count("irfft") == -(-len(radii) // nevanlab.nevanlinna._SAMPLED_ROWS)
        for r, m, w in zip(radii, got, want):
            assert abs(m - w) <= 1e-13 * abs(w), (samples, r, m, w)


def test_pole_just_inside_the_circle_is_dodged():
    # a pole 5e-9 r inside is within the on-circle distance but not a
    # singular sample: its linear base puts it on the circle, with no
    # divisor computed
    on = proximity_m(parse("1/(z - 2)"), 2.0)
    near = FunctionData(parse(f"1/(z - {2.0 * (1.0 - 5e-9)!r})"))
    assert near.proximity([2.0], DEFAULT_SAMPLES)[0] == pytest.approx(on, abs=1e-6)
    assert "poles" not in vars(near)
