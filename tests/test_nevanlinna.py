import json
import math
import random

import numpy as np
import pytest

from nevanlab import (
    DEFAULT_SAMPLES,
    Divisor,
    FunctionData,
    RadialGrid,
    canonicalize,
    characteristic_T,
    counting_N,
    parse,
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
    # exp(z) overflows at z = 800 and so does its reciprocal's derivative:
    # NaN in an array, ValueError for a scalar point
    out = spherical_derivative(parse("exp(z)"), np.array([0.0, 800.0]))
    assert out[0] == pytest.approx(0.5, rel=1e-12)
    assert np.isnan(out[1])
    with pytest.raises(ValueError, match="undefined"):
        spherical_derivative(parse("exp(z)"), 800.0)


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
    payload = json.loads(rep.to_json_text())
    assert payload["columns"] == ["r", "m", "N", "Nbar", "T"]
    assert payload["config"]["samples"] == 256
    assert payload["monotone_ok"] is True


def test_zero_function_rejected():
    with pytest.raises(ValueError):
        proximity_m(parse("0"), 2.0)
