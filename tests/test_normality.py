import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

import nevanlab.normality as normality
from nevanlab import evaluate, parse
from nevanlab.diffpoly import AlphaViolation, MonomialSpec
from nevanlab.normality import (
    CriterionParams,
    FamilySpec,
    INFINITE_MULTIPLICITY,
    RescalingSpec,
    check_holomorphic_criterion,
    check_meromorphic_criterion,
    check_multiplicities,
    chordal_distance,
    disc_grid,
    holomorphic_reduction,
    marty_probe,
    meromorphic_reduction,
    rescale_extras_check,
    rescaled_function,
    rescaling_identity_values,
    zalcman_rescale,
)

INF = INFINITE_MULTIPLICITY


def test_params_validation():
    p = CriterionParams(1, ((2, 1),), (1.0,), (INF,))
    assert p.q == 1
    with pytest.raises(ValueError):
        CriterionParams(1, ((2, 1),), (0.0,), (INF,))
    with pytest.raises(ValueError):
        CriterionParams(1, ((2, 1),), (1.0, 1.0), (INF, INF))
    with pytest.raises(ValueError):
        CriterionParams(1, ((2, 1),), (1.0,), (INF, 2))
    with pytest.raises(ValueError):
        CriterionParams(1, ((2, 1),), (1.0,), (2.5,))
    with pytest.raises(ValueError, match="pairs of integers"):
        CriterionParams(1, ((2.5, 1),), (1.0,), (INF,))
    # a bool is an int to isinstance, but not a multiplicity floor
    with pytest.raises(ValueError, match="multiplicities"):
        CriterionParams(1, ((1, 1),), (1.0,), (True,))
    with pytest.raises(ValueError, match="nonnegative integer"):
        CriterionParams(True, ((1, 1),), (1.0,), (INF,))


def test_meromorphic_criterion_examples():
    # n=3, (3,1), q=1, ell=3: lhs 1/3 against rhs (3-2+2)/(3+4) = 3/7
    rep = check_meromorphic_criterion(
        CriterionParams(3, ((3, 1),), (1.0,), (3,)))
    assert rep.lhs == Fraction(1, 3)
    assert rep.rhs == Fraction(3, 7)
    assert rep.condition_a and rep.condition_b and rep.applicable

    # n=2, (3,1), q=1, ell=2: lhs 1/2 against rhs (2-2+2)/(2+4) = 1/3
    rep = check_meromorphic_criterion(
        CriterionParams(2, ((3, 1),), (1.0,), (2,)))
    assert rep.lhs == Fraction(1, 2)
    assert rep.rhs == Fraction(1, 3)
    assert not rep.condition_b
    assert not rep.applicable


def test_condition_a_reporting():
    # t_j above n_j breaks a) without touching b)
    rep = check_meromorphic_criterion(
        CriterionParams(5, ((2, 3),), (1.0,), (INF,)))
    assert not rep.condition_a
    # finite multiplicity 1 also breaks a)
    rep = check_meromorphic_criterion(
        CriterionParams(5, ((3, 1),), (1.0,), (1,)))
    assert not rep.condition_a


def test_holomorphic_criterion_examples():
    # n=0, (5,2), q=1, ell=inf: rhs (0-1+3)/5 = 2/5 > 0
    rep = check_holomorphic_criterion(
        CriterionParams(0, ((5, 2),), (1.0,), (INF,)))
    assert rep.lhs == 0
    assert rep.rhs == Fraction(2, 5)
    assert rep.condition_b
    # the meromorphic counterpart sits exactly on the boundary and passes
    rep = check_meromorphic_criterion(
        CriterionParams(0, ((5, 2),), (1.0,), (INF,)))
    assert rep.rhs == Fraction(1, 7)
    assert rep.condition_b


def test_holomorphic_boundary_case_fails():
    # derivative-of-power shape (k+1, k) at q=1: rhs collapses to 0
    for k in range(1, 5):
        rep = check_holomorphic_criterion(
            CriterionParams(0, ((k + 1, k),), (1.0,), (INF,)))
        assert rep.rhs == 0
        assert not rep.condition_b
        # two target values rescue it: rhs = (2*1 - 1)/(k+1) > 0
        rep2 = check_holomorphic_criterion(
            CriterionParams(0, ((k + 1, k),), (1.0, 2.0), (INF, INF)))
        assert rep2.rhs == Fraction(1, k + 1)
        assert rep2.condition_b


def test_integer_reductions_random():
    rng = random.Random(20240823)
    for _ in range(200):
        n = rng.randrange(0, 5)
        k = rng.randrange(1, 4)
        pairs = tuple((rng.randrange(1, 6), rng.randrange(1, 4))
                      for _ in range(k))
        params = CriterionParams(n, pairs, (1.0,), (INF,))
        mero = check_meromorphic_criterion(params).condition_b
        holo = check_holomorphic_criterion(params).condition_b
        lhs_m, rhs_m, mero_int = meromorphic_reduction(n, pairs)
        lhs_h, rhs_h, holo_int = holomorphic_reduction(n, pairs)
        assert mero == mero_int, (n, pairs)
        assert holo == holo_int, (n, pairs)
        assert lhs_m == n + sum(nj for nj, _ in pairs)
        assert rhs_m == 3 + sum(tj for _, tj in pairs)
        assert rhs_h == 2 + sum(tj for _, tj in pairs)
        assert lhs_h == lhs_m


def test_check_multiplicities():
    # P = 2 z^2, P - 2 has the simple zeros +-1: floor 2 fails
    rep = check_multiplicities(parse("z"), MonomialSpec(1, ((2, 1),)), 2.0, 2)
    assert not rep.passed
    assert rep.min_multiplicity == 1
    assert len(rep.zeros) == 2

    # P = 2 (z+1)^2 has a double zero at -1: floor 2 passes
    rep = check_multiplicities(parse("z + 1"), MonomialSpec(1, ((2, 1),)),
                               0.0, 2)
    assert rep.passed
    assert rep.min_multiplicity == 2

    # P(f) - 2 = e^z for f = 2z + e^z: zero-free, floor infinity passes
    rep = check_multiplicities(parse("2*z + exp(z)"),
                               MonomialSpec(0, ((1, 1),)), 2.0, INF)
    assert rep.passed
    assert rep.min_multiplicity is None
    assert rep.to_json_dict()["required"] == "inf"

    # same function against floor infinity with zeros present fails
    rep = check_multiplicities(parse("z"), MonomialSpec(1, ((2, 1),)),
                               2.0, INF)
    assert not rep.passed


def test_check_multiplicities_of_a_lone_typed_leaf():
    # g = (z-2)^8/8 + 3z is typed as one polynomial with simple roots and
    # stays one whole base, so g' - 3 = (z-2)^7 exactly: one zero of order
    # 7 (split, g' had 7 simple zeros about 2)
    rep = check_multiplicities(parse("(z-2)^8/8+3*z"), MonomialSpec(0, ((1, 1),)), 3, 7)
    assert rep.passed and rep.zeros == ((2, 7),)
    # (g^2)' = 2 g g' = 36 z^3 for g = D[z^3+1,1] = 3 z^2: the zeros of the
    # whole base z^2 and of the base z are one point, of order 3
    rep = check_multiplicities(parse("D[z^3+1,1]"), MonomialSpec(0, ((2, 1),)), 0, 3)
    assert rep.passed and rep.zeros == ((0j, 3),)
    # g = z^2/(z^2+1) + 1/(z^2+1) + z = 1 + z: the sum splits the lone whole
    # base z^2+1 where it meets the first term's bases, so g' = 1 has no
    # zero (kept whole, the tie at +-i went unseen and g' had two double
    # zeros there)
    rep = check_multiplicities(parse("z^2/(z^2+1) + 1/(z^2+1) + z"), MonomialSpec(0, ((1, 1),)), 0, 3)
    assert rep.passed and rep.zeros == ()


def test_chordal_distance():
    inf = complex(math.inf, 0.0)
    assert chordal_distance(0.0, 0.0) == 0.0
    assert chordal_distance(inf, inf) == 0.0
    assert chordal_distance(0.0, inf) == 1.0
    assert chordal_distance(1.0, inf) == pytest.approx(1.0 / math.sqrt(2.0))
    # symmetric and bounded by 1
    rng = random.Random(11)
    for _ in range(50):
        a = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        b = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        d = chordal_distance(a, b)
        assert d == pytest.approx(chordal_distance(b, a), rel=1e-12)
        assert 0.0 <= d <= 1.0 + 1e-12
    # arrays broadcast and agree element-wise with the scalar calls; any
    # non-finite component is the point at infinity
    a = np.array([complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
                  for _ in range(40)] + [inf, inf, complex(1.0, math.nan), 2.0])
    b = np.array([complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
                  for _ in range(40)] + [inf, 0.5j, inf, complex(-math.inf, 1.0)])
    d = chordal_distance(a, b)
    assert d.shape == a.shape
    for x, y, dxy in zip(a, b, d):
        assert dxy == pytest.approx(chordal_distance(complex(x), complex(y)),
                                    rel=1e-12)
    assert list(d[-4:-1]) == [0.0, pytest.approx(1.0 / math.sqrt(1.25)), 0.0]
    assert d[-1] == pytest.approx(1.0 / math.sqrt(5.0), rel=1e-12)
    row = chordal_distance(a[:5], 0.0)
    assert list(row) == [pytest.approx(chordal_distance(complex(x), 0.0), rel=1e-12)
                         for x in a[:5]]


def test_family_spec():
    fam = FamilySpec.from_json_dict(
        {"template": "v*z", "params": [1, 2, 4], "disc": {"center": "0", "radius": 1}})
    assert fam.params == (1.0, 2.0, 4.0)
    f2 = fam.instantiate(2.0)
    from nevanlab import evaluate
    assert evaluate(f2, 3.0) == pytest.approx(6.0)
    assert fam.contains(0.5) and not fam.contains(1.5)
    assert fam.to_json_dict()["template"] == "v*z"
    with pytest.raises(ValueError):
        FamilySpec("v*z", (2.0, 1.0))
    with pytest.raises(ValueError):
        FamilySpec("v*z", ())
    with pytest.raises(Exception):
        FamilySpec("v*q", (1.0,))  # unknown parameter name


def test_family_spec_parses_each_member_once(monkeypatch):
    # the member parsed to validate the template is the first one handed out
    fam = FamilySpec("v*z", (1.0, 2.0))
    calls = []
    monkeypatch.setattr(normality, "parse", lambda *args: calls.append(args))
    first = fam.instantiate(1.0)
    assert calls == [] and evaluate(first, 3.0) == pytest.approx(3.0)
    fam.instantiate(2.0)
    assert calls == [("v*z", {"v": 2.0})]


def test_family_spec_json_round_trip():
    fam = FamilySpec("v/(z-0.4)", (1.0, 2.0), complex(0.5, -0.25), 2.0)
    payload = fam.to_json_dict()
    assert payload["disc"] == {"center": "(0.5-0.25i)", "radius": 2.0}
    assert FamilySpec.from_json_dict(payload) == fam


def test_disc_grid():
    pts = disc_grid(0j, 1.0, 11)
    assert all(abs(p) <= 1.0 + 1e-9 for p in pts)
    assert 0j in pts
    assert len(pts) < 11 * 11  # corners clipped


def test_disc_grid_matches_scalar_formula():
    for center, radius in ((0j, 1.0), (0.3 - 0.7j, 0.8), (-1.25 + 2j, 2.0)):
        for resolution in range(2, 42):
            pts = []
            for i in range(resolution):
                x = -1.0 + 2.0 * i / (resolution - 1)
                for j in range(resolution):
                    y = -1.0 + 2.0 * j / (resolution - 1)
                    if x * x + y * y <= 1.0 + 1e-12:
                        pts.append(center + radius * complex(x, y))
            grid = disc_grid(center, radius, resolution)
            assert isinstance(grid, tuple) and grid == tuple(pts), resolution


def test_marty_probe_divergent_family():
    fam = FamilySpec("v*z", tuple(float(2 ** i) for i in range(9)))
    rep = marty_probe(fam, resolution=15, shrink=0.8)
    assert rep.divergent
    assert rep.flag == "NOT-NORMAL-EVIDENCE"
    # maxima of v/(1 + v^2 |z|^2) sit at the origin and equal v
    for (v, m, z), expect in zip(rep.entries, fam.params):
        assert m == pytest.approx(expect, rel=1e-9)
        assert abs(z) <= 1e-9
    csv = rep.to_csv_text()
    assert csv.splitlines()[0] == "v,max_spherical,argmax_re,argmax_im"


def test_marty_probe_derivatives_of_a_quotient_of_sums():
    # f = D^6 g(vz) with g = 1/(e^w+1): f(0) = 0 and f'(0) = v^7 g^(7)(0)
    # = (17/16) v^7, the maximum of f# on the disc for v >= 2
    fam = FamilySpec("D[1/(exp(v*z)+1),6]", (2.0, 4.0, 8.0))
    rep = marty_probe(fam)
    for v, m, z in rep.entries:
        assert m == pytest.approx(17 / 16 * v ** 7, rel=1e-12)
        assert z == 0


def test_marty_probe_translation_family_bounded():
    fam = FamilySpec("z + v", tuple(float(2 ** i) for i in range(9)))
    rep = marty_probe(fam, resolution=11, shrink=0.8)
    assert not rep.divergent
    assert all(m <= 1.0 + 1e-12 for _, m, _ in rep.entries)


def test_marty_probe_exponential_family():
    fam = FamilySpec("exp(v*z)", tuple(float(2 ** i) for i in range(9)))
    rep = marty_probe(fam, resolution=21, shrink=0.9)
    assert rep.divergent
    # the max of |v e^{vz}| / (1 + |e^{vz}|^2) over the disc approaches v/2
    last_v, last_m, _ = rep.entries[-1]
    assert last_m <= last_v / 2.0 + 1e-9
    assert last_m >= last_v / 8.0


def test_marty_probe_moebius_family_never_flags():
    # disc automorphisms (z + a)/(1 + a z) have |f| <= 1, so the spherical
    # derivative stays under |f'| <= 1/(1 - |z|^2) on the shrunken disc
    fam = FamilySpec("(z + (v/(1+v)))/(1 + (v/(1+v))*z)",
                     tuple(float(2 ** i) for i in range(8)))
    rep = marty_probe(fam, resolution=13, shrink=0.7)
    assert not rep.divergent
    bound = 1.0 / (1.0 - 0.7 ** 2) + 1e-6
    assert all(m <= bound for _, m, _ in rep.entries)


def test_marty_probe_all_points_failing(monkeypatch):
    import nevanlab.normality as nm

    def boom(f, z):
        raise ValueError("unusable")

    monkeypatch.setattr(nm, "spherical_derivative", boom)
    fam = FamilySpec("v*z", (1.0, 2.0))
    with pytest.raises(ValueError, match="no usable grid points"):
        nm.marty_probe(fam, resolution=5)


def test_marty_probe_pole_on_lattice():
    # f# of v/(z - 0.4) is v/(|z - 0.4|^2 + v^2): 1/v at the pole, which is
    # a lattice point at resolution 5 and shrink 0.8
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = marty_probe(FamilySpec("v/(z-0.4)", (1, 2, 4)), resolution=5)
    for (v, m, z), expect in zip(rep.entries, (1.0, 2.0, 4.0)):
        assert v == expect
        assert m == pytest.approx(1.0 / v, rel=1e-12)
        assert z == pytest.approx(0.4, abs=1e-15)


def test_marty_probe_exponential_overflow_skipped():
    # f# of exp(v z) is v/(2 cosh(v Re z)), v/2 on the imaginary axis; for
    # large v, exp(v z) overflows on most of the right half of the lattice
    params = tuple(float(2 ** i) for i in range(13))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = marty_probe(FamilySpec("exp(v*z)", params), resolution=21,
                          shrink=0.9)
    assert rep.divergent
    for (v, m, z), expect in zip(rep.entries, params):
        assert v == expect
        assert m == pytest.approx(v / 2.0, rel=1e-12)
        assert abs(z.real) <= 1e-15


def test_marty_probe_non_canonical_template():
    # exp(v z) + exp(-v z) has no canonical form; compare with numpy
    params = (1.0, 2.0, 4.0, 8.0, 16.0)
    pts = np.array(disc_grid(0j, 0.8, 21))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = marty_probe(FamilySpec("exp(v*z)+exp(-v*z)", params),
                          resolution=21)
    for (v, m, z), expect in zip(rep.entries, params):
        f = np.exp(v * pts) + np.exp(-v * pts)
        df = v * (np.exp(v * pts) - np.exp(-v * pts))
        sharp = np.abs(df) / (1.0 + np.abs(f) ** 2)
        assert v == expect
        assert m == pytest.approx(sharp.max(), rel=1e-12)
        at = int(np.abs(pts - z).argmin())
        assert abs(pts[at] - z) == 0.0
        assert sharp[at] == pytest.approx(sharp.max(), rel=1e-12)


def test_zalcman_pole_on_xi_grid():
    # 1/(v z) zoomed at 0 by 1/v is 1/xi for every v, with its pole at the
    # centre of the xi grid
    params = (4.0, 8.0, 16.0, 32.0)
    fam = FamilySpec("1/(v*z)", params)
    spec = RescalingSpec.from_rules(0, params, lambda v: 0j, lambda v: 1.0 / v)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = zalcman_rescale(fam, spec, limit=parse("1/z"))
    assert rep.converged
    assert rep.entries[0][3] is None
    for i, (_, _, _, dist_prev, dist_limit, sharp0) in enumerate(rep.entries):
        assert dist_limit == 0.0
        assert i == 0 or dist_prev == 0.0
        assert sharp0 == 1.0


def test_rescaling_singular_points_raise():
    # the removable 0/0 of v z / (z (z + 1)) at xi = 0 takes its limit:
    # g(xi) = v / (xi / v + 1), so g(0) = v, g'(0) = -1
    spec = RescalingSpec.from_rules(0, (4.0, 8.0), lambda v: 0j, lambda v: 1.0 / v)
    report = zalcman_rescale(FamilySpec("(v*z)/(z*(z+1))", (4.0, 8.0)), spec)
    for v, _, _, _, _, sharp0 in report.entries:
        assert sharp0 == pytest.approx(1.0 / (1.0 + v * v), rel=1e-12)
    # a pole of an extra term keeps its error
    params = _power_params()
    spec = RescalingSpec.from_rules(Fraction(1, 3), params, lambda v: 0j,
                                    lambda v: v ** -1.5)
    extra = (1.0, MonomialSpec(3, ((1, 1),)))
    with pytest.raises(ValueError, match="extra term has a pole at z = 0j"):
        rescale_extras_check(MonomialSpec(1, ((2, 1),)), (extra,),
                             FamilySpec("v/z", params), spec)


def test_rescaling_spec_validation():
    with pytest.raises(ValueError):
        RescalingSpec(Fraction(1), ((0j, 1.0),))
    with pytest.raises(ValueError):
        RescalingSpec(Fraction(0), ((0j, 1.0), (0j, 1.0)))
    with pytest.raises(ValueError):
        RescalingSpec(Fraction(0), ((0j, -1.0),))
    spec = RescalingSpec.from_rules(0, (4.0, 8.0), lambda v: 0j,
                                    lambda v: 1.0 / v)
    assert spec.pairs == ((0j, 0.25), (0j, 0.125))


def test_zalcman_exact_linear_family():
    params = (4.0, 8.0, 16.0, 32.0)
    fam = FamilySpec("v*z", params)
    spec = RescalingSpec.from_rules(0, params, lambda v: 0j, lambda v: 1.0 / v)
    rep = zalcman_rescale(fam, spec, limit=parse("z"))
    assert rep.converged
    for v, _, rho, dist_prev, dist_limit, sharp0 in rep.entries:
        # g_v(xi) = v * (1/v) * xi = xi exactly for powers of two
        assert dist_limit == 0.0
        assert sharp0 == pytest.approx(1.0, abs=1e-12)
    assert rep.entries[0][3] is None
    csv = rep.to_csv_text()
    assert csv.splitlines()[0] == "v,rho,dist_prev,dist_limit,sharp0"


def test_zalcman_consecutive_distances_without_limit():
    # g_v(xi) = xi + 1/v, so consecutive gaps shrink like 1/v and only
    # cross the convergence tolerance once v reaches the thousands
    params = tuple(float(2 ** i) for i in range(2, 12))
    fam = FamilySpec("v*z + 1/v", params)
    spec = RescalingSpec.from_rules(0, params, lambda v: 0j, lambda v: 1.0 / v)
    rep = zalcman_rescale(fam, spec)
    dists = [e[3] for e in rep.entries if e[3] is not None]
    assert all(b < a for a, b in zip(dists, dists[1:]))
    assert rep.converged


def test_zalcman_domain_escape():
    params = (1.0, 2.0)
    fam = FamilySpec("v*z", params)
    spec = RescalingSpec.from_rules(0, params, lambda v: 0j, lambda v: 1.0 / v)
    with pytest.raises(ValueError, match="escapes the domain"):
        zalcman_rescale(fam, spec)


def test_rescaling_identity_random():
    rng = random.Random(20240824)
    f = parse("(z^2 - 1) * exp(z)")
    for _ in range(25):
        nj = rng.randrange(1, 4)
        tj = rng.randrange(1, 4)
        alpha = Fraction(rng.randrange(-2, 3), 4)  # in (-1, 1)
        z_v = complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))
        rho = rng.uniform(0.05, 0.5)
        xi = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        lhs, rhs = rescaling_identity_values(f, nj, tj, z_v, rho, alpha, xi)
        assert abs(lhs - rhs) <= 1e-8 * (1.0 + abs(rhs))


def test_rescaled_function_shape():
    f = parse("v*z", {"v": 8.0})
    g = rescaled_function(f, 0j, 0.125, Fraction(0))
    from nevanlab import evaluate
    assert evaluate(g, 2.0) == pytest.approx(2.0)


def _power_params():
    return tuple(float(10 ** k) for k in (2, 4, 6, 8))


def test_extras_check_valid_example():
    # main g (g^2)' with alpha = 1/3; rho_v = v^{-3/2} makes g_v = xi exactly,
    # so the main term is 2 xi^2 at every stage; the extra f^3 f' carries
    # v^{-1/2} xi^3 and dies off
    params = _power_params()
    fam = FamilySpec("v*z", params)
    main = MonomialSpec(1, ((2, 1),))
    extra = (1.0, MonomialSpec(3, ((1, 1),)))
    spec = RescalingSpec.from_rules(Fraction(1, 3), params, lambda v: 0j,
                                    lambda v: v ** -1.5)
    rep = rescale_extras_check(main, (extra,), fam, spec)
    assert rep.main_converged
    assert rep.extras_vanish
    sups = [s for _, _, s in rep.entries]
    assert all(b < a for a, b in zip(sups, sups[1:]))
    assert sups[-1] < 1e-3
    # the analytic value of the extra sup is 8 v^{-1/2} for |xi| <= 2
    for (v, _, sup) in rep.entries:
        assert sup == pytest.approx(8.0 * v ** -0.5, rel=1e-9)


def test_extras_check_alpha_violation():
    params = _power_params()
    fam = FamilySpec("v*z", params)
    main = MonomialSpec(1, ((2, 1),))  # alpha 1/3
    bad = (1.0, MonomialSpec(1, ((1, 1),)))  # alpha 1/2
    spec = RescalingSpec.from_rules(Fraction(1, 3), params, lambda v: 0j,
                                    lambda v: v ** -1.5)
    with pytest.raises(AlphaViolation):
        rescale_extras_check(main, (bad,), fam, spec)


def test_extras_check_empty_extras():
    params = _power_params()
    fam = FamilySpec("v*z", params)
    main = MonomialSpec(1, ((2, 1),))
    spec = RescalingSpec.from_rules(Fraction(1, 3), params, lambda v: 0j,
                                    lambda v: v ** -1.5)
    rep = rescale_extras_check(main, (), fam, spec)
    assert rep.extras_vanish
    assert rep.main_converged


def test_extras_check_alpha_mismatch():
    params = _power_params()
    fam = FamilySpec("v*z", params)
    main = MonomialSpec(1, ((2, 1),))
    spec = RescalingSpec.from_rules(Fraction(1, 4), params, lambda v: 0j,
                                    lambda v: v ** -1.5)
    with pytest.raises(ValueError, match="alpha"):
        rescale_extras_check(main, (), fam, spec)
