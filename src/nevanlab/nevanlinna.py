"""Counting, proximity, and characteristic functionals on radial grids.

The integrated counting function is evaluated in closed form from the
divisor: N(r) = sum over |z_k| <= r of m_k (log r - log max(|z_k|, 1)).
Proximity m(r) is a composite-trapezoid average of log+|f| over N
equispaced points z_j = r w^j, w = exp(2 pi i/N), computed in the log
domain from the factored canonical form (lead/den_lead) prod b^e exp(expo),
each base that _split can split taken as its linear bases.  Each circle is
one of three kinds, told apart for all radii of a call at once from a table
of those bases, read once per function (_Bases) with no expanded
polynomial:

- zero circle: an upper bound of log|f| on |z| = r is below -1e-9, so
  |f| < 1 there and m(r) = 0.0, which the trapezoid sum also gives;
- closed-form circle: a lower bound of log|f| is above 1e-9, every root
  of every base lies inside r exp(-40/N), and deg expo < N.  Then m(r) is
  the circle mean of log|f|, which Jensen's formula gives as
  log|lead/den_lead| + (sum e deg b) log r + Re expo(0); the N-point
  trapezoid differs from it by at most e^-40/N per root, since it aliases
  only the modes that are multiples of N;
- sampled circle: anything else, evaluated as below.

The bounds take one root bound B per base, and a monic base b of degree d
has d log|r - B| <= log|b| <= d log(r + B) on |z| = r (_Bases.log_bounds).
A linear base z - a gives B = |a| itself, on either side of the circle;
only a base that _split refuses takes a Graeffe-tightened bound
(_root_bound), within (2d)^(1/8) of its largest root modulus, and a lower
bound only where r > B.

Sampled circles are summed by their row where every base is linear,
(z - a_j)^e_j, and deg expo <= _ROW_TERMS = 128.  The far roots give
log|f(r w^j)| = Re sum_m D_m w^(jm), from Jensen's formula and their power
sums (_row_coefficients), cut after M <= _ROW_TERMS terms with a tail of
at most 2^-53 per sample (_row_terms).  Every root is far where that bound
passes with all of them; elsewhere the roots with min(|a|/r, r/|a|) above
_NEAR are near, and each adds its exact log at the nodes (_near_logs).
A row is the N-point trapezoid of max(g, 0), but a slope bound on the
Fourier part and the extremes of the near logs certify the sign of g on
most intervals between K = min(64, N/8) coarse nodes, and only the nodes
inside the others are sampled (_row_sums).

The other circles (a pole on the circle, a base that _split refuses, deg
expo > 128, a row sum that is not finite) take all N samples from
Canonical.log_abs, which sums e log|b(z)| over the bases b^e of the
factored form.  On a circle through poles rho of order m, with
L = sum m log|z - rho|, log+|f| = h - L where h = max(log|f| + L, L) is
smooth at the poles; h is sampled at every node from the factored form
without those poles' linear bases, so it is finite even at a node on a
pole, and the exact mean of L, sum m log max(r, |rho|), is subtracted.
Samples that are NaN or +inf are retried half a step over; samples still
singular raise QuadratureError.  T = m + N by construction.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .expressions import (
    Const,
    canonical_divisors,
    canonicalize,
    differentiate,
    div,
    evaluate_on_grid,
    print_expr,
    _times,
)
from .polynomials import QuadratureError
DEFAULT_SAMPLES = 4096
DEFAULT_RMIN, DEFAULT_RMAX, DEFAULT_STEPS = 2.0, 128.0, 64
_MIN_SAMPLES = 64
_ON_CIRCLE = 1e-8  # a pole within this relative distance of |z| = r lies on the circle
_SETTLE_MARGIN = 1e-9  # log|f| must clear 0 by this much to settle a circle unsampled
_ALIAS_EXPONENT = 40.0  # closed form only with every root inside r exp(-40/N)
_INFLATE = 1.0 + 1e-12  # rounded tails and root bounds are raised by this factor
_GRAEFFE_STEPS = 3  # root squarings behind each root bound: slack 2d -> (2d)^(1/8)
_UNIT_ROUNDOFF = 2.0 ** -53
_SUBNORMAL = 2.0 ** -1074
_ROW_TERMS = 128  # most Fourier terms of log|f| in a circle's row (_row_terms)
_ROW_TAIL = 2.0 ** -53  # bound on the error per sample of a row cut after its terms
_NEAR = 0.7  # a root past this ratio to r leaves a failing row for its own logs
_ROW_NODES = 64  # coarse nodes of a row circle, at most (_row_tables)
# columns m and 1 against the moduli |D_m|, m = 1 .. _ROW_TERMS, give sum m |D_m| and
# sum |D_m| (_row_sums); 8 columns, as products of 1 or 2 round by their rows and widths
_ROW_WEIGHTS = np.zeros((_ROW_TERMS, 8))
_ROW_WEIGHTS[:, 0], _ROW_WEIGHTS[:, 1] = np.arange(1, _ROW_TERMS + 1), 1.0
_ROW_WEIGHTS.flags.writeable = False


def _require_radii(radii):
    """The radii as a float ndarray, each finite and above 1; the first that
    is not raises ValueError."""
    r = np.array(radii, dtype=float).reshape(-1)
    bad = ~(np.isfinite(r) & (r > 1.0))
    if bad.any():
        first = float(r[bad][0])
        if not math.isfinite(first):
            raise ValueError(f"radius must be finite, got {first}")
        raise ValueError("radii must be greater than 1 (counting is based at 1)")
    return r


def _require_samples(samples):
    if samples is None:
        return DEFAULT_SAMPLES
    if not isinstance(samples, int) or samples < _MIN_SAMPLES:
        raise ValueError(f"samples must be an integer >= {_MIN_SAMPLES}")
    if samples & (samples - 1):
        raise ValueError("samples must be a power of two")
    return samples


@dataclass(frozen=True)
class RadialGrid:
    """Strictly increasing geometric grid of radii, all above 1."""

    radii: tuple

    def __post_init__(self):
        radii = tuple(float(r) for r in self.radii)
        if not radii:
            raise ValueError("empty radial grid")
        if not all(map(math.isfinite, radii)):
            raise ValueError("grid radii must be finite")
        if radii[0] <= 1.0:
            raise ValueError("grid radii must exceed 1")
        for a, b in zip(radii, radii[1:]):
            if b <= a:
                raise ValueError("grid radii must be strictly increasing")
        if len(radii) > 2:
            q = radii[1] / radii[0]
            for a, b in zip(radii, radii[1:]):
                if abs(b / a - q) > 1e-9 * q:
                    raise ValueError("grid spacing must be geometric")
        object.__setattr__(self, "radii", radii)

    @classmethod
    def geometric(cls, rmin=DEFAULT_RMIN, rmax=DEFAULT_RMAX, count=DEFAULT_STEPS):
        if count < 2:
            raise ValueError("need at least two radii")
        ratio = (rmax / rmin) ** (1.0 / (count - 1))
        return cls(tuple(rmin * ratio ** k for k in range(count)))

    @property
    def ratio(self):
        if len(self.radii) < 2:
            return 1.0
        return self.radii[1] / self.radii[0]

    def __len__(self):
        return len(self.radii)

    def __iter__(self):
        return iter(self.radii)


def unintegrated_counting(divisor, t):
    """n(t): multiplicity mass of the divisor inside |z| <= t."""
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    if t < 0:
        raise ValueError("t must be nonnegative")
    return divisor.count_within(t)


def counting_N(divisor, r, truncated=False):
    """Integrated counting function of the divisor at radius r > 1."""
    return counting_series(divisor, (r,), truncated)[0]


def counting_series(divisor, radii, truncated=False):
    """counting_N(divisor, r, truncated) for every r in radii > 1, as a list:
    the sum over entries z with |z| <= r of m (log r - log max(|z|, 1)), with
    m = 1 when truncated.

    One array pass over the radii per divisor entry, the logs taken by
    math.log and the terms summed in entry order.
    """
    radii = _require_radii(radii)
    log_r = np.array([math.log(r) for r in radii])
    acc = np.zeros(len(radii))
    for z, m in divisor.entries:
        az = abs(z)
        term = (1 if truncated else m) * (log_r - math.log(max(az, 1.0)))
        acc += np.where(az <= radii, term, 0.0)
    return acc.tolist()


def _fujiwara(moduli, lead):
    """Fujiwara's bound from |c_0| .. |c_(d-1)| and lead = |c_d|:
    2 max(|c_(d-k)/c_d|^(1/k) for 0 < k < d, |c_0/(2 c_d)|^(1/d)).
    """
    a = moduli / lead
    a[0] /= 2.0
    return 2.0 * float(np.max(a ** (1.0 / np.arange(len(a), 0.0, -1.0))))


def _graeffe_step(a, e):
    """One root squaring on disc coefficients (constant first, degree d).

    If each coefficient of p lies within e[k] of a[k], each coefficient of
    q, where q(z^2) = p(z) p(-z) has the squares of the roots of p, lies
    within the returned radius of the returned midpoint.  The radius is
    2 conv(|a|, e) + conv(e, e) for the discs plus gamma conv(|a|, |a|) for
    the rounding of the midpoint, raised by (1 + gamma) for its own
    rounding and by a few subnormal units for underflow: nonnegative terms
    only, so no radius is the difference of two bounds.
    """
    d = len(a) - 1
    gamma = 4.0 * (d + 2) * _UNIT_ROUNDOFF
    m = np.abs(a)
    flipped = a.copy()
    flipped[1::2] *= -1.0
    radius = np.convolve(m + m + e, e)
    radius += gamma * np.convolve(m, m)
    return (np.convolve(a, flipped)[::2],
            radius[::2] * (1.0 + gamma) + 8.0 * (d + 1) * _SUBNORMAL)


def _root_bound(c):
    """A certified bound on the root moduli of sum_k c[k] z^k, raised by _INFLATE.

    Fujiwara's bound F exceeds the largest root modulus by a factor of up
    to 2d (a d-fold root).  Scaled by the power of two s >= F (exact, bar
    underflow), the polynomial has its roots in the unit disc and
    coefficients of modulus at most 1.  _GRAEFFE_STEPS root squarings
    (_graeffe_step) on midpoint-radius coefficients keep each true
    coefficient inside its disc, and Fujiwara's bound on the upper moduli
    |b_k| + e_k over the lower modulus of the lead bounds the 2^steps-th
    powers of the roots; its 2^steps-th root times s exceeds the largest
    root modulus by at most (2d)^(1/2^steps), 1.45 for d = 10.  Never more
    than plain Fujiwara, which is also the result when anything is not
    finite or when the floors of deeply underflowed coefficients (high
    degree, roots far inside F) dominate; 0.0 for a constant.
    """
    d = len(c) - 1
    if d == 0:
        return 0.0
    lead = abs(c[-1])
    with np.errstate(all="ignore"):
        plain = _fujiwara(np.abs(c[:-1]), lead) * _INFLATE
        if not 0.0 < plain < math.inf:
            return plain
        shift = math.frexp(plain)[1]  # s = 2^shift
        scale = shift * np.arange(-d, 1) - math.frexp(lead)[1]
        a = np.ldexp(c.real, scale) + 1j * np.ldexp(c.imag, scale)
        e = np.full(d + 1, 2.0 * _SUBNORMAL)  # ldexp rounds only on underflow
        for _ in range(_GRAEFFE_STEPS):
            a, e = _graeffe_step(a, e)
        gamma = 4.0 * (d + 2) * _UNIT_ROUNDOFF
        low = (abs(a[-1]) - e[-1]) * (1.0 - gamma)
        high = (np.abs(a[:-1]) + e[:-1]) * (1.0 + gamma)
        root = _fujiwara(high, low) ** (0.5 ** _GRAEFFE_STEPS)
        bound = float(np.ldexp(root, shift)) * _INFLATE
    if low > 0.0 and bound < plain:
        return bound
    return plain


class _Bases:
    """The bases b^e of a canonical form c, read once per FunctionData for
    every stage of proximity.  The linear bases (z - a)^e give roots a,
    moduli |a|, exponents e and orders |e|, sorted by modulus (stable).
    Every base has a root bound B (bounds: |a| for z - a, _root_bound only
    for a whole base) and a weight e deg b (weights), the linear bases
    first; linear says that none is whole, and reach is the largest B raised
    by _INFLATE.  const = log|lead| - log|den_lead|, scale = |log|lead|| +
    |log|den_lead||, slope = sum e deg b and expo is expo's coefficients."""

    def __init__(self, c):
        lines = [(-b.coefficients[0], e) for b, e in c.factors if b.degree == 1]
        whole = [(b, e) for b, e in c.factors if b.degree > 1]
        roots = np.array([a for a, _ in lines], dtype=complex)
        moduli = np.abs(roots)
        order = np.argsort(moduli, kind="stable")
        self.roots, self.moduli = roots[order], moduli[order]
        self.e = np.array([e for _, e in lines], dtype=float)[order]
        self.orders, self.linear = np.abs(self.e), not whole
        tops = [_root_bound(np.array(b.coefficients)) for b, _ in whole]
        weights = self.e.tolist() + [e * b.degree for b, e in whole]
        self.bounds, self.weights = np.array(self.moduli.tolist() + tops), np.array(weights)
        self.reach = max([*(self.moduli[-1:] * _INFLATE).tolist(), *tops], default=0.0)
        logs = math.log(abs(c.lead)), math.log(abs(c.den_lead))
        self.const, self.scale = logs[0] - logs[1], abs(logs[0]) + abs(logs[1])
        self.slope, self.mass = sum(weights), sum(map(abs, weights))
        self.expo = np.array(c.expo.coefficients)
        self.spread = np.abs(self.expo[:0:-1]).tolist()  # |p_k|, k = deg expo .. 1
        # the rows of shifts + r hold r + B and r - B per base; of their logs the
        # lower bound takes a pole's top and a zero's gap, the upper one the rest
        n, self.sizes = len(weights), np.abs(self.weights)[:, None]
        self.shifts = np.concatenate([self.bounds, -self.bounds])[:, None]
        self.pick = np.array([j + n * (w > 0) for j, w in enumerate(weights)]
                             + [j + n * (w < 0) for j, w in enumerate(weights)], dtype=int)

    def log_bounds(self, r):
        """(lower, upper) bounds of log|f| on |z| = r, per radius of the
        ndarray r, in one (radii x bases) pass.

        A monic base b of degree d with its roots within B of 0 has
        d log|r - B| <= log|b(z)| <= d log(r + B) on |z| = r: a linear base
        on either side of the circle, a whole base only where r > B.  log|f|
        lies between const + Re p_0 -+ spread, p = expo and
        spread = sum_(k>=1) |p_k| r^k (by Horner, raised by _INFLATE), plus
        the sum of e d times each base's lower bound where e > 0 and its
        upper bound where e < 0 (lower), and the other way round (upper).

        Rounding, u = 2^-53, to the last bit of the samples: |a| is rounded
        by an ulp, 2u |a|, r -+ B by u, and a node r w^j has modulus within
        3u r of r.  So a root's distance from the circle, and from a node as
        computed, is at least the gap |r - B| - 2^-50 (r + B), the argument
        of the lower log, whose rounding raises it by u at most; from a node
        it is at most (r + B)(1 + 6u).  Each log errs by u + 4u |log| (two
        ulps), its product with e d by one rounding more, const by 2u scale
        and the sum of n terms and constants by gamma_(n+3) of their moduli.
        Both bounds move out by 4 (n + 4) u (1 + scale + |Re p_0| + spread
        + sum |e d| (1 + |log|)) over the logs each takes, which covers these
        and a sample's own rounding from the bases (Canonical.log_abs: a
        complex log per linear base; in the upper bound also Horner's
        gamma_(2d) (r + B)^d on a whole base).  A gap of 0 or less gives
        -inf and an overflow inf or NaN, which settle nothing."""
        size, count, lines = len(r), len(self.bounds), len(self.roots)
        with np.errstate(all="ignore"):
            spread = np.zeros(size)
            for x in self.spread:
                spread = (spread + x) * r
            spread *= _INFLATE
            logs = self.shifts + r
            top, gap = logs[:count], logs[count:]
            np.abs(gap[:lines], out=gap[:lines])
            gap -= 2.0 ** -50 * top
            np.maximum(gap, 0.0, out=gap)
            np.log(logs, out=logs)
            logs = logs[self.pick].reshape(2, count, size)  # the lower and the upper logs
            sums, slack = (logs * self.weights[:, None]).sum(1), (np.abs(logs) * self.sizes).sum(1)
            base = self.expo[0].real
            slack += 1.0 + self.scale + abs(base) + self.mass + spread
            slack = slack * (4.0 * (count + 4) * _UNIT_ROUNDOFF) + spread
            return self.const + base + sums[0] - slack[0], self.const + base + sums[1] + slack[1]


def _settled_circles(bases, radii, samples):
    """m(r) for each radius whose circle needs no samples; NaN for the rest.

    Zero circles (log|f| < -_SETTLE_MARGIN on the whole circle) give 0.0;
    closed-form circles (log|f| > _SETTLE_MARGIN, every root of every base
    inside r exp(-_ALIAS_EXPONENT/N), deg expo < N) give Jensen's value
    const + slope log r + Re expo(0).  The bounds come from the bases'
    root bounds (_Bases.log_bounds); no coefficient of num or den is read.
    Jensen's value is the N-point mean for the factored f, to e^-40/N per
    root.
    """
    r = np.asarray(radii, dtype=float)
    lower, upper = bases.log_bounds(r)
    out = np.full(len(r), np.nan)
    if len(bases.expo) <= samples:
        closed = (lower > _SETTLE_MARGIN) & (bases.reach <= r * math.exp(-_ALIAS_EXPONENT / samples))
        out[closed] = (bases.const + bases.slope * np.log(r) + bases.expo[0].real)[closed]
    out[upper < -_SETTLE_MARGIN] = 0.0
    return out


def _row_terms(bases, r):
    """(terms, near) per radius of the ndarray r: the number M of Fourier
    terms of log|f| in the circle's row, the least M >= deg expo whose
    truncation bound sum_j |e_j| x_j^(M+1) / ((M+1)(1 - x_j)),
    x_j = min(|a_j| / r, r / |a_j|), is at most _ROW_TAIL (_least_terms).
    Where no M <= _ROW_TERMS is, the roots with x_j above _NEAR are near
    (near[i, j]) and leave the bound to the others.  -1 where still no M
    is or a near pole lies on the circle (x_j >= 1 - _ON_CIRCLE), and
    everywhere when a base is whole or deg expo > _ROW_TERMS; near is None
    where every row passed with all its roots."""
    terms = np.full(len(r), -1)
    degree = len(bases.expo) - 1
    if degree > _ROW_TERMS or not bases.linear:
        return terms, None
    with np.errstate(divide="ignore", over="ignore"):
        ratio = bases.moduli / r[:, None]
        ratio = np.minimum(ratio, 1.0 / ratio)  # 1 for a root on the circle
    least, ok = _least_terms(ratio, bases.orders)
    terms[ok] = np.maximum(least[ok], degree)
    if ok.all():
        return terms, None
    again = np.flatnonzero(~ok)
    close = ratio[again] > _NEAR
    least, ok = _least_terms(np.where(close, 0.0, ratio[again]), bases.orders)
    ok &= ~((ratio[again] >= 1.0 - _ON_CIRCLE) & (bases.e < 0)).any(axis=1)
    near = np.zeros(ratio.shape, dtype=bool)
    terms[again[ok]], near[again[ok]] = np.maximum(least[ok], degree), close[ok]
    return terms, near


def _least_terms(ratio, orders):
    """(least, ok): the least M <= _ROW_TERMS whose truncation bound
    (_row_terms) is at most _ROW_TAIL per row of ratios, where ok says one
    is; a ratio of 0 adds nothing.  The bound falls with M, so two passes
    find the least M, at every 16th M and at the 15 below the first that
    passes; two rows or fewer take one pass at every M."""
    with np.errstate(divide="ignore", invalid="ignore"):
        weight = orders / (1.0 - ratio)
        ratio = ratio[:, None]
        stride = 1 if len(ratio) <= 2 else 16
        step = np.arange(1.0, _ROW_TERMS + 2.0, stride)  # M + 1 for every stride-th M
        ok = np.einsum("rmj,rj->rm", ratio ** step[:, None], weight) <= _ROW_TAIL * step
        least = stride * np.argmax(ok, axis=1)  # the first of them that passes
        if stride > 1:  # and the 15 M below it
            step = np.maximum(least[:, None] + np.arange(-15.0, 1.0), 0.0) + 1.0
            bound = np.einsum("rmj,rj->rm", ratio ** step[..., None], weight)
            least += np.argmax(bound <= _ROW_TAIL * step, axis=1) - 15
    return least, ok[:, -1]


def _row_coefficients(bases, r, terms, near):
    """D_m(r) for m <= max(terms), one row per radius of the ndarray r, 0 past
    the radius's own terms, for a table (_Bases) of linear bases
    (z - a_j)^e_j only, sorted by |a_j|, less the near roots (near, from
    _row_terms, or None): log|f(r w^j)| = Re sum_m D_m w^(jm) + the near logs, up to
    the truncation that _row_terms bounds, with the sums over far roots
    D_0 = log|lead / den_lead| + Re p_0 + sum_j e_j log max(r, |a_j|)
    and D_m = p_m r^m - (1/m) sum_(|a_j| > r) e_j (r / a_j)^m
    - (1/m) conj(sum_(|a_j| < r) e_j (a_j / r)^m), p = expo.

    The near roots are a run of the sorted roots, so the far ones are the
    first k, inside, and those from l on, outside (k = l without near
    roots).  The power sums are built once per split (k, l), scaled by its
    largest inside modulus s (1 where that is less, as r > 1) and smallest
    outside one t, so that no power exceeds 1 in modulus:
    (a_j / r)^m = (s / r)^m (a_j / s)^m and (r / a_j)^m = (r / t)^m (t / a_j)^m,
    an outer product in r."""
    top = int(terms.max())
    roots, moduli, e, p = bases.roots, bases.moduli, bases.e, bases.expo
    d = np.zeros((len(r), top + 1), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # inf sums go to _sampled_circle
        d[:, :len(p)] = p * r[:, None] ** np.arange(len(p))
    d[:, 0] = bases.const + p[0].real
    span = len(roots) + 1  # split (k, l) as k * span + l
    split = np.searchsorted(moduli, r) * (span + 1)
    some = np.flatnonzero(near.any(axis=1)) if near is not None else ()
    if len(some):
        split[some] = (np.argmax(near[some], axis=1) * span + span - 1
                       - np.argmax(near[some, ::-1], axis=1))
    splits = set(split.tolist())
    for key in splits:
        k, l = divmod(key, span)
        at = split == key if len(splits) > 1 else slice(None)  # a slice updates d in place
        n = int(terms[at].max())
        x = r[at, None]
        m = np.arange(1.0, n + 1.0)
        d[at, 0] += e[:k].sum() * np.log(r[at]) + e[l:] @ np.log(moduli[l:])
        if k:
            s = max(moduli[k - 1], 1.0)
            d[at, 1:n + 1] -= np.exp(np.log(s / x) * m) * (np.conj(_power_sums(roots[:k] / s, e[:k], n)) / m)
        if l < len(roots):
            t = moduli[l]
            d[at, 1:n + 1] -= np.exp(np.log(x / t) * m) * (_power_sums(t / roots[l:], e[l:], n) / m)
    d[np.arange(top + 1) > terms[:, None]] = 0.0  # m(r) is its own terms'
    return d


def _power_sums(z, e, n):
    """sum_j e_j z_j^m for m = 1 .. n, the powers by running products and
    the sum in the order of z, so that each does not depend on n."""
    return (e[:, None] * np.cumprod(np.repeat(z[:, None], n, axis=1), axis=1)).sum(0)


@lru_cache(maxsize=4)
def _row_tables(samples):
    """Read-only (coarse, inner, q) of a row on N = samples nodes, cut into
    K = min(_ROW_NODES, N/8) intervals of s = N/K nodes, W = w^s.  The rows
    2m - 2 and 2m - 1 of coarse and inner hold Re a_m and -Im a_m for
    m = 1 .. _ROW_TERMS, so that the product of the Re, Im parts of some
    coefficients D_m with a column is Re sum_m D_m a_m.  Column k < K of
    coarse has a_m = W^(km), the coarse node ks, and column t < s of inner
    a_m = w^(mt); q[m - 1] = sum_(0<t<s) w^(mt), so that the column k of
    the coefficients q_m D_m sums the nodes inside interval k.  All powers
    are entries of the cached unit circle.  K and s are powers of two of 8
    or more: with 1, 2 or 4 columns, or one more than a multiple of 16, the
    rows of an OpenBLAS product can round by the other rows and the width."""
    unit = _unit_circle(samples)[1]
    stride = samples // min(_ROW_NODES, samples // 8)
    m = np.arange(1, _ROW_TERMS + 1)[:, None]
    inner = unit[m * np.arange(stride) % samples]
    q = inner[:, 1:].sum(1)
    coarse = unit[m * np.arange(0, samples, stride) % samples]
    coarse, inner = (np.stack([x.real, -x.imag], 1).reshape(-1, x.shape[1])
                     for x in (coarse, inner))
    for x in (coarse, inner, q):
        x.flags.writeable = False
    return coarse, inner, q


def _row_classes(terms):
    """(start, stop, width) of the runs of sorted terms in one class, up to
    16, 32, 64 and _ROW_TERMS terms, width the run's largest."""
    cuts = np.searchsorted(terms, (16, 32, 64), side="right").tolist()
    bounds = sorted({0, len(terms), *cuts})
    return [(a, b, int(terms[b - 1])) for a, b in zip(bounds, bounds[1:])]


def _row_sums(d, terms, samples, near):
    """sum_j max(g_j, 0) over the N nodes, per row of coefficients d
    (_row_coefficients) with its number of terms M: g_j = f_j + v_j, the
    Fourier part f_j = D_0 + Re sum_(0<m<=M) D_m w^(jm) and the logs v_j of
    the row's near roots, from 2K values and the nodes next to the sign
    changes.  near holds (i, r, a, e) for each row i with near roots: its
    radius, those roots and their exponents (_near_logs).

    On the K = N/s coarse nodes ks and the K intervals between them, real
    products of the rows D_m and q_m D_m against the coarse table
    (_row_tables) give f(ks) = D_0 + Re sum_m D_m W^(km) and the interval
    sums (s - 1) D_0 + Re sum_m q_m D_m W^(km); the near logs add theirs,
    which gives g_k = g(ks) and h_k = sum_(0<t<s) g(ks + t).  The slope of f
    in theta is at most B = sum_m m |D_m|, so on an interval, of length
    H = 2 pi s / N, f lies within (f_k + f_(k+1) -+ B H) / 2 (f_K = f_0), and
    the near logs of its nodes between their least and largest.  Where
    those bounds keep g off 0 by more than the rounding of f_k, the
    interval's inside adds h_k if g is positive and nothing if negative.
    That rounding is at most eps = 8 (M + 8) u sum_m |D_m|, u = 2^-53:
    gamma_(2M) for the product of 2M terms and about 20 u per entry of the
    table (2 pi j / N and its cosine and sine rounded), each on at most
    sqrt(2) sum |D_m|, and u for adding D_0.  The s - 1 nodes inside every
    other interval are sampled: their rows D_m W^(km) go in a real product
    against the inner table, and their near logs are added.  m(r) is the
    N-point trapezoid to rounding.

    The radii go by their number of terms, one product per class of terms
    (_row_classes), each as wide as the class's largest, and each radius's
    sum depends on its own row alone: the columns past its own terms are 0,
    each product has two rows at least (one row goes to gemv, which rounds
    unlike the rows of a gemm), and its sums run over its own row.  The near
    logs of one radius at a time go through three buffers of N, and only
    those inside its uncertain intervals are kept."""
    coarse, inner, q = _row_tables(samples)
    stride, count = inner.shape[1], coarse.shape[1]
    order = np.argsort(terms, kind="stable")
    terms, d = terms[order], d[order]
    size = len(d)
    base = d[:, 0].real.copy()
    values = np.empty((2 * size, count))
    bounds = np.empty((size + 1, _ROW_WEIGHTS.shape[1]))
    classes = []
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for a, b, w in _row_classes(terms):
            rows = np.zeros((b - a + 1, 2, w), dtype=complex)  # D_m and q_m D_m, and a row of 0
            rows[:-1, 0] = d[a:b, 1:w + 1]
            np.multiply(rows[:-1, 0], q[:w], out=rows[:-1, 1])
            np.matmul(rows[:-1].reshape(2 * (b - a), w).view(float), coarse[:2 * w],
                      out=values[2 * a:2 * b])
            np.matmul(np.abs(rows[:, 0]), _ROW_WEIGHTS[:w], out=bounds[a:b + 1])
            classes.append((a, b, w, rows))
        del d
        slope, total = bounds[:size, :2].T
        eps = 8.0 * (terms + 8.0) * _UNIT_ROUNDOFF * (total + np.abs(base))
        g, h = values[0::2], values[1::2]
        g += base[:, None]
        h += (stride - 1.0) * base[:, None]
        pair = np.empty_like(g)
        np.add(g[:, :-1], g[:, 1:], out=pair[:, :-1])
        np.add(g[:, -1], g[:, 0], out=pair[:, -1])
        reach = (slope * (2.0 * math.pi * stride / samples) + 2.0 * eps) * _INFLATE
        sure = np.abs(pair) > reach[:, None]
        up = sure & (pair > 0.0)
        if near:
            close = np.argsort(order)[[i for i, *_ in near]]  # their sorted rows
            starts, work = np.arange(0, samples, stride), np.empty((3, samples))
            # an interval's inside is positive where the least near log on its nodes,
            # its first coarse node too, exceeds lower, negative where the largest is below upper
            lower, upper = ((x * reach[close, None] - pair[close]) / 2.0 for x in (1.0, -1.0))
            ups, sures = np.empty((2, len(near), count), dtype=bool)
            first, whole = np.empty((2, len(near), count))
            kept = []  # (row, the near logs inside its uncertain intervals)
            for c, (_, r, a, e) in enumerate(near):
                v = _near_logs(r, a, e, samples, work)
                np.greater(np.minimum.reduceat(v, starts), lower[c], out=ups[c])
                np.less(np.maximum.reduceat(v, starts), upper[c], out=sures[c])
                sures[c] |= ups[c]
                np.add.reduceat(v, starts, out=whole[c])
                np.copyto(first[c], v[::stride])
                kept.append((close[c], v.reshape(count, stride)[~sures[c], 1:]))
            up[close], sure[close] = ups, sures
            g[close] += first
            h[close] += whole - first
        sums = np.where(up, h, 0.0)
        at, k = np.nonzero(~sure)
        if near:  # in the order of at
            logs, taken = np.zeros((len(at), stride - 1)), np.zeros(size, dtype=bool)
            taken[close] = True
            logs[taken[at]] = np.concatenate([x for _, x in sorted(kept, key=lambda y: y[0])])
        unit, spin = _unit_circle(samples)[1], stride * np.arange(1, classes[-1][2] + 1)
        for (a, b, w, rows), (p, n) in zip(classes, np.searchsorted(at, [c[:2] for c in classes])):
            if n > p:
                turned = np.zeros((max(n - p, 2), w), dtype=complex)
                np.multiply(rows[at[p:n] - a, 0], unit[k[p:n, None] * spin[:w] & (samples - 1)],
                            out=turned[:n - p])
                x = (turned.view(float) @ inner[:2 * w])[:n - p, 1:]
                x += base[at[p:n], None]
                if near:
                    x += logs[p:n]
                sums[at[p:n], k[p:n]] = np.maximum(x, 0.0, out=x).sum(1)
        sums += np.maximum(g, 0.0)
    out = np.empty(size)
    out[order] = sums.sum(1)
    return out


def _near_logs(r, roots, e, samples, work):
    """sum_j e_j log|r w^t - a_j| at the N nodes t of the circle r, into the
    first of the three rows of work, (3, N): (sum_j e_j) log r plus each
    (e_j / 2) log((cos theta_t - Re a_j / r)^2 + (sin theta_t - Im a_j / r)^2),
    in real arithmetic and in units of r, so that no square overflows; a
    zero on a node gives -inf there, as log|0| would."""
    unit = _unit_circle(samples)[1]
    out, x, y = work
    out.fill(e.sum() * math.log(r))
    for a, m in zip(roots.tolist(), e.tolist()):
        np.subtract(unit.real, a.real / r, out=x)
        np.multiply(x, x, out=x)
        np.subtract(unit.imag, a.imag / r, out=y)
        np.multiply(y, y, out=y)
        x += y
        np.log(x, out=x)
        x *= 0.5 * m
        out += x
    return out


def _on_circle(rho, r):
    return abs(abs(rho) - r) <= _ON_CIRCLE * r


@lru_cache(maxsize=4)
def _unit_circle(samples):
    """Read-only (theta_j, w^j) for j < samples, w = exp(2 pi i/samples)."""
    theta = 2.0 * np.pi * np.arange(samples) / samples
    unit = np.exp(1j * theta)
    theta.flags.writeable = unit.flags.writeable = False
    return theta, unit


class FunctionData:
    """Nevanlinna data of one expression, each piece computed once.

    The canonical form is computed on construction, and refused (ValueError)
    for the zero function and where its constant factor lead/den_lead is not
    finite, as m = T = inf would be no number; everything else on first
    use.  factored is the canonical form with each whole base that _split
    can split taken as its linear bases (_times), so that its roots are
    found once: the zeros, the poles and bases, the table (_Bases) that
    proximity reads, all come from it, and a base D[...] made takes the
    row too.  The node tables are cached per sample count.
    """

    def __init__(self, expr):
        self.expr = expr
        self.canonical = c = canonicalize(expr)
        if c.lead == 0:
            raise ValueError("the zero function has no Nevanlinna data")
        if not (cmath.isfinite(c.lead) and cmath.isfinite(c.den_lead)):
            raise ValueError("the constant factor of the function overflows the double range")

    @cached_property
    def factored(self):
        c = self.canonical
        return _times([c], split=True) if any(b.degree > 1 for b, _ in c.factors) else c

    @cached_property
    def zeros(self):
        return canonical_divisors(self.factored, 1)

    @cached_property
    def poles(self):
        return canonical_divisors(self.factored, -1)

    @cached_property
    def bases(self):
        return _Bases(self.factored)

    def proximity(self, radii, samples):
        """m(r) for each radius: the N-point trapezoid of log+|f|, N = samples.

        Zero and closed-form circles are settled first, for all radii at
        once, from the root bounds of the bases (_settled_circles): m = 0.0
        where |f| < 1 on the circle, Jensen's closed form where |f| > 1 and
        every root lies well inside.  One call of _row_sums takes the
        trapezoid of the rows (_row_terms): the Fourier row of the far roots
        plus the logs of the near ones.  The circles left and those whose
        sum is not finite go through _sampled_circle.
        """
        samples = _require_samples(samples)
        radii = _require_radii(radii)
        bases = self.bases
        out = _settled_circles(bases, radii, samples)
        todo = np.flatnonzero(np.isnan(out))
        if todo.size:
            r = radii[todo]
            terms, near = _row_terms(bases, r)
            row = terms >= 0
            if row.any():
                r, terms, near = r[row], terms[row], near if near is None else near[row]
                logs = [] if near is None else [(i, r[i], bases.roots[near[i]], bases.e[near[i]])
                                                for i in np.flatnonzero(near.any(axis=1))]
                out[todo[row]] = _row_sums(_row_coefficients(bases, r, terms, near),
                                           terms, samples, logs) / samples
            for i in todo[~np.isfinite(out[todo])]:  # left out, so still NaN, or not finite
                out[i] = self._sampled_circle(float(radii[i]), samples)
        return out.tolist()

    def _sampled_circle(self, r, samples):
        """m(r) from Canonical.log_abs at the N nodes of one circle that no
        row takes (a pole on it, a base that _split refuses, deg expo above
        _ROW_TERMS, far roots that fail the bound) or whose row sum is not
        finite.

        With L = sum m log|z - rho| over the poles rho of order m on the
        circle (0 where there are none), log+|f| is h - L, where
        h = max(log|f| + L, L) is smooth at those poles; m(r) is the N-point
        trapezoid of h minus the exact mean of L, sum m log max(r, |rho|).
        The linear bases of those poles leave the factored form that
        log_abs evaluates, so h is finite at a node on a pole.  A pole of a
        whole base keeps its base, and a node within _ON_CIRCLE r of it
        counts as singular.  Samples of h that are NaN or +inf are retried
        half a step over; if the sum is still not finite, QuadratureError is
        raised.
        """
        c = self.canonical
        poles = [(rho, m) for rho, m in self.poles.entries if _on_circle(rho, r)]
        linear = {-b.coefficients[0] for b, e in c.factors if e < 0 and b.degree == 1}
        cut = [(rho, m) for rho, m in poles if rho in linear]
        whole = [(rho, m) for rho, m in poles if rho not in linear]
        if cut:
            c = replace(c, factors=tuple((b, e) for b, e in c.factors if not (
                e < 0 and b.degree == 1 and _on_circle(b.coefficients[0], r))))

        def smooth(theta):
            zs = r * np.exp(1j * theta)
            with np.errstate(divide="ignore"):
                cut_log, whole_log = (sum(m * np.log(np.abs(zs - rho)) for rho, m in part)
                                      for part in (cut, whole))
            h = np.maximum(c.log_abs(zs), cut_log) + whole_log
            for rho, _ in whole:  # a computed root: the logs do not cancel next to it
                h[np.abs(zs - rho) <= _ON_CIRCLE * r] = np.nan
            return h

        theta = _unit_circle(samples)[0]
        vals = smooth(theta)
        with np.errstate(over="ignore"):
            total = vals.sum()
            if not math.isfinite(total):  # NaN or +inf samples: retry them
                bad = ~np.isfinite(vals)
                vals[bad] = smooth(theta[bad] + np.pi / samples)
                total = vals.sum()
        if not math.isfinite(total):
            raise QuadratureError(f"quadrature hit singular samples at r = {r}")
        return float(total) / samples - sum(m * math.log(max(r, abs(rho))) for rho, m in poles)

    def log_mean_at_1(self):
        """J(1, f), the mean of log|f| on |z| = 1, by Jensen's formula:
        log|lead/den_lead| + Re expo(0), plus m log max(|z|, 1) over the
        zeros and minus it over the poles."""
        outside = [sign * m * math.log(max(abs(z), 1.0))
                   for sign, d in ((1, self.zeros), (-1, self.poles)) for z, m in d.entries]
        return float(self.bases.const + self.bases.expo[0].real + sum(outside))

    def characteristic(self, radii, samples):
        ms = self.proximity(radii, samples)
        return [m + n for m, n in zip(ms, counting_series(self.poles, radii))]


def proximity_m(f, r, samples=None):
    """Proximity function m(r, f), a circle average of log+|f|."""
    return FunctionData(f).proximity([r], samples)[0]


def characteristic_T(f, r, samples=None):
    """Nevanlinna characteristic T(r, f) = m(r, f) + N(r, poles of f)."""
    return FunctionData(f).characteristic([r], samples)[0]


def _sharp(w, dw):
    """|dw| / (1 + |w|^2), as |dw/w| / (|w| + 1/|w|) where |w| > 1.

    NaN wherever w, dw or the result is not finite.
    """
    a = np.abs(w)
    d = np.abs(dw)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = np.where(a <= 1.0, d / (1.0 + a * a), (d / a) / (a + 1.0 / a))
    ok = np.isfinite(w) & np.isfinite(dw) & np.isfinite(out)
    return np.where(ok, out, np.nan)


def spherical_derivative(f, z):
    """Spherical derivative |f'| / (1 + |f|^2) at a point or an ndarray of points.

    f is differentiated once per call and f, f' are evaluated over all the
    points with evaluate_on_grid; where |f| > 1 the equal form
    |f'/f| / (|f| + 1/|f|) is used, so |f|^2 never overflows.  Where f or f'
    is not finite (a pole, overflow or 0/0) the same formula is applied to
    1/f and (1/f)', which have the same spherical derivative, on those points
    only: 1/f swaps the numerator and the denominator of f, and a term's
    exponents, so no point of f is lost and none is added.  Array input gives an
    ndarray of the same shape with NaN at points that are still undefined;
    a scalar point gives a float and raises ValueError when it is undefined.
    """
    zs = np.asarray(z, dtype=complex)
    pts = np.atleast_1d(zs)
    out = _sharp(evaluate_on_grid(f, pts),
                 evaluate_on_grid(differentiate(f, 1), pts))
    bad = np.isnan(out)
    if bad.any():
        g = div(Const(1), f)
        out[bad] = _sharp(evaluate_on_grid(g, pts[bad]),
                          evaluate_on_grid(differentiate(g, 1), pts[bad]))
    if zs.ndim:
        return out
    if np.isnan(out[0]):
        raise ValueError(f"spherical derivative undefined at {complex(z)}")
    return float(out[0])


@dataclass(frozen=True)
class NevanlinnaReport:
    """Radial table of (r, m, N, Nbar, T) for one function."""

    function_text: str
    samples: int
    rows: tuple  # of (r, m, N, Nbar, T)

    @property
    def monotone_ok(self):
        """T should be nondecreasing in r up to 1e-6 slack."""
        ts = [row[4] for row in self.rows]
        return all(b >= a - 1e-6 for a, b in zip(ts, ts[1:]))

    def to_csv_text(self):
        lines = ["r,m,N,Nbar,T"]
        for r, m, n, nbar, t in self.rows:
            lines.append(f"{r!r},{m!r},{n!r},{nbar!r},{t!r}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self):
        return {
            "config": {
                "function": self.function_text,
                "samples": self.samples,
                "radii": [row[0] for row in self.rows],
            },
            "columns": ["r", "m", "N", "Nbar", "T"],
            "rows": [list(row) for row in self.rows],
            "monotone_ok": self.monotone_ok,
        }


def radial_report(f, grid=None, samples=None):
    """Tabulate m, N, Nbar, T for f over the radial grid."""
    grid = grid if grid is not None else RadialGrid.geometric()
    samples = _require_samples(samples)
    data = FunctionData(f)
    ms = data.proximity(grid.radii, samples)
    ns = counting_series(data.poles, grid.radii)
    nbars = counting_series(data.poles, grid.radii, truncated=True)
    rows = [(r, m, n, nbar, m + n) for r, m, n, nbar in zip(grid.radii, ms, ns, nbars)]
    return NevanlinnaReport(print_expr(data.expr), samples, tuple(rows))
