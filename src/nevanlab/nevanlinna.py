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

- settled circle (_settled_circles): from bounds of log|f| on |z| = r, with
  log|r - |a|| <= log|z - a| <= log(r + |a|) per linear base z - a.  Where
  the upper bound is below -1e-9, |f| < 1 and m(r) = 0.0, which the
  trapezoid sum also gives.  Where the lower bound is above 1e-9, every
  root lies inside r exp(-40/N) and deg expo < N, m(r) is Jensen's circle
  mean log|lead/den_lead| + (sum e) log r + Re expo(0), which the N-point
  trapezoid matches to e^-40/N per root.  A base that _split refuses has no
  such bound, so a function with one settles no circle;
- certified row (_row_sums): where every base is linear, (z - a_j)^e_j,
  log|f(r w^j)| = Re sum_m D_m w^(jm), from Jensen's formula and the power
  sums of the roots (_row_coefficients), cut after M terms with a tail of
  at most 2^-53 per sample (_row_terms).  Where that bound passes with
  every root at some M <= _ROW_TERMS = 128 and deg expo <= 128, a slope
  bound certifies the sign of the row on most intervals between
  K = min(64, N/8) coarse nodes, and only the nodes inside the others are
  sampled;
- sampled circle (FunctionData._sampled_circles): every other circle, at
  all N nodes.  The roots with min(|a|/r, r/|a|) above _NEAR are near
  (every root where the far ones still fail the bound); the row of the far
  roots and the whole expo, its terms past N/2 folded mod N, is read at the
  nodes by one inverse real FFT per _SAMPLED_ROWS = 4 circles
  (_row_samples; expo's terms past _ROW_TERMS join per FFT; its terms
  p_m r^m, in a row or past it, all come from _expo_terms),
  and each circle adds the exact logs of its near roots (_near_logs) and
  of each whole base b of degree d, d log r + log|z^-d b(z)| by the
  reversed coefficients at 1/z.  On a circle through poles rho of order m,
  with L = sum m log|z - rho|, log+|f| = h - L where
  h = max(log|f| + L, L) is smooth at the poles.  Every pole on the circle
  is cut from log|f| + L, a near pole by leaving its log out and a root of
  a whole pole base by dividing it out of the base, and L is taken by the
  poles' own logs, so h is finite even at a node on a pole, and the exact
  mean of L, sum m log max(r, |rho|), is subtracted.  Each m(r) is the
  N-point trapezoid at its own nodes; a sum that is not finite (Re expo
  overflowing) raises QuadratureError.

T = m + N by construction.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .expressions import (
    _csv_text,
    _deflated,
    _roots,
    canonical_divisors,
    canonicalize,
    print_expr,
    spherical_derivative,  # its public path, nevanlab.nevanlinna.spherical_derivative
    _times,
)
from .polynomials import Polynomial, QuadratureError
DEFAULT_SAMPLES = 4096
DEFAULT_RMIN, DEFAULT_RMAX, DEFAULT_STEPS = 2.0, 128.0, 64
_MIN_SAMPLES = 64
_ON_CIRCLE = 1e-8  # a pole within this relative distance of |z| = r lies on the circle
_SETTLE_MARGIN = 1e-9  # log|f| must clear 0 by this much to settle a circle unsampled
_ALIAS_EXPONENT = 40.0  # closed form only with every root inside r exp(-40/N)
_INFLATE = 1.0 + 1e-12  # rounded tails and bounds are raised by this factor
_UNIT_ROUNDOFF = 2.0 ** -53
_ROW_TERMS = 128  # most Fourier terms of log|f| in a circle's row (_row_terms)
_ROW_TAIL = 2.0 ** -53  # bound on the error per sample of a row cut after its terms
_NEAR = 0.7  # a root past this ratio to r leaves a failing row for its own logs
_ROW_NODES = 64  # coarse nodes of a row circle, at most (_row_tables)
_SAMPLED_ROWS = 4  # sampled circles per inverse FFT (FunctionData._sampled_circles)
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


def counting_N(divisor, r):
    """Integrated counting function of the divisor at radius r > 1."""
    return counting_series(divisor, (r,))[0]


def counting_series(divisor, radii):
    """counting_N(divisor, r) for every r in radii > 1, as a list: the sum
    over entries z with |z| <= r of m (log r - log max(|z|, 1)); the
    truncated count Nbar is that of divisor.truncated().

    One (entries x radii) table of terms, the logs taken by math.log, summed
    over the entries in entry order.
    """
    radii = _require_radii(radii)
    if not divisor.entries:
        return [0.0] * len(radii)
    az = np.array([abs(z) for z, _ in divisor.entries])
    w = np.array([m for _, m in divisor.entries], float)
    log_r = np.array(list(map(math.log, radii.tolist())))
    log_a = np.array([math.log(max(a, 1.0)) for a in az.tolist()])
    terms = np.where(az[:, None] <= radii, w[:, None] * (log_r - log_a[:, None]), 0.0)
    return np.cumsum(terms, axis=0)[-1].tolist()  # sum() pairs the entries at one radius


class _Bases:
    """The bases b^e of a canonical form c, read once per FunctionData for
    every stage of proximity.  The linear bases (z - a)^e give roots a,
    moduli |a|, exponents e and orders |e|, sorted by modulus (stable); whole
    holds the pairs (b, e) of the bases that _split refused; reach is the
    largest |a| raised by _INFLATE.
    const = log|lead| - log|den_lead|, scale = |log|lead|| + |log|den_lead||,
    slope = sum e, mass = sum |e| and expo is expo's coefficients."""

    def __init__(self, c):
        lines = [(-b.coefficients[0], e) for b, e in c.factors if b.degree == 1]
        self.whole = [(b, e) for b, e in c.factors if b.degree > 1]
        roots = np.array([a for a, _ in lines], dtype=complex)
        moduli = np.abs(roots)
        order = np.argsort(moduli, kind="stable")
        self.roots, self.moduli = roots[order], moduli[order]
        self.e = np.array([e for _, e in lines], dtype=float)[order]
        self.orders = np.abs(self.e)
        self.reach = float(self.moduli[-1]) * _INFLATE if lines else 0.0
        logs = math.log(abs(c.lead)), math.log(abs(c.den_lead))
        self.const, self.scale = logs[0] - logs[1], abs(logs[0]) + abs(logs[1])
        weights = self.e.tolist()
        self.slope, self.mass = sum(weights), sum(map(abs, weights))
        self.expo = np.array(c.expo.coefficients)
        self.spread = np.abs(self.expo[:0:-1]).tolist()  # |p_k|, k = deg expo .. 1
        # the rows of shifts + r hold r + |a| and r - |a| per base; of their logs the
        # lower bound takes a pole's top and a zero's gap, the upper one the rest
        n = len(weights)
        self.shifts = np.concatenate([self.moduli, -self.moduli])[:, None]
        self.pick = np.array([j + n * (w > 0) for j, w in enumerate(weights)]
                             + [j + n * (w < 0) for j, w in enumerate(weights)], dtype=int)

    def log_bounds(self, r):
        """(lower, upper) bounds of log|f| on |z| = r, per radius of the
        ndarray r, in one (radii x bases) pass, from the linear bases only.

        A linear base z - a has log|r - |a|| <= log|z - a| <= log(r + |a|)
        on |z| = r, on either side of the circle.  log|f| lies between
        const + Re p_0 -+ spread, p = expo and spread = sum_(k>=1) |p_k| r^k
        (by Horner, raised by _INFLATE), plus the sum of e times each base's
        lower bound where e > 0 and its upper bound where e < 0 (lower), and
        the other way round (upper).

        Rounding, u = 2^-53, to the last bit of the samples: |a| is rounded
        by an ulp, 2u |a|, r -+ |a| by u, and a node r w^j has modulus within
        3u r of r.  So a root's distance from the circle, and from a node as
        computed, is at least the gap |r - |a|| - 2^-50 (r + |a|), the
        argument of the lower log, whose rounding raises it by u at most; from
        a node it is at most (r + |a|)(1 + 6u).  Each log errs by u + 4u |log|
        (two ulps), its product with e by one rounding more, const by 2u scale
        and the sum of n terms and constants by gamma_(n+3) of their moduli.
        Both bounds move out by 4 (n + 4) u (1 + scale + |Re p_0| + spread
        + sum |e| (1 + |log|)) over the logs each takes, which covers these
        and a sample's own rounding from the bases (Canonical.log_abs: a
        complex log per linear base).  A gap of 0 or less gives -inf and an
        overflow inf or NaN, which settle nothing."""
        size, count = len(r), len(self.roots)
        with np.errstate(all="ignore"):
            spread = np.zeros(size)
            for x in self.spread:
                spread = (spread + x) * r
            spread *= _INFLATE
            logs = self.shifts + r
            top, gap = logs[:count], logs[count:]
            np.abs(gap, out=gap)
            gap -= 2.0 ** -50 * top
            np.maximum(gap, 0.0, out=gap)
            np.log(logs, out=logs)
            logs = logs[self.pick].reshape(2, count, size)  # the lower and the upper logs
            sums, slack = (logs * self.e[:, None]).sum(1), (np.abs(logs) * self.orders[:, None]).sum(1)
            base = self.expo[0].real
            slack += 1.0 + self.scale + abs(base) + self.mass + spread
            slack = slack * (4.0 * (count + 4) * _UNIT_ROUNDOFF) + spread
            return self.const + base + sums[0] - slack[0], self.const + base + sums[1] + slack[1]


def _settled_circles(bases, radii, samples):
    """m(r) for each radius whose circle needs no samples; NaN for the rest.

    Zero circles (log|f| < -_SETTLE_MARGIN on the whole circle) give 0.0;
    closed-form circles (log|f| > _SETTLE_MARGIN, every root of every base
    inside r exp(-_ALIAS_EXPONENT/N), deg expo < N) give Jensen's value
    const + slope log r + Re expo(0), the N-point mean for the factored f
    to e^-40/N per root.  The bounds come from the moduli of the linear bases
    (_Bases.log_bounds), and a function with a whole base settles nothing.
    """
    r = np.asarray(radii, dtype=float)
    out = np.full(len(r), np.nan)
    if bases.whole:
        return out
    lower, upper = bases.log_bounds(r)
    if len(bases.expo) <= samples:
        closed = (lower > _SETTLE_MARGIN) & (bases.reach <= r * math.exp(-_ALIAS_EXPONENT / samples))
        out[closed] = (bases.const + bases.slope * np.log(r) + bases.expo[0].real)[closed]
    out[upper < -_SETTLE_MARGIN] = 0.0
    return out


def _row_terms(bases, r):
    """(terms, near, row) per radius of the ndarray r: the number M of
    Fourier terms of log|f| in the circle's row, the least
    M >= min(deg expo, _ROW_TERMS) whose truncation bound sum_j |e_j| x_j^(M+1) / ((M+1)(1 - x_j)),
    x_j = min(|a_j| / r, r / |a_j|), is at most _ROW_TAIL (_least_terms).
    Where no M <= _ROW_TERMS is, the roots with x_j above _NEAR are near
    (near[i, j]) and leave the bound to the others, or every root where
    still no M is.  row says that the certified row takes the circle: no
    root is near, no base is whole and deg expo <= _ROW_TERMS; a sampled
    circle reads the terms of expo past M apart (_expo_terms)."""
    degree = min(len(bases.expo) - 1, _ROW_TERMS)
    with np.errstate(divide="ignore", over="ignore"):
        ratio = bases.moduli / r[:, None]
        ratio = np.minimum(ratio, 1.0 / ratio)  # 1 for a root on the circle
    least, ok = _least_terms(ratio, bases.orders)
    terms, near = np.maximum(least, degree), np.zeros(ratio.shape, dtype=bool)
    again = np.flatnonzero(~ok)
    if again.size:
        close = ratio[again] > _NEAR
        least, ok = _least_terms(np.where(close, 0.0, ratio[again]), bases.orders)
        close[~ok], least[~ok] = True, 0
        terms[again], near[again] = np.maximum(least, degree), close
    row = ~near.any(axis=1) & (len(bases.expo) <= _ROW_TERMS + 1) & (not bases.whole)
    return terms, near, row


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
    the radius's own terms, from the linear bases (z - a_j)^e_j of a table
    (_Bases), sorted by |a_j|, less the near roots (near, from _row_terms):
    log|f(r w^j)| = Re sum_m D_m w^(jm) + the near logs + the whole bases'
    logs + the terms of expo past max(terms) (_expo_terms), up to the
    truncation that _row_terms bounds, with the sums over
    far roots
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
    d[:, :min(len(p), top + 1)] = _expo_terms(p[:top + 1], r, 0)  # the terms past top are read apart
    d[:, 0] = bases.const + p[0].real
    span = len(roots) + 1  # split (k, l) as k * span + l
    split = np.searchsorted(moduli, r) * (span + 1)
    some = np.flatnonzero(near.any(axis=1))
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


def _expo_terms(p, r, start):
    """p_m r^m for the coefficients p_m, m = start .. start + len(p) - 1, one
    row per radius of the ndarray r > 1: the terms of expo in a circle's row
    (_row_coefficients) and past it (FunctionData._sampled_circles).  p_m
    takes r^(m/2) twice, so that a term overflows, to inf or NaN, only where
    p_m r^m does or r^(m/2) alone does (|p_m| < 2^-1022): 300^128
    overflows, 1e-300 * 300^128 is 1e17."""
    m = np.arange(start, start + len(p))
    x = r[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        return p * x ** (m // 2) * x ** (m - m // 2)


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


def _row_sums(d, terms, samples):
    """sum_j max(g_j, 0) over the N nodes, per row of coefficients d
    (_row_coefficients) with its number of terms M, every root far:
    g_j = D_0 + Re sum_(0<m<=M) D_m w^(jm), from 2K values and the nodes
    next to the sign changes.

    On the K = N/s coarse nodes ks and the K intervals between them, real
    products of the rows D_m and q_m D_m against the coarse table
    (_row_tables) give g_k = g(ks) = D_0 + Re sum_m D_m W^(km) and the
    interval sums h_k = sum_(0<t<s) g(ks + t) = (s - 1) D_0 + Re sum_m q_m D_m W^(km).
    The slope of g in theta is at most B = sum_m m |D_m|, so on an interval,
    of length H = 2 pi s / N, g lies within (g_k + g_(k+1) -+ B H) / 2
    (g_K = g_0).  Where that keeps g off 0 by more than the rounding of g_k,
    the interval's inside adds h_k if g is positive and nothing if negative.
    That rounding is at most eps = 8 (M + 8) u sum_m |D_m|, u = 2^-53:
    gamma_(2M) for the product of 2M terms and about 20 u per entry of the
    table (2 pi j / N and its cosine and sine rounded), each on at most
    sqrt(2) sum |D_m|, and u for adding D_0.  The s - 1 nodes inside every
    other interval are sampled: their rows D_m W^(km) go in a real product
    against the inner table.  m(r) is the N-point trapezoid to rounding.

    The radii go by their number of terms, one product per class of terms
    (_row_classes), each as wide as the class's largest, and each radius's
    sum depends on its own row alone: the columns past its own terms are 0,
    each product has two rows at least (one row goes to gemv, which rounds
    unlike the rows of a gemm), and its sums run over its own row."""
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
        sums = np.where(sure & (pair > 0.0), h, 0.0)
        at, k = np.nonzero(~sure)
        unit, spin = _unit_circle(samples)[1], stride * np.arange(1, classes[-1][2] + 1)
        for (a, b, w, rows), (p, n) in zip(classes, np.searchsorted(at, [c[:2] for c in classes])):
            if n > p:
                turned = np.zeros((max(n - p, 2), w), dtype=complex)
                np.multiply(rows[at[p:n] - a, 0], unit[k[p:n, None] * spin[:w] & (samples - 1)],
                            out=turned[:n - p])
                x = (turned.view(float) @ inner[:2 * w])[:n - p, 1:]
                x += base[at[p:n], None]
                sums[at[p:n], k[p:n]] = np.maximum(x, 0.0, out=x).sum(1)
        sums += np.maximum(g, 0.0)
    out = np.empty(size)
    out[order] = sums.sum(1)
    return out


def _row_samples(d, samples):
    """Re sum_m D_m w^(jm) at the N nodes j, per row of coefficients d
    (_row_coefficients), from one inverse real FFT of all rows.  The term m
    joins the bin m mod N, whose w^(jm) it is, and a bin b past N/2 joins
    N - b conjugated, as Re D w^(jb) = Re conj(D) w^(j(N-b)); the bins
    strictly between 0 and N/2 that a term reaches are halved, as irfft
    adds their conjugates.  Each row's samples depend on its own row alone."""
    half = samples // 2
    spectrum = np.zeros((len(d), half + 1), dtype=complex)
    for start in range(0, d.shape[1], samples):
        block = d[:, start:start + samples]
        low, high = block[:, :half + 1], block[:, half + 1:]
        spectrum[:, :low.shape[1]] += low
        spectrum[:, half - high.shape[1]:half] += np.conj(high[:, ::-1])
    spectrum[:, 1:min(half, d.shape[1])] *= 0.5
    return np.fft.irfft(spectrum, samples, norm="forward")


def _near_logs(r, roots, e, samples, work):
    """sum_j e_j log|r w^t - a_j| at the N nodes t of the circle r, into the
    first of the three rows of work, (3, N), in real arithmetic.  r and each
    root a_j are scaled by the power of two 2^-k_j, max(r, |a_j|) = x 2^k_j
    with 1/2 <= x < 1 (frexp), which is exact but for bits far below the
    larger of the two, so no quotient a_j / r rounds and no square
    overflows, however far the root: (sum_j e_j k_j) log 2 plus each
    (e_j / 2) log((r 2^-k_j cos theta_t - Re a_j 2^-k_j)^2
    + (r 2^-k_j sin theta_t - Im a_j 2^-k_j)^2).
    A zero on a node gives -inf there, as log|0| would."""
    unit = _unit_circle(samples)[1]
    out, x, y = work
    shifts = [math.frexp(max(r, abs(a)))[1] for a in roots.tolist()]
    out.fill(sum(m * k for m, k in zip(e.tolist(), shifts)) * math.log(2.0))
    for a, m, k in zip(roots.tolist(), e.tolist(), shifts):
        for row, part, c in ((x, unit.real, a.real), (y, unit.imag, a.imag)):
            np.multiply(part, math.ldexp(r, -k), out=row)
            row -= math.ldexp(c, -k)
            np.multiply(row, row, out=row)
        x += y
        np.log(x, out=x)
        x *= 0.5 * m
        out += x
    return out


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
    proximity reads, all come from it, so a base that D[...] made settles
    circles and takes the certified row as linear bases.  The node tables
    are cached per sample count.
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
        once, from the moduli of the linear bases (_settled_circles): m = 0.0
        where |f| < 1 on the circle, Jensen's closed form where |f| > 1 and
        every root lies well inside.  One call of _row_coefficients gives the
        Fourier rows of the circles left (_row_terms), one call of _row_sums
        takes the trapezoid of the certified rows, and the rest, with those
        whose row sum is not finite, are sampled (_sampled_circles).
        """
        samples = _require_samples(samples)
        radii = _require_radii(radii)
        bases = self.bases
        out = _settled_circles(bases, radii, samples)
        todo = np.flatnonzero(np.isnan(out))
        if todo.size:
            r = radii[todo]
            terms, near, row = _row_terms(bases, r)
            d = _row_coefficients(bases, r, terms, near)
            if row.any():
                out[todo[row]] = _row_sums(d[row], terms[row], samples) / samples
            left = ~np.isfinite(out[todo])  # not taken, so still NaN, or not finite
            if left.any():
                out[todo[left]] = self._sampled_circles(r[left], d[left], near[left], samples)
        return out.tolist()

    def _sampled_circles(self, radii, d, near, samples):
        """m(r) from the samples of log|f| at the N nodes of each circle that
        the certified row leaves (near roots, a whole base, deg expo above
        _ROW_TERMS) or whose row sum is not finite, given its row of
        coefficients d (_row_coefficients) and its near roots.

        One inverse real FFT per _SAMPLED_ROWS circles reads the far roots'
        row and the whole expo at their nodes (_row_samples), so that a call
        holds the samples of a few circles at a time however many it has;
        each circle then adds the exact logs of its near roots (_near_logs)
        and of each whole base (by Horner in 1/z).  With L = sum m log|z - rho|
        over the poles rho of order m within _ON_CIRCLE r of the circle (0
        where there are none), log+|f| is h - L, where h = max(log|f| + L, L)
        is smooth at those poles; m(r) is the N-point trapezoid of h minus
        the exact mean of L, sum m log max(r, |rho|).  Each such pole is cut
        from log|f| + L and gives L by its own logs, so h is finite at a node
        on a pole: a near pole is left out, and a root rho of a whole base
        b^k, k < 0, of multiplicity j (the roots N(r) counts, found once per
        base, _roots) is divided out of b j times by synthetic division, the
        remainder dropped, as a pole of order -k j.  A sum that is still not
        finite raises QuadratureError.
        """
        bases = self.bases
        unit = _unit_circle(samples)[1]
        on = near & (bases.e < 0) & (np.abs(bases.moduli - radii[:, None]) <= _ON_CIRCLE * radii[:, None])
        out = []
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for start in range(0, len(radii), _SAMPLED_ROWS):
                chunk = slice(start, start + _SAMPLED_ROWS)
                past = _expo_terms(bases.expo[d.shape[1]:], radii[chunk], d.shape[1])
                rows = _row_samples(np.concatenate([d[chunk], past], axis=1), samples)
                work = np.empty((3, samples))  # after the FFT, whose spectra are gone by now
                for r, h, close, through in zip(radii[chunk].tolist(), rows, near[chunk] & ~on[chunk], on[chunk]):
                    if close.any():
                        h += _near_logs(r, bases.roots[close], bases.e[close], samples, work)
                    cut = list(zip(bases.roots[through].tolist(), (-bases.e[through]).tolist()))
                    for b, k in bases.whole:
                        q = b  # b with its roots on the circle divided out, where k < 0
                        for rho, j in _roots(b) if k < 0 else ():
                            if abs(abs(rho) - r) <= _ON_CIRCLE * r:
                                cut.append((rho, -k * j))
                                for _ in range(j):
                                    q = _deflated(q, rho)
                        rev = Polynomial(q.coefficients[::-1])  # Horner in 1/z, as |1/z| = 1/r < 1
                        h += k * (q.degree * math.log(r) + np.log(np.abs(rev(1.0 / (r * unit)))))
                    if cut:
                        poles, orders = zip(*cut)
                        np.maximum(h, _near_logs(r, np.array(poles), np.array(orders), samples, work), out=h)
                    else:
                        np.maximum(h, 0.0, out=h)
                    total = h.sum()
                    if not math.isfinite(total):
                        raise QuadratureError(f"quadrature hit singular samples at r = {r}")
                    out.append(float(total) / samples - sum(m * math.log(max(r, abs(rho))) for rho, m in cut))
                del rows, h, work  # before the next chunk's FFT
        return out

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
        return _csv_text("r,m,N,Nbar,T", self.rows)

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
    nbars = counting_series(data.poles.truncated(), grid.radii)
    rows = [(r, m, n, nbar, m + n) for r, m, n, nbar in zip(grid.radii, ms, ns, nbars)]
    return NevanlinnaReport(print_expr(data.expr), samples, tuple(rows))
