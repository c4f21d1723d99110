"""Dense univariate complex polynomials and a multiplicity-aware root finder.

Root approximations are the eigenvalues of the companion matrix (as
np.roots computes them, without its per-call overhead), which are backward
stable but spread an m-fold root over a small polygon; zero constant terms
are stripped first and give exact zero roots.  Approximations are
clustered, simple roots are Newton-polished, and cluster multiplicities are
confirmed by checking that successive derivatives vanish at a
Newton-refined point.  That confirmation step is what lets a sextuple root
scattered over a ~5e-3 hexagon by rounding collapse back to a single entry
of multiplicity six.  Newton stops at the first correction no smaller than
the one before once |p(x)| is within Horner's rounding error bound, where
p(x) has reached its rounding floor, and a level of the merge ladder runs
only when the smallest gap between groups is within it.
"""
from __future__ import annotations

import math

import numpy as np

CLUSTER_RADIUS = 1e-6
RESIDUAL_SCALE = 1e-8
_VANISH_SCALE = 1e-10
_MERGE_LEVELS = (2e-6, 1e-5, 1e-4, 1e-3, 4e-3, 1.6e-2)


class RootFindingError(RuntimeError):
    """The root approximations could not be assembled within the residual bound."""


class QuadratureError(RuntimeError):
    """The samples of log+|f| on a circle do not sum to a finite mean."""


def _trim(coeffs):
    """Coefficient tuple of a list of complex numbers, trailing zeros removed."""
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs) if coeffs else (0j,)


class Polynomial:
    """Immutable polynomial with complex coefficients, constant term first.

    Trailing (exactly) zero coefficients are trimmed on construction, so the
    leading coefficient of a nonzero polynomial is nonzero.  The zero
    polynomial is representable and reports is_zero.  _roots holds the
    poly_roots of a base, once expressions has found them.
    """

    __slots__ = ("_coeffs", "_roots")

    def __init__(self, coefficients=(0,)):
        self._coeffs = _trim([complex(c) for c in coefficients])

    @classmethod
    def _of(cls, coeffs):
        """Polynomial from a list of complex coefficients, only trimmed: the
        arithmetic results skip the complex() pass of the public constructor."""
        p = object.__new__(cls)
        p._coeffs = _trim(coeffs)
        return p

    @classmethod
    def from_roots(cls, roots, leading=1):
        p = cls([leading])
        for r in roots:
            p = p * cls([-complex(r), 1])
        return p

    @property
    def coefficients(self):
        return self._coeffs

    @property
    def degree(self):
        return len(self._coeffs) - 1

    @property
    def is_zero(self):
        return len(self._coeffs) == 1 and self._coeffs[0] == 0

    @property
    def leading(self):
        return self._coeffs[-1]

    def __call__(self, z):
        # Horner; 0j*z promotes to ndarray when z is one.
        acc = 0j * z + self._coeffs[-1]
        for c in reversed(self._coeffs[:-1]):
            acc = acc * z + c
        return acc

    @staticmethod
    def _coerce(x):
        if isinstance(x, Polynomial):
            return x
        if isinstance(x, (int, float, complex)):
            return Polynomial([x])
        raise TypeError(f"cannot combine Polynomial with {type(x).__name__}")

    def __add__(self, other):
        a, b = self._coeffs, self._coerce(other)._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial._of(out)

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        return self.__add__(self._coerce(other) * -1)

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            other = complex(other)
            return Polynomial._of([c * other for c in self._coeffs])
        if other._coeffs == (1,) or self._coeffs == (1,):  # a factor 1 changes nothing
            return self if other._coeffs == (1,) else other
        out = [0j] * (len(self._coeffs) + len(other._coeffs) - 1)
        for i, a in enumerate(self._coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other._coeffs):
                out[i + j] += a * b
        return Polynomial._of(out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        if k == 0:
            return Polynomial([1])
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

    def __neg__(self):
        return self * -1

    def derivative(self, order=1):
        if order < 0:
            raise ValueError("derivative order must be nonnegative")
        coeffs = list(self._coeffs)
        for _ in range(order):
            coeffs = [k * c for k, c in enumerate(coeffs)][1:]
            if not coeffs:
                return Polynomial([0])
        return Polynomial._of(coeffs)

    def compose_affine(self, a, b):
        """Return p(a*z + b) as a Polynomial."""
        aff = Polynomial([b, a])
        acc = Polynomial([self._coeffs[-1]])
        for c in reversed(self._coeffs[:-1]):
            acc = acc * aff + Polynomial([c])
        return acc

    def abs_coeff_value(self, x):
        """Sum |c_k| x^k, the natural magnitude scale of p near |z| = x."""
        acc = 0.0
        for c in reversed(self._coeffs):
            acc = acc * x + abs(c)
        return acc

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(self._coeffs)

    def __repr__(self):
        return f"Polynomial({list(self._coeffs)!r})"


def _newton(poly, x0, steps=80):
    """Newton iteration on poly from x0; returns refined point or None.

    Besides a step below 1e-15 (1 + |x|), the iteration stops, returning the
    current x untaken, at the first step no smaller than the one before if
    |p(x)| is also within the rounding error bound of Horner's rule,
    4 (d + 1) 2^-53 sum |c_k| |x|^k: p(x) is then rounding noise and further
    steps only wander within it (the attainable-accuracy stop of MPSolve).
    """
    d = poly.derivative()
    floor = 4 * (poly.degree + 1) * 2.0 ** -53
    x = complex(x0)
    last = math.inf
    for _ in range(steps):
        dv = d(x)
        if dv == 0:
            return None
        px = poly(x)
        step = px / dv
        size = abs(step)
        if size >= last and abs(px) <= floor * poly.abs_coeff_value(abs(x)):
            return x
        last = size
        x = x - step
        if not (math.isfinite(x.real) and math.isfinite(x.imag)):
            return None
        if size <= 1e-15 * (1.0 + abs(x)):
            return x
        if abs(x - x0) > 1.0 + abs(x0):
            return None
    return x


def _confirm_multiplicity(p, x0, m):
    """Refine x0 as an m-fold root and cross-check by derivative vanishing.

    An m-fold root of p is a simple root of p^(m-1); Newton there recovers it
    to machine precision even when the raw approximations are smeared.  The
    vanishing checks are scaled by the absolute-coefficient magnitude of each
    derivative, so they distinguish genuine multiplicity from a pair of
    distinct roots that merely sit close together.
    """
    x = _newton(p.derivative(m - 1), x0) if m > 1 else _newton(p, x0)
    if x is None:
        return None
    for j in range(m):
        dj = p.derivative(j)
        scale = dj.abs_coeff_value(abs(x)) + 1e-300
        if abs(dj(x)) > _VANISH_SCALE * scale:
            return None
    dm = p.derivative(m)
    scale = dm.abs_coeff_value(abs(x)) + 1e-300
    if abs(dm(x)) <= _VANISH_SCALE * scale:
        return None
    return x


def _assemble(p, raw):
    """Group raw root approximations into [root, multiplicity] pairs.

    Clusters within CLUSTER_RADIUS are polished (a singleton) or confirmed
    as one multiple root; then the _MERGE_LEVELS ladder merges groups whose
    multiplicity _confirm_multiplicity confirms.  A level runs only when the
    smallest gap between groups is at most the level, since otherwise it has
    no component of two or more; the gap is recomputed after each merge.
    """
    deg = p.degree
    groups = []
    for comp in _components(raw, CLUSTER_RADIUS):
        m = len(comp)
        center = sum(raw[i] for i in comp) / m
        if m == 1:
            x = _newton(p, center, steps=12)
            if x is not None and abs(p(x)) <= abs(p(center)):
                center = x
            groups.append([center, 1])
        else:
            refined = _confirm_multiplicity(p, center, m)
            # confirmation can fail for genuinely distinct roots separated by
            # less than the cluster radius; the cluster count then stands
            groups.append([refined if refined is not None else center, m])
    gap = _min_gap(groups)
    for level in _MERGE_LEVELS:
        while gap <= level and _merge_once(p, groups, level):
            gap = _min_gap(groups)
    return groups


def _min_gap(groups):
    """Smallest distance between two group centers (inf for fewer than two)."""
    xs = [x for x, _ in groups]
    return min((abs(a - b) for i, a in enumerate(xs) for b in xs[i + 1:]),
               default=math.inf)


def _merge_once(p, groups, level):
    """Merge, in place, the first confirmed candidate of a component of groups
    at distance <= level; returns whether a merge happened."""
    deg = p.degree
    for comp in _components([x for x, _ in groups], level):
        if len(comp) < 2:
            continue
        # try the whole component first: at an m-fold root every
        # intermediate derivative vanishes too, so partial merges
        # cannot be confirmed and the full count must be attempted
        candidates = [comp] + [
            [i, j] for a, i in enumerate(comp) for j in comp[a + 1:]
        ]
        for idxs in candidates:
            m = sum(groups[i][1] for i in idxs)
            if m > deg:
                continue
            guess = sum(groups[i][0] * groups[i][1] for i in idxs) / m
            refined = _confirm_multiplicity(p, guess, m)
            if refined is None or abs(refined - guess) > 6 * level:
                continue
            keep = min(idxs)
            groups[keep] = [refined, m]
            for i in sorted(idxs, reverse=True):
                if i != keep:
                    del groups[i]
            return True
    return False


def _components(points, radius):
    """Connected components (sorted index lists) of points under distance <= radius."""
    n = len(points)
    seen = set()
    comps = []
    for s in range(n):
        if s in seen:
            continue
        comp = [s]
        seen.add(s)
        frontier = [s]
        while frontier:
            i = frontier.pop()
            for j in range(n):
                if j not in seen and abs(points[i] - points[j]) <= radius:
                    seen.add(j)
                    comp.append(j)
                    frontier.append(j)
        comps.append(sorted(comp))
    return comps


def _validate(p, groups):
    deg = p.degree
    maxc = max(abs(c) for c in p.coefficients)
    if sum(m for _, m in groups) != deg:
        return False
    for x, _ in groups:
        try:
            bound = RESIDUAL_SCALE * (1.0 + maxc) * (1.0 + abs(x)) ** deg
        except OverflowError:
            return False  # (1 + |x|)^deg overflows: the residual cannot be judged
        if abs(p(x)) > bound:
            return False
    return True


def _companion_roots(coeffs):
    """np.roots of the coefficients (constant first, leading one nonzero)
    without its per-call overhead: the eigenvalues of the companion matrix of
    the polynomial with its zero constant terms stripped, then one exact 0
    per stripped term, in np.roots' order and bit for bit."""
    zeros = 0
    while coeffs[zeros] == 0:
        zeros += 1
    q = np.array(coeffs[zeros:][::-1])
    roots = []
    if len(q) > 1:
        a = np.diag(np.ones(len(q) - 2, dtype=complex), -1)
        with np.errstate(over="ignore", invalid="ignore"):
            a[0, :] = -q[1:] / q[0]
        if not np.isfinite(a[0]).all():
            raise RootFindingError("the companion matrix overflows: the coefficients "
                                   "span more than the double range")
        roots = np.linalg.eigvals(a)
        if not np.isfinite(roots).all():  # abs() of a NaN complex can raise OverflowError
            raise RootFindingError("the companion matrix has eigenvalues that are not finite")
        roots = roots.tolist()
    return roots + [0j] * zeros


def poly_roots(p):
    """All roots of p with multiplicities, as a list of (root, multiplicity).

    Degree 0 gives an empty list; the zero polynomial is rejected.  Every
    returned root satisfies |p(root)| <= 1e-8 (1 + max|c|) (1 + |root|)^deg;
    when that cannot be met or checked, RootFindingError is raised.
    """
    if not isinstance(p, Polynomial):
        p = Polynomial(p)
    if p.is_zero:
        raise ValueError("the zero polynomial has no root multiset")
    deg = p.degree
    if deg == 0:
        return []
    if deg == 1:
        return [(-p.coefficients[0] / p.coefficients[1], 1)]
    groups = _assemble(p, _companion_roots(p.coefficients))
    if not _validate(p, groups):
        raise RootFindingError(
            f"roots of a degree-{deg} polynomial fail the residual bound"
        )
    groups.sort(key=lambda g: (g[0].real, g[0].imag))
    return [(x, m) for x, m in groups]
