"""Dense univariate complex polynomials and a multiplicity-aware root finder.

Root approximations are the eigenvalues of the companion matrix (np.roots),
which are backward stable but spread an m-fold root over a small polygon.
Approximations are clustered, simple roots are Newton-polished, and cluster
multiplicities are confirmed by checking that successive derivatives vanish
at a Newton-refined point.  That confirmation step is what lets a sextuple
root scattered over a ~5e-3 hexagon by rounding collapse back to a single
entry of multiplicity six.
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


class Polynomial:
    """Immutable polynomial with complex coefficients, constant term first.

    Trailing (exactly) zero coefficients are trimmed on construction, so the
    leading coefficient of a nonzero polynomial is nonzero.  The zero
    polynomial is representable and reports is_zero.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients=(0,)):
        coeffs = [complex(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self._coeffs = tuple(coeffs) if coeffs else (0j,)

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
        other = self._coerce(other)
        n = max(len(self._coeffs), len(other._coeffs))
        a = self._coeffs + (0j,) * (n - len(self._coeffs))
        b = other._coeffs + (0j,) * (n - len(other._coeffs))
        return Polynomial([x + y for x, y in zip(a, b)])

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        return self.__add__(self._coerce(other) * -1)

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return Polynomial([c * other for c in self._coeffs])
        out = [0j] * (len(self._coeffs) + len(other._coeffs) - 1)
        for i, a in enumerate(self._coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other._coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        out = Polynomial([1])
        for _ in range(k):
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
        return Polynomial(coeffs)

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
    """Newton iteration on poly from x0; returns refined point or None."""
    d = poly.derivative()
    x = complex(x0)
    for _ in range(steps):
        dv = d(x)
        if dv == 0:
            return None
        step = poly(x) / dv
        x = x - step
        if not (math.isfinite(x.real) and math.isfinite(x.imag)):
            return None
        if abs(step) <= 1e-15 * (1.0 + abs(x)):
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
    for level in _MERGE_LEVELS:
        changed = True
        while changed:
            changed = False
            comps = _components([x for x, _ in groups], level)
            for comp in comps:
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
                    changed = True
                    break
                if changed:
                    break
    return groups


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
    groups = _assemble(p, np.roots(p.coefficients[::-1]).tolist())
    if not _validate(p, groups):
        raise RootFindingError(
            f"roots of a degree-{deg} polynomial fail the residual bound"
        )
    groups.sort(key=lambda g: (g[0].real, g[0].imag))
    return [(x, m) for x, m in groups]
