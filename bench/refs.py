"""Independent references for the benchmark's correctness checks.

Everything here works from the generator's known factorisation of each
input function, with numpy only.  Nothing imports nevanlab, so a defect in
the library cannot leak into the reference it is checked against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

REL_TOL = 1e-7
ROOT_TOL = 1e-5


def cnum(w):
    """A complex number in the expression grammar, e.g. (0.5-0.25i)."""
    w = complex(w)
    if w.imag == 0:
        return f"({w.real!r})"
    sign = "-" if w.imag < 0 else "+"
    return f"({w.real!r}{sign}{abs(w.imag)!r}i)"


def dyadic(rng, lo, hi, den=64):
    """Uniform draw on the grid k/den; such values print and parse exactly."""
    return rng.randint(int(lo * den), int(hi * den)) / den


def dyadic_point(rng, radius, avoid=(), gap=0.25, den=64):
    """A grid point in the disc |w| <= radius at least gap from every avoid."""
    while True:
        w = complex(dyadic(rng, -radius, radius, den),
                    dyadic(rng, -radius, radius, den))
        if abs(w) <= radius and all(abs(w - a) >= gap for a in avoid):
            return w


@dataclass(frozen=True)
class Factored:
    """c * prod (z - a)^m / prod (z - b)^n * exp(p(z)), p low order first."""

    coeff: complex
    zeros: tuple  # ((a, m), ...)
    poles: tuple  # ((b, n), ...)
    expo: tuple = ()

    def text(self):
        num = [cnum(self.coeff)]
        num += [f"(z-{cnum(a)})^{m}" for a, m in self.zeros]
        out = "*".join(num)
        if self.poles:
            den = "*".join(f"(z-{cnum(b)})^{n}" for b, n in self.poles)
            out = f"{out}/({den})"
        if any(self.expo):
            terms = "+".join(f"{cnum(c)}*z^{k}"
                             for k, c in enumerate(self.expo) if c and k)
            if self.expo[0]:
                terms = f"{cnum(self.expo[0])}+{terms}"
            out = f"{out}*exp({terms})"
        return out

    @property
    def zero_degree(self):
        return sum(m for _, m in self.zeros)

    @property
    def pole_degree(self):
        return sum(n for _, n in self.poles)

    @property
    def expo_degree(self):
        nz = [k for k, c in enumerate(self.expo) if c]
        return max(nz) if nz else 0

    def numerator(self):
        """Coefficients (low first) of c * prod (z - a)^m."""
        roots = [a for a, m in self.zeros for _ in range(m)]
        return self.coeff * (P.polyfromroots(roots) if roots else np.ones(1, complex))

    def denominator(self):
        roots = [b for b, n in self.poles for _ in range(n)]
        return P.polyfromroots(roots) if roots else np.ones(1, complex)

    def rational(self, zs):
        """The rational part, as a product of its factors (no expansion)."""
        w = np.full(zs.shape, complex(self.coeff))
        for a, m in self.zeros:
            d = zs - a
            for _ in range(m):
                w *= d
        for b, n in self.poles:
            d = zs - b
            for _ in range(n):
                w /= d
        return w

    def _expo(self, zs):
        return P.polyval(zs, np.asarray(self.expo, dtype=complex))

    def __call__(self, zs):
        w = self.rational(zs)
        return w * np.exp(self._expo(zs)) if self.expo else w

    def log_abs(self, zs):
        out = np.log(np.abs(self.rational(zs)))
        if self.expo:
            out += np.real(self._expo(zs))
        return out

    def derivative(self, zs):
        """f' by the product rule over the factors; exact at a zero of f."""
        factors = [(zs - a, m) for a, m in self.zeros] + [(zs - b, -n) for b, n in self.poles]
        rest = np.full(zs.shape, complex(self.coeff))
        for d, m in factors:
            rest = rest * d ** m
        total = np.zeros(zs.shape, dtype=complex)
        for i, (d, m) in enumerate(factors):
            term = np.full(zs.shape, complex(self.coeff * m)) * d ** (m - 1)
            for j, (e, k) in enumerate(factors):
                if j != i:
                    term = term * e ** k
            total += term
        if len(self.expo) > 1:
            dp = P.polyder(np.asarray(self.expo, dtype=complex))
            total += P.polyval(zs, dp) * rest
        return total * np.exp(self._expo(zs)) if self.expo else total

    def logderiv(self, zs, order=0):
        """d^order/dz^order of f'/f."""
        sign = (-1) ** order * math.factorial(order)
        out = np.zeros(zs.shape, dtype=complex)
        for a, m in self.zeros:
            out += sign * m / (zs - a) ** (order + 1)
        for b, n in self.poles:
            out -= sign * n / (zs - b) ** (order + 1)
        if len(self.expo) > 1:
            dp = P.polyder(np.asarray(self.expo, dtype=complex), order + 1)
            out += P.polyval(zs, dp)
        return out


_UNIT = {}


def circle(r, samples):
    """The quadrature nodes r exp(2 pi i k / samples), as the library uses."""
    if samples not in _UNIT:
        _UNIT[samples] = np.exp(1j * (2.0 * np.pi * np.arange(samples) / samples))
    return r * _UNIT[samples]


def mean_log_plus(log_vals):
    return float(np.mean(np.maximum(log_vals, 0.0)))


def counting(points, r, truncated=False):
    """N(r) (based at 1) of a divisor given as ((point, multiplicity), ...)."""
    acc = 0.0
    for w, m in points:
        if abs(w) <= r:
            acc += (1 if truncated else m) * (math.log(r) - math.log(max(abs(w), 1.0)))
    return acc


def simple_roots(coeffs_low_first):
    """Roots of a polynomial by numpy's companion eigenvalues."""
    c = np.trim_zeros(np.asarray(coeffs_low_first, dtype=complex), "b")
    return [(complex(w), 1) for w in np.roots(c[::-1])]


def close(a, b, tol=REL_TOL):
    return abs(a - b) <= tol * (1.0 + abs(b))


def rows_close(rows, expected, tol=REL_TOL):
    """Compare report rows with expected rows column by column."""
    if len(rows) != len(expected):
        return False
    return all(close(x, y, tol) for row, ref in zip(rows, expected)
               for x, y in zip(row, ref))


def divisor_matches(got, expected, tol=ROOT_TOL):
    """got, expected: ((point, multiplicity), ...); exact multiplicities.

    Every expected point must be matched by exactly one reported point within
    tol (relative), with the same multiplicity, and nothing may be left over.
    """
    got = list(got)
    if len(got) != len(expected):
        return False
    used = [False] * len(got)
    for w, m in expected:
        for i, (g, k) in enumerate(got):
            if not used[i] and k == m and abs(g - w) <= tol * (1.0 + abs(w)):
                used[i] = True
                break
        else:
            return False
    return True


def falling(x, t):
    """The falling factorial x (x - 1) ... (x - t + 1)."""
    out = 1
    for i in range(t):
        out *= x - i
    return out
