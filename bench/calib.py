"""Machine-speed calibration: a fixed kernel timed in short bursts.

On a shared machine the speed of one core drifts by tens of percent over
seconds, and process CPU time drifts with it, so no raw time repeats.  The
benchmark therefore runs this kernel in bursts around its ops (never inside
a timed op) and scales each measured time by NOMINAL_S / burst time: times
are reported in seconds at a fixed reference speed.

The kernel is pure Python: scalar complex Horner updates and a recursive
walk over a tree of small objects with type dispatch, the interpreter work
that dominates the library's ops.  On a 2-core VM where repeated passes over
a fixed op list varied by 13-29 % (interquartile range over median), scaling
by this kernel left 6-8 % on each of the three workloads.  Kernels with
numpy log-modulus passes or np.roots left 4-22 % and were worst on probes.
"""
from __future__ import annotations

import statistics
import time

# Median kernel time on the reference machine (2-core x86-64 VM, CPython
# 3.11, numpy 2.4), in seconds.  Normalised times are in units of this speed.
NOMINAL_S = 0.0010
BURST_REPS = 3

_COEFFS = tuple(complex((-1) ** k / (k + 1), 1.0 / (k + 2)) for k in range(12))


class _Node:
    __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right):
        self.op, self.left, self.right = op, left, right


def _tree(depth, k=0):
    if depth == 0:
        return complex(k % 7 - 3, k % 5 - 2) / 4
    return _Node("+" if depth % 2 else "*", _tree(depth - 1, 2 * k), _tree(depth - 1, 2 * k + 1))


_TREE = _tree(9)


def _walk(node, z):
    if not isinstance(node, _Node):
        return node + z
    a = _walk(node.left, z)
    b = _walk(node.right, z)
    if node.op == "+":
        return a + b
    return a * b / (1.0 + abs(a * b))


def kernel():
    """One fixed unit of mixed work; returns a value so nothing is skipped."""
    acc = 0j
    for k in range(250):
        z = complex(0.3 + k / 1000, -0.2)
        h = 0j
        for c in _COEFFS:
            h = h * z + c
        acc += h
    acc += _walk(_TREE, 0.1j)
    acc += _walk(_TREE, -0.2)
    return acc


def burst():
    """Median time of BURST_REPS kernel runs, in seconds.

    One untimed run first: right after an op the kernel's data and code are
    out of cache, and that first run is slower by a varying amount.
    """
    kernel()
    times = []
    for _ in range(BURST_REPS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def factors(bursts):
    """Scale factor to reference speed for the work after each burst.

    The work between bursts i and i + 1 is scaled by the mean of those two;
    the work after the last burst by that burst alone.  Medians over wider
    windows average away burst noise but lag the drift, and measured worse
    on the reference machine.
    """
    return [NOMINAL_S / ((b + a) / 2) for b, a in zip(bursts, bursts[1:] + bursts[-1:])]
