"""Loading the library under test from this checkout, and the seeded op stream."""
from __future__ import annotations

import os
import random
import sys

import wl_divisors
import wl_growth
import wl_probes

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

WORKLOADS = {"growth": wl_growth, "divisors": wl_divisors, "probes": wl_probes}


class MissingLibrary(RuntimeError):
    """The checkout has no nevanlab sources to benchmark."""


def check_source():
    if not os.path.isfile(os.path.join(SRC, "nevanlab", "__init__.py")):
        raise MissingLibrary(f"no nevanlab sources under {SRC}")


def load_library():
    """Import nevanlab (and its CLI) from src/ of this checkout, never elsewhere."""
    check_source()
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import nevanlab
    import nevanlab.cli  # noqa: F401  (the growth and probes ops call it)
    if not os.path.abspath(nevanlab.__file__).startswith(SRC + os.sep):
        raise MissingLibrary(f"nevanlab was imported from {nevanlab.__file__}")
    return nevanlab


def rounds(workload, seed, stream, known_defects=False):
    """Endless stratified rounds of ops; round r depends only on its arguments.

    Streams keep the warm-up, measured and traced ops apart, so no input
    repeats within a run.  known_defects appends the workload's defect_ops,
    the classes the library gets wrong at this commit, to every round; the
    round's other ops stay the same.
    """
    module = WORKLOADS[workload]
    r = 0
    while True:
        rng = random.Random(f"{workload}:{seed}:{stream}:{r}")
        ops = module.round_ops(rng)
        if known_defects:
            ops += module.defect_ops(rng)
        yield ops
        r += 1


def warmup_ops(workload, seed, known_defects=False):
    """The first op of each kind in the warm-up stream's first round."""
    first = {}
    for op in next(rounds(workload, seed, "warmup", known_defects)):
        first.setdefault(op.kind, op)
    return list(first.values())
