"""Benchmark for nevanlab, one workload per run.

    python3 bench/run.py --workload growth --seed 1 --seconds 20 --trace 0

Workloads (see bench/README.md for why each exists): growth, divisors,
probes.  A run is a closed loop with one client: ops run one after another
in this single process, single-threaded (BLAS/OpenMP pools pinned to one
thread).  Inputs come in stratified rounds made from --seed; whole rounds run
until --seconds have passed and at least MIN_OPS ops are done.  Every op's
output is checked against an independent reference built before the op is
timed.

Times are normalised to a reference machine speed with the calibration
kernel in calib.py.  Raw wall and CPU figures are printed beside them for
information.  The last stdout line is one JSON object: with --trace 0 it
holds the end-to-end metrics, with --trace 1 the per-layer metrics of a
traced run (tracing.py).
"""
from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
# The CLI reads its default sample count from this variable; the references
# assume the library default.  Set-up children inherit the cleaned environment.
os.environ.pop("NEVANLAB_SAMPLES", None)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import numpy as np  # noqa: E402,F401  (imported before any timer)

import calib  # noqa: E402
import tracing  # noqa: E402
from library import (WORKLOADS, MissingLibrary, check_source, load_library,  # noqa: E402
                     rounds, warmup_ops)

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_OPS = 100  # so that at least ten samples lie beyond p90
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
TRACE_ROUNDS = 2

END_TO_END = (("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"),
              ("cpu_ms_per_op", "ms"), ("pass_rate", "ratio"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))


def cpu_time():
    """CPU seconds of this process plus its finished children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


@dataclass
class Record:
    kind: str
    label: str
    ok: bool
    wall: float  # raw seconds
    cpu: float  # raw seconds
    reason: str = ""
    burst: int = 0  # index of the calibration burst that ran before this op
    factor: float = 1.0  # to reference speed, set by Meter.finish
    self_time: dict = field(default_factory=dict)
    calls: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    fp_warnings: int = 0

    @property
    def norm_wall(self):
        return self.wall * self.factor

    @property
    def norm_cpu(self):
        return self.cpu * self.factor


class Meter:
    """Runs and times ops, with a calibration burst after every op."""

    def __init__(self, lib, tracer=None):
        self.lib = lib
        self.tracer = tracer
        self.records = []
        self.bursts = []
        self._burst()

    def _burst(self):
        self.bursts.append(calib.burst())

    def run(self, op):
        error = None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if self.tracer:
                self.tracer.begin_op()
            c0 = cpu_time()
            t0 = time.perf_counter()
            try:
                output = op.call(self.lib)
            except Exception as exc:  # a failed op is counted, not fatal
                error, output = exc, None
            t1 = time.perf_counter()
            c1 = cpu_time()
        rec = Record(op.kind, op.label, False, t1 - t0, c1 - c0, burst=len(self.bursts) - 1)
        rec.fp_warnings = sum(issubclass(w.category, RuntimeWarning) for w in caught)
        if self.tracer:
            rec.self_time, rec.calls, rec.counts = self.tracer.end_op()
        if error is not None:
            rec.reason = f"raised {type(error).__name__}: {error}"
        else:
            try:
                rec.ok = bool(op.check(output))
                rec.reason = "" if rec.ok else "output differs from the reference"
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                rec.reason = f"malformed output: {type(exc).__name__}: {exc}"
        self.records.append(rec)
        self._burst()

    def finish(self):
        """Scale every record to reference speed."""
        factors = calib.factors(self.bursts)
        for rec in self.records:
            rec.factor = factors[rec.burst]


def run_rounds(meter, stream_rounds, seconds=None, max_rounds=None):
    start = time.perf_counter()
    done = 0
    for ops in stream_rounds:
        for op in ops:
            meter.run(op)
        done += 1
        if max_rounds is not None and done >= max_rounds:
            break
        if (seconds is not None and time.perf_counter() - start >= seconds
                and len(meter.records) >= MIN_OPS):
            break
    meter.finish()


def measure_setup(workload, seed):
    """Median normalised set-up time over fresh interpreters, and the raw one."""
    norm, raw = [], []
    for i in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_child.py"),
             "--workload", workload, "--seed", str(seed * SETUP_REPEATS + i)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        raw.append(result["raw_s"])
        norm.append(result["norm_s"])
    return statistics.median(norm), statistics.median(raw), norm


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / q[1] if q[1] else 0.0


def p90(values):
    return statistics.quantiles(values, n=10)[-1]


def end_to_end(records, setup_s):
    wall = [r.norm_wall for r in records]
    return {
        "ops_per_s": len(records) / sum(wall),
        "op_p50_ms": 1e3 * statistics.median(wall),
        "op_p90_ms": 1e3 * p90(wall),
        "cpu_ms_per_op": 1e3 * sum(r.norm_cpu for r in records) / len(records),
        "pass_rate": sum(r.ok for r in records) / len(records),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(traced, untraced):
    n = len(traced)
    self_time, calls, counts = {}, {}, {"polynomials.fp_warnings": 0.0}
    for r in traced:
        for name, t in r.self_time.items():
            self_time[name] = self_time.get(name, 0.0) + t * r.factor
        for name, c in r.calls.items():
            calls[name] = calls.get(name, 0) + c
        for name, c in r.counts.items():
            counts[name] = counts.get(name, 0) + c
        counts["polynomials.fp_warnings"] += r.fp_warnings
    total = sum(r.norm_wall for r in traced)
    out = {}
    for name in tracing.CALLS:
        out[f"{name}.calls"] = calls.get(name, 0) / n
    for name in tracing.SELF_MS:
        out[f"{name}.self_ms"] = 1e3 * self_time.get(name, 0.0) / n
    for name in tracing.COUNTS:
        out[name] = counts.get(name, 0) / n
    for module in tracing.MODULES:
        share = sum(t for name, t in self_time.items() if name.startswith(module + "."))
        out[f"{module}.self_share"] = share / total
    traced_rate = n / total
    untraced_rate = len(untraced) / sum(r.norm_wall for r in untraced)
    out["trace.overhead"] = traced_rate / untraced_rate
    return out


def report_lines(workload, seed, records, meter, setup):
    norm_setup, raw_setup, setup_all = setup or (float("nan"), float("nan"), ())
    wall = [r.wall for r in records]
    cpu = [r.cpu for r in records]
    kinds = sorted({r.kind for r in records})
    yield f"workload={workload} seed={seed} ops={len(records)} kinds={','.join(kinds)}"
    yield (f"samples: {len(records)} ops, so {len(records) - int(0.9 * len(records))} "
           f"lie beyond p90; setup repeats: {len(setup_all)}")
    yield (f"calibration: {len(meter.bursts)} bursts, median {1e3 * statistics.median(meter.bursts):.4f} ms"
           f" (nominal {1e3 * calib.NOMINAL_S:.4f} ms), spread {spread(meter.bursts):.4f}")
    yield "metric                raw          normalised"
    raw_rows = (("ops_per_s", len(wall) / sum(wall)), ("op_p50_ms", 1e3 * statistics.median(wall)),
                ("op_p90_ms", 1e3 * p90(wall)), ("cpu_ms_per_op", 1e3 * sum(cpu) / len(cpu)),
                ("setup_s", raw_setup))
    norm = end_to_end(records, norm_setup)
    for name, value in raw_rows:
        yield f"{name:20s}  {value:11.4f}  {norm[name]:11.4f}"
    for kind in kinds:
        ks = [r for r in records if r.kind == kind]
        yield (f"  kind {kind:16s} n={len(ks):4d} pass={sum(r.ok for r in ks) / len(ks):.3f} "
               f"median={1e3 * statistics.median(r.norm_wall for r in ks):9.3f} ms")
    for r in records:
        if not r.ok:
            yield f"FAIL {r.kind}: {r.reason}: {r.label}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--known-defects", action="store_true",
                        help="add the op classes the library gets wrong at this "
                             "commit to every round (see bench/README.md); their "
                             "failures count against pass_rate and correct")
    args = parser.parse_args(argv)
    try:
        check_source()
        # set-up is an end-to-end metric; a traced run does not report it
        setup = None if args.trace else measure_setup(args.workload, args.seed)
        lib = load_library()
    except (MissingLibrary, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for op in warmup_ops(args.workload, args.seed, args.known_defects):
            try:
                op.call(lib)
            except Exception:  # warm-up outcomes are not measured
                pass

    traced = []
    if args.trace:
        tracer = tracing.Tracer(lib)
        tmeter = Meter(lib, tracer)
        tracer.install()
        try:
            run_rounds(tmeter, rounds(args.workload, args.seed, "trace", args.known_defects),
                       max_rounds=TRACE_ROUNDS)
        finally:
            tracer.uninstall()
        traced = tmeter.records
    meter = Meter(lib)
    run_rounds(meter, rounds(args.workload, args.seed, "run", args.known_defects),
               seconds=args.seconds)
    records = meter.records

    for line in report_lines(args.workload, args.seed, records, meter, setup):
        print(line)
    if args.trace:
        metrics = per_layer(traced, records)
        units = dict(tracing.METRICS)
        for r in traced:
            if not r.ok:
                print(f"FAIL (traced) {r.kind}: {r.reason}: {r.label}")
        everything = traced + records
    else:
        metrics = end_to_end(records, setup[0])
        units = dict(END_TO_END)
        everything = records
    failed = sum(not r.ok for r in everything)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(everything),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
