"""Benchmark of the asymptode package: one workload per invocation.

    python3 perfbench/run.py --workload families-cold --seed 1 --seconds 25 --trace 0

Runs whole passes of the workload's operations until ``--seconds`` have
elapsed, timing each operation alone, then checks the first pass's outputs
against independent computations (see ``workloads.py``) and prints, as its
last line, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` every second pass runs under the wrappers of ``tracing.py``
and the metrics are the per-layer ones.  The line before it records the
environment and the raw timings.  Single process, no threads; the package
is imported from ``src/`` of the checkout this file sits in.

Times are reported in reference seconds (see ``Clock``).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("series", "families", "numerics", "asympt", "cli")
SETUP_REPEATS = 5

# caches each workload reads but does not time; families-cold clears them
# before every operation, so it warms nothing
WARM = {
    "families-cold": lambda pkg: None,
    # g and 1/g below the crossover use alpha/beta up to order 24
    "constant": lambda pkg: (pkg.families.gen_alpha(24), pkg.families.gen_beta(24)),
    # eval_A_n at n = 20 reads q_1..q_20 (and p_0..p_19 behind them)
    "trajectory": lambda pkg: pkg.families.gen_q(20),
}

# calibrate() on one otherwise idle vCPU of the 2-vCPU reference VM
CAL_REF_S = 0.014


def calibrate():
    """Seconds taken by a fixed piece of pure-Python rational and big-integer
    arithmetic, the kind of work both layers of the package do."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 1500):
        acc += Fraction(1, i)
    big = 3**2000
    for i in range(3000):
        big = (big * 7 + i) % 3**2100
    return time.perf_counter() - start


class Clock:
    """Wall time of an operation, scaled to the reference CPU speed.

    The reference VM's vCPUs switch, for seconds at a time, between full speed
    and about 0.6 of it, as other tenants load the host; raw wall times of
    the same work then differ by 1.7x from run to run.  Each operation is
    bracketed by ``calibrate()`` and its wall time multiplied by
    ``CAL_REF_S`` over the mean of the two calibrations, which gives the
    time it would have taken at the speed the reference VM has when
    idle.  The calibration does not touch the package, so a change to the
    package moves only the operation's time.
    """

    def __init__(self):
        self._last = calibrate()
        self.calibrations = [self._last]

    def time(self, fn):
        """(result, raw seconds, reference seconds) of fn()."""
        start = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - start
        after = calibrate()
        self.calibrations.append(after)
        scaled = raw * 2 * CAL_REF_S / (self._last + after)
        self._last = after
        return result, raw, scaled


def drop_package():
    """Forget asymptode and mpmath, so the next import pays what a new CLI
    process pays."""
    for name in list(sys.modules):
        if name.split(".")[0] in ("asymptode", "mpmath"):
            del sys.modules[name]
    gc.collect()


def import_package(workload):
    """Import asymptode and warm the caches the workload does not time."""
    pkg = SimpleNamespace(
        **{m: importlib.import_module("asymptode." + m) for m in MODULES}
    )
    WARM[workload](pkg)
    return pkg


def environment():
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            commit = ref
    digest = hashlib.sha256()
    for path in sorted((SRC / "asymptode").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    import mpmath

    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
    }


def attempt(op, log_errors):
    try:
        return op()
    except Exception as exc:  # an operation that raises counts as failed
        if log_errors:
            traceback.print_exc()
        return False, None, "%s: %s" % (type(exc).__name__, exc)


def run_passes(wl, seconds, rng, clock, tracer):
    """Whole passes until `seconds` have elapsed; untraced and traced passes
    alternate when a tracer is given, starting untraced."""
    labels = list(wl.ops)
    res = SimpleNamespace(
        times={label: [] for label in labels},
        traced_times={label: [] for label in labels},
        raw_times={label: [] for label in labels},
        walls=[], layers=[], per_op_counts=None, first={}, fingerprints={},
        mismatched=set(), attempted=0, failed=0,
    )
    start = time.perf_counter()
    n = 0
    while n < (2 if tracer else 1) or time.perf_counter() - start < seconds:
        traced = tracer is not None and n % 2 == 1
        order = labels[:]
        rng.shuffle(order)
        wall = raw_wall = 0.0
        counts = {}
        if traced:
            tracer.reset()
            tracer.install()
        try:
            for label in order:
                wl.prepare()
                before = tracer.counts() if traced else None
                (ok, value, fingerprint), raw, dt = clock.time(
                    lambda: attempt(wl.ops[label], n == 0)
                )
                wall += dt
                raw_wall += raw
                if traced:
                    after = tracer.counts()
                    counts[label] = {k: after[k] - before[k] for k in after}
                    res.traced_times[label].append(dt)
                else:
                    res.times[label].append(dt)
                    res.raw_times[label].append(raw)
                res.attempted += 1
                res.failed += not ok
                if n == 0 and ok:
                    res.first[label] = value
                if res.fingerprints.setdefault(label, fingerprint) != fingerprint:
                    res.mismatched.add(label)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            # per-layer times in reference seconds, at the pass's mean scale
            scale = wall / raw_wall
            res.layers.append({
                name: value * scale if tracing.UNITS.get(name, "s").startswith("s") else value
                for name, value in tracer.layer_metrics().items()
            })
            if res.per_op_counts is None:
                res.per_op_counts = counts
        else:
            res.walls.append(wall)
        n += 1
    return res


def typical(times):
    """(wall time of a pass, median time per operation) from each
    operation's median over the passes.

    Per-operation medians first, because the operations of a pass differ
    in cost by orders of magnitude: a median over all samples of a
    four-operation pass would fall in the gap between the second and third
    operation and swing with their extremes.
    """
    medians = [statistics.median(v) for v in times.values()]
    return sum(medians), statistics.median(medians)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WARM))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "asymptode" / "__init__.py").is_file():
        print("error: no package source at %s" % (SRC / "asymptode"), file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    clock = Clock()
    setup, raw_setup = [], []
    for _ in range(SETUP_REPEATS):
        drop_package()
        pkg, raw, scaled = clock.time(lambda: import_package(args.workload))
        setup.append(scaled)
        raw_setup.append(raw)
    if not Path(pkg.cli.__file__).resolve().is_relative_to(SRC):
        print("error: asymptode imported from %s" % pkg.cli.__file__, file=sys.stderr)
        return 2

    # imported only now, so that it shares the mpmath the package uses
    import workloads

    rng = random.Random(args.seed)
    wl = workloads.WORKLOADS[args.workload](pkg, rng)
    tracer = tracing.Tracer(pkg) if args.trace else None
    res = run_passes(wl, args.seconds, rng, clock, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = wl.check(res.first)
    problems += ["%s: output differs between passes" % label for label in sorted(res.mismatched)]
    for problem in problems:
        print("check failed: %s" % problem, file=sys.stderr)

    wall_s, op_p50_s = typical(res.times)
    raw_wall_s, raw_op_p50_s = typical(res.raw_times)
    info = {
        "env": environment(),
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(res.walls) + len(res.layers),
        "pass_wall_s": res.walls,
        "raw": {
            "wall_s": raw_wall_s,
            "op_p50_s": raw_op_p50_s,
            "setup_s": statistics.median(raw_setup),
            "calibrate_s": statistics.median(clock.calibrations),
        },
    }
    if tracer:
        info["per_op_counts"] = res.per_op_counts
        metrics = {
            name: {
                "value": statistics.median(layer[name] for layer in res.layers),
                "unit": tracing.UNITS.get(name, "s"),
            }
            for name in res.layers[0]
        }
        traced_wall_s, _ = typical(res.traced_times)
        metrics["trace.wall_s"] = {"value": traced_wall_s, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced_wall_s - wall_s, "unit": "s"}
    else:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "op_p50_s": {"value": op_p50_s, "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps(info))
    print(json.dumps({
        "correct": not problems,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
