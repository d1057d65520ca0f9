"""Alternating parent/change benchmark pairs, recorded as BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent f6c7c2c --change HEAD --n 17 \\
        --pairs 10 --seconds 25 --seed 2001

Exports both revisions with ``git archive`` into new temporary checkouts,
so that neither starts with a ``__pycache__``, and runs each checkout's
``perfbench/run.py`` there with PYTHONDONTWRITEBYTECODE=1, one process at
a time: ``--pairs`` untraced pairs per workload, the parent first in odd
pairs and the change first in even ones, then one traced pair
(``--trace 1``) per workload.  Each pair has its own seed, counting up
from ``--seed`` over all pairs, and both of its sides run at that seed.

Every run adds one entry to ``BENCH_<n>.json`` in the repository root: a
JSON list of objects with the keys side, commit, workload, pair, first,
seed, seconds, trace (traced runs only), result and record, where result
and record are perfbench's last two output lines.  The file is rewritten
after every run, so an interrupted run keeps the pairs it finished.
At the end a summary prints, per workload and end-to-end metric, the
median of each side, the number of pairs in which the change is lower,
the parent's quartiles, the distance of the change's median from the
parent's in parent interquartile ranges (IQRs), and whether every change
run is lower than every parent run.  A metric whose parent spread is
wider than the benchmark's bound is unresolved, not unchanged, unless
every change run is lower than every parent run.  Correctness and failed
operations are summed over every run, traced ones included.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("families-cold", "constant", "trajectory")


def git(*args):
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def tmp_is_usable(tmp):
    """Whether ``--tmp`` is unset or names an existing directory; prints a
    one-line refusal otherwise, since the checkouts could not be made."""
    if tmp is None or os.path.isdir(tmp):
        return True
    print("--tmp %s is not an existing directory" % tmp, file=sys.stderr)
    return False


def export(commit, into):
    """The tree of commit, unpacked into the empty directory into."""
    archive = subprocess.Popen(["git", "archive", commit], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise SystemExit("git archive %s failed" % commit)


def bench(checkout, workload, seed, seconds, trace):
    """(record, result): the last two lines perfbench prints."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    run = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    if run.returncode:
        raise SystemExit("%s failed in %s:\n%s" % (" ".join(argv), checkout, run.stderr))
    record, result = run.stdout.strip().splitlines()[-2:]
    return json.loads(record), json.loads(result)


def quartiles(values):
    """(Q1, Q3) of values; both are the value itself for a single run."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summary(entries):
    for workload in sorted({e["workload"] for e in entries}):
        runs = [e for e in entries if e["workload"] == workload and "trace" not in e]
        by_pair = {}
        for e in runs:
            by_pair.setdefault(e["pair"], {})[e["side"]] = e["result"]
        pairs = [p for p in by_pair.values() if len(p) == 2]
        for metric in pairs[0]["parent"]["metrics"] if pairs else ():
            parent = [p["parent"]["metrics"][metric]["value"] for p in pairs]
            change = [p["change"]["metrics"][metric]["value"] for p in pairs]
            lower = sum(c < q for c, q in zip(change, parent))
            mid_p, mid_c = statistics.median(parent), statistics.median(change)
            q1, q3 = quartiles(parent)
            iqrs = "%+.2f" % ((mid_c - mid_p) / (q3 - q1)) if q3 > q1 else "n/a"
            print("%-14s %-12s parent %.5g  change %.5g  (%+.1f%%)  change lower in %d of %d" % (
                workload, metric, mid_p, mid_c, 100 * (mid_c / mid_p - 1), lower, len(pairs)))
            print("%-14s %-12s parent Q1 %.5g Q3 %.5g  change median %s parent IQRs away"
                  "  every change run lower than every parent run: %s" % (
                      workload, metric, q1, q3, iqrs, max(change) < min(parent)))
        every = [e for e in entries if e["workload"] == workload]  # traced runs too
        failed = sum(e["result"]["failed"] for e in every)
        correct = all(e["result"]["correct"] for e in every)
        print("%-14s all correct: %s, failed operations: %d (%d runs)" % (
            workload, correct, failed, len(every)))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent revision")
    parser.add_argument("--change", required=True, help="changed revision")
    parser.add_argument("--n", required=True, type=int, help="writes BENCH_<n>.json")
    parser.add_argument("--pairs", type=int, default=10, help="untraced pairs per workload")
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--tmp", help="existing directory for the two checkouts")
    args = parser.parse_args(argv)
    if not tmp_is_usable(args.tmp):
        return 2

    commits = {side: git("rev-parse", "--verify", rev + "^{commit}")
               for side, rev in (("parent", args.parent), ("change", args.change))}
    out = ROOT / ("BENCH_%d.json" % args.n)
    plan = [(w, pair, 0) for w in WORKLOADS for pair in range(1, args.pairs + 1)]
    plan += [(w, 1, 1) for w in WORKLOADS]
    entries = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs_", dir=args.tmp) as tmp:
        checkouts = {}
        for side, commit in commits.items():
            checkouts[side] = Path(tmp) / side
            checkouts[side].mkdir()
            export(commit, checkouts[side])
        for seed, (workload, pair, trace) in enumerate(plan, args.seed):
            first = "parent" if pair % 2 else "change"
            order = (first, "change" if first == "parent" else "parent")
            for side in order:
                record, result = bench(checkouts[side], workload, seed, args.seconds, trace)
                entry = {"side": side, "commit": commits[side], "workload": workload,
                         "pair": pair, "first": first, "seed": seed, "seconds": args.seconds}
                if trace:
                    entry["trace"] = 1
                entry.update(result=result, record=record)
                entries.append(entry)
                out.write_text(json.dumps(entries) + "\n")
                print("%s %s pair %d%s seed %d: wall_s %s" % (
                    workload, side, pair, " (traced)" if trace else "", seed,
                    result["metrics"].get("wall_s", result["metrics"].get("trace.wall_s"))["value"]),
                    flush=True)
        stale = [str(p) for p in Path(tmp).rglob("__pycache__")]
        if stale:
            print("warning: bytecode written during the runs: %s" % stale, file=sys.stderr)
    summary(entries)
    return 0


if __name__ == "__main__":
    sys.exit(main())
