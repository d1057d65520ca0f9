"""Byte-identity of the CLI between two revisions.

    python3 tools/cli_identity.py --parent 366d57f --change HEAD

Exports both revisions with ``git archive`` into new temporary checkouts,
as tools/bench_pairs.py does, and runs every command of ``COMMANDS`` in
each, one process at a time, as ``python -m asymptode.cli`` with the
checkout's ``src/`` on the path and PYTHONDONTWRITEBYTECODE=1.  Prints
each command whose stdout, stderr or exit code differs between the two,
then the count; exits 1 when any differs.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import export, git  # noqa: E402

# the pinned commands of tests/test_cli.py (TestSeries, TestNumericPins),
# the printed families at order 60, past those pins,
# the verify and lambert variants around them, the trajectory outputs with
# and without a switch, two horizon refusals, the ten data of the
# `constant` benchmark workload, and inversion-heavy runs: a G inversion
# that stops at G's rounding floor (h0 = 1000), tight and loose
# trajectories, fits and verify runs that pass, refuse or exit 1; then the
# step-free g problems (h1 <= 0 and large h0), refused or not, a dense read
# of a marched G, and two fit and grid times before t0; then exact reads at
# other working precisions (dps 50 to 80), three argparse validators and
# the shortest q families
COMMANDS = (
    [["series", "--family", f, "--order", "30", "--format", "json"]
     for f in ("alpha", "beta", "p", "q", "lambert")]
    + [["series", "--family", f, "--order", "60", "--format", fmt]
       for f in ("p", "q", "lambert") for fmt in ("table", "csv")]
    + [c.split() for c in (
        "constant --h0 1 --h1 1",
        "constant --h0 2 --h1 0.5",
        "constant --h0 1 --h1 -1",
        "constant --h0 0.5 --h1 2 --rel-tol 1e-22 --abs-tol 1e-24",
        "constant --h0 1.5 --h1 3",
        "constant --fit",
        "integrate --t-max 1e6 --format csv",
        "integrate --t-max 1e6",
        "integrate --t-max 1e6 --format json",
        "integrate --t-max 10 --format json",
        "integrate --h1 -5 --t-max 300 --format json",
        "integrate --t0 5 --t-max 5",
        "constant --h0 1000 --h1 1",
        "constant --fit --t-max inf",
        "verify",
        "verify --format csv",
        "verify --format json",
        "verify --h0 2 --h1 0.5",
        "verify --format json --h0 2 --h1 0.5",
        "verify --synthetic 5 --format csv",
        "verify --n-max 4",
        "lambert",
        "lambert --format csv",
        "lambert --format json",
        "lambert --rel-tol 1e-30 --abs-tol 1e-32",
        "lambert --n-max 6 --rel-tol 1e-30 --abs-tol 1e-32",
        "lambert --n-max 1 --x-grid 10,100 --format json",
        "lambert --x-grid 1e300,1e301",
        "integrate --h0 1000 --h1 -0.7 --rel-tol 1e-18 --abs-tol 1e-20 --format json",
        "integrate --h0 0.5 --h1 2 --t-max 1e6 --rel-tol 1e-22 --abs-tol 1e-24 --format csv",
        "integrate --h0 1.5 --h1 3 --t-max 1e6 --format csv",
        "constant --fit --h0 2 --h1 0.5",
        "constant --fit --h0 1 --h1 -1",
        "verify --rel-tol 1e-30 --abs-tol 1e-32 --n-max 4 --format json",
        "verify --h0 0.5 --h1 2 --format json",
        "verify --h0 3 --h1 0.1 --format csv",
        "constant --h0 1 --h1 0",
        "constant --h0 1 --h1 -0.5 --format json",
        "verify --h0 1 --h1 -1",
        "integrate --h1 -1 --t-max 1e4 --format json",
        "integrate --t-max 1e4 --rel-tol 1e-30 --abs-tol 1e-32 --format csv",
        "constant --h0 1000 --h1 -0.7",
        "constant --h0 200 --h1 1e-9",
        "integrate --h0 1000 --h1 -0.7 --t-max 1e4 --format csv",
        "constant --fit --t0 100 --t-max 1000",
        "verify --t0 500 --t-grid 1e2,1e3",
        "constant --rel-tol 1e-60 --abs-tol 1e-62 --digits 60",
        "constant --h0 0.5 --h1 0.5 --rel-tol 1e-40 --abs-tol 1e-42",
        "lambert --rel-tol 1e-60 --abs-tol 1e-62 --n-max 8 --format json",
        "verify --rel-tol 1e-40 --abs-tol 1e-42 --n-max 5 --format json",
        "constant --fit --rel-tol 1e-30 --abs-tol 1e-32",
        "integrate --t-max 1e5 --rel-tol 1e-40 --abs-tol 1e-42 --format csv",
        "verify --synthetic 5 --t-grid 1e2,1e3 --growth-factor 1e-12",
        "lambert --x-grid 10,100 --residual-tol 1e-60",
        "verify --shift-tol 0",
        "series --family q --order 1",
        "series --family q --order 0",
    )]
    + [["constant", "--h0", repr(h0), "--h1", repr(h1)] for h0, h1 in (
        (1, 1), (2, 0.5), (0.5, 2), (0.8, 1), (1.2, 1.5),
        (0.5, 0.5), (3, 0.1), (1, -1), (0.7, 0.3), (1.5, 1),
    )]
)


def run(checkout, argv):
    """(exit code, stdout, stderr) of the CLI in checkout."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-m", "asymptode.cli", *argv],
                          cwd=checkout, env=env, capture_output=True, text=True)
    return done.returncode, done.stdout, done.stderr


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent revision")
    parser.add_argument("--change", required=True, help="changed revision")
    parser.add_argument("--tmp", help="directory for the two checkouts")
    args = parser.parse_args(argv)

    differ = 0
    with tempfile.TemporaryDirectory(prefix="cli_identity_", dir=args.tmp) as tmp:
        checkouts = []
        for side, rev in (("parent", args.parent), ("change", args.change)):
            checkout = Path(tmp) / side
            checkout.mkdir()
            export(git("rev-parse", "--verify", rev + "^{commit}"), checkout)
            checkouts.append(checkout)
        for command in COMMANDS:
            parent, change = (run(checkout, command) for checkout in checkouts)
            if parent != change:
                differ += 1
                fields = [name for name, a, b in zip(("exit code", "stdout", "stderr"), parent, change) if a != b]
                print("differs (%s): %s" % (", ".join(fields), " ".join(command)), flush=True)
    print("%d of %d commands differ" % (differ, len(COMMANDS)))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
