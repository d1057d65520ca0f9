"""Command line front end.

Five subcommands cover the layers of the package:

  series     print exact expansion coefficients and polynomials
  integrate  integrate h'' = h^(-3) - h' and tabulate the trajectory
  constant   compute the expansion constant c for given initial data
  verify     remainder study plus shift check against an integration
  lambert    the y - ln y = x analogue, numeric root vs expansion

Output is deterministic: the same invocation produces byte-identical
text, so downstream diffing is meaningful.  Formats: ``table`` for
reading, ``csv`` and ``json`` for machines.  Exit codes: 0 success (and
verification passed), 1 verification failed, 2 bad usage or bad
parameter values, 3 a computation could not reach the requested
accuracy.
"""

from __future__ import annotations

import argparse
import csv as _csv
import functools
import io
import json
import math
import re
import sys

from mpmath import mp

from .asympt import (
    AsymptoticModel,
    SyntheticTrajectory,
    _check_shift,
    _growth_limit,
    eval_A_n,
    fit_c_from_trajectory,
    lambert_compare,
    remainder_grid,
    remainder_study,
    shift_invariance_check,
)
from .errors import AccuracyError, ConvergenceError, DomainError, IntegrationError
from .families import gen_alpha, gen_beta, gen_lambert_p, gen_p, gen_q
from .numerics import (
    InitialData,
    SolverConfig,
    _check_horizon,
    _check_in_range,
    _workdps,
    compute_c_for_data,
    integrate_h,
    trajectory_to_csv,
)

__all__ = ["main"]


def _finite(vals, what):
    """vals, unless one of them is nan or infinite (float() accepts both)."""
    if not all(math.isfinite(v) for v in vals):
        raise argparse.ArgumentTypeError("%s must be finite" % what)
    return vals


def _grid(text):
    try:
        vals = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            "grids are comma-separated numbers, e.g. 1e2,1e3,1e4"
        )
    if not vals:
        raise argparse.ArgumentTypeError("empty grid")
    return _finite(vals, "grid points")


def _finite_float(text):
    try:
        val = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid float value: %r" % text)
    return _finite([val], "the value")[0]


def _positive_float(text):
    """A finite float above zero, for the limits a run must stay within."""
    val = _finite_float(text)
    if not val > 0:
        raise argparse.ArgumentTypeError("the value must be positive, got %r" % text)
    return val


def _emit(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_table(header, rows):
    buf = io.StringIO()
    writer = _csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _report_csv(rep):
    """A RemainderReport's rows as CSV, headed by their keys."""
    rows = rep.rows()
    return _csv_table(rows[0], [row.values() for row in rows])


def _growths(rep):
    """A RemainderReport's growth per order n, for JSON."""
    return {str(n): mp.nstr(rep.growth(n), 12) for n in rep.n_values}


def _remainder_lines(rep):
    """One table line per order n of a RemainderReport."""
    return [
        "n=%d  max remainder %-12s growth %-12s (limit %g)"
        % (n, mp.nstr(rep.max_remainder(n), 6), mp.nstr(rep.growth(n), 6), rep.growth_factor)
        for n in rep.n_values
    ]


def _check_times(times, t0, t_max, cfg):
    """Refuse the first of times outside the trajectory [t0, t_max] at cfg
    as its read would, before the trajectory is computed."""
    with _workdps(cfg.effective_dps):
        for t in times:
            _check_in_range(t, t0, t_max)


def _add_data_args(sub):
    sub.add_argument("--t0", type=float, default=0.0, help="initial time (default 0)")
    sub.add_argument("--h0", type=float, default=1.0, help="h(t0) > 0 (default 1)")
    sub.add_argument("--h1", type=float, default=1.0, help="h'(t0) (default 1)")


def _add_tol_args(sub, rel, abs_):
    sub.add_argument("--rel-tol", type=float, default=rel, help="relative tolerance (default %g)" % rel)
    sub.add_argument("--abs-tol", type=float, default=abs_, help="absolute tolerance (default %g)" % abs_)


def _add_io_args(sub):
    sub.add_argument("--format", choices=("table", "csv", "json"), default="table")
    sub.add_argument("--out", default=None, help="write output to this file instead of stdout")


# ---------------------------------------------------------------------------
# series

MAX_SERIES_ORDER = 100  # cold p takes about 3 s there, q 3 to 4 s (2-vCPU VM)


def _cmd_series(args):
    fam = args.family
    n = args.order
    if n > MAX_SERIES_ORDER:
        raise DomainError("--order %d exceeds the ceiling %d" % (n, MAX_SERIES_ORDER))
    if fam in ("alpha", "beta"):
        values = (gen_alpha if fam == "alpha" else gen_beta)(n)
        entries = [(k, str(v)) for k, v in enumerate(values)]
    else:
        family = {"p": gen_p, "q": gen_q, "lambert": gen_lambert_p}[fam](n)
        entries = [(k, family.text(k)) for k in range(family.first, n + 1)]
    label = "ptilde" if fam == "lambert" else fam

    if args.format == "table":
        text = "".join("%s[%d] = %s\n" % (label, k, v) for k, v in entries)
    elif args.format == "csv":
        text = _csv_table(("k", "value"), entries)
    else:
        payload = {"family": label, "order": n, "entries": {str(k): v for k, v in entries}}
        text = json.dumps(payload, indent=2) + "\n"
    _emit(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# integrate


def _cmd_integrate(args):
    data = InitialData(args.t0, args.h0, args.h1)
    cfg = SolverConfig(rel_tol=args.rel_tol, abs_tol=args.abs_tol)
    _check_horizon(args.t0, args.t_max)
    traj = integrate_h(data, args.t_max, cfg)
    if args.format == "csv":
        text = trajectory_to_csv(traj)
    elif args.format == "json":
        payload = {
            "stats": traj.stats,
            "samples": [
                {"t": mp.nstr(t, 19), "h": mp.nstr(h, 19), "hprime": mp.nstr(hp, 19)}
                for t, h, hp in traj.samples()
            ],
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = ["# %s = %s" % (k, v) for k, v in sorted(traj.stats.items())]
        lines.append("%22s %24s %24s" % ("t", "h", "h'"))
        for t, h, hp in traj.samples():
            lines.append("%22s %24s %24s" % (mp.nstr(t, 12), mp.nstr(h, 16), mp.nstr(hp, 12)))
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# constant


def _cmd_constant(args):
    data = InitialData(args.t0, args.h0, args.h1)
    cfg = SolverConfig(rel_tol=args.rel_tol, abs_tol=args.abs_tol)
    digits = args.digits
    if not 1 <= digits <= cfg.effective_dps:
        # more digits than the working precision would print rounding noise
        raise DomainError(
            "--digits must lie between 1 and the working precision, %d"
            % cfg.effective_dps
        )
    t_fit = (args.t_max * 1e-2, args.t_max * 1e-1, args.t_max)
    if args.fit:  # the later checks of integrate_h and the fit, before any work
        _check_horizon(args.t0, args.t_max * 1.2)
        if args.fit_order < 1:
            raise DomainError("fitting c needs at least one expansion term")
        _check_times(sorted(t_fit), args.t0, args.t_max * 1.2, cfg)
    c = compute_c_for_data(data, cfg)
    rows = [("c", mp.nstr(c, digits))]
    if args.fit:
        traj = integrate_h(data, args.t_max * 1.2, cfg)
        c_fit = fit_c_from_trajectory(traj, n=args.fit_order, t_fit=t_fit)
        with _workdps(cfg.effective_dps):
            rows.append(("c_fit", mp.nstr(c_fit, digits)))
            rows.append(("difference", mp.nstr(abs(c - c_fit), 6)))
    if args.format == "table":
        text = "".join("%s = %s\n" % (k, v) for k, v in rows)
    elif args.format == "csv":
        text = _csv_table(("quantity", "value"), rows)
    else:
        text = json.dumps({k: v for k, v in rows}, indent=2) + "\n"
    _emit(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args):
    data = InitialData(args.t0, args.h0, args.h1)
    cfg = SolverConfig(rel_tol=args.rel_tol, abs_tol=args.abs_tol)
    if args.synthetic is not None and args.synthetic <= args.n_max:
        raise DomainError("--synthetic order must exceed --n-max")
    # refuse bad arguments before any integration, with the later checks' messages
    grid = remainder_grid(args.t_grid)
    if args.n_max < 0:
        raise DomainError("expansion order must be nonnegative")
    growth_factor = _growth_limit(args.growth_factor)
    if not math.isfinite(args.shift):
        raise DomainError("shift s must be finite, got %s" % args.shift)
    _check_shift(args.shift, grid[0])
    if args.synthetic is None:
        _check_times(grid, args.t0, grid[-1] * 1.2, cfg)
    c = compute_c_for_data(data, cfg)
    model = AsymptoticModel.build(c, order=args.n_max, dps=cfg.effective_dps)
    if args.synthetic is not None:
        # self-test mode: the "trajectory" is the expansion itself at a
        # higher order, so remainders are pure polynomial tails
        traj = SyntheticTrajectory(
            lambda t: eval_A_n(model, t, args.synthetic),
            grid[0] * 0.5,
            grid[-1] * 2.0,
            dps=cfg.effective_dps,
        )
    else:
        traj = integrate_h(data, grid[-1] * 1.2, cfg)
    rep = remainder_study(model, traj, args.n_max, grid, growth_factor=growth_factor)
    defect = shift_invariance_check(model, args.n_max, args.shift, grid)
    shift_ok = defect <= args.shift_tol
    ok = rep.ok and shift_ok

    if args.format == "csv":
        text = _report_csv(rep)
    elif args.format == "json":
        payload = {
            "pass": ok,
            "report": {
                "growth_factor": rep.growth_factor,
                "growth": _growths(rep),
                "ok": rep.ok,
                "rows": rep.rows(),
            },
            "shift": {
                "s": args.shift,
                "normalised_defect": mp.nstr(defect, 12),
                "tolerance": args.shift_tol,
                "ok": shift_ok,
            },
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = ["constant c = %s" % mp.nstr(c, 20)] + _remainder_lines(rep)
        lines.append(
            "shift s=%g  normalised defect %s (limit %g)"
            % (args.shift, mp.nstr(defect, 6), args.shift_tol)
        )
        lines.append("PASS" if ok else "FAIL")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# lambert


def _cmd_lambert(args):
    cfg = SolverConfig(rel_tol=args.rel_tol, abs_tol=args.abs_tol)
    rep = lambert_compare(args.n_max, args.x_grid, cfg, growth_factor=args.growth_factor)
    ok = rep.ok and rep.max_residual <= mp.mpf(args.residual_tol)

    if args.format == "csv":
        text = _report_csv(rep)
    elif args.format == "json":
        payload = {
            "pass": ok,
            "residual_tol": args.residual_tol,
            "report": {
                "max_residual": mp.nstr(rep.max_residual, 12),
                "growth": _growths(rep),
                "rows": rep.rows(),
            },
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = ["max residual |y - ln y - x|/x = %s (limit %g)" % (mp.nstr(rep.max_residual, 6), args.residual_tol)]
        lines += _remainder_lines(rep)
        lines.append("PASS" if ok else "FAIL")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# wiring


class _Parser(argparse.ArgumentParser):
    """argparse, reading -9e-06 as a negative number, as it does -1 and -0.5,
    and so as an option's value, not as an unknown option (no option here
    looks like a number).  Subparsers take the same class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


@functools.cache
def _build_parser():
    # built once, on first use.  Handlers look their generators up at call
    # time, so patching a module attribute still takes effect; they must not
    # mutate the default grids, which every parse shares
    parser = _Parser(
        prog="asymptode",
        description="Expansion apparatus for h^3 (h'' + h') = 1: exact series, "
        "high-accuracy integration, and verification of the large-time profile.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_series = sub.add_parser("series", help="print expansion coefficients or polynomials")
    p_series.add_argument("--family", choices=("alpha", "beta", "q", "p", "lambert"), required=True)
    p_series.add_argument("--order", type=int, default=4, help="highest index, at most %d" % MAX_SERIES_ORDER)
    _add_io_args(p_series)
    p_series.set_defaults(func=_cmd_series)

    p_int = sub.add_parser("integrate", help="integrate the equation and tabulate h")
    _add_data_args(p_int)
    p_int.add_argument("--t-max", type=float, default=1e4)
    _add_tol_args(p_int, 1e-10, 1e-12)
    _add_io_args(p_int)
    p_int.set_defaults(func=_cmd_integrate)

    p_const = sub.add_parser("constant", help="compute the expansion constant c")
    _add_data_args(p_const)
    _add_tol_args(p_const, 1e-18, 1e-20)
    p_const.add_argument("--digits", type=int, default=20, help="digits to print (default 20)")
    p_const.add_argument("--fit", action="store_true", help="also fit c from a trajectory and report the difference")
    p_const.add_argument("--fit-order", type=int, default=4)
    p_const.add_argument("--t-max", type=float, default=1e6, help="largest fit time (default 1e6)")
    _add_io_args(p_const)
    p_const.set_defaults(func=_cmd_constant)

    p_ver = sub.add_parser("verify", help="remainder and shift checks against an integration")
    _add_data_args(p_ver)
    _add_tol_args(p_ver, 1e-22, 1e-24)
    p_ver.add_argument("--n-max", type=int, default=3)
    p_ver.add_argument("--t-grid", type=_grid, default=[1e2, 1e3, 1e4, 1e5, 1e6])
    p_ver.add_argument("--growth-factor", type=_finite_float, default=10.0)
    p_ver.add_argument("--shift", type=float, default=1.0)
    p_ver.add_argument("--shift-tol", type=_positive_float, default=10.0)
    p_ver.add_argument(
        "--synthetic",
        type=int,
        default=None,
        metavar="ORDER",
        help="replace the integration by the order-ORDER profile itself "
        "(a self-test of the remainder machinery; must exceed --n-max)",
    )
    _add_io_args(p_ver)
    p_ver.set_defaults(func=_cmd_verify)

    p_lam = sub.add_parser("lambert", help="y - ln y = x: numeric root vs expansion")
    p_lam.add_argument("--n-max", type=int, default=3)
    p_lam.add_argument("--x-grid", type=_grid, default=[1e1, 1e2, 1e3, 1e4, 1e5])
    p_lam.add_argument("--residual-tol", type=_positive_float, default=1e-12)
    p_lam.add_argument("--growth-factor", type=_finite_float, default=10.0)
    _add_tol_args(p_lam, 1e-10, 1e-12)
    _add_io_args(p_lam)
    p_lam.set_defaults(func=_cmd_lambert)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits itself on --help (0) and usage errors (2)
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except DomainError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (AccuracyError, ConvergenceError, IntegrationError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
