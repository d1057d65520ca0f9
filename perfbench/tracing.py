"""Spans and counts from wrappers around the package's public functions.

The wrappers are installed only for traced passes.  Each replaces one
function in every ``asymptode`` module that holds it (``gen_q`` is called
through ``asympt`` and ``cli`` as well as ``families``; ``compute_G`` is
looked up in ``numerics`` by ``invert_G``), or one method on its class.
Spans nest on one stack, so a span's self time is its duration minus the
durations of the spans it directly encloses.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# (module, class or None, attribute): the layer boundaries that are traced
TARGETS = (
    ("families", None, "gen_p"),
    ("families", None, "gen_q"),
    ("families", None, "gen_lambert_p"),
    ("series", "BivariatePoly", "format_descending"),
    ("series", None, "poly_eval"),
    ("numerics", None, "integrate_h"),
    ("numerics", None, "solve_g"),
    ("numerics", None, "compute_c"),
    ("numerics", "GProblem", "eval_g"),
    ("numerics", None, "invert_G"),
    ("numerics", None, "compute_G"),
    ("numerics", None, "lambert_wm1_numeric"),
    ("asympt", None, "lambert_compare"),
    ("asympt", None, "eval_A_n"),
    ("asympt", None, "fit_c_from_trajectory"),
    ("asympt", None, "remainder_study"),
    ("asympt", None, "shift_invariance_check"),
    ("cli", None, "main"),
)

SPANS = tuple("%s.%s" % (mod, attr) for mod, _, attr in TARGETS)

# units of the per-layer metrics that are not self times in seconds
UNITS = {
    "series.poly_eval.calls": "count",
    "numerics.integrate_h.steps": "count",
    "numerics.integrate_h.rejected": "count",
    "numerics.integrate_h.s_per_step": "s/step",
    "numerics.eval_g.calls": "count",
    "numerics.invert_G.calls": "count",
    "numerics.compute_G.calls": "count",
    "numerics.compute_G.per_invert": "calls/invert",
}


class Tracer:
    """Self time and call count per span, plus integrator step counts."""

    def __init__(self, pkg):
        self._pkg = pkg
        self._patched = []  # (holder, attribute, original)
        self._stack = []  # time covered by child spans, one entry per open span
        self.reset()

    def reset(self):
        self.self_s = dict.fromkeys(SPANS, 0.0)
        self.calls = Counter()
        self.steps = 0
        self.rejected = 0

    def install(self):
        modules = [
            mod
            for name, mod in sys.modules.items()
            if name == "asymptode" or name.startswith("asymptode.")
        ]
        for mod_name, cls_name, attr in TARGETS:
            owner = getattr(self._pkg, mod_name)
            if cls_name is not None:
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            wrapper = self._wrap("%s.%s" % (mod_name, attr), original)
            holders = [owner] if cls_name is not None else [
                mod for mod in modules if getattr(mod, attr, None) is original
            ]
            for holder in holders:
                self._patched.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall(self):
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched = []

    def _wrap(self, span, fn):
        stack = self._stack
        clock = time.perf_counter
        count_steps = span == "numerics.integrate_h"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                children = stack.pop()
                self.self_s[span] += duration - children
                self.calls[span] += 1
                if stack:
                    stack[-1] += duration
            if count_steps:
                self.steps += result.n_steps
                self.rejected += result.n_rejected
            return result

        return traced

    def counts(self):
        """Exact counts, for per-operation breakdowns."""
        return {
            "integrate_h.steps": self.steps,
            "integrate_h.rejected": self.rejected,
            "eval_g.calls": self.calls["numerics.eval_g"],
            "invert_G.calls": self.calls["numerics.invert_G"],
            "compute_G.calls": self.calls["numerics.compute_G"],
            "poly_eval.calls": self.calls["series.poly_eval"],
        }

    def layer_metrics(self):
        """The per-layer metrics of one pass, named as in BENCHMARK.json."""
        s = self.self_s
        calls = self.calls
        inverts = calls["numerics.invert_G"]
        return {
            "families.gen_p.s": s["families.gen_p"],
            "families.gen_q.s": s["families.gen_q"],
            "families.gen_lambert_p.s": s["families.gen_lambert_p"],
            "series.format_descending.s": s["series.format_descending"],
            "series.poly_eval.calls": calls["series.poly_eval"],
            "series.poly_eval.s": s["series.poly_eval"],
            "numerics.integrate_h.s": s["numerics.integrate_h"],
            "numerics.integrate_h.steps": self.steps,
            "numerics.integrate_h.rejected": self.rejected,
            "numerics.integrate_h.s_per_step": (
                s["numerics.integrate_h"] / self.steps if self.steps else 0.0
            ),
            "numerics.solve_g.s": s["numerics.solve_g"],
            "numerics.compute_c.s": s["numerics.compute_c"],
            "numerics.eval_g.calls": calls["numerics.eval_g"],
            "numerics.eval_g.s": s["numerics.eval_g"],
            "numerics.invert_G.calls": inverts,
            "numerics.invert_G.s": s["numerics.invert_G"],
            "numerics.compute_G.calls": calls["numerics.compute_G"],
            "numerics.compute_G.s": s["numerics.compute_G"],
            "numerics.compute_G.per_invert": (
                calls["numerics.compute_G"] / inverts if inverts else 0.0
            ),
            "numerics.lambert_wm1_numeric.s": s["numerics.lambert_wm1_numeric"],
            "asympt.lambert_compare.s": s["asympt.lambert_compare"],
            "asympt.eval_A_n.s": s["asympt.eval_A_n"],
            "asympt.fit_c_from_trajectory.s": s["asympt.fit_c_from_trajectory"],
            "asympt.remainder_study.s": s["asympt.remainder_study"],
            "asympt.shift_invariance_check.s": s["asympt.shift_invariance_check"],
            "cli.main.self_s": s["cli.main"],
        }
