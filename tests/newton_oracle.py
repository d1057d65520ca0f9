"""The eager-bracket Newton of the numerical layer: test oracles.

numerics._newton checks the upper end of its bracket only when an
iterate reaches it or a bisection needs it.  These are the mpf solvers
it replaced, which check (and double) that end before the first iterate:

* ``invert_G(x, problem)``: G(y) = x on [h0^4, hi], hi doubled from
  2x + h0^4 + 1 until G(hi) >= x, from the leading-order inverse
  y = max(x + h0^4 + 3 ln(1 + x/h0^4) - J, h0^4), J the problem's whole
  integral, to the residual 10^(9 - dps)/2 at the problem's precision;
* ``lambert_wm1(x, cfg)``: y - ln y = x from y = x + ln x on [1, hi], hi
  doubled from x + 2 ln x + 2 until hi - ln hi >= x.

Each returns (root, path): path counts the doublings of hi and the
bisections, so a test can show that it covers both.
"""

from __future__ import annotations

from mpmath import mp

from asymptode.errors import ConvergenceError
from asymptode.numerics import compute_G, lambert_root_tol

MAX_ITER = 200


def newton(f, slope, y, lo, hi, tol, path):
    for _ in range(MAX_ITER):
        res = f(y)
        if abs(res) <= tol:
            return y
        if res > 0:
            hi = y
        else:
            lo = y
        y_next = y - res / slope(y)
        if y_next == y:
            return y
        if not (lo < y_next < hi):
            y_next = (lo + hi) / 2
            path["bisections"] += 1
        y = y_next
    raise ConvergenceError("iteration cap")


def invert_G(x, problem):
    path = {"doublings": 0, "bisections": 0}
    with mp.workdps(problem.dps):
        x = mp.mpf(x)
        lo = problem.anchor
        hi = 2 * x + lo + 1
        while compute_G(hi, problem) < x:
            hi *= 2
            path["doublings"] += 1
        root = newton(
            lambda y: compute_G(y, problem) - x,
            lambda y: 1 / problem.eval_g(4 / y),
            max(x + lo + 3 * mp.log(1 + x / lo) - problem.i_0, lo), lo, hi,
            mp.mpf(10) ** (9 - problem.dps) / 2, path,
        )
    return root, path


def lambert_wm1(x, cfg):
    path = {"doublings": 0, "bisections": 0}
    with mp.workdps(cfg.effective_dps):
        x = mp.mpf(x)
        hi = x + 2 * mp.log(x) + 2
        while hi - mp.log(hi) < x:
            hi *= 2
            path["doublings"] += 1
        root = newton(
            lambda y: y - mp.log(y) - x,
            lambda y: 1 - 1 / y,
            x + mp.log(x), mp.one, hi, lambert_root_tol(x, cfg), path,
        )
    return root, path
