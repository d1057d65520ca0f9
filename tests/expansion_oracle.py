"""The large-x expansions of G and of its inverse: test oracles.

The package inverts G numerically and never evaluates these two series;
tests use them as references for the numerical G and for the q family:

* ``eval_G_asympt(model, x, n)`` is
  x - 3 ln x + c - 4 sum_{k=1}^{n} (beta_{k+1} / k) (4/x)^k;
* ``eval_Ginv_asympt(model, x, n)`` is x + sum_{k=0}^{n} p_k(c; ln x) / x^k,
  each p_k by Horner on its dense coefficients in w = 3 ln x - c.

``model`` is an ``asymptode.asympt.AsymptoticModel``: its ``c`` and ``dps``
are used, and its ``order`` when ``n`` is not given.

asympt forms each point's A_0..A_n in one pass, as running sums on raw
mpfs, with the read point split once.  The per-order evaluation it
replaced is kept here as the reference, each (n, point) formed on its own
in mpf arithmetic from member reads that split the point every time:

* ``member_value(family, n, u, slope=False)``: member n at u, one
  taylor_oracle.fixed_eval read of its mantissas, the shipped read at one
  point; if slope, its derivative, read the same way on the mantissas
  floor(j u_j 2^F) of the coefficients j u_j, j >= 1, which the package
  does not build;
* ``a_value(c, t, n, slope=False)``: A_n(c; t), or its c-derivative;
* ``newton_fit(traj, n, t)``: the fit of c at one time by Newton steps on
  the exact c-derivative, the reference for the shipped secant steps;
* ``remainder_reference(model, traj, n_max, t_grid)`` and
  ``lambert_reference(n_max, x_grid, cfg)``: the (values, a_values,
  remainders) dicts of remainder_study and lambert_compare.
"""

from __future__ import annotations

from mpmath import mp

from asymptode.errors import ConvergenceError, DomainError
from asymptode.families import _member, gen_beta
from asymptode.numerics import _GUARD_BITS, _fixed_member, _floor, lambert_wm1_numeric
from series_oracle import dense
from taylor_oracle import fixed_eval


def _order(model, n):
    n = model.order if n is None else int(n)
    if n < 0:
        raise DomainError("expansion order must be nonnegative")
    return n


def _horner(coeffs, u):
    acc = mp.zero
    for f in reversed(coeffs):
        acc = acc * u + mp.mpf(f.numerator) / f.denominator
    return acc


def eval_Ginv_asympt(model, x, n=None):
    """Expansion of the inverse of G: x + sum_{k=0}^{n} p_k(c; ln x) / x**k."""
    n = _order(model, n)
    with mp.workdps(model.dps):
        x = mp.mpf(x)
        if x <= 1:
            raise DomainError("inverse expansion needs x > 1")
        w = 3 * mp.log(x) - mp.mpf(model.c)
        acc = x
        xk = mp.one
        for k in range(0, n + 1):
            acc += _horner(dense("p", k), w) / xk
            xk *= x
        return acc


def eval_G_asympt(model, x, n=None):
    """Expansion of G itself: x - 3 ln x + c - 4 sum (beta_{k+1}/k)(4/x)**k."""
    n = _order(model, n)
    with mp.workdps(model.dps):
        x = mp.mpf(x)
        if x <= 0:
            raise DomainError("G expansion needs x > 0")
        betas = gen_beta(n + 1)
        acc = x - 3 * mp.log(x) + mp.mpf(model.c)
        r = 4 / x
        rk = mp.one
        for k in range(1, n + 1):
            rk *= r
            b = betas[k + 1]
            acc -= 4 * rk * mp.mpf(b.numerator) / b.denominator / k
        return acc


def member_value(family, n, u, slope=False):
    """Member n of the family at u (its derivative if slope), at the
    caller's precision: one integer Horner, rounded once."""
    if not slope:
        mants, F = _fixed_member(family, n)
    else:
        F = mp.prec + _GUARD_BITS
        nums, den = _member(family, n)
        mants = tuple([(j * v << F) // den for j, v in enumerate(nums) if j])
    return fixed_eval(mants, u, F, 0)


def _sum(family, u, t, n, acc, first=1, slope=False):
    """acc + sum_{k=first..n} member_k(u) / t**k, t**k by repeated products."""
    tk = mp.one
    for k in range(first, n + 1):
        if k:
            tk *= t
        acc += member_value(family, k, u, slope) / tk
    return acc


def a_value(c, t, n, slope=False):
    """A_n(c; t), or its c-derivative if slope, for this n alone; at the
    caller's precision, with c and t mpf."""
    w = 3 * mp.log(4 * t) - c if n else None
    acc = _sum("q", w, t, n, mp.zero if slope else mp.one, slope=slope)
    return (4 * t) ** (mp.mpf(1) / 4) * (-acc if slope else acc)


def newton_fit(traj, n, t):
    """c with A_n(c; t) = h(t), by Newton steps on the exact c-derivative
    from the first-order closed form, to the shipped fit's stop
    |step| <= 10^(8 - dps) max(1, |c|); at the trajectory's precision."""
    with mp.workdps(traj.dps):
        t = mp.mpf(t)
        h = traj.eval_h(t)
        root = (4 * t) ** (mp.mpf(1) / 4)
        c = 3 * mp.log(4 * t) - 16 * t * (h / root - 1)
        tol = _floor(8)
        for _ in range(64):
            step = (a_value(c, t, n) - h) / a_value(c, t, n, slope=True)
            c -= step
            if abs(step) <= tol * max(mp.one, abs(c)):
                return c
        raise ConvergenceError("c fit failed to settle at t = %s" % t)


def _reference(values, n_max, expansion, scale):
    approx, remainders = {}, {}
    for n in range(n_max + 1):
        for at in values:
            x = mp.mpf(at)
            approx[(n, at)] = expansion(x, n)
            remainders[(n, at)] = abs(values[at] - approx[(n, at)]) / scale(x, n)
    return values, approx, remainders


def remainder_reference(model, traj, n_max, t_grid):
    """(h_values, a_values, remainders) of remainder_study, per (n, point)."""
    times = sorted(set(float(t) for t in t_grid))
    with mp.workdps(max(model.dps, traj.dps) + 5):
        c = mp.mpf(model.c)
        return _reference(
            {t: traj.eval_h(mp.mpf(t)) for t in times}, n_max,
            lambda t, n: a_value(c, t, n),
            lambda t, n: (4 * t) ** (mp.mpf(1) / 4) * (mp.log(t) / t) ** (n + 1),
        )


def lambert_reference(n_max, x_grid, cfg):
    """(y_values, a_values, remainders) of lambert_compare, per (n, point)."""
    xs = sorted(set(float(x) for x in x_grid))
    with mp.workdps(cfg.effective_dps):
        return _reference(
            {x: lambert_wm1_numeric(mp.mpf(x), cfg) for x in xs}, n_max,
            lambda x, n: _sum("lambert", mp.log(x), x, n, x, first=0),
            lambda x, n: (mp.log(x) / x) ** (n + 1),
        )
