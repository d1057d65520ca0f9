"""Large-time expansions, constant fitting, and remainder studies.

Solutions of h**3 (h'' + h') = 1 that eventually grow settle onto a
universal profile: with u = h**4/4 the equation reduces to u' = g(1/u),
and the antiderivative G of 1/g admits, as x -> infinity,

    G(x) = x - 3 ln x + c - 4 * sum_{k>=1} (beta_{k+1} / k) * (4/x)**k

where the constant c is the only trace the initial data leaves at large
times.  Inverting G and taking fourth roots yields the expansion

    h(t) ~ A_n(t) = (4t)**(1/4) * (1 + sum_{k=1}^{n} q_k(c; ln 4t) / t**k)

with the exact polynomial family from :mod:`.families`.  This module
evaluates A_n, fits c directly to an integrated trajectory, and measures
the normalised remainders

    R_n(t) = |h(t) - A_n(t)| / ((4t)**(1/4) * (ln t / t)**(n+1))

whose boundedness in t is the quantitative content of the expansion.
The same machinery applies to the classical transcendental equation
y - ln y = x, whose root shares the polynomial structure with c = 0;
``lambert_compare`` cross-checks that analogue end to end.  One pass
per point, the running sums acc + sum_k member_k(u) / t**k over 3 ln 4t,
(4t)**(1/4) and t**k formed once, serves A_0..A_n and Y_0..Y_n; one gated
loop forms the remainders of both studies.

Everything here evaluates exact rational polynomials at a configurable
working precision; no floating-point coefficients enter.  Each q_k is a
polynomial in the single variable w = 3z - c.  It is read by the one
integer Horner of the numerical layer (numerics._fixed_horner), rounded
once, on the mantissas of its dense w-coefficients from the one
fixed-point reader (numerics._fixed_member), with w split once per point
and the running sums on raw mpfs; the fit of c reads values alone.  The
Lambert family is read the same way.  Non-finite t, c and grid points
are refused before any work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from operator import mul

from mpmath import mp
from mpmath.libmp import mpf_add, mpf_div, round_nearest

from .errors import AccuracyError, ConvergenceError, DomainError
from .numerics import (
    SolverConfig,
    _check_in_range,
    _fixed_horner,
    _fixed_member,
    _floor,
    _read_point,
    _require_finite,
    _workdps,
    lambert_root_tol,
    lambert_wm1_numeric,
)

__all__ = [
    "AsymptoticModel",
    "eval_A_n",
    "fit_c_from_trajectory",
    "RemainderReport",
    "remainder_grid",
    "remainder_study",
    "shift_invariance_check",
    "lambert_compare",
    "SyntheticTrajectory",
]

_GATE_FRAC = "0.01"  # largest error bound, as a share of the remainder scale
_SPREAD_TOL = 1e-7  # largest spread of the per-time fits of c


@dataclass(frozen=True)
class AsymptoticModel:
    """Expansion constant plus evaluation settings.

    ``c`` is the constant appearing in the large-x form of G; ``order``
    is the default truncation order n; ``dps`` the default working
    precision for evaluations.  Build one from a computed or fitted
    constant with :meth:`build`.
    """

    c: object
    order: int
    dps: int = 30

    def __post_init__(self):
        _require_finite(c=self.c)
        if self.order < 0:
            raise DomainError("expansion order must be nonnegative")
        if self.dps < 15:
            raise DomainError("need at least 15 working digits")

    @classmethod
    def build(cls, c, order, dps=30):
        with _workdps(max(int(dps), 15)):
            return cls(c=mp.mpf(c), order=int(order), dps=int(dps))

    def shifted(self, s):
        """Model for the time-shifted solution h(t + s): c -> c - 4 s."""
        with _workdps(self.dps):
            return AsymptoticModel(c=self.c - 4 * mp.mpf(s), order=self.order, dps=self.dps)


def _powers(t, n):
    """[t**0, ..., t**n] by repeated products: mpmath's power rounds
    differently from k = 3 on."""
    return list(accumulate([t] * n, mul, initial=mp.one))


def _expansion_sum(family, u, powers, acc):
    """The running sums acc + sum_{k=1..m} member_k(u) / t**k over the
    family for m = 0..n, from powers = _powers(t, n); entry 0 is acc itself.
    At the caller's precision: u is split once, each member is one
    _fixed_horner read, and the sum runs on raw mpfs by the mpf_div and
    mpf_add at mp.prec that the mpf operators make."""
    prec, rnd = mp.prec, round_nearest
    sums = [acc]
    acc, (U, E) = acc._mpf_, _read_point(u._mpf_, 0)
    for k in range(1, len(powers)):
        mants, F = _fixed_member(family, k)
        acc = mpf_add(acc, mpf_div(_fixed_horner(mants, U, E, F), powers[k]._mpf_, prec, rnd), prec, rnd)
        sums.append(mp.make_mpf(acc))
    return sums


def _profile_parts(t, n):
    """(3 ln 4t, (4t)**(1/4), _powers(t, n)): what A_0..A_n at t do not
    owe to c.  The caller supplies the mp context; t is already mpf."""
    return 3 * mp.log(4 * t), (4 * t) ** (mp.mpf(1) / 4), _powers(t, n)


def _a_value(c, parts):
    """A_n(c; t) from parts = _profile_parts(t, n).  The caller supplies
    the mp context; c is already mpf."""
    log3, root, powers = parts
    return root * _expansion_sum("q", log3 - c, powers, mp.one)[-1]


def eval_A_n(model, t, n=None):
    """Truncated large-time profile A_n(t).

    A_0(t) = (4t)**(1/4); each further order divides by another power
    of t and consumes the next q polynomial at z = ln 4t.
    """
    n = model.order if n is None else int(n)
    if n < 0:
        raise DomainError("expansion order must be nonnegative")
    with _workdps(model.dps):
        t = mp.mpf(t)
        _require_finite(t=t)
        if t <= 0:
            raise DomainError("A_n(t) needs t > 0")
        return _a_value(mp.mpf(model.c), _profile_parts(t, n))


def fit_c_from_trajectory(traj, n=4, t_fit=(1.0e4, 1.0e5, 1.0e6)):
    """Recover the expansion constant from trajectory values alone.

    At each fit time of the sequence t_fit, secant steps on c solve
    A_n(c; t) = h(t), the first on the c-slope of A_1, -(4t)**(1/4) / (16 t);
    the expansion is nearly linear in c so a few steps suffice.  It falls
    in c where it resolves c at t, so a chord that does not fall means
    the iterates left that branch, and the fit time is refused at once as
    having no root (A_4(c; 10) < h(10) for the data (0.5, 2)); past such a
    chord a step could stop on a huge slope, far from a root.  The
    per-time fits are combined by median, and
    their spread must stay within _SPREAD_TOL: fit times that disagree
    mean the order n or the trajectory accuracy cannot support the
    requested constant, and returning a number then would be misleading.

    This route never touches the integral definition of c, so it is
    an independent check on it.
    """
    n = int(n)
    if n < 1:
        raise DomainError("fitting c needs at least one expansion term")
    times = _finite_points(t_fit, "fit time")
    if not times:
        raise DomainError("no fit times given")
    with _workdps(traj.dps):
        fits = []
        for t_raw in times:
            t = mp.mpf(t_raw)
            h = traj.eval_h(t)
            parts = _profile_parts(t, n)
            # first-order closed form as the starting point
            c = parts[0] - 16 * t * (h / parts[1] - 1)
            res, slope = _a_value(c, parts) - h, -parts[1] / (16 * t)
            tol = _floor(8)
            for _ in range(64):
                step = res / slope
                c_next = c - step
                # stop first: a step that fails this test leaves c_next != c
                if abs(step) <= tol * max(mp.one, abs(c_next)):
                    break
                res_next = _a_value(c_next, parts) - h
                if res_next == res:
                    raise ConvergenceError("flat c-derivative in fit at t = %s" % t_raw)
                slope = (res_next - res) / (c_next - c)
                if slope >= 0:
                    raise ConvergenceError(
                        "c fit found no root of A_%d(c; t) = h(t) at t = %s: A_%d stops "
                        "falling in c between c = %s and %s" % (n, t_raw, n, mp.nstr(c, 6), mp.nstr(c_next, 6))
                    )
                c, res = c_next, res_next
            else:
                raise ConvergenceError("c fit failed to settle at t = %s" % t_raw)
            fits.append(c_next)
        fits.sort()
        m = len(fits)
        med = fits[m // 2] if m % 2 else (fits[m // 2 - 1] + fits[m // 2]) / 2
        spread = fits[-1] - fits[0]
        if spread > mp.mpf(_SPREAD_TOL):
            raise AccuracyError(
                "fit times disagree on c by %s (tolerance %s); "
                "raise the fit order or tighten the solver" % (mp.nstr(spread, 6), _SPREAD_TOL)
            )
        return med


# ---------------------------------------------------------------------------
# remainder measurement


@dataclass
class RemainderReport:
    """Normalised remainders of A_n against a trajectory, on a t-grid.

    ``remainders[(n, t)]`` holds R_n(t); ``growth(n)`` compares the last
    grid point against the first, which is the boundedness statement in
    its crudest testable form.  On a grid of one point there is nothing to
    compare, and ``growth`` raises DomainError rather than report 1.

    lambert_compare reports the y - ln y = x analogue in the same form:
    its grid is in x, ``h_values`` holds the numeric roots y, ``a_values``
    the expansion Y_n, and ``residuals`` the relative residuals
    |y - ln y - x| / x of the roots.  ``columns`` names the grid point,
    the numeric value and the expansion in ``rows()``: ("t", "h_num",
    "A_n"), or ("x", "y_num", "Y_n") for the analogue.
    """

    n_values: tuple
    t_values: tuple
    h_values: dict = field(repr=False)
    a_values: dict = field(repr=False)
    remainders: dict = field(repr=False)
    growth_factor: float = 10.0
    residuals: dict = field(default_factory=dict, repr=False)
    columns: tuple = ("t", "h_num", "A_n")

    @property
    def max_residual(self):
        return max(self.residuals.values())

    def growth(self, n):
        if len(self.t_values) < 2:
            raise DomainError(_ONE_POINT)
        first = self.remainders[(n, self.t_values[0])]
        last = self.remainders[(n, self.t_values[-1])]
        if first == 0:
            return mp.zero if last == 0 else mp.inf
        return last / first

    def max_remainder(self, n):
        return max(self.remainders[(n, t)] for t in self.t_values)

    def failures(self):
        return [n for n in self.n_values if self.growth(n) > self.growth_factor]

    @property
    def ok(self):
        return not self.failures()

    def rows(self):
        """One dict per (n, grid point), keyed n, the columns and ratio;
        the values at 19 digits, so that CSV and JSON print the same."""
        var, num, expansion = self.columns
        return [
            {
                "n": n,
                var: t,
                num: mp.nstr(self.h_values[t], 19),
                expansion: mp.nstr(self.a_values[(n, t)], 19),
                "ratio": mp.nstr(self.remainders[(n, t)], 19),
            }
            for n in self.n_values
            for t in self.t_values
        ]


_ONE_POINT = "the growth test needs a grid of at least two distinct points"


def _growth_limit(growth_factor):
    """growth_factor as a float, which must be finite and positive."""
    growth_factor = float(growth_factor)
    if not (math.isfinite(growth_factor) and growth_factor > 0):
        raise DomainError("growth factor must be finite and positive, got %s" % growth_factor)
    return growth_factor


def _finite_points(points, name):
    """The points as floats, ascending, once each is finite: a NaN would
    sort anywhere and drop out of every comparison."""
    values = [float(v) for v in points]
    _require_finite(**{"%s %d" % (name, i): v for i, v in enumerate(values)})
    return sorted(values)


def remainder_grid(t_grid):
    """The distinct points of t_grid, ascending; refused unless they are
    finite, there are at least two and the first exceeds 1, where the
    normalisation (ln t / t)**(n+1) is positive."""
    times = sorted(set(_finite_points(t_grid, "grid point")))
    if len(times) < 2:
        raise DomainError(_ONE_POINT)
    if times[0] <= 1:
        raise DomainError("remainder normalisation needs t > 1")
    return times


def _scale(t, root, n):
    """(4t)**(1/4) (ln t / t)**(n+1), the scale of R_n(t); root = (4t)**(1/4)."""
    return root * (mp.log(t) / t) ** (n + 1)


def _gated_report(values, bounds, n_max, scale, expansion, refusal, **report):
    """RemainderReport of |values - expansion(x)[n]| / scale(x, n) for
    n = 0..n_max over the ascending grid that keys values, at the caller's
    precision; expansion(x) lists every n in one pass.  Each bound must sit
    below _GATE_FRAC of every scale of its point, in n-major order, before
    any expansion; else AccuracyError(refusal), formatted with the bound,
    frac, scale, n and the point at."""
    gate = mp.mpf(_GATE_FRAC)
    sizes = {}
    for n in range(n_max + 1):
        for at in values:
            size = sizes[(n, at)] = scale(mp.mpf(at), n)
            if bounds[at] > gate * size:
                raise AccuracyError(refusal.format(
                    bound=mp.nstr(bounds[at], 4), frac=_GATE_FRAC, scale=mp.nstr(size, 4),
                    n=n, at=at,
                ))
    per_point = {at: expansion(mp.mpf(at)) for at in values}
    approx = {(n, at): per_point[at][n] for n, at in sizes}
    return RemainderReport(
        n_values=tuple(range(n_max + 1)),
        t_values=tuple(values),
        h_values=values,
        a_values=approx,
        remainders={key: abs(values[key[1]] - a) / sizes[key] for key, a in approx.items()},
        **report,
    )


def remainder_study(model, traj, n_max, t_grid, *, growth_factor=10.0):
    """Measure R_n(t) for n = 0..n_max over t_grid.

    Before forming each remainder the trajectory's own error bound is
    required to sit below _GATE_FRAC (0.01) times the normalisation scale
    (4t)**(1/4) (ln t / t)**(n+1).  Without that gate a small reported
    R_n could be integration error rather than expansion accuracy, and
    a large one could be noise.
    """
    n_max = int(n_max)
    if n_max < 0:
        raise DomainError("n_max must be nonnegative")
    growth_factor = _growth_limit(growth_factor)
    times = remainder_grid(t_grid)
    with _workdps(max(model.dps, traj.dps) + 5):
        c = mp.mpf(model.c)
        h_values = {t: traj.eval_h(mp.mpf(t)) for t in times}
        bounds = {t: mp.mpf(traj.err_bound(mp.mpf(t))) for t in times}
        parts = {t: _profile_parts(t, n_max) for t in map(mp.mpf, times)}  # keyed by the mpf
        return _gated_report(
            h_values, bounds, n_max, lambda t, n: _scale(t, parts[t][1], n),
            lambda t: [parts[t][1] * acc
                       for acc in _expansion_sum("q", parts[t][0] - c, parts[t][2], mp.one)],
            "trajectory error bound {bound} exceeds {frac} of the remainder scale "
            "at n = {n}, t = {at}; integrate with tighter tolerances",
            growth_factor=growth_factor,
        )


def _check_shift(s, t_min):
    """Refuse a shift s that takes the least grid point t_min out of the
    grid's own range t > 1: below t + s = 0, A_n(c; t + s) is complex."""
    shifted = t_min + float(s)
    if shifted <= 1:
        raise DomainError("shift check needs t + s > 1, got %g at t = %g" % (shifted, t_min))


def shift_invariance_check(model, n, s, t_grid):
    """Largest normalised defect of the shift identity on a grid.

    Shifting time by s maps a solution to another solution whose
    constant is c - 4 s, so A_n(c; t + s) and A_n(c - 4 s; t) must
    agree to the order of the first neglected term.  Returns
    max_t |A_n(c; t+s) - A_n(c-4s; t)| / ((4t)**(1/4) (ln t/t)**(n+1)).
    With s = 0 both sides coincide exactly and the result is zero.  A
    non-finite s is refused: its defect would be nan, which no tolerance
    test rejects; so is a shifted grid reaching t + s <= 1 (see
    _check_shift).
    """
    n = int(n)
    if n < 0:
        raise DomainError("expansion order must be nonnegative")
    _require_finite(s=s)
    times = _finite_points(t_grid, "grid point")
    if not times or times[0] <= 1:
        raise DomainError("shift check needs a nonempty grid with t > 1")
    _check_shift(s, times[0])
    shifted = model.shifted(s)
    with _workdps(model.dps):
        s, c, c_shifted = mp.mpf(s), mp.mpf(model.c), mp.mpf(shifted.c)
        worst = mp.zero
        for t_raw in times:
            t = mp.mpf(t_raw)
            parts = _profile_parts(t, n)
            lhs = _a_value(c, _profile_parts(t + s, n))
            rhs = _a_value(c_shifted, parts)
            worst = max(worst, abs(lhs - rhs) / _scale(t, parts[1], n))
        return worst


# ---------------------------------------------------------------------------
# the y - ln y = x analogue


def lambert_compare(n_max, x_grid, cfg=None, *, growth_factor=10.0):
    """Solve y - ln y = x numerically and compare with the expansion.

    The root on the branch y > 1 is exactly what the fourth-power
    substitution produces for the growth profile, with constant c = 0
    and no beta corrections; its expansion has the same form, with the
    Lambert family ptilde_k of gen_lambert_p in place of p_k:

        y(x) ~ Y_n(x) = x + sum_{k=0}^{n} ptilde_k(ln x) / x**k

    (the k = 0 term is ln x itself, read exactly, so the sums start at
    x + ln x).  Residuals |y - ln y - x| / x of the numeric root and
    normalised remainders |y - Y_n| / (ln x / x)**(n+1) are both recorded.  Before forming each remainder the root's
    resolution (its Newton stop over the slope 1 - 1/y) is required to sit
    below 0.01 of the normalisation scale, by the gated loop that
    remainder_study uses, so both return the same report type.  The grid
    must hold two distinct points above 1, checked before any root.
    """
    n_max = int(n_max)
    if n_max < 0:
        raise DomainError("n_max must be nonnegative")
    growth_factor = _growth_limit(growth_factor)
    xs = sorted(set(_finite_points(x_grid, "grid point")))
    if not xs:
        raise DomainError("empty x grid")
    if xs[0] <= 1:
        raise DomainError("the growing branch needs x > 1")
    if len(xs) < 2:
        raise DomainError(_ONE_POINT)
    cfg = cfg if cfg is not None else SolverConfig()
    with _workdps(cfg.effective_dps):
        y_values = {}
        residuals = {}
        resolution = {}
        for x_raw in xs:
            x = mp.mpf(x_raw)
            y = lambert_wm1_numeric(x, cfg)
            y_values[x_raw] = y
            resolution[x_raw] = lambert_root_tol(x, cfg) / (1 - 1 / y)
            # guard digits, so the rounding of y shows in the residual
            # instead of cancelling to zero at the working precision
            with _workdps(cfg.effective_dps + 20):
                residuals[x_raw] = abs(y - mp.log(y) - x) / x
        return _gated_report(
            y_values, resolution, n_max,
            lambda x, n: (mp.log(x) / x) ** (n + 1),
            lambda x: _expansion_sum("lambert", mp.log(x), _powers(x, n_max), x + mp.log(x)),
            "Lambert root resolution {bound} exceeds {frac} of the remainder scale {scale} "
            "at n = {n}, x = {at}; raise the working precision",
            growth_factor=growth_factor,
            residuals=residuals,
            columns=("x", "y_num", "Y_n"),
        )


class SyntheticTrajectory:
    """Trajectory stand-in built from an explicit formula.

    Quacks like the integrator output as far as the remainder study and
    the fit read it (eval_h, err_bound, dps) but reports zero error.
    Feeding those routines an input with exactly known behaviour, e.g. a
    model evaluated one order above the study order, separates what the
    expansion does from what the integrator does.
    """

    def __init__(self, fn, t_start, t_end, dps=30):
        if not float(t_end) > float(t_start):
            raise DomainError("need t_end > t_start")
        self._fn = fn
        self.t_start = float(t_start)
        self.t_end = float(t_end)
        self.dps = max(int(dps), 15)

    def eval_h(self, t):
        with _workdps(self.dps):
            return mp.mpf(self._fn(_check_in_range(t, self.t_start, self.t_end)))

    def err_bound(self, t):
        return mp.zero
