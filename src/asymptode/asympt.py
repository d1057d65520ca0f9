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
``lambert_compare`` cross-checks that analogue end to end.

Everything here evaluates exact rational polynomials with mpmath at a
configurable working precision; no floating-point coefficients enter.
Each q_k is a polynomial in the single variable w = 3z - c, and is
evaluated by Horner on its dense w-coefficients; the c-derivative needed
by the fit is -d/dw of the same coefficients.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from mpmath import mp

from .errors import AccuracyError, ConvergenceError, DomainError
from .families import gen_lambert_p, gen_q
from .numerics import SolverConfig, lambert_root_tol, lambert_wm1_numeric

__all__ = [
    "AsymptoticModel",
    "eval_A_n",
    "fit_c_from_trajectory",
    "RemainderReport",
    "remainder_study",
    "remainder_report_to_csv",
    "remainder_report_to_json",
    "shift_invariance_check",
    "lambert_compare",
    "lambert_report_to_csv",
    "lambert_report_to_json",
    "SyntheticTrajectory",
]


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
        if self.order < 0:
            raise DomainError("expansion order must be nonnegative")
        if self.dps < 15:
            raise DomainError("need at least 15 working digits")

    @classmethod
    def build(cls, c, order, dps=30):
        with mp.workdps(max(int(dps), 15)):
            return cls(c=mp.mpf(c), order=int(order), dps=int(dps))

    def shifted(self, s):
        """Model for the time-shifted solution h(t + s): c -> c - 4 s."""
        with mp.workdps(self.dps):
            return AsymptoticModel(c=self.c - 4 * mp.mpf(s), order=self.order, dps=self.dps)


def _horner(coeffs, u):
    """sum_j coeffs[j] u**j for exact rational coefficients, in mpmath."""
    acc = mp.zero
    for f in reversed(coeffs):
        acc = acc * u + mp.mpf(f.numerator) / f.denominator
    return acc


def _horner_deriv(coeffs, u):
    """d/du of sum_j coeffs[j] u**j, from the same coefficients."""
    acc = mp.zero
    for j in range(len(coeffs) - 1, 0, -1):
        f = coeffs[j]
        acc = acc * u + mp.mpf(j * f.numerator) / f.denominator
    return acc


def _a_value(c, t, n):
    # caller supplies the mp context; t, c already mpf
    acc = mp.one
    if n >= 1:
        w = 3 * mp.log(4 * t) - c
        tk = mp.one
        q = gen_q(n)
        for k in range(1, n + 1):
            tk *= t
            acc += _horner(q.coeffs(k), w) / tk
    return (4 * t) ** (mp.mpf(1) / 4) * acc


def _a_slope_c(c, t, n):
    # d A_n / d c at fixed t: with w = 3 ln 4t - c, d/dc = -d/dw
    acc = mp.zero
    if n >= 1:
        w = 3 * mp.log(4 * t) - c
        tk = mp.one
        q = gen_q(n)
        for k in range(1, n + 1):
            tk *= t
            acc -= _horner_deriv(q.coeffs(k), w) / tk
    return (4 * t) ** (mp.mpf(1) / 4) * acc


def eval_A_n(model, t, n=None):
    """Truncated large-time profile A_n(t).

    A_0(t) = (4t)**(1/4); each further order divides by another power
    of t and consumes the next q polynomial at z = ln 4t.
    """
    n = model.order if n is None else int(n)
    if n < 0:
        raise DomainError("expansion order must be nonnegative")
    with mp.workdps(model.dps):
        t = mp.mpf(t)
        if t <= 0:
            raise DomainError("A_n(t) needs t > 0")
        return _a_value(mp.mpf(model.c), t, n)


def fit_c_from_trajectory(traj, n=4, t_fit=(1.0e4, 1.0e5, 1.0e6), spread_tol=1e-7):
    """Recover the expansion constant from trajectory values alone.

    At each fit time, Newton iteration on c solves A_n(c; t) = h(t);
    the expansion is nearly linear in c so a few steps suffice.  The
    per-time fits are combined by median, and their spread is gated:
    fit times that disagree mean the order n or the trajectory accuracy
    cannot support the requested constant, and returning a number then
    would be misleading.

    This route never touches the integral definition of c, so it is
    an independent check on it.
    """
    n = int(n)
    if n < 1:
        raise DomainError("fitting c needs at least one expansion term")
    times = sorted(float(t) for t in (t_fit if hasattr(t_fit, "__iter__") else [t_fit]))
    if not times:
        raise DomainError("no fit times given")
    dps = traj.stats["dps"]
    with mp.workdps(dps):
        fits = []
        for t_raw in times:
            t = mp.mpf(t_raw)
            h = traj.eval_h(t)
            # first-order closed form as the starting point
            c = 3 * mp.log(4 * t) - 16 * t * (h / (4 * t) ** (mp.mpf(1) / 4) - 1)
            tol = mp.mpf(10) ** (-(dps - 8))
            for _ in range(64):
                slope = _a_slope_c(c, t, n)
                if slope == 0:
                    raise ConvergenceError("flat c-derivative in fit at t = %s" % t_raw)
                step = (_a_value(c, t, n) - h) / slope
                c -= step
                if abs(step) <= tol * max(mp.one, abs(c)):
                    break
            else:
                raise ConvergenceError("c fit failed to settle at t = %s" % t_raw)
            fits.append(c)
        fits.sort()
        m = len(fits)
        med = fits[m // 2] if m % 2 else (fits[m // 2 - 1] + fits[m // 2]) / 2
        spread = fits[-1] - fits[0]
        if spread > mp.mpf(spread_tol):
            raise AccuracyError(
                "fit times disagree on c by %s (tolerance %s); "
                "raise the fit order or tighten the solver" % (mp.nstr(spread, 6), spread_tol)
            )
        return med


# ---------------------------------------------------------------------------
# remainder measurement


@dataclass
class RemainderReport:
    """Normalised remainders of A_n against a trajectory, on a t-grid.

    ``remainders[(n, t)]`` holds R_n(t); ``growth(n)`` compares the last
    grid point against the first, which is the boundedness statement in
    its crudest testable form.

    lambert_compare reports the y - ln y = x analogue in the same form:
    its grid is in x, ``h_values`` holds the numeric roots y, ``a_values``
    the expansion Y_n, and ``residuals`` the relative residuals
    |y - ln y - x| / x of the roots.
    """

    n_values: tuple
    t_values: tuple
    h_values: dict = field(repr=False)
    a_values: dict = field(repr=False)
    remainders: dict = field(repr=False)
    growth_factor: float = 10.0
    residuals: dict = field(default_factory=dict, repr=False)

    @property
    def max_residual(self):
        return max(self.residuals.values())

    def growth(self, n):
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
        out = []
        for n in self.n_values:
            for t in self.t_values:
                out.append((n, t, self.h_values[t], self.a_values[(n, t)], self.remainders[(n, t)]))
        return out


def remainder_study(model, traj, n_max, t_grid, *, growth_factor=10.0, gate_frac=0.01):
    """Measure R_n(t) for n = 0..n_max over t_grid.

    Before forming each remainder the trajectory's own error bound is
    required to sit below gate_frac times the normalisation scale
    (4t)**(1/4) (ln t / t)**(n+1).  Without that gate a small reported
    R_n could be integration error rather than expansion accuracy, and
    a large one could be noise.
    """
    n_max = int(n_max)
    if n_max < 0:
        raise DomainError("n_max must be nonnegative")
    times = sorted(set(float(t) for t in t_grid))
    if not times:
        raise DomainError("empty t grid")
    if times[0] <= 1:
        raise DomainError("remainder normalisation needs t > 1")
    dps = max(model.dps, traj.stats["dps"])
    with mp.workdps(dps + 5):
        c = mp.mpf(model.c)
        h_values = {}
        bounds = {}
        for t_raw in times:
            t = mp.mpf(t_raw)
            h_values[t_raw] = traj.eval_h(t)
            bounds[t_raw] = mp.mpf(traj.err_bound(t))
        a_values = {}
        remainders = {}
        for n in range(n_max + 1):
            for t_raw in times:
                t = mp.mpf(t_raw)
                scale = (4 * t) ** (mp.mpf(1) / 4) * (mp.log(t) / t) ** (n + 1)
                if bounds[t_raw] > mp.mpf(gate_frac) * scale:
                    raise AccuracyError(
                        "trajectory error bound %s exceeds %s of the remainder scale "
                        "at n = %d, t = %s; integrate with tighter tolerances"
                        % (mp.nstr(bounds[t_raw], 4), gate_frac, n, t_raw)
                    )
                a = _a_value(c, t, n)
                a_values[(n, t_raw)] = a
                remainders[(n, t_raw)] = abs(h_values[t_raw] - a) / scale
    return RemainderReport(
        n_values=tuple(range(n_max + 1)),
        t_values=tuple(times),
        h_values=h_values,
        a_values=a_values,
        remainders=remainders,
        growth_factor=float(growth_factor),
    )


def remainder_report_to_csv(report):
    lines = ["n,t,h_num,A_n,ratio"]
    for n, t, h, a, r in report.rows():
        lines.append("%d,%r,%s,%s,%s" % (n, t, mp.nstr(h, 19), mp.nstr(a, 19), mp.nstr(r, 19)))
    return "\n".join(lines) + "\n"


def remainder_report_to_json(report):
    payload = {
        "growth_factor": report.growth_factor,
        "growth": {str(n): mp.nstr(report.growth(n), 12) for n in report.n_values},
        "ok": report.ok,
        "rows": [
            {
                "n": n,
                "t": t,
                "h_num": mp.nstr(h, 19),
                "A_n": mp.nstr(a, 19),
                "ratio": mp.nstr(r, 19),
            }
            for n, t, h, a, r in report.rows()
        ],
    }
    return json.dumps(payload, indent=2)


def shift_invariance_check(model, n, s, t_grid):
    """Largest normalised defect of the shift identity on a grid.

    Shifting time by s maps a solution to another solution whose
    constant is c - 4 s, so A_n(c; t + s) and A_n(c - 4 s; t) must
    agree to the order of the first neglected term.  Returns
    max_t |A_n(c; t+s) - A_n(c-4s; t)| / ((4t)**(1/4) (ln t/t)**(n+1)).
    With s = 0 both sides coincide exactly and the result is zero.
    """
    n = int(n)
    if n < 0:
        raise DomainError("expansion order must be nonnegative")
    times = sorted(float(t) for t in t_grid)
    if not times or times[0] <= 1:
        raise DomainError("shift check needs a nonempty grid with t > 1")
    shifted = model.shifted(s)
    with mp.workdps(model.dps):
        s = mp.mpf(s)
        worst = mp.zero
        for t_raw in times:
            t = mp.mpf(t_raw)
            lhs = _a_value(mp.mpf(model.c), t + s, n)
            rhs = _a_value(mp.mpf(shifted.c), t, n)
            scale = (4 * t) ** (mp.mpf(1) / 4) * (mp.log(t) / t) ** (n + 1)
            worst = max(worst, abs(lhs - rhs) / scale)
        return worst


# ---------------------------------------------------------------------------
# the y - ln y = x analogue


def _lambert_value(x, n):
    # caller supplies the mp context; x already mpf
    z = mp.log(x)
    lam = gen_lambert_p(n)
    acc = x
    xk = mp.one
    for k in range(0, n + 1):
        acc += _horner(lam.coeffs(k), z) / xk
        xk *= x
    return acc


def lambert_compare(n_max, x_grid, cfg=None, *, growth_factor=10.0):
    """Solve y - ln y = x numerically and compare with the expansion.

    The root on the branch y > 1 is exactly what the fourth-power
    substitution produces for the growth profile, with constant c = 0
    and no beta corrections; its expansion uses the same polynomial
    recursion specialised accordingly:

        y(x) ~ x + sum_{k=0}^{n} ptilde_k(ln x) / x**k

    (the k = 0 term is ln x itself).  Residuals |y - ln y - x| / x of
    the numeric root and normalised remainders |y - Y_n| / (ln x / x)**(n+1)
    are both recorded.  Before forming each remainder the root's
    resolution (its Newton stop over the slope 1 - 1/y) is required to sit
    below 0.01 of the normalisation scale, as in remainder_study, which
    also returns the same report type.
    """
    n_max = int(n_max)
    if n_max < 0:
        raise DomainError("n_max must be nonnegative")
    xs = sorted(set(float(x) for x in x_grid))
    if not xs:
        raise DomainError("empty x grid")
    if xs[0] <= 1:
        raise DomainError("the growing branch needs x > 1")
    cfg = cfg if cfg is not None else SolverConfig()
    with mp.workdps(cfg.effective_dps):
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
            with mp.workdps(cfg.effective_dps + 20):
                residuals[x_raw] = abs(y - mp.log(y) - x) / x
        approx = {}
        remainders = {}
        for n in range(n_max + 1):
            for x_raw in xs:
                x = mp.mpf(x_raw)
                scale = (mp.log(x) / x) ** (n + 1)
                if resolution[x_raw] > mp.mpf("0.01") * scale:
                    raise AccuracyError(
                        "Lambert root resolution %s exceeds 0.01 of the remainder scale %s "
                        "at n = %d, x = %s; raise the working precision"
                        % (mp.nstr(resolution[x_raw], 4), mp.nstr(scale, 4), n, x_raw)
                    )
                approx[(n, x_raw)] = _lambert_value(x, n)
                remainders[(n, x_raw)] = abs(y_values[x_raw] - approx[(n, x_raw)]) / scale
    return RemainderReport(
        n_values=tuple(range(n_max + 1)),
        t_values=tuple(xs),
        h_values=y_values,
        a_values=approx,
        remainders=remainders,
        growth_factor=float(growth_factor),
        residuals=residuals,
    )


def lambert_report_to_csv(report):
    lines = ["n,x,y_num,Y_n,ratio"]
    for n, x, y, a, r in report.rows():
        lines.append("%d,%r,%s,%s,%s" % (n, x, mp.nstr(y, 19), mp.nstr(a, 19), mp.nstr(r, 19)))
    return "\n".join(lines) + "\n"


def lambert_report_to_json(report):
    payload = {
        "max_residual": mp.nstr(report.max_residual, 12),
        "growth": {str(n): mp.nstr(report.growth(n), 12) for n in report.n_values},
        "rows": [
            {
                "n": n,
                "x": x,
                "y_num": mp.nstr(y, 19),
                "Y_n": mp.nstr(a, 19),
                "ratio": mp.nstr(r, 19),
            }
            for n, x, y, a, r in report.rows()
        ],
    }
    return json.dumps(payload, indent=2)


class SyntheticTrajectory:
    """Trajectory stand-in built from an explicit formula.

    Quacks like the integrator output (eval_h, eval_hprime, err_bound,
    samples, stats) but reports zero error.  Feeding the remainder and
    fit routines an input with exactly known behaviour, e.g. a model
    evaluated one order above the study order, separates what the
    expansion does from what the integrator does.
    """

    def __init__(self, fn, t_start, t_end, dps=30):
        if not float(t_end) > float(t_start):
            raise DomainError("need t_end > t_start")
        self._fn = fn
        self.t_start = float(t_start)
        self.t_end = float(t_end)
        self._dps = max(int(dps), 15)

    def eval_h(self, t):
        with mp.workdps(self._dps):
            t = mp.mpf(t)
            if t < self.t_start or t > self.t_end:
                raise DomainError("t outside the synthetic range")
            return mp.mpf(self._fn(t))

    def eval_hprime(self, t):
        # symmetric difference, folded inward at the endpoints
        with mp.workdps(self._dps + 5):
            t = mp.mpf(t)
            step = mp.mpf(10) ** (-(self._dps // 3)) * max(mp.one, abs(t))
            lo = max(t - step, mp.mpf(self.t_start))
            hi = min(t + step, mp.mpf(self.t_end))
            return (self.eval_h(hi) - self.eval_h(lo)) / (hi - lo)

    def err_bound(self, t):
        return mp.zero

    def samples(self):
        out = []
        for t in (self.t_start, self.t_end):
            out.append((mp.mpf(t), self.eval_h(t), self.eval_hprime(t)))
        return out

    @property
    def stats(self):
        return {"steps": 0, "rejected": 0, "rel_tol": 0.0, "abs_tol": 0.0, "dps": self._dps}
