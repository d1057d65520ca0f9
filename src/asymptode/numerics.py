"""High-accuracy numerical layer: trajectories, the function G, the constant c.

Everything here runs in arbitrary-precision arithmetic (mpmath).  The driver
is the remainder verification: at expansion order 3 and t = 10^6 the quantity
being resolved is of size (4t)^{1/4} (ln t / t)^4 ~ 1e-18, far below double
precision, so the whole numerical stack works at a configurable number of
decimal digits derived from the requested tolerances.

Integrator.  Both ODEs are solved by an adaptive one-step method that builds
the exact local Taylor series of the solution at each accepted point:

* the second-order problem as the system x' = y, y' = x^{-3} - y, whose
  Taylor coefficients follow from a reciprocal-series recurrence for 1/x;
* the first-order radial equation g' = (1/z^2)(1 - 1/g) - (3/4) g/z,
  integrated downward from z0 toward the singular point z = 0, with the same
  incremental reciprocal trick for 1/g.

The coefficient recurrences run on fixed-point integers rather than mpf
objects (the standard way to run such recurrences, Brent & Zimmermann,
Modern Computer Arithmetic, 2010, ch. 3-4): coefficient j of a series is
the int mantissa of its scaled value a_j rho^j at the binary scale 2^-F,
with F at least mp.prec + 64 guard bits (more when the series' leading
value is below 1, so that it keeps that many significant bits).
rho = 2^k is a power of two at or above the step, so the scaled
coefficients stay O(1), their errors are not amplified over the step, and
rho enters as shifts: for g, rho lies just above z_s, since g's steps stay
below 0.45 z_s; for the trajectory, rho is set between two and four times
the previous step's guess, and the coefficients are recomputed with a
wider rho in the rare case the new guess exceeds it.  Every convolution
coefficient is one exact integer dot product shifted once.

The step loops stay on the mantissas as well.  The values at a step end
are one integer Horner evaluation each in u = h / rho, rounded once into
an mpf (the same evaluation of Brent & Zimmermann, ch. 4).  The step guess
and the truncation estimate read only the top three coefficients, which
are the only ones rounded into mpfs during stepping; the estimate is
summed in mpf because it is a bound that must keep its relative accuracy
where the terms fall below 2^-F.  A stored step keeps its mantissas until
dense output first reads it, and then holds the mpf coefficients instead.

The series order is tied to the working precision; the step size comes from
a coefficient-ratio estimate of the local radius of convergence and is
verified against the tolerance by the size of the last retained terms, with
rejection and halving when the check fails.  Each accepted step keeps its
Taylor polynomial, which doubles as dense output.  The reported global error
bound is the running sum of accepted local error estimates; for both systems
the variational dynamics are contracting in the direction of integration
(the -y damping for the trajectory, the 1/z^2 collapse for g), so the sum is
a conservative estimate rather than a lower bound.

Long times.  The -y damping also caps the direct Taylor step length at a
value independent of t: every step's truncation error re-seeds the decayed
mode at tolerance level, and representing exp(-u) by a degree-P polynomial
is only accurate for |u| up to about P/e.  Direct stepping to t = 10^6 would
therefore cost tens of thousands of steps.  Instead, once the slope is
positive (an absorbing property here) the order of the equation drops: along
such a stretch g = h^3 h' is a function of z = 4/h^4 and h^4 is recovered by
inverting the strictly increasing time map G.  Trajectories switch to that
exact reduction after a configurable direct span; evaluations beyond the
switch cost a few evaluations of G each, with no step-count growth in t.

G and c.  The g integrator carries one extra Taylor component,
the running integral I(z) = int_z^{z0} r of the regular integrand
r(z) = (1/g(z) - 1 + 3z/4) 4/z^2, whose Taylor coefficients follow in O(P)
from the 1/g series each step already builds (augmented quadrature in the
sense of Jorba & Zou, Exp. Math. 14, 2005).  Its truncation is checked in
the same step-acceptance test as g's.  With s = 4/z,
G(x) = int_{h0^4}^x ds / g(4/s) = (x - h0^4) - 3 ln(x / h0^4) + I(4/x),
which is dense output on [h0^4, S] (S = 4/z_c); above S the reciprocal
series sum beta_k (4/s)^k is integrated exactly term by term.  The head of
c is I(z_c), and its tail is the same series integrated from z_c to 0.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace
from operator import mul
from typing import Sequence

from mpmath import mp
from mpmath.libmp import from_man_exp, round_nearest, to_fixed

from .errors import (
    AccuracyError,
    ConvergenceError,
    DomainError,
    IntegrationError,
)
from .families import gen_alpha, gen_beta

__all__ = [
    "InitialData",
    "SolverConfig",
    "Trajectory",
    "GProblem",
    "integrate_h",
    "solve_g",
    "compute_G",
    "compute_c",
    "invert_G",
    "lambert_root_tol",
    "lambert_wm1_numeric",
    "g_problem_for_data",
    "compute_c_for_data",
    "trajectory_to_csv",
]

_SERIES_ORDER = 24  # truncation used for g and 1/g below the crossover
_GUARD_BITS = 64  # fixed-point bits of the Taylor kernels below mp.prec


def _require_finite(**values) -> None:
    for name, value in values.items():
        if not mp.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and caps for the numerical layer.

    ``rel_tol``/``abs_tol`` bound the local error per integrator step.
    ``direct_span`` is the stretch integrated by direct Taylor steps before
    a trajectory is allowed to hand off to the first-order reduction.
    ``fp_tol`` is the residual tolerance of the G inversion; ``fp_max_iter``
    caps the iterations of every root finder (G inversion and the Lambert
    root).  ``dps`` pins the working decimal precision; left unset, it is
    derived from the tolerances with guard digits.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_steps: int = 100_000
    direct_span: float = 128.0
    fp_tol: float = 1e-12
    fp_max_iter: int = 200
    dps: int | None = None

    def __post_init__(self) -> None:
        _require_finite(
            rel_tol=self.rel_tol,
            abs_tol=self.abs_tol,
            direct_span=self.direct_span,
            fp_tol=self.fp_tol,
        )
        if not (self.rel_tol > 0 and self.abs_tol > 0 and self.fp_tol > 0):
            raise DomainError("tolerances must be positive")
        if self.max_steps < 1 or self.fp_max_iter < 1:
            raise DomainError("step and iteration caps must be >= 1")
        if self.direct_span < 0:
            raise DomainError("direct_span must be nonnegative")
        if self.dps is not None and self.dps < 15:
            raise DomainError("dps below 15 defeats the purpose of this layer")

    @property
    def effective_dps(self) -> int:
        if self.dps is not None:
            return self.dps
        digits = -math.log10(min(self.rel_tol, self.abs_tol))
        return max(30, int(math.ceil(digits)) + 18)

    @property
    def taylor_order(self) -> int:
        return max(24, int(1.2 * self.effective_dps) + 8)


@dataclass(frozen=True)
class InitialData:
    """Initial condition (t0, h0, h1) with h(t0) = h0 > 0, h'(t0) = h1."""

    t0: float = 0.0
    h0: float = 1.0
    h1: float = 1.0

    def __post_init__(self) -> None:
        _require_finite(t0=self.t0, h0=self.h0, h1=self.h1)
        if not self.h0 > 0:
            raise DomainError("h0 must be positive")


# -- local Taylor models -------------------------------------------------------


def _horner(coeffs: Sequence, u):
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * u + c
    return acc


def _step_guess(coeff_sets, eps_loc, order):
    """Largest step for which the top Taylor terms stay below eps_loc.

    Reads the last two entries of each set, the coefficients of degree
    ``order`` and ``order - 1``.  Infinite when every one of them is zero, as
    it is when the terms fall below the kernels' fixed-point resolution: the
    caller's caps and the acceptance test then bound the step.
    """
    best = None
    for coeffs in coeff_sets:
        for j, c in ((order, coeffs[-1]), (order - 1, coeffs[-2])):
            mag = abs(c)
            if mag != 0:
                cand = (eps_loc / mag) ** (mp.one / j)
                if best is None or cand < best:
                    best = cand
    if best is None:
        return mp.inf
    return mp.mpf("0.8") * best


def _fixed(v, F):
    """Mantissa of the mpf v at the binary scale 2^-F (truncated)."""
    return to_fixed(v._mpf_, F)


def _shift(m, k):
    """m 2^k for a signed shift k, flooring when k < 0."""
    return m << k if k >= 0 else m >> -k


def _fixed_scale(v):
    """F for a series whose leading value v must keep mp.prec + _GUARD_BITS
    bits: the guard bits, plus the binary magnitude of v when |v| < 1."""
    return mp.prec + _GUARD_BITS + max(0, -mp.mag(v))


def _to_mpf(m, e):
    """The mpf m 2^e, rounded once to mp.prec."""
    return mp.make_mpf(from_man_exp(m, e, mp.prec, round_nearest))


def _unscale(head, mants, F, k):
    """[head] + the mpf values mants[j] 2^(-F - k j) for j >= 1.

    Undoes the fixed-point scale and the rho = 2^k scaling of the independent
    variable with one rounding to mp.prec per coefficient; the j = 0 entry is
    the caller's own mpf, passed through unchanged.
    """
    return [head] + [_to_mpf(m, -F - k * j) for j, m in enumerate(mants[1:], 1)]


def _top_coeffs(mants, F, k):
    """The three highest coefficients as mpfs, unscaled as _unscale would."""
    top = len(mants) - 1
    return [_to_mpf(mants[j], -F - k * j) for j in range(top - 2, top + 1)]


def _tail_estimate(tops, top, h):
    """Crude truncation bound: twice the sum of the last three terms at h.

    ``tops`` are the coefficients of degree top - 2 .. top as mpfs.  The sum
    runs in mpf, not at the kernels' absolute scale 2^-F: it is a bound
    compared against the local tolerance and must keep its relative accuracy
    when the terms fall far below 2^-F.
    """
    a = abs(h)
    hp = a ** (top - 2)
    est = mp.zero
    for c in tops:
        est += abs(c) * hp
        hp *= a
    return 2 * est


def _fixed_eval(mants, h, F, k):
    """A kernel's series at the offset h, by integer Horner, rounded once.

    mants are the scaled mantissas at scale 2^-F and rho = 2^k, so the
    Horner variable is u = h / rho.  U holds u at the scale 2^-E, with E
    extended past F when |u| < 1 so that U keeps F significant bits: at a
    fixed 2^-F a short step (h far below rho, as on a first step or after
    halvings) would lose u altogether.  Each Horner stage floors once at
    2^-F, far below the rounding of the result.
    """
    E = F + max(0, k - mp.mag(h))
    U = _fixed(h, E - k)
    acc = mants[-1]
    for m in reversed(mants[:-1]):
        acc = (acc * U >> E) + m
    return _to_mpf(acc, -F)


def _h_system_coeffs(x0, y0, order, k):
    """Taylor coefficients at one point for x' = y, y' = x^{-3} - y.

    Fixed point: coefficient j of each series is held as the int mantissa of
    its scaled value X_j rho^j at scale 2^-F, where rho = 2^k is a power of
    two at or above the step (so the scaled coefficients stay O(1) and their
    errors are not amplified on [0, rho]) and F = _fixed_scale(x0), at least
    _GUARD_BITS bits finer than the working precision.  The reciprocal
    v = 1/x follows from x v = 1 and x^{-3} = v^2 v from two more
    convolutions, each an exact integer dot product shifted once:
    O(order^2) int multiplications.  Differentiation multiplies by rho, a
    shift by k.  Returns the mantissas (X, Y) and F; the j = 0 entries are
    x0 and y0 at scale 2^-F, exactly.
    """
    F = _fixed_scale(x0)
    X = [_fixed(x0, F)]
    Y = [_fixed(y0, F)]
    v0 = (1 << 2 * F) // X[0]
    V = [v0]
    V2 = [v0 * v0 >> F]
    U = [V2[0] * v0 >> F]  # x^{-3}
    for j in range(order):
        m = j + 1
        X.append(_shift(Y[j], k) // m)
        Y.append(_shift(U[j] - Y[j], k) // m)
        if m == order:
            break
        V.append(-(v0 * (sum(map(mul, X[1:], reversed(V))) >> F)) >> F)
        V2.append(sum(map(mul, V, reversed(V))) >> F)
        U.append(sum(map(mul, V2, reversed(V))) >> F)
    return X, Y, F


def _g_equation_coeffs(z_s, g_s, order):
    """Taylor coefficients of g at z_s for z^2 g' = 1 - 1/g - (3/4) z g.

    Same fixed-point representation as _h_system_coeffs, with
    F = _fixed_scale(g_s), rho = 2^k the power of two just above z_s (steps
    stay below 0.45 z_s) and zeta = z_s / rho in [1/2, 1).  In scaled
    coefficients the recurrence is
    c_{j+1} = ((delta_{j0} - r_j) / rho - (2j + 3/4) zeta c_j
    - (j - 1/4) c_{j-1}) / (zeta^2 (j + 1)), and 1/g follows from g r = 1
    by one convolution per coefficient.  Returns the mantissas of g and of
    1/g, F and k; the 1/g series feeds _running_integral_coeffs.
    """
    F = _fixed_scale(g_s)
    k = mp.mag(z_s)
    zeta = _fixed(z_s, F - k)
    inv_zeta2 = (1 << 3 * F) // (zeta * zeta)
    C = [_fixed(g_s, F)]
    r0 = (1 << 2 * F) // C[0]
    R = [r0]
    for j in range(order):
        num = -R[j]
        if j == 0:
            num += 1 << F
        num = _shift(num, -k) - ((8 * j + 3) * zeta * C[j] >> F + 2)
        if j >= 1:
            num -= (4 * j - 1) * C[j - 1] >> 2
        C.append((num * inv_zeta2 >> F) // (j + 1))
        R.append(-(r0 * (sum(map(mul, C[1:], reversed(R))) >> F)) >> F)
    return C, R, F, k


def _running_integral_coeffs(z_s, R, F, k, base):
    """Taylor coefficients at z_s of I(z) = base + int_z^{z_s} r.

    r(z) = (1/g - 1 + 3z/4) 4/z^2 is the regular integrand of G and c, and
    R is the fixed-point 1/g series at z_s from _g_equation_coeffs
    (mantissas at scale 2^-F, rho = 2^k).  With z = z_s + u, the identity
    r (z_s + u)^2 = 4 (1/g - 1 + 3 (z_s + u)/4) gives r's scaled
    coefficients f_j = (4 d_j / rho^2 - 2 zeta f_{j-1} - f_{j-2}) / zeta^2
    in O(order), with d the scaled coefficients of the right-hand side;
    I' = -r integrates them termwise, one shift by k each.  Returns the
    mantissas of I at the same scale, one degree above R's.
    """
    zeta = _fixed(z_s, F - k)
    inv_zeta2 = (1 << 3 * F) // (zeta * zeta)
    D = list(R)
    D[0] += (_shift(3 * zeta, k) >> 2) - (1 << F)
    D[1] += 3 << F + k - 2
    f_prev2 = f_prev = 0
    I = [_fixed(base, F)]
    for j, d in enumerate(D):
        acc = _shift(d, 2 - 2 * k) - (zeta * f_prev >> F - 1) - f_prev2
        f = acc * inv_zeta2 >> F
        I.append(-_shift(f, k) // (j + 1))
        f_prev2, f_prev = f_prev, f
    return I


@dataclass(slots=True)
class _Step:
    """One accepted Taylor step: the two series x and y at t_start.

    x is h for trajectory steps and g for g steps; y is h' for trajectory
    steps and the running integral I for g steps.

    The step holds one representation of its polynomials.  It keeps the
    kernels' fixed-point mantissas (X, Y, F, k) until dense output first
    reads it; that read unscales them into mpf coefficient lists and drops
    the mantissas.  Many steps are never read again.
    """

    t_start: object  # mpf
    length: object   # mpf, signed offset of the step end from t_start
    x0: object       # mpf values of x and y at t_start
    y0: object
    err_cum: object  # cumulative error bound at the step end
    _mants: tuple | None
    _coeffs: tuple | None = None

    def coeffs(self):
        """(x_coeffs, y_coeffs) as mpfs in powers of the offset from t_start."""
        if self._coeffs is None:
            X, Y, F, k = self._mants
            self._coeffs = (_unscale(self.x0, X, F, k), _unscale(self.y0, Y, F, k))
            self._mants = None
        return self._coeffs

    def eval_x(self, t):
        return _horner(self.coeffs()[0], t - self.t_start)

    def eval_y(self, t):
        return _horner(self.coeffs()[1], t - self.t_start)


class Trajectory:
    """Dense solution of the second-order problem on [t0, t_end].

    Two regimes.  The leading span is integrated directly, one Taylor
    polynomial per accepted step.  Once the slope is positive and the
    configured direct span is covered, the solution continues through the
    exact reduction of order: with g = h^3 h' as a function of z = 4/h^4,
    the time map G is strictly increasing and h(t)^4 is its inverse at
    4 (t - t_switch), found by invert_G's bracketed Newton on the dense G
    below.  The reduction is an identity along any stretch with
    h' > 0 (an absorbing condition), not an approximation; the switch point
    supplies its data.

    ``eval_h``/``eval_hprime`` evaluate whichever regime contains t;
    ``err_bound`` reports a conservative error estimate at t (summed local
    step budgets, transported through the reduction's integrand-noise
    model past the switch).
    """

    def __init__(self, data, cfg, steps, t_end, rejected, dps, reduction=None):
        self.data = data
        self.cfg = cfg
        self._steps = steps
        self._starts = [s.t_start for s in steps]
        self._dps = dps
        self.t_start = steps[0].t_start
        self.t_end = t_end
        self.n_steps = len(steps)
        self.n_rejected = rejected
        # (problem, t_switch, x_switch, y_switch) once handed off, else None
        self._reduction = reduction
        if reduction is not None:
            # drive the inversion to working precision, not to cfg.fp_tol:
            # the trajectory's own accuracy is on the line here
            self._inv_cfg = replace(
                cfg, fp_tol=float(mp.mpf(10) ** (-(dps - 9))), dps=dps
            )
        self._h4_cache = {}
        self._sample_cache = None

    @property
    def g_problem(self):
        """First-order problem backing the reduction, or None."""
        return self._reduction[0] if self._reduction is not None else None

    @property
    def switch_time(self):
        return self._reduction[1] if self._reduction is not None else None

    def _check_range(self, t):
        if t < self.t_start or t > self.t_end:
            raise DomainError(
                f"t={t} outside the integrated range "
                f"[{self.t_start}, {self.t_end}]"
            )

    def _in_reduction(self, t):
        return self._reduction is not None and t > self._reduction[1]

    def _phase1_segment(self, t):
        idx = bisect.bisect_right(self._starts, t) - 1
        return self._steps[max(idx, 0)]

    def _reduced_h4(self, t):
        """h(t)^4 past the switch, inverting the time map; memoized."""
        problem, t_sw, _, _ = self._reduction
        hit = self._h4_cache.get(t)
        if hit is not None:
            return hit
        val = invert_G(4 * (t - t_sw), problem, self._inv_cfg)
        if len(self._h4_cache) < 8192:
            self._h4_cache[t] = val
        return val

    def eval_h(self, t):
        with mp.workdps(self._dps):
            t = mp.mpf(t)
            self._check_range(t)
            if self._in_reduction(t):
                return self._reduced_h4(t) ** (mp.one / 4)
            return self._phase1_segment(t).eval_x(t)

    def eval_hprime(self, t):
        with mp.workdps(self._dps):
            t = mp.mpf(t)
            self._check_range(t)
            if self._in_reduction(t):
                problem = self._reduction[0]
                s = self._reduced_h4(t)
                # h' = g(4/h^4) / h^3
                return problem.eval_g(4 / s) * s ** (-mp.mpf(3) / 4)
            return self._phase1_segment(t).eval_y(t)

    def err_bound(self, t):
        """Conservative estimate of |h_computed(t) - h(t)|."""
        with mp.workdps(self._dps):
            t = mp.mpf(t)
            self._check_range(t)
            if not self._in_reduction(t):
                return self._phase1_segment(t).err_cum
            problem, _, x_sw, _ = self._reduction
            cum1 = self._steps[-1].err_cum
            s_t = self._reduced_h4(t)
            # error in the time-map argument: anchor shift from the direct
            # phase, integrand noise over the covered span, precision
            # floor, inversion tolerance
            noise = problem.ode_err + mp.mpf(self.cfg.abs_tol) + mp.mpf(
                self.cfg.rel_tol
            )
            d_arg = (
                4 * x_sw**3 * cum1
                + noise * (s_t - problem.anchor)
                + mp.mpf(10) ** (-(self._dps - 10)) * max(mp.one, s_t)
                + 2 * mp.mpf(self._inv_cfg.fp_tol)
            )
            g_cap = max(2 * problem.g0, mp.mpf(2))  # |ds/dG| = g along the arc
            return cum1 + g_cap * d_arg / (4 * s_t ** (mp.mpf(3) / 4))

    def samples(self):
        """(t, h, h') at the direct step points and, past the switch, on a
        geometric grid refining toward the switch; endpoints included."""
        if self._sample_cache is not None:
            return list(self._sample_cache)
        with mp.workdps(self._dps):
            out = [(s.t_start, s.x0, s.y0) for s in self._steps]
            if self._reduction is None:
                last = self._steps[-1]
                t_end = self.t_end
                out.append((t_end, last.eval_x(t_end), last.eval_y(t_end)))
            else:
                _, t_sw, x_sw, y_sw = self._reduction
                out.append((t_sw, x_sw, y_sw))
                offsets = []
                off = self.t_end - t_sw
                while True:
                    offsets.append(off)
                    off = off / 2
                    if off <= 1 or len(offsets) >= 60:
                        break
                for off in reversed(offsets):
                    t = t_sw + off
                    out.append((t, self.eval_h(t), self.eval_hprime(t)))
        self._sample_cache = out
        return list(out)

    @property
    def stats(self):
        info = {
            "steps": self.n_steps,
            "rejected": self.n_rejected,
            "rel_tol": self.cfg.rel_tol,
            "abs_tol": self.cfg.abs_tol,
            "dps": self._dps,
        }
        if self._reduction is not None:
            problem, t_sw, _, _ = self._reduction
            info["switch_time"] = float(t_sw)
            info["g_steps"] = len(problem._steps)
        return info


def integrate_h(data: InitialData, t_max, cfg: SolverConfig | None = None) -> Trajectory:
    """Integrate x' = y, y' = x^{-3} - y from data.t0 to t_max.

    Direct Taylor steps cover the transient and the configured direct span;
    the first accepted step end beyond that with positive slope hands off to
    the exact first-order reduction (see Trajectory), which carries the
    trajectory to arbitrarily large times without further stepping.  The
    returned object is dense on all of [t0, t_max] either way.
    """
    cfg = cfg or SolverConfig()
    dps = cfg.effective_dps
    order = cfg.taylor_order
    with mp.workdps(dps):
        t0 = mp.mpf(data.t0)
        t_max = mp.mpf(t_max)
        _require_finite(t_max=t_max)
        if not t_max > t0:
            raise DomainError("t_max must exceed t0")
        span_direct = mp.mpf(cfg.direct_span)
        x, y = mp.mpf(data.h0), mp.mpf(data.h1)
        t = t0
        cum_err = mp.zero
        steps: list[_Step] = []
        rejected = 0
        reduction = None
        k = 0  # the kernels' scale rho = 2^k, kept at or above the step
        while t < t_max:
            if len(steps) >= cfg.max_steps:
                raise IntegrationError(
                    f"step budget {cfg.max_steps} exhausted at t={t}"
                )
            eps_loc = mp.mpf(cfg.abs_tol) + mp.mpf(cfg.rel_tol) * max(
                abs(x), abs(y)
            )
            while True:
                k_kernel = k  # the scale of X and Y; k moves on below
                X, Y, F = _h_system_coeffs(x, y, order, k)
                tops = (_top_coeffs(X, F, k), _top_coeffs(Y, F, k))
                h = _step_guess(tops, eps_loc, order)
                if t + h > t_max:
                    h = t_max - t
                fits = h <= mp.ldexp(1, k)
                k = mp.mag(h) + 1  # rho in (2h, 4h]; recompute if h outgrew it
                if fits:
                    break
            halvings = 0
            while True:
                est = max(_tail_estimate(c, order, h) for c in tops)
                x_new = _fixed_eval(X, h, F, k_kernel)
                if est <= eps_loc and x_new > 0:
                    break
                h = h / 2
                halvings += 1
                rejected += 1
                if halvings > 80:
                    raise IntegrationError(
                        f"step size collapsed near t={t}; "
                        "h may be approaching zero"
                    )
            y_new = _fixed_eval(Y, h, F, k_kernel)
            cum_err += est
            steps.append(_Step(t, h, x, y, cum_err, (X, Y, F, k_kernel)))
            t = t + h
            x, y = x_new, y_new
            if y > 0 and t - t0 >= span_direct and t < t_max:
                gamma = x**3 * y
                # the switch data carry the direct phase's error; widen the
                # consistency gate accordingly if z lands below the crossover
                seed = cum_err * (3 * x**2 * abs(y) + x**3)
                problem = solve_g(
                    4 / x**4, gamma, cfg, seed_tol=100 * seed
                )
                reduction = (problem, t, x, y)
                break
        traj = Trajectory(data, cfg, steps, t_max, rejected, dps, reduction)
        if reduction is not None:
            traj.eval_h(t_max)  # fail fast and seed the h^4 memo
        return traj


# -- the first-order problem and G ---------------------------------------------


class GProblem:
    """Dense representation of g on (0, z0] plus everything derived from it.

    Below the crossover ``z_c`` the solution is represented by the truncated
    series sum alpha_k z^k (all solutions collapse onto it at z -> 0 faster
    than any power); above, by the integrator's Taylor pieces, each carrying
    g and the running integral I(z) = int_z^{z0} r of the regular integrand
    r = (1/g - 1 + 3z/4) 4/z^2.  The two representations of g are required
    to agree at z_c when the problem is built.  G on [anchor, S] and the
    head of c are read off I: the head is ``i_c`` = I(z_c), the
    integrator's own value at its last step end (zero without Taylor
    pieces).  The caches are the memoized constant c, G(S), the base of
    every G evaluation above the split, and the weights and S part of the
    series integral above it.

    ``anchor`` = h0^4 = 4/z0 is the lower limit of G and ``split`` = S =
    4/z_c the point beyond which G uses the series tail; both, and the
    domain bounds of eval_g and compute_G (a relative slack of 10^(4-dps)),
    are fixed when the problem is built.  ``n_rejected`` counts the
    integrator's rejected trial steps.
    """

    def __init__(self, z0, g0, z_c, steps, cfg, dps, ode_err, rejected=0, i_c=0):
        self.z0 = z0
        self.g0 = g0
        self.z_c = z_c
        self.i_c = i_c
        self.cfg = cfg
        self.dps = dps
        self.ode_err = ode_err
        self.n_rejected = rejected
        self._steps = steps  # descending t_start; each covers [start-len, start]
        self._neg_starts = [-s.t_start for s in steps]  # ascending, for bisect
        with mp.workdps(dps):
            self.anchor = 4 / z0
            self.split = 4 / z_c
            slack = mp.mpf(10) ** (4 - dps)
            self._z_max = z0 * (1 + slack)  # eval_g's upper bound
            self._x_min = self.anchor * (1 - slack)  # compute_G's lower bound
            alphas = gen_alpha(_SERIES_ORDER).values
            self._alpha_mpf = [
                mp.mpf(a.numerator) / a.denominator for a in alphas
            ]
            betas = gen_beta(_SERIES_ORDER).values
            self._beta_mpf = [mp.mpf(b.numerator) / b.denominator for b in betas]
        self._c = None
        self._G_split = None
        self._tail = None  # series weights above S and their S part

    def _step_at(self, z):
        """The Taylor piece covering z, for z_c < z <= z0."""
        # steps are stored with descending start; step i covers
        # [start_{i+1}, start_i], so locate the first start <= z and
        # back up one piece when z lies strictly between two starts
        idx = bisect.bisect_left(self._neg_starts, -z)
        idx = min(max(idx, 0), len(self._steps) - 1)
        step = self._steps[idx]
        if z > step.t_start and idx > 0:
            step = self._steps[idx - 1]
        return step

    def eval_g(self, z):
        """g(z) for z in (0, z0]."""
        with mp.workdps(self.dps):
            z = mp.mpf(z)
            if z <= 0:
                raise DomainError("g is defined on (0, z0]")
            if z > self._z_max:
                raise DomainError(f"z={z} beyond the initial point z0={self.z0}")
            if z <= self.z_c or not self._steps:
                return _horner(self._alpha_mpf, z)
            return self._step_at(z).eval_x(z)

    def _integral(self, z):
        """I(z) = int_z^{z0} r for z in [z_c, z0]; 0 without Taylor pieces."""
        if not self._steps:
            return mp.zero
        return self._step_at(z).eval_y(z)


def solve_g(z0, g0, cfg: SolverConfig | None = None, seed_tol=None) -> GProblem:
    """Build the dense representation of g through (z0, g0) down to z -> 0.

    Integrates g' = (1/z^2)(1 - 1/g) - (3/4) g/z from z0 toward zero until
    the crossover z_c, below which the series representation takes over.

    Placement of the crossover is an accuracy/cost tradeoff.  The equation
    is stiff toward z = 0 (the solution-collapse rate is 1/z^2, so Taylor
    steps shrink like z^2 and the cost of reaching a depth z_c grows like
    1/z_c), while the series truncation error falls like the 25th power of
    z.  The crossover therefore goes at the largest z where the series' own
    last retained term is below 0.01 (abs_tol + rel_tol) z; the extra factor
    of z keeps the integrated impact of the series region (the integrands
    of G and c divide by z^2) below the noise the dense region already
    carries.  The handoff is validated by comparing the integrated value
    with the series value at z_c.

    Each step also carries the running integral I of the regular integrand
    (see GProblem); a step is accepted only when the truncation estimates
    of both g and I are within the local tolerance.

    ``seed_tol`` widens the data-consistency gate of the z0 <= z_c branch
    when (z0, g0) are themselves numerical (a trajectory handing off its
    switch point).
    """
    cfg = cfg or SolverConfig()
    dps = cfg.effective_dps
    order = cfg.taylor_order
    with mp.workdps(dps):
        z0 = mp.mpf(z0)
        g0 = mp.mpf(g0)
        if not (z0 > 0 and g0 > 0):
            raise DomainError("solve_g needs z0 > 0 and g0 > 0")
        alphas = gen_alpha(_SERIES_ORDER).values
        a_top = mp.mpf(alphas[-1].numerator) / alphas[-1].denominator
        a_sub = mp.mpf(alphas[-2].numerator) / alphas[-2].denominator
        k_top = len(alphas) - 1
        tol_pt = mp.mpf("0.01") * (mp.mpf(cfg.abs_tol) + mp.mpf(cfg.rel_tol))

        def trunc_est(z):
            # last two retained terms as a proxy for the truncation error
            return abs(a_top) * z**k_top + abs(a_sub) * z ** (k_top - 1)

        z_c = (tol_pt / abs(a_top)) ** (mp.one / (k_top - 1))
        z_c = min(z_c, mp.mpf("0.03"))  # keep inside the decreasing-terms range
        while trunc_est(z_c) > tol_pt * z_c:
            z_c *= mp.mpf("0.9")

        if z0 <= z_c:
            # Initial point already inside the collapse region: every actual
            # solution is indistinguishable from the series there, so the
            # data must be consistent with it up to the truncation estimate.
            series_val = _horner(
                [mp.mpf(a.numerator) / a.denominator for a in alphas], z0
            )
            gate = (
                1000 * trunc_est(z0)
                + mp.mpf(10) ** (-(dps - 6))
                + 10 * (mp.mpf(cfg.abs_tol) + mp.mpf(cfg.rel_tol) * abs(g0))
            )
            if seed_tol is not None:
                gate += mp.mpf(seed_tol)
            if abs(series_val - g0) > gate:
                raise AccuracyError(
                    "initial point lies below the series crossover but the "
                    "data disagree with the asymptotic profile; the backward "
                    "problem is not resolvable at this precision"
                )
            return GProblem(z0, g0, min(z0, z_c), [], cfg, dps, mp.zero)

        z, g = z0, g0
        i_cum = mp.zero  # I(z) = int_z^{z0} r
        cum_err = mp.zero
        steps: list[_Step] = []
        rejected = 0
        while z > z_c:
            if len(steps) >= cfg.max_steps:
                raise IntegrationError(
                    f"step budget {cfg.max_steps} exhausted at z={z}"
                )
            C, R, F, k = _g_equation_coeffs(z, g, order)
            I = _running_integral_coeffs(z, R, F, k, i_cum)
            c_top = _top_coeffs(C, F, k)
            i_top = _top_coeffs(I, F, k)
            eps_loc = mp.mpf(cfg.abs_tol) + mp.mpf(cfg.rel_tol) * abs(g)
            h = _step_guess((c_top,), eps_loc, order)
            h = min(h, mp.mpf("0.45") * z)  # stay clear of the z = 0 singularity
            if z - h < z_c:
                h = z - z_c
            halvings = 0
            while True:
                est = _tail_estimate(c_top, order, h)
                g_new = _fixed_eval(C, -h, F, k)
                if (
                    est <= eps_loc
                    and g_new > 0
                    and _tail_estimate(i_top, order + 1, h) <= eps_loc
                ):
                    break
                h = h / 2
                halvings += 1
                rejected += 1
                if halvings > 80:
                    raise DomainError(
                        f"g appears to vanish near z={z}; positivity violated"
                    )
            cum_err += est
            steps.append(_Step(z, -h, g, i_cum, cum_err, (C, I, F, k)))
            z = z - h
            g = g_new
            i_cum = _fixed_eval(I, -h, F, k)

        problem = GProblem(z0, g0, z_c, steps, cfg, dps, cum_err, rejected, i_cum)
        series_at_zc = _horner(problem._alpha_mpf, z_c)
        agree_tol = (
            1000 * trunc_est(z_c) + 100 * cum_err + mp.mpf(10) ** (-(dps - 6))
        )
        if abs(series_at_zc - g) > agree_tol:
            raise AccuracyError(
                f"series/ODE handoff mismatch at z_c={z_c}: "
                f"|{series_at_zc} - {g}| > {agree_tol}"
            )
        return problem


def g_problem_for_data(
    data: InitialData, cfg: SolverConfig | None = None
):
    """(GProblem, t_base) for the given initial data.

    The reduction to the first-order problem needs h' > 0.  When h1 <= 0 the
    trajectory is integrated forward to the first sample with positive slope
    (the region h' > 0 is absorbing: at h' = 0 the acceleration is h^{-3} > 0)
    and the problem is re-based there.
    """
    cfg = cfg or SolverConfig()
    dps = cfg.effective_dps
    with mp.workdps(dps):
        if mp.mpf(data.h1) <= 0:
            # integrate until the trajectory hands off on its own: the
            # switch point is exactly the rebased data we need
            horizon = max(2 * mp.mpf(cfg.direct_span), mp.mpf(32))
            while True:
                traj = integrate_h(data, mp.mpf(data.t0) + horizon, cfg)
                if traj.g_problem is not None:
                    return traj.g_problem, traj.switch_time
                if horizon > 131072:
                    raise ConvergenceError(
                        "no stretch with positive slope found within the horizon"
                    )
                horizon *= 2
        z0 = 4 / mp.mpf(data.h0) ** 4
        g0 = mp.mpf(data.h0) ** 3 * mp.mpf(data.h1)
        return solve_g(z0, g0, cfg), mp.mpf(data.t0)


def _series_tail_G(problem: GProblem, x):
    """Exact integral of the reciprocal series sum beta_k (4/s)^k over [S, x].

    Valid for x at or above the split point S, where 4/s <= z_c and the
    series represents 1/g(4/s) below working precision.  Termwise: the
    k = 0 term integrates to (x - S), k = 1 to 4 beta_1 log(x/S), k >= 2 to
    w_k (S^{1-k} - x^{1-k}) with w_k = beta_k 4^k / (k-1).  The weights and
    the S part sum w_k S^{1-k} are computed once per problem; the x part
    u sum_k w_k u^{k-2} in u = 1/x is an integer Horner polynomial on the
    weights' mantissas at the absolute scale 2^-F, F = mp.prec + _GUARD_BITS,
    rounded once.  It is at most 0.2 in size (u <= z_c/4) and is added to
    terms of size at least x - S + G(S), so absolute accuracy suffices.
    """
    with mp.workdps(problem.dps):
        S = problem.split
        betas = problem._beta_mpf
        if problem._tail is None:
            weights = [
                betas[k] * mp.mpf(4) ** k / (k - 1) for k in range(2, len(betas))
            ]
            s_part = sum(w * S ** (1 - k) for k, w in enumerate(weights, 2))
            F = mp.prec + _GUARD_BITS
            problem._tail = [_fixed(w, F) for w in weights], F, s_part
        W, F, s_part = problem._tail
        U = (1 << 2 * F) // _fixed(x, F)  # u = 1/x; x >= S > 1 is exact at 2^-F
        acc = W[-1]
        for w in reversed(W[:-1]):
            acc = (acc * U >> F) + w
        x_part = _to_mpf(acc * U, -2 * F)
        return (x - S) + betas[1] * 4 * mp.log(x / S) + s_part - x_part


def compute_G(x, problem: GProblem, cfg: SolverConfig | None = None):
    """G(x) = int_{h0^4}^{x} ds / g(4/s), for x >= h0^4.

    Up to the split S this is dense output of the integrator's running
    integral, G(x) = (x - h0^4) - 3 ln(x / h0^4) + I(4/x): a bisection for
    the step and one Horner evaluation.  Beyond S the reciprocal series is
    integrated exactly term by term from S (one log and one Horner
    evaluation in 1/x) and added to G(S), which is computed once per
    problem.
    """
    with mp.workdps(problem.dps):
        x = mp.mpf(x)
        anchor = problem.anchor
        if x < problem._x_min:
            raise DomainError(f"G is defined for x >= h0^4 = {anchor}")
        x = max(x, anchor)
        S = problem.split
        if x > S:
            if problem._G_split is None:
                problem._G_split = _G_dense(problem, S)
            return problem._G_split + _series_tail_G(problem, x)
        return _G_dense(problem, x)


def _G_dense(problem: GProblem, x):
    """G(x) for x in [anchor, S] from the running integral I."""
    anchor = problem.anchor
    return (x - anchor) - 3 * mp.log(x / anchor) + problem._integral(4 / x)


def compute_c(problem: GProblem, cfg: SolverConfig | None = None):
    """The constant c = int_{h0^4}^inf (1/g(4/s) - 1 + 3/s) ds - h0^4 + 3 ln h0^4.

    In the radial variable (s = 4/z) the integrand becomes the regular
    r(z) = (1/g(z) - 1 + (3/4) z) * 4/z^2, which extends continuously to
    z = 0 with value 4 beta_2.  The head, over [z_c, z0], is the running
    integral I(z_c) that the integrator accumulated step by step; the tail
    below z_c (or below z0 when the data already sit there) is the exact
    termwise integral of the series
    1/g(4/s) - 1 + 3/s = sum_{k>=2} beta_k (4/s)^k.

    Memoized on the problem.  The result is the c of a problem based at
    t0 = 0; see compute_c_for_data for general base points.
    """
    if problem._c is not None:
        return problem._c
    with mp.workdps(problem.dps):
        z_tail = problem.z_c  # equal to z0 when the data sit below z_c
        head = problem.i_c
        betas = problem._beta_mpf
        tail = 4 * mp.fsum(
            betas[j + 1] * z_tail**j / j for j in range(1, len(betas) - 1)
        )
        top = len(betas) - 1
        last_term = abs(betas[top]) * 4 * z_tail ** (top - 1) / (top - 1)
        tail_gate = mp.mpf("0.01") * (
            mp.mpf(problem.cfg.abs_tol) + mp.mpf(problem.cfg.rel_tol)
        ) + mp.mpf(10) ** (-(problem.dps - 8))
        if last_term > tail_gate:
            raise AccuracyError(
                "series tail for c not converged at the split point; "
                f"last term {last_term}"
            )

        h04 = problem.anchor
        problem._c = head + tail - h04 + 3 * mp.log(h04)
    return problem._c


def compute_c_for_data(data: InitialData, cfg: SolverConfig | None = None):
    """c for general initial data, including the 4*t0 base-point offset.

    Re-basing at any other point of the same solution changes the integral's
    ingredients but not this value, which is what makes it the expansion's
    constant.
    """
    problem, t_base = g_problem_for_data(data, cfg)
    with mp.workdps(problem.dps):
        return compute_c(problem, cfg) + 4 * t_base


def _newton(f, slope, y, lo, hi, tol, max_iter, what):
    """Root of the increasing f in the bracket [lo, hi], by Newton from y.

    Each residual narrows the bracket, and a Newton step that leaves it
    bisects instead.  Stops at |f(y)| <= tol, or when the next iterate
    equals y at working precision: an absolute tol can lie below f's
    rounding floor at y.
    """
    for _ in range(max_iter):
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
        y = y_next
    raise ConvergenceError(f"{what} hit the {max_iter} cap")


def invert_G(x, problem: GProblem, cfg: SolverConfig | None = None):
    """Solve G(y) = x for y >= h0^4.

    Bracketed Newton (_newton) with G'(y) = 1/g(4/y) on [h0^4, hi], hi
    found by doubling, from y = max(x, h0^4).  Stops at
    |G(y) - x| <= fp_tol / 2, or when the next iterate equals y at working
    precision: for large h0^4 the absolute fp_tol can lie below G's
    rounding floor.
    """
    cfg = cfg or problem.cfg
    with mp.workdps(problem.dps):
        x = mp.mpf(x)
        if x < 0:
            raise DomainError("G is nonnegative; no preimage for x < 0")
        if x == 0:
            return problem.anchor
        lo = problem.anchor  # G(lo) = 0 <= x
        hi = 2 * x + lo + 1
        for _ in range(200):
            if compute_G(hi, problem, cfg) >= x:
                break
            hi *= 2
        else:
            raise ConvergenceError("could not bracket the preimage of x")
        return _newton(
            lambda y: compute_G(y, problem, cfg) - x,
            lambda y: 1 / problem.eval_g(4 / y),
            max(x, lo), lo, hi,
            mp.mpf(cfg.fp_tol) / 2, cfg.fp_max_iter, "G inversion",
        )


def lambert_root_tol(x, cfg: SolverConfig | None = None):
    """Residual at which lambert_wm1_numeric stops, |y - ln y - x| <= 10^-(dps-5) x
    at its precision dps; the root is resolved to this over the slope 1 - 1/y."""
    dps = max(30, (cfg or SolverConfig()).effective_dps)
    with mp.workdps(dps):
        return mp.mpf(10) ** (-(dps - 5)) * mp.mpf(x)


def lambert_wm1_numeric(x, cfg: SolverConfig | None = None):
    """The larger root y > 1 of y - ln y = x, i.e. -W_{-1}(-e^{-x}).

    Bracketed Newton (_newton) from y = x + ln x with the slope 1 - 1/y
    (the function is convex and increasing on y > 1; the bracket guards
    the first steps).  It stops when the residual is within a few units
    of the working precision relative to x, so the root is as accurate as
    the precision allows.
    """
    cfg = cfg or SolverConfig()
    dps = max(30, cfg.effective_dps)
    with mp.workdps(dps):
        x = mp.mpf(x)
        if x <= 1:
            raise DomainError("the branch point is at x = 1; need x > 1")
        hi = x + 2 * mp.log(x) + 2
        while hi - mp.log(hi) < x:
            hi *= 2
        return _newton(
            lambda y: y - mp.log(y) - x,
            lambda y: 1 - 1 / y,
            x + mp.log(x), mp.one, hi,
            lambert_root_tol(x, cfg), cfg.fp_max_iter, "Lambert root iteration",
        )


# -- export helpers -------------------------------------------------------------


def trajectory_to_csv(traj: Trajectory, t_grid=None) -> str:
    """CSV text with header t,h,hprime; 17 significant digits per value."""
    with mp.workdps(traj.stats["dps"]):
        lines = ["t,h,hprime"]
        if t_grid is None:
            rows = traj.samples()
        else:
            rows = [
                (mp.mpf(t), traj.eval_h(t), traj.eval_hprime(t))
                for t in t_grid
            ]
        for t, h, hp in rows:
            lines.append(
                ",".join(
                    mp.nstr(v, 17, strip_zeros=False) for v in (t, h, hp)
                )
            )
        return "\n".join(lines) + "\n"
