"""High-accuracy numerical layer: trajectories, the function G, the constant c.

Everything here runs in arbitrary-precision arithmetic (mpmath).  The driver
is the remainder verification: at expansion order 3 and t = 10^6 the quantity
being resolved is of size (4t)^{1/4} (ln t / t)^4 ~ 1e-18, far below double
precision, so the whole numerical stack works at a configurable number of
decimal digits derived from the requested tolerances.

Integrator.  Both ODEs are stepped by one adaptive Taylor marcher (_march):
at each accepted point a kernel builds the exact local Taylor series of a
pair of series, the step comes from their top coefficients and is checked
against their tail (Jorba & Zou, Exp. Math. 14, 2005).  The pairs are

* the second-order problem as the system x' = y, y' = x^{-3} - y, whose
  Taylor coefficients take x^{-3} from the power rule (Knuth, TAOCP 4.7):
  one integer dot product per coefficient, over running weights.
  Both x and y lead: they set the local tolerance, the step guess and the
  charged error.  The march stops at the switch to the reduction (below);
* the first-order radial equation g' = (1/z^2)(1 - 1/g) - (3/4) g/z,
  integrated downward from z0 toward the singular point z = 0; times g it
  is linear in g^2, one symmetric sum per coefficient, paired with the
  running integral I (below).  g alone leads; I must pass the same tail
  test but is not charged.  The step is capped at 0.45 z.

The coefficient recurrences run on fixed-point integers rather than mpf
objects (the standard way to run such recurrences, Brent & Zimmermann,
Modern Computer Arithmetic, 2010, ch. 3-4): coefficient j of a series is
the int mantissa of its scaled value a_j rho^j at the binary scale 2^-F,
with F at least mp.prec + 64 guard bits (more when the series' leading
value is below 1, so that it keeps that many significant bits).
rho = 2^k is a power of two at or above the step, so the scaled
coefficients stay O(1), their errors are not amplified over the step, and
rho enters as shifts.  One rule serves both kernels: rho is set between
two and four times the previous step's guess, and the coefficients are
recomputed with a wider rho in the rare case the new guess exceeds it.
The g kernel caps rho at 2^mag(z_s), the power of two just above z_s
(g's steps stay below 0.45 z_s), so that the scaled series of 1/z cannot
grow.  Every convolution coefficient is one exact integer dot product
shifted once.

The step loop stays on the mantissas as well.  The values at a step end
are one integer Horner evaluation each in u = h / rho, rounded once into
an mpf (the same evaluation of Brent & Zimmermann, ch. 4).  One exact
rule splits every read point: u = +-man 2^(exp - k), and each stage
multiplies by man at its own length (a step guess is a 53-bit dyadic,
most other read points have mp.prec bits and none more than F), so a
product by man with one shift floors the same rational as a product by
u widened to F bits, in fewer digit operations.  The g kernel forms its
zeta term from z_s's own mantissa by the same rule.
The step control decides on log2 magnitudes of the top three
coefficients, as Python floats: no root, no mpf per trial step, no range
limit.  What it decides on stays exact: a guess becomes an exact dyadic
mpf, and the clamps, the halving and what a step stores run at mp.prec.
A stored step keeps its mantissas for good: dense output is the same
integer Horner at the offset of the read, and so is every read of g's
series below the crossover.

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
inverting the strictly increasing time map G.  A trajectory with h1 > 0
and a horizon past a fixed direct span is that exact reduction from t0,
on the data's own g problem, the one c comes from; any other (h1 <= 0,
an own problem refused, a shorter horizon) marches directly and switches
to the reduction at the first step end past the span with positive
slope.  A read in the reduction costs a few evaluations of G, with no
step-count growth in t; the trajectory's samples at the g march's own
points need none, as G there is the march's running integral.

G and c.  The g integrator carries one extra Taylor component,
the running integral I(z) = int_z^{z0} r of the regular integrand
r(z) = (1/g(z) - 1 + 3z/4) 4/z^2 = -4 g' - 3 (g - 1)/z, whose Taylor
coefficients follow in O(P) from g's (augmented quadrature in the sense
of Jorba & Zou, Exp. Math. 14, 2005).  Its truncation is checked in
the same step-acceptance test as g's.  With s = 4/z,
G(x) = int_{h0^4}^x ds / g(4/s) = (x - h0^4) - 3 ln(x / h0^4) + I(4/x).
Below z_c (above S = 4/z_c) the integrand is the reciprocal series
r = 4 sum_{k>=2} beta_k z^(k-2), so I(4/x) = J - T(x) with
T(x) = sum_{k>=2} w_k x^(1-k), w_k = beta_k 4^k / (k-1), and
J = I(0) = I(z_c) + T(S) the whole integral.  The same J gives
c = J - h0^4 + 3 ln h0^4, and G above S is then the expansion
x - 3 ln x + c - T(x); up to S, I(4/x) is dense output.  G and g have
one raw core each (GProblem._G, _g): raw mpfs in and out, with the bits
of mpf arithmetic and no check.  compute_G and eval_g validate at the
edge, enter the problem's precision and call them; the Newton inversion
of G (_newton, which also finds the Lambert root) calls them directly,
as its iterates stay in their domain.  Newton checks its bracket's upper
end only once an iterate reaches it, and inverts G from
x + 3 ln(x + h0^4) - c, one fixed-point sweep of the large-x form.
Reads already at the working precision do not re-enter it.
"""

from __future__ import annotations

import bisect
import contextlib
import math
from dataclasses import dataclass
from operator import add, mul
from typing import ClassVar

from mpmath import mp
from mpmath.libmp import finf, fone, from_float, from_int, from_man_exp, from_str, fzero, mpf_abs
from mpmath.libmp import mpf_add, mpf_div, mpf_gt, mpf_le, mpf_log, mpf_lt, mpf_mul, mpf_mul_int
from mpmath.libmp import mpf_neg, mpf_rdiv_int, mpf_shift, mpf_sub, round_nearest
from mpmath.libmp import dps_to_prec, repr_dps, to_fixed

from .errors import (
    AccuracyError,
    ConvergenceError,
    DomainError,
    IntegrationError,
)
from .families import fixed_coeffs

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
_MAX_STEPS = 100_000  # step budget of each integrator run
_DIRECT_SPAN = 128.0  # direct Taylor span before a trajectory may hand off
_FP_MAX_ITER = 200  # iteration cap of the root finders (G inversion, Lambert)
_AT_PRECISION = contextlib.nullcontext()  # what _workdps enters at the working precision
_QUARTER = mp.make_mpf((0, 1, -2, 1))  # the exact exponents of eval_h and eval_hprime
_MINUS_THREE_QUARTERS = mp.make_mpf((1, 3, -2, 2))


def _require_finite(**values) -> None:
    for name, value in values.items():
        if not mp.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")


def _check_horizon(t0, t_max):
    """(t0, t_max) as mpfs, once t_max is finite and beyond t0."""
    t0, t_max = mp.mpf(t0), mp.mpf(t_max)
    _require_finite(t_max=t_max)
    if not t_max > t0:
        raise DomainError("t_max must exceed t0")
    return t0, t_max


def _check_in_range(t, t_start, t_end):
    """t as an mpf, once in a trajectory's [t_start, t_end]; at the caller's precision."""
    t = mp.mpf(t)
    if not t_start <= t <= t_end:
        raise DomainError(f"t={t} outside the integrated range [{mp.mpf(t_start)}, {mp.mpf(t_end)}]")
    return t


def _workdps(dps):
    """mp.workdps(dps), or a shared no-op when mp.prec is already the one it sets."""
    return _AT_PRECISION if mp.prec == dps_to_prec(dps) else mp.workdps(dps)


def _floor(k):
    """10^(k - dps) at the working precision dps: a floor k decimal digits
    above the rounding of dps-digit arithmetic."""
    return mp.mpf(10) ** (k - mp.dps)


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances of the numerical layer.

    ``rel_tol``/``abs_tol`` bound the local error per integrator step and
    fix the working decimal precision ``effective_dps``: their digits plus
    18 guard digits, and at least 30.  They are the only settable values.
    ``fp_tol`` is a constant that no solver reads (every G inversion stops
    at the precision floor, invert_G): the benchmark's Lambert check still
    takes it as its root tolerance.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    fp_tol: ClassVar[float] = 1e-12

    def __post_init__(self) -> None:
        _require_finite(rel_tol=self.rel_tol, abs_tol=self.abs_tol)
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise DomainError("tolerances must be positive")

    @property
    def effective_dps(self) -> int:
        digits = -math.log10(min(self.rel_tol, self.abs_tol))
        return max(30, int(math.ceil(digits)) + 18)

    @property
    def taylor_order(self) -> int:
        return int(1.2 * self.effective_dps) + 8


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


def _step_guess(log_sets, log_eps, order, k):
    """0.8 times the largest step for which the top Taylor terms stay below
    eps_loc, as an exact dyadic raw mpf (_exp2).

    ``log_sets`` hold the lead series' _top_coeffs at rho = 2^k, of which
    the last two are read (degree j = ``order`` and ``order - 1``), and
    ``log_eps`` is log2 eps_loc: the least (log_eps - log2 |c rho^j|) / j
    is log2 of the step in units of rho.  Infinite when every c is zero,
    as when the terms fall below the kernels' fixed-point resolution:
    the march's clamps to its end and cap, and the tail test, then bound
    the step.
    """
    least = min(min((log_eps - c[-1]) / order, (log_eps - c[-2]) / (order - 1)) for c in log_sets)
    return mpf_shift(_exp2(least, 0.8), k)


def _exp2(v, scale=1.0):
    """scale 2^v as an exact dyadic raw mpf for a double v (0 at -inf, finf
    at inf): the integer part is the exponent, the rest goes through from_float."""
    if math.isinf(v):
        return finf if v > 0 else fzero
    n = math.floor(v)
    return mpf_shift(from_float(scale * 2.0 ** (v - n)), n)


def _log2(v, k=0):
    """log2 |v 2^-k| of a raw mpf v as a double (-inf at 0), with the
    mantissa as a fraction in [1/2, 1): one rounding, no range limit."""
    return math.log2(v[1] / (1 << v[3])) + (v[2] + v[3] - k) if v[1] else -math.inf


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


def _fixed_member(family, n):
    """(mants, F) of member n of an exact family (families.fixed_coeffs),
    at the one scale of exact reads, 2^-F."""
    F = mp.prec + _GUARD_BITS
    return fixed_coeffs(family, n, F), F


def _top_coeffs(mants, F):
    """log2 |c_j rho^j| of the three highest scaled coefficients,
    mants[j] 2^-F, as doubles; -inf where a mantissa is zero."""
    return [math.log2(abs(m)) - F if m else -math.inf for m in mants[-3:]]


def _tail_estimate(tops, top, log_u):
    """log2 of the crude truncation bound, twice the sum of the last three
    terms at a step of length u rho, from the _top_coeffs ``tops`` of
    degree ``top`` - 2 .. ``top`` and ``log_u`` = log2 u.  The sum runs
    relative to its largest term: no range limit, however far the terms
    fall below the kernels' 2^-F.  -inf when every term is zero.
    """
    terms = [c + j * log_u for j, c in enumerate(tops, top - 2)]
    big = max(terms)
    return big if big == -math.inf else big + 1 + math.log2(sum(2.0 ** (t - big) for t in terms))


def _read_point(h, k):
    """(U, E) with U 2^-E = u = h / 2^k exactly, for the raw mpf h =
    +-man 2^exp: U = +-man and E = k - exp, or U = u itself and E = 0 when
    u is an integer.  Each stage of _fixed_horner multiplies by the point
    at its own length; every point read here has at most F bits, where
    that floors the same rationals as u widened to F bits."""
    sign, man, exp, _ = h
    return (-man if sign else man) << max(0, exp - k), max(0, k - exp)


def _fixed_horner(mants, U, E, F):
    """The polynomial with mantissas mants (scale 2^-F) at u = U 2^-E, from
    _read_point: the one integer Horner loop, each stage flooring acc u
    once at 2^-F, far below the rounding of the result, which is a raw mpf
    rounded once to mp.prec.  At u = 0 it is mants[0], rounded."""
    acc = 0
    for m in reversed(mants):
        acc = (acc * U >> E) + m
    return from_man_exp(acc, -F, mp.prec, round_nearest)


def _h_system_coeffs(x0, y0, order, k):
    """Taylor coefficients at one point for x' = y, y' = x^{-3} - y.

    Mantissas of X_j rho^j at scale 2^-F, F = _fixed_scale(x0), rho = 2^k
    at or above the step; d/dt is a shift by k.  u = x^{-3} comes from the
    power rule m x_0 u_m = sum_{i=1..m} (-2i - m) x_i u_{m-i} (Knuth, TAOCP
    vol. 2, 4.7): one exact integer dot product per coefficient, over the
    weights W_i = (2i + m) X_i, which each new m raises by X_i and extends
    by 3m X_m.  v0 = 1/x_0 and u sit at 2^-G, G = F + 3 max(0, mag x0), as
    every u_m carries u_0's relative error and at 2^-F a large x0 (after a
    blow-up) would round u_0, so all of u, to 0.
    Returns (X, Y, F); X[0] and Y[0] are x0 and y0 at 2^-F, exactly.
    """
    F = _fixed_scale(x0)
    G = F + 3 * max(0, mp.mag(x0))
    X0 = _fixed(x0, F)
    T = []  # X_1..X_m, the weights' own list: no copy of X per m
    Y = [_fixed(y0, F)]
    v0 = (1 << F + G) // X0
    U = [(v0 * v0 >> G) * v0 >> G]
    W = []  # (2i + m) X_i for i = 1..m
    for m in range(1, order + 1):
        T.append(_shift(Y[-1], k) // m)
        Y.append(_shift((U[-1] >> G - F) - Y[-1], k) // m)
        if m == order:
            break
        W = list(map(add, W, T))  # stops at W's m - 1 entries
        W.append(3 * m * T[-1])
        s = sum(map(mul, W, reversed(U)))
        U.append((-(v0 * (s >> F)) >> G) // m)
    return [X0, *T], Y, F


def _g_system_coeffs(z_s, g_s, i_s, order, k):
    """Taylor coefficients at z_s of g and of the running integral I.

    g solves z^2 g' = 1 - 1/g - (3/4) z g, and I(z) = i_s + int_z^{z_s} r
    integrates the regular integrand r(z) = (1/g - 1 + 3z/4) 4/z^2 of G
    and c.  Same fixed-point representation as _h_system_coeffs, with
    F = _fixed_scale(g_s), rho = 2^k at or above the step as for the
    trajectory, but at most 2^mag(z_s), the power of two just above z_s
    (steps stay below 0.45 z_s): zeta = z_s / rho >= 1/2, so the scaled
    series of 1/(zeta + v) cannot grow.  Times g, the
    equation is linear in Y = g^2: g - 1 = (3/4) z Y + (z^2/2) Y'.  In
    scaled coefficients Y_{j+1} = (2 (c_j - delta_{j0}) / rho
    - (2j + 3/2) zeta Y_j - (j + 1/2) Y_{j-1}) / (zeta^2 (j + 1)), and
    c_{j+1} = (Y_{j+1} - sum_{i=1..j} c_i c_{j+1-i}) / (2 c_0) by a
    symmetric sum of about j/2 products.  As r = -4 g' - 3 (g - 1)/z,
    I_{j+1} = 4 c_{j+1} + 3 f_j / (j + 1) in O(order), with f the series
    of (g - 1)/(zeta + v), v = (z - z_s)/rho.  At the scale 2^-F zeta is
    exact, as k <= mag z_s and z_s has at most mp.prec < F bits, so the
    term (8j + 6) zeta Y_j is formed from z_s = man 2^exp as (8j + 6) man
    Y_j shifted by k + 2 - exp: the same floor, on a short multiplier.
    Returns (C, I, F, k): the mantissas of g and of I, which is one degree
    longer.
    """
    F = _fixed_scale(g_s)
    k = min(k, mp.mag(z_s))
    zeta = _fixed(z_s, F - k)
    _, man, exp, _ = z_s._mpf_  # zeta = man 2^(exp + F - k)
    Z, S = man << max(0, exp - k - 2), max(0, k + 2 - exp)
    inv_zeta = (1 << 2 * F) // zeta
    inv_zeta2 = (1 << 3 * F) // (zeta * zeta)
    C = [_fixed(g_s, F)]
    r0 = (1 << 2 * F) // C[0]
    Y = [C[0] * C[0] >> F]
    I = [_fixed(i_s, F)]
    f = 0
    for j in range(order + 1):
        d = C[j] - (1 << F) if j == 0 else C[j]  # g - 1
        num = _shift(2 * d, -k) - ((8 * j + 6) * Z * Y[j] >> S)
        if j >= 1:
            num -= (2 * j + 1) * Y[j - 1] >> 1
        Y.append((num * inv_zeta2 >> F) // (j + 1))
        half = j // 2  # c_i c_{j+1-i}, i = 1..half, twice; c_{half+1}^2 for odd j
        s = 2 * sum(map(mul, C[1 : half + 1], C[j : j - half : -1]))
        if j % 2:
            s += C[half + 1] * C[half + 1]
        C.append((Y[j + 1] - (s >> F)) * r0 >> F + 1)
        f = (d - f) * inv_zeta >> F
        I.append(4 * C[j + 1] + 3 * f // (j + 1))
    del C[-1]  # c_{order+1} served I alone
    return C, I, F, k


@dataclass(slots=True)
class _Step:
    """One accepted Taylor step: the two series x and y at t_start.

    x is h for trajectory steps and g for g steps; y is h' for trajectory
    steps and the running integral I for g steps.

    The step holds one representation of its polynomials for its whole
    life: the kernels' fixed-point mantissas (X, Y, F, k).  Dense output
    (read) is one integer Horner (_fixed_horner) at the offset from
    t_start, as at the step end, on raw mpfs; Trajectory and GProblem
    read through it alike.  At offset 0 it returns the head x0/y0 itself,
    which the truncated mantissa of the head (for I, at g's scale) need
    not equal.  A trajectory's step times are elapsed times from its t0.
    """

    t_start: object  # mpf
    length: object   # mpf, signed offset of the step end from t_start
    x0: object       # mpf values of x and y at t_start
    y0: object
    err_cum: object  # cumulative error bound at the step end
    mants: tuple     # (X, Y, F, k)

    def read(self, t, i):
        """Series i (0: x, 1: y) at the raw mpf t, as a raw mpf at mp.prec."""
        u = mpf_sub(t, self.t_start._mpf_, mp.prec, round_nearest)
        if u == fzero:
            return (self.x0, self.y0)[i]._mpf_
        F, k = self.mants[2:]
        return _fixed_horner(self.mants[i], *_read_point(u, k), F)


def _march(kernel, lead, t, x, y, end, cfg, cap=None, stop=None, k=0, t0=0):
    """Adaptive Taylor steps of the pair (x, y) from t toward end.

    The one step loop of both integrators.  ``kernel(t, x, y, order, k)``
    returns the mantissas (X, Y, F, k) of both series at t, at rho = 2^k;
    k is passed in at or above the last step (``k`` on the first), and a
    kernel may lower it.  The first ``lead`` series (x alone, or x and y)
    set the local tolerance, the step guess and the charged error; every
    series must pass the tail test.  The guess is clamped to ``cap`` t, a
    decimal string, and to end, and the kernel is recomputed at a wider
    rho when the step outgrows it.  A trial step is halved until the tail
    estimates are within the local tolerance and x stays positive.  The
    march ends at end, or at the first step end where ``stop(t, x, y)``
    holds.  t is whatever the caller marches in: z for g, the elapsed
    time for a trajectory, whose failures name the time t0 + t.

    Decisions run on log2 doubles; what the march stores or returns stays
    exact: each guess is a dyadic mpf, the local tolerance's |x| (or the
    larger of |x| and |y|), the clamps, halvings, positivity test and
    t + s run on raw mpfs at mp.prec, as the mpf operators would, and the
    charged estimate of an accepted step is summed in mpf.  Each trial
    step is split once (_read_point) and both step ends are _fixed_horner
    reads at it.  The cap is parsed once per march.

    Returns (steps, (t, x, y), err, rejected): the accepted steps, the
    last step end, the summed charged estimates and the count of rejected
    trial steps.  Raises IntegrationError when the _MAX_STEPS budget runs
    out or a step collapses: 80 halvings fail, or an accepted step no
    longer moves t at mp.prec (a g march from z0 = 4e280 would otherwise
    spend the whole budget at z0).
    """
    order = cfg.taylor_order
    prec, rnd = mp.prec, round_nearest
    abs_tol, rel_tol = from_float(cfg.abs_tol, prec, rnd), from_float(cfg.rel_tol, prec, rnd)
    cap = cap and from_str(cap, prec, rnd)
    up = end > t
    before = mpf_lt if up else mpf_gt
    end_ = end._mpf_
    cum_err = fzero
    steps: list[_Step] = []
    rejected = 0
    while before(t._mpf_, end_):
        if len(steps) >= _MAX_STEPS:
            raise IntegrationError(f"step budget {_MAX_STEPS} exhausted at {t0 + t}")
        big = mpf_abs(x._mpf_)
        if lead == 2 and mpf_gt(abs_y := mpf_abs(y._mpf_), big):
            big = abs_y
        log_eps = _log2(mpf_add(abs_tol, mpf_mul(rel_tol, big, prec, rnd), prec, rnd))
        while True:
            X, Y, F, k_kernel = kernel(t, x, y, order, k)
            tops = [_top_coeffs(M, F) for M in (X, Y)]
            s = _step_guess(tops[:lead], log_eps, order, k_kernel)
            if cap and mpf_lt(limit := mpf_mul(cap, t._mpf_, prec, rnd), s):
                s = limit
            s = s if up else mpf_neg(s)  # the signed step
            if before(end_, mpf_add(t._mpf_, s, prec, rnd)):  # clamp to end
                s = mpf_sub(end_, t._mpf_, prec, rnd)
            fits = mpf_le(mpf_abs(s), (0, 1, k_kernel, 1))  # |s| <= 2^k_kernel
            k = s[2] + s[3] + 1  # rho in (2h, 4h]; recompute if s outgrew it
            if fits:
                break
        halvings = 0
        while True:
            log_u = _log2(s, k_kernel)
            ests = [_tail_estimate(c, len(M) - 1, log_u) for c, M in zip(tops, (X, Y))]
            point = _read_point(s, k_kernel)
            x_new = _fixed_horner(X, *point, F)
            if max(ests) <= log_eps and mpf_gt(x_new, fzero):
                break
            s = mpf_shift(s, -1)
            halvings += 1
            rejected += 1
            if halvings > 80:
                raise IntegrationError(
                    f"step size collapsed at {t0 + t}: 80 halvings failed the "
                    "tail estimates or the positivity of the solution"
                )
        t_new = mpf_add(t._mpf_, s, prec, rnd)
        if t_new == t._mpf_:
            raise IntegrationError(f"step size collapsed at {t0 + t}: the step no longer moves t")
        cum_err = mpf_add(cum_err, _exp2(max(ests[:lead])), prec, rnd)
        steps.append(_Step(t, mp.make_mpf(s), x, y, mp.make_mpf(cum_err), (X, Y, F, k_kernel)))
        t = mp.make_mpf(t_new)
        x, y = mp.make_mpf(x_new), mp.make_mpf(_fixed_horner(Y, *point, F))
        if stop is not None and stop(t, x, y):
            break
    return steps, (t, x, y), mp.make_mpf(cum_err), rejected


def _step_at(steps, keys, key):
    """The step covering the point at key = sign t.

    keys hold sign t_start of each step, ascending, with sign the
    direction of integration; a step covers its start up to the next
    step's start.  A point before the first start maps to the first step
    and one past the last step's end to the last (eval_g's slack above z0,
    the rounding of 4/x at z_c).
    """
    return steps[max(bisect.bisect_right(keys, key) - 1, 0)]


class Trajectory:
    """Dense solution of the second-order problem on [t0, t_end].

    Two regimes, both in the elapsed time tau = t - t0 (the equation is
    autonomous), formed once per read.  The direct regime is one Taylor
    polynomial per accepted step, each read through _Step.read.  The
    reduction of order holds along any stretch with h' > 0 (an absorbing
    condition), not as an approximation: with g = h^3 h' as a function of
    z = 4/h^4, the time map G is strictly increasing and h(t)^4 is its
    inverse at 4 (tau - tau_sw), found by invert_G's bracketed Newton on
    the dense G of ``g_problem``, to the precision floor 10^(9 - dps)/2 at
    the trajectory's working precision ``dps``.  integrate_h picks the
    route: the reduction from t0 itself (no direct step, tau_sw = 0,
    ``g_problem`` the data's own), or direct steps up to a switch point
    that supplies the reduction's data.  ``switch_time`` is t0 + tau_sw,
    rounded once.  ``g_problem`` and ``switch_time`` are None when the
    direct steps reach t_end.

    ``eval_h``/``eval_hprime`` evaluate whichever regime contains t;
    ``err_bound`` reports a conservative error estimate at t (summed local
    step budgets, transported through the reduction's integrand-noise
    model past the switch).
    """

    def __init__(self, cfg, t0, steps, t_end, rejected, reduction=None):
        # built by integrate_h at the working precision, steps in elapsed time
        self.cfg = cfg
        self.dps = cfg.effective_dps
        self._steps = steps
        self._keys = [s.t_start for s in steps]  # for _step_at
        self.t_start = t0
        self.t_end = t_end
        self.n_steps = len(steps)
        self.n_rejected = rejected
        # the reduction's problem, and the elapsed time, h and h' at the switch
        self.g_problem, self._tau_switch, self._h_switch, self._hprime_switch = reduction or (None,) * 4
        self.switch_time = reduction and t0 + self._tau_switch
        self._h4_cache = {}

    def _locate(self, t):
        """(tau = t - t0, the direct step covering it), with step None in
        the reduction: past the switch, or anywhere without direct steps;
        at the working precision."""
        tau = _check_in_range(t, self.t_start, self.t_end) - self.t_start
        if self._tau_switch is not None and (tau > self._tau_switch or not self._steps):
            return tau, None
        return tau, _step_at(self._steps, self._keys, tau)

    def _reduced_h4(self, tau):
        """h^4 at the elapsed time tau past the switch, inverting the time
        map; memoized."""
        hit = self._h4_cache.get(tau)
        if hit is not None:
            return hit
        val = invert_G(4 * (tau - self._tau_switch), self.g_problem)
        if len(self._h4_cache) < 8192:
            self._h4_cache[tau] = val
        return val

    def _g_at(self, s):
        """g(4/s) by eval_g's core: s >= h0^4 (invert_G, the split), so
        4/s lies in eval_g's domain (0, z0]."""
        return mp.make_mpf(self.g_problem._g(mpf_rdiv_int(4, s._mpf_, mp.prec, round_nearest)))

    def eval_h(self, t):
        with _workdps(self.dps):
            tau, step = self._locate(t)
            if step is None:
                return self._reduced_h4(tau) ** _QUARTER
            return mp.make_mpf(step.read(tau._mpf_, 0))

    def eval_hprime(self, t):
        with _workdps(self.dps):
            tau, step = self._locate(t)
            if step is None:
                s = self._reduced_h4(tau)
                return self._g_at(s) * s ** _MINUS_THREE_QUARTERS  # h' = g(4/h^4) / h^3
            return mp.make_mpf(step.read(tau._mpf_, 1))

    def err_bound(self, t):
        """Conservative estimate of |h_computed(t) - h(t)|."""
        with _workdps(self.dps):
            tau, step = self._locate(t)
            if step is not None:
                return step.err_cum
            problem = self.g_problem
            cum1 = self._steps[-1].err_cum if self._steps else mp.zero
            s_t = self._reduced_h4(tau)
            # error in the time-map argument: anchor shift from the direct
            # phase, integrand noise over the covered span, precision
            # floor, inversion residual
            noise = problem.ode_err + mp.mpf(self.cfg.abs_tol) + mp.mpf(self.cfg.rel_tol)
            d_arg = (
                4 * self._h_switch**3 * cum1
                + noise * (s_t - problem.anchor)
                + _floor(10) * max(mp.one, s_t)
                + self._inversion_err(s_t)
            )
            # |ds/dG| = g(4/s): twice its value at the read point covers the
            # arc between the computed and the true s
            return cum1 + 2 * self._g_at(s_t) * d_arg / (4 * s_t ** (mp.mpf(3) / 4))

    def _inversion_err(self, s):
        """Bound on |G(s) - x| at invert_G's root s: twice its tolerance, or G's
        rounding floor where Newton's step rounds away: past a switch, each of G's
        4 roundings (s - h0^4, log term, difference, + I) is <= 2^-prec max(s, h0^4)."""
        return max(2 * _floor(9), 4 * mp.ldexp(max(s, self.g_problem.anchor), -mp.prec))

    def samples(self):
        """(t, h, h') at the direct step points; past the switch at the g
        march's own points, then on a geometric grid refining toward the
        split S; endpoints included.

        A direct step point's t is t0 + its elapsed time, rounded once.
        The g march's points are the switch (its data), every later step
        start z_s and the last step's end z_c, where S = 4/z_c.  Each is
        read forward, with no inversion: s = 4/z_s, h = s^(1/4),
        h' = g_s s^(-3/4) and t = t_sw + G(s)/4, with G from the running
        integral I that the step holds at z_s (at z_c, dense output, and g
        there the series).  The points stop before t_end; the grid's
        offsets from the last of them start at t_end and halve until they
        reach 1, at most 60 of them.
        """
        with _workdps(self.dps):
            out = [(self.t_start + s.t_start, s.x0, s.y0) for s in self._steps]
            t_sw, t_end = self.switch_time, self.t_end
            if t_sw is None:
                out.append((t_end, self.eval_h(t_end), self.eval_hprime(t_end)))
                return out
            out.append((t_sw, self._h_switch, self._hprime_switch))
            problem = self.g_problem
            points = [(step.t_start._mpf_, step.x0._mpf_, step.y0._mpf_) for step in problem._steps[1:]]
            if problem._steps:
                last, z_c = problem._steps[-1], problem.z_c._mpf_
                points.append((z_c, problem._g(z_c), last.read(z_c, 1)))  # g: the series, as past S
            for z, g, i in points:
                s = mp.make_mpf(mpf_rdiv_int(4, z, mp.prec, round_nearest))
                t = t_sw + mp.make_mpf(problem._time_map(s._mpf_, i)) / 4
                if t >= t_end:
                    break
                out.append((t, s ** _QUARTER, mp.make_mpf(g) * s ** _MINUS_THREE_QUARTERS))
            base, offsets = out[-1][0], []
            off = t_end - base
            while True:
                offsets.append(off)
                off = off / 2
                if off <= 1 or len(offsets) >= 60:
                    break
            for off in reversed(offsets):
                t = base + off
                out.append((t, self.eval_h(t), self.eval_hprime(t)))
        return out

    @property
    def stats(self):
        info = {
            "steps": self.n_steps,
            "rejected": self.n_rejected,
            "rel_tol": self.cfg.rel_tol,
            "abs_tol": self.cfg.abs_tol,
            "dps": self.dps,
        }
        if self.g_problem is not None:
            info["switch_time"] = float(self.switch_time)
            info["g_steps"] = len(self.g_problem._steps)
        return info


def integrate_h(data: InitialData, t_max, cfg: SolverConfig | None = None) -> Trajectory:
    """Integrate x' = y, y' = x^{-3} - y from data.t0 to t_max.

    The equation is autonomous, so both routes run in the elapsed time
    tau = t - t0.  With h1 > 0 and a horizon past the direct span
    (_DIRECT_SPAN) the trajectory is the exact first-order reduction from
    t0 on the data's own g problem, solve_g(4/h0^4, h0^3 h1) (see
    Trajectory): h' > 0 holds from t0 on.  Otherwise (h1 <= 0, an own
    problem refused, a shorter horizon) direct Taylor steps, exact sums
    of the steps however large |t0| is, cover the transient and the
    direct span; the first step end beyond it with positive slope hands
    off to the reduction on the problem solved there, which carries the
    trajectory to arbitrarily large times without further stepping.  An
    own problem refuses by AccuracyError or IntegrationError; when the
    direct route fails too, one AccuracyError names both.  The returned
    object is dense on all of [t0, t_max] either way.
    """
    cfg = cfg or SolverConfig()
    with _workdps(cfg.effective_dps):
        t0, t_max = _check_horizon(data.t0, t_max)
        h0, h1, tau_max = mp.mpf(data.h0), mp.mpf(data.h1), t_max - t0
        span_direct, refused = mp.mpf(_DIRECT_SPAN), None
        if h1 > 0 and tau_max > span_direct:
            try:
                problem = solve_g(4 / h0**4, h0**3 * h1, cfg)
                return Trajectory(cfg, t0, [], t_max, 0, (problem, mp.zero, h0, h1))
            except (AccuracyError, IntegrationError) as exc:
                refused = exc
        try:
            steps, (tau, x, y), cum_err, rejected = _march(
                lambda t, x, y, order, k: (*_h_system_coeffs(x, y, order, k), k),
                2, mp.zero, h0, h1, tau_max, cfg,
                stop=lambda tau, x, y: y > 0 and tau >= span_direct, t0=t0,
            )
            reduction = None
            if tau < tau_max:  # stopped at the switch
                gamma = x**3 * y
                # the switch data carry the direct phase's error; widen the
                # consistency gate accordingly if z lands below the crossover
                seed = cum_err * (3 * x**2 * abs(y) + x**3)
                reduction = (solve_g(4 / x**4, gamma, cfg, seed_tol=100 * seed), tau, x, y)
        except (AccuracyError, ConvergenceError, IntegrationError) as exc:
            if refused is None:
                raise
            raise AccuracyError(
                f"the data's own problem refused ({refused}), and so did "
                f"the trajectory's switch problem ({exc})"
            ) from exc
        return Trajectory(cfg, t0, steps, t_max, rejected, reduction)


# -- the first-order problem and G ---------------------------------------------


class GProblem:
    """Dense representation of g on (0, z0] plus everything derived from it.

    Below the crossover ``z_c`` the solution is represented by the truncated
    series sum alpha_k z^k (all solutions collapse onto it at z -> 0 faster
    than any power); above, by the integrator's Taylor pieces, each carrying
    g and the running integral I(z) = int_z^{z0} r of the regular integrand
    r = (1/g - 1 + 3z/4) 4/z^2.  The two representations of g are required
    to agree at z_c when the problem is built.  ``i_c`` = I(z_c) is the
    integrator's own value at its last step end (zero without Taylor
    pieces, when z_c = z0).  Below z_c, r is the reciprocal series, and
    I(4/x) = J - T(x) for x >= S (see _beta_tail); the whole integral
    ``i_0`` = J = I(0) = i_c + T(S) is built here, once.  Both series
    below z_c, sum alpha_k z^k (_series) and T, are read by one integer
    Horner each (_fixed_horner, rounded once) on the mantissas that
    _fixed_member gives, stored once per problem.  The working precision
    is ``cfg.effective_dps``.

    ``anchor`` = h0^4 = 4/z0 is the lower limit of G and ``split`` = S =
    4/z_c the point beyond which G uses the series tail; both, and the
    domain bounds of eval_g and compute_G (a relative slack of 10^(4-dps)),
    are fixed when the problem is built.  ``n_rejected`` counts the
    integrator's rejected trial steps.
    """

    def __init__(self, z0, g0, z_c, steps, cfg, ode_err, rejected, i_c):
        self.z0 = z0
        self.g0 = g0
        self.z_c = z_c
        self.cfg = cfg
        self.dps = cfg.effective_dps
        self.ode_err = ode_err
        self.n_rejected = rejected
        self._steps = steps  # descending t_start; each covers [start-len, start]
        self._keys = [-s.t_start for s in steps]  # for _step_at
        with _workdps(self.dps):
            self.anchor = 4 / z0
            self.split = 4 / z_c
            slack = _floor(4)
            self._z_max = z0 * (1 + slack)  # eval_g's upper bound
            self._x_min = self.anchor * (1 - slack)  # compute_G's lower bound
            self._alphas = _fixed_member("alpha", _SERIES_ORDER)
            self._tail = _fixed_member("tail", _SERIES_ORDER)
            self.i_0 = i_c + mp.make_mpf(self._beta_tail(self.split._mpf_))

    def eval_g(self, z):
        """g(z) for z in (0, z0]: the domain checks, on raw mpfs, then _g at
        the problem's precision."""
        with _workdps(self.dps):
            z = mp.mpf(z)._mpf_
            if not mpf_gt(z, fzero):
                raise DomainError("g is defined on (0, z0]")
            if mpf_gt(z, self._z_max._mpf_):
                raise DomainError(f"z={mp.make_mpf(z)} beyond the initial point z0={self.z0}")
            return mp.make_mpf(self._g(z))

    def _g(self, z):
        """g at the raw z in eval_g's domain, unchecked, as a raw mpf at
        mp.prec: the alpha series up to z_c, dense output above."""
        if mpf_le(z, self.z_c._mpf_) or not self._steps:
            A, F = self._alphas
            return _fixed_horner(A, *_read_point(z, 0), F)
        return self._piece(z).read(z, 0)

    def _G(self, x):
        """G at the raw x >= h0^4, unchecked, as a raw mpf at mp.prec (see
        compute_G): I(4/x) is J - T(x) above S and dense output up to S."""
        prec, rnd = mp.prec, round_nearest
        if mpf_gt(x, self.split._mpf_) or not self._steps:
            i_x = mpf_sub(self.i_0._mpf_, self._beta_tail(x), prec, rnd)
        else:  # I(4/x) = int_{4/x}^{z0} r
            z = mpf_rdiv_int(4, x, prec, rnd)
            i_x = self._piece(z).read(z, 1)
        return self._time_map(x, i_x)

    def _time_map(self, x, i_x):
        """(x - h0^4) - 3 ln(x / h0^4) + i_x for raw mpfs at mp.prec: G(x)
        once i_x = I(4/x)."""
        prec, rnd, anchor = mp.prec, round_nearest, self.anchor._mpf_
        log = mpf_mul_int(mpf_log(mpf_div(x, anchor, prec, rnd), prec, rnd), 3, prec, rnd)
        return mpf_add(mpf_sub(mpf_sub(x, anchor, prec, rnd), log, prec, rnd), i_x, prec, rnd)

    def _piece(self, z):
        """The Taylor piece covering the raw z > z_c."""
        return _step_at(self._steps, self._keys, mp.make_mpf(mpf_neg(z)))

    def _beta_tail(self, x):
        """T(x) = sum_{k>=2} w_k x^(1-k) = int_0^{4/x} r, for x >= S.

        Below z_c the integrand is the series r = 4 sum_{k>=2} beta_k
        z^(k-2), integrated termwise, w_k = beta_k 4^k / (k-1).  One
        _fixed_horner read of T as a polynomial in u = 1/x, with u formed
        at F bits; the weights' mantissas are at the absolute scale 2^-F
        of _fixed_member.  Absolute accuracy suffices: T is at
        most 0.2 in size (u <= z_c/4), and x >= S > 100, so its error lies
        _GUARD_BITS bits below the rounding of x itself.  x and T are raw
        mpfs, T rounded to the caller's precision, the problem's.
        """
        T, F = self._tail
        return _fixed_horner(T, *_read_point(mpf_rdiv_int(1, x, F, round_nearest), 0), F)


def solve_g(z0, g0, cfg: SolverConfig | None = None, seed_tol=None) -> GProblem:
    """Build the dense representation of g through (z0, g0) down to z -> 0.

    Integrates g' = (1/z^2)(1 - 1/g) - (3/4) g/z from z0 toward zero until
    the crossover z_c (at most z0), below which the series takes over.

    Placement of the crossover is an accuracy/cost tradeoff.  The equation
    is stiff toward z = 0 (the solution-collapse rate is 1/z^2, so Taylor
    steps shrink like z^2 and the cost of reaching a depth z_c grows like
    1/z_c), while the series truncation error falls like the 25th power of
    z.  The crossover therefore goes at the largest z where the series' own
    last retained term is below 0.01 (abs_tol + rel_tol) z; the extra factor
    of z keeps the integrated impact of the series region (the integrands
    of G and c divide by z^2) below the noise the dense region already
    carries.  One check compares the march's value at z_c with the series
    there; with no step that value is g0, and the data's accuracy counts.

    Each step also carries the running integral I of the regular integrand
    (see GProblem); a step is accepted only when the truncation estimates
    of both g and I are within the local tolerance.

    ``seed_tol`` widens the step-free check for numerical (z0, g0), as at
    a trajectory's switch point.
    """
    cfg = cfg or SolverConfig()
    with _workdps(cfg.effective_dps):
        z0 = mp.mpf(z0)
        g0 = mp.mpf(g0)
        _require_finite(z0=z0, g0=g0)
        if not (z0 > 0 and g0 > 0):
            raise DomainError("solve_g needs z0 > 0 and g0 > 0")
        alphas, F = _fixed_member("alpha", _SERIES_ORDER)  # dyadic: exact at F >= 2k
        a_sub, a_top = (_to_mpf(m, -F) for m in alphas[-2:])
        k_top = _SERIES_ORDER
        tol_pt = mp.mpf("0.01") * (mp.mpf(cfg.abs_tol) + mp.mpf(cfg.rel_tol))

        def trunc_est(z):
            # last two retained terms as a proxy for the truncation error
            return abs(a_top) * z**k_top + abs(a_sub) * z ** (k_top - 1)

        z_c = (tol_pt / abs(a_top)) ** (mp.one / (k_top - 1))
        z_c = min(z_c, mp.mpf("0.03"))  # keep inside the decreasing-terms range
        while trunc_est(z_c) > tol_pt * z_c:
            z_c *= mp.mpf("0.9")

        z_c = min(z0, z_c)  # data already below the crossover: no step

        steps, (_, g, i_c), cum_err, rejected = _march(
            _g_system_coeffs, 1, z0, g0, mp.zero, z_c, cfg,
            cap="0.45",  # clear of the z = 0 singularity
            k=mp.mag(z0),  # the kernel's cap: no first step at a wider rho
        )
        problem = GProblem(z0, g0, z_c, steps, cfg, cum_err, rejected, i_c)
        series_at_zc = mp.make_mpf(problem._g(z_c._mpf_))  # z_c itself: the series
        agree_tol = 1000 * trunc_est(z_c) + 100 * cum_err + _floor(6)
        if not steps:  # below z_c every solution is the series, to the data's accuracy
            agree_tol += 10 * (mp.mpf(cfg.abs_tol) + mp.mpf(cfg.rel_tol) * abs(g0))
            if seed_tol is not None:
                agree_tol += mp.mpf(seed_tol)
        if abs(series_at_zc - g) > agree_tol:
            if not steps:
                raise AccuracyError(
                    "initial point lies below the series crossover but the "
                    "data disagree with the asymptotic profile; the backward "
                    "problem is not resolvable at this precision"
                )
            raise AccuracyError(
                f"series/ODE handoff mismatch at z_c={z_c}: "
                f"|{series_at_zc} - {g}| > {agree_tol}"
            )
        return problem


def g_problem_for_data(
    data: InitialData, cfg: SolverConfig | None = None
):
    """(GProblem, t_base) for the given initial data: the g_problem and
    switch_time of integrate_h's trajectory to the horizon t0 + 2^18.

    The reduction to the first-order problem needs h' > 0.  With h1 > 0 it
    is the data's own problem, based at t0.  When h1 <= 0 the trajectory
    is integrated forward to its switch (the region h' > 0 is absorbing:
    at h' = 0 the acceleration is h^{-3} > 0) and the problem is re-based
    there.  The same route is taken when the data's own problem is
    refused: by the switch the e^{-t} sector of the solution has decayed
    by about e^{-_DIRECT_SPAN}.  If that route refuses too, both refusals
    are named.  Where t0 + 2^18 would round to t0 (|t0| above about 1e44
    at 38 digits) the horizon is a few units of t0's last place instead.
    """
    cfg = cfg or SolverConfig()
    with _workdps(cfg.effective_dps):
        t0 = mp.mpf(data.t0)
        traj = integrate_h(data, t0 + max(2**18, mp.ldexp(abs(t0), 4 - mp.prec)), cfg)
        if traj.g_problem is None:
            raise ConvergenceError(
                "no stretch with positive slope found within the horizon"
            )
        return traj.g_problem, traj.switch_time


def compute_G(x, problem: GProblem):
    """G(x) = int_{h0^4}^{x} ds / g(4/s), for x >= h0^4.

    Checks x (finite, >= h0^4 less a slack of 10^(4-dps), clamped up to
    h0^4), enters the problem's precision and calls the raw core GProblem._G.

    G(x) = (x - h0^4) - 3 ln(x / h0^4) + I(4/x) on both sides of the split
    S.  Up to S, I(4/x) is dense output of the integrator's running
    integral: a bisection for the step and one Horner evaluation.  Above S,
    and for every x when the problem has no Taylor pieces, it is J - T(x),
    the problem's whole integral less the series tail in 1/x
    (GProblem._beta_tail); this is the large-x expansion
    x - 3 ln x + c - 4 sum_k (beta_{k+1}/k) (4/x)^k at the problem's own c.
    Without pieces S = h0^4 and J = T(S), so G(h0^4) = 0 exactly.
    """
    with _workdps(problem.dps):
        x = mp.mpf(x)._mpf_
        anchor = problem.anchor._mpf_
        if x == finf or not mpf_le(problem._x_min._mpf_, x):
            _require_finite(x=mp.make_mpf(x))
            raise DomainError(f"G is defined for x >= h0^4 = {problem.anchor}")
        return mp.make_mpf(problem._G(anchor if mpf_lt(x, anchor) else x))


def compute_c(problem: GProblem):
    """The constant c = int_{h0^4}^inf (1/g(4/s) - 1 + 3/s) ds - h0^4 + 3 ln h0^4.

    In the radial variable (s = 4/z) the integrand becomes the regular
    r(z) = (1/g(z) - 1 + (3/4) z) * 4/z^2, which extends continuously to
    z = 0 with value 4 beta_2, and the integral is the problem's
    J = I(0) = int_0^{z0} r: the running integral I(z_c) that the
    integrator accumulated step by step, plus the exact termwise integral
    T(S) of the series 1/g(4/s) - 1 + 3/s = sum_{k>=2} beta_k (4/s)^k below
    z_c (from z0 when the data already sit there).  The series' last term
    there, the top tail weight's w_24 (z_c/4)^23 = 4 beta_24 z_c^23 / 23,
    must lie below the tolerance.

    The result is the c of a problem based at t0 = 0; see
    compute_c_for_data for general base points.
    """
    with _workdps(problem.dps):
        T, F = problem._tail
        last_term = abs(_to_mpf(T[-1], -F)) * (problem.z_c / 4) ** (len(T) - 1)
        tail_gate = mp.mpf("0.01") * (
            mp.mpf(problem.cfg.abs_tol) + mp.mpf(problem.cfg.rel_tol)
        ) + _floor(8)
        if last_term > tail_gate:
            raise AccuracyError(
                "series tail for c not converged at the split point; "
                f"last term {last_term}"
            )
        return problem.i_0 - problem.anchor + 3 * mp.log(problem.anchor)


def compute_c_for_data(data: InitialData, cfg: SolverConfig | None = None):
    """c for general initial data, including the 4*t0 base-point offset.

    Re-basing at any other point of the same solution changes the integral's
    ingredients but not this value, which is what makes it the expansion's
    constant.
    """
    problem, t_base = g_problem_for_data(data, cfg)
    with _workdps(problem.dps):
        return compute_c(problem) + 4 * t_base


def _newton(f, slope, y, lo, hi, tol, what):
    """Root of the increasing f in the bracket [lo, hi], by Newton from y.

    Each residual narrows the bracket, and a Newton step that leaves it
    bisects instead.  The candidate hi is checked, and doubled until
    f(hi) >= 0, only at the first iterate at or beyond it or the first
    bisection, its only reads: the iterates are those of a bracket checked
    first.  Stops at |f(y)| <= tol, or when the next iterate equals y at
    working precision: an absolute tol can lie below f's rounding floor at
    y.  At most _FP_MAX_ITER iterations, read at call time.  Raw mpfs, f
    and slope too, by the libmp calls of mpf arithmetic: the bits of mpfs.
    """
    prec, rnd, checked = mp.prec, round_nearest, False
    for _ in range(_FP_MAX_ITER):
        res = f(y)
        if mpf_le(mpf_abs(res), tol):
            return y
        if res[0]:  # the sign bit: f(y) < 0
            lo = y
        else:
            hi, checked = y, True
        y_next = mpf_sub(y, mpf_div(res, slope(y), prec, rnd), prec, rnd)
        if y_next == y:
            return y
        if not (checked or mpf_lt(lo, y_next) and mpf_lt(y_next, hi)):
            for _ in range(200):
                if not f(hi)[0]:
                    break
                hi = mpf_shift(hi, 1)
            else:
                raise ConvergenceError(f"{what} could not bracket its root")
            checked = True
        if not (mpf_lt(lo, y_next) and mpf_lt(y_next, hi)):
            y_next = mpf_shift(mpf_add(lo, hi, prec, rnd), -1)
        y = y_next
    raise ConvergenceError(f"{what} hit the {_FP_MAX_ITER} cap")


def invert_G(x, problem: GProblem):
    """Solve G(y) = x for y >= h0^4.

    Bracketed Newton (_newton) with G'(y) = 1/g(4/y) on [h0^4, hi] from the
    leading-order inverse x + 3 ln(x + h0^4) - c (one fixed-point sweep of
    G's large-x form x - 3 ln x + c - T(x)), formed from the problem's whole
    integral J as x + h0^4 + 3 ln(1 + x/h0^4) - J, and at least h0^4; the
    candidate hi is 2x + h0^4 + 1.  x is checked here, and the residual
    and slope come from the raw cores GProblem._G and _g.  Stops at |G(y) - x| <= tol / 2, with tol
    the precision floor 10^(9 - dps) at the problem's working precision dps,
    or when the next iterate equals y at working precision: for large h0^4
    an absolute tol can lie below G's rounding floor.
    """
    with _workdps(problem.dps):
        x = mp.mpf(x)
        _require_finite(x=x)
        if x < 0:
            raise DomainError("G is nonnegative; no preimage for x < 0")
        if x == 0:
            return problem.anchor
        prec, rnd, x, lo = mp.prec, round_nearest, x._mpf_, problem.anchor._mpf_  # G(lo) = 0 <= x
        log = mpf_mul_int(mpf_log(mpf_add(fone, mpf_div(x, lo, prec, rnd), prec, rnd), prec, rnd), 3, prec, rnd)
        y0 = mpf_sub(mpf_add(mpf_add(x, lo, prec, rnd), log, prec, rnd), problem.i_0._mpf_, prec, rnd)
        # the iterates stay in the bracket [h0^4, hi], hi finite: compute_G's
        # domain with nothing to clamp, and 4/y in eval_g's (0, z0], so the
        # cores take them unchecked
        G, g = problem._G, problem._g
        return mp.make_mpf(_newton(
            lambda y: mpf_sub(G(y), x, prec, rnd),
            lambda y: mpf_rdiv_int(1, g(mpf_rdiv_int(4, y, prec, rnd)), prec, rnd),
            y0 if mpf_lt(lo, y0) else lo, lo,
            mpf_add(mpf_add(mpf_mul_int(x, 2, prec, rnd), lo, prec, rnd), fone, prec, rnd),
            mpf_shift(_floor(9)._mpf_, -1), "G inversion",
        ))


def lambert_root_tol(x, cfg: SolverConfig | None = None):
    """Residual at which lambert_wm1_numeric stops, |y - ln y - x| <= 10^(5-dps) x
    at its precision dps; the root is resolved to this over the slope 1 - 1/y."""
    with _workdps((cfg or SolverConfig()).effective_dps):
        return _floor(5) * mp.mpf(x)


def lambert_wm1_numeric(x, cfg: SolverConfig | None = None):
    """The larger root y > 1 of y - ln y = x, i.e. -W_{-1}(-e^{-x}).

    Bracketed Newton (_newton) on [1, hi] from y = x + ln x with the slope
    1 - 1/y (the function is convex and increasing on y > 1; the bracket
    guards the first steps), with the candidate hi = x + 2 ln x + 2.  It
    stops when the residual is within a few units of the working precision
    relative to x, so the root is as accurate as the precision allows.
    """
    cfg = cfg or SolverConfig()
    dps = cfg.effective_dps
    with _workdps(dps):
        x = mp.mpf(x)
        _require_finite(x=x)
        if x <= 1:
            raise DomainError("the branch point is at x = 1; need x > 1")
        prec, rnd, tol, x = mp.prec, round_nearest, lambert_root_tol(x, cfg)._mpf_, x._mpf_
        log_x = mpf_log(x, prec, rnd)
        return mp.make_mpf(_newton(
            lambda y: mpf_sub(mpf_sub(y, mpf_log(y, prec, rnd), prec, rnd), x, prec, rnd),
            lambda y: mpf_sub(fone, mpf_rdiv_int(1, y, prec, rnd), prec, rnd),
            mpf_add(x, log_x, prec, rnd), fone,
            mpf_add(mpf_add(x, mpf_mul_int(log_x, 2, prec, rnd), prec, rnd), from_int(2), prec, rnd),
            tol, "Lambert root iteration",
        ))


# -- export helpers -------------------------------------------------------------


def trajectory_to_csv(traj: Trajectory) -> str:
    """CSV text of traj.samples() with header t,h,hprime: h and h' to 17
    significant digits, and t to as many digits from 17 up as it takes
    for distinct stored times to print distinct text (at most repr_dps of
    the working precision).  From t0 = 1e25 the elapsed times below 1e9
    need more than 17 digits beside t0; from t0 = 1e300 the first times
    t0 + tau round to t0 itself at the working precision, and those rows
    print the same t."""
    with _workdps(traj.dps):
        rows = traj.samples()
        n_times = len({t._mpf_ for t, _, _ in rows})
        for digits in range(17, repr_dps(mp.prec) + 1):
            times = [mp.nstr(t, digits, strip_zeros=False) for t, _, _ in rows]
            if len(set(times)) == n_times:
                break
        lines = ["t,h,hprime"]
        for text, (_, h, hp) in zip(times, rows):
            lines.append(",".join([text] + [mp.nstr(v, 17, strip_zeros=False) for v in (h, hp)]))
        return "\n".join(lines) + "\n"
