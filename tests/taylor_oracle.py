"""Taylor-coefficient recurrences in mpf arithmetic: a test oracle.

``asymptode.numerics`` builds the local Taylor series of its two ODEs on
fixed-point integers (one int mantissa per scaled coefficient).  This
module keeps the textbook form of the same three recurrences, one mpf
``fsum`` per convolution coefficient at the caller's working precision, so
the integer kernels can be checked against it at a higher precision:

* ``h_system_coeffs(x0, y0, order)``: x' = y, y' = x^{-3} - y, with the
  reciprocal recurrence for v = 1/x and v^3 by two convolutions.  This is
  deliberately not the kernel's power rule for x^{-3}, so that the kernel
  is checked against an independent recurrence;
* ``g_equation_coeffs(z_s, g_s, order)``: z^2 g' = 1 - 1/g - (3/4) z g and
  the reciprocal series of g, by the convolution g (1/g) = 1.  The kernel
  instead squares g, as the equation times g is linear in g^2, and never
  forms 1/g: the oracle keeps the 1/g route so that the two are
  independent;
* ``running_integral_coeffs(z_s, R, base)``: I(z) = base + int_z^{z_s} r
  for r = (1/g - 1 + 3z/4) 4/z^2, from the coefficients R of 1/g (the
  kernel takes r = -4 g' - 3 (g - 1)/z from g alone).

``tail_estimate(coeffs, h)`` is the integrator's truncation estimate in its
textbook form, over a whole mpf coefficient list, and ``step_guess(coeff_sets,
eps_loc, order)`` its step guess, one mpf root per nonzero candidate: the
mpf step control that the integrator's control on log2 doubles is checked
against, alone and patched into the marcher.

``unscale(head, mants, F, k)`` turns a kernel's mantissas into mpf
coefficients, and ``horner(coeffs, u)`` evaluates such a list in mpf: the
reference for the integer Horner that every numeric read uses.
``fixed_eval(mants, h, F, k)`` is that shipped read at the mpf h, as an
mpf: the package reads on raw mpfs only, one exact split of the point
(numerics._read_point) and the one Horner loop (numerics._fixed_horner).

Two integer forms are bit-for-bit references: ``fixed_eval_widened(mants,
h, F, k)`` widens every read point u = h / rho to an integer U of at
least F significant bits, and ``g_system_coeffs_zeta(z_s, g_s, i_s,
order, k)`` forms the g kernel's (8j + 6) zeta Y_j from zeta = z_s / rho
at the scale 2^-F.  The shipped forms multiply by the read point's and
z_s's own mantissas instead, and must give the same integers wherever the
point has at most F bits, as every point the package reads has.
"""

from __future__ import annotations

from operator import mul

from mpmath import mp
from mpmath.libmp import to_fixed

from asymptode.numerics import _fixed_horner, _fixed_scale, _read_point, _shift, _to_mpf


def unscale(head, mants, F, k):
    """[head] + the mpf values mants[j] 2^(-F - k j) for j >= 1.

    Undoes the fixed-point scale and the rho = 2^k scaling of the independent
    variable with one rounding to mp.prec per coefficient; the j = 0 entry is
    the caller's own mpf, passed through unchanged.
    """
    return [head] + [_to_mpf(m, -F - k * j) for j, m in enumerate(mants[1:], 1)]


def horner(coeffs, u):
    """sum_j coeffs[j] u^j in mpf, one rounding per stage."""
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * u + c
    return acc


def h_system_coeffs(x0, y0, order):
    """Taylor coefficients (X, Y) at one point for x' = y, y' = x^{-3} - y."""
    X = [x0]
    Y = [y0]
    V = [1 / x0]
    V2 = [V[0] * V[0]]
    U = [V2[0] * V[0]]  # x^{-3}
    inv_x0 = V[0]
    for j in range(order):
        X.append(Y[j] / (j + 1))
        Y.append((U[j] - Y[j]) / (j + 1))
        m = j + 1
        V.append(-inv_x0 * mp.fsum(X[i] * V[m - i] for i in range(1, m + 1)))
        V2.append(mp.fsum(V[i] * V[m - i] for i in range(m + 1)))
        U.append(mp.fsum(V2[i] * V[m - i] for i in range(m + 1)))
    return X, Y


def g_equation_coeffs(z_s, g_s, order):
    """Taylor coefficients (C, R) at z_s of g and 1/g for
    z^2 g' = 1 - 1/g - (3/4) z g."""
    C = [g_s]
    R = [1 / g_s]  # 1/g
    inv_g0 = R[0]
    zs2 = z_s * z_s
    three_q = mp.mpf(3) / 4
    for j in range(order):
        c_jm1 = C[j - 1] if j >= 1 else mp.zero
        rhs = (mp.one if j == 0 else mp.zero) - R[j]
        rhs -= three_q * (z_s * C[j] + c_jm1)
        rhs -= 2 * z_s * j * C[j] + (j - 1) * c_jm1
        C.append(rhs / (zs2 * (j + 1)))
        m = j + 1
        R.append(-inv_g0 * mp.fsum(C[i] * R[m - i] for i in range(1, m + 1)))
    return C, R


def running_integral_coeffs(z_s, R, base):
    """Taylor coefficients at z_s of I(z) = base + int_z^{z_s} r.

    With z = z_s + u, the identity r (z_s + u)^2 = 4 (R - 1 + 3 (z_s + u)/4)
    gives r's coefficients F_k in O(order); I' = -r integrates them termwise.
    """
    zs2 = z_s * z_s
    D = list(R)
    D[0] += 3 * z_s / 4 - 1
    D[1] += mp.mpf(3) / 4
    F = []
    for k, d_k in enumerate(D):
        acc = 4 * d_k
        if k >= 1:
            acc -= 2 * z_s * F[k - 1]
        if k >= 2:
            acc -= F[k - 2]
        F.append(acc / zs2)
    return [base] + [-f / (k + 1) for k, f in enumerate(F)]


def tail_estimate(coeffs, h, count=3):
    """Crude truncation bound: twice the sum of the last ``count`` terms at h."""
    top = len(coeffs) - 1
    lo = max(1, top - count + 1)
    est = mp.zero
    hp = abs(h) ** lo
    for j in range(lo, top + 1):
        est += abs(coeffs[j]) * hp
        hp *= abs(h)
    return 2 * est


def step_guess(coeff_sets, eps_loc, order):
    """0.8 times the smallest (eps_loc / |c|)^(1/j) over the coefficients c
    of degree j = order and order - 1 (the last two of each set), in mpf,
    the smallest first in order by strict <; infinite when all are zero."""
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


def fixed_eval(mants, h, F, k):
    """The shipped read of mants (scale 2^-F) at u = h / 2^k for the mpf h,
    as an mpf rounded once to mp.prec."""
    return mp.make_mpf(_fixed_horner(mants, *_read_point(h._mpf_, k), F))


def fixed_eval_widened(mants, h, F, k):
    """Integer Horner of mants (scale 2^-F) at u = h / 2^k, rounded once
    to mp.prec, with U = floor(h 2^(E - k)) at E = F + max(0, k - mag h)
    bits whatever the length of h (E = F at h = 0)."""
    E = F + max(0, k - mp.mag(h)) if h else F
    U = to_fixed(h._mpf_, E - k)
    acc = mants[-1]
    for m in reversed(mants[:-1]):
        acc = (acc * U >> E) + m
    return _to_mpf(acc, -F)


def g_system_coeffs_zeta(z_s, g_s, i_s, order, k):
    """(C, I, F, k) of the g kernel, with its (8j + 6) zeta Y_j formed from
    zeta = floor(z_s 2^(F - k)) and shifted by F + 2."""
    F = _fixed_scale(g_s)
    k = min(k, mp.mag(z_s))
    zeta = to_fixed(z_s._mpf_, F - k)
    inv_zeta = (1 << 2 * F) // zeta
    inv_zeta2 = (1 << 3 * F) // (zeta * zeta)
    C = [to_fixed(g_s._mpf_, F)]
    r0 = (1 << 2 * F) // C[0]
    Y = [C[0] * C[0] >> F]
    I = [to_fixed(i_s._mpf_, F)]
    f = 0
    for j in range(order + 1):
        d = C[j] - (1 << F) if j == 0 else C[j]
        num = _shift(2 * d, -k) - ((8 * j + 6) * zeta * Y[j] >> F + 2)
        if j >= 1:
            num -= (2 * j + 1) * Y[j - 1] >> 1
        Y.append((num * inv_zeta2 >> F) // (j + 1))
        half = j // 2
        s = 2 * sum(map(mul, C[1 : half + 1], C[j : j - half : -1]))
        if j % 2:
            s += C[half + 1] * C[half + 1]
        C.append((Y[j + 1] - (s >> F)) * r0 >> F + 1)
        f = (d - f) * inv_zeta >> F
        I.append(4 * C[j + 1] + 3 * f // (j + 1))
    del C[-1]
    return C, I, F, k
