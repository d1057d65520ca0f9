"""The large-x expansions of G and of its inverse: test oracles.

The package inverts G numerically and never evaluates these two series;
tests use them as references for the numerical G and for the q family:

* ``eval_G_asympt(model, x, n)`` is
  x - 3 ln x + c - 4 sum_{k=1}^{n} (beta_{k+1} / k) (4/x)^k;
* ``eval_Ginv_asympt(model, x, n)`` is x + sum_{k=0}^{n} p_k(c; ln x) / x^k,
  each p_k by Horner on its dense coefficients in w = 3 ln x - c.

``model`` is an ``asymptode.asympt.AsymptoticModel``: its ``c`` and ``dps``
are used, and its ``order`` when ``n`` is not given.
"""

from __future__ import annotations

from mpmath import mp

from asymptode.errors import DomainError
from asymptode.families import gen_beta
from series_oracle import dense


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
