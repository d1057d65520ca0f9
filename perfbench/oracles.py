"""Computations the benchmark checks the program against.

Nothing here imports ``asymptode``: every reference is built from the
mathematics directly (closed forms, the defining equations, mpmath's own
special functions and ODE solver), so a fault in the package's exact or
numeric layer cannot hide in its own oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction

from mpmath import mp


# -- polynomials as printed by ``asymptode series`` ---------------------------


def parse_poly(text):
    """Terms {(c_power, z_power): Fraction} of one printed polynomial.

    The printed form is a sequence of terms joined by `` + `` / `` - ``;
    a term is ``*``-joined factors: an optional rational coefficient,
    ``z``/``z^j`` and ``c``/``c^i``.
    """
    tokens = text.split(" ")
    terms = {}

    def add(term, sign):
        coeff, i, j = Fraction(1), 0, 0
        for factor in term.split("*"):
            if factor.startswith("z"):
                j = int(factor[2:]) if factor.startswith("z^") else 1
            elif factor.startswith("c"):
                i = int(factor[2:]) if factor.startswith("c^") else 1
            else:
                coeff = Fraction(factor)
        terms[(i, j)] = terms.get((i, j), 0) + sign * coeff

    head = tokens[0]
    if head.startswith("-"):
        add(head[1:], -1)
    else:
        add(head, 1)
    if len(tokens) % 2 != 1:
        raise ValueError("malformed polynomial: %r" % text[:80])
    for k in range(1, len(tokens), 2):
        if tokens[k] not in ("+", "-"):
            raise ValueError("malformed polynomial: %r" % text[:80])
        add(tokens[k + 1], 1 if tokens[k] == "+" else -1)
    return {key: v for key, v in terms.items() if v}


def parse_family(stdout):
    """{index: terms} from ``label[k] = poly`` lines."""
    family = {}
    for line in stdout.splitlines():
        label, poly = line.split(" = ", 1)
        k = int(label[label.index("[") + 1 : label.index("]")])
        family[k] = parse_poly(poly)
    return family


def eval_poly(terms, c, z):
    """sum v c^i z^j in the current mp precision, Horner in z per c power."""
    by_c = {}
    for (i, j), v in terms.items():
        by_c.setdefault(i, {})[j] = v
    total = mp.zero
    for i, row in by_c.items():
        acc = mp.zero
        for j in range(max(row), -1, -1):
            v = row.get(j)
            acc = acc * z + (mp.mpf(v.numerator) / v.denominator if v else 0)
        total += acc * c**i
    return total


# -- the Lambert analogue: de Bruijn / Comtet closed form ---------------------


def stirling_cycle(n_max):
    """Unsigned Stirling numbers of the first kind [n, k] for n <= n_max."""
    s = [[0] * (n_max + 1) for _ in range(n_max + 1)]
    s[0][0] = 1
    for n in range(1, n_max + 1):
        for k in range(1, n + 1):
            s[n][k] = s[n - 1][k - 1] + (n - 1) * s[n - 1][k]
    return s


def lambert_ptilde(n_max):
    """ptilde_0..ptilde_n_max as {(0, m): Fraction}.

    From y = x + ln x - sum_{k>=0, m>=1} c_km (ln x)^m / (-x)^(k+m) with
    c_km = (-1)^k [k+m, k+1] / m! (Corless, Gonnet, Hare, Jeffrey & Knuth,
    Adv. Comput. Math. 5 (1996), section 4): the coefficient of x^-n is
    ptilde_n(z) = (-1)^(n+1) sum_{m=1..n} c_{n-m,m} z^m, and ptilde_0 = z.
    """
    s = stirling_cycle(n_max + 1)
    out = [{(0, 1): Fraction(1)}]
    for n in range(1, n_max + 1):
        poly = {}
        for m in range(1, n + 1):
            k = n - m
            c_km = Fraction((-1) ** k * s[k + m][k + 1], math.factorial(m))
            if c_km:
                poly[(0, m)] = (-1) ** (n + 1) * c_km
        out.append(poly)
    return out


def lambert_root(x):
    """The root y > 1 of y - ln y = x, as -W_{-1}(-e^{-x})."""
    return -mp.re(mp.lambertw(-mp.exp(-x), -1))


# -- the radial series and the expansions of G, G^{-1} and h -------------------


def radial_betas(n_max):
    """beta_0..beta_n_max: the coefficients of 1/g for the formal solution g.

    g = sum alpha_k z^k solves (1 - (3/4) z g - z^2 g') g = 1.  Using
    g g' = (g^2)'/2, the z^(k+1) coefficient gives
    alpha_(k+1) = (k/2 + 3/4) [g^2]_k.  The reciprocal is then taken by
    plain series division, not by the package's own beta recursion.
    """
    alphas = [Fraction(1)]
    for k in range(n_max):
        square = sum(alphas[j] * alphas[k - j] for j in range(k + 1))
        alphas.append((Fraction(k, 2) + Fraction(3, 4)) * square)
    betas = [Fraction(1)]
    for m in range(1, n_max + 1):
        betas.append(-sum(alphas[j] * betas[m - j] for j in range(1, m + 1)))
    return betas


def g_expansion(betas, c, x, n):
    """G(x) ~ x - 3 ln x + c - 4 sum_{k=1..n} (beta_(k+1)/k) (4/x)^k.

    Termwise integral of G'(x) = 1/g(4/x) = sum beta_k (4/x)^k, with
    beta_1 = -3/4 giving the logarithm and c the constant of integration.
    """
    acc = x - 3 * mp.log(x) + c
    r, rk = 4 / x, mp.one
    for k in range(1, n + 1):
        rk *= r
        b = betas[k + 1]
        acc -= 4 * rk * (mp.mpf(b.numerator) / b.denominator) / k
    return acc


def ginv_expansion(p, c, x, n):
    """x + sum_{k=0..n} p_k(c; ln x) / x^k from parsed p polynomials."""
    w = mp.log(x)
    acc, xk = x, mp.one
    for k in range(n + 1):
        acc += eval_poly(p[k], c, w) / xk
        xk *= x
    return acc


def profile_expansion(q, c, t, n):
    """(4t)^(1/4) (1 + sum_{k=1..n} q_k(c; ln 4t) / t^k) from q polynomials."""
    z = mp.log(4 * t)
    acc, tk = mp.one, mp.one
    for k in range(1, n + 1):
        tk *= t
        acc += eval_poly(q[k], c, z) / tk
    return (4 * t) ** (mp.one / 4) * acc


# -- the trajectory ---------------------------------------------------------------


def ode_reference(t0, h0, h1):
    """h(t) for h'' = h^-3 - h' by mpmath's own Taylor ODE solver.

    Accurate to about the working precision in force when it is called;
    the caller sets that precision well above the tolerance being checked.
    """
    sol = mp.odefun(
        lambda t, y: [y[1], y[0] ** -3 - y[1]],
        mp.mpf(t0),
        [mp.mpf(h0), mp.mpf(h1)],
    )
    return lambda t: sol(t)[0]
