"""Generic truncated power series with exact coefficients: a test oracle.

The family generators in ``asymptode.families`` build p and q by
quadratic recurrences, the ODE of G^{-1} and the equation for h with the
power rule, and ptilde in closed form from Stirling cycle numbers.
This module computes the same quantities from their defining composition
formulas, in two ways that share no recurrence with the package.  One
point at a time, with a general series calculus:

* ``series_pow(a, m)`` is ``a^m``; its ``k``-th coefficient is the sum of
  ``a_{i_1}*...*a_{i_m}`` over all compositions ``i_1 + ... + i_m = k``.
* ``series_compose_coeffs(f, a)`` is ``sum_m f_m a^m``, i.e. ``f`` composed
  with ``a``.
* ``sigma0(a)`` is ``log(1 + a)``.
* ``sigma_m(a, m)`` is ``(1 + a)^(-m)`` for integer ``m >= 1``.
* ``series_reciprocal(a)`` is ``1 / a``.
* ``rational_binomial(top, j)`` is ``binom(top, j)`` for rational ``top``.
* ``series_to_json`` / ``series_from_json`` write and read a series with
  its integers as decimal strings.

And whole members at once, in the package's integer form:
``composition_families(N)`` is p_0..p_N, q_1..q_N and ptilde_0..ptilde_N by
the composition-sum table s_{j,m} = [x^m] a^j over one polynomial variable,
with C(N+2, 3) polynomial products.  It only borrows the package's
``_sum_of_products`` (weighted pairs) to accumulate, so its results must
equal the generators' exactly, lengths included.  ``lambert_log_rule(N)``
is ptilde_0..ptilde_N by the log rule, the recursion of ``log(1 + a)``, in
the same integer form: the reference of the closed form beyond order 40.

The two dyadic sequences, as the reference the package's integer
recurrences must equal: ``alpha_fractions(N)`` and ``beta_fractions(N)``
run the Fraction recurrences of alpha and of its reciprocal beta, and
``ode_residual_order(N)`` substitutes ``gen_alpha``'s values into the ODE
with the series calculus above, sharing no arithmetic with the package.

One helper reads the package instead: ``dense(family, n)`` is the exact
dense coefficients of a member, as ``Fraction``s from the integer form
``families._member`` holds, for tests that evaluate members exactly.  And
``degree(poly, var)`` reads the degree in ``"c"`` or ``"z"`` of a display
form (a ``BivariatePoly``), for the degree bounds of the families.

The text path's reference: ``terms_reference(poly, in_w)`` expands an
integer form into its (c, z) terms with one gcd per whole term, and
``format_reference(terms)`` writes them with one factor list per term, the
plain forms that ``families._terms`` and ``series.format_terms`` must
equal term for term and byte for byte.

Everything here is written for ``a = a_1 x + a_2 x^2 + ...`` with zero
constant term unless stated otherwise.  ``tests/test_series.py`` checks the
calculus itself against brute-force enumeration and closed forms.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from asymptode.errors import DomainError
from asymptode.families import _ONE, _member, _sum_of_products, gen_alpha, gen_beta


def _exact(value) -> Fraction:
    if isinstance(value, float):
        raise DomainError("refusing to build an exact coefficient from a float")
    return Fraction(value)


def rational_binomial(top, j: int) -> Fraction:
    """Exact binomial coefficient ``binom(top, j)`` with rational ``top``.

    Computed as the falling-factorial product
    ``top (top-1) ... (top-j+1) / j!``, entirely in rational arithmetic.
    """
    if j < 0:
        raise DomainError("binomial lower index must be >= 0")
    top = _exact(top)
    result = Fraction(1)
    for i in range(j):
        result = result * (top - i) / (i + 1)
    return result


class TruncatedSeries:
    """Formal power series truncated at a fixed order, exact coefficients.

    ``TruncatedSeries([1, 2, 3])`` is ``1 + 2x + 3x^2`` with order 2.
    Passing ``order=`` pads with zeros (it must not be smaller than the
    coefficients provided).  Binary operations truncate to the smaller of
    the two orders.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable, order: int | None = None):
        values = [_exact(v) for v in coeffs]
        if order is not None:
            if order < 0:
                raise DomainError("series order must be >= 0")
            if len(values) > order + 1:
                raise DomainError(f"{len(values)} coefficients exceed order {order}")
            values.extend([Fraction(0)] * (order + 1 - len(values)))
        if not values:
            raise DomainError("a series needs at least its constant term")
        self._coeffs = tuple(values)

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    def __getitem__(self, k: int) -> Fraction:
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient index {k} outside 0..{self.order}")
        return self._coeffs[k]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __repr__(self) -> str:
        shown = ", ".join(str(c) for c in self._coeffs[:6])
        if self.order > 5:
            shown += ", ..."
        return f"TruncatedSeries(order={self.order}, [{shown}])"

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls([0], order=order)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls([1], order=order)

    @classmethod
    def identity(cls, order: int) -> "TruncatedSeries":
        """The series ``x`` (requires order >= 1)."""
        if order < 1:
            raise DomainError("the identity series needs order >= 1")
        return cls([0, 1], order=order)

    def truncate(self, order: int) -> "TruncatedSeries":
        if order < 0:
            raise DomainError("series order must be >= 0")
        if order >= self.order:
            return self
        return TruncatedSeries(self._coeffs[: order + 1])

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        return TruncatedSeries([self._coeffs[k] + other._coeffs[k] for k in range(n + 1)])

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self._coeffs[: n + 1]):
            if not a:
                continue
            for j in range(n + 1 - i):
                b = other._coeffs[j]
                if b:
                    out[i + j] += a * b
        return TruncatedSeries(out)

    def scale(self, factor) -> "TruncatedSeries":
        f = _exact(factor)
        return TruncatedSeries([f * c for c in self._coeffs])

    def shift(self, constant) -> "TruncatedSeries":
        """Add a constant to the series (only the order-0 coefficient moves)."""
        out = list(self._coeffs)
        out[0] += _exact(constant)
        return TruncatedSeries(out)

    def derivative(self) -> "TruncatedSeries":
        """Coefficient-wise derivative; the order drops by one (order 0 stays 0)."""
        if self.order == 0:
            return TruncatedSeries([0])
        return TruncatedSeries([k * self._coeffs[k] for k in range(1, self.order + 1)])

    def lowest_nonzero_index(self) -> int | None:
        """Index of the first nonzero coefficient, or None if all vanish."""
        for k, c in enumerate(self._coeffs):
            if c:
                return k
        return None


def _require_zero_constant(a: TruncatedSeries, op: str) -> None:
    if a[0] != 0:
        raise DomainError(f"{op} requires a series with zero constant term, got {a[0]}")


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Exact product, truncated to the smaller of the two orders."""
    return a * b


def series_pow(a: TruncatedSeries, m: int) -> TruncatedSeries:
    """``a^m`` for a series with zero constant term and integer ``m >= 0``."""
    if m < 0:
        raise DomainError("series_pow exponent must be >= 0")
    _require_zero_constant(a, "series_pow")
    result = TruncatedSeries.one(a.order)
    for _ in range(m):
        result = result * a
    return result


def series_compose_coeffs(f: TruncatedSeries, a: TruncatedSeries) -> TruncatedSeries:
    """Composition ``sum_m f_m a^m``, by Horner over the outer coefficients."""
    _require_zero_constant(a, "series_compose_coeffs")
    n = min(f.order, a.order)
    a_t = a.truncate(n)
    result = TruncatedSeries([f[n]], order=n)
    for m in range(n - 1, -1, -1):
        result = (result * a_t).shift(f[m])
    return result


def sigma0(a: TruncatedSeries) -> TruncatedSeries:
    """``log(1 + a)``."""
    _require_zero_constant(a, "sigma0")
    log_coeffs = [Fraction(0)] + [Fraction((-1) ** (j + 1), j) for j in range(1, a.order + 1)]
    return series_compose_coeffs(TruncatedSeries(log_coeffs), a)


def sigma_m(a: TruncatedSeries, m: int) -> TruncatedSeries:
    """``(1 + a)^(-m)`` for integer ``m >= 1``."""
    if m < 1:
        raise DomainError("sigma_m requires m >= 1 (use sigma0 for the log form)")
    _require_zero_constant(a, "sigma_m")
    binom_coeffs = [rational_binomial(-m, j) for j in range(a.order + 1)]
    return series_compose_coeffs(TruncatedSeries(binom_coeffs), a)


def series_reciprocal(a: TruncatedSeries) -> TruncatedSeries:
    """``1 / a`` for a nonzero constant term, from the convolution
    ``sum_i a_i r_{k-i} = [k = 0]`` solved coefficient by coefficient."""
    if a[0] == 0:
        raise DomainError("series_reciprocal requires a nonzero constant term")
    inv0 = 1 / a[0]
    out = [inv0]
    for k in range(1, a.order + 1):
        acc = sum((a[i] * out[k - i] for i in range(1, k + 1) if a[i]), Fraction(0))
        out.append(-inv0 * acc)
    return TruncatedSeries(out)


def alpha_fractions(N: int) -> list[Fraction]:
    """alpha_0..alpha_N by alpha_{k+1} = (k/2 + 3/4) sum_{j<=k} alpha_j alpha_{k-j}."""
    alphas = [Fraction(1)]
    for k in range(N):
        conv = sum(alphas[j] * alphas[k - j] for j in range(k + 1))
        alphas.append((Fraction(k, 2) + Fraction(3, 4)) * conv)
    return alphas


def beta_fractions(N: int) -> list[Fraction]:
    """beta_0..beta_N by beta_{m+1} = (m - 3/4) beta_m + D - T, D the double
    and T the triple product sum of index m + 1 over indices <= m.  T's
    j = 0 part is D, and its j >= 1 parts are beta_j times the square
    series' sq_{m+1-j}."""
    betas, squares = [Fraction(1)], [Fraction(1)]
    for m in range(N):
        triple = sum(betas[j] * squares[m + 1 - j] for j in range(1, m + 1))
        betas.append((m - Fraction(3, 4)) * betas[m] - triple)
        squares.append(sum(betas[j] * betas[m + 1 - j] for j in range(m + 2)))
    return betas


def ode_residual_order(N: int) -> int:
    """Order of the residual left by the order-N truncation of the series.

    Substitutes the degree-N polynomial g = sum_{k<=N} alpha_k z^k, from
    ``gen_alpha``, into (1 - (3/4) z g - z^2 g') g - 1 at order 2N + 1, the
    residual's full degree, so nothing is truncated, and returns the lowest
    index with a nonzero coefficient.  A formal solution of the equation
    must leave a residual of order at least N+1.
    """
    if N < 1:
        raise DomainError("ode_residual_order needs N >= 1")
    top = 2 * N + 1
    g = TruncatedSeries(gen_alpha(N), order=top)
    z = TruncatedSeries.identity(top)
    g_prime = TruncatedSeries(g.derivative().coeffs, order=top)
    inner = (z * g).scale(Fraction(-3, 4)) + (z * z * g_prime).scale(-1)
    residual = (inner.shift(1) * g).shift(-1)
    order = residual.lowest_nonzero_index()
    if order is None:
        raise DomainError("residual vanished identically; truncation order suspect")
    return order


def series_to_json(s: TruncatedSeries) -> dict:
    """Coefficients as [numerator, denominator] decimal strings."""
    return {
        "order": s.order,
        "coeffs": [[str(c.numerator), str(c.denominator)] for c in s.coeffs],
    }


def series_from_json(data) -> TruncatedSeries:
    order = int(data["order"])
    coeffs = [Fraction(int(num), int(den)) for num, den in data["coeffs"]]
    if len(coeffs) != order + 1:
        raise DomainError(f"series JSON claims order {order} but has {len(coeffs)} coefficients")
    return TruncatedSeries(coeffs)


def dense(family: str, n: int) -> tuple[Fraction, ...]:
    """Member n of ``family`` ("p", "q", "lambert", "alpha" or "tail", as for
    ``families.fixed_coeffs``), exactly, lowest power first."""
    nums, den = _member(family, n)
    return tuple(Fraction(v, den) for v in nums)


def degree(poly, var: str) -> int:
    """Largest exponent of var ("c" or "z") in a BivariatePoly with a
    nonzero coefficient; -1 for the zero polynomial."""
    slot = {"c": 0, "z": 1}[var]
    return max((key[slot] for key in poly.terms), default=-1)


def terms_reference(poly, in_w: bool) -> list:
    """The (c, z) terms (c_power, z_power, num, den) of an integer form, in
    the order ``families._terms`` gives them, each reduced by one gcd of
    its whole product u_j C(j, i) 3^i (-1)^(j-i) against den."""
    nums, den = poly
    top = len(nums)
    out = []
    for i in range(top - 1, -1, -1):
        weight = 3**i if in_w else 1
        for j in range(i, top if in_w else i + 1):
            u = nums[j]
            if u:
                v = math.comb(j, i) * weight * (u if (j - i) % 2 == 0 else -u)
                g = math.gcd(v, den)
                out.append((j - i, i, v // g, den // g))
    return out


def format_reference(terms) -> str:
    """The text ``series.format_terms`` writes for the terms, built as one
    factor list per term: coefficient, z power, c power."""
    pieces = []
    for i, j, num, den in terms:
        factors = []
        mag = abs(num)
        if den != 1 or mag != 1 or (i == 0 and j == 0):
            factors.append(f"{mag}/{den}" if den != 1 else str(mag))
        if j:
            factors.append("z" if j == 1 else f"z^{j}")
        if i:
            factors.append("c" if i == 1 else f"c^{i}")
        term = "*".join(factors)
        if not pieces:
            pieces.append(f"-{term}" if num < 0 else term)
        else:
            pieces.append(f"- {term}" if num < 0 else f"+ {term}")
    return " ".join(pieces) if pieces else "0"


def _extend_s_table(table: dict, filled: int, m_max: int, a: list) -> int:
    """Fill rows filled+1 .. m_max of a composition-sum table.

    ``a[i]`` is the series coefficient a_{i+1}.  Row ``m`` holds s_{j,m}
    for j = 1..m via s_{1,m} = a_m and
    s_{j,m} = sum_{i=j-1}^{m-1} s_{j-1,i} a_{m-i}.
    """
    if m_max > len(a):
        raise DomainError("composition table extended past known arguments")
    for m in range(filled + 1, m_max + 1):
        table[(1, m)] = a[m - 1]
        for j in range(2, m + 1):
            table[(j, m)] = _sum_of_products(
                [(table[(j - 1, i)], a[m - i - 1], 1, 1) for i in range(j - 1, m)]
            )
    return max(filled, m_max)


def _sigma0_terms(table: dict, n: int, weight: int) -> list:
    """weight * sigma0_n = weight * sum_{j=1}^{n} (-1)^(j+1)/j * s_{j,n}, as
    terms for _sum_of_products."""
    return [(table[(j, n)], _ONE, weight * (-1) ** (j + 1), j) for j in range(1, n + 1)]


def composition_families(N: int) -> tuple[list, dict, list]:
    """(p, q, ptilde) as the package's integer forms, from the composition
    formulas over the table s_{j,m} on a_j := p_{j-1} (ptilde_{j-1}):

        p_n = 3 sigma0_n + sum_{k=1}^{n-1} (4^{k+1} beta_{k+1} / k) sigma^k_{n-k}
              + 4^{n+1} beta_{n+1} / n,   p_0 = w,
        q_k = sum_{m=1}^{k} 4^{-k} binom(1/4, m) s_{m,k},
        ptilde_k = sigma0_k,   ptilde_0 = z.

    p is a list over n = 0..N, q a dict over k = 1..N, ptilde a list.
    """
    betas = gen_beta(N + 1)

    def weight(k):
        return Fraction(4**k, k - 1) * betas[k]

    p = [((0, 1), 1)]
    table: dict = {}
    filled = 0
    for n in range(1, N + 1):
        filled = _extend_s_table(table, filled, n, p)
        terms = _sigma0_terms(table, n, 3)
        for k in range(1, n):
            outer = weight(k + 1)
            for j in range(1, n - k + 1):
                binom = (-1) ** j * math.comb(k + j - 1, j)
                terms.append(
                    (table[(j, n - k)], _ONE, outer.numerator * binom, outer.denominator)
                )
        last = weight(n + 1)
        terms.append((_ONE, _ONE, last.numerator, last.denominator))
        p.append(_sum_of_products(terms))

    binoms = [rational_binomial(Fraction(1, 4), m) for m in range(N + 1)]
    q = {
        k: _sum_of_products(
            [
                (table[(m, k)], _ONE, binoms[m].numerator, binoms[m].denominator * 4**k)
                for m in range(1, k + 1)
            ]
        )
        for k in range(1, N + 1)
    }

    lam = [((0, 1), 1)]
    lam_table: dict = {}
    lam_filled = 0
    for k in range(1, N + 1):
        lam_filled = _extend_s_table(lam_table, lam_filled, k, lam)
        lam.append(_sum_of_products(_sigma0_terms(lam_table, k, 1)))
    return p, q, lam


def lambert_log_rule(N: int) -> list:
    """ptilde_0..ptilde_N as the package's integer forms, by the log rule
    of ptilde_k = [x^k] log(1 + sum_j ptilde_{j-1} x^j):

        ptilde_k = ptilde_{k-1} - (1/k) sum_{i=1}^{k-1} i ptilde_i ptilde_{k-1-i},

    each pair of the sum taken, ptilde_0 = z.  The package builds the same
    members in closed form, from Stirling cycle numbers."""
    lam = [((0, 1), 1)]
    for k in range(1, N + 1):
        pairs = [(lam[k - 1], _ONE, 1, 1)]
        pairs += [(lam[i], lam[k - 1 - i], -i, k) for i in range(1, k)]
        lam.append(_sum_of_products(pairs))
    return lam
