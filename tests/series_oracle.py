"""Generic truncated power series with exact coefficients: a test oracle.

The family generators in ``asymptode.families`` work on one shared table of
composition sums in a single polynomial variable.  This module computes the
same quantities the textbook way, one numeric point at a time, with a
general series calculus that shares no code with the package:

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

One helper reads the package instead: ``dense(family, n)`` is the exact
dense coefficients of a member, as ``Fraction``s from the integer form
``families._member`` holds, for tests that evaluate members exactly.

Everything here is written for ``a = a_1 x + a_2 x^2 + ...`` with zero
constant term unless stated otherwise.  ``tests/test_series.py`` checks the
calculus itself against brute-force enumeration and closed forms.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from asymptode.errors import DomainError
from asymptode.families import _member


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
    """Member n of ``family`` ("p", "q", "lambert", "alpha" or "tail", as
    for ``families.fixed_coeffs``), exactly, lowest power first."""
    nums, den = _member(family, n)
    return tuple(Fraction(v, den) for v in nums)
