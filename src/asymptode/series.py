"""Exact rational values and the (c, z) display form of the polynomial families.

* ``Rational`` -- an exact fraction.  This is stdlib :class:`fractions.Fraction`:
  always reduced, positive denominator, arbitrary-precision integers.  No
  floating point ever enters a coefficient computation.

* :class:`BivariatePoly` -- an exact polynomial in two variables ``(c, z)``
  stored as a sparse term map.  It is the form in which the families of
  :mod:`.families` are printed (as text, also inside the CLI's JSON) and
  compared exactly.
  The families are generated, and evaluated on numeric paths, as dense
  coefficient lists in one variable; this class is only their public face.

:func:`poly_eval` evaluates a :class:`BivariatePoly` in any numeric type, for
callers that hold only the display form.  All values are immutable after
construction and all operations are pure functions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence, Union

from .errors import DomainError

__all__ = [
    "Rational",
    "BivariatePoly",
    "poly_eval",
]

Rational = Fraction

# Anything Fraction() accepts exactly.  Floats are deliberately excluded:
# feeding a float into exact algebra is almost always a bug, and Fraction
# would silently embed its binary expansion.
RationalLike = Union[Fraction, int, str]


def _as_rational(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise DomainError(
            "refusing to build an exact coefficient from a float; "
            "pass a Fraction, int, or string"
        )
    return Fraction(value)


# ---------------------------------------------------------------------------
# Bivariate polynomials in (c, z)
# ---------------------------------------------------------------------------

TermKey = tuple[int, int]  # (c_power, z_power)


class BivariatePoly:
    """Exact sparse polynomial in the two variables ``(c, z)``.

    Terms are a map ``(c_power, z_power) -> Fraction`` with no zero
    coefficients stored, so equality is term-by-term rational equality.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[TermKey, RationalLike] | None = None):
        clean: dict[TermKey, Fraction] = {}
        for (i, j), raw in (terms or {}).items():
            if i < 0 or j < 0:
                raise DomainError("polynomial exponents must be >= 0")
            value = _as_rational(raw)
            if value:
                clean[(int(i), int(j))] = value
        self._terms = clean

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls) -> "BivariatePoly":
        return cls()

    @classmethod
    def z_poly(cls, coeffs: Sequence[RationalLike]) -> "BivariatePoly":
        """Univariate polynomial in z: coeffs[j] is the coefficient of z^j."""
        return cls({(0, j): c for j, c in enumerate(coeffs)})

    # -- structure -----------------------------------------------------------

    @property
    def terms(self) -> Mapping[TermKey, Fraction]:
        return dict(self._terms)

    def coefficient(self, c_pow: int, z_pow: int) -> Fraction:
        return self._terms.get((c_pow, z_pow), Fraction(0))

    def is_zero(self) -> bool:
        return not self._terms

    @property
    def degree_z(self) -> int:
        """Largest z exponent with a nonzero coefficient (-1 for the zero poly)."""
        return max((j for (_, j) in self._terms), default=-1)

    @property
    def degree_c(self) -> int:
        return max((i for (i, _) in self._terms), default=-1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BivariatePoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        return f"BivariatePoly({self.format_descending()})"

    # -- display ---------------------------------------------------------------

    def sorted_terms(self) -> list[tuple[TermKey, Fraction]]:
        """Terms ordered by descending z power, then ascending c power."""
        return sorted(self._terms.items(), key=lambda kv: (-kv[0][1], kv[0][0]))

    def format_descending(self) -> str:
        """Human-readable form with descending z powers, e.g. ``9*z - 3*c - 21``.

        The ordering matches the display convention used throughout the
        package's table output: z powers descend, and within one z power the
        c powers ascend.
        """
        if not self._terms:
            return "0"
        pieces: list[str] = []
        for (i, j), value in self.sorted_terms():
            factors = []
            mag = abs(value)
            if mag != 1 or (i == 0 and j == 0):
                factors.append(str(mag))
            if j:
                factors.append("z" if j == 1 else f"z^{j}")
            if i:
                factors.append("c" if i == 1 else f"c^{i}")
            term = "*".join(factors)
            if not pieces:
                pieces.append(term if value > 0 else f"-{term}")
            else:
                pieces.append(f"+ {term}" if value > 0 else f"- {term}")
        return " ".join(pieces)


def poly_eval(p: BivariatePoly, c, z):
    """Evaluate ``p`` at numeric ``(c, z)``.

    Works with any numeric type that supports ``+`` and ``*`` (arbitrary
    precision floats, plain floats, Fractions).  Rational coefficients are
    converted at evaluation time by numerator/denominator division in the
    caller's arithmetic, so no precision is fixed here.  Evaluation runs a
    Horner scheme in z separately for each c power, then accumulates the c
    powers.
    """
    zero = 0 * c * z
    one = zero + 1
    if p.is_zero():
        return zero

    by_c_power: dict[int, dict[int, Fraction]] = {}
    for (i, j), value in p._terms.items():
        by_c_power.setdefault(i, {})[j] = value

    def convert(f: Fraction):
        scaled = f.numerator * one
        return scaled / f.denominator if f.denominator != 1 else scaled

    total = zero
    c_pow = one
    top_c = max(by_c_power)
    for i in range(top_c + 1):
        group = by_c_power.get(i)
        if group:
            top = max(group)
            acc = convert(group[top])
            for j in range(top - 1, -1, -1):
                acc = acc * z + convert(group.get(j, Fraction(0)))
            total = total + acc * c_pow
        if i < top_c:
            c_pow = c_pow * c
    return total
