"""The exact (c, z) display form of the polynomial families.

:class:`BivariatePoly` is an exact polynomial in two variables ``(c, z)``
stored as a sparse term map of stdlib :class:`fractions.Fraction`
coefficients: always reduced, positive denominator, arbitrary-precision
integers, so no floating point ever enters a coefficient.  It is the form
in which a member of the families of :mod:`.families` is indexed and
compared exactly.  The families are generated, evaluated on numeric paths
and printed from dense integer coefficient lists in one variable; this
class is only their public face.

:func:`format_terms` is the display rule that ``format_descending`` and the
families' writer share.

:func:`poly_eval` evaluates a :class:`BivariatePoly` in any numeric type, as
the plain sum of its terms, for callers that hold only the display form.
All values are immutable after construction and all operations are pure
functions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Union

from .errors import DomainError

__all__ = [
    "BivariatePoly",
    "format_terms",
    "poly_eval",
]

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

    # -- structure -----------------------------------------------------------

    @property
    def terms(self) -> Mapping[TermKey, Fraction]:
        return dict(self._terms)

    def coefficient(self, c_pow: int, z_pow: int) -> Fraction:
        return self._terms.get((c_pow, z_pow), Fraction(0))

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BivariatePoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        return f"BivariatePoly({self.format_descending()})"

    # -- display ---------------------------------------------------------------

    def format_descending(self) -> str:
        """Human-readable form with descending z powers, e.g. ``9*z - 3*c - 21``.

        The ordering matches the display convention used throughout the
        package's table output: z powers descend, and within one z power the
        c powers ascend.
        """
        ordered = sorted(self._terms.items(), key=lambda kv: (-kv[0][1], kv[0][0]))
        return format_terms(
            (i, j, value.numerator, value.denominator) for (i, j), value in ordered
        )


def format_terms(terms: Iterable[tuple[int, int, int, int]]) -> str:
    """The text of the terms ``(c_power, z_power, num, den)``, each the
    reduced ``num/den * z^z_power * c^c_power`` with ``den > 0`` and
    ``num != 0``, in the order given; ``"0"`` if there are none."""
    pieces: list[str] = []
    c_texts = [""]  # "*c^k" by c power k, grown as powers arrive
    z_power = z_text = None
    for i, j, num, den in terms:
        if j != z_power:
            z_power, z_text = j, _power("z", j)
        while len(c_texts) <= i:
            c_texts.append(_power("c", len(c_texts)))
        powers = z_text + c_texts[i]
        mag = -num if num < 0 else num
        if den != 1:
            term = f"{mag}/{den}{powers}"
        elif mag != 1 or not powers:
            term = f"{mag}{powers}"
        else:
            term = powers[1:]
        if not pieces:
            pieces.append(f"-{term}" if num < 0 else term)
        else:
            pieces.append(f"- {term}" if num < 0 else f"+ {term}")
    return " ".join(pieces) if pieces else "0"


def _power(var: str, k: int) -> str:
    """The factor text ``*var^k``: ``*var`` for k = 1, empty for k = 0."""
    return "" if not k else f"*{var}" if k == 1 else f"*{var}^{k}"


def poly_eval(p: BivariatePoly, c, z):
    """Evaluate ``p`` at numeric ``(c, z)``.

    Works with any numeric type that supports ``+``, ``*``, ``/`` and integer
    powers (arbitrary precision floats, plain floats, Fractions).  The value
    is the plain sum of the terms, each rational coefficient divided out in
    the caller's arithmetic, so no precision is fixed here.
    """
    zero = 0 * c * z
    one = zero + 1
    total = zero
    for (i, j), value in p._terms.items():
        total = total + value.numerator * one / value.denominator * c**i * z**j
    return total
