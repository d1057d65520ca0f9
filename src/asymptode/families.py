"""Recursive generators for the coefficient sequences and polynomial families.

Everything the asymptotic expansion needs is generated here, exactly:

* ``alpha``: coefficients of the formal series solution
  ``g~ = sum alpha_k z^k`` of ``(1 - (3/4) z g - z^2 g') g = 1``, via
  ``alpha_0 = 1``, ``alpha_{k+1} = (k/2 + 3/4) sum_{j<=k} alpha_j alpha_{k-j}``.

* ``beta``: the reciprocal coefficients, ``sum beta_n z^n = 1 / g~``, via
  their own three-term recursion (the reciprocal identity is enforced by
  tests, not assumed here).

* ``p_n(c; z)``: the correction polynomials for the inverse of
  ``G(x) ~ x - 3 log x + c - ...``, with ``p_0 = 3z - c`` and

      p_n = 3 sigma0_n + sum_{k=1}^{n-1} (4^{k+1} beta_{k+1} / k) sigma^k_{n-k}
            + 4^{n+1} beta_{n+1} / n,

  where every sigma is evaluated on the argument sequence ``a_j := p_{j-1}``.

* ``q_k(c; z)``: the relative-correction polynomials of the expansion
  ``h(t) = (4t)^{1/4} (1 + sum q_k(c; log 4t) / t^k + ...)``, via
  ``q_k = sum_{m=1}^{k} 4^{-k} binom(1/4, m) s_{m,k}(p_0, ..., p_{k-1})``.

* ``ptilde_k(z)``: the analogous family for the inverse of ``y - log y``
  (the branch of the Lambert function relevant at ``y > 1``), with
  ``ptilde_0 = z`` and ``ptilde_{k+1} = sigma0_{k+1}`` on ``a_j := ptilde_{j-1}``.

Internal representation.  ``p_0 = 3z - c`` and every recursion step combines
earlier members with rational coefficients, so each ``p_n`` and ``q_k`` is a
rational polynomial in the single variable ``w := 3z - c``.  The generators
work on dense ``w``-coefficients and expand ``w^j`` into ``(c, z)`` terms only
when building the :class:`BivariatePoly` display forms.  This keeps the shared
table of composition sums ``s_{j,m}`` univariate.  Every polynomial of the
exact layer (table entries and family members alike) is an integer
polynomial over one denominator, ``(numerators, denominator)``: each entry is
one integer accumulation over the common denominator of its terms, reduced
by a single gcd pass when finished, and each member is one integer linear
combination of table entries.  Python ints carry it, with no per-operation
normalisation, which is what makes order 40 cheap.  Each family object
carries one public form, built once per member from the integer one: the
display form (``family[n]``) for printing, JSON and exact comparison.
Numeric reads take ``fixed_coeffs``: the mantissas at 2^-F of a member's
coefficients (in ``w`` for p and q, in ``z`` for ptilde) and of its
derivative's, straight from the integer form, which the integer Horner
``numerics._fixed_eval`` evaluates.  The same call gives the two series
``numerics.GProblem`` reads below the crossover: ``alpha_0..alpha_N`` and
the tail weights ``w_k = beta_k 4^k / (k - 1)``.  Mantissas are built on
the first numeric read at each F, never by the generators.

All generation is incremental and memoized; a family asked for twice is
computed once.  Returned objects are immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar

from .errors import DomainError
from .series import BivariatePoly

__all__ = [
    "AlphaSequence",
    "BetaSequence",
    "PPolyFamily",
    "QPolyFamily",
    "LambertPolyFamily",
    "gen_alpha",
    "gen_beta",
    "gen_p",
    "gen_q",
    "gen_lambert_p",
    "ode_residual_order",
    "fixed_coeffs",
    "clear_caches",
]

# -- dense univariate polynomials over one denominator ------------------------
#
# A polynomial is a pair (numerators, denominator): the coefficient of the
# j-th power is numerators[j] / denominator, lowest power first.  Integer
# arithmetic needs no gcd per operation; each finished entry is reduced once.

IntPoly = tuple[tuple[int, ...], int]


def _const(num: int, den: int = 1) -> IntPoly:
    return (num,), den


_ONE = _const(1)


def _sum_of_products(pairs: list[tuple[IntPoly, IntPoly]]) -> IntPoly:
    """sum A * B over the pairs, accumulated over one common denominator.

    A constant B makes this an integer linear combination.  The result has
    the length of the longest product (at least 1), whatever cancels.
    """
    den = math.lcm(*(ad * bd for (_, ad), (_, bd) in pairs))
    size = max((len(an) + len(bn) - 1 for (an, _), (bn, _) in pairs), default=1)
    acc = [0] * size
    for (an, ad), (bn, bd) in pairs:
        scale = den // (ad * bd)
        scaled = [scale * v for v in bn]
        for i, u in enumerate(an):
            if u:
                for j, v in enumerate(scaled):
                    acc[i + j] += u * v
    g = math.gcd(den, *acc)
    return tuple(v // g for v in acc), den // g


def _over_lcm(values: list[Fraction]) -> IntPoly:
    """The coefficients ``values``, lowest power first, over their lcm."""
    den = math.lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (den // v.denominator) for v in values), den


def _wpoly_to_bivariate(poly: IntPoly) -> BivariatePoly:
    """Expand sum_j u_j w^j with w = 3z - c into (c, z) terms.

    The term c^(j-i) z^i comes from w^j alone, so each gets one Fraction.
    """
    nums, den = poly
    terms: dict[tuple[int, int], Fraction] = {}
    for j, u in enumerate(nums):
        if u:
            for i in range(j + 1):
                terms[(j - i, i)] = Fraction(
                    u * math.comb(j, i) * 3**i * (-1) ** (j - i), den
                )
    return BivariatePoly(terms)


# -- shared incremental state -------------------------------------------------


class _State:
    """All memoized family data."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.alphas: list[Fraction] = [Fraction(1)]
        self.betas: list[Fraction] = [Fraction(1)]
        self.beta_squares: list[Fraction] = [Fraction(1)]  # of sum beta_n z^n
        # p_n as dense w-polynomials; the s table is over a_j := p_{j-1}.
        self.p_w: list[IntPoly] = []
        self.s: dict[tuple[int, int], IntPoly] = {}
        self.s_max = 0
        self.q_w: dict[int, IntPoly] = {}
        # Lambert analogue: ptilde_k as dense z-polynomials, own s table.
        self.lam: list[IntPoly] = []
        self.s_t: dict[tuple[int, int], IntPoly] = {}
        self.s_t_max = 0
        # public members: the display form per index
        self.p_pub: dict[int, BivariatePoly] = {}
        self.q_pub: dict[int, BivariatePoly] = {}
        self.lam_pub: dict[int, BivariatePoly] = {}
        # numeric reads: (family, index, F) -> mantissas of the coefficients
        # and of the derivative's coefficients, see fixed_coeffs
        self.fixed: dict[tuple[str, int, int], tuple[tuple[int, ...], tuple[int, ...]]] = {}


_STATE = _State()


def clear_caches() -> None:
    """Drop every memoized sequence and polynomial (mainly for timing tests)."""
    _STATE.reset()


def _ensure_alpha(n: int) -> None:
    alphas = _STATE.alphas
    while len(alphas) <= n:
        k = len(alphas) - 1
        conv = sum(alphas[j] * alphas[k - j] for j in range(k + 1))
        alphas.append((Fraction(k, 2) + Fraction(3, 4)) * conv)


def _ensure_beta(n: int) -> None:
    """beta_{m+1} = (m - 3/4) beta_m + D - T, D the double and T the triple
    product sum of index m + 1 over indices <= m.  T's j = 0 part is D, and
    its j >= 1 parts are beta_j times the square series' sq_{m+1-j}."""
    betas, squares = _STATE.betas, _STATE.beta_squares
    while len(betas) <= n:
        m = len(betas) - 1
        triple = sum(betas[j] * squares[m + 1 - j] for j in range(1, m + 1))
        betas.append((m - Fraction(3, 4)) * betas[m] - triple)
        squares.append(sum(betas[j] * betas[m + 1 - j] for j in range(m + 2)))


def _weight(k: int) -> Fraction:
    """w_k = beta_k 4^k / (k - 1) for k >= 2, beta_k already generated."""
    return Fraction(4**k, k - 1) * _STATE.betas[k]


def _extend_s_table(
    table: dict[tuple[int, int], IntPoly],
    filled: int,
    m_max: int,
    a: list[IntPoly],
) -> int:
    """Fill rows filled+1 .. m_max of a composition-sum table.

    ``a`` is the argument sequence with the generator's index shift already
    applied: ``a[i]`` is the series coefficient a_{i+1}.  Row ``m`` holds
    s_{j,m} for j = 1..m via s_{1,m} = a_m and
    s_{j,m} = sum_{i=j-1}^{m-1} s_{j-1,i} a_{m-i}.
    """
    if m_max > len(a):
        raise DomainError("composition table extended past known arguments")
    for m in range(filled + 1, m_max + 1):
        table[(1, m)] = a[m - 1]
        for j in range(2, m + 1):
            table[(j, m)] = _sum_of_products(
                [(table[(j - 1, i)], a[m - i - 1]) for i in range(j - 1, m)]
            )
    return max(filled, m_max)


def _sigma0_terms(
    table: dict[tuple[int, int], IntPoly], n: int, weight: int
) -> list[tuple[IntPoly, IntPoly]]:
    """weight * sigma0_n = weight * sum_{j=1}^{n} (-1)^(j+1)/j * s_{j,n}, as
    terms for _sum_of_products."""
    return [
        (table[(j, n)], _const(weight * (-1) ** (j + 1), j)) for j in range(1, n + 1)
    ]


def _ensure_p(n: int) -> None:
    st = _STATE
    while len(st.p_w) <= n:
        nn = len(st.p_w)
        if nn == 0:
            st.p_w.append(((0, 1), 1))  # p_0 = w
            continue
        _ensure_beta(nn + 1)
        # arguments a_j = p_{j-1} are known up to j = nn, enough for row nn
        st.s_max = _extend_s_table(st.s, st.s_max, nn, st.p_w)
        terms = _sigma0_terms(st.s, nn, 3)
        for k in range(1, nn):
            # w_{k+1} sigma^k_{nn-k}, binom(-k, j) an integer
            outer = _weight(k + 1)
            for j in range(1, nn - k + 1):
                binom = (-1) ** j * math.comb(k + j - 1, j)
                terms.append(
                    (st.s[(j, nn - k)], _const(outer.numerator * binom, outer.denominator))
                )
        last = _weight(nn + 1)
        terms.append((_const(last.numerator, last.denominator), _ONE))
        st.p_w.append(_sum_of_products(terms))


def _ensure_q(k: int) -> None:
    st = _STATE
    _ensure_p(k - 1)
    st.s_max = _extend_s_table(st.s, st.s_max, k, st.p_w)
    # binom(1/4, m) = prod_{i<m} (1 - 4i) / (4^m m!), as (numerator, denominator)
    binoms = [(1, 1)]
    for m in range(1, k + 1):
        num, den = binoms[-1]
        binoms.append((num * (5 - 4 * m), den * 4 * m))
    for kk in range(1, k + 1):
        if kk in st.q_w:
            continue
        st.q_w[kk] = _sum_of_products(
            [
                (st.s[(m, kk)], _const(binoms[m][0], binoms[m][1] * 4**kk))
                for m in range(1, kk + 1)
            ]
        )


def _ensure_lambert(n: int) -> None:
    st = _STATE
    while len(st.lam) <= n:
        kk = len(st.lam)
        if kk == 0:
            st.lam.append(((0, 1), 1))  # ptilde_0 = z
            continue
        st.s_t_max = _extend_s_table(st.s_t, st.s_t_max, kk, st.lam)
        st.lam.append(_sum_of_products(_sigma0_terms(st.s_t, kk, 1)))


def _family(cls, cache, polys, keys, display):
    """cls over the display forms of the members at keys, each built once
    from its integer form."""
    for key in keys:
        if key not in cache:
            cache[key] = display(polys[key])
    return cls(tuple(cache[key] for key in keys))


# -- public family containers --------------------------------------------------


@dataclass(frozen=True)
class _Sequence:
    values: tuple[Fraction, ...]

    def __getitem__(self, n: int) -> Fraction:
        return self.values[n]

    def __len__(self) -> int:
        return len(self.values)

    @property
    def order(self) -> int:
        return len(self.values) - 1


class AlphaSequence(_Sequence):
    """alpha_0..alpha_N of the formal radial series; index by subscript."""


class BetaSequence(_Sequence):
    """beta_0..beta_N, the reciprocal-series coefficients; index by subscript."""


@dataclass(frozen=True)
class _PolyFamily:
    """Display forms of the members, by their mathematical index
    n >= ``first``: ``family[n]``.  Numeric reads take fixed_coeffs."""

    polys: tuple[BivariatePoly, ...]
    first: ClassVar[int] = 0

    def __getitem__(self, n: int) -> BivariatePoly:
        if n < self.first:
            raise DomainError(f"{type(self).__name__} starts at index {self.first}")
        return self.polys[n - self.first]

    def __len__(self) -> int:
        return len(self.polys)

    @property
    def order(self) -> int:
        return self.first + len(self.polys) - 1


class PPolyFamily(_PolyFamily):
    """p_0..p_N in (c, z), polynomials in w = 3z - c."""


class QPolyFamily(_PolyFamily):
    """q_1..q_N in (c, z), polynomials in w = 3z - c."""

    first = 1


class LambertPolyFamily(_PolyFamily):
    """ptilde_0..ptilde_N, univariate in z."""


# -- public generators -----------------------------------------------------------


def gen_alpha(N: int) -> AlphaSequence:
    """alpha_0..alpha_N, exactly."""
    if N < 0:
        raise DomainError("gen_alpha needs N >= 0")
    _ensure_alpha(N)
    return AlphaSequence(tuple(_STATE.alphas[: N + 1]))


def gen_beta(N: int) -> BetaSequence:
    """beta_0..beta_N, exactly."""
    if N < 0:
        raise DomainError("gen_beta needs N >= 0")
    _ensure_beta(N)
    return BetaSequence(tuple(_STATE.betas[: N + 1]))


def gen_p(N: int) -> PPolyFamily:
    """p_0..p_N, as exact polynomials in (c, z)."""
    if N < 0:
        raise DomainError("gen_p needs N >= 0")
    _ensure_p(N)
    return _family(PPolyFamily, _STATE.p_pub, _STATE.p_w, range(N + 1), _wpoly_to_bivariate)


def gen_q(N: int) -> QPolyFamily:
    """q_1..q_N, as exact polynomials in (c, z)."""
    if N < 1:
        raise DomainError("gen_q needs N >= 1")
    _ensure_q(N)
    return _family(QPolyFamily, _STATE.q_pub, _STATE.q_w, range(1, N + 1), _wpoly_to_bivariate)


def gen_lambert_p(N: int) -> LambertPolyFamily:
    """ptilde_0..ptilde_N as exact polynomials (univariate in z)."""
    if N < 0:
        raise DomainError("gen_lambert_p needs N >= 0")
    _ensure_lambert(N)
    return _family(
        LambertPolyFamily, _STATE.lam_pub, _STATE.lam, range(N + 1),
        lambda poly: BivariatePoly.z_poly([Fraction(v, poly[1]) for v in poly[0]]),
    )


def _member(family: str, n: int) -> IntPoly:
    """The integer form of p_n, q_n or ptilde_n, generated if needed; of
    alpha_0..alpha_n as one polynomial in z; or of the tail
    T = sum_{k=2}^{n} w_k u^(k-1) as one polynomial in u."""
    st = _STATE
    if family == "p" and n >= 0:
        _ensure_p(n)
        return st.p_w[n]
    if family == "q" and n >= 1:
        _ensure_q(n)
        return st.q_w[n]
    if family == "lambert" and n >= 0:
        _ensure_lambert(n)
        return st.lam[n]
    if family == "alpha" and n >= 0:
        _ensure_alpha(n)
        return _over_lcm(st.alphas[: n + 1])
    if family == "tail" and n >= 2:
        _ensure_beta(n)
        return _over_lcm([Fraction(0)] + [_weight(k) for k in range(2, n + 1)])
    raise DomainError(f"no member {n} in family {family!r}")


def fixed_coeffs(family: str, n: int, F: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Member n of family "p", "q", "lambert", "alpha" or "tail" at the
    binary scale 2^-F.

    Returns the mantissas floor(u_j 2^F) of its dense coefficients u_j (in
    w for p and q, in z for ptilde and alpha, in u = 1/x for the tail; see
    _member), lowest power first, and those of its derivative's
    coefficients j u_j, j >= 1.  Each is one integer division
    of the member's integer form, with no Fraction.  Memoized per
    (family, n, F) until clear_caches().
    """
    key = (family, n, F)
    hit = _STATE.fixed.get(key)
    if hit is None:
        nums, den = _member(family, n)
        hit = (
            tuple((v << F) // den for v in nums),
            tuple((j * v << F) // den for j, v in enumerate(nums) if j),
        )
        _STATE.fixed[key] = hit
    return hit


def ode_residual_order(N: int) -> int:
    """Order of the residual left by the order-N truncation of the series.

    Substitutes the degree-N polynomial g = sum_{k<=N} alpha_k z^k into
    (1 - (3/4) z g - z^2 g') g - 1 with exact arithmetic (no truncation: the
    result is computed as a full polynomial of degree 2N+1) and returns the
    lowest index with a nonzero coefficient.  A formal solution of the
    equation must leave a residual of order at least N+1.
    """
    if N < 1:
        raise DomainError("ode_residual_order needs N >= 1")
    g = nums, den = _member("alpha", N)
    z_g = ((0,) + nums, den)
    z2_g_prime = ((0,) + tuple(k * v for k, v in enumerate(nums)), den)
    inner = _sum_of_products(
        [(_ONE, _ONE), (z_g, _const(-3, 4)), (z2_g_prime, _const(-1))]
    )
    residual, _ = _sum_of_products([(inner, g), (_const(-1), _ONE)])
    for idx, coeff in enumerate(residual):
        if coeff:
            return idx
    raise DomainError("residual vanished identically; truncation order suspect")
