"""Recursive generators for the coefficient sequences and polynomial families.

Everything the asymptotic expansion needs is generated here, exactly:

* ``alpha``: coefficients of the formal series solution
  ``g~ = sum alpha_k z^k`` of ``(1 - (3/4) z g - z^2 g') g = 1``, via
  ``alpha_0 = 1``, ``alpha_{k+1} = (k/2 + 3/4) sum_{j<=k} alpha_j alpha_{k-j}``.

* ``beta``: the reciprocal coefficients, ``sum beta_n z^n = 1 / g~``, via
  their own three-term recursion (the reciprocal identity is enforced by
  tests, not assumed here).

Both sequences are dyadic, ``alpha_k = A_k / 4^k`` and ``beta_k = B_k / 4^k``,
and are generated as the integers ``A_k`` and ``B_k``:
``A_{k+1} = (2k + 3) sum_{j<=k} A_j A_{k-j}`` and
``B_{m+1} = (4m - 3) B_m - sum_{j=1}^{m} B_j Q_{m+1-j}``,
``Q_n = sum_i B_i B_{n-i}``.  ``gen_alpha`` and ``gen_beta`` hand out the
``Fraction`` values.

* ``p_n(c; z)``: the correction polynomials of the inverse
  ``x(X) = X + sum_n p_n(c; log X) X^-n`` of ``G(x) ~ x - 3 log x + c - ...``,
  defined with ``p_0 = 3z - c`` by

      p_n = 3 sigma0_n + sum_{k=1}^{n-1} (4^{k+1} beta_{k+1} / k) sigma^k_{n-k}
            + 4^{n+1} beta_{n+1} / n

  on ``a_j := p_{j-1}``, and generated without beta from the ODE of the
  inverse: ``dx/dX = g(4/x)`` and ``z^2 g' = 1 - 1/g - (3/4) z g`` give
  ``x x'' = -x (x' - 1)/4 + (3/4) x'^2``.

* ``q_k(c; z)``: the relative-correction polynomials of the expansion
  ``h(t) = (4t)^{1/4} (1 + sum q_k(c; log 4t) / t^k + ...)``, defined by
  ``q_k = 4^{-k} [y^k] (1 + sum_j p_{j-1} y^j)^{1/4}``; generated by the power rule.

* ``ptilde_k(z)``: the analogous family for the inverse of ``y - log y``
  (the branch of the Lambert function relevant at ``y > 1``), defined by
  ``ptilde_0 = z`` and ``ptilde_{k+1} = sigma0_{k+1}`` on
  ``a_j := ptilde_{j-1}``; generated by the log rule.

``sigma0`` and ``sigma^k`` are the coefficients of ``log(1 + a)`` and
``(1 + a)^-k``, ``a = sum_j a_j x^j``: the definitions the test oracle checks.
Each step is O(n) products of earlier members, O(N^2) to order N.

Internal representation.  ``p_0 = 3z - c`` and ``D = d/d(log X) = 3 d/dw``,
so each ``p_n`` and ``q_k`` is a rational polynomial in ``w := 3z - c``.
No generator does ``Fraction`` arithmetic.
The generators work on dense ``w``-coefficients and expand ``w^j`` into
``(c, z)`` terms only for display.  Every polynomial of the exact layer is
an integer polynomial over one denominator, ``(numerators, denominator)``:
one integer accumulation over the common denominator of its terms, reduced
by one gcd pass when finished, with no per-operation normalisation.  Its
tuples are built from lists: CPython resizes a tuple built from a generator
from a guessed length, and dead, such a tuple waits on a free list that
only full collections empty, so repeated cold families would hold ever
more memory.  One family type, :class:`PolyFamily`, serves the three kinds
"p", "q" and "lambert"; one table (``_KINDS``) gives each kind's first
index, its variable (``w`` or ``z``), its generator and its memo, and one
lookup (``_member``) hands out member n, for the generators and for
numeric reads alike.  A family object holds the integer forms:
``family.text(n)``, which ``series`` prints, writes member n's ``(c, z)``
terms from them in display order, by one integer binomial expansion of
``w^j``, with each coefficient reduced once and each term by the gcd of
its binomial weight alone (see ``_terms``); ``family[n]``, the
:class:`BivariatePoly` for exact comparison, is built on first index and
kept by the family object.  ``numerics`` reads exact values only through
``fixed_coeffs`` (kinds "p", "q", "lambert", "alpha" and "tail"): the
mantissas at 2^-F of a member's coefficients (in ``w`` for p and q, in
``z`` for ptilde) and of its derivative's, straight from the integer form,
which the integer Horner ``numerics._fixed_eval`` evaluates.  The same
call gives ``alpha_0..alpha_N`` (over ``4^N``) and the tail weights
``w_k = beta_k 4^k / (k - 1) = B_k / (k - 1)`` (over ``lcm(1..N-1)``),
the series ``numerics.GProblem`` reads below the crossover.  A dyadic
``alpha_k`` has an exact mantissa at ``F >= 2k``.  Mantissas are built on
the first numeric read at each F, never by the generators.

All generation is incremental and memoized; a family asked for twice is
computed once.  Returned objects are immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DomainError
from .series import BivariatePoly, format_terms

__all__ = [
    "PolyFamily",
    "gen_alpha",
    "gen_beta",
    "gen_p",
    "gen_q",
    "gen_lambert_p",
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
    den = math.lcm(*[ad * bd for (_, ad), (_, bd) in pairs])
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
    return tuple([v // g for v in acc]), den // g


def _terms(poly: IntPoly, in_w: bool):
    """The reduced (c, z) terms (c_power, z_power, num, den) of sum_j u_j w^j,
    w = 3z - c (or, not in_w, of sum_j u_j z^j), z power descending, then c
    power ascending: c^(j-i) z^i is u_j C(j, i) 3^i (-1)^(j-i), from w^j alone.

    Each u_j / den is reduced once, to a_j / d_j with g_j = gcd(u_j, den).
    a_j is prime to d_j, so gcd(W a_j, d_j) = gcd(W, d_j) for the weight
    W = C(j, i) 3^i, and the term W a_j / d_j reduces by that small gcd."""
    nums, den = poly
    top = len(nums)
    reduced = [(u // g, den // g) for u, g in [(u, math.gcd(u, den)) for u in nums]]
    for i in range(top - 1, -1, -1):
        weight = 3**i if in_w else 1
        for j in range(i, top if in_w else i + 1):
            a, d = reduced[j]
            if a:
                w = math.comb(j, i) * weight
                h = math.gcd(w, d)
                yield j - i, i, w // h * (a if (j - i) % 2 == 0 else -a), d // h


# -- shared incremental state -------------------------------------------------


class _State:
    """All memoized family data."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        # alpha_k = A_k / 4^k and beta_k = B_k / 4^k by their integers A_k
        # and B_k; Q_n over 4^n is [z^n] of (sum beta_n z^n)^2
        self.alphas: list[int] = [1]
        self.betas: list[int] = [1]
        self.beta_squares: list[int] = [1]
        # p_n as dense w-polynomials from p_0 = w, with r_n (r_0 = D p_0 = 3)
        # and t_n of _ensure_p
        self.p_w: list[IntPoly] = [((0, 1), 1)]
        self.p_r: list[IntPoly] = [_const(3)]
        self.p_t: list[IntPoly] = []
        self.q_w: dict[int, IntPoly] = {}
        # Lambert analogue: ptilde_k as dense z-polynomials from ptilde_0 = z
        self.lam: list[IntPoly] = [((0, 1), 1)]
        # numeric reads: (family, index, F) -> mantissas of the coefficients
        # and of the derivative's coefficients, see fixed_coeffs
        self.fixed: dict[tuple[str, int, int], tuple[tuple[int, ...], tuple[int, ...]]] = {}


_STATE = _State()


def clear_caches() -> None:
    """Drop every memoized sequence and polynomial (mainly for timing tests)."""
    _STATE.reset()


def _ensure_alpha(n: int) -> None:
    """alpha_{k+1} = (k/2 + 3/4) sum_{j<=k} alpha_j alpha_{k-j}, over 4^(k+1):
    A_{k+1} = (2k + 3) sum_{j<=k} A_j A_{k-j}."""
    alphas = _STATE.alphas
    while len(alphas) <= n:
        k = len(alphas) - 1
        alphas.append((2 * k + 3) * sum(alphas[j] * alphas[k - j] for j in range(k + 1)))


def _ensure_beta(n: int) -> None:
    """beta_{m+1} = (m - 3/4) beta_m + D - T, D the double and T the triple
    product sum of index m + 1 over indices <= m.  T's j = 0 part is D, and
    its j >= 1 parts are beta_j times the square series' sq_{m+1-j}.  Over
    4^(m+1): B_{m+1} = (4m - 3) B_m - sum_{j=1}^{m} B_j Q_{m+1-j}."""
    betas, squares = _STATE.betas, _STATE.beta_squares
    while len(betas) <= n:
        m = len(betas) - 1
        triple = sum(betas[j] * squares[m + 1 - j] for j in range(1, m + 1))
        betas.append((4 * m - 3) * betas[m] - triple)
        squares.append(sum(betas[j] * betas[m + 1 - j] for j in range(m + 2)))


def _scaled(poly: IntPoly, num: int, den: int = 1) -> IntPoly:
    """poly * num / den, unreduced (_sum_of_products reduces its result)."""
    nums, d = poly
    return tuple([num * v for v in nums]), d * den


def _d_minus(poly: IntPoly, b: int) -> IntPoly:
    """(D - b) poly for D = d/dL = 3 d/dw, at the same length."""
    nums, den = poly
    slope = [3 * j * u for j, u in enumerate(nums)][1:] + [0]
    return tuple([d - b * u for d, u in zip(slope, nums)]), den


def _inverse_shift(rhs: IntPoly, m: int) -> IntPoly:
    """(D - m)^{-1} rhs = -sum_i D^i rhs / m^(i+1) for m >= 1, by solving
    3 (j+1) p_{j+1} - m p_j = rhs_j from the top down in the integers
    p_j den m^len, each divisible by m^j."""
    nums, den = rhs
    scale = m ** len(nums)
    out = list(nums)
    prev = 0
    for j in range(len(nums) - 1, -1, -1):
        prev = out[j] = (3 * (j + 1) * prev - nums[j] * scale) // m
    g = math.gcd(den * scale, *out)
    return tuple([v // g for v in out]), den * scale // g


def _ensure_p(n: int) -> None:
    """p_m from the X^-m coefficient of x x'' = -x (x' - 1)/4 + (3/4) x'^2.

    With x = X + sum_b p_b X^-b, r_b = (D - b) p_b and s_b = (D - b - 1) r_b:

        (D - m) p_m = 4 [-s_{m-1} + (3/2) r_{m-1} - sum_{a+b=m-2} p_a s_b
                         - (1/4) sum_{a+b=m-1} p_a r_b + (3/4) sum_{a+b=m-2} r_a r_b].

    r_0 = 3, so p r's b = 0 term is 3 p_{m-1}; its others join p s as p_a t_b,
    t_b = -4 s_b - r_{b+1}.  r r is symmetric: pairs a < b once at weight 6.
    """
    p, r, t = _STATE.p_w, _STATE.p_r, _STATE.p_t
    while len(p) <= n:
        m = len(p)
        s = _d_minus(r[m - 1], m)
        rhs = _sum_of_products(
            [(s, _const(-4)), (r[m - 1], _const(6)), (p[m - 1], _const(-3))]
            + [(p[a], t[m - 2 - a]) for a in range(m - 1)]
            + [(r[a], _scaled(r[m - 2 - a], 6 if 2 * a < m - 2 else 3)) for a in range(m // 2)]
        )
        p.append(_inverse_shift(rhs, m))
        r.append(_d_minus(p[m], m))
        t.append(_sum_of_products([(s, _const(-4)), (r[m], _const(-1))]))


def _ensure_q(k: int) -> None:
    """q_k = 4^-k Q_k, Q = (1 + A)^(1/4) with A_i = p_{i-1}, by the power rule
    k Q_k = sum_{i=1}^{k} ((5/4) i - k) A_i Q_{k-i}, with 4^-k taken inside."""
    _ensure_p(k - 1)
    p, q = _STATE.p_w, _STATE.q_w
    for kk in range(len(q) + 1, k + 1):
        q[kk] = _sum_of_products(
            [
                (p[i - 1], _scaled(q.get(kk - i, _ONE), 5 * i - 4 * kk, 4 ** (i + 1) * kk))
                for i in range(1, kk + 1)
            ]
        )


def _ensure_lambert(n: int) -> None:
    """ptilde_k = [x^k] log(1 + sum_j ptilde_{j-1} x^j) by the log rule
    ptilde_k = ptilde_{k-1} - (1/k) sum_{i=1}^{k-1} i ptilde_i ptilde_{k-1-i}."""
    lam = _STATE.lam
    while len(lam) <= n:
        k = len(lam)
        lam.append(
            _sum_of_products(
                [(lam[k - 1], _ONE)]
                + [(lam[i], _scaled(lam[k - 1 - i], -i, k)) for i in range(1, k)]
            )
        )


# -- the family type -------------------------------------------------------------

# kind: (first index, members in w = 3z - c (else in z), generator, the
# _STATE table of the integer forms, indexed by the member's index)
_KINDS = {
    "p": (0, True, _ensure_p, "p_w"),
    "q": (1, True, _ensure_q, "q_w"),
    "lambert": (0, False, _ensure_lambert, "lam"),
}


@dataclass(frozen=True)
class PolyFamily:
    """Members n >= ``first`` of the family ``kind``, by their mathematical
    index: p_0..p_N and q_1..q_N in w = 3z - c, ptilde_0..ptilde_N in z.
    ``family[n]`` is the display form, built from the integer form on first
    index and kept, and ``family.text(n)`` its text, written from the
    integer form.  Equal families have the same kind and the same members.
    Numeric reads take fixed_coeffs."""

    kind: str
    _members: tuple[IntPoly, ...]  # integer forms, member n at n - first
    _display: dict[int, BivariatePoly] = field(default_factory=dict, compare=False, repr=False)

    @property
    def first(self) -> int:
        return _KINDS[self.kind][0]

    @property
    def _in_w(self) -> bool:
        return _KINDS[self.kind][1]

    def _member(self, n: int) -> IntPoly:
        if n < self.first:
            raise DomainError(f"family {self.kind!r} starts at index {self.first}")
        return self._members[n - self.first]

    def __getitem__(self, n: int) -> BivariatePoly:
        member = self._member(n)
        if n not in self._display:
            terms = _terms(member, self._in_w)
            self._display[n] = BivariatePoly({(i, j): Fraction(u, d) for i, j, u, d in terms})
        return self._display[n]

    def text(self, n: int) -> str:
        """``self[n].format_descending()``, with no display form built."""
        return format_terms(_terms(self._member(n), self._in_w))


# -- public generators -----------------------------------------------------------


def _over_4k(ints: list[int], N: int) -> tuple[Fraction, ...]:
    """ints[k] / 4^k for k = 0..N, exactly."""
    return tuple([Fraction(v, 4**k) for k, v in enumerate(ints[: N + 1])])


def gen_alpha(N: int) -> tuple[Fraction, ...]:
    """alpha_0..alpha_N, exactly."""
    if N < 0:
        raise DomainError("gen_alpha needs N >= 0")
    _ensure_alpha(N)
    return _over_4k(_STATE.alphas, N)


def gen_beta(N: int) -> tuple[Fraction, ...]:
    """beta_0..beta_N, exactly."""
    if N < 0:
        raise DomainError("gen_beta needs N >= 0")
    _ensure_beta(N)
    return _over_4k(_STATE.betas, N)


def _family(kind: str, N: int, name: str) -> PolyFamily:
    """Members first..N of kind, each by _member; name is the generator's."""
    first = _KINDS[kind][0]
    if N < first:
        raise DomainError(f"{name} needs N >= {first}")
    return PolyFamily(kind, tuple([_member(kind, n) for n in range(first, N + 1)]))


def gen_p(N: int) -> PolyFamily:
    """p_0..p_N, as exact polynomials in (c, z)."""
    return _family("p", N, "gen_p")


def gen_q(N: int) -> PolyFamily:
    """q_1..q_N, as exact polynomials in (c, z)."""
    return _family("q", N, "gen_q")


def gen_lambert_p(N: int) -> PolyFamily:
    """ptilde_0..ptilde_N as exact polynomials (univariate in z)."""
    return _family("lambert", N, "gen_lambert_p")


def _member(family: str, n: int) -> IntPoly:
    """The integer form of p_n, q_n or ptilde_n, generated if needed, the
    one lookup of the generators and of numeric reads; of alpha_0..alpha_n
    as one polynomial in z over 4^n; or of the tail T = sum_{k=2}^{n} w_k
    u^(k-1), w_k = B_k / (k - 1), as one polynomial in u over lcm(1..n-1)."""
    if family in _KINDS and n >= _KINDS[family][0]:
        _, _, ensure, table = _KINDS[family]
        ensure(n)
        return getattr(_STATE, table)[n]
    if family == "alpha" and n >= 0:
        _ensure_alpha(n)
        return tuple([v << 2 * (n - k) for k, v in enumerate(_STATE.alphas[: n + 1])]), 4**n
    if family == "tail" and n >= 2:
        _ensure_beta(n)
        den = math.lcm(*range(1, n))
        return tuple([0] + [_STATE.betas[k] * (den // (k - 1)) for k in range(2, n + 1)]), den
    raise DomainError(f"no member {n} in family {family!r}")


def fixed_coeffs(family: str, n: int, F: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Member n of family "p", "q", "lambert", "alpha" or "tail" at the
    binary scale 2^-F.

    Returns the mantissas floor(u_j 2^F) of its dense coefficients u_j (in
    w for p and q, in z for ptilde and alpha, in u = 1/x for the
    tail; see _member), lowest power first, and those of its derivative's
    coefficients j u_j, j >= 1.  Each is one integer division of the
    member's integer form, with no Fraction.  Memoized per
    (family, n, F) until clear_caches().
    """
    key = (family, n, F)
    hit = _STATE.fixed.get(key)
    if hit is None:
        nums, den = _member(family, n)
        hit = (
            tuple([(v << F) // den for v in nums]),
            tuple([(j * v << F) // den for j, v in enumerate(nums) if j]),
        )
        _STATE.fixed[key] = hit
    return hit
