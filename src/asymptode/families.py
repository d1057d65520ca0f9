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
work on dense ``w``-coefficient lists and expand ``w^j`` into ``(c, z)`` terms
only when building the :class:`BivariatePoly` display forms.  This keeps the
shared table of composition sums ``s_{j,m}`` univariate, which is what makes
order 20 cheap.  Each family object carries both forms: the display forms
(``family[n]``) for printing, JSON and exact comparison, and the dense
coefficients (``family.coeffs(n)``: in ``w`` for p and q, in ``z`` for
ptilde) for numeric evaluation.

All generation is incremental and memoized; a family asked for twice is
computed once.  Returned objects are immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError
from .series import BivariatePoly, rational_binomial

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
    "clear_caches",
]

_ZERO = Fraction(0)

# -- dense univariate polynomials as plain coefficient lists -----------------


def _padd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, v in enumerate(b):
        out[i] += v
    return out


def _pmul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        if u:
            for j, v in enumerate(b):
                if v:
                    out[i + j] += u * v
    return out


def _pscale(a: list[Fraction], f: Fraction) -> list[Fraction]:
    return [f * v for v in a]


def _wpoly_to_bivariate(coeffs: tuple[Fraction, ...]) -> BivariatePoly:
    """Expand sum_j u_j w^j with w = 3z - c into (c, z) terms."""
    terms: dict[tuple[int, int], Fraction] = {}
    for j, u in enumerate(coeffs):
        if not u:
            continue
        for i in range(j + 1):
            key = (j - i, i)
            value = u * math.comb(j, i) * Fraction(3) ** i * (-1) ** (j - i)
            terms[key] = terms.get(key, _ZERO) + value
    return BivariatePoly(terms)


# -- shared incremental state -------------------------------------------------


class _State:
    """All memoized family data."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.alphas: list[Fraction] = [Fraction(1)]
        self.betas: list[Fraction] = [Fraction(1)]
        # p_n as dense w-polynomials; the s table is over a_j := p_{j-1}.
        self.p_w: list[tuple[Fraction, ...]] = []
        self.s: dict[tuple[int, int], list[Fraction]] = {}
        self.s_max = 0
        self.q_w: dict[int, tuple[Fraction, ...]] = {}
        # Lambert analogue: ptilde_k as dense z-polynomials, own s table.
        self.lam: list[tuple[Fraction, ...]] = []
        self.s_t: dict[tuple[int, int], list[Fraction]] = {}
        self.s_t_max = 0
        # converted public polynomials
        self.p_cz: dict[int, BivariatePoly] = {}
        self.q_cz: dict[int, BivariatePoly] = {}
        self.lam_cz: dict[int, BivariatePoly] = {}


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
    betas = _STATE.betas
    while len(betas) <= n:
        m = len(betas) - 1
        target = m + 1
        double = sum(
            betas[j] * betas[target - j]
            for j in range(max(0, target - m), min(m, target) + 1)
        )
        triple = _ZERO
        for j in range(m + 1):
            for k in range(m + 1):
                ell = target - j - k
                if 0 <= ell <= m:
                    triple += betas[j] * betas[k] * betas[ell]
        betas.append((m - Fraction(3, 4)) * betas[m] + double - triple)


def _extend_s_table(
    table: dict[tuple[int, int], list[Fraction]],
    filled: int,
    m_max: int,
    a: list[tuple[Fraction, ...]],
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
            acc: list[Fraction] = [_ZERO]
            for i in range(j - 1, m):
                acc = _padd(acc, _pmul(table[(j - 1, i)], a[m - i - 1]))
            table[(j, m)] = acc
    return max(filled, m_max)


def _sigma0_from_table(
    table: dict[tuple[int, int], list[Fraction]], n: int
) -> list[Fraction]:
    """sum_{j=1}^{n} (-1)^(j+1)/j * s_{j,n} as a dense polynomial."""
    acc: list[Fraction] = [_ZERO]
    for j in range(1, n + 1):
        acc = _padd(acc, _pscale(table[(j, n)], Fraction((-1) ** (j + 1), j)))
    return acc


def _ensure_p(n: int) -> None:
    st = _STATE
    while len(st.p_w) <= n:
        nn = len(st.p_w)
        if nn == 0:
            st.p_w.append((_ZERO, Fraction(1)))  # p_0 = w
            continue
        _ensure_beta(nn + 1)
        # arguments a_j = p_{j-1} are known up to j = nn, enough for row nn
        st.s_max = _extend_s_table(st.s, st.s_max, nn, st.p_w)
        poly = _pscale(_sigma0_from_table(st.s, nn), Fraction(3))
        for k in range(1, nn):
            outer = Fraction(4) ** (k + 1) * st.betas[k + 1] / k
            sig: list[Fraction] = [_ZERO]
            for j in range(1, nn - k + 1):
                sig = _padd(
                    sig, _pscale(st.s[(j, nn - k)], rational_binomial(-k, j))
                )
            poly = _padd(poly, _pscale(sig, outer))
        poly = _padd(poly, [Fraction(4) ** (nn + 1) * st.betas[nn + 1] / nn])
        st.p_w.append(tuple(poly))


def _ensure_q(k: int) -> None:
    st = _STATE
    _ensure_p(k - 1)
    st.s_max = _extend_s_table(st.s, st.s_max, k, st.p_w)
    for kk in range(1, k + 1):
        if kk in st.q_w:
            continue
        acc: list[Fraction] = [_ZERO]
        for m in range(1, kk + 1):
            acc = _padd(
                acc,
                _pscale(st.s[(m, kk)], rational_binomial(Fraction(1, 4), m)),
            )
        st.q_w[kk] = tuple(_pscale(acc, Fraction(1, 4**kk)))


def _ensure_lambert(n: int) -> None:
    st = _STATE
    while len(st.lam) <= n:
        kk = len(st.lam)
        if kk == 0:
            st.lam.append((_ZERO, Fraction(1)))  # ptilde_0 = z
            continue
        st.s_t_max = _extend_s_table(st.s_t, st.s_t_max, kk, st.lam)
        st.lam.append(tuple(_sigma0_from_table(st.s_t, kk)))


# -- public family containers --------------------------------------------------


@dataclass(frozen=True)
class AlphaSequence:
    """alpha_0..alpha_N of the formal radial series; index by subscript."""

    values: tuple[Fraction, ...]

    def __getitem__(self, k: int) -> Fraction:
        return self.values[k]

    def __len__(self) -> int:
        return len(self.values)

    @property
    def order(self) -> int:
        return len(self.values) - 1


@dataclass(frozen=True)
class BetaSequence:
    """beta_0..beta_N, the reciprocal-series coefficients; index by subscript."""

    values: tuple[Fraction, ...]

    def __getitem__(self, n: int) -> Fraction:
        return self.values[n]

    def __len__(self) -> int:
        return len(self.values)

    @property
    def order(self) -> int:
        return len(self.values) - 1


@dataclass(frozen=True)
class PPolyFamily:
    """p_0..p_N; ``family[n]`` is p_n in (c, z), ``family.coeffs(n)`` its
    dense coefficients in w = 3z - c, lowest power first."""

    polys: tuple[BivariatePoly, ...]
    dense: tuple[tuple[Fraction, ...], ...]

    def __getitem__(self, n: int) -> BivariatePoly:
        return self.polys[n]

    def coeffs(self, n: int) -> tuple[Fraction, ...]:
        return self.dense[n]

    def __len__(self) -> int:
        return len(self.polys)

    @property
    def order(self) -> int:
        return len(self.polys) - 1


@dataclass(frozen=True)
class QPolyFamily:
    """q_1..q_N; ``family[k]`` is q_k in (c, z), ``family.coeffs(k)`` its
    dense coefficients in w = 3z - c.  Both use the mathematical index k >= 1."""

    polys: tuple[BivariatePoly, ...]
    dense: tuple[tuple[Fraction, ...], ...]

    def __getitem__(self, k: int) -> BivariatePoly:
        if k < 1:
            raise DomainError("q polynomials start at index 1")
        return self.polys[k - 1]

    def coeffs(self, k: int) -> tuple[Fraction, ...]:
        if k < 1:
            raise DomainError("q polynomials start at index 1")
        return self.dense[k - 1]

    def __len__(self) -> int:
        return len(self.polys)

    @property
    def order(self) -> int:
        return len(self.polys)


@dataclass(frozen=True)
class LambertPolyFamily:
    """ptilde_0..ptilde_N (univariate in z); ``family[k]`` is ptilde_k,
    ``family.coeffs(k)`` its dense z-coefficients."""

    polys: tuple[BivariatePoly, ...]
    dense: tuple[tuple[Fraction, ...], ...]

    def __getitem__(self, k: int) -> BivariatePoly:
        return self.polys[k]

    def coeffs(self, k: int) -> tuple[Fraction, ...]:
        return self.dense[k]

    def __len__(self) -> int:
        return len(self.polys)

    @property
    def order(self) -> int:
        return len(self.polys) - 1


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
    """p_0..p_N, as exact polynomials in (c, z) and dense in w."""
    if N < 0:
        raise DomainError("gen_p needs N >= 0")
    _ensure_p(N)
    for n in range(N + 1):
        if n not in _STATE.p_cz:
            _STATE.p_cz[n] = _wpoly_to_bivariate(_STATE.p_w[n])
    return PPolyFamily(
        tuple(_STATE.p_cz[n] for n in range(N + 1)), tuple(_STATE.p_w[: N + 1])
    )


def gen_q(N: int) -> QPolyFamily:
    """q_1..q_N, as exact polynomials in (c, z) and dense in w."""
    if N < 1:
        raise DomainError("gen_q needs N >= 1")
    _ensure_q(N)
    for k in range(1, N + 1):
        if k not in _STATE.q_cz:
            _STATE.q_cz[k] = _wpoly_to_bivariate(_STATE.q_w[k])
    ks = range(1, N + 1)
    return QPolyFamily(
        tuple(_STATE.q_cz[k] for k in ks), tuple(_STATE.q_w[k] for k in ks)
    )


def gen_lambert_p(N: int) -> LambertPolyFamily:
    """ptilde_0..ptilde_N as exact polynomials (univariate in z)."""
    if N < 0:
        raise DomainError("gen_lambert_p needs N >= 0")
    _ensure_lambert(N)
    for k in range(N + 1):
        if k not in _STATE.lam_cz:
            _STATE.lam_cz[k] = BivariatePoly.z_poly(_STATE.lam[k])
    return LambertPolyFamily(
        tuple(_STATE.lam_cz[k] for k in range(N + 1)), tuple(_STATE.lam[: N + 1])
    )


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
    alphas = list(gen_alpha(N).values)
    g = list(alphas)
    g_prime = [k * alphas[k] for k in range(1, N + 1)]
    inner = [Fraction(1)]
    inner = _padd(inner, _pscale([_ZERO] + g, Fraction(-3, 4)))       # -(3/4) z g
    inner = _padd(inner, _pscale([_ZERO, _ZERO] + g_prime, Fraction(-1)))  # -z^2 g'
    residual = _padd(_pmul(inner, g), [Fraction(-1)])
    for idx, coeff in enumerate(residual):
        if coeff:
            return idx
    raise DomainError("residual vanished identically; truncation order suspect")
