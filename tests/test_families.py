"""Tests for the sequence and polynomial generators.

Oracle layout:
* alpha_0..alpha_3 and beta_0..beta_4 are published values, asserted exactly.
* alpha_4, alpha_5 were derived by hand-applying the recursion once and
  twice; beta_5 comes from the independent reciprocal-series route.  These
  are frozen here so a regression in the recursion cannot hide.
* p_1..p_3, q_1..q_3, ptilde_1..ptilde_3 are published displays, asserted
  term-by-term; ptilde_4 is a frozen hand derivation.
* The reciprocity identity alpha * beta = 1 is the structural cross-check
  between the two independent recursions.
* alpha_0..alpha_100 and beta_0..beta_100, generated as integers over 4^k,
  equal the Fraction recurrences of ``series_oracle`` entry for entry.
* p_n, q_k and ptilde_k are recomputed at rational points (c, z) by the
  generic series calculus of ``series_oracle``, one point at a time, and
  whole to order 40 by its composition-sum table; neither shares a
  recurrence with the generators' ODE, power rule and log rule.
* ptilde_0..ptilde_30 are pinned to the de Bruijn/Comtet closed form of
  W_{-1} in Stirling cycle numbers, and p_0..p_6 to a sympy reversion of
  G's expansion; neither uses the composition recursion.
"""

import math
from fractions import Fraction

import pytest
import sympy as sp
from mpmath import mp

from asymptode import families, numerics
from asymptode.errors import DomainError
from asymptode.families import (
    clear_caches,
    fixed_coeffs,
    gen_alpha,
    gen_beta,
    gen_lambert_p,
    gen_p,
    gen_q,
)
from asymptode.series import BivariatePoly, format_terms, poly_eval
from series_oracle import (
    TruncatedSeries,
    alpha_fractions,
    beta_fractions,
    composition_families,
    degree,
    dense,
    format_reference,
    ode_residual_order,
    rational_binomial,
    series_compose_coeffs,
    series_reciprocal,
    sigma0,
    sigma_m,
    terms_reference,
)

F = Fraction


class TestAlpha:
    def test_published_values(self):
        assert gen_alpha(3) == (F(1), F(3, 4), F(15, 8), F(483, 64))

    def test_base_case(self):
        assert gen_alpha(0) == (F(1),)

    def test_hand_derived_alpha4_alpha5(self):
        # alpha_4 = (9/4)(2 a0 a3 + 2 a1 a2), alpha_5 = (11/4)(2 a0 a4 + 2 a1 a3 + a2^2)
        seq = gen_alpha(5)
        assert seq[4] == F(5157, 128)
        assert seq[5] == F(134343, 512)

    def test_all_positive(self):
        assert all(a > 0 for a in gen_alpha(25))

    def test_negative_order_rejected(self):
        with pytest.raises(DomainError):
            gen_alpha(-1)


class TestBeta:
    def test_published_values(self):
        assert gen_beta(4) == (
            F(1),
            F(-3, 4),
            F(-21, 16),
            F(-165, 32),
            F(-7245, 256),
        )

    def test_hand_derived_beta5(self):
        # frozen from the reciprocal route: beta_5 = -97983/512
        assert gen_beta(5)[5] == F(-97983, 512)

    def test_reciprocal_oracle_order_30(self):
        # The beta recursion and the reciprocal of the alpha series are
        # independent computations; they must agree index by index.
        N = 30
        alpha_series = TruncatedSeries(gen_alpha(N))
        reciprocal = series_reciprocal(alpha_series)
        betas = gen_beta(N)
        for n in range(N + 1):
            assert betas[n] == reciprocal[n], n

    def test_reciprocity_product_is_one(self):
        N = 30
        product = TruncatedSeries(gen_alpha(N)) * TruncatedSeries(gen_beta(N))
        assert product == TruncatedSeries.one(N)


class TestGSeries:
    def test_integer_recurrences_equal_the_fraction_recurrences(self):
        # A_k / 4^k and B_k / 4^k against the Fraction recurrences of the
        # oracle, entry for entry, cold
        N = 100
        clear_caches()
        assert gen_alpha(N) == tuple(alpha_fractions(N))
        assert gen_beta(N) == tuple(beta_fractions(N))

    def test_squared_series_identity(self):
        # coeff_k(g^2) = 2 alpha_{k+1} / (k + 3/2) for k <= N-1
        N = 18
        alphas = gen_alpha(N + 1)
        g = TruncatedSeries(gen_alpha(N))
        g2 = g * g
        for k in range(N):
            assert g2[k] == 2 * alphas[k + 1] / (k + F(3, 2)), k


class TestPPolys:
    def test_p0(self):
        assert gen_p(0)[0] == BivariatePoly({(0, 1): 3, (1, 0): -1})

    def test_p1(self):
        assert gen_p(1)[1] == BivariatePoly(
            {(0, 1): 9, (0, 0): -21, (1, 0): -3}
        )

    def test_p2(self):
        expected = BivariatePoly(
            {
                (0, 2): F(-27, 2),
                (0, 1): 90,
                (1, 1): 9,
                (0, 0): -228,
                (1, 0): -30,
                (2, 0): F(-3, 2),
            }
        )
        assert gen_p(2)[2] == expected

    def test_p3(self):
        expected = BivariatePoly(
            {
                (0, 3): 27,
                (0, 2): F(-621, 2),
                (1, 2): -27,
                (0, 1): 1638,
                (1, 1): 207,
                (2, 1): 9,
                (0, 0): -3540,
                (1, 0): -546,
                (2, 0): F(-69, 2),
                (3, 0): -1,
            }
        )
        assert gen_p(3)[3] == expected

    def test_degree_bound_to_20(self):
        family = gen_p(20)
        for n in range(1, 21):
            assert degree(family[n], "z") <= n, n
        assert degree(family[0], "z") == 1

    def test_family_length(self):
        # gen_p(5) holds p_0..p_5 and nothing past them
        fam = gen_p(5)
        assert [fam[n] for n in range(6)] == [gen_p(8)[n] for n in range(6)]
        with pytest.raises(IndexError):
            fam[6]


class TestQPolys:
    def test_q1(self):
        assert gen_q(1)[1] == BivariatePoly(
            {(0, 1): F(3, 16), (1, 0): F(-1, 16)}
        )

    def test_q1_from_p0_directly(self):
        # q_1 = (1/4) binom(1/4, 1) p_0 = p_0 / 16
        assert dense("q", 1) == tuple(u / 16 for u in dense("p", 0))
        assert gen_q(1)[1] == BivariatePoly({(0, 1): F(3, 16), (1, 0): F(-1, 16)})

    def test_q2(self):
        expected = BivariatePoly(
            {
                (0, 2): F(-27, 512),
                (0, 1): F(9, 64),
                (1, 1): F(9, 256),
                (0, 0): F(-21, 64),
                (1, 0): F(-3, 64),
                (2, 0): F(-3, 512),
            }
        )
        assert gen_q(2)[2] == expected

    def test_q3(self):
        expected = BivariatePoly(
            {
                (0, 3): F(189, 8192),
                (0, 2): F(-135, 1024),
                (1, 2): F(-189, 8192),
                (0, 1): F(549, 1024),
                (1, 1): F(45, 512),
                (2, 1): F(63, 8192),
                (0, 0): F(-57, 64),
                (1, 0): F(-183, 1024),
                (2, 0): F(-15, 1024),
                (3, 0): F(-7, 8192),
            }
        )
        assert gen_q(3)[3] == expected

    def test_degree_bound_to_20(self):
        family = gen_q(20)
        for k in range(1, 21):
            assert degree(family[k], "z") <= k, k

    def test_index_zero_rejected(self):
        with pytest.raises(DomainError):
            gen_q(3)[0]
        with pytest.raises(DomainError):
            gen_q(0)


class TestLambertPolys:
    def test_first_four(self):
        fam = gen_lambert_p(3)
        assert fam[0] == BivariatePoly({(0, 1): 1})
        assert fam[1] == BivariatePoly({(0, 1): 1})
        assert fam[2] == BivariatePoly({(0, 1): 1, (0, 2): F(-1, 2)})
        assert fam[3] == BivariatePoly(
            {(0, 1): 1, (0, 2): F(-3, 2), (0, 3): F(1, 3)}
        )

    def test_hand_derived_ptilde4(self):
        assert gen_lambert_p(4)[4] == BivariatePoly(
            {(0, 1): 1, (0, 2): -3, (0, 3): F(11, 6), (0, 4): F(-1, 4)}
        )

    def test_degree_and_leading_coefficient(self):
        fam = gen_lambert_p(12)
        for k in range(1, 13):
            poly = fam[k]
            assert degree(poly, "z") == k
            assert degree(poly, "c") == 0
            assert poly.coefficient(0, k) == F((-1) ** (k + 1), k)

    def test_no_constant_term(self):
        fam = gen_lambert_p(8)
        for k in range(9):
            assert fam[k].coefficient(0, 0) == 0


def _dense_value(coeffs, u):
    return sum(f * u**j for j, f in enumerate(coeffs))


def _oracle_p_values(c, z, N):
    """p_0..p_N at the point (c, z), from the defining composition formula

        p_n = 3 log(1 + a)_n + sum_{k=1}^{n-1} (4^{k+1} beta_{k+1} / k) ((1 + a)^{-k})_{n-k}
              + 4^{n+1} beta_{n+1} / n,   a = sum_j p_{j-1} x^j,

    evaluated with generic series arithmetic on rational numbers."""
    betas = gen_beta(N + 1)
    values = [3 * z - c]
    for n in range(1, N + 1):
        a = TruncatedSeries([0] + values)
        value = 3 * sigma0(a)[n] + F(4) ** (n + 1) * betas[n + 1] / n
        for k in range(1, n):
            value += F(4) ** (k + 1) * betas[k + 1] / k * sigma_m(a, k)[n - k]
        values.append(value)
    return values


class TestCompositionOracle:
    """Each family, evaluated at rational points from both of its forms,
    against the composition formulas evaluated there directly."""

    POINTS = [(F(0), F(1)), (F(-7, 3), F(5, 2)), (F(11, 2), F(-4, 9))]
    N = 10

    @pytest.mark.parametrize("c, z", POINTS)
    def test_p(self, c, z):
        expected = _oracle_p_values(c, z, self.N)
        fam = gen_p(self.N)
        w = 3 * z - c
        for n in range(self.N + 1):
            assert poly_eval(fam[n], c, z) == expected[n], n
            assert _dense_value(dense("p", n), w) == expected[n], n

    @pytest.mark.parametrize("c, z", POINTS)
    def test_q(self, c, z):
        # q_k = 4^{-k} [x^k] (1 + a)^{1/4}
        a = TruncatedSeries([0] + _oracle_p_values(c, z, self.N - 1))
        root = series_compose_coeffs(
            TruncatedSeries([rational_binomial(F(1, 4), m) for m in range(self.N + 1)]), a
        )
        fam = gen_q(self.N)
        w = 3 * z - c
        for k in range(1, self.N + 1):
            expected = root[k] / 4**k
            assert poly_eval(fam[k], c, z) == expected, k
            assert _dense_value(dense("q", k), w) == expected, k

    @pytest.mark.parametrize("z", [F(1), F(-5, 3), F(7, 2)])
    def test_ptilde(self, z):
        # ptilde_0 = z, ptilde_k = [x^k] log(1 + sum_j ptilde_{j-1} x^j)
        values = [z]
        for k in range(1, self.N + 1):
            values.append(sigma0(TruncatedSeries([0] + values))[k])
        fam = gen_lambert_p(self.N)
        for k in range(self.N + 1):
            assert poly_eval(fam[k], F(0), z) == values[k], k
            assert _dense_value(dense("lambert", k), z) == values[k], k


class TestCompositionTable:
    N = 40

    def test_integer_forms_equal_to_40(self):
        # the generators' integer forms are the table's, entry for entry:
        # fixed_coeffs returns one mantissa per stored coefficient, so the
        # lengths (p_0: 2, p_m: m + 1, q_k and ptilde_k: k + 1) are pinned too
        clear_caches()
        gen_p(self.N)
        gen_q(self.N)
        gen_lambert_p(self.N)
        p, q, lam = composition_families(self.N)
        st = families._STATE
        assert st.p_w == p
        assert st.q_w == q
        assert st.lam == lam
        assert [len(nums) for nums, _ in st.p_w] == [2] + list(range(2, self.N + 2))
        assert [len(st.q_w[k][0]) for k in range(1, self.N + 1)] == list(range(2, self.N + 2))
        assert [len(nums) for nums, _ in st.lam] == [2] + list(range(2, self.N + 2))

    def test_product_count_is_quadratic(self, monkeypatch):
        # the products a cold generator accumulates: O(N^2), so a doubling
        # of N multiplies them by about 4 (3.3 to 3.9 here); the composition
        # table's C(N+2, 3) multiplied them by 7.0 to 7.7
        real = families._sum_of_products
        count = [0]

        def counting(pairs):
            count[0] += len(pairs)
            return real(pairs)

        monkeypatch.setattr(families, "_sum_of_products", counting)
        for gen in (gen_p, gen_q, gen_lambert_p):
            counts = []
            for N in (10, 20, 40):
                clear_caches()
                count[0] = 0
                gen(N)
                counts.append(count[0])
            assert counts[1] <= 4.6 * counts[0], (gen.__name__, counts)
            assert counts[2] <= 4.6 * counts[1], (gen.__name__, counts)
        clear_caches()


def _stirling_cycle(n_max):
    """[n, k] for 0 <= k <= n <= n_max: [n+1, k] = n [n, k] + [n, k-1]."""
    table = [[1]]
    for n in range(n_max):
        row = table[-1] + [0]
        table.append([n * row[k] + (row[k - 1] if k else 0) for k in range(n + 2)])
    return table


class TestLambertClosedForm:
    def test_de_bruijn_comtet_to_30(self):
        # y = x + ln x - sum_{k>=0, m>=1} c_km (ln x)^m / (-x)^(k+m) with
        # c_km = (-1)^k [k+m, k+1] / m! (Corless, Gonnet, Hare, Jeffrey and
        # Knuth, Adv. Comput. Math. 5, 1996, sec. 4), so the coefficient of
        # z^m in ptilde_K is (-1)^(m+1) [K, K-m+1] / m!.
        N = 30
        cycle = _stirling_cycle(N)
        fam = gen_lambert_p(N)
        assert dense("lambert", 0) == (0, 1)
        for K in range(1, N + 1):
            expected = [F(0)] + [
                F((-1) ** (m + 1) * cycle[K][K - m + 1], math.factorial(m))
                for m in range(1, K + 1)
            ]
            assert dense("lambert", K) == tuple(expected), K
            assert fam[K] == BivariatePoly({(0, m): v for m, v in enumerate(expected)}), K


class TestSympyReversion:
    def test_p_to_6(self):
        # Solve G(y) = X for y = X + sum_k P_k / X^k order by order, with
        # G(y) = y - 3 ln y + c - sum_{k>=1} (4^(k+1) beta_(k+1) / k) y^-k.
        # In e = 1/X and L = ln X, with delta = sum_k P_k e^k:
        #   delta - 3 ln(1 + e delta) - 3 L + c
        #     - sum_k (4^(k+1) beta_(k+1) / k) e^k (1 + e delta)^-k = 0.
        N = 6
        e, L, c, u = sp.symbols("e L c u")
        P = sp.symbols("P0:%d" % (N + 1))
        betas = [sp.Rational(b.numerator, b.denominator) for b in gen_beta(N + 1)]

        def trunc(expr):
            poly = sp.Poly(sp.expand(expr), e)
            return sum(coef * e**k for (k,), coef in poly.terms() if k <= N)

        delta = sum(P[k] * e**k for k in range(N + 1))

        def compose(f):
            # f(e delta) to order e^N, from sympy's Taylor series of f(u)
            taylor = sp.series(f, u, 0, N + 1).removeO()
            out, power = 0, 1
            for j in range(N + 1):
                out += taylor.coeff(u, j) * power
                power = trunc(power * e * delta)
            return trunc(out)

        expr = delta - 3 * compose(sp.log(1 + u)) - 3 * L + c
        for k in range(1, N + 1):
            expr -= 4 ** (k + 1) * betas[k + 1] / k * e**k * compose((1 + u) ** (-k))
        expr = sp.Poly(trunc(expr), e)
        fam = gen_p(N)
        solved = {}
        for n in range(N + 1):
            eq = sp.expand(expr.coeff_monomial(e**n).subs(solved))
            assert sp.diff(eq, P[n]) == 1, n
            solved[P[n]] = sp.expand(P[n] - eq)
            terms = {
                key: F(int(v.p), int(v.q))
                for key, v in sp.Poly(solved[P[n]], c, L).terms()
            }
            assert fam[n] == BivariatePoly(terms), n


class TestOdeResidual:
    def test_hand_check_n1(self):
        # residual for N=1 is -(30/16) z^2 - (63/64) z^3: order exactly 2
        assert ode_residual_order(1) == 2

    def test_exact_order_small(self):
        for N in range(1, 9):
            assert ode_residual_order(N) == N + 1, N

    def test_bound_to_15(self):
        for N in range(1, 16):
            assert ode_residual_order(N) >= N + 1, N

    def test_invalid_order(self):
        with pytest.raises(DomainError):
            ode_residual_order(0)


class TestDisplay:
    # family.text(n) is written from the integer form; family[n] is the
    # display form, built on first index.  Both must say the same thing,
    # and the display form must be the w = 3z - c expansion of the member
    N = 60
    GEN = {"p": gen_p, "q": gen_q, "lambert": gen_lambert_p}

    @pytest.mark.parametrize("name", sorted(GEN))
    def test_text_is_the_display_text(self, name):
        clear_caches()
        family = self.GEN[name](self.N)
        texts = {n: family.text(n) for n in range(family.first, self.N + 1)}
        assert family._display == {}
        for n, text in texts.items():
            assert text == family[n].format_descending(), n

    @pytest.mark.parametrize("name", sorted(GEN))
    def test_display_form_expands_the_member(self, name):
        family = self.GEN[name](self.N)
        for n in range(family.first, self.N + 1):
            expected = {}
            for j, u in enumerate(dense(name, n)):
                if name == "lambert":
                    expected[(0, j)] = u
                    continue
                for i in range(j + 1):  # u (3z)^i (-c)^(j-i) C(j, i)
                    expected[(j - i, i)] = u * math.comb(j, i) * 3**i * (-1) ** (j - i)
            assert family[n] == BivariatePoly(expected), n

    @pytest.mark.parametrize("name", sorted(GEN))
    def test_text_path_equals_the_reference(self, name):
        # the terms, reduced once per coefficient, are the terms reduced
        # by one gcd each, and the text is the factor-list text of them
        family = self.GEN[name](self.N)
        for n in range(family.first, self.N + 1):
            member = family._member(n)
            terms = terms_reference(member, family._in_w)
            assert list(families._terms(member, family._in_w)) == terms, n
            assert family.text(n) == format_reference(terms), n

    @pytest.mark.parametrize(
        "terms, text",
        [
            ([], "0"),
            ([(0, 0, 1, 1)], "1"),
            ([(0, 0, -1, 1)], "-1"),
            ([(0, 1, 1, 1), (1, 0, -1, 1)], "z - c"),
            ([(2, 3, 1, 1), (1, 1, 1, 1), (0, 0, -1, 1)], "z^3*c^2 + z*c - 1"),
            ([(3, 0, 1, 1), (0, 0, 5, 1)], "c^3 + 5"),
            ([(0, 0, 5, 7)], "5/7"),
            ([(0, 0, -1, 16)], "-1/16"),
            ([(0, 2, -3, 4), (1, 2, 1, 4), (4, 0, 7, 1)], "-3/4*z^2 + 1/4*z^2*c + 7*c^4"),
            ([(1, 0, -1, 1), (0, 1, -2, 1)], "-c - 2*z"),
        ],
    )
    def test_format_edge_cases(self, terms, text):
        assert format_terms(terms) == text
        assert format_reference(terms) == text

    def test_display_forms_built_on_first_index_only(self):
        family = gen_q(10)
        assert family._display == {}
        first = family[4]
        assert set(family._display) == {4}
        assert family[4] is first
        assert [family[n] for n in range(1, 11)][3] is first
        assert set(family._display) == set(range(1, 11))

    def test_equality_and_hash(self):
        assert gen_p(4) == gen_p(4)
        assert hash(gen_p(4)) == hash(gen_p(4))
        assert gen_p(4) != gen_p(5)
        assert gen_p(4) != gen_lambert_p(4)
        small = gen_q(3)
        clear_caches()
        assert gen_q(3) == small


class TestMemoization:
    def test_results_stable_across_cache_clear(self):
        before_p = gen_p(6)
        before_q = gen_q(6)
        before_b = gen_beta(12)
        clear_caches()
        assert [gen_p(6)[n] for n in range(7)] == [before_p[n] for n in range(7)]
        assert [gen_q(6)[n] for n in range(1, 7)] == [before_q[n] for n in range(1, 7)]
        assert gen_beta(12) == before_b

    def test_growing_requests_are_prefix_consistent(self):
        clear_caches()
        small = gen_p(2)
        large = gen_p(8)
        assert [large[n] for n in range(3)] == [small[n] for n in range(3)]

    def test_mantissas_only_on_numeric_reads(self):
        # the generators never build the mantissas of numeric reads, and
        # clear_caches drops them with everything else
        clear_caches()
        assert families._STATE.fixed == {}
        gen_p(20)
        gen_q(20)
        gen_lambert_p(20)
        assert families._STATE.fixed == {}
        mants, slope = fixed_coeffs("q", 3, 200)
        assert fixed_coeffs("q", 3, 200) is families._STATE.fixed[("q", 3, 200)]
        nums, den = families._STATE.q_w[3]
        assert mants == tuple((v << 200) // den for v in nums)
        assert slope == tuple((j * v << 200) // den for j, v in enumerate(nums) if j)
        assert set(families._STATE.fixed) == {("q", 3, 200)}
        clear_caches()
        assert families._STATE.fixed == {}

    @pytest.mark.parametrize("dps", [30, 42])
    def test_g_series_mantissas(self, dps):
        # the series numerics reads below the crossover, at the scale
        # 2^-F of a problem at dps digits: floor(v 2^F) of each exact
        # alpha_k and tail weight w_k = beta_k 4^k / (k - 1) = B_k / (k - 1),
        # in the tail's u^(k-1), and of their derivatives' coefficients
        with mp.workdps(dps):
            bits = mp.prec + numerics._GUARD_BITS
        betas = gen_beta(24)
        exact = {
            "alpha": gen_alpha(24),
            "tail": [F(0)] + [F(4**k, k - 1) * betas[k] for k in range(2, 25)],
        }
        for family, values in exact.items():
            mants, slope = fixed_coeffs(family, 24, bits)
            assert mants == tuple(math.floor(v * 2**bits) for v in values), family
            assert slope == tuple(
                math.floor(j * v * 2**bits) for j, v in enumerate(values) if j
            ), family

    def test_q_after_p_reuses_table(self):
        clear_caches()
        gen_p(10)
        before = list(families._STATE.p_w)
        fam = gen_q(10)  # must not recompute p: the p table is read as it is
        assert all(a is b for a, b in zip(families._STATE.p_w, before, strict=True))
        assert fam[1] == BivariatePoly({(0, 1): F(3, 16), (1, 0): F(-1, 16)})
