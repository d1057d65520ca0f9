"""Tests for the exact polynomial substrate and the series oracle.

The composition-sum operations of the test oracle ``series_oracle`` are
checked against a brute-force enumeration of integer compositions, and
against closed forms for log(1+x) and (1+x)^(-m), before the family tests
lean on them.  Structural invariants run under hypothesis.
"""

import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymptode.errors import DomainError
from asymptode.series import BivariatePoly, poly_eval
from series_oracle import (
    TruncatedSeries,
    rational_binomial,
    series_compose_coeffs,
    series_from_json,
    series_mul,
    series_pow,
    series_reciprocal,
    series_to_json,
    sigma0,
    sigma_m,
)


def brute_composition_sum(m: int, k: int, a: list[Fraction]) -> Fraction:
    """Oracle: sum of a[i1]*...*a[im] over all i1+...+im = k with ij >= 1.

    Direct enumeration over products, no series algebra involved.
    ``a`` is 1-indexed via a[i]; a[0] is ignored.
    """
    if m == 0:
        return Fraction(1) if k == 0 else Fraction(0)
    total = Fraction(0)
    for combo in itertools.product(range(1, k + 1), repeat=m):
        if sum(combo) == k:
            prod = Fraction(1)
            for i in combo:
                prod *= a[i]
            total += prod
    return total


rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=12
)


@st.composite
def zero_constant_series(draw, min_order=1, max_order=8):
    order = draw(st.integers(min_value=min_order, max_value=max_order))
    tail = draw(
        st.lists(rationals, min_size=order, max_size=order)
    )
    return TruncatedSeries([Fraction(0)] + tail)


class TestTruncatedSeriesBasics:
    def test_construction_and_padding(self):
        s = TruncatedSeries([1, 2], order=4)
        assert s.order == 4
        assert s.coeffs == (
            Fraction(1),
            Fraction(2),
            Fraction(0),
            Fraction(0),
            Fraction(0),
        )

    def test_too_many_coeffs_rejected(self):
        with pytest.raises(DomainError):
            TruncatedSeries([1, 2, 3], order=1)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            TruncatedSeries([])

    def test_float_rejected(self):
        with pytest.raises(DomainError):
            TruncatedSeries([0.5])

    def test_binary_ops_truncate_to_min_order(self):
        a = TruncatedSeries([1, 1, 1, 1])
        b = TruncatedSeries([1, 1])
        assert (a + b).order == 1
        assert (a * b).order == 1

    def test_mul_example(self):
        # (1 + x)(1 - x + x^2) = 1 + x^3, truncated at order 2 -> 1
        a = TruncatedSeries([1, 1, 0])
        b = TruncatedSeries([1, -1, 1])
        assert (a * b).coeffs == (Fraction(1), Fraction(0), Fraction(0))

    def test_derivative(self):
        s = TruncatedSeries([5, 1, 3, 7])
        assert s.derivative().coeffs == (Fraction(1), Fraction(6), Fraction(21))
        assert TruncatedSeries([5]).derivative().coeffs == (Fraction(0),)

    def test_lowest_nonzero_index(self):
        assert TruncatedSeries([0, 0, 3, 1]).lowest_nonzero_index() == 2
        assert TruncatedSeries.zero(5).lowest_nonzero_index() is None


class TestSeriesPow:
    def test_against_brute_oracle(self):
        a_tail = [Fraction(0), Fraction(1), Fraction(-2), Fraction(3, 2),
                  Fraction(1, 3), Fraction(-5)]
        a = TruncatedSeries(a_tail)
        for m in range(0, 5):
            powered = series_pow(a, m)
            for k in range(a.order + 1):
                assert powered[k] == brute_composition_sum(m, k, a_tail), (m, k)

    def test_rejects_nonzero_constant(self):
        with pytest.raises(DomainError):
            series_pow(TruncatedSeries([1, 1]), 2)

    @given(zero_constant_series(), st.integers(min_value=0, max_value=5))
    @settings(max_examples=60, deadline=None)
    def test_zero_prefix(self, a, m):
        powered = series_pow(a, m)
        for k in range(min(m, a.order + 1)):
            if k < m:
                assert powered[k] == 0

    @given(zero_constant_series(), st.integers(min_value=0, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_pow_recursion(self, a, m):
        assert series_pow(a, m + 1) == series_mul(series_pow(a, m), a)


class TestComposition:
    def test_exp_of_log_is_identity(self):
        # exp(y) with y = log(1+x): composing the exp coefficients 1/m!
        # with sigma0 output must return 1 + x exactly.
        order = 10
        x = TruncatedSeries.identity(order)
        log_series = sigma0(x.scale(1))  # log(1+x)
        exp_coeffs = [Fraction(1)]
        fact = 1
        for m in range(1, order + 1):
            fact *= m
            exp_coeffs.append(Fraction(1, fact))
        back = series_compose_coeffs(TruncatedSeries(exp_coeffs), log_series)
        assert back == TruncatedSeries([1, 1], order=order)

    @given(zero_constant_series(max_order=6))
    @settings(max_examples=40, deadline=None)
    def test_composition_matches_power_expansion(self, a):
        f_coeffs = [Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(3)]
        f = TruncatedSeries(f_coeffs, order=a.order) \
            if a.order >= 3 else TruncatedSeries(f_coeffs[: a.order + 1])
        composed = series_compose_coeffs(f, a)
        direct = TruncatedSeries.zero(composed.order)
        for m in range(composed.order + 1):
            if m < len(f_coeffs):
                direct = direct + series_pow(a, m).truncate(
                    composed.order
                ).scale(f_coeffs[m])
        assert composed == direct


class TestSigma:
    def test_sigma0_is_log_coefficients(self):
        # sigma0(x) must reproduce log(1+x) = x - x^2/2 + x^3/3 - ...
        order = 8
        got = sigma0(TruncatedSeries.identity(order))
        for k in range(1, order + 1):
            assert got[k] == Fraction((-1) ** (k + 1), k)
        assert got[0] == 0

    def test_sigma_m_is_negative_power_coefficients(self):
        # sigma_m(x, m) must reproduce (1+x)^(-m) = sum binom(-m,k) x^k.
        order = 8
        x = TruncatedSeries.identity(order)
        for m in (1, 2, 5):
            got = sigma_m(x, m)
            for k in range(order + 1):
                assert got[k] == rational_binomial(-m, k)

    def test_sigma_m_rejects_m_zero(self):
        with pytest.raises(DomainError):
            sigma_m(TruncatedSeries.identity(3), 0)

    @given(zero_constant_series(max_order=7), st.integers(min_value=1, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_sigma_m_times_power_is_one(self, a, m):
        # (1+a)^(-m) * (1+a)^m == 1
        one_plus = a.shift(1)
        power = TruncatedSeries.one(a.order)
        for _ in range(m):
            power = power * one_plus
        product = sigma_m(a, m) * power
        assert product == TruncatedSeries.one(a.order)

    def test_sigma0_of_expm1_is_identity(self):
        # log(1 + (e^x - 1)) = x
        order = 9
        coeffs = [Fraction(0)]
        fact = 1
        for m in range(1, order + 1):
            fact *= m
            coeffs.append(Fraction(1, fact))
        expm1 = TruncatedSeries(coeffs)
        assert sigma0(expm1) == TruncatedSeries.identity(order)


class TestReciprocal:
    def test_rejects_zero_constant(self):
        with pytest.raises(DomainError):
            series_reciprocal(TruncatedSeries([0, 1]))

    def test_geometric(self):
        # 1/(1-x) = 1 + x + x^2 + ...
        rec = series_reciprocal(TruncatedSeries([1, -1], order=6))
        assert all(c == 1 for c in rec.coeffs)

    @given(
        st.lists(rationals, min_size=1, max_size=8).filter(lambda v: v[0] != 0)
    )
    @settings(max_examples=60, deadline=None)
    def test_defining_property(self, coeffs):
        a = TruncatedSeries(coeffs)
        assert a * series_reciprocal(a) == TruncatedSeries.one(a.order)


class TestRationalBinomial:
    def test_integer_cases(self):
        assert rational_binomial(5, 2) == 10
        assert rational_binomial(3, 5) == 0
        assert rational_binomial(-2, 3) == -4

    def test_quarter(self):
        assert rational_binomial(Fraction(1, 4), 1) == Fraction(1, 4)
        assert rational_binomial(Fraction(1, 4), 2) == Fraction(-3, 32)
        assert rational_binomial(Fraction(1, 4), 3) == Fraction(7, 128)

    def test_negative_j_rejected(self):
        with pytest.raises(DomainError):
            rational_binomial(1, -1)


class TestBivariatePoly:
    def test_zero_terms_dropped(self):
        p = BivariatePoly({(0, 0): 0, (1, 2): 3})
        assert p.terms == {(1, 2): Fraction(3)}
        assert p.degree_z == 2
        assert p.degree_c == 1

    def test_zero_poly_degrees(self):
        z = BivariatePoly.zero()
        assert z.degree_z == -1
        assert z.degree_c == -1
        assert z.is_zero()

    def test_format_descending(self):
        p = BivariatePoly({(0, 1): 9, (1, 0): -3, (0, 0): -21})
        assert p.format_descending() == "9*z - 21 - 3*c"

    def test_eval_exact_with_fractions(self):
        p = BivariatePoly({(0, 1): 3, (1, 0): -1})   # 3z - c
        assert poly_eval(p, Fraction(1), Fraction(2)) == Fraction(5)
        # q1-like shape: (3/16)z - (1/16)c at c=0, z=16/3 gives 1
        q1 = BivariatePoly({(0, 1): Fraction(3, 16), (1, 0): Fraction(-1, 16)})
        assert poly_eval(q1, Fraction(0), Fraction(16, 3)) == 1

    def test_eval_matches_term_sum(self):
        p = BivariatePoly(
            {(2, 3): Fraction(7, 5), (1, 1): -2, (0, 0): Fraction(1, 3), (3, 0): 4}
        )
        c, z = Fraction(-3, 2), Fraction(5, 7)
        direct = sum(
            v * c**i * z**j for (i, j), v in p.terms.items()
        )
        assert poly_eval(p, c, z) == direct

    def test_eval_with_floats_runs(self):
        p = BivariatePoly({(0, 2): Fraction(1, 2), (1, 0): 1})
        val = poly_eval(p, 2.0, 3.0)
        assert val == pytest.approx(0.5 * 9 + 2.0)


class TestSerialization:
    def test_series_roundtrip(self):
        s = TruncatedSeries([1, Fraction(-3, 4), Fraction(15, 8)])
        data = json.loads(json.dumps(series_to_json(s)))
        assert series_from_json(data) == s

    def test_series_json_shape(self):
        s = TruncatedSeries([1, Fraction(-3, 4)])
        data = series_to_json(s)
        assert data == {"order": 1, "coeffs": [["1", "1"], ["-3", "4"]]}

    def test_huge_integers_survive(self):
        big = Fraction(10**40 + 7, 3**60)
        s = TruncatedSeries([big])
        assert series_from_json(json.loads(json.dumps(series_to_json(s)))) == s

    @given(zero_constant_series())
    @settings(max_examples=30, deadline=None)
    def test_series_roundtrip_property(self, s):
        assert series_from_json(series_to_json(s)) == s

    def test_length_mismatch_rejected(self):
        with pytest.raises(DomainError):
            series_from_json({"order": 3, "coeffs": [["1", "1"]]})
