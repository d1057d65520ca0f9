"""Tests for the expansion evaluators, constant fitting, and remainder
machinery.

The structural tests lean on synthetic trajectories (a model evaluated
one order above the study order), which make the expected remainder an
exact polynomial expression.  A few slower checks run against real
integrations at moderate tolerances.
"""

import json
import re

import pytest
from mpmath import mp

from asymptode import (
    AccuracyError,
    AsymptoticModel,
    ConvergenceError,
    DomainError,
    InitialData,
    RemainderReport,
    SolverConfig,
    SyntheticTrajectory,
    compute_G,
    compute_c_for_data,
    eval_A_n,
    fit_c_from_trajectory,
    g_problem_for_data,
    gen_beta,
    gen_lambert_p,
    gen_p,
    gen_q,
    integrate_h,
    lambert_compare,
    remainder_study,
    shift_invariance_check,
)
from asymptode import asympt, families
from asymptode.asympt import _a_value, _expansion_sum, _powers, _profile_parts
from asymptode.cli import _report_csv
from asymptode.numerics import _floor, lambert_root_tol, lambert_wm1_numeric
from asymptode.series import poly_eval
import expansion_oracle
from expansion_oracle import eval_G_asympt, eval_Ginv_asympt, member_value
from series_oracle import dense

DATA = InitialData(0, 1, 1)
C_011 = "-18.64441506041806"


@pytest.fixture(scope="module")
def model():
    return AsymptoticModel.build(C_011, order=4, dps=30)


@pytest.fixture(scope="module")
def traj_default():
    return integrate_h(DATA, 1.2e6)


@pytest.fixture(scope="module")
def tight():
    cfg = SolverConfig(rel_tol=1e-18, abs_tol=1e-20)
    traj = integrate_h(DATA, 1.2e4, cfg)
    c = compute_c_for_data(DATA, cfg)
    return AsymptoticModel.build(c, order=4, dps=cfg.effective_dps), traj


class TestModel:
    def test_build_accepts_strings(self):
        m = AsymptoticModel.build("-2.5", order=3)
        with mp.workdps(30):
            assert m.c == mp.mpf("-2.5")
        assert m.order == 3 and m.dps == 30

    def test_frozen(self, model):
        with pytest.raises(Exception):
            model.order = 7

    @pytest.mark.parametrize("order,dps", [(-1, 30), (2, 5)])
    def test_bad_settings_rejected(self, order, dps):
        with pytest.raises(DomainError):
            AsymptoticModel.build(0, order=order, dps=dps)

    def test_shifted_moves_c_by_minus_4s(self, model):
        with mp.workdps(30):
            assert abs(model.shifted(2).c - (model.c - 8)) < mp.mpf("1e-25")
            assert model.shifted(0).c == model.c


class TestEvalA:
    def test_order_zero_is_quartic_root(self, model):
        with mp.workdps(30):
            expected = (4 * mp.mpf(100)) ** (mp.mpf(1) / 4)
            assert abs(eval_A_n(model, 100, 0) - expected) < mp.mpf("1e-28")

    def test_order_one_closed_form(self, model):
        # A_1 = (4t)^(1/4) (1 + (3 ln 4t - c) / (16 t))
        with mp.workdps(30):
            t = mp.mpf(1000)
            c = mp.mpf(model.c)
            expected = (4 * t) ** (mp.mpf(1) / 4) * (1 + (3 * mp.log(4 * t) - c) / (16 * t))
            assert abs(eval_A_n(model, t, 1) - expected) < mp.mpf("1e-26")

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_agrees_with_inverse_expansion(self, model, n):
        # two independent polynomial routes to the same profile: the
        # q family directly, and the p family through G^{-1} at x = 4t
        with mp.workdps(30):
            a = eval_A_n(model, 1e4, n)
            via_p = eval_Ginv_asympt(model, 4e4, n) ** (mp.mpf(1) / 4)
            assert abs(a - via_p) < mp.mpf(10) ** (-3 * n - 2)

    def test_default_order_is_model_order(self, model):
        assert eval_A_n(model, 100) == eval_A_n(model, 100, 4)

    def test_bad_inputs_rejected(self, model):
        with pytest.raises(DomainError):
            eval_A_n(model, 0)
        with pytest.raises(DomainError):
            eval_A_n(model, 100, -1)
        with pytest.raises(DomainError):
            eval_Ginv_asympt(model, 0.5)


class TestDenseEvaluation:
    """The numeric paths evaluate each family by Horner on its dense
    coefficients.  The reference sums the (c, z) display forms with
    poly_eval at 20 guard digits; agreement is required to 10^(10 - dps)."""

    DPS = 30
    GUARD = 20
    C_VALUES = (C_011, "7.5")
    POINTS = (1e2, 1e4, 1e6)

    def _close(self, got, ref):
        return abs(got - ref) <= mp.mpf(10) ** (10 - self.DPS) * abs(ref)

    @pytest.mark.parametrize("n", [1, 4, 20])
    def test_a_value_and_slope(self, n):
        q = gen_q(n)
        for c_raw in self.C_VALUES:
            for t_raw in self.POINTS:
                with mp.workdps(self.DPS):
                    parts = _profile_parts(mp.mpf(t_raw), n)
                    value = _a_value(mp.mpf(c_raw), parts)
                    # the c-derivative the reference fit takes
                    slope = expansion_oracle.a_value(mp.mpf(c_raw), mp.mpf(t_raw), n, slope=True)
                with mp.workdps(self.DPS + self.GUARD):
                    c, t = mp.mpf(c_raw), mp.mpf(t_raw)
                    z = mp.log(4 * t)
                    ref = (4 * t) ** (mp.mpf(1) / 4) * (
                        1 + mp.fsum(poly_eval(q[k], c, z) / t**k for k in range(1, n + 1))
                    )
                    h = mp.mpf(10) ** -12
                    parts = _profile_parts(t, n)
                    central = (_a_value(c + h, parts) - _a_value(c - h, parts)) / (2 * h)
                    assert self._close(value, ref), (c_raw, t_raw)
                    assert self._close(slope, central), (c_raw, t_raw)

    @pytest.mark.parametrize("n", [1, 4, 20])
    def test_inverse_expansion(self, n):
        p = gen_p(n)
        for c_raw in self.C_VALUES:
            m = AsymptoticModel.build(c_raw, order=n, dps=self.DPS)
            for x_raw in self.POINTS:
                got = eval_Ginv_asympt(m, x_raw)
                with mp.workdps(self.DPS + self.GUARD):
                    c, x = mp.mpf(c_raw), mp.mpf(x_raw)
                    z = mp.log(x)
                    ref = x + mp.fsum(poly_eval(p[k], c, z) / x**k for k in range(n + 1))
                    assert self._close(got, ref), (c_raw, x_raw)

    @pytest.mark.parametrize("n", [1, 4, 20])
    def test_lambert_expansion(self, n):
        # evaluated directly: lambert_compare refuses the points where its
        # root cannot resolve the remainder (n = 4 at 1e6, n = 20 at all three)
        lam = gen_lambert_p(n)
        for x_raw in self.POINTS:
            with mp.workdps(self.DPS):
                x = mp.mpf(x_raw)
                got = _expansion_sum("lambert", mp.log(x), _powers(x, n), x + mp.log(x))[-1]
            with mp.workdps(self.DPS + self.GUARD):
                x = mp.mpf(x_raw)
                z = mp.log(x)
                ref = x + mp.fsum(poly_eval(lam[k], 0, z) / x**k for k in range(n + 1))
                assert self._close(got, ref), x_raw


class TestOnePassPerPoint:
    """asympt forms A_0..A_n at a point in one pass, as the running sums of
    one _expansion_sum over parts (3 ln 4t, (4t)^(1/4), t^k) formed once.
    Each must equal the per-order evaluation of expansion_oracle bit for
    bit, and so must the reports built from them."""

    def test_running_sums_are_the_per_order_values(self):
        n_max = 20
        for c_raw in (C_011, "7.5"):
            model = AsymptoticModel.build(c_raw, order=n_max, dps=30)
            for t_raw in (1e2, 1234.5678, 98765.4321, 1e6):
                with mp.workdps(30):
                    c, t = mp.mpf(c_raw), mp.mpf(t_raw)
                    log3, root, powers = _profile_parts(t, n_max)
                    values = [root * s for s in _expansion_sum("q", log3 - c, powers, mp.one)]
                    for n in range(n_max + 1):
                        assert values[n] == eval_A_n(model, t, n) == expansion_oracle.a_value(c, t, n)

    @pytest.mark.parametrize("dps", [30, 35, 42, 47])
    @pytest.mark.parametrize("family,first", [("q", 1), ("lambert", 0)])
    def test_expansion_sums_equal_the_per_order_sums(self, family, first, dps):
        # the raw running sums against expansion_oracle's mpf sums from
        # member first, each member read at its own split of u, to n = 20;
        # the shipped sums start at member 1, the Lambert ones at t + ln t,
        # as ptilde_0(ln t) = ln t is read exactly.  remainder_study reads
        # at the trajectory's dps (42 at the verify tolerances) + 5
        n = 20
        for t_raw in (1e2, 1234.5678, 1e6):
            with mp.workdps(dps):
                t = mp.mpf(t_raw)
                u = 3 * mp.log(4 * t) - mp.mpf(C_011) if first else mp.log(t)
                acc = mp.one if first else t
                sums = _expansion_sum(family, u, _powers(t, n), acc if first else acc + u)
                assert len(sums) == n + 1
                for m in range(n + 1):
                    assert sums[m] == expansion_oracle._sum(family, u, t, m, acc, first), (t_raw, m)

    def test_reports_equal_the_per_point_reference(self, tight):
        m, traj = tight
        grid = [1e2, 1e3, 3456.789, 1e4]
        rep = remainder_study(m, traj, 2, grid)
        assert (rep.h_values, rep.a_values, rep.remainders) == expansion_oracle.remainder_reference(m, traj, 2, grid)
        cfg = SolverConfig()
        grid = [10, 100, 1e3, 12345.678, 1e5]
        rep = lambert_compare(3, grid, cfg)
        assert (rep.h_values, rep.a_values, rep.remainders) == expansion_oracle.lambert_reference(3, grid, cfg)

    def test_remainder_study_reads_each_member_once_per_point(self, monkeypatch):
        # n_max = 3 on 5 points: q_1..q_3 once at each point, 15 reads of
        # the one Horner core, each on the mantissas of the member it names
        reads, member_of = [], {}
        fetch, horner = asympt._fixed_member, asympt._fixed_horner

        def fetched(family, n):
            mants, F = fetch(family, n)
            member_of[id(mants)] = (family, n)
            return mants, F

        def counted(mants, U, E, F):
            reads.append(member_of[id(mants)])
            return horner(mants, U, E, F)

        monkeypatch.setattr(asympt, "_fixed_member", fetched)
        monkeypatch.setattr(asympt, "_fixed_horner", counted)
        m = AsymptoticModel.build(C_011, order=3, dps=30)
        syn = SyntheticTrajectory(lambda t: (4 * t) ** (mp.mpf(1) / 4), 10, 1e7, dps=30)
        remainder_study(m, syn, 3, [1e2, 1e3, 1e4, 1e5, 1e6])
        assert sorted(reads) == sorted([("q", k) for k in (1, 2, 3)] * 5)


class TestFixedPointReads:
    """Each family member is read by one integer Horner on its mantissas at
    2^-(prec + 64), rounded once.  Against mpf Horner on the exact
    coefficients 30 digits higher, a read (and expansion_oracle's
    derivative read, which its reference fit takes) must be within two
    units in the last place, including far out in w, where the members'
    coefficients span 100 binary orders."""

    POINTS = (0.3, 7, -18.6, 65, 206, -400)
    FIRST = {"q": 1, "p": 0, "lambert": 0}

    @staticmethod
    def _assert_ulps(got, ref, prec, ulps=2):
        if ref == 0:
            assert got == 0
        else:
            assert abs(got - ref) <= ulps * mp.ldexp(1, mp.mag(ref) - prec), (got, ref)

    @pytest.mark.parametrize("family", sorted(FIRST))
    @pytest.mark.parametrize("dps", [30, 42])
    def test_members_within_two_ulps(self, family, dps):
        for n in range(self.FIRST[family], 21):
            coeffs = dense(family, n)
            for w_raw in self.POINTS:
                with mp.workdps(dps):
                    prec = mp.prec
                    w = mp.mpf(w_raw)
                    got = member_value(family, n, w)
                    slope = member_value(family, n, w, slope=True)
                with mp.workdps(dps + 30):
                    ref = mp.zero
                    for c in reversed(coeffs):
                        ref = ref * w + mp.mpf(c.numerator) / c.denominator
                    ref_slope = mp.zero
                    for j in range(len(coeffs) - 1, 0, -1):
                        c = coeffs[j]
                        ref_slope = ref_slope * w + mp.mpf(j * c.numerator) / c.denominator
                    self._assert_ulps(got, ref, prec)
                    self._assert_ulps(slope, ref_slope, prec)

    def test_read_at_w_zero(self):
        # w = 3 ln 4t - c is exactly 0 when c is 3 ln 4t at the same
        # precision: the read is then the constant coefficient
        with mp.workdps(30):
            c = 3 * mp.log(4 * mp.mpf(100))
            model = AsymptoticModel.build(c, order=3, dps=30)
            assert 3 * mp.log(4 * mp.mpf(100)) - model.c == 0
            got = eval_A_n(model, 100)
        with mp.workdps(60):
            const = [mp.mpf(dense("q", k)[0].numerator) / dense("q", k)[0].denominator for k in (1, 2, 3)]
            ref = mp.mpf(400) ** 0.25 * (1 + sum(v / mp.mpf(100) ** k for k, v in enumerate(const, 1)))
            assert abs(got - ref) <= mp.mpf(10) ** -28 * ref

    def test_reads_build_the_memo_lazily(self):
        families.clear_caches()
        gen_q(20)
        assert families._STATE.fixed == {}
        model = AsymptoticModel.build(C_011, order=20, dps=30)
        eval_A_n(model, 1e4)
        with mp.workdps(30):
            F = mp.prec + 64
        assert set(families._STATE.fixed) == {("q", k, F) for k in range(1, 21)}


class TestEvalG:
    def test_order_zero_form(self, model):
        with mp.workdps(30):
            x = mp.mpf(50)
            expected = x - 3 * mp.log(x) + mp.mpf(model.c)
            assert abs(eval_G_asympt(model, x, 0) - expected) < mp.mpf("1e-27")

    def test_first_correction_uses_beta2(self, model):
        with mp.workdps(30):
            x = mp.mpf(50)
            b2 = gen_beta(2)[2]
            term = 4 * (4 / x) * mp.mpf(b2.numerator) / b2.denominator
            diff = eval_G_asympt(model, x, 1) - eval_G_asympt(model, x, 0)
            assert abs(diff + term) < mp.mpf("1e-27")

    def test_matches_quadrature_G(self):
        # the expansion with the computed constant must land on the
        # numerical antiderivative to the order of the neglected term
        prob, _ = g_problem_for_data(DATA)
        c = compute_c_for_data(DATA)
        m = AsymptoticModel.build(c, order=6, dps=30)
        with mp.workdps(30):
            gq = compute_G(mp.mpf(1000), prob)
            ga = eval_G_asympt(m, 1000, 6)
            assert abs(gq - ga) < mp.mpf("1e-10")

    def test_nonpositive_x_rejected(self, model):
        with pytest.raises(DomainError):
            eval_G_asympt(model, 0)


class TestFitC:
    def test_synthetic_roundtrip(self, model):
        # data manufactured from the order-5 profile; the fit at order 4
        # must recover the constant far below the spread tolerance
        m5 = AsymptoticModel.build(C_011, order=5, dps=40)
        syn = SyntheticTrajectory(lambda t: eval_A_n(m5, t), 50, 2e6, dps=40)
        c_fit = fit_c_from_trajectory(syn, n=4, t_fit=(1e4, 1e5, 1e6))
        with mp.workdps(40):
            assert abs(c_fit - mp.mpf(C_011)) < mp.mpf("1e-9")

    def test_matches_quadrature_constant(self, traj_default):
        c_quad = compute_c_for_data(DATA)
        c_fit = fit_c_from_trajectory(traj_default, n=4, t_fit=(1e4, 1e5, 1e6))
        with mp.workdps(30):
            assert abs(c_quad - c_fit) < mp.mpf("1e-10")

    def test_single_fit_time(self, traj_default):
        c = fit_c_from_trajectory(traj_default, n=4, t_fit=(1e5,))
        with mp.workdps(30):
            assert abs(c - mp.mpf(C_011)) < mp.mpf("1e-10")

    def test_low_order_at_early_times_trips_spread_gate(self):
        m5 = AsymptoticModel.build(C_011, order=5, dps=40)
        syn = SyntheticTrajectory(lambda t: eval_A_n(m5, t), 50, 2e6, dps=40)
        with pytest.raises(AccuracyError):
            fit_c_from_trajectory(syn, n=1, t_fit=(1e2, 1e3))

    def test_bad_arguments_rejected(self, traj_default):
        with pytest.raises(DomainError):
            fit_c_from_trajectory(traj_default, n=0, t_fit=(1e5,))
        with pytest.raises(DomainError):
            fit_c_from_trajectory(traj_default, n=4, t_fit=())

    VERIFY = SolverConfig(rel_tol=1e-22, abs_tol=1e-24)  # the CLI's verify tolerances

    @pytest.mark.parametrize("h0,h1", [(1, 1), (2, 0.5), (1, -0.5), (0.5, 2)])
    def test_secant_fit_agrees_with_the_newton_reference(self, h0, h1):
        # per fit time and per t_fit set, the secant steps on values alone
        # land within the stop tolerance of Newton on the exact c-derivative
        # (expansion_oracle.newton_fit), or both refuse at the same t: at
        # t = 10 for (0.5, 2), A_4(c; 10) - h(10) has no root in c, which
        # Newton finds out by its 64-step cap and the secant steps at once
        traj = integrate_h(InitialData(0, h0, h1), 1.2e6, self.VERIFY)
        refs = {}
        for t in (10, 100, 1000, 1e4, 1e5, 1e6):
            try:
                refs[t] = expansion_oracle.newton_fit(traj, 4, t)
            except ConvergenceError as err:
                assert str(err) == "c fit failed to settle at t = %s" % float(t)
                with pytest.raises(ConvergenceError, match=re.escape("no root of A_4(c; t) = h(t) at t = %s:" % float(t))):
                    fit_c_from_trajectory(traj, 4, (t,))
            else:
                self._assert_within_stop(fit_c_from_trajectory(traj, 4, (t,)), refs[t], traj.dps)
        assert sorted(set((10, 100, 1000, 1e4, 1e5, 1e6)) - set(refs)) == ([10] if h0 == 0.5 else [])
        for t_fit in ((1e4, 1e5, 1e6), (10, 100, 1000)):
            fits = sorted(refs.get(t, mp.inf) for t in t_fit)
            if fits[-1] - fits[0] <= asympt._SPREAD_TOL:
                self._assert_within_stop(fit_c_from_trajectory(traj, 4, t_fit), fits[1], traj.dps)
            else:
                with pytest.raises((AccuracyError, ConvergenceError)):
                    fit_c_from_trajectory(traj, 4, t_fit)

    @staticmethod
    def _assert_within_stop(got, ref, dps):
        with mp.workdps(dps):
            assert abs(got - ref) <= _floor(8) * max(1, abs(ref)), (got, ref)

    def test_no_root_is_refused_within_ten_sums(self, monkeypatch):
        # A_4(c; 10) peaks near c = -40 at about 0.6 below h(10) for
        # (0.5, 2): the second sum gives a chord that does not fall, and the
        # fit time is refused there, not after its 64-step cap (65 sums)
        traj = integrate_h(InitialData(0, 0.5, 2), 1.2e3, SolverConfig(rel_tol=1e-18, abs_tol=1e-20))
        calls, expansion_sum = [], asympt._expansion_sum

        def counted(*args, **kwargs):
            calls.append(args[0])
            return expansion_sum(*args, **kwargs)

        monkeypatch.setattr(asympt, "_expansion_sum", counted)
        with pytest.raises(ConvergenceError, match=re.escape("c fit found no root of A_4(c; t) = h(t) at t = 10.0")):
            fit_c_from_trajectory(traj, 4, (10, 100, 1000))
        assert 0 < len(calls) <= 10, len(calls)

    @pytest.mark.parametrize("h0,h1", [(1, 1), (2, 0.5)])
    def test_fit_takes_fewer_sums_than_newton(self, monkeypatch, h0, h1):
        # Newton took a value and a derivative sum per step: 22 sums for
        # either datum at the default fit times; the secant steps take 14
        traj = integrate_h(InitialData(0, h0, h1), 1.2e6, self.VERIFY)
        calls, expansion_sum = [], asympt._expansion_sum

        def counted(family, *args, **kwargs):
            calls.append(family)
            return expansion_sum(family, *args, **kwargs)

        monkeypatch.setattr(asympt, "_expansion_sum", counted)
        fit_c_from_trajectory(traj, n=4)
        assert calls and set(calls) == {"q"}
        assert len(calls) < 22


class TestRemainderStudy:
    def test_synthetic_remainder_is_next_polynomial(self):
        # with data equal to A_3, the order-2 remainder is exactly
        # |q_3(c; ln 4t)| / (ln t)^3
        m = AsymptoticModel.build(C_011, order=3, dps=45)
        syn = SyntheticTrajectory(lambda t: eval_A_n(m, t, 3), 50, 2e6, dps=45)
        rep = remainder_study(m, syn, 2, [1e3, 1e4])
        q3 = gen_q(3)[3]
        with mp.workdps(45):
            c = mp.mpf(m.c)
            for t_raw in (1e3, 1e4):
                t = mp.mpf(t_raw)
                predicted = abs(poly_eval(q3, c, mp.log(4 * t))) / mp.log(t) ** 3
                got = rep.remainders[(2, t_raw)]
                assert abs(got - predicted) / predicted < mp.mpf("1e-12")

    def test_real_trajectory_bounded(self, tight):
        m, traj = tight
        rep = remainder_study(m, traj, 2, [1e2, 1e3, 1e4])
        assert rep.ok
        for n in rep.n_values:
            assert rep.max_remainder(n) < 10
            assert rep.growth(n) < 10

    def test_gate_rejects_loose_trajectory(self, model, traj_default):
        # default tolerances cannot support n >= 1 remainders at t = 1e6
        with pytest.raises(AccuracyError):
            remainder_study(model, traj_default, 1, [1e2, 1e6])

    def test_growth_factor_controls_ok(self):
        m = AsymptoticModel.build(C_011, order=3, dps=40)
        syn = SyntheticTrajectory(lambda t: eval_A_n(m, t, 3), 50, 2e6, dps=40)
        rep = remainder_study(m, syn, 1, [1e2, 1e4], growth_factor=1e-9)
        assert not rep.ok
        assert rep.failures()

    @pytest.mark.parametrize("factor", [float("nan"), float("inf"), 0.0, -10.0])
    def test_growth_factor_must_be_finite_and_positive(self, factor):
        # a nan limit would pass every growth test (growth > nan is false)
        m = AsymptoticModel.build(C_011, order=3, dps=40)
        syn = SyntheticTrajectory(lambda t: eval_A_n(m, t, 3), 50, 2e6, dps=40)
        with pytest.raises(DomainError, match="growth factor"):
            remainder_study(m, syn, 1, [1e2, 1e4], growth_factor=factor)
        with pytest.raises(DomainError, match="growth factor"):
            lambert_compare(1, [10, 100], growth_factor=factor)

    def test_zero_remainder_growth_guards(self):
        rep = RemainderReport(
            n_values=(0,), t_values=(2.0, 3.0),
            h_values={}, a_values={},
            remainders={(0, 2.0): mp.zero, (0, 3.0): mp.zero},
        )
        assert rep.growth(0) == 0
        rep.remainders[(0, 3.0)] = mp.one
        assert rep.growth(0) == mp.inf

    def test_bad_grids_rejected(self, model, traj_default):
        with pytest.raises(DomainError):
            remainder_study(model, traj_default, 1, [])
        with pytest.raises(DomainError):
            remainder_study(model, traj_default, 1, [0.5, 1e3])
        with pytest.raises(DomainError):
            remainder_study(model, traj_default, -1, [1e3])

    @pytest.mark.parametrize("grid", [[1e3], [1e3, 1e3]])
    def test_one_point_grid_rejected(self, model, traj_default, grid):
        # a growth of last over first on one point is 1 by construction
        with pytest.raises(DomainError, match="two distinct points"):
            remainder_study(model, traj_default, 1, grid)

    def test_serialisation(self):
        m = AsymptoticModel.build(C_011, order=3, dps=40)
        syn = SyntheticTrajectory(lambda t: eval_A_n(m, t, 3), 50, 2e6, dps=40)
        rep = remainder_study(m, syn, 1, [1e2, 1e4])
        assert rep.ok
        csv = _report_csv(rep)
        lines = csv.strip().splitlines()
        assert lines[0] == "n,t,h_num,A_n,ratio"
        assert len(lines) == 1 + 2 * 2
        rows = rep.rows()
        assert [list(row) for row in rows] == [["n", "t", "h_num", "A_n", "ratio"]] * 4
        assert json.loads(json.dumps(rows)) == rows
        # deterministic
        assert _report_csv(rep) == csv
        assert rep.rows() == rows


class TestShiftInvariance:
    def test_zero_shift_is_exact(self, model):
        assert shift_invariance_check(model, 3, 0, [1e2, 1e4]) == 0

    @pytest.mark.parametrize("s", [1, 5])
    def test_shift_defect_is_next_order_small(self, model, s):
        w = shift_invariance_check(model, 3, s, [1e2, 1e4, 1e6])
        assert 0 < w < 10

    def test_bad_grid_rejected(self, model):
        with pytest.raises(DomainError):
            shift_invariance_check(model, 3, 1, [])

    @pytest.mark.parametrize("s", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_shift_rejected(self, model, s):
        # the nan defect would otherwise be lost in the running max
        with pytest.raises(DomainError, match="must be finite"):
            shift_invariance_check(model, 3, s, [1e2, 1e4])

    @pytest.mark.parametrize("s", [-200, -99])
    def test_shift_below_one_rejected(self, model, s):
        # ln 4(t + s) turns complex at t = 100 for s = -200; s = -99 takes
        # t = 100 to 1, outside the grid's own range t > 1
        with pytest.raises(DomainError, match="needs t \\+ s > 1"):
            shift_invariance_check(model, 3, s, [1e4, 1e2])


class TestLambertCompare:
    def test_residual_and_remainders(self):
        rep = lambert_compare(3, [10, 100, 1e3, 1e4, 1e5])
        assert rep.max_residual < mp.mpf("1e-12")
        for n in rep.n_values:
            assert rep.max_remainder(n) < 10
            assert rep.growth(n) < 10

    def test_order_zero_term_is_log(self):
        rep = lambert_compare(0, [100, 1e3])
        with mp.workdps(30):
            x = mp.mpf(100)
            assert abs(rep.a_values[(0, 100.0)] - (x + mp.log(x))) < mp.mpf("1e-25")

    def test_first_polynomial_is_plain_log(self):
        # ptilde_1(z) = z pins the normalisation of the whole family
        rep = lambert_compare(1, [100, 1e3])
        with mp.workdps(30):
            x = mp.mpf(100)
            expected = x + mp.log(x) + mp.log(x) / x
            assert abs(rep.a_values[(1, 100.0)] - expected) < mp.mpf("1e-25")

    def test_resolution_bounds_the_root_error(self):
        # soundness of the precision gate: the resolution it charges is at
        # least the actual root error against mpmath's W_{-1} at 60 digits
        cfg = SolverConfig()  # 30 digits
        for x_raw in (1.5, 10, 1e3, 1e6, 1e20):
            y = lambert_wm1_numeric(x_raw, cfg)
            bound = lambert_root_tol(x_raw, cfg) / (1 - 1 / y)
            with mp.workdps(60):
                x = mp.mpf(x_raw)
                ref = -mp.lambertw(-mp.exp(-x), -1)
                assert abs(y - ref) <= bound, x_raw

    @pytest.mark.parametrize("x, first_refused", [(1e2, 15), (1e4, 6), (1e6, 3)])
    def test_gate_boundary(self, x, first_refused):
        # at dps 30 the root is resolved to about 1e-25 x; the first order
        # whose scale (ln x / x)^(n+1) is below 100 times that is refused.
        # The grid's second point, sqrt(x), is refused at a higher order
        cfg = SolverConfig()  # 30 digits
        rep = lambert_compare(first_refused - 1, [x**0.5, x], cfg)
        assert rep.n_values[-1] == first_refused - 1
        with pytest.raises(AccuracyError, match="n = %d, x = %s" % (first_refused, x)):
            lambert_compare(first_refused, [x**0.5, x], cfg)

    def test_bad_inputs_rejected(self):
        with pytest.raises(DomainError):
            lambert_compare(-1, [10])
        with pytest.raises(DomainError):
            lambert_compare(2, [])
        with pytest.raises(DomainError):
            lambert_compare(2, [0.5, 10])

    def test_one_point_report_has_no_growth(self, monkeypatch):
        # a grid of one distinct point is refused before any root is
        # solved; a one-point report built by hand still refuses its growth
        # test, so it cannot pass vacuously
        def no_root(*args):
            raise AssertionError("root solved before the grid check")

        monkeypatch.setattr(asympt, "lambert_wm1_numeric", no_root)
        with pytest.raises(DomainError, match="two distinct points"):
            lambert_compare(1, [100, 100.0])
        rep = RemainderReport(
            n_values=(0, 1), t_values=(100.0,),
            h_values={100.0: mp.mpf(104)}, a_values={},
            remainders={(0, 100.0): mp.one, (1, 100.0): mp.one},
            columns=("x", "y_num", "Y_n"),
        )
        with pytest.raises(DomainError, match="two distinct points"):
            rep.growth(1)
        with pytest.raises(DomainError, match="two distinct points"):
            rep.ok

    def test_serialisation(self):
        rep = lambert_compare(1, [10, 100])
        csv = _report_csv(rep)
        lines = csv.strip().splitlines()
        assert lines[0] == "n,x,y_num,Y_n,ratio"
        assert len(lines) == 1 + 2 * 2
        rows = rep.rows()
        assert [list(row) for row in rows] == [["n", "x", "y_num", "Y_n", "ratio"]] * 4
        assert json.loads(json.dumps(rows)) == rows
        # deterministic
        assert _report_csv(rep) == csv
        assert rep.rows() == rows


class TestSyntheticTrajectory:
    def test_wraps_formula(self):
        syn = SyntheticTrajectory(lambda t: t * t, 1, 100, dps=30)
        with mp.workdps(30):
            assert syn.eval_h(7) == 49
        assert syn.err_bound(7) == 0
        assert syn.dps == 30

    def test_range_enforced(self):
        syn = SyntheticTrajectory(lambda t: t, 1, 100)
        with pytest.raises(DomainError):
            syn.eval_h(0.5)
        with pytest.raises(DomainError):
            syn.eval_h(101)
        with pytest.raises(DomainError):
            SyntheticTrajectory(lambda t: t, 5, 5)
