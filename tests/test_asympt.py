"""Tests for the expansion evaluators, constant fitting, and remainder
machinery.

The structural tests lean on synthetic trajectories (a model evaluated
one order above the study order), which make the expected remainder an
exact polynomial expression.  A few slower checks run against real
integrations at moderate tolerances.
"""

import json

import pytest
from mpmath import mp

from asymptode import (
    AccuracyError,
    AsymptoticModel,
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
    lambert_report_to_csv,
    lambert_report_to_json,
    remainder_report_to_csv,
    remainder_report_to_json,
    remainder_study,
    shift_invariance_check,
)
from asymptode.asympt import _a_slope_c, _a_value, _lambert_value
from asymptode.numerics import lambert_root_tol, lambert_wm1_numeric
from asymptode.series import poly_eval
from expansion_oracle import eval_G_asympt, eval_Ginv_asympt

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
                    value = _a_value(mp.mpf(c_raw), mp.mpf(t_raw), n)
                    slope = _a_slope_c(mp.mpf(c_raw), mp.mpf(t_raw), n)
                with mp.workdps(self.DPS + self.GUARD):
                    c, t = mp.mpf(c_raw), mp.mpf(t_raw)
                    z = mp.log(4 * t)
                    ref = (4 * t) ** (mp.mpf(1) / 4) * (
                        1 + mp.fsum(poly_eval(q[k], c, z) / t**k for k in range(1, n + 1))
                    )
                    h = mp.mpf(10) ** -12
                    central = (_a_value(c + h, t, n) - _a_value(c - h, t, n)) / (2 * h)
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
                got = _lambert_value(mp.mpf(x_raw), n)
            with mp.workdps(self.DPS + self.GUARD):
                x = mp.mpf(x_raw)
                z = mp.log(x)
                ref = x + mp.fsum(poly_eval(lam[k], 0, z) / x**k for k in range(n + 1))
                assert self._close(got, ref), x_raw


class TestEvalG:
    def test_order_zero_form(self, model):
        with mp.workdps(30):
            x = mp.mpf(50)
            expected = x - 3 * mp.log(x) + mp.mpf(model.c)
            assert abs(eval_G_asympt(model, x, 0) - expected) < mp.mpf("1e-27")

    def test_first_correction_uses_beta2(self, model):
        with mp.workdps(30):
            x = mp.mpf(50)
            b2 = gen_beta(2).values[2]
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

    def test_scalar_fit_time(self, traj_default):
        c = fit_c_from_trajectory(traj_default, n=4, t_fit=1e5)
        with mp.workdps(30):
            assert abs(c - mp.mpf(C_011)) < mp.mpf("1e-10")

    def test_low_order_at_early_times_trips_spread_gate(self):
        m5 = AsymptoticModel.build(C_011, order=5, dps=40)
        syn = SyntheticTrajectory(lambda t: eval_A_n(m5, t), 50, 2e6, dps=40)
        with pytest.raises(AccuracyError):
            fit_c_from_trajectory(syn, n=1, t_fit=(1e2, 1e3))

    def test_bad_arguments_rejected(self, traj_default):
        with pytest.raises(DomainError):
            fit_c_from_trajectory(traj_default, n=0, t_fit=1e5)
        with pytest.raises(DomainError):
            fit_c_from_trajectory(traj_default, n=4, t_fit=())


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

    def test_serialisation(self):
        m = AsymptoticModel.build(C_011, order=3, dps=40)
        syn = SyntheticTrajectory(lambda t: eval_A_n(m, t, 3), 50, 2e6, dps=40)
        rep = remainder_study(m, syn, 1, [1e2, 1e4])
        csv = remainder_report_to_csv(rep)
        lines = csv.strip().splitlines()
        assert lines[0] == "n,t,h_num,A_n,ratio"
        assert len(lines) == 1 + 2 * 2
        payload = json.loads(remainder_report_to_json(rep))
        assert payload["ok"] is True
        assert set(payload["rows"][0]) == {"n", "t", "h_num", "A_n", "ratio"}
        # deterministic
        assert remainder_report_to_csv(rep) == csv


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


class TestLambertCompare:
    def test_residual_and_remainders(self):
        rep = lambert_compare(3, [10, 100, 1e3, 1e4, 1e5])
        assert rep.max_residual < mp.mpf("1e-12")
        for n in rep.n_values:
            assert rep.max_remainder(n) < 10
            assert rep.growth(n) < 10

    def test_order_zero_term_is_log(self):
        rep = lambert_compare(0, [100])
        with mp.workdps(30):
            x = mp.mpf(100)
            assert abs(rep.a_values[(0, 100.0)] - (x + mp.log(x))) < mp.mpf("1e-25")

    def test_first_polynomial_is_plain_log(self):
        # ptilde_1(z) = z pins the normalisation of the whole family
        rep = lambert_compare(1, [100])
        with mp.workdps(30):
            x = mp.mpf(100)
            expected = x + mp.log(x) + mp.log(x) / x
            assert abs(rep.a_values[(1, 100.0)] - expected) < mp.mpf("1e-25")

    def test_resolution_bounds_the_root_error(self):
        # soundness of the precision gate: the resolution it charges is at
        # least the actual root error against mpmath's W_{-1} at 60 digits
        cfg = SolverConfig(dps=30)
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
        # whose scale (ln x / x)^(n+1) is below 100 times that is refused
        cfg = SolverConfig(dps=30)
        rep = lambert_compare(first_refused - 1, [x], cfg)
        assert rep.n_values[-1] == first_refused - 1
        with pytest.raises(AccuracyError, match="n = %d, x = %s" % (first_refused, x)):
            lambert_compare(first_refused, [x], cfg)

    def test_bad_inputs_rejected(self):
        with pytest.raises(DomainError):
            lambert_compare(-1, [10])
        with pytest.raises(DomainError):
            lambert_compare(2, [])
        with pytest.raises(DomainError):
            lambert_compare(2, [0.5, 10])

    def test_serialisation(self):
        rep = lambert_compare(1, [10, 100])
        csv = lambert_report_to_csv(rep)
        lines = csv.strip().splitlines()
        assert lines[0] == "n,x,y_num,Y_n,ratio"
        assert len(lines) == 1 + 2 * 2
        payload = json.loads(lambert_report_to_json(rep))
        assert set(payload) == {"max_residual", "growth", "rows"}


class TestSyntheticTrajectory:
    def test_wraps_formula(self):
        syn = SyntheticTrajectory(lambda t: t * t, 1, 100, dps=30)
        with mp.workdps(30):
            assert syn.eval_h(7) == 49
            assert abs(syn.eval_hprime(7) - 14) / 14 < mp.mpf("1e-6")
        assert syn.err_bound(7) == 0
        assert syn.stats["dps"] == 30 and syn.stats["steps"] == 0

    def test_samples_hit_endpoints(self):
        syn = SyntheticTrajectory(lambda t: t * t, 1, 100, dps=30)
        pts = syn.samples()
        assert len(pts) == 2
        assert pts[0][0] == 1 and pts[1][0] == 100
        assert pts[0][1] == 1 and pts[1][1] == 10000

    def test_range_enforced(self):
        syn = SyntheticTrajectory(lambda t: t, 1, 100)
        with pytest.raises(DomainError):
            syn.eval_h(0.5)
        with pytest.raises(DomainError):
            syn.eval_h(101)
        with pytest.raises(DomainError):
            SyntheticTrajectory(lambda t: t, 5, 5)
