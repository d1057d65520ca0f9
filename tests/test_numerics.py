"""Tests for the numerical layer: trajectories, g, G, c, the Lambert root.

Pinned reference values below were cross-validated by running two solver
configurations at different working precisions (30 and 46 digits) and
checking agreement well beyond the asserted tolerances.
"""

import dataclasses
import hashlib
import math
import random
import re

import pytest
from expansion_oracle import eval_G_asympt
from mpmath import mp

import newton_oracle
import taylor_oracle as oracle
from taylor_oracle import horner as _horner
from taylor_oracle import unscale as _unscale
from asymptode import asympt, numerics
from asymptode.asympt import (
    AsymptoticModel,
    eval_A_n,
    fit_c_from_trajectory,
    lambert_compare,
    remainder_study,
    shift_invariance_check,
)
from asymptode.errors import (
    AccuracyError,
    ConvergenceError,
    DomainError,
    IntegrationError,
)
from asymptode.families import gen_alpha, gen_beta
from asymptode.numerics import (
    _GUARD_BITS,
    _SERIES_ORDER,
    GProblem,
    InitialData,
    SolverConfig,
    Trajectory,
    _exp2,
    _g_system_coeffs,
    _h_system_coeffs,
    _log2,
    _step_at,
    _step_guess,
    _tail_estimate,
    _top_coeffs,
    compute_G,
    compute_c,
    compute_c_for_data,
    g_problem_for_data,
    integrate_h,
    invert_G,
    lambert_wm1_numeric,
    solve_g,
    trajectory_to_csv,
)

DATA = InitialData(0, 1, 1)
# h1 <= 0: direct steps to a switch past the direct span, then the switch
# problem; D1 and D2 (h1 > 0) are the reduction from t0 on their own
# problem.  At rel 1e-22 (1, -1) switches at t = 150.19 to a problem with
# no Taylor piece, (2, -0.5) at t = 141.22 to one with one piece
SWITCHED = InitialData(0, 1, -1)


def _guess(coeff_sets, eps_loc, order):
    """_step_guess on mpf coefficient lists, as an mpf."""
    tops = [[_log2(c._mpf_) for c in coeffs[-2:]] for coeffs in coeff_sets]
    return mp.make_mpf(_step_guess(tops, _log2(eps_loc._mpf_), order, 0))


def _estimate(mants, F, k, h):
    """_tail_estimate of the kernel mantissas at h, as an mpf, and the size
    of the log2 values it sums: the top coefficients' and their powers of
    h / rho, each a double with a rounding of 2^-53 of its size (0 when
    every top mantissa is zero, as at a rho far below the radius)."""
    tops, top, log_u = _top_coeffs(mants, F), len(mants) - 1, _log2(h._mpf_, k)
    size = max((abs(c) for c in tops if c > -math.inf), default=0) + top * abs(log_u)
    return mp.make_mpf(_exp2(_tail_estimate(tops, top, log_u))), size


def _assert_rel(got, ref, size=0):
    """got within 1e-12 of ref, relatively, widened by 2^-51 size for log2
    values of that size; equal when ref is 0 or infinite."""
    if ref == 0 or mp.isinf(ref):
        assert got == ref, (got, ref)
    else:
        assert abs(got - ref) <= (1e-12 + size * 2.0**-51) * abs(ref), (got, ref, size)


# reference solution, see module docstring
H_1E4 = "14.1465916111963430177"
C_011 = "-18.64441506041806"


@pytest.fixture(scope="module")
def traj():
    return integrate_h(DATA, 1e6)


@pytest.fixture(scope="module")
def problem():
    prob, t_base = g_problem_for_data(DATA)
    assert t_base == 0
    return prob


class TestSolverConfig:
    def test_dps_derived_from_tolerances(self):
        assert SolverConfig().effective_dps == 30
        assert SolverConfig(rel_tol=1e-18, abs_tol=1e-20).effective_dps == 38

    def test_fields_are_the_three_tolerances(self):
        # rel_tol and abs_tol are the settable values; fp_tol is a constant
        fields = [f.name for f in dataclasses.fields(SolverConfig)]
        assert fields == ["rel_tol", "abs_tol"]
        assert SolverConfig().fp_tol == SolverConfig.fp_tol == 1e-12

    def test_fp_tol_is_not_settable(self):
        with pytest.raises(TypeError):
            SolverConfig(fp_tol=1e-12)

    def test_taylor_order_tracks_dps(self):
        assert SolverConfig().taylor_order >= 24
        tight = SolverConfig(rel_tol=1e-26, abs_tol=1e-28)
        assert tight.taylor_order > SolverConfig().taylor_order
        # 1.2 dps + 8, at dps 30, 38, 42 and 50
        tols = [(1e-10, 1e-12), (1e-18, 1e-20), (1e-22, 1e-24), (1e-30, 1e-32)]
        assert [SolverConfig(rel_tol=r, abs_tol=a).taylor_order for r, a in tols] == [44, 53, 58, 68]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rel_tol": 0.0},
            {"abs_tol": -1e-3},
            {"rel_tol": float("nan")},
            {"abs_tol": float("inf")},
            {"rel_tol": float("inf")},
            {"abs_tol": float("nan")},
            {"abs_tol": 0.0},
            {"rel_tol": -1e-10},
            {"rel_tol": float("-inf")},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(DomainError):
            SolverConfig(**kwargs)

    def test_initial_data_needs_positive_h0(self):
        with pytest.raises(DomainError):
            InitialData(0, 0.0, 1)


class TestIntegrateH:
    def test_matches_reference_value(self, traj):
        with mp.workdps(40):
            assert abs(traj.eval_h(10**4) - mp.mpf(H_1E4)) < mp.mpf("1e-12")

    def test_growth_rate(self, traj):
        # h ~ (4t)^{1/4}, so the ratio should be within a fraction of a percent
        with mp.workdps(traj.stats["dps"]):
            for t in (1e4, 1e5, 1e6):
                ratio = traj.eval_h(t) / (4 * mp.mpf(t)) ** mp.mpf("0.25")
                assert mp.mpf("0.999") < ratio < mp.mpf("1.001")

    def test_slope_positive_at_large_times(self, traj):
        for t in (10, 100, 1e4, 1e6):
            assert traj.eval_hprime(t) > 0

    def test_dense_output_is_continuous_at_the_switch(self):
        traj = integrate_h(SWITCHED, 1e6)
        t_sw = traj.switch_time
        assert t_sw > 128
        with mp.workdps(traj.stats["dps"]):
            eps = mp.mpf("1e-12")
            below = traj.eval_h(t_sw - eps)
            above = traj.eval_h(t_sw + eps)
            assert abs(above - below) < mp.mpf("1e-9")

    def test_short_horizon_stays_direct(self):
        short = integrate_h(DATA, 50)
        assert short.g_problem is None
        assert short.n_steps >= 2

    def test_reduction_identity_against_independent_problem(self, traj):
        # h^3 h' = g(4/h^4) must hold with g solved from the raw data,
        # not from the trajectory's own switch point
        prob = solve_g(4, 1)
        with mp.workdps(traj.stats["dps"]):
            for t in (7, 50, 300):
                h = traj.eval_h(t)
                hp = traj.eval_hprime(t)
                lhs = h**3 * hp
                rhs = prob.eval_g(4 / h**4)
                assert abs(lhs - rhs) < mp.mpf("1e-8")

    def test_err_bound_is_positive_and_grows_into_the_tail(self, traj):
        e2 = traj.err_bound(100)
        e6 = traj.err_bound(1e6)
        assert e2 > 0
        assert e6 > e2

    @pytest.mark.parametrize(
        "h0,h1", [(1, 1), (2, 0.5), (0.5, 2), (3, 0.1), (0.8, 1), (3, 1), (0.5, 0.5), (1, -1)]
    )
    def test_err_bound_is_sound_against_a_tighter_reference(self, h0, h1):
        # the bound holds against a run 12 digits tighter from t0 into the
        # tail: for h1 > 0 the reduction from t0 on the data's own problem,
        # whose |ds/dG| is g at the read point (g0 = 27 for (3, 1)); for
        # (1, -1) the direct phase and both sides of its switch (t = 150.19).
        # The least bound/actual measured is 3.9e5 for h1 > 0 (0.8, 1 at
        # t = 0.25; 123 through the direct span, (3, 1) at t = 10) and 356
        # for (1, -1) (t = 10).
        # At t = 1e6 D1's and D2's bounds stay within the 2.27e-21 they
        # read through the 128-unit direct span, the headroom of verify's
        # gate at n = 3 (and its refusal at n = 4)
        data = InitialData(0, h0, h1)
        traj = integrate_h(data, 1e6, SolverConfig(rel_tol=1e-22, abs_tol=1e-24))
        ref = integrate_h(data, 1e6, SolverConfig(rel_tol=1e-34, abs_tol=1e-36))
        grid = (0, 0.25, 1, 3, 10, 30, 100, 127, 129, 140, 150, 151, 200, 1e3, 1e4, 1e5, 1e6)
        if h1 > 0:
            assert (traj.n_steps, traj.switch_time) == (0, 0) and traj.g_problem._steps
        else:
            assert grid[10] < traj.switch_time < grid[11]
        with mp.workdps(60):
            for t in grid:
                assert abs(traj.eval_h(t) - ref.eval_h(t)) <= traj.err_bound(t), t
            if (h0, h1) in ((1, 1), (2, 0.5)):
                assert traj.err_bound(1e6) <= mp.mpf("2.27e-21")

    @pytest.mark.parametrize("t0", [1e20, 1e25, -1e25, 3.5])
    @pytest.mark.parametrize("rel_tol,abs_tol", [(1e-22, 1e-24), (1e-10, 1e-12)])
    def test_large_t0_is_the_t0_0_trajectory_shifted(self, t0, rel_tol, abs_tol):
        # the equation is autonomous and the march runs in elapsed time, so
        # from any t0 (2, -0.5) gives the t0 = 0 values, bounds included,
        # bit for bit, on both sides of the switch (t0 + 141.2 at rel
        # 1e-22, t0 + 130.9 at rel 1e-10), at the verify and the integrate
        # tolerances.  Step times
        # formed as rounded sums t0 + s_1 + ... + s_j drift from the state
        # once t0 and the 53-bit steps need more bits together than the
        # precision has: at the integrate defaults (103 bits) from t0 = 1e20 on
        cfg = SolverConfig(rel_tol=rel_tol, abs_tol=abs_tol)
        ref = integrate_h(InitialData(0, 2, -0.5), 1.2e6, cfg)
        with mp.workdps(cfg.effective_dps):  # t0 + offset is exact here
            t_max = mp.mpf(t0) + mp.mpf(1.2e6)
            traj = integrate_h(InitialData(t0, 2, -0.5), t_max, cfg)
            assert traj.switch_time == t0 + ref.switch_time > t0 + 128
            for off in (0, 0.5, 3, 100, 128, 142, 200, 1e4, 1e6):
                t = mp.mpf(t0) + off
                got = (traj.eval_h(t), traj.eval_hprime(t), traj.err_bound(t))
                assert got == (ref.eval_h(off), ref.eval_hprime(off), ref.err_bound(off)), off

    def test_samples_read_the_g_march_forward(self):
        # D1 at rel 1e-22 to t = 129: past the direct span, short of its own
        # problem's split (t_S ~ 150).  The rows are the data at t0, the g
        # march's later step starts with t < 129, read forward with no
        # inversion, then the grid from the last of them to t_max.  Each
        # forward row is h^3 h' = g at z = 4/h^4 and agrees with the
        # inversion at its own t, within the bound there
        traj = integrate_h(DATA, 129, SolverConfig(rel_tol=1e-22, abs_tol=1e-24))
        prob, rows = traj.g_problem, traj.samples()
        forward = [row for row in rows if row[0] <= rows[19][0]]
        assert rows[0] == (0, 1, 1) and len(forward) == 20
        assert rows[-1][0] == 129 and all(t < 129 for t, _, _ in rows[:-1])
        assert [t for t, _, _ in rows] == sorted(t for t, _, _ in rows)
        with mp.workdps(traj.dps):
            for (t, h, hp), step in zip(forward[1:], prob._steps[1:]):
                assert abs(h**3 * hp - step.x0) <= mp.mpf(10) ** (5 - traj.dps), t
                assert abs(4 / h**4 - step.t_start) <= mp.mpf(10) ** (5 - traj.dps) * step.t_start, t
                assert abs(traj.eval_h(t) - h) <= traj.err_bound(t), t
            grid = [t for t, _, _ in rows[20:]]
            assert abs(grid[-1] - grid[-2] - (129 - rows[19][0]) / 2) <= mp.mpf(10) ** (5 - traj.dps) * 129

    def test_far_t0_reaches_the_switch(self):
        # at t0 = 1e300 a step does not move t0 + s: the march in elapsed
        # time still hands off after the direct span
        traj = integrate_h(InitialData(1e300, 1, 1), 1e301)
        assert traj.g_problem is not None and traj.n_steps < 100

    def test_rejects_time_outside_range(self, traj):
        with pytest.raises(DomainError):
            traj.eval_h(-1)
        with pytest.raises(DomainError):
            traj.eval_h(2e6)

    def test_rejects_degenerate_span(self):
        with pytest.raises(DomainError):
            integrate_h(DATA, 0.0)

    def test_deterministic_rerun(self, traj):
        again = integrate_h(DATA, 1e6)
        with mp.workdps(traj.stats["dps"]):
            for t in (3.5, 129.5, 1e5):
                assert mp.nstr(traj.eval_h(t), 25) == mp.nstr(
                    again.eval_h(t), 25
                )

    def test_samples_cover_both_endpoints(self, traj):
        pts = traj.samples()
        assert pts[0][0] == 0
        with mp.workdps(traj.stats["dps"]):
            assert abs(pts[-1][0] - mp.mpf(10) ** 6) < mp.mpf("1e-20")
        for _, h, _ in pts:
            assert h > 0


class TestRoute:
    """integrate_h's one route decision, which g_problem_for_data reads
    through it: the data's own g problem from t0 when h1 > 0 and the
    horizon passes the direct span, the direct march to the switch
    otherwise.  Each g problem is solved once."""

    CFG = SolverConfig(rel_tol=1e-22, abs_tol=1e-24)

    @staticmethod
    def _count_solves(monkeypatch):
        calls, solve = [], numerics.solve_g

        def counted(*args, **kwargs):
            calls.append(args[:2])
            return solve(*args, **kwargs)

        monkeypatch.setattr(numerics, "solve_g", counted)
        return calls

    def test_own_problem_from_t0(self, monkeypatch):
        calls = self._count_solves(monkeypatch)
        traj = integrate_h(InitialData(3.5, 2, 0.5), 3.5 + 1.2e6, self.CFG)
        prob, t_base = g_problem_for_data(InitialData(3.5, 2, 0.5), self.CFG)
        assert len(calls) == 2 and calls[0] == calls[1]
        assert (traj.n_steps, traj.switch_time, t_base) == (0, 3.5, 3.5)
        assert [s.t_start for s in traj.g_problem._steps] == [s.t_start for s in prob._steps]
        assert traj.eval_h(3.5) == prob.anchor ** numerics._QUARTER

    @pytest.mark.parametrize("h1,t_max", [(-1, 1e3), (0, 1e3), (1, 128)])
    def test_direct_route(self, monkeypatch, h1, t_max):
        # h1 <= 0 solves the switch problem once; a horizon within the span
        # solves none
        calls = self._count_solves(monkeypatch)
        traj = integrate_h(InitialData(0, 1, h1), t_max, self.CFG)
        assert traj.n_steps > 0
        assert len(calls) == (traj.g_problem is not None) == (h1 <= 0)

    def test_refused_own_problem_takes_the_switch(self, monkeypatch):
        # (1.5, 3)'s own problem is refused at rel 1e-10: the trajectory and
        # g_problem_for_data each try it once and then solve the switch
        # problem, the same one
        cfg = SolverConfig()
        calls = self._count_solves(monkeypatch)
        traj = integrate_h(InitialData(0, 1.5, 3), 1e6, cfg)
        prob, t_base = g_problem_for_data(InitialData(0, 1.5, 3), cfg)
        assert len(calls) == 4 and calls[0] == calls[2] and calls[1] == calls[3]
        assert traj.n_steps > 0 and t_base == traj.switch_time > 128
        assert prob.anchor == traj.g_problem.anchor

    def test_stalled_own_problem_takes_the_switch(self):
        # for h0 = 1e-70 the own g march starts at z0 = 4e280, where no step
        # moves z at the working precision: refused at its first step, not
        # after the 100,000-step budget, and the direct route resolves
        cfg = SolverConfig()
        with pytest.raises(IntegrationError, match="no longer moves t"):
            solve_g(4e280, 1e-210, cfg)
        traj = integrate_h(InitialData(0, 1e-70, 1), 1e3, cfg)
        assert traj.n_steps > 0 and traj.switch_time > 128

    @pytest.mark.parametrize("h1", [1, -1])
    def test_far_t0_problem(self, h1):
        # at t0 = 1e300 the horizon t0 + 2^18 rounds to t0: g_problem_for_data
        # marches to a few units of t0's last place instead, and its base
        # is t0 + tau_sw, which rounds to t0
        prob, t_base = g_problem_for_data(InitialData(1e300, 1, h1))
        near, t_near = g_problem_for_data(InitialData(0, 1, h1))
        assert t_base == 1e300 and (t_near == 0) == (h1 > 0)
        assert prob.anchor == near.anchor


class TestSolveG:
    def test_passes_through_the_data(self, problem):
        with mp.workdps(problem.dps):
            assert abs(problem.eval_g(4) - 1) < mp.mpf("1e-25")

    def test_positive_and_close_to_one_plus_3z4(self, problem):
        # g = 1 + (3/4) z + O(z^2) once the solution has collapsed onto the
        # profile; the solution through (4, 1) still sits visibly off it at
        # z ~ 0.1 (deviations decay like exp(-1/z)), so start below that
        with mp.workdps(problem.dps):
            for expo in range(2, 6):
                z = mp.mpf(10) ** (-expo)
                val = problem.eval_g(z)
                assert val > 0
                assert abs(val - 1 - 3 * z / 4) < 4 * z**2

    def test_ode_residual_by_finite_differences(self, problem):
        with mp.workdps(problem.dps):
            d = mp.mpf("1e-9")
            for z in (mp.mpf("0.5"), mp.mpf("0.05"), mp.mpf("2.0")):
                gp = (problem.eval_g(z + d) - problem.eval_g(z - d)) / (2 * d)
                g = problem.eval_g(z)
                res = z**2 * gp - (1 - 1 / g - 3 * z * g / 4)
                assert abs(res) < mp.mpf("1e-8")

    def test_handoff_is_seamless(self, problem):
        with mp.workdps(problem.dps):
            zc = problem.z_c
            below = problem.eval_g(zc * (1 - mp.mpf("1e-12")))
            above = problem.eval_g(zc * (1 + mp.mpf("1e-12")))
            assert abs(below - above) < mp.mpf("1e-10")

    def test_rejects_bad_data(self):
        with pytest.raises(DomainError):
            solve_g(0, 1)
        with pytest.raises(DomainError):
            solve_g(1, -2)

    def test_rejects_z_beyond_initial_point(self, problem):
        with pytest.raises(DomainError):
            problem.eval_g(5.0)
        with pytest.raises(DomainError):
            problem.eval_g(0.0)

    def test_series_region_data_must_match_profile(self):
        # below the crossover every solution has collapsed onto the series;
        # consistent data build a series-only problem, inconsistent data fail
        with mp.workdps(30):
            z0 = mp.mpf("1e-4")
            good = solve_g(z0, 1 + 3 * z0 / 4 + 15 * z0**2 / 8)
            assert good.ode_err == 0
            with pytest.raises(AccuracyError):
                solve_g(z0, 1.5)


class TestComputeG:
    def test_anchor_is_zero(self, problem):
        assert compute_G(problem.anchor, problem) == 0
        # (1, -1)'s switch problem at rel 1e-18 has no Taylor pieces: there
        # I(4/x) = J - T(x) for every x, and J = T(S) at S = h0^4
        cfg = SolverConfig(rel_tol=1e-18, abs_tol=1e-20)
        switched = integrate_h(SWITCHED, 1e3, cfg).g_problem
        assert not switched._steps
        assert switched.split == switched.anchor
        assert compute_G(switched.anchor, switched) == 0

    def test_monotone(self, problem):
        with mp.workdps(problem.dps):
            vals = [compute_G(x, problem) for x in (2, 5, 50, 1e4, 1e6)]
            for lo, hi in zip(vals, vals[1:]):
                assert hi > lo

    def test_time_map_identity(self, problem, traj):
        # G(h(t)^4) = 4t ties the two solvers together
        with mp.workdps(problem.dps):
            for t in (5, 40, 1000):
                h4 = traj.eval_h(t) ** 4
                assert abs(compute_G(h4, problem) - 4 * t) < mp.mpf("1e-7")

    def test_rejects_below_anchor(self, problem):
        with pytest.raises(DomainError):
            compute_G(0.5, problem)

    def test_series_tail_matches_termwise_integral(self, problem):
        # above S, G(x) = G(S) + int_S^x sum beta_k (4/s)^k ds, integrated
        # here term by term at 20 guard digits from the exact betas
        betas = gen_beta(_SERIES_ORDER)
        S = problem.split
        G_S = compute_G(S, problem)
        for factor in (1.5, 1e3, 1e6):
            with mp.workdps(problem.dps):
                x = S * factor
            got = compute_G(x, problem)
            with mp.workdps(problem.dps + 20):
                b = [mp.mpf(v.numerator) / v.denominator for v in betas]
                ref = G_S + (x - S) + 4 * b[1] * mp.log(x / S) + mp.fsum(
                    b[k] * mp.mpf(4) ** k * (S ** (1 - k) - x ** (1 - k)) / (k - 1)
                    for k in range(2, len(b))
                )
                assert abs(got - ref) <= mp.mpf(10) ** (5 - problem.dps) * ref, factor

    def test_inversion_roundtrip_and_sandwich(self, problem):
        with mp.workdps(problem.dps):
            for expo in (2, 4, 6):
                x = mp.mpf(10) ** expo
                y = invert_G(x, problem)
                assert abs(compute_G(y, problem) - x) < mp.mpf("1e-9")
                # 0 <= G^{-1}(x) - x <= x (x - G(x)) / (x - 4)
                gap = y - x
                assert gap >= 0
                bound = x * (x - compute_G(x, problem)) / (x - 4)
                assert gap <= bound

    def test_inversion_at_zero_returns_anchor(self, problem):
        assert invert_G(0, problem) == problem.anchor

    def test_inversion_rejects_negative(self, problem):
        with pytest.raises(DomainError):
            invert_G(-1, problem)

    def test_inversion_iteration_cap(self, problem, monkeypatch):
        monkeypatch.setattr(numerics, "_FP_MAX_ITER", 1)
        with pytest.raises(ConvergenceError):
            invert_G(100, problem)

    def test_lambert_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(numerics, "_FP_MAX_ITER", 1)
        with pytest.raises(ConvergenceError):
            lambert_wm1_numeric(1e5)

    @pytest.mark.parametrize("h0,h1", [(1, 1), (2, 0.5), (0.5, 2)])
    def test_beta_tail_within_one_ulp(self, h0, h1):
        # T(x) = sum_{k=2}^{24} w_k x^(1-k), w_k = beta_k 4^k / (k-1): the
        # exact weights, summed 30 digits above the problem's precision
        cfg = SolverConfig(rel_tol=1e-22, abs_tol=1e-24)
        prob, _ = g_problem_for_data(InitialData(0, h0, h1), cfg)
        betas = gen_beta(_SERIES_ORDER)
        for factor in (1, 1.5, 1e3, 1e6):
            with mp.workdps(prob.dps):
                x = prob.split * factor
                prec = mp.prec
                got = mp.make_mpf(prob._beta_tail(x._mpf_))
            with mp.workdps(prob.dps + 30):
                ref = mp.fsum(
                    mp.mpf(betas[k].numerator * 4**k) / (betas[k].denominator * (k - 1))
                    * x ** (1 - k)
                    for k in range(2, _SERIES_ORDER + 1)
                )
                assert abs(got - ref) <= mp.ldexp(1, mp.mag(ref) - prec), (factor, got, ref)

    @pytest.mark.parametrize("h0,h1", [(1, 1), (2, 0.5), (0.5, 2), (1000, -0.7)])
    def test_above_split_is_the_expansion(self, h0, h1):
        # above S, G is x - 3 ln x + c - 4 sum_k (beta_{k+1}/k) (4/x)^k to
        # the series order, at the problem's own c; (1000, -0.7) hands off
        # at a point below the crossover, so its problem has no Taylor steps
        cfg = SolverConfig(rel_tol=1e-22, abs_tol=1e-24)
        prob, _ = g_problem_for_data(InitialData(0, h0, h1), cfg)
        assert bool(prob._steps) == (h0 < 1000)
        model = AsymptoticModel.build(
            compute_c(prob), order=_SERIES_ORDER - 1, dps=prob.dps + 20
        )
        for factor in (1.5, 1e3, 1e6):
            with mp.workdps(prob.dps):
                x = prob.split * factor
            got = compute_G(x, prob)
            ref = eval_G_asympt(model, x)
            with mp.workdps(model.dps):
                assert abs(got - ref) <= mp.mpf(10) ** (5 - prob.dps) * abs(ref), factor


class TestComputeC:
    def test_reference_value(self, problem):
        with mp.workdps(problem.dps):
            assert abs(compute_c(problem) - mp.mpf(C_011)) < mp.mpf("1e-9")

    @pytest.mark.parametrize("h0,h1", [
        (1, 1), (2, 0.5), (0.5, 2), (0.8, 1), (1.2, 1.5),
        (0.5, 0.5), (3, 0.1), (1, -1), (0.7, 0.3), (1.5, 1),
        (1, 0), (1, -0.5), (1000, -0.7),
    ])
    def test_printed_c_is_sound_against_a_tighter_reference(self, h0, h1):
        # at the `constant` defaults, c is within rel_tol |c| + abs_tol of
        # the rel 1e-30 run: marched problems, and the step-free switch
        # problems of the h1 <= 0 and large-h0 data
        cfg = SolverConfig(rel_tol=1e-18, abs_tol=1e-20)
        data = InitialData(0, h0, h1)
        c = compute_c_for_data(data, cfg)
        ref = compute_c_for_data(data, SolverConfig(rel_tol=1e-30, abs_tol=1e-32))
        with mp.workdps(60):
            assert abs(c - ref) <= cfg.rel_tol * abs(c) + cfg.abs_tol, (c, ref)

    def test_base_point_invariance(self, traj):
        # the same solution described by its state at t = 5 must produce
        # the same constant
        with mp.workdps(traj.stats["dps"]):
            rebased = InitialData(
                5.0, float(traj.eval_h(5)), float(traj.eval_hprime(5))
            )
            c0 = compute_c_for_data(DATA)
            c5 = compute_c_for_data(rebased)
            assert abs(c0 - c5) < mp.mpf("1e-7")

    def test_negative_slope_data_rebases(self):
        data = InitialData(0, 1, -0.5)
        prob, t_base = g_problem_for_data(data)
        assert t_base > 0
        with mp.workdps(prob.dps):
            val = compute_c_for_data(data)
            assert mp.isfinite(val)

    def test_zero_slope_data_rebases(self):
        prob, t_base = g_problem_for_data(InitialData(0, 1, 0))
        assert t_base > 0
        assert prob.g0 > 0

    @pytest.mark.parametrize("rel_tol, abs_tol", [(1e-18, 1e-20), (1e-30, 1e-32), (1e-10, 1e-12)])
    def test_tail_gate(self, rel_tol, abs_tol):
        # the series' last term below z_c, 4 |beta_24| z^23 / 23, against
        # the gate 0.01 (abs_tol + rel_tol) + 10^(8 - dps): its root z* is
        # solved 20 digits finer from the exact beta_24, and a step-free
        # problem (z_c = z0) is refused just above z* and passes just below
        cfg = SolverConfig(rel_tol=rel_tol, abs_tol=abs_tol)
        top = _SERIES_ORDER
        b_top = gen_beta(top)[top]
        with mp.workdps(cfg.effective_dps + 20):
            gate = mp.mpf("0.01") * (mp.mpf(abs_tol) + mp.mpf(rel_tol)) + mp.mpf(10) ** (8 - cfg.effective_dps)
            weight = 4 * abs(mp.mpf(b_top.numerator) / b_top.denominator) / (top - 1)
            z_star = (gate / weight) ** (mp.one / (top - 1))
            below, above = z_star * (1 - mp.mpf("1e-6")), z_star * (1 + mp.mpf("1e-6"))
        assert mp.isfinite(compute_c(GProblem(below, 1, below, [], cfg, 0, 0, 0)))
        with pytest.raises(AccuracyError, match="series tail for c not converged"):
            compute_c(GProblem(above, 1, above, [], cfg, 0, 0, 0))


class TestQuadratureOracle:
    """G and c against adaptive quadrature over the dense g.

    The package accumulates both integrals inside the Taylor steps of g;
    here they are recomputed by mpmath's Gauss-Legendre quadrature, which
    shares only g itself with the package.
    """

    CFG = SolverConfig(rel_tol=1e-18, abs_tol=1e-20)

    @staticmethod
    def _quad(f, a, b):
        # break [a, b] geometrically: the integrands vary on the scale of z
        pts = [a]
        while pts[-1] * 2 < b:
            pts.append(pts[-1] * 2)
        return mp.quad(f, pts + [b], maxdegree=7)

    @pytest.mark.parametrize("h0,h1", [(1, 1), (2, 0.5), (0.5, 2)])
    def test_c_and_G_match_quadrature(self, h0, h1):
        prob, t_base = g_problem_for_data(InitialData(0, h0, h1), self.CFG)
        assert t_base == 0 and prob._steps
        tol = 100 * (self.CFG.abs_tol + self.CFG.rel_tol)
        with mp.workdps(prob.dps):
            z_c, anchor, S = prob.z_c, prob.anchor, prob.split

            def head_integrand(z):
                return (1 / prob.eval_g(z) - 1 + 3 * z / 4) * 4 / z**2

            head = self._quad(head_integrand, z_c, prob.z0)
            betas = [mp.mpf(b.numerator) / b.denominator for b in gen_beta(24)]
            tail = 4 * mp.fsum(
                betas[j + 1] * z_c**j / j for j in range(1, len(betas) - 1)
            )
            c_quad = head + tail - anchor + 3 * mp.log(anchor)
            assert abs(compute_c(prob) - c_quad) < tol

            def G_integrand(s):
                return 1 / prob.eval_g(4 / s)

            x_mid = (anchor + S) / 2
            G_mid = self._quad(G_integrand, anchor, x_mid)
            G_S = G_mid + self._quad(G_integrand, x_mid, S)
            assert abs(compute_G(x_mid, prob) - G_mid) < tol
            assert abs(compute_G(S, prob) - G_S) < tol


class TestTaylorKernels:
    """The fixed-point Taylor kernels against the mpf recurrences.

    Each kernel runs at 40 digits with the Taylor order of rel 1e-22, and
    also at 80 digits with the order of rel 1e-60; the reference
    (tests/taylor_oracle.py, one mpf fsum per convolution coefficient, by
    other recurrences than the kernels') runs 20 digits higher.  The
    kernels return int mantissas; the tests unscale them as dense output
    does.  Coefficient j of every series must agree to 2^-(prec-4) of the
    series' largest |coefficient rho^j|, with rho = 2^k the kernel's scale.

    The step-end cases evaluate the mantissas at u = h / rho by integer
    Horner and compare with mpf Horner on the reference coefficients, to
    2^-(prec-6) of the same scale (the coefficient errors summed over
    u <= 1/2, plus the one final rounding).  The truncation estimate from
    the three top coefficients, summed on doubles in the log2 domain, must
    agree to 1e-12 relative with the mpf estimate over the whole unscaled
    list, widened where its log2 values are large (_assert_rel: 2e-12 was
    seen at 6e4), and the step guess with the mpf guess.
    """

    DPS = 40
    ORDER = SolverConfig(rel_tol=1e-22, abs_tol=1e-24).taylor_order

    @staticmethod
    def _scale(ref, k):
        rho = mp.ldexp(1, k)
        return max(abs(b) * rho**j for j, b in enumerate(ref))

    @classmethod
    def _assert_close(cls, got, ref, k, prec):
        assert len(got) == len(ref)
        rho = mp.ldexp(1, k)
        tol = mp.ldexp(cls._scale(ref, k), 4 - prec)
        for j, (a, b) in enumerate(zip(got, ref)):
            assert abs(a - b) * rho**j <= tol, (j, a, b)

    @classmethod
    def _assert_step_end(cls, mants, head, ref, F, k, h, prec):
        """End value and truncation estimate of one series at offset h."""
        with mp.workdps(cls.DPS):
            got = oracle.fixed_eval(mants, h, F, k)
            est, size = _estimate(mants, F, k, h)
            est_ref = oracle.tail_estimate(_unscale(head, mants, F, k), h)
        _assert_rel(est, est_ref, size)
        with mp.workdps(cls.DPS + 20):
            tol = mp.ldexp(cls._scale(ref, k), 6 - prec)
            assert abs(got - _horner(ref, h)) <= tol, (h, got)

    @classmethod
    def _check_h_system(cls, x0, y0, dps, order, rel_tol, abs_tol):
        """_h_system_coeffs at dps digits against the oracle 20 digits
        higher, at the step that rel_tol and abs_tol allow."""
        with mp.workdps(dps + 20):
            x0, y0 = mp.mpf(x0), mp.mpf(y0)
            X_ref, Y_ref = oracle.h_system_coeffs(x0, y0, order)
            eps_loc = mp.mpf(abs_tol) + mp.mpf(rel_tol) * max(abs(x0), abs(y0))
            step = _guess((X_ref, Y_ref), eps_loc, order)
        # the integrator keeps rho at or above the step: test rho in
        # (step, 2 step], in (2 step, 4 step] and far above the step
        for k in (mp.mag(step), mp.mag(step) + 1, mp.mag(step) + 8):
            with mp.workdps(dps):
                prec = mp.prec
                X, Y, F = _h_system_coeffs(x0, y0, order, k)
                X_mpf = _unscale(x0, X, F, k)
                Y_mpf = _unscale(y0, Y, F, k)
            with mp.workdps(dps + 20):
                cls._assert_close(X_mpf, X_ref, k, prec)
                cls._assert_close(Y_mpf, Y_ref, k, prec)

    @pytest.mark.parametrize("x0", [1e-80, 1e-3, 0.05, 1, 30, 1e3])
    @pytest.mark.parametrize("y0", [-2.5, 0.7])
    def test_h_system(self, x0, y0):
        self._check_h_system(x0, y0, self.DPS, self.ORDER, 1e-22, 1e-24)

    @pytest.mark.parametrize("x0", [1e18, 1e42])
    def test_h_system_after_blow_up(self, x0):
        # from h0 = 1e-70 the slope jumps to 1e70 and h grows through 1e18
        # and 1e42: x^{-3} falls below 2^-F while the step is far longer
        # than x/x', so the scaled x^{-3} series grows with j and the whole
        # of it hangs on the precision of its leading term
        self._check_h_system(x0, 1e70, self.DPS, self.ORDER, 1e-22, 1e-24)

    @pytest.mark.parametrize("x0", [1e-3, 1, 1e3])
    @pytest.mark.parametrize("y0", [-2.5, 0.7])
    def test_h_system_high_order(self, x0, y0):
        # the power rule for x^{-3} floors and divides by m at every
        # coefficient, so its rounding builds up differently from the
        # oracle's three convolutions: check it at the order and precision
        # of rel 1e-60 (order 104, 80 digits) as well
        cfg = SolverConfig(rel_tol=1e-60, abs_tol=1e-62)
        assert (cfg.effective_dps, cfg.taylor_order) == (80, 104)
        self._check_h_system(
            x0, y0, cfg.effective_dps, cfg.taylor_order, cfg.rel_tol, cfg.abs_tol
        )

    def test_dot_product_counts(self, monkeypatch):
        # one call of each kernel at ORDER = P = 58: the g kernel squares g
        # by a symmetric sum (841 products, where the convolution
        # g (1/g) = 1 takes 1,711) and the h kernel takes one dot product
        # per coefficient (1,653, where dot products over X_i and over
        # i X_i take 3,306)
        count = [0]

        def counting(a, b):
            count[0] += 1
            return a * b

        monkeypatch.setattr(numerics, "mul", counting)
        P = self.ORDER
        with mp.workdps(self.DPS):
            _g_system_coeffs(mp.mpf(4), mp.mpf(1.05), mp.mpf("0.37"), P, 3)
            g_count, count[0] = count[0], 0
            _h_system_coeffs(mp.mpf(1), mp.mpf(0.7), P, 0)
        assert g_count <= (P + 2) ** 2 / 4, g_count
        assert count[0] <= P * (P - 1) / 2, count[0]

    @pytest.mark.parametrize("x0", [1e-80, 1e-3, 0.05, 1, 30, 1e3])
    @pytest.mark.parametrize("y0", [-2.5, 0.7])
    @pytest.mark.parametrize("u", [2.0**-12, 0.1, 0.5])
    def test_h_step_end(self, x0, y0, u):
        # rho as the integrator sets it, in (2 step, 4 step]
        with mp.workdps(self.DPS + 20):
            x0, y0 = mp.mpf(x0), mp.mpf(y0)
            X_ref, Y_ref = oracle.h_system_coeffs(x0, y0, self.ORDER)
            eps_loc = mp.mpf(1e-24) + mp.mpf(1e-22) * max(abs(x0), abs(y0))
            k = mp.mag(_guess((X_ref, Y_ref), eps_loc, self.ORDER)) + 1
        with mp.workdps(self.DPS):
            prec = mp.prec
            X, Y, F = _h_system_coeffs(x0, y0, self.ORDER, k)
            h = mp.ldexp(mp.mpf(u), k)
        self._assert_step_end(X, x0, X_ref, F, k, h, prec)
        self._assert_step_end(Y, y0, Y_ref, F, k, h, prec)

    def test_h_step_far_below_rho(self):
        # the first step runs at rho = 1 whatever its length: at h0 = 1e-80
        # the step is about 1e-160, far below the kernel's 2^-F, and h' goes
        # from 0.7 to about 1e80 over it
        with mp.workdps(self.DPS + 20):
            x0, y0 = mp.mpf(1e-80), mp.mpf(0.7)
            X_ref, Y_ref = oracle.h_system_coeffs(x0, y0, self.ORDER)
            eps_loc = mp.mpf(1e-24) + mp.mpf(1e-22) * max(abs(x0), abs(y0))
            h = _guess((X_ref, Y_ref), eps_loc, self.ORDER)
            _assert_rel(h, oracle.step_guess((X_ref, Y_ref), eps_loc, self.ORDER))
        with mp.workdps(self.DPS):
            prec = mp.prec
            h = +h
            X, Y, F = _h_system_coeffs(x0, y0, self.ORDER, 0)
            got = [oracle.fixed_eval(X, h, F, 0), oracle.fixed_eval(Y, h, F, 0)]
            ests = [_estimate(M, F, 0, h) for M in (X, Y)]
        with mp.workdps(self.DPS + 20):
            for val, ref in zip(got, (X_ref, Y_ref)):
                exact = _horner(ref, h)
                assert abs(val - exact) <= mp.ldexp(abs(exact), 2 - prec)
            assert got[1] > 1e70
            for (est, size), head, M in zip(ests, (x0, y0), (X, Y)):
                _assert_rel(est, oracle.tail_estimate(_unscale(head, M, F, 0), h), size)

    # g steps as fractions of z_s, from the shortest probed to the 0.45 cap
    G_STEPS = (2.0**-12, 0.1, 0.45)

    @classmethod
    def _g_ks(cls, z_s):
        """k as the march passes it for g: rho = 2^k in (2h, 4h] for the
        steps h of G_STEPS, and far above z_s, where the kernel caps rho
        at 2^mag(z_s), as on the first step."""
        return [mp.mag(f * z_s) + 1 for f in cls.G_STEPS] + [mp.mag(z_s) + 8]

    @staticmethod
    def _g_kernel(z_s, g_s, base, order, k):
        """_g_system_coeffs at the current precision; rho is the march's,
        capped at 2^mag(z_s)."""
        C, I, F, k_got = _g_system_coeffs(z_s, g_s, base, order, k)
        assert F >= mp.prec + _GUARD_BITS
        assert k_got == min(k, mp.mag(z_s)) <= mp.mag(z_s)
        return C, I, F, k_got

    @classmethod
    def _check_g_system(cls, z_s, g_s, dps, order):
        """_g_system_coeffs at dps digits against the oracle 20 digits
        higher, at each rho of _g_ks."""
        with mp.workdps(dps + 20):
            z_s, g_s, base = mp.mpf(z_s), mp.mpf(g_s), mp.mpf("0.37")
            C_ref, R_ref = oracle.g_equation_coeffs(z_s, g_s, order)
            I_ref = oracle.running_integral_coeffs(z_s, R_ref, base)
        for k in cls._g_ks(z_s):
            with mp.workdps(dps):
                prec = mp.prec
                C, I, F, k = cls._g_kernel(z_s, g_s, base, order, k)
                C_mpf = _unscale(g_s, C, F, k)
                I_mpf = _unscale(base, I, F, k)
            with mp.workdps(dps + 20):
                cls._assert_close(C_mpf, C_ref, k, prec)
                cls._assert_close(I_mpf, I_ref, k, prec)

    @pytest.mark.parametrize("z_s", [0.0099, 0.3, 4, 400])
    @pytest.mark.parametrize("g_s", [1e-70, 1e-3, 1.05, 1e3])
    def test_g_equation_and_running_integral(self, z_s, g_s):
        self._check_g_system(z_s, g_s, self.DPS, self.ORDER)

    @pytest.mark.parametrize("z_s", [0.0099, 4])
    @pytest.mark.parametrize("g_s", [1e-3, 1.05])
    def test_g_system_high_order(self, z_s, g_s):
        # the kernel squares g and divides by 2 c_0 at every coefficient,
        # where the oracle convolves g with 1/g, so their rounding builds
        # up differently: check it at the order and precision of rel 1e-60
        # (order 104, 80 digits) as well
        cfg = SolverConfig(rel_tol=1e-60, abs_tol=1e-62)
        assert (cfg.effective_dps, cfg.taylor_order) == (80, 104)
        self._check_g_system(z_s, g_s, cfg.effective_dps, cfg.taylor_order)

    @classmethod
    def _check_g_step_end(cls, z_s, g_s, u, capped):
        """The step end at offset -h, h = u z_s (g steps run downward), at
        rho as the march sets it, in (2h, 4h] up to the cap, or at the cap
        2^mag(z_s) itself when ``capped``, as on the first step."""
        with mp.workdps(cls.DPS + 20):
            z_s, g_s, base = mp.mpf(z_s), mp.mpf(g_s), mp.mpf("0.37")
            C_ref, R_ref = oracle.g_equation_coeffs(z_s, g_s, cls.ORDER)
            I_ref = oracle.running_integral_coeffs(z_s, R_ref, base)
        with mp.workdps(cls.DPS):
            prec = mp.prec
            h = -u * z_s
            k = mp.mag(z_s) if capped else mp.mag(h) + 1
            C, I, F, k = cls._g_kernel(z_s, g_s, base, cls.ORDER, k)
        cls._assert_step_end(C, g_s, C_ref, F, k, h, prec)
        cls._assert_step_end(I, base, I_ref, F, k, h, prec)

    @pytest.mark.parametrize("z_s", [0.0099, 0.3, 4, 400])
    @pytest.mark.parametrize("g_s", [1e-70, 1e-3, 1.05, 1e3])
    @pytest.mark.parametrize("u", G_STEPS)
    def test_g_step_end(self, z_s, g_s, u):
        self._check_g_step_end(z_s, g_s, u, capped=False)

    @pytest.mark.parametrize("z_s", [0.0099, 0.3, 4, 400])
    @pytest.mark.parametrize("g_s", [1e-70, 1e-3, 1.05, 1e3])
    @pytest.mark.parametrize("u", G_STEPS)
    def test_g_step_end_at_the_cap(self, z_s, g_s, u):
        self._check_g_step_end(z_s, g_s, u, capped=True)


class TestDenseReads:
    """Dense output and g's series against an mpf reference.

    Every read is one integer Horner on the stored mantissas, rounded once.
    The oracle unscales the same mantissas (taylor_oracle.unscale) and runs
    mpf Horner 20 digits higher, at the same offset; g's series is the mpf
    Horner on the exact alpha_k.  A read must be within one unit in the
    last place of the oracle, and at offset 0 it must be the step's head,
    bit for bit.  Offsets are {0, 2^-12, 1/2, 1} of each step's length.
    """

    CFG = SolverConfig(rel_tol=1e-22, abs_tol=1e-24)
    OFFSETS = (0, 2.0**-12, 0.5, 1)
    GUARD = 20

    @classmethod
    def _assert_read(cls, got, head, mants, F, k, u):
        if u == 0:
            assert got == head
            return
        prec = mp.prec
        with mp.workdps(mp.dps + cls.GUARD):
            ref = _horner(_unscale(head, mants, F, k), u)
            assert abs(got - ref) <= mp.ldexp(1, mp.mag(ref) - prec), (u, got, ref)

    @classmethod
    def _assert_steps(cls, steps, dps):
        with mp.workdps(dps):
            for step in steps:
                X, Y, F, k = step.mants
                for f in cls.OFFSETS:
                    t = step.t_start + f * step.length
                    u = t - step.t_start
                    cls._assert_read(mp.make_mpf(step.read(t._mpf_, 0)), step.x0, X, F, k, u)
                    cls._assert_read(mp.make_mpf(step.read(t._mpf_, 1)), step.y0, Y, F, k, u)

    @pytest.mark.parametrize(
        "h0,h1,t_max,cfg",
        [(1, 1, 1.2e6, CFG), (2, 0.5, 1.2e6, CFG), (1e-70, 1, 10, SolverConfig())],
    )
    def test_trajectory_steps(self, h0, h1, t_max, cfg):
        traj = integrate_h(InitialData(0, h0, h1), t_max, cfg)
        self._assert_steps(traj._steps, traj.stats["dps"])

    def test_head_below_the_fixed_point_scale(self):
        # near a turning point h' can sit far below 2^-F (F is set by h):
        # its mantissa is then truncated, and only the head itself is exact
        with mp.workdps(self.CFG.effective_dps):
            x0, y0 = mp.one, mp.mpf("1e-30")
            X, Y, F = _h_system_coeffs(x0, y0, self.CFG.taylor_order, 0)
            assert oracle.fixed_eval(Y, mp.zero, F, 0) != y0
            step = numerics._Step(mp.zero, mp.mpf("0.5"), x0, y0, mp.zero, (X, Y, F, 0))
            assert step.read(mp.zero._mpf_, 1) == y0._mpf_
            assert step.read(mp.zero._mpf_, 0) == x0._mpf_

    @pytest.mark.parametrize("h0,h1", [(1, 1), (2, 0.5)])
    def test_eval_g(self, h0, h1):
        problem, _ = g_problem_for_data(InitialData(0, h0, h1), self.CFG)
        assert problem._steps
        self._assert_steps(problem._steps, problem.dps)
        alphas = gen_alpha(_SERIES_ORDER)
        with mp.workdps(problem.dps):
            zs = [problem.z_c * f for f in self.OFFSETS[1:]]
            for step in problem._steps:
                zs += [step.t_start + f * step.length for f in self.OFFSETS]
            for z in zs:
                got = problem.eval_g(z)
                if z > problem.z_c:
                    step = _step_at(problem._steps, problem._keys, -z)
                    X, _, F, k = step.mants
                    self._assert_read(got, step.x0, X, F, k, z - step.t_start)
                    continue
                prec = mp.prec
                with mp.workdps(problem.dps + self.GUARD):
                    ref = _horner([mp.mpf(a.numerator) / a.denominator for a in alphas], z)
                    assert abs(got - ref) <= mp.ldexp(1, mp.mag(ref) - prec), (z, got, ref)


class TestShortOperands:
    """The short operands give the integers of the widened ones, bit for bit.

    Every read multiplies each Horner stage by the read point's own
    mantissa (numerics._read_point, read here through
    taylor_oracle.fixed_eval), and _g_system_coeffs forms (8j + 6) zeta
    Y_j from z_s's own; taylor_oracle keeps the forms that widen both to
    F-bit integers.  A
    read is compared at the caller's precision and at one that keeps the
    whole Horner accumulator, so that an accumulator one unit off at 2^-F
    shows; the kernel's integers are compared as they are.
    """

    DPS = 40
    ORDER = TestTaylorKernels.ORDER

    @staticmethod
    def _assert_same_read(mants, h, F, k, read=oracle.fixed_eval):
        assert read(mants, h, F, k) == oracle.fixed_eval_widened(mants, h, F, k)
        mag_u = max(0, mp.mag(h) - k) if h else 0
        with mp.workprec(max(abs(m).bit_length() for m in mants) + len(mants) * (mag_u + 1) + 64):
            got = read(mants, h, F, k)
            assert got == oracle.fixed_eval_widened(mants, h, F, k), (h, F, k)

    @pytest.mark.parametrize("x0,y0", [(1, 0.7), (1e-3, -2.5), (30, 0.7)])
    @pytest.mark.parametrize("k", [-3, 0, 4])
    def test_step_reads(self, x0, y0, k):
        # h = 0, 53-bit step guesses, full-precision lengths (an end clamp
        # or a dense-output offset) and steps 2^-40 rho, of both signs
        with mp.workdps(self.DPS):
            X, Y, F = _h_system_coeffs(mp.mpf(x0), mp.mpf(y0), self.ORDER, k)
            rho, third = mp.ldexp(1, k), mp.one / 3
            points = [mp.zero] + [mp.ldexp(mp.mpf(u), k) for u in (0.8 * 2**-1.3, 0.3, 0.77 * 2**-40)]
            points += [third * rho, mp.pi / 4 * rho, mp.ldexp(third, k - 40), mp.ldexp(third, k - 1)]
            for h in points:
                for M in (X, Y):
                    self._assert_same_read(M, h, F, k)
                    self._assert_same_read(M, -h, F, k)

    def test_integral_reads(self):
        # u an integer, as at k = 0 reads of a family at u >= 1 or a kernel
        # read far beyond rho: U is u itself (man shifted left) and E = 0
        with mp.workdps(self.DPS):
            A, F = numerics._fixed_member("alpha", _SERIES_ORDER)
            for u in (1, 2, 12, -3, 2**40 + 1):
                self._assert_same_read(A, mp.mpf(u), F, 0)
            X, Y, F = _h_system_coeffs(mp.one, mp.mpf(0.7), self.ORDER, -3)
            for h in (mp.mpf(0.5), mp.mpf(-0.75), mp.mpf(6)):
                self._assert_same_read(X, h, F, -3)
                self._assert_same_read(Y, h, F, -3)

    def test_beta_tail_reads(self, problem):
        # _beta_tail's u = 1/x at F bits: the longest read point that is
        # still exact, bc = F
        T, F = problem._tail
        with mp.workdps(problem.dps):
            for x in (problem.split, mp.mpf(1000), mp.mpf(1e12) / 7):
                u = mp.make_mpf(numerics.mpf_rdiv_int(1, x._mpf_, F, numerics.round_nearest))
                assert u._mpf_[3] <= F
                self._assert_same_read(T, u, F, 0)

    def test_reads_of_a_pipeline(self, monkeypatch):
        # every read of a trajectory past its switch, its CSV samples, the
        # G inversions behind them, A_4, a remainder study at its dps + 5,
        # a Lambert check and dense reads of a G problem with Taylor pieces,
        # below its split: step ends, dense output, g's series, the beta
        # tail and the expansion families.  Every read point has at most F
        # bits, and the one Horner loop is checked at the point (h, k) that
        # its (U, E) was split from
        reads, points = [0], {}
        split, horner = numerics._read_point, numerics._fixed_horner

        def recorded(h, k):
            point = split(h, k)
            points[point] = (h, k)
            return point

        def checked(mants, U, E, F):
            reads[0] += 1
            h, k = points[(U, E)]
            assert h[3] <= F, (h, F)
            self._assert_same_read(mants, mp.make_mpf(h), F, k, lambda *_: mp.make_mpf(horner(mants, U, E, F)))
            return horner(mants, U, E, F)

        for module in (numerics, asympt):
            monkeypatch.setattr(module, "_read_point", recorded)
            monkeypatch.setattr(module, "_fixed_horner", checked)
        traj = integrate_h(DATA, 1e4)
        trajectory_to_csv(traj)
        model = AsymptoticModel.build(C_011, 4)
        eval_A_n(model, 1e4)
        remainder_study(model, traj, 1, [1e3, 1e4])
        lambert_compare(3, [10, 100])
        assert traj.g_problem is not None and reads[0] >= 100, reads[0]
        before = reads[0]
        problem, _ = g_problem_for_data(InitialData(0, 0.5, 2), SolverConfig(rel_tol=1e-22, abs_tol=1e-24))
        assert problem._steps and problem.split > problem.anchor
        with mp.workdps(problem.dps):
            for f in (0, 0.25, 0.5, 1):
                x = problem.anchor + f * (problem.split - problem.anchor)
                compute_G(x, problem)
                problem.eval_g(4 / x)
        assert reads[0] - before >= 8, reads[0] - before

    @pytest.mark.parametrize("z_s", [1e-70, 0.0099, 0.3, 4, 400])
    @pytest.mark.parametrize("g_s", [1e-70, 1e-3, 1.05, 1e3])
    def test_g_kernel(self, z_s, g_s):
        # the cases of TestTaylorKernels' g kernel checks, with z_s = 1e-70
        # and rho far below, at and above the cap 2^mag(z_s)
        with mp.workdps(self.DPS):
            z_s, g_s, base = mp.mpf(z_s), mp.mpf(g_s), mp.mpf("0.37")
            for k in TestTaylorKernels._g_ks(z_s) + [mp.mag(z_s) - 60]:
                got = _g_system_coeffs(z_s, g_s, base, self.ORDER, k)
                assert got == oracle.g_system_coeffs_zeta(z_s, g_s, base, self.ORDER, k), k

    def test_g_kernel_of_the_constant_workload(self, monkeypatch):
        # every kernel call of the ten `constant` data at the CLI defaults,
        # first steps at 2^mag(z0) included
        calls = [0]

        def checked(*args):
            calls[0] += 1
            got = kernel(*args)
            assert got == oracle.g_system_coeffs_zeta(*args), args[:2]
            return got

        kernel = numerics._g_system_coeffs
        monkeypatch.setattr(numerics, "_g_system_coeffs", checked)
        cfg = SolverConfig(rel_tol=1e-18, abs_tol=1e-20)
        for h0, h1 in TestGKernelScale.CONSTANT_DATA:
            g_problem_for_data(InitialData(0, h0, h1), cfg)
        assert calls[0] == 179


class TestStepSequences:
    """Step and rejection counts at the verify tolerances.

    The Taylor kernels change only the last bits of the coefficients, so a
    kernel change that moves step control shows here as a count.
    """

    CFG = SolverConfig(rel_tol=1e-22, abs_tol=1e-24)

    @pytest.mark.parametrize(
        "h0,h1,steps,g_steps", [(1, -1, 23, 0), (2, -0.5, 16, 1), (1, 1, 0, 21), (2, 0.5, 0, 14)]
    )
    def test_integrate_h(self, h0, h1, steps, g_steps):
        # h1 <= 0: direct steps, then the switch problem's g steps; D1 and
        # D2: no direct step, their own problem's g steps (test_solve_g)
        traj = integrate_h(InitialData(0, h0, h1), 1.2e6, self.CFG)
        assert (traj.n_steps, traj.n_rejected) == (steps, 0)
        assert traj.stats["g_steps"] == g_steps

    @pytest.mark.parametrize(
        "h0,h1,g_steps", [(1, 1, 21), (2, 0.5, 14), (0.5, 2, 35)]
    )
    def test_solve_g(self, h0, h1, g_steps):
        prob, t_base = g_problem_for_data(InitialData(0, h0, h1), self.CFG)
        assert t_base == 0
        assert (len(prob._steps), prob.n_rejected) == (g_steps, 0)

    def test_rejection_is_counted(self):
        # the one datum of about 70 data x tolerances probed whose step
        # control halves a trial step: h'' ~ 1e6 at the start
        traj = integrate_h(InitialData(0, 100, -1e6), 1e3)
        assert (traj.n_steps, traj.n_rejected) == (77, 1)

    # SHA-256 of the _mpf_ tuples (t_start, length, err_cum) of the steps:
    # step sizes and the summed estimates cannot move silently.  The h
    # digest covers the 23 + 16 direct steps of (1, -1) and (2, -0.5), the
    # g digest (2, -0.5)'s one switch g step and the 21, 14 and 35 of the
    # D1, D2 and (0.5, 2) problems, which D1's and D2's trajectories carry.
    # Both were re-pointed to these steps when D1 and D2 became the
    # reduction from t0, with digests recorded from the revision before,
    # where the same steps were D1's and D2's direct phase and own
    # problems.  Before that they covered the 19 + 15 direct steps of D1
    # and D2, and D2's one switch g step with (0.5, 2)'s 35.  Both were
    # re-recorded when the step control moved from mpf roots and sums to
    # doubles in the log2 domain: every step length moved in its last
    # double bits (the guess is 0.8 2^v for a double v, an exact dyadic),
    # with the same counts, and TestMpfControl checks the moved steps
    # against the mpf control.  A kernel change that keeps rho computes the
    # same integers and keeps both; one that moves rho moves the truncated
    # last bits of the coefficients.  The g digest was re-recorded when the
    # g kernel moved from rho = 2^mag(z_s) to the march's rho: the 35
    # steps of (0.5, 2) moved by at most 9e-15 relative and their err_cum
    # by at most 4e-15, with the same counts (TestGKernelScale checks the
    # two rules against each other); D2's one g step, at the first step's
    # rho = 2^mag(z0), did not move
    H_STEP_DIGEST = "de3c3cc9b0f444a155e44dc0b202e68d53fea74f561cf02d8c0bacbdf4fcf966"
    G_STEP_DIGEST = "e9b2200d70ff9b69efc2ea7d3d8f0c4546d1cd00c3d7ec6f50766bb0812aeefd"

    @pytest.fixture(scope="class")
    def digest_steps(self):
        h_steps, g_steps = [], []
        for h0, h1 in ((1, -1), (2, -0.5), (1, 1), (2, 0.5)):
            traj = integrate_h(InitialData(0, h0, h1), 1.2e6, self.CFG)
            assert traj.n_rejected == traj.g_problem.n_rejected == 0
            h_steps.append(traj._steps)
            g_steps.append(traj.g_problem._steps)
        prob, _ = g_problem_for_data(InitialData(0, 0.5, 2), self.CFG)
        assert prob.n_rejected == 0
        g_steps.append(prob._steps)
        assert [len(s) for s in h_steps] == [23, 16, 0, 0]
        assert [len(s) for s in g_steps] == [0, 1, 21, 14, 35]
        return sum(h_steps, []), sum(g_steps, [])

    @staticmethod
    def _digest(steps):
        keys = [(s.t_start._mpf_, s.length._mpf_, s.err_cum._mpf_) for s in steps]
        return hashlib.sha256(repr(keys).encode()).hexdigest()

    def test_step_digest(self, digest_steps):
        assert self._digest(digest_steps[0]) == self.H_STEP_DIGEST

    def test_g_step_digest(self, digest_steps):
        assert self._digest(digest_steps[1]) == self.G_STEP_DIGEST

    def test_compute_G_calls_per_inversion(self, monkeypatch):
        # Newton on G takes 3.2 evaluations of G per inversion here, from
        # the leading-order inverse x + 3 ln(x + h0^4) - c (4.2 from y = x,
        # and 5.2 when the bracket's upper end was checked before the first
        # iterate); the fixed-point iteration y <- x + y - G(y) took 9.2.
        # invert_G reads G and g through their raw cores, GProblem._G and
        # GProblem._g, counted on the class once the trajectories are built
        # (solve_g reads _g at z_c): each slope follows a residual that did
        # not stop the iteration
        calls = {"_G": 0, "invert_G": 0, "_g": 0}

        def counted(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        trajs = [integrate_h(InitialData(0, h0, h1), 1.2e6, self.CFG) for h0, h1 in ((1, 1), (2, 0.5))]
        counted(numerics, "invert_G")
        counted(GProblem, "_G")
        counted(GProblem, "_g")
        for traj in trajs:
            for t in (1e2, 1e3, 1e4, 1e5, 1e6):
                traj.eval_h(t)
        assert calls["invert_G"] >= 8
        assert calls["_G"] <= 4 * calls["invert_G"]
        assert 0 < calls["_g"] <= calls["_G"]


class TestDeferredBracket:
    """_newton checks the upper end of its bracket only when an iterate
    reaches it or a bisection needs it.  The roots of invert_G and
    lambert_wm1_numeric equal, bit for bit, those of the eager bracket of
    newton_oracle: G on D1, D2 and (0.5, 2), whose G has Taylor pieces,
    and the large-g0 datum (3, 1), at the precision floor 10^(9 - dps)/2
    (5e-34 at dps 42 here), for x from 1e-3 to 5e6; the Lambert
    root from just above the branch point to 1e300.  Some of the G paths
    double the candidate end and some bisect.  invert_G reads G and g
    through the raw cores and the oracle through compute_G and eval_g, so
    the same roots also show that the cores give the wrappers' bits on the
    inversions that trajectories send: past the switch of (1, -1) (no
    Taylor piece), of (2, -0.5) (one piece) and of (1000, -0.7), where
    Newton stops on an iterate that no longer moves, and from t0 on D1's
    and D2's own problems."""

    CFG = SolverConfig(rel_tol=1e-22, abs_tol=1e-24)
    XS = (1e-3, 0.1, 1, 3, 50, 1e3, 4e4, 1e6, 5e6)

    def test_inversion_roots_equal_the_eager_bracket(self):
        paths = {"doublings": 0, "bisections": 0}
        for h0, h1 in ((1, 1), (2, 0.5), (0.5, 2), (3, 1)):
            prob, _ = g_problem_for_data(InitialData(0, h0, h1), self.CFG)
            for x in self.XS:
                ref, path = newton_oracle.invert_G(x, prob)
                assert invert_G(x, prob) == ref, (h0, h1, x)
                for key in paths:
                    paths[key] += path[key]
        assert paths["doublings"] and paths["bisections"], paths

    @staticmethod
    def _switch_inversions(data, t_max, cfg):
        """(problem, xs): a trajectory's g problem and the arguments
        4 (t - t_sw) of its CSV samples past the switch: the g march's
        points up to S, then the grid that the CSV inverts."""
        traj = integrate_h(data, t_max, cfg)
        with mp.workdps(traj.dps):
            t_sw = traj.switch_time
            xs = [4 * (t - t_sw) for t, _, _ in traj.samples() if t > t_sw]
        return traj.g_problem, xs

    def test_switch_problem_roots_equal_the_eager_bracket(self):
        # (1, -1)'s switch problem has no Taylor piece and (2, -0.5)'s one;
        # D1 and D2 are the reduction from t0 on their own problems, of 21
        # and 14 pieces.  x = 2.2 lands below the split S of a problem with
        # pieces, where G is dense output, as do the offsets of the g
        # march's points after the first (the switch) and S itself; the 21
        # grid offsets to 1.2e6 land above it.  x = 0 is h0^4 itself, by
        # invert_G's entry check before any Newton step (the oracle's
        # Newton starts from max(h0^4 - J, h0^4) and may stop a unit away),
        # so x = 1e-20 stands for the inversions next to it.  A slope read
        # as 1 - 3/y - T'(y) in place of g's alpha series moves only the
        # step before the last, and so the root rarely: before D1 and D2
        # took the reduction from t0, one CSV offset past (0.5, 2)'s switch
        cases = (((1, -1), 0, 21), ((2, -0.5), 1, 1 + 21), ((1, 1), 21, 21 + 21), ((2, 0.5), 14, 14 + 21))
        for (h0, h1), pieces, n_xs in cases:
            prob, xs = self._switch_inversions(InitialData(0, h0, h1), 1.2e6, self.CFG)
            assert (len(prob._steps), len(xs)) == (pieces, n_xs)
            assert invert_G(0, prob) == prob.anchor
            for x in [1e-20, 2.2] + xs:
                ref, _ = newton_oracle.invert_G(x, prob)
                assert invert_G(x, prob) == ref, (h0, h1, x)
            with mp.workdps(prob.dps):
                assert (invert_G(2.2, prob) < prob.split) == bool(pieces)

    def test_stalled_inversions_equal_the_eager_bracket(self):
        # (1000, -0.7) at rel 1e-18: h0^4 = 1e12, where the Newton stop lies
        # below G's rounding floor and the iteration ends on y_next == y
        cfg = SolverConfig(rel_tol=1e-18, abs_tol=1e-20)
        prob, xs = self._switch_inversions(InitialData(0, 1000, -0.7), 1e4, cfg)
        stalls = 0
        for x in [3, 7.9, *self.XS] + xs:
            ref, path = newton_oracle.invert_G(x, prob)
            assert invert_G(x, prob) == ref, x
            stalls += path["stalls"]
        assert stalls, stalls

    @pytest.mark.parametrize("rel_tol", [1e-10, 1e-30])
    def test_lambert_roots_equal_the_eager_bracket(self, rel_tol):
        cfg = SolverConfig(rel_tol=rel_tol, abs_tol=rel_tol / 100)
        for x in (1 + 1e-6, 1.0001, 1.5, 2, 10, 1e5, 5e6, 1e300):
            ref, _ = newton_oracle.lambert_wm1(x, cfg)
            assert lambert_wm1_numeric(x, cfg) == ref, x


class TestStepGuess:
    """_step_guess, on doubles in the log2 domain, against the mpf guess of
    taylor_oracle, at the precision and order of rel 1e-12, 1e-20 and
    1e-62: within 1e-12 relative over separated candidates, exact ties,
    near ties (1e-12 relative), zero coefficients, coefficients whose
    binary exponents lie beyond the double range, and guesses that do;
    infinite when every coefficient is zero."""

    CONFIGS = [(30, 44), (38, 53), (80, 104)]

    @staticmethod
    def _cases(order):
        """(name, coeff_sets, eps_loc) at the working precision."""
        rng = random.Random(order)

        def coeff(lo=-60, hi=10, base=10):
            return mp.mpf(rng.uniform(-1, 1)) * mp.mpf(base) ** rng.randint(lo, hi)

        def eps():
            return mp.mpf(rng.uniform(1, 10)) * mp.mpf(10) ** -rng.randint(10, 60)

        zero, tiny = mp.zero, mp.mpf(10) ** -200
        near = 1 + mp.mpf("1e-12")
        cases = []
        for _ in range(25):
            X, Y = [coeff() for _ in range(3)], [coeff() for _ in range(3)]
            e = eps()
            cases.append(("separated", [X], e))
            cases.append(("separated", [X, Y], e))
            cases.append(("exact tie", [X, list(X)], e))
            cases.append(("exact tie", [X, [-c for c in X]], e))
            for f in (near, 1 / near):
                # the top coefficient of Y 1e-12 from that of X, both
                # binding: the other two candidates are far larger
                Xb = [X[0], X[1] * tiny, X[2]]
                Yb = [Y[0], Y[1] * tiny, X[2] * f]
                cases.append(("near tie", [Xb, Yb], e))
                cases.append(("near tie", [Yb, Xb], e))
            cases.append(("one zero", [[X[0], X[1], zero]], e))
            cases.append(("one zero", [[X[0], zero, X[2]], Y], e))
            # binary exponents from 1100 to 5000 either way: beyond the
            # double range, a double product or quotient would overflow
            sign = rng.choice((-1, 1))
            cases.append(("beyond doubles", [[sign * coeff(1100, 5000, 2) ** sign for _ in range(3)]], e))
            # and so far beyond it that the guess itself lies past 2^-1100
            lo = 1100 * order + 100
            cases.append(("guess beyond doubles", [[coeff(lo, 2 * lo, 2) for _ in range(3)]], e))
        cases.append(("all zero", [[zero] * 3], eps()))
        cases.append(("all zero", [[zero] * 3, [coeff(), zero, zero]], eps()))
        return cases

    @pytest.mark.parametrize("dps,order", CONFIGS)
    def test_equals_the_mpf_guess(self, dps, order):
        kinds = set()
        with mp.workdps(dps):
            for kind, sets, eps_loc in self._cases(order):
                got = _guess(sets, eps_loc, order)
                ref = oracle.step_guess(sets, eps_loc, order)
                _assert_rel(got, ref)
                if kind == "all zero":
                    assert got == mp.inf
                else:
                    assert 0 < got < mp.inf, kind
                if kind == "guess beyond doubles":
                    assert mp.mag(got) < -1100, got
                kinds.add(kind)
        assert len(kinds) == 7


class TestMpfControl:
    """The marcher with the step control of taylor_oracle patched in: mpf
    scaled coefficients, the mpf root of step_guess, the mpf estimate of
    tail_estimate, compared and summed in mpf; the log2 helpers pass mpfs
    through.  On the trajectories of (1, -1), (2, -0.5), D1 and D2 (rel
    1e-22, to 1.2e6: direct steps and switch problems, and D1's and D2's
    own problems) and the (0.5, 2) g problem, the shipped control on
    doubles takes the same steps and
    rejections, its step ends agree to 1e-15 relative, and c to 20
    digits."""

    CFG = SolverConfig(rel_tol=1e-22, abs_tol=1e-24)

    @staticmethod
    def _mpf_control(monkeypatch):
        def top_coeffs(mants, F):
            # tail_estimate reads the degree of the last three from the length
            return [mp.zero] * (len(mants) - 3) + [mp.ldexp(m, -F) for m in mants[-3:]]

        monkeypatch.setattr(numerics, "_log2", lambda v, k=0: mp.ldexp(abs(mp.make_mpf(v)), -k))
        monkeypatch.setattr(numerics, "_top_coeffs", top_coeffs)
        monkeypatch.setattr(
            numerics, "_step_guess",
            lambda sets, eps, order, k: mp.ldexp(oracle.step_guess(sets, eps, order), k)._mpf_,
        )
        monkeypatch.setattr(numerics, "_tail_estimate", lambda tops, top, u: oracle.tail_estimate(tops, u))
        monkeypatch.setattr(numerics, "_exp2", lambda est: est._mpf_)

    def _runs(self):
        """(steps, rejected, c) of four trajectories and of the (0.5, 2) g problem."""
        out = []
        for h0, h1 in ((1, -1), (2, -0.5), (1, 1), (2, 0.5)):
            traj = integrate_h(InitialData(0, h0, h1), 1.2e6, self.CFG)
            with mp.workdps(self.CFG.effective_dps):
                c = compute_c(traj.g_problem) + 4 * traj.switch_time
            out.append((traj._steps + traj.g_problem._steps, traj.n_rejected + traj.g_problem.n_rejected, c))
        prob, _ = g_problem_for_data(InitialData(0, 0.5, 2), self.CFG)
        out.append((prob._steps, prob.n_rejected, compute_c(prob)))
        return out

    def test_doubles_take_the_mpf_steps(self, monkeypatch):
        shipped = self._runs()
        with monkeypatch.context() as patch:
            self._mpf_control(patch)
            reference = self._runs()
        with mp.workdps(self.CFG.effective_dps):
            for (steps, rejected, c), (steps_ref, rejected_ref, c_ref) in zip(shipped, reference):
                assert (len(steps), rejected) == (len(steps_ref), rejected_ref)
                for step, ref in zip(steps, steps_ref):
                    end, end_ref = step.t_start + step.length, ref.t_start + ref.length
                    assert abs(end - end_ref) <= 1e-15 * abs(end_ref), (end, end_ref)
                assert mp.nstr(c, 20) == mp.nstr(c_ref, 20)


class TestGKernelScale:
    """The g kernel at the march's rho against the rule it replaced.

    The march passes k with rho = 2^k in (2h, 4h] of the last step h, and
    the g kernel caps it at 2^mag(z_s).  Before, the kernel took rho =
    2^mag(z_s) at every step, however short: in the collapse region, where
    g steps are 0.03 to 0.1 z_s long, its scaled coefficients grew like
    (rho/R)^j for the local radius R, on oversized integers.  Both rules
    compute the same series to the kernel's fixed-point resolution, so
    they must take the same steps.
    """

    CFG = SolverConfig(rel_tol=1e-22, abs_tol=1e-24)
    # the ten data of the `constant` workload (perfbench/workloads.py)
    CONSTANT_DATA = (
        (1, 1), (2, 0.5), (0.5, 2), (0.8, 1), (1.2, 1.5),
        (0.5, 0.5), (3, 0.1), (1, -1), (0.7, 0.3), (1.5, 1),
    )

    def _problems(self, cfg, data):
        out = []
        for h0, h1 in data:
            prob, t_base = g_problem_for_data(InitialData(0, h0, h1), cfg)
            with mp.workdps(prob.dps):
                out.append((prob, compute_c(prob) + 4 * t_base))
        return out

    def test_same_steps_as_rho_at_z(self, monkeypatch):
        data = ((0.5, 2), (0.5, 0.5), (1, 1))
        shipped = self._problems(self.CFG, data)
        kernel = numerics._g_system_coeffs
        with monkeypatch.context() as patch:
            patch.setattr(
                numerics, "_g_system_coeffs",
                lambda z_s, g_s, i_s, order, k: kernel(z_s, g_s, i_s, order, mp.mag(z_s)),
            )
            reference = self._problems(self.CFG, data)
        with mp.workdps(self.CFG.effective_dps):
            for (prob, c), (ref, c_ref) in zip(shipped, reference):
                assert prob._steps
                assert (len(prob._steps), prob.n_rejected) == (len(ref._steps), ref.n_rejected)
                for step, step_ref in zip(prob._steps, ref._steps):
                    assert abs(step.length - step_ref.length) <= 1e-12 * abs(step_ref.length)
                assert abs(c - c_ref) <= 1e-30 * abs(c_ref), (c, c_ref)

    def test_no_recompute_and_small_operands(self, monkeypatch):
        # at the CLI defaults the ten data take 179 g steps, each one kernel
        # call: no trial step is recomputed at a wider rho.  The largest g
        # mantissa of a call exceeds the scale 2^-F by 24 bits in the mean
        # (67 at rho = 2^mag(z_s) at every step)
        excess = []  # bits of each call's largest g mantissa above 2^F
        kernel = numerics._g_system_coeffs

        def counted(*args):
            C, I, F, k = kernel(*args)
            excess.append(max(map(abs, C)).bit_length() - F)
            return C, I, F, k

        monkeypatch.setattr(numerics, "_g_system_coeffs", counted)
        cfg = SolverConfig(rel_tol=1e-18, abs_tol=1e-20)
        problems = [prob for prob, _ in self._problems(cfg, self.CONSTANT_DATA)]
        steps = sum(len(prob._steps) + prob.n_rejected for prob in problems)
        assert len(excess) == steps == 179
        assert sum(excess) / len(excess) <= 32, sum(excess) / len(excess)


class TestMarcher:
    """The one step loop behind integrate_h and solve_g: its failures and
    the step lookup of the dense reads."""

    # the direct march of an h1 <= 0 trajectory: D1's would refuse twice,
    # by its own problem and by the switch route (TestOwnProblem)
    RUNS = {
        "integrate_h": lambda: integrate_h(SWITCHED, 1e6),
        "solve_g": lambda: solve_g(4, 1),
    }

    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_step_budget_is_an_integration_error(self, monkeypatch, run):
        monkeypatch.setattr(numerics, "_MAX_STEPS", 3)
        with pytest.raises(IntegrationError, match="step budget 3 exhausted"):
            self.RUNS[run]()

    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_step_collapse_is_an_integration_error(self, monkeypatch, run):
        monkeypatch.setattr(numerics, "_tail_estimate", lambda *args: math.inf)
        with pytest.raises(IntegrationError, match="step size collapsed"):
            self.RUNS[run]()

    @pytest.mark.parametrize("failure", ["budget", "collapse"])
    def test_trajectory_failures_name_t(self, monkeypatch, failure):
        # the march runs in the elapsed time tau = t - t0, the same steps
        # from t0 = 0 and t0 = 100; its refusals name t = t0 + tau
        if failure == "budget":
            monkeypatch.setattr(numerics, "_MAX_STEPS", 3)
        else:
            monkeypatch.setattr(numerics, "_tail_estimate", lambda *args: math.inf)
        at = {}
        for t0 in (0, 100):
            with pytest.raises(IntegrationError) as err:
                integrate_h(InitialData(t0, 1, -1), t0 + 900)
            at[t0] = float(re.search(r" at ([-+.e\d]+)", str(err.value)).group(1))
        assert at[0] > 0 if failure == "budget" else at[0] == 0
        assert at[100] == pytest.approx(100 + at[0], rel=1e-15)

    @staticmethod
    def _assert_lookup(steps, keys, sign, dps):
        with mp.workdps(dps):
            for step in steps:
                for t in (step.t_start, step.t_start + step.length / 2):
                    assert _step_at(steps, keys, sign * t) is step
            first, last = steps[0], steps[-1]
            eps = mp.ldexp(abs(last.length), -20)
            before = first.t_start - sign * eps
            past = last.t_start + last.length + sign * eps
            assert _step_at(steps, keys, sign * before) is first
            assert _step_at(steps, keys, sign * past) is last

    def test_trajectory_lookup(self):
        traj = integrate_h(SWITCHED, 1e6)
        assert traj.n_steps > 2
        self._assert_lookup(traj._steps, traj._keys, 1, traj.stats["dps"])

    def test_g_problem_lookup(self, problem):
        # eval_g reads up to a relative slack above z0, and 4/x can round
        # just below z_c at the split
        assert len(problem._steps) > 2
        self._assert_lookup(problem._steps, problem._keys, -1, problem.dps)
        with mp.workdps(problem.dps):
            z = problem._z_max
            assert z > problem.z0
            assert problem.eval_g(z) == mp.make_mpf(problem._steps[0].read(z._mpf_, 0))


class TestInversionFloor:
    """At h ~ 500 and beyond, h^4 ~ 1e11: the absolute tolerance of the
    trajectory's inversion (1e-29 at rel 1e-18) lies below the rounding
    floor of G there, so the inversion must stop once its iterate no longer
    moves at working precision instead of spinning to its iteration cap."""

    CFG = SolverConfig(rel_tol=1e-18, abs_tol=1e-20)

    @pytest.mark.parametrize("h0", [10**2.6875, 1000])
    def test_large_h0_resolves_to_the_reference(self, h0):
        data = InitialData(0, h0, -0.7)
        traj = integrate_h(data, 1e5, self.CFG)
        ref = integrate_h(data, 1e5, SolverConfig(rel_tol=1e-30, abs_tol=1e-32))
        with mp.workdps(60):
            err = abs(traj.eval_h(1e5) - ref.eval_h(1e5))
            assert err <= traj.err_bound(1e5)

    @pytest.mark.parametrize("h0,h1", [(1, 1), (2, 0.5)])
    def test_default_stops_at_the_precision_floor(self, h0, h1):
        # the Newton stop is half the floor 10^(9 - dps) at the problem's
        # precision (dps 42 here)
        prob, _ = g_problem_for_data(InitialData(0, h0, h1), SolverConfig(rel_tol=1e-22, abs_tol=1e-24))
        assert prob.dps == 42
        with mp.workdps(prob.dps):
            for x in (1e2, 1e4, 1e6):
                y = invert_G(x, prob)
                assert abs(compute_G(y, prob) - x) <= mp.mpf(10) ** (9 - prob.dps) / 2, x

    def test_bracketed_solver_stops_at_the_floor(self):
        # arguments far below h0^4 = 1e12: the Newton iterate starts at the
        # anchor, where the floor's absolute tolerance is below G's rounding floor
        prob = integrate_h(InitialData(0, 1000, -0.7), 1e5, self.CFG).g_problem
        with mp.workdps(prob.dps):
            for x in (3, 7.9):
                y = invert_G(x, prob)
                assert abs(compute_G(y, prob) - x) <= mp.mpf(10) ** (2 - prob.dps) * y

    def test_err_bound_charges_the_inversion_residual(self):
        # err_bound's inversion term alone bounds |G(h^4) - x| from 1e-6 to
        # 1e4 past the switch.  For (1000, -0.7) the residual is G's
        # rounding floor near h^4 = 1e12, above twice the inversion
        # tolerance, which was the whole term before
        floor_stops = 0
        for h0, h1 in ((1000, -0.7), (10**2.6875, -0.7), (1, 1), (2, 0.5)):
            traj = integrate_h(InitialData(0, h0, h1), 2e4, SolverConfig(rel_tol=1e-18, abs_tol=1e-20))
            t_sw, prob = traj.switch_time, traj.g_problem
            with mp.workdps(traj.dps):
                for e in range(-24, 17):
                    t = t_sw + mp.mpf(10) ** (mp.mpf(e) / 4)
                    y = traj._reduced_h4(t)
                    res = abs(compute_G(y, prob) - 4 * (t - t_sw))
                    assert res <= traj._inversion_err(y), (h0, h1, e)
                    floor_stops += res > 2 * mp.mpf(10) ** (9 - traj.dps)
        assert floor_stops


class TestWorkingPrecision:
    """compute_G, GProblem.eval_g, Trajectory.eval_h and eval_A_n enter
    their own working precision only when the caller's differs: read at
    mp.dps 15 or at that precision, they return equal values and leave
    mp.prec as they found it."""

    CFG = SolverConfig(rel_tol=1e-22, abs_tol=1e-24)

    def test_reads_at_either_precision_are_equal(self):
        # D1's c problem has Taylor pieces: G and g read dense output below
        # the split and the series beyond it.  D1's trajectory inverts G
        # from t0; (1, -1)'s reads a direct step at t = 50
        prob, _ = g_problem_for_data(DATA, self.CFG)
        model = AsymptoticModel.build(-0.7, 3, dps=prob.dps)
        values = []
        for dps in (15, prob.dps):
            traj = integrate_h(DATA, 1.2e6, self.CFG)  # a fresh h^4 memo
            switched = integrate_h(SWITCHED, 1.2e6, self.CFG)
            with mp.workdps(dps):
                prec = mp.prec
                values.append([
                    compute_G(2, prob), compute_G(1e4, prob),
                    prob.eval_g(1), prob.eval_g(mp.ldexp(prob.z_c, -1)),
                    traj.eval_h(50), traj.eval_h(1e5), eval_A_n(model, 1e5),
                    switched.eval_h(50), switched.eval_h(1e5),
                ])
                assert (mp.prec, mp.dps) == (prec, dps)
        assert values[0] == values[1]


class TestLambertRoot:
    def test_solves_the_equation(self):
        with mp.workdps(30):
            for x in (1.5, 10, 1e5):
                y = lambert_wm1_numeric(x)
                assert y > 1
                assert abs(y - mp.log(y) - x) < mp.mpf("1e-12")

    def test_against_lambertw_branch(self):
        # independent oracle: y = -W_{-1}(-e^{-x})
        with mp.workdps(30):
            x = mp.mpf(10)
            expected = -mp.lambertw(-mp.e ** (-x), -1)
            assert abs(lambert_wm1_numeric(x) - expected) < mp.mpf("1e-12")

    def test_against_bisection(self):
        with mp.workdps(30):
            x = mp.mpf(7)
            lo, hi = mp.mpf(1), mp.mpf(20)
            for _ in range(120):
                mid = (lo + hi) / 2
                if mid - mp.log(mid) < x:
                    lo = mid
                else:
                    hi = mid
            assert abs(lambert_wm1_numeric(x) - lo) < mp.mpf("1e-12")

    def test_rejects_branch_point(self):
        with pytest.raises(DomainError):
            lambert_wm1_numeric(1.0)

    def test_root_tracks_working_precision(self):
        # the Newton stop scales with the working precision, so a tight
        # configuration gets a root accurate far beyond fp_tol
        cfg = SolverConfig(rel_tol=1e-30, abs_tol=1e-32)
        with mp.workdps(cfg.effective_dps + 20):
            for x in (10, 1e5):
                expected = -mp.lambertw(-mp.e ** (-mp.mpf(x)), -1)
                err = abs(lambert_wm1_numeric(x, cfg) - expected)
                assert err < mp.mpf(10) ** (-(cfg.effective_dps - 8)) * x


NAN, INF = float("nan"), float("inf")


class TestNonFiniteInputs:
    # a NaN or infinite argument is refused as a DomainError before any
    # work: read as 0, or dropped by a range test or a running max, it
    # would give a plausible number, and in the root finders it would run
    # to the iteration cap
    MODEL = AsymptoticModel.build(C_011, 3)
    CALLS = {
        "model c": lambda traj, prob: AsymptoticModel.build(NAN, 3),
        "eval_h": lambda traj, prob: traj.eval_h(NAN),
        "eval_hprime": lambda traj, prob: traj.eval_hprime(NAN),
        "err_bound": lambda traj, prob: traj.err_bound(NAN),
        "eval_g": lambda traj, prob: prob.eval_g(NAN),
        "compute_G nan": lambda traj, prob: compute_G(NAN, prob),
        "compute_G inf": lambda traj, prob: compute_G(INF, prob),
        "invert_G nan": lambda traj, prob: invert_G(NAN, prob),
        "invert_G inf": lambda traj, prob: invert_G(INF, prob),
        "lambert nan": lambda traj, prob: lambert_wm1_numeric(NAN),
        "lambert inf": lambda traj, prob: lambert_wm1_numeric(INF),
        "eval_A_n": lambda traj, prob: eval_A_n(TestNonFiniteInputs.MODEL, NAN),
        "shift grid": lambda traj, prob: shift_invariance_check(TestNonFiniteInputs.MODEL, 3, 1, [NAN, 100]),
        "lambert grid": lambda traj, prob: lambert_compare(2, [NAN, 10, 100]),
        "remainder grid": lambda traj, prob: remainder_study(TestNonFiniteInputs.MODEL, traj, 2, [100, NAN, 500]),
        "fit times": lambda traj, prob: fit_c_from_trajectory(traj, 2, [NAN]),
        "solve_g inf z0": lambda traj, prob: solve_g(INF, 1),
        "solve_g inf g0": lambda traj, prob: solve_g(0.5, INF),
        "solve_g nan g0": lambda traj, prob: solve_g(0.5, NAN),
    }

    @pytest.mark.parametrize("call", list(CALLS))
    def test_refused(self, call, traj, problem):
        with pytest.raises(DomainError):
            self.CALLS[call](traj, problem)


class TestExports:
    def test_csv_shape_and_determinism(self, traj):
        text = trajectory_to_csv(traj)
        lines = text.strip().split("\n")
        assert lines[0] == "t,h,hprime"
        assert len(lines) == 1 + len(traj.samples())
        assert text == trajectory_to_csv(traj)

    def test_csv_digits(self, traj):
        # a row past the first, where h is no round number
        text = trajectory_to_csv(traj)
        h_field = text.strip().split("\n")[2].split(",")[1]
        digits = h_field.replace(".", "").replace("-", "").lstrip("0")
        assert len(digits) >= 16
