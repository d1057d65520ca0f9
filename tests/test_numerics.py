"""Tests for the numerical layer: trajectories, g, G, c, the Lambert root.

Pinned reference values below were cross-validated by running two solver
configurations at different working precisions (30 and 46 digits) and
checking agreement well beyond the asserted tolerances.
"""

import dataclasses
import hashlib
import random

import pytest
from expansion_oracle import eval_G_asympt
from mpmath import mp
from mpmath.libmp import finf, from_str, mpf_pow_int, round_nearest

import newton_oracle
import taylor_oracle as oracle
from taylor_oracle import horner as _horner
from taylor_oracle import unscale as _unscale
from asymptode import numerics
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
    _fixed_eval,
    _g_system_coeffs,
    _h_system_coeffs,
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


def _guess(coeff_sets, eps_loc, order):
    """_step_guess on mpf coefficient lists, as an mpf at mp.prec."""
    prec = mp.prec
    tops = [[c._mpf_ for c in coeffs[-2:]] for coeffs in coeff_sets]
    safety = from_str("0.8", prec, round_nearest)
    return mp.make_mpf(_step_guess(tops, eps_loc._mpf_, order, safety, prec))


def _estimate(mants, F, k, h):
    """_tail_estimate of the kernel mantissas at h, as an mpf at mp.prec."""
    prec = mp.prec
    a = abs(h)._mpf_
    hp = mpf_pow_int(a, len(mants) - 3, prec, round_nearest)
    return mp.make_mpf(_tail_estimate(_top_coeffs(mants, F, k), a, hp, prec))


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

    def test_dense_output_is_continuous_at_the_switch(self, traj):
        t_sw = traj.switch_time
        assert t_sw is not None
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

    @pytest.mark.parametrize("h0,h1", [(1, 1), (2, 0.5)])
    def test_err_bound_is_sound_against_a_tighter_reference(self, h0, h1):
        # the bound holds against a run 12 digits tighter, through the
        # direct phase and both sides of the switch (t = 148.8 for D1,
        # 138.4 for D2) into the tail; the least bound/actual measured is
        # 261 (D1, t = 3) and 415 (D2, t = 30)
        data = InitialData(0, h0, h1)
        traj = integrate_h(data, 1e6, SolverConfig(rel_tol=1e-22, abs_tol=1e-24))
        ref = integrate_h(data, 1e6, SolverConfig(rel_tol=1e-34, abs_tol=1e-36))
        grid = (0.25, 1, 3, 10, 30, 100, 127, 129, 140, 150, 200, 1e3, 1e4, 1e5, 1e6)
        assert grid[7] < traj.switch_time < grid[9]
        with mp.workdps(60):
            for t in grid:
                assert abs(traj.eval_h(t) - ref.eval_h(t)) <= traj.err_bound(t), t

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
        # D1's switch problem at rel 1e-18 has no Taylor pieces: there
        # I(4/x) = J - T(x) for every x, and J = T(S) at S = h0^4
        cfg = SolverConfig(rel_tol=1e-18, abs_tol=1e-20)
        switched = integrate_h(DATA, 1e3, cfg).g_problem
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
                got = prob._beta_tail(x)
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
    the three top coefficients must equal, bit for bit, the mpf estimate
    over the whole unscaled list.
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
            got = _fixed_eval(mants, h, F, k)
            est = _estimate(mants, F, k, h)
            est_ref = oracle.tail_estimate(_unscale(head, mants, F, k), h)
        assert est == est_ref
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
            _g_system_coeffs(mp.mpf(4), mp.mpf(1.05), mp.mpf("0.37"), P)
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
        with mp.workdps(self.DPS):
            prec = mp.prec
            h = +h
            X, Y, F = _h_system_coeffs(x0, y0, self.ORDER, 0)
            got = [_fixed_eval(X, h, F, 0), _fixed_eval(Y, h, F, 0)]
        with mp.workdps(self.DPS + 20):
            for val, ref in zip(got, (X_ref, Y_ref)):
                exact = _horner(ref, h)
                assert abs(val - exact) <= mp.ldexp(abs(exact), 2 - prec)
            assert got[1] > 1e70

    @classmethod
    def _check_g_system(cls, z_s, g_s, dps, order):
        """_g_system_coeffs at dps digits against the oracle 20 digits
        higher."""
        with mp.workdps(dps + 20):
            z_s, g_s, base = mp.mpf(z_s), mp.mpf(g_s), mp.mpf("0.37")
            C_ref, R_ref = oracle.g_equation_coeffs(z_s, g_s, order)
            I_ref = oracle.running_integral_coeffs(z_s, R_ref, base)
        with mp.workdps(dps):
            prec = mp.prec
            C, I, F, k = _g_system_coeffs(z_s, g_s, base, order)
            C_mpf = _unscale(g_s, C, F, k)
            I_mpf = _unscale(base, I, F, k)
        assert F >= prec + _GUARD_BITS
        assert mp.ldexp(1, k - 1) <= z_s < mp.ldexp(1, k)
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

    @pytest.mark.parametrize("z_s", [0.0099, 0.3, 4, 400])
    @pytest.mark.parametrize("g_s", [1e-70, 1e-3, 1.05, 1e3])
    @pytest.mark.parametrize("u", [2.0**-12, 0.1, 0.45])
    def test_g_step_end(self, z_s, g_s, u):
        # g steps run downward: the step end is at the offset -h
        with mp.workdps(self.DPS + 20):
            z_s, g_s, base = mp.mpf(z_s), mp.mpf(g_s), mp.mpf("0.37")
            C_ref, R_ref = oracle.g_equation_coeffs(z_s, g_s, self.ORDER)
            I_ref = oracle.running_integral_coeffs(z_s, R_ref, base)
        with mp.workdps(self.DPS):
            prec = mp.prec
            C, I, F, k = _g_system_coeffs(z_s, g_s, base, self.ORDER)
            h = -mp.ldexp(mp.mpf(u), k)
        self._assert_step_end(C, g_s, C_ref, F, k, h, prec)
        self._assert_step_end(I, base, I_ref, F, k, h, prec)


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
                    cls._assert_read(step.eval_x(t), step.x0, X, F, k, u)
                    cls._assert_read(step.eval_y(t), step.y0, Y, F, k, u)

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
            assert _fixed_eval(Y, mp.zero, F, 0) != y0
            step = numerics._Step(mp.zero, mp.mpf("0.5"), x0, y0, mp.zero, (X, Y, F, 0))
            assert step.eval_y(mp.zero) == y0
            assert step.eval_x(mp.zero) == x0

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


class TestStepSequences:
    """Step and rejection counts at the verify tolerances.

    The Taylor kernels change only the last bits of the coefficients, so a
    kernel change that moves step control shows here as a count.
    """

    CFG = SolverConfig(rel_tol=1e-22, abs_tol=1e-24)

    @pytest.mark.parametrize(
        "h0,h1,steps,g_steps", [(1, 1, 19, 0), (2, 0.5, 15, 1)]
    )
    def test_integrate_h(self, h0, h1, steps, g_steps):
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
    # digest covers the 19 + 15 direct steps of D1 and D2 and has held
    # since before the two step loops became one marcher: every change to
    # the h kernel since then was exact integer arithmetic.  The g digest
    # covers D2's one g step and the 35 of the (0.5, 2) g problem; it was
    # re-recorded when the g kernel moved from the 1/g convolution to
    # squaring g, which rounds differently within the guard bits (three
    # steps moved, by at most 6e-38 relative)
    H_STEP_DIGEST = "ca578c5e0e34832355fb93e74a9269bf5045eac4747c3dfd32a7112a0d4185b2"
    G_STEP_DIGEST = "4bd89335c9b840a8e518851d796cac3656857370888f56583a087a168c5c3d9a"

    @pytest.fixture(scope="class")
    def digest_steps(self):
        h_steps, g_steps = [], []
        for h0, h1 in ((1, 1), (2, 0.5)):
            traj = integrate_h(InitialData(0, h0, h1), 1.2e6, self.CFG)
            assert traj.n_rejected == 0
            h_steps.append(traj._steps)
            g_steps.append(traj.g_problem._steps)
        prob, _ = g_problem_for_data(InitialData(0, 0.5, 2), self.CFG)
        assert prob.n_rejected == 0
        g_steps.append(prob._steps)
        assert [len(s) for s in h_steps] == [19, 15]
        assert [len(s) for s in g_steps] == [0, 1, 35]
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
        # eval_g is patched on the class, as the benchmark's tracer patches
        # it: each slope follows a residual that did not stop the iteration
        calls = {"compute_G": 0, "invert_G": 0, "eval_g": 0}

        def counted(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counted(numerics, "compute_G")
        counted(numerics, "invert_G")
        counted(GProblem, "eval_g")
        for h0, h1 in ((1, 1), (2, 0.5)):
            traj = integrate_h(InitialData(0, h0, h1), 1.2e6, self.CFG)
            for t in (1e2, 1e3, 1e4, 1e5, 1e6):
                traj.eval_h(t)
        assert calls["invert_G"] >= 8
        assert calls["compute_G"] <= 4 * calls["invert_G"]
        assert 0 < calls["eval_g"] <= calls["compute_G"]


class TestDeferredBracket:
    """_newton checks the upper end of its bracket only when an iterate
    reaches it or a bisection needs it.  The roots of invert_G and
    lambert_wm1_numeric equal, bit for bit, those of the eager bracket of
    newton_oracle: G on D1, D2 and (0.5, 2), whose G has Taylor pieces,
    and the large-g0 datum (3, 1), at the precision floor 10^(9 - dps)/2
    (5e-34 at dps 42 here), for x from 1e-3 to 5e6; the Lambert
    root from just above the branch point to 1e300.  Some of the G paths
    double the candidate end and some bisect."""

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

    @pytest.mark.parametrize("rel_tol", [1e-10, 1e-30])
    def test_lambert_roots_equal_the_eager_bracket(self, rel_tol):
        cfg = SolverConfig(rel_tol=rel_tol, abs_tol=rel_tol / 100)
        for x in (1 + 1e-6, 1.0001, 1.5, 2, 10, 1e5, 5e6, 1e300):
            ref, _ = newton_oracle.lambert_wm1(x, cfg)
            assert lambert_wm1_numeric(x, cfg) == ref, x


class TestStepGuess:
    """_step_guess on raw mpfs against the mpf guess of taylor_oracle, at
    the precision and order of rel 1e-12, 1e-20 and 1e-62: equal bit for
    bit over separated candidates, exact ties, near ties (1e-12 relative),
    zero coefficients and all zeros (an infinite step), with one root
    whenever the smallest candidate is separated from the rest."""

    CONFIGS = [(30, 44), (38, 53), (80, 104)]

    @staticmethod
    def _cases(order):
        """(name, coeff_sets, eps_loc) at the working precision."""
        rng = random.Random(order)

        def coeff():
            return mp.mpf(rng.uniform(-1, 1)) * mp.mpf(10) ** rng.randint(-60, 10)

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
        cases.append(("all zero", [[zero] * 3], eps()))
        cases.append(("all zero", [[zero] * 3, [coeff(), zero, zero]], eps()))
        return cases

    @pytest.mark.parametrize("dps,order", CONFIGS)
    def test_equals_the_mpf_guess(self, monkeypatch, dps, order):
        roots = [0]
        mpf_pow = numerics.mpf_pow

        def counted(*args):
            roots[0] += 1
            return mpf_pow(*args)

        monkeypatch.setattr(numerics, "mpf_pow", counted)
        kinds = set()
        with mp.workdps(dps):
            for kind, sets, eps_loc in self._cases(order):
                roots[0] = 0
                got = _guess(sets, eps_loc, order)
                ref = oracle.step_guess(sets, eps_loc, order)
                assert got._mpf_ == ref._mpf_, (kind, got, ref)
                if kind in ("separated", "one zero"):
                    assert roots[0] == 1, kind
                elif kind == "all zero":
                    assert (roots[0], got) == (0, mp.inf)
                else:
                    assert roots[0] == 2, kind
                kinds.add(kind)
        assert len(kinds) == 5


class TestMarcher:
    """The one step loop behind integrate_h and solve_g: its failures and
    the step lookup of the dense reads."""

    RUNS = {
        "integrate_h": lambda: integrate_h(DATA, 1e6),
        "solve_g": lambda: solve_g(4, 1),
    }

    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_step_budget_is_an_integration_error(self, monkeypatch, run):
        monkeypatch.setattr(numerics, "_MAX_STEPS", 3)
        with pytest.raises(IntegrationError, match="step budget 3 exhausted"):
            self.RUNS[run]()

    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_step_collapse_is_an_integration_error(self, monkeypatch, run):
        monkeypatch.setattr(numerics, "_tail_estimate", lambda *args: finf)
        with pytest.raises(IntegrationError, match="step size collapsed"):
            self.RUNS[run]()

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

    def test_trajectory_lookup(self, traj):
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
            assert problem.eval_g(z) == problem._steps[0].eval_x(z)


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
        # the split and the series beyond it
        prob, _ = g_problem_for_data(DATA, self.CFG)
        model = AsymptoticModel.build(-0.7, 3, dps=prob.dps)
        values = []
        for dps in (15, prob.dps):
            traj = integrate_h(DATA, 1.2e6, self.CFG)  # a fresh h^4 memo
            with mp.workdps(dps):
                prec = mp.prec
                values.append([
                    compute_G(2, prob), compute_G(1e4, prob),
                    prob.eval_g(1), prob.eval_g(mp.ldexp(prob.z_c, -1)),
                    traj.eval_h(50), traj.eval_h(1e5), eval_A_n(model, 1e5),
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
