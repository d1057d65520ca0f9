"""Tests for the numerical layer: trajectories, g, G, c, the Lambert root.

Pinned reference values below were cross-validated by running two solver
configurations at different working precisions (30 and 46 digits) and
checking agreement well beyond the asserted tolerances.
"""

import pytest
from mpmath import mp

import taylor_oracle as oracle
from asymptode import numerics
from asymptode.errors import AccuracyError, ConvergenceError, DomainError
from asymptode.families import gen_beta
from asymptode.numerics import (
    _GUARD_BITS,
    _SERIES_ORDER,
    GProblem,
    InitialData,
    SolverConfig,
    Trajectory,
    _fixed_eval,
    _g_equation_coeffs,
    _h_system_coeffs,
    _horner,
    _running_integral_coeffs,
    _step_guess,
    _tail_estimate,
    _top_coeffs,
    _unscale,
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
        assert SolverConfig(dps=33).effective_dps == 33

    def test_taylor_order_tracks_dps(self):
        assert SolverConfig().taylor_order >= 24
        tight = SolverConfig(rel_tol=1e-26, abs_tol=1e-28)
        assert tight.taylor_order > SolverConfig().taylor_order

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rel_tol": 0.0},
            {"abs_tol": -1e-3},
            {"fp_tol": 0.0},
            {"max_steps": 0},
            {"fp_max_iter": 0},
            {"dps": 10},
            {"direct_span": -1.0},
            {"fp_tol": float("inf")},
            {"direct_span": float("inf")},
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
        betas = gen_beta(_SERIES_ORDER).values
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

    def test_inversion_iteration_cap(self, problem):
        starved = SolverConfig(fp_max_iter=1, fp_tol=1e-25)
        with pytest.raises(ConvergenceError):
            invert_G(100, problem, starved)

    def test_lambert_iteration_cap(self):
        with pytest.raises(ConvergenceError):
            lambert_wm1_numeric(1e5, SolverConfig(fp_max_iter=1))


class TestComputeC:
    def test_reference_value(self, problem):
        with mp.workdps(problem.dps):
            assert abs(compute_c(problem) - mp.mpf(C_011)) < mp.mpf("1e-9")

    def test_memoized(self, problem):
        assert compute_c(problem) is compute_c(problem)

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
            betas = [mp.mpf(b.numerator) / b.denominator for b in gen_beta(24).values]
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

    Each kernel runs at 40 digits with the Taylor order of rel 1e-22; the
    reference (tests/taylor_oracle.py, one mpf fsum per convolution
    coefficient) runs 20 digits higher.  The kernels return int mantissas;
    the tests unscale them as dense output does.  Coefficient j of every
    series must agree to 2^-(prec-4) of the series' largest
    |coefficient rho^j|, with rho = 2^k the kernel's scale.

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
            est = _tail_estimate(_top_coeffs(mants, F, k), len(mants) - 1, h)
            est_ref = oracle.tail_estimate(_unscale(head, mants, F, k), h)
        assert est == est_ref
        with mp.workdps(cls.DPS + 20):
            tol = mp.ldexp(cls._scale(ref, k), 6 - prec)
            assert abs(got - _horner(ref, h)) <= tol, (h, got)

    @pytest.mark.parametrize("x0", [1e-80, 1e-3, 0.05, 1, 30, 1e3])
    @pytest.mark.parametrize("y0", [-2.5, 0.7])
    def test_h_system(self, x0, y0):
        with mp.workdps(self.DPS + 20):
            x0, y0 = mp.mpf(x0), mp.mpf(y0)
            X_ref, Y_ref = oracle.h_system_coeffs(x0, y0, self.ORDER)
            eps_loc = mp.mpf(1e-24) + mp.mpf(1e-22) * max(abs(x0), abs(y0))
            step = _step_guess((X_ref, Y_ref), eps_loc, self.ORDER)
        # the integrator keeps rho at or above the step: test rho in
        # (step, 2 step], in (2 step, 4 step] and far above the step
        for k in (mp.mag(step), mp.mag(step) + 1, mp.mag(step) + 8):
            with mp.workdps(self.DPS):
                prec = mp.prec
                X, Y, F = _h_system_coeffs(x0, y0, self.ORDER, k)
                X_mpf = _unscale(x0, X, F, k)
                Y_mpf = _unscale(y0, Y, F, k)
            with mp.workdps(self.DPS + 20):
                self._assert_close(X_mpf, X_ref, k, prec)
                self._assert_close(Y_mpf, Y_ref, k, prec)

    @pytest.mark.parametrize("x0", [1e-80, 1e-3, 0.05, 1, 30, 1e3])
    @pytest.mark.parametrize("y0", [-2.5, 0.7])
    @pytest.mark.parametrize("u", [2.0**-12, 0.1, 0.5])
    def test_h_step_end(self, x0, y0, u):
        # rho as the integrator sets it, in (2 step, 4 step]
        with mp.workdps(self.DPS + 20):
            x0, y0 = mp.mpf(x0), mp.mpf(y0)
            X_ref, Y_ref = oracle.h_system_coeffs(x0, y0, self.ORDER)
            eps_loc = mp.mpf(1e-24) + mp.mpf(1e-22) * max(abs(x0), abs(y0))
            k = mp.mag(_step_guess((X_ref, Y_ref), eps_loc, self.ORDER)) + 1
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
            h = _step_guess((X_ref, Y_ref), eps_loc, self.ORDER)
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

    @pytest.mark.parametrize("z_s", [0.0099, 0.3, 4, 400])
    @pytest.mark.parametrize("g_s", [1e-70, 1e-3, 1.05, 1e3])
    def test_g_equation_and_running_integral(self, z_s, g_s):
        with mp.workdps(self.DPS + 20):
            z_s, g_s, base = mp.mpf(z_s), mp.mpf(g_s), mp.mpf("0.37")
            C_ref, R_ref = oracle.g_equation_coeffs(z_s, g_s, self.ORDER)
            I_ref = oracle.running_integral_coeffs(z_s, R_ref, base)
        with mp.workdps(self.DPS):
            prec = mp.prec
            C, R, F, k = _g_equation_coeffs(z_s, g_s, self.ORDER)
            I = _running_integral_coeffs(z_s, R, F, k, base)
            C_mpf = _unscale(g_s, C, F, k)
            I_mpf = _unscale(base, I, F, k)
        assert F >= prec + _GUARD_BITS
        assert mp.ldexp(1, k - 1) <= z_s < mp.ldexp(1, k)
        with mp.workdps(self.DPS + 20):
            self._assert_close(C_mpf, C_ref, k, prec)
            R_mpf = [mp.ldexp(r, -F - k * j) for j, r in enumerate(R)]
            self._assert_close(R_mpf, R_ref, k, prec)
            self._assert_close(I_mpf, I_ref, k, prec)

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
            C, R, F, k = _g_equation_coeffs(z_s, g_s, self.ORDER)
            I = _running_integral_coeffs(z_s, R, F, k, base)
            h = -mp.ldexp(mp.mpf(u), k)
        self._assert_step_end(C, g_s, C_ref, F, k, h, prec)
        self._assert_step_end(I, base, I_ref, F, k, h, prec)


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

    def test_compute_G_calls_per_inversion(self, monkeypatch):
        # Newton on G takes 5.2 evaluations of G per inversion here; the
        # fixed-point iteration y <- x + y - G(y) takes 9.2
        calls = {"compute_G": 0, "invert_G": 0}

        def counted(name):
            original = getattr(numerics, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(numerics, name, wrapper)

        counted("compute_G")
        counted("invert_G")
        for h0, h1 in ((1, 1), (2, 0.5)):
            traj = integrate_h(InitialData(0, h0, h1), 1.2e6, self.CFG)
            for t in (1e2, 1e3, 1e4, 1e5, 1e6):
                traj.eval_h(t)
        assert calls["invert_G"] >= 8
        assert calls["compute_G"] <= 7 * calls["invert_G"]


class TestInversionFloor:
    """At h ~ 500 and beyond, h^4 ~ 1e11: the absolute tolerance of the
    trajectory's inversion (1e-29 at rel 1e-18) lies below the rounding
    floor of G there, so the inversion must stop once its iterate no longer
    moves at working precision instead of spinning to its iteration cap."""

    CFG = SolverConfig(rel_tol=1e-18, abs_tol=1e-20, fp_tol=1e-29)

    @pytest.mark.parametrize("h0", [10**2.6875, 1000])
    def test_large_h0_resolves_to_the_reference(self, h0):
        data = InitialData(0, h0, -0.7)
        traj = integrate_h(data, 1e5, self.CFG)
        ref = integrate_h(data, 1e5, SolverConfig(rel_tol=1e-30, abs_tol=1e-32))
        with mp.workdps(60):
            err = abs(traj.eval_h(1e5) - ref.eval_h(1e5))
            assert err <= traj.err_bound(1e5)

    def test_bracketed_solver_stops_at_the_floor(self):
        # arguments far below h0^4 = 1e12: the Newton iterate starts at the
        # anchor, where the absolute fp_tol is below G's rounding floor
        prob = integrate_h(InitialData(0, 1000, -0.7), 1e5, self.CFG).g_problem
        with mp.workdps(prob.dps):
            for x in (3, 7.9):
                y = invert_G(x, prob, self.CFG)
                assert abs(compute_G(y, prob) - x) <= mp.mpf(10) ** (2 - prob.dps) * y


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


class TestExports:
    def test_csv_shape_and_determinism(self, traj):
        text = trajectory_to_csv(traj, [0.5, 1.0, 200.0])
        lines = text.strip().split("\n")
        assert lines[0] == "t,h,hprime"
        assert len(lines) == 4
        assert text == trajectory_to_csv(traj, [0.5, 1.0, 200.0])

    def test_csv_digits(self, traj):
        text = trajectory_to_csv(traj, [1.0])
        h_field = text.strip().split("\n")[1].split(",")[1]
        digits = h_field.replace(".", "").replace("-", "").lstrip("0")
        assert len(digits) >= 16
