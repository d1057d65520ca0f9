"""Acceptance suite: one test per shipping criterion, timed.

Each test prints a single ``criterion N: PASS (X.XXs)`` line when its
assertions hold (run with ``-s`` to see them; under plain ``pytest -v``
the test outcome itself is the pass/fail line).  Time budgets are part
of the contract and asserted.  Every criterion builds what it needs
from scratch so the measured time is honest and the tests stay
independent; caches are cleared where generation speed is the thing
being measured.
"""

import time
from fractions import Fraction as F

from mpmath import mp

from asymptode import (
    AsymptoticModel,
    InitialData,
    SolverConfig,
    compute_G,
    compute_c_for_data,
    fit_c_from_trajectory,
    integrate_h,
    invert_G,
    g_problem_for_data,
    lambert_compare,
    remainder_study,
)
from asymptode.families import (
    clear_caches,
    gen_alpha,
    gen_beta,
    gen_lambert_p,
    gen_p,
    gen_q,
)
from asymptode.series import BivariatePoly
from series_oracle import degree, ode_residual_order

D1 = InitialData(0, 1, 1)
D2 = InitialData(0, 2, 0.5)
CFG_C = SolverConfig(rel_tol=1e-18, abs_tol=1e-20)
CFG_R = SolverConfig(rel_tol=1e-26, abs_tol=1e-28)


def _passed(num, t0, budget):
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, "criterion %d exceeded its %gs budget: %.2fs" % (num, budget, elapsed)
    print("criterion %d: PASS (%.2fs)" % (num, elapsed))


def test_criterion_01_low_order_sequences_exact():
    clear_caches()
    t0 = time.perf_counter()
    assert gen_alpha(3) == (F(1), F(3, 4), F(15, 8), F(483, 64))
    assert gen_beta(4) == (F(1), F(-3, 4), F(-21, 16), F(-165, 32), F(-7245, 256))
    _passed(1, t0, 1.0)


def test_criterion_02_polynomial_families_reproduce_displays():
    clear_caches()
    t0 = time.perf_counter()
    p = gen_p(3)
    assert p[0] == BivariatePoly({(0, 1): 3, (1, 0): -1})
    assert p[1] == BivariatePoly({(0, 1): 9, (0, 0): -21, (1, 0): -3})
    assert p[2] == BivariatePoly(
        {
            (0, 2): F(-27, 2),
            (0, 1): 90,
            (1, 1): 9,
            (0, 0): -228,
            (1, 0): -30,
            (2, 0): F(-3, 2),
        }
    )
    assert p[3] == BivariatePoly(
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
    q = gen_q(3)
    assert q[1] == BivariatePoly({(0, 1): F(3, 16), (1, 0): F(-1, 16)})
    assert q[2] == BivariatePoly(
        {
            (0, 2): F(-27, 512),
            (0, 1): F(9, 64),
            (1, 1): F(9, 256),
            (0, 0): F(-21, 64),
            (1, 0): F(-3, 64),
            (2, 0): F(-3, 512),
        }
    )
    assert q[3] == BivariatePoly(
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
    lam = gen_lambert_p(3)
    assert lam[0] == BivariatePoly({(0, 1): 1})
    assert lam[1] == BivariatePoly({(0, 1): 1})
    assert lam[2] == BivariatePoly({(0, 1): 1, (0, 2): F(-1, 2)})
    assert lam[3] == BivariatePoly({(0, 1): 1, (0, 2): F(-3, 2), (0, 3): F(1, 3)})
    _passed(2, t0, 1.0)


def test_criterion_03_reciprocity_through_order_30():
    clear_caches()
    t0 = time.perf_counter()
    a = gen_alpha(30)
    b = gen_beta(30)
    for n in range(31):
        total = sum(a[j] * b[n - j] for j in range(n + 1))
        assert total == (1 if n == 0 else 0), n
    _passed(3, t0, 1.0)


def test_criterion_04_ode_residual_order():
    clear_caches()
    t0 = time.perf_counter()
    for N in range(1, 16):
        assert ode_residual_order(N) >= N + 1, N
    _passed(4, t0, 5.0)


def test_criterion_05_degree_bounds_to_order_20():
    clear_caches()
    t0 = time.perf_counter()
    p = gen_p(20)
    q = gen_q(20)
    for n in range(1, 21):
        assert degree(p[n], "z") <= n, n
        assert degree(q[n], "z") <= n, n
    _passed(5, t0, 5.0)


def test_criterion_06_constant_two_routes_agree():
    t0 = time.perf_counter()
    for data in (D1, D2):
        c_quad = compute_c_for_data(data, CFG_C)
        traj = integrate_h(data, 1.2e6, CFG_C)
        c_fit = fit_c_from_trajectory(traj, n=4, t_fit=(1e4, 1e5, 1e6))
        with mp.workdps(CFG_C.effective_dps):
            assert abs(c_quad - c_fit) <= mp.mpf("1e-6"), (data.h0, data.h1)
    _passed(6, t0, 30.0)


def test_criterion_07_time_shift_law():
    t0 = time.perf_counter()
    c_base = compute_c_for_data(D1, CFG_C)
    traj = integrate_h(D1, 10, CFG_C)
    with mp.workdps(CFG_C.effective_dps):
        for s in (1, 5):
            shifted = InitialData(0, traj.eval_h(s), traj.eval_hprime(s))
            c_shift = compute_c_for_data(shifted, CFG_C)
            assert abs(c_shift - (c_base - 4 * s)) <= mp.mpf("1e-6"), s
    _passed(7, t0, 30.0)


def test_criterion_08_remainder_scaling():
    t0 = time.perf_counter()
    traj = integrate_h(D1, 1.2e6, CFG_R)
    c = compute_c_for_data(D1, CFG_R)
    model = AsymptoticModel.build(c, order=4, dps=CFG_R.effective_dps)
    grid = [1e2, 1e3, 1e4, 1e5, 1e6]
    rep = remainder_study(model, traj, 3, grid)
    for n in range(4):
        r_first = rep.remainders[(n, 1e2)]
        r_last = rep.remainders[(n, 1e6)]
        assert r_last <= 10 * r_first, (n, float(r_first), float(r_last))
    _passed(8, t0, 120.0)


def test_criterion_09_inversion_roundtrip_and_sandwich():
    t0 = time.perf_counter()
    problem, _ = g_problem_for_data(D1, CFG_C)
    with mp.workdps(problem.dps):
        for expo in (2, 3, 4, 5, 6):
            x = mp.mpf(10) ** expo
            y = invert_G(x, problem, CFG_C)
            assert abs(compute_G(y, problem) - x) <= mp.mpf("1e-9"), expo
            gap = y - x
            assert gap >= 0, expo
            assert gap <= x * (x - compute_G(x, problem)) / (x - 4), expo
    _passed(9, t0, 10.0)


def test_criterion_10_lambert_analogue():
    t0 = time.perf_counter()
    rep = lambert_compare(3, [10, 1e2, 1e3, 1e4, 1e5])
    assert rep.max_residual <= mp.mpf("1e-12")
    for n in rep.n_values:
        first = rep.remainders[(n, 10.0)]
        last = rep.remainders[(n, 1e5)]
        assert last <= 10 * first, n
    _passed(10, t0, 10.0)


def test_criterion_11_trajectory_shape():
    t0 = time.perf_counter()
    traj = integrate_h(D1, 1.2e6)
    pts = traj.samples()
    assert len(pts) > 10
    with mp.workdps(traj.stats["dps"]):
        quarter = mp.mpf(1) / 4
        for t, h, hp in pts:
            assert h > 0, float(t)
            gap = abs(h - (4 * t) ** quarter)
            assert gap <= 2, float(t)
            if t >= 100:
                assert gap <= mp.mpf("0.5"), float(t)
        # h' > 0 from some sample onward
        signs = [hp > 0 for _, _, hp in pts]
        k = signs.index(True)
        assert all(signs[k:]), "h' went negative again after turning positive"
    _passed(11, t0, 30.0)
