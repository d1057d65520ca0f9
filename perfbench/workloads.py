"""The three workloads: their operations and the checks on their outputs.

An operation returns ``(ok, value, fingerprint)``.  ``ok`` false counts
the operation as failed; ``fingerprint`` is text that must be
byte-identical in every pass of a run; ``value`` is what ``check`` reads.
Checks run once per run, on the first pass, outside every timed region.
"""

from __future__ import annotations

import contextlib
import io
import math

from mpmath import mp

import oracles

GROWTH_LIMIT = 10  # the package's own default remainder growth factor


def _run_cli(pkg, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = pkg.cli.main(argv)
    return rc == 0, (rc, out.getvalue(), err.getvalue()), "%d\n%s" % (rc, out.getvalue())


class FamiliesCold:
    """Cold ``series`` calls at order 30 plus one high-precision ``lambert``."""

    ORDER = 30
    LAMBERT = ["lambert", "--n-max", "6", "--rel-tol", "1e-30", "--abs-tol", "1e-32"]
    LAMBERT_CFG = dict(rel_tol=1e-30, abs_tol=1e-32)
    LAMBERT_GRID = (1e1, 1e2, 1e3, 1e4, 1e5)  # the CLI's default --x-grid
    CHECK_ORDERS = (3, 10, 20, 30)
    CHECK_DPS = 1200  # resolves (ln X / X)^31 at X = 1e30 with room to spare

    def __init__(self, pkg, rng):
        self.pkg = pkg
        self.c_check = rng.uniform(-120.0, 0.0)
        self.ops = {
            "series-" + fam: (
                lambda fam=fam: _run_cli(pkg, ["series", "--family", fam, "--order", str(self.ORDER)])
            )
            for fam in ("p", "q", "lambert")
        }
        self.ops["lambert"] = lambda: _run_cli(pkg, self.LAMBERT)

    def prepare(self):
        # every fresh CLI process starts with empty family caches
        self.pkg.families.clear_caches()

    def check(self, first):
        problems = []
        if "series-lambert" in first:
            lam = oracles.parse_family(first["series-lambert"][1])
            expected = oracles.lambert_ptilde(self.ORDER)
            for n in range(self.ORDER + 1):
                if lam.get(n) != expected[n]:
                    problems.append("ptilde[%d] differs from the closed form of W_-1" % n)
        problems += self._check_lambert_root()
        if "series-p" not in first or "series-q" not in first:
            return problems
        p = oracles.parse_family(first["series-p"][1])
        q = oracles.parse_family(first["series-q"][1])
        if sorted(p) != list(range(self.ORDER + 1)) or sorted(q) != list(range(1, self.ORDER + 1)):
            return problems + ["series p/q printed the wrong set of indices"]
        betas = oracles.radial_betas(self.ORDER + 4)
        with mp.workdps(self.CHECK_DPS):
            c = mp.mpf(self.c_check)
            quarter = mp.one / 4
            for n in self.CHECK_ORDERS:
                # p_n: G(G^{-1}(X)) - X must be O((ln X / X)^(n+1)); a wrong
                # coefficient of p_k, k <= n, multiplies the normalised
                # residual by about X / ln X between the two X values
                res = []
                for X in (mp.mpf(10) ** 20, mp.mpf(10) ** 30):
                    y = oracles.ginv_expansion(p, c, X, n)
                    gap = oracles.g_expansion(betas, c, y, n + 2) - X
                    res.append(abs(gap) / (mp.log(X) / X) ** (n + 1))
                if not res[1] <= GROWTH_LIMIT * res[0]:
                    problems.append(
                        "p: normalised inversion residual at n=%d grows %s-fold"
                        % (n, mp.nstr(res[1] / res[0], 3))
                    )
                # q_k: A_n(t) against G^{-1}(4t)^(1/4), to O((4t)^(1/4) (ln t/t)^(n+1))
                res = []
                for t in (mp.mpf(10) ** 20, mp.mpf(10) ** 30):
                    a = oracles.profile_expansion(q, c, t, n)
                    b = oracles.ginv_expansion(p, c, 4 * t, n) ** quarter
                    res.append(abs(a - b) / ((4 * t) ** quarter * (mp.log(t) / t) ** (n + 1)))
                if not res[1] <= GROWTH_LIMIT * res[0]:
                    problems.append(
                        "q: normalised profile mismatch at n=%d grows %s-fold"
                        % (n, mp.nstr(res[1] / res[0], 3))
                    )
        return problems

    def _check_lambert_root(self):
        problems = []
        cfg = self.pkg.numerics.SolverConfig(**self.LAMBERT_CFG)
        with mp.workdps(cfg.effective_dps + 20):
            for x in self.LAMBERT_GRID:
                y = self.pkg.numerics.lambert_wm1_numeric(x, cfg)
                ref = oracles.lambert_root(mp.mpf(x))
                if not abs(y - ref) <= mp.mpf(cfg.fp_tol) / (1 - 1 / ref):
                    problems.append("Lambert root at x=%g is off by %s" % (x, mp.nstr(abs(y - ref), 3)))
        return problems


class Constant:
    """``constant`` at the CLI defaults over ten fixed initial data."""

    DATA = (
        (1, 1), (2, 0.5), (0.5, 2), (0.8, 1), (1.2, 1.5),
        (0.5, 0.5), (3, 0.1), (1, -1), (0.7, 0.3), (1.5, 1),
    )
    TOLS = dict(rel_tol=1e-18, abs_tol=1e-20)  # the CLI's defaults for `constant`
    FIT_TOL = 1e-6  # acceptance criterion 6
    DIGITS = 20  # the CLI's default --digits

    def __init__(self, pkg, rng):
        self.pkg = pkg
        self.ops = {
            "h0=%g,h1=%g" % d: (lambda d=d: _run_cli(pkg, ["constant", "--h0", repr(d[0]), "--h1", repr(d[1])]))
            for d in self.DATA
        }
        # a later point of each solution to re-base at
        self.t_rebase = {label: rng.uniform(1.0, 8.0) for label in self.ops}

    def prepare(self):
        pass

    def check(self, first):
        num = self.pkg.numerics
        asympt = self.pkg.asympt
        cfg = num.SolverConfig(**self.TOLS)
        problems = []
        with mp.workdps(cfg.effective_dps):
            for d, label in zip(self.DATA, self.ops):
                if label not in first:
                    continue
                _, out, _ = first[label]
                c = mp.mpf(out.split("=", 1)[1].strip())
                data = num.InitialData(0.0, *d)
                traj = num.integrate_h(data, 1.2e6, cfg)
                c_fit = asympt.fit_c_from_trajectory(traj, n=4, t_fit=(1e4, 1e5, 1e6))
                if not abs(c - c_fit) <= self.FIT_TOL:
                    problems.append("%s: c differs from the trajectory fit by %s" % (label, mp.nstr(abs(c - c_fit), 3)))
                t1 = self.t_rebase[label]
                rebased = num.InitialData(t1, traj.eval_h(t1), traj.eval_hprime(t1))
                c_rebased = num.compute_c_for_data(rebased, cfg)
                # solver tolerance on c, plus half a unit of the last printed digit
                tol = 100 * (cfg.rel_tol * max(1, abs(c)) + cfg.abs_tol)
                tol += mp.mpf(10) ** (math.floor(mp.log10(abs(c))) - self.DIGITS + 1) / 2
                if not abs(c - c_rebased) <= tol:
                    problems.append(
                        "%s: c changes by %s when re-based at t=%.3f"
                        % (label, mp.nstr(abs(c - c_rebased), 3), t1)
                    )
        return problems


class Trajectory:
    """Long trajectories at the ``verify`` tolerances and everything read off them."""

    DATA = {"D1": (0.0, 1.0, 1.0), "D2": (0.0, 2.0, 0.5)}
    TOLS = dict(rel_tol=1e-22, abs_tol=1e-24)  # the CLI's defaults for `verify`
    T_END = 1.2e6
    GRID = (1e2, 1e3, 1e4, 1e5, 1e6)
    N_MAX = 3
    SHIFT = 1.0
    SHIFT_TOL = 10.0  # the CLI's default --shift-tol
    FIT_TOL = 1e-6  # acceptance criterion 6
    ODE_T_MAX = 20.0
    ODE_DPS = 36  # the reference solver's precision, far below the 1e-26 bounds

    def __init__(self, pkg, rng):
        self.pkg = pkg
        self.cfg = pkg.numerics.SolverConfig(**self.TOLS)
        self.ops = {label: (lambda d=d: self._run(d)) for label, d in self.DATA.items()}
        self.t_ode = {
            label: sorted(rng.uniform(d[0], self.ODE_T_MAX) for _ in range(5)) + [self.ODE_T_MAX]
            for label, d in self.DATA.items()
        }

    def prepare(self):
        pass

    def _run(self, d):
        num, asympt = self.pkg.numerics, self.pkg.asympt
        traj = num.integrate_h(num.InitialData(*d), self.T_END, self.cfg)
        csv = num.trajectory_to_csv(traj)
        c_fit = asympt.fit_c_from_trajectory(traj, n=4)
        model = asympt.AsymptoticModel.build(c_fit, order=self.N_MAX, dps=self.cfg.effective_dps)
        rep = asympt.remainder_study(model, traj, self.N_MAX, self.GRID)
        defect = asympt.shift_invariance_check(model, self.N_MAX, self.SHIFT, self.GRID)
        a_n = {n: [asympt.eval_A_n(model, t, n) for t in self.GRID] for n in (4, 20)}
        value = dict(traj=traj, csv=csv, c_fit=c_fit, model=model, rep=rep, defect=defect, a_n=a_n)
        fingerprint = "\n".join(
            [csv, repr(c_fit), repr(defect)]
            + [repr(rep.growth(n)) for n in rep.n_values]
            + [repr(a) for n in (4, 20) for a in a_n[n]]
        )
        return True, value, fingerprint

    def check(self, first):
        num = self.pkg.numerics
        problems = []
        q = self.pkg.families.gen_q(20)
        q_terms = {k: dict(q[k].terms) for k in range(1, 21)}
        for label, d in self.DATA.items():
            if label not in first:
                continue
            v = first[label]
            traj = v["traj"]
            with mp.workdps(self.ODE_DPS):
                ref = oracles.ode_reference(*d)
                for t in self.t_ode[label]:
                    err = abs(traj.eval_h(t) - ref(t))
                    if not err <= traj.err_bound(t):
                        problems.append("%s: h(%.4f) off by %s, above its bound" % (label, t, mp.nstr(err, 3)))
                for row in v["csv"].splitlines()[1:]:
                    t, h, _ = (mp.mpf(x) for x in row.split(","))
                    if t <= self.ODE_T_MAX and not abs(h - ref(t)) <= 1e-16 * h + traj.err_bound(t):
                        problems.append("%s: csv row t=%s disagrees with the reference" % (label, row.split(",")[0]))
            rep = v["rep"]
            for n in rep.n_values:
                if not rep.growth(n) <= GROWTH_LIMIT:
                    problems.append("%s: R_%d grows %s-fold" % (label, n, mp.nstr(rep.growth(n), 3)))
            with mp.workdps(self.cfg.effective_dps):
                c_quad = num.compute_c_for_data(num.InitialData(*d), self.cfg)
                if not abs(v["c_fit"] - c_quad) <= self.FIT_TOL:
                    problems.append("%s: fitted c is %s from the quadrature c" % (label, mp.nstr(abs(v["c_fit"] - c_quad), 3)))
            if not v["defect"] <= self.SHIFT_TOL:
                problems.append("%s: shift defect %s" % (label, mp.nstr(v["defect"], 3)))
            dps = self.cfg.effective_dps
            with mp.workdps(dps + 20):
                for n, values in v["a_n"].items():
                    for t, a in zip(self.GRID, values):
                        ref_a = oracles.profile_expansion(q_terms, v["model"].c, mp.mpf(t), n)
                        if not abs(a - ref_a) <= mp.mpf(10) ** (10 - dps) * abs(ref_a):
                            problems.append("%s: eval_A_n(t=%g, n=%d) is mis-evaluated" % (label, t, n))
        return problems


WORKLOADS = {"families-cold": FamiliesCold, "constant": Constant, "trajectory": Trajectory}
