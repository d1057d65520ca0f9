"""CLI contract tests: output shapes, exit codes, determinism.

Everything goes through main(argv) directly; no subprocesses, so the
suite stays fast and failures carry tracebacks.  Every run counts the
calls that start numeric work, and an exit-2 refusal must have made none.
"""

import gc
import hashlib
import json
import math
import os
import platform
import sys
from collections import Counter

import mpmath
import pytest

from asymptode import asympt, cli, families, numerics
from asymptode.cli import main
from asymptode.errors import AccuracyError

# the numeric work that bad arguments must be refused before
WORK = ("compute_c_for_data", "integrate_h", "lambert_wm1_numeric")
work_calls = Counter()


@pytest.fixture(autouse=True)
def count_work(monkeypatch):
    for name in WORK:
        original = getattr(numerics, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            work_calls[_name] += 1
            return _original(*args, **kwargs)

        for module in (numerics, asympt, cli):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)


def run(capsys, *argv):
    work_calls.clear()
    code = main(list(argv))
    captured = capsys.readouterr()
    if code == 2:
        assert not work_calls, argv
    return code, captured.out, captured.err


class TestSeries:
    def test_beta_table_matches_known_values(self, capsys):
        code, out, _ = run(capsys, "series", "--family", "beta", "--order", "4")
        assert code == 0
        assert "beta[2] = -21/16" in out
        assert "beta[4] = -7245/256" in out

    def test_alpha_order_zero(self, capsys):
        code, out, _ = run(capsys, "series", "--family", "alpha", "--order", "0")
        assert code == 0
        assert out == "alpha[0] = 1\n"

    def test_q_json(self, capsys):
        code, out, _ = run(capsys, "series", "--family", "q", "--order", "1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["family"] == "q"
        assert payload["entries"]["1"] == "3/16*z - 1/16*c"

    def test_lambert_family_csv(self, capsys):
        code, out, _ = run(capsys, "series", "--family", "lambert", "--order", "2", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,value"
        assert len(lines) == 4  # k = 0, 1, 2

    def test_q_order_zero_is_usage_error(self, capsys):
        code, _, err = run(capsys, "series", "--family", "q", "--order", "0")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("family", ["alpha", "beta", "p", "q", "lambert"])
    def test_order_above_ceiling_refused_before_work(self, capsys, monkeypatch, family):
        def refuse(n):
            raise AssertionError("generator called for order %d" % n)

        for name in ("gen_alpha", "gen_beta", "gen_p", "gen_q", "gen_lambert_p"):
            monkeypatch.setattr(cli, name, refuse)
        order = str(cli.MAX_SERIES_ORDER + 1)
        code, out, err = run(capsys, "series", "--family", family, "--order", order)
        assert code == 2
        assert out == ""
        assert "ceiling" in err
        code, _, _ = run(capsys, "series", "--family", family, "--order", "100000000")
        assert code == 2

    def test_order_at_ceiling_accepted(self, capsys):
        code, out, _ = run(capsys, "series", "--family", "beta", "--order", str(cli.MAX_SERIES_ORDER))
        assert code == 0
        assert out.count("\n") == cli.MAX_SERIES_ORDER + 1

    # SHA-256 of the stdout of `series --family F --order 30 --format json`,
    # recorded from the Fraction-arithmetic generators that preceded the
    # integer-polynomial ones: a changed coefficient cannot pass silently
    GOLDEN = {
        "p": "3d008b330cc1e4ffc5bff89c423dbe52ef5c62b65f194a86fa62186a09dcb16c",
        "q": "15161746b6134bfcbcb554a67c441e58800a24d2435e2fe3357f4cfd75a43a47",
        "lambert": "8750cce73082b9bc4056411c1f3c14409133d22f5bd5a2303a65e095b78b5ed9",
    }

    @pytest.mark.parametrize("family", sorted(GOLDEN))
    def test_order_30_json_is_pinned(self, capsys, family):
        code, out, _ = run(capsys, "series", "--family", family, "--order", "30", "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.GOLDEN[family]

    @pytest.mark.skipif(
        platform.python_implementation() != "CPython",
        reason="pymalloc blocks and tuple free lists are CPython's",
    )
    def test_cold_series_holds_no_growing_free_lists(self):
        # a tuple built from a generator is allocated at a guessed length
        # and resized; dead, it waits on the free list of its final length,
        # which the next such tuple does not take from.  With no collection
        # to empty those lists, repeated cold passes would hold ever more
        def cold_pass():
            for family in ("p", "q", "lambert"):
                families.clear_caches()
                assert main(["series", "--family", family, "--order", "20", "--out", os.devnull]) == 0

        gc.disable()
        try:
            for _ in range(5):
                cold_pass()
            before = sys.getallocatedblocks()
            for _ in range(20):
                cold_pass()
            grown = sys.getallocatedblocks() - before
        finally:
            gc.enable()
        assert grown < 2000, grown


class TestNumericPins:
    # SHA-256 of the stdout of the numeric commands, recorded from the mpf
    # Taylor recurrences that preceded the fixed-point kernels: the printed
    # numbers of the numeric layer cannot move silently either
    GOLDEN = {
        "constant --h0 1 --h1 1":
            "736291bf4871ccb0097f36ed4bd804eb4131c2f11cbd8fc7dad662222ff12e04",
        "constant --h0 2 --h1 0.5":
            "e38f0f8b7e16e5b5755a103095f3bab65e1a45ce311e785f61fc7979dd097eaa",
        # re-recorded when D1 became the reduction from t0 on its own g
        # problem: the rows are the 12 g steps' starts and S, read forward,
        # then the grid from S (t = 36.8), 33 rows in place of the 19 direct
        # steps, the switch and the grid from t = 129.0.  Before, when the
        # step control moved to doubles, 25 of the 36 times moved by at
        # most 1.2e-16 relative, with the same rows
        "integrate --t-max 1e6 --format csv":
            "9053bb8306f6729b3e39e3b3186c27e84e2e2a446e95a5baa6e8fc77fd2093e4",
        # re-recorded, with the two verify pins below, when D1 and D2 became
        # the reduction from t0: h_num moves below its 19 printed digits, and
        # the ratio column, which divides the remainder by its scale, by at
        # most 5e-12 relative, in digits that no bound certifies (the
        # trajectory bound at t = 1e6 is 2.26e-21)
        "verify --format json":
            "17d7d15fba84d53e05ccdf4b0d999f9063794f5ac4e60405738f620bf79371c4",
        # h1 <= 0: the rebasing route through integrate_h
        "constant --h0 1 --h1 -1":
            "a892769c66715e02785187e8dab22483aacd81f9550be096706541aaf2fda2d9",
        # 35 g steps
        "constant --h0 0.5 --h1 2 --rel-tol 1e-22 --abs-tol 1e-24":
            "aecd7d7dcc7a45b76ea905d840bdb7738b9ca16c4d1480e932468fe97e863255",
        # recorded while `lambert` still had a report type of its own
        "lambert":
            "653b1b60114c82938c0512fba3d2d72ecdb404c62fcddbde5ca9855c9bbb496f",
        "lambert --format csv":
            "40e714a4a45376266b0feb1efd3e269ba172b1a698cea0b46b5bcd33ce3b1bdb",
        "lambert --format json":
            "13074d98dd6493bcb63f3fa15bc0580262df69bfeb2aa03ca0bca81aabd88dc4",
        # recorded while each report had its own CSV and JSON writer
        "verify --format csv":
            "ee60448b07bdd980419e4179b371d25fb29df06ca8252226e0e3d882600f8be4",
        "verify --format json --h0 2 --h1 0.5":
            "b3f7931a67c21de9b11e9017f2cd4f195392d8fc3b5ce1eed62cacbdc87a7a1b",
        "verify --synthetic 5 --format csv":
            "9544e2650e517eca52450b3e251ba57c3af4b20594f2a1bc4fa87527b4bab0e8",
        "lambert --n-max 1 --x-grid 10,100 --format json":
            "db81da42ef243ff019074a1971307973f8e6d0820bc30ad5eb411558a4891b76",
        # refused by their own g problem, resolved through the trajectory's
        # switch problem; recorded when that fallback came in, and each c
        # agrees with its rel 1e-30 run (TestConstant.REFERENCE)
        "constant --h0 1.5 --h1 3":
            "6ac8e21edea18e4762ecaee5dfaca1dabf389a6701bc933d95dabcffedb38045",
        "constant --h0 1000 --h1 1":
            "9aed48e936bc32cc5851cc76ace5dca2e4a2d476032735f3cf90cc1ef91a6159",
        # a negative value in exponent form (TestContract.EXPONENT_FORM);
        # recorded from --h1=-9e-06, the one spelling argparse took before
        "constant --h1 -9e-06":
            "adc76771b3104c17b32847e7a01142ff7eb396a37e1c415e5e91709f1616e570",
    }

    # SHA-256 of the stderr of refusals: each gate prints its bound in full
    GOLDEN_STDERR = {
        # the two gated refusals (trajectory bound, Lambert root), recorded
        # while each had a gate loop of its own; the verify refusal
        # re-recorded when D1 became the reduction from t0, whose bound at
        # t = 1e6 reads 2.261e-21 (2.269e-21 through the direct span)
        "verify --n-max 4":
            "09bed1bf775ca0068d29827d3cb172b324ebb0adabdc092d9f1904accfbbc0ae",
        # refused at its first point, as the one-point grid 1e300 was
        # when this was recorded
        "lambert --x-grid 1e300,1e301":
            "b4e7780baae6596bdb3598c490c7bda6ea3e4e95f9226bec6d98ecb227919dc7",
    }

    @pytest.mark.parametrize("command", sorted(GOLDEN))
    def test_stdout_is_pinned(self, capsys, command):
        code, out, _ = run(capsys, *command.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.GOLDEN[command]

    @pytest.mark.parametrize("command", sorted(GOLDEN_STDERR))
    def test_refusal_is_pinned(self, capsys, command):
        code, out, err = run(capsys, *command.split())
        assert (code, out) == (3, "")
        assert hashlib.sha256(err.encode()).hexdigest() == self.GOLDEN_STDERR[command]


class TestIntegrate:
    def test_csv_shape(self, capsys):
        code, out, _ = run(capsys, "integrate", "--t-max", "100", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,h,hprime"
        assert len(lines) > 3
        for line in lines[1:]:
            t, h, hp = (float(part) for part in line.split(","))
            assert h > 0

    def test_csv_times_far_from_zero_stay_distinct(self, capsys):
        # from t0 = 1e25 the elapsed times below 1e9 need 27 digits beside
        # t0: every row's t prints distinct, ascending, and each of the 13
        # rows of D1's own g march (t < 37) is the t0 = 0 row, which prints
        # t at 17 digits
        code, out, _ = run(capsys, "integrate", "--t0", "1e25", "--t-max", "1.0000000001e25", "--format", "csv")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        with mpmath.workdps(40):
            times = [mpmath.mpf(t) for t, _, _ in rows]
            assert len(set(times)) == len(times) and times == sorted(times)
        assert rows[1][0] == "10000000000000000905969664.2"
        code, out, _ = run(capsys, "integrate", "--t-max", "1e9", "--format", "csv")
        assert [row[1:] for row in rows[:13]] == [line.split(",")[1:] for line in out.strip().splitlines()[1:14]]
        assert out.splitlines()[2].split(",")[0] == "0.16298713864901134"

    def test_json_has_stats_and_samples(self, capsys):
        code, out, _ = run(capsys, "integrate", "--t-max", "100", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["stats"]["steps"] > 0
        assert set(payload["samples"][0]) == {"t", "h", "hprime"}

    def test_bad_data_is_usage_error(self, capsys):
        code, _, err = run(capsys, "integrate", "--h0", "-1")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("integrate", "--h0", "inf"),
            ("integrate", "--h1", "nan"),
            ("integrate", "--t0", "inf"),
            ("integrate", "--t-max", "inf"),
            ("integrate", "--rel-tol", "inf"),
            ("constant", "--abs-tol", "inf"),
            ("verify", "--growth-factor", "nan"),
            ("lambert", "--growth-factor", "nan"),
            ("verify", "--shift-tol", "nan"),
            ("lambert", "--residual-tol", "nan"),
            ("verify", "--synthetic", "4", "--t-grid", "1e2,1e3", "--shift", "nan"),
            ("verify", "--synthetic", "4", "--t-grid", "1e2,1e3", "--shift", "inf"),
        ],
    )
    def test_non_finite_input_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "must be finite" in err


    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--shift-tol", "-1"),
            ("verify", "--shift-tol", "0"),
            ("lambert", "--residual-tol", "-1"),
            ("lambert", "--residual-tol", "0"),
        ],
    )
    def test_non_positive_limit_is_usage_error(self, capsys, argv):
        # no run can stay within a limit of zero or below
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "must be positive" in err


class TestConstant:
    def test_known_constant(self, capsys):
        code, out, _ = run(capsys, "constant", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["c"].startswith("-18.644415060418059")

    def test_table_format(self, capsys):
        code, out, _ = run(capsys, "constant")
        assert code == 0
        assert out.startswith("c = -18.6444150604")

    @pytest.mark.parametrize("digits", ["0", "-3", "39", "100"])
    def test_digits_outside_working_precision_is_usage_error(self, capsys, digits):
        # the defaults work at 38 digits; more would print rounding noise
        code, out, err = run(capsys, "constant", "--digits", digits)
        assert (code, out) == (2, "")
        assert "--digits" in err

    def test_digits_up_to_working_precision(self, capsys):
        code, out, _ = run(capsys, "constant", "--digits", "38")
        assert code == 0
        assert out.startswith("c = -18.644415060418059")
        assert len(out.split("=")[1].strip().lstrip("-").replace(".", "")) == 38

    @pytest.mark.parametrize(
        "name,patch",
        [("_MAX_STEPS", 3), ("_tail_estimate", lambda *args: math.inf)],
    )
    def test_integrator_failure_exits_3(self, capsys, monkeypatch, name, patch):
        # (0.5, 2) goes to its own g problem, then to the direct march of
        # the switch route: a step budget run out or a collapsed step in
        # both is a numerical failure, not a usage problem
        monkeypatch.setattr(numerics, name, patch)
        code, out, err = run(capsys, "constant", "--h0", "0.5", "--h1", "2")
        assert (code, out) == (3, "")
        assert "step" in err

    # c at rel 1e-30, abs 1e-32, 28 digits, for data whose own g problem
    # the CLI defaults or rel 1e-10 refuse: the data's own problem where
    # rel 1e-30 resolves it, the trajectory's switch problem otherwise
    REFERENCE = {
        (1.5, 3): "-416.7783041536585301880540627",  # own problem
        (1, 3): "-284.562431414803484591908067",  # own problem
        (2, 2): "-248.2797810488278038150572036",  # own problem
        (1e-3, 1): "-1000008283162.830186114608354",
        (1000, 1): "-1004006003914.106942649552687",
        (0.1, 10): "-41419.06430294795184448415773",
        (5, 5): "-9981.145233935605671985302543",
        (200, 1e-9): "-1599999932.452191603298799872",
        (0.5, 2): "-117.974325628368916643013323",  # own problem
        (3, 0.1): "-75.21216399523723588800631081",  # own problem
    }

    @pytest.mark.parametrize(
        "h0, h1, rel, abs_",
        [(h0, h1, "1e-18", "1e-20") for h0, h1 in list(REFERENCE)[:8]]
        + [(0.5, 2, "1e-10", "1e-12"), (3, 0.1, "1e-10", "1e-12")],
    )
    def test_refused_problem_resolves_through_the_switch(self, capsys, h0, h1, rel, abs_):
        code, out, err = run(capsys, "constant", "--h0", repr(h0), "--h1", repr(h1),
                             "--rel-tol", rel, "--abs-tol", abs_)
        assert (code, err) == (0, "")
        with mpmath.workdps(40):
            c = mpmath.mpf(out.removeprefix("c = "))
            ref = mpmath.mpf(self.REFERENCE[(h0, h1)])
            assert abs(c - ref) <= float(rel) * abs(ref)

    @pytest.mark.parametrize("rel", [1e-8, 1e-10, 1e-14, 1e-22])
    def test_refused_problems_resolve_at_every_tolerance(self, rel):
        # the function `constant` calls, at more digits than it prints;
        # rel 1e-18 is the CLI default, checked above
        for (h0, h1), text in self.REFERENCE.items():
            cfg = numerics.SolverConfig(rel_tol=rel, abs_tol=rel / 100)
            c = numerics.compute_c_for_data(numerics.InitialData(0, h0, h1), cfg)
            with mpmath.workdps(40):
                assert abs(c - mpmath.mpf(text)) <= rel * abs(mpmath.mpf(text)), (h0, h1)

    def test_both_refusals_are_named(self, capsys, monkeypatch):
        # the data's own problem is tried once per run, then the switch
        # problem: with the fit, and in verify, c and the trajectory come
        # from the one route
        for command in ("constant", "constant --fit", "verify"):
            refusals = iter(["own problem refused", "switch problem refused"])

            def refuse(*args, **kwargs):
                raise AccuracyError(next(refusals))

            monkeypatch.setattr(numerics, "solve_g", refuse)
            code, out, err = run(capsys, *command.split(), "--h0", "1.5", "--h1", "3")
            assert (code, out) == (3, ""), command
            assert "own problem refused" in err and "switch problem refused" in err, command
            assert next(refusals, None) is None, command

    @pytest.mark.parametrize(
        "command, marches",
        [("verify", 1), ("constant --fit", 1), ("verify --h1 -1", 2), ("constant --fit --h1 -1", 2),
         ("verify --t-grid 10,50 --n-max 1", 2)],
    )
    def test_one_g_problem_per_run(self, capsys, monkeypatch, command, marches):
        # c and the trajectory share one g problem: solve_g runs once per
        # verify and per constant --fit, and a march runs once per problem
        # and per transient.  A trajectory that ends before its switch (the
        # grid to 50) leaves c its own problem; the trajectory then marches
        # directly
        counts = Counter()
        for name in ("solve_g", "_march"):
            original = getattr(numerics, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(numerics, name, counted)
        code, _, _ = run(capsys, *command.split())
        assert code in (0, 1)
        assert counts == {"solve_g": 1, "_march": marches}


class TestVerify:
    def test_synthetic_self_test_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--synthetic", "4", "--n-max", "2",
            "--t-grid", "1e2,1e3,1e4",
        )
        assert code == 0
        assert out.strip().endswith("PASS")

    def test_synthetic_json_payload(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--synthetic", "4", "--n-max", "2",
            "--t-grid", "1e2,1e3,1e4", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert payload["shift"]["ok"] is True
        assert payload["report"]["growth"]["2"]

    def test_real_integration_small_grid(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--n-max", "1", "--t-grid", "1e2,1e3",
            "--rel-tol", "1e-14", "--abs-tol", "1e-16",
        )
        assert code == 0
        assert out.strip().endswith("PASS")

    def test_growth_failure_exits_1(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--synthetic", "4", "--n-max", "2",
            "--t-grid", "1e2,1e3", "--growth-factor", "1e-12",
        )
        assert code == 1
        assert out.strip().endswith("FAIL")

    def test_loose_tolerances_exit_3(self, capsys):
        code, _, err = run(
            capsys, "verify", "--n-max", "2", "--t-grid", "1e5,1e6",
            "--rel-tol", "1e-6", "--abs-tol", "1e-8",
        )
        assert code == 3
        assert "error" in err

    def test_synthetic_order_must_exceed_n_max(self, capsys):
        code, _, err = run(capsys, "verify", "--synthetic", "2", "--n-max", "2")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "grid, message",
        [
            ("1e6", "the growth test needs a grid of at least two distinct points"),
            ("0.5,1e3", "remainder normalisation needs t > 1"),
        ],
        ids=["one-point", "t-not-above-1"],
    )
    def test_bad_grid_refused_before_any_work(self, capsys, monkeypatch, grid, message):
        def no_work(*args):
            raise AssertionError("c computed for a grid the study refuses")

        monkeypatch.setattr(cli, "compute_c_for_data", no_work)
        code, out, err = run(capsys, "verify", "--t-grid", grid)
        assert (code, out, err) == (2, "", "error: %s\n" % message)


class TestLambert:
    def test_default_run_passes(self, capsys):
        code, out, _ = run(capsys, "lambert", "--x-grid", "10,100,1e3")
        assert code == 0
        assert out.strip().endswith("PASS")

    def test_csv_rows(self, capsys):
        code, out, _ = run(capsys, "lambert", "--n-max", "1", "--x-grid", "10,100", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,x,y_num,Y_n,ratio"
        assert len(lines) == 1 + 2 * 2

    def test_high_precision_run_passes(self, capsys):
        # the numeric root must be resolved to the working precision, or
        # the remainders above n = 3 are root error and grow
        code, out, _ = run(
            capsys, "lambert", "--n-max", "6",
            "--rel-tol", "1e-30", "--abs-tol", "1e-32",
        )
        assert code == 0
        assert out.strip().endswith("PASS")

    def test_unresolvable_remainder_exits_3(self, capsys):
        # at x = 1e300 the root is resolved to about 1e275, far above the
        # remainder scale (ln x / x)^(n+1); this used to print PASS on
        # remainders of 0.0
        code, out, err = run(capsys, "lambert", "--x-grid", "1e300,1e301")
        assert code == 3
        assert out == ""
        assert "resolution" in err and "n = 0" in err and "x = 1e+300" in err

    def test_impossible_residual_exits_1(self, capsys):
        code, out, _ = run(capsys, "lambert", "--x-grid", "10,100", "--residual-tol", "1e-60")
        assert code == 1
        assert out.strip().endswith("FAIL")


class TestContract:
    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert run(capsys)[0] == 2

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run(capsys, "constant", "--frobnicate")[0] == 2

    def test_bad_grid_is_usage_error(self, capsys):
        assert run(capsys, "verify", "--t-grid", "1e2,banana")[0] == 2

    # a negative value in exponent form after each float option: argparse
    # took -9e-06 for an option and exited 2 with "expected one argument"
    EXPONENT_FORM = (
        "constant --h1 -9e-06",
        "integrate --t0 -1e-3 --t-max 10 --format csv",
        "integrate --h0 -1e-3",
        "integrate --t-max -1e1",
        "verify --synthetic 5 --shift -5e-1 --t-grid 1e2,1e3",
    )

    @pytest.mark.parametrize("command", EXPONENT_FORM)
    def test_negative_exponent_form_is_a_value(self, capsys, command):
        argv = command.split()
        i = next(i for i, arg in enumerate(argv) if arg[0] == "-" and arg[1].isdigit())
        joined = argv[: i - 1] + ["%s=%s" % (argv[i - 1], argv[i])] + argv[i + 1 :]
        spaced = run(capsys, *argv)
        assert spaced == run(capsys, *joined)
        assert "expected one argument" not in spaced[2]

    @pytest.mark.parametrize(
        "argv",
        [
            ("constant", "--h1", "-9e-06", "--digts", "5"),
            ("constant", "--hl", "-9e-06"),
            ("constant", "-9e-06"),
            ("constant", "--h1"),
        ],
    )
    def test_option_typo_is_usage_error(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (2, "")

    @pytest.mark.parametrize(
        "argv",
        [
            ("lambert", "--x-grid", "10,inf"),
            ("verify", "--t-grid", "1e2,nan"),
        ],
    )
    def test_non_finite_grid_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "grid points must be finite" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--t-grid", "1e2"),
            ("verify", "--t-grid", "1e3,1e3"),
            ("lambert", "--x-grid", "10"),
        ],
    )
    def test_one_point_grid_is_usage_error(self, capsys, argv):
        # the growth test compares the last grid point with the first: on
        # one point that is 1 by construction and would pass any limit
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "two distinct points" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("verify", "--n-max", "-1"), "expansion order must be nonnegative"),
            (("verify", "--growth-factor", "-1"), "growth factor must be finite and positive, got -1.0"),
            (("constant", "--fit", "--t-max", "inf"), "t_max must be finite, got +inf"),
            (("lambert", "--x-grid", "0.5"), "the growing branch needs x > 1"),
            (("lambert", "--x-grid", "0.5,1e2"), "the growing branch needs x > 1"),
            (("constant", "--fit", "--t-max", "0"), "t_max must exceed t0"),
            (("constant", "--fit", "--t0", "5", "--t-max", "4"), "t_max must exceed t0"),
            (("constant", "--fit", "--fit-order", "0"), "fitting c needs at least one expansion term"),
            (("integrate", "--t-max", "0"), "t_max must exceed t0"),
            (("integrate", "--t0", "5", "--t-max", "5"), "t_max must exceed t0"),
            (("constant", "--fit", "--t0", "100", "--t-max", "1000"),
             "t=10.0 outside the integrated range [100.0, 1200.0]"),
            (("verify", "--t0", "500", "--t-grid", "1e2,1e3"),
             "t=100.0 outside the integrated range [500.0, 1200.0]"),
            (("verify", "--shift", "-200"), "shift check needs t + s > 1, got -100 at t = 100"),
        ],
    )
    def test_bad_argument_refused_before_any_work(self, capsys, argv, message):
        # run() asserts that no numeric work started
        assert run(capsys, *argv) == (2, "", "error: %s\n" % message)

    def test_work_is_counted(self, capsys):
        # the counters run() reads see the work of a real run
        assert run(capsys, "verify", "--synthetic", "4", "--n-max", "2", "--t-grid", "1e2,1e3")[0] == 0
        assert work_calls["compute_c_for_data"] == 1
        assert run(capsys, "lambert", "--n-max", "1", "--x-grid", "10,100")[0] == 0
        assert work_calls["lambert_wm1_numeric"] == 2
        assert run(capsys, "integrate", "--t-max", "10")[0] == 0
        assert work_calls["integrate_h"] == 1

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run(capsys, "verify", "--synthetic", "4", "--n-max", "2",
                          "--t-grid", "1e2,1e3", "--format", "json")
        _, second, _ = run(capsys, "verify", "--synthetic", "4", "--n-max", "2",
                           "--t-grid", "1e2,1e3", "--format", "json")
        assert first == second

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "series.csv"
        code, out, _ = run(capsys, "series", "--family", "beta", "--order", "2",
                           "--format", "csv", "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("k,value")
