"""CLI contract tests: output shapes, exit codes, determinism.

Everything goes through main(argv) directly; no subprocesses, so the
suite stays fast and failures carry tracebacks.  Every run counts the
calls that start numeric work, and an exit-2 refusal must have made none.
"""

import gc
import hashlib
import json
import os
import platform
import sys
from collections import Counter

import pytest
from mpmath.libmp import finf

from asymptode import asympt, cli, families, numerics
from asymptode.cli import main

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
        "integrate --t-max 1e6 --format csv":
            "c9004cbb6429462ddbfeadb4585b5cff2211c6d90d9ff94b2e4e1bddf18ed271",
        "verify --format json":
            "ead25f63e022abf7eb38aa9d59e577175b9615416303714706a43b331307fc54",
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
            "e853ee321b7764207cb2e3d3384e24b9edef9a1bb28d336a663ec9c99071c43d",
        "verify --format json --h0 2 --h1 0.5":
            "91c3ca11b65b159d6ee091370f7f8fd8fe247ced242b1c7d4fcdc71b58a9e34b",
        "verify --synthetic 5 --format csv":
            "9544e2650e517eca52450b3e251ba57c3af4b20594f2a1bc4fa87527b4bab0e8",
        "lambert --n-max 1 --x-grid 10,100 --format json":
            "db81da42ef243ff019074a1971307973f8e6d0820bc30ad5eb411558a4891b76",
    }

    # SHA-256 of the stderr of refusals, recorded from the mpf step ends
    # that preceded the fixed-point ones: the handoff gate prints the
    # integrated g(z_c) and the summed step error estimates in full
    GOLDEN_STDERR = {
        "constant --h0 1.5 --h1 3":
            "7509ffdff57ffd191c02911dc975b0661d366c7518cec7039e5c53ff3332c910",
        # data below the series crossover that disagree with the series,
        # recorded while that check had a branch of its own
        "constant --h0 1000 --h1 1":
            "b69d670d5bc14a628ab2a7cc7cf047aed58a2c0f56b60665541ed46941f161d1",
        # the two gated refusals (trajectory bound, Lambert root), recorded
        # while each had a gate loop of its own
        "verify --n-max 4":
            "db6840613f5e63266e1523d3f2270cb4254b16910ca4a3112cdc5b09ade943d1",
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
        [("_MAX_STEPS", 3), ("_tail_estimate", lambda *args: finf)],
    )
    def test_integrator_failure_exits_3(self, capsys, monkeypatch, name, patch):
        # (0.5, 2) goes straight to the g integrator: a step budget run out
        # or a collapsed step is a numerical failure, not a usage problem
        monkeypatch.setattr(numerics, name, patch)
        code, out, err = run(capsys, "constant", "--h0", "0.5", "--h1", "2")
        assert (code, out) == (3, "")
        assert "step" in err


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
