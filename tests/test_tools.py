"""The audit tools refuse a bad ``--tmp`` before any work, and the identity
audit runs every pinned CLI command.

``tools/bench_pairs.py`` and ``tools/cli_identity.py`` make their two
checkouts in a temporary directory under ``--tmp``.  A ``--tmp`` that is not
an existing directory exits 2 with a one-line message, before any revision
is resolved or exported and before any ``BENCH_<n>.json`` is written.
``cli_identity.COMMANDS`` holds each command once, and every command whose
output ``tests/test_cli.py`` pins, byte for byte or against another
spelling.
"""

import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
sys.path.insert(0, str(TOOLS))

import bench_pairs  # noqa: E402
import cli_identity  # noqa: E402
import test_cli  # noqa: E402


@pytest.mark.parametrize("plain_file", [False, True], ids=["absent", "file"])
@pytest.mark.parametrize(
    "tool, extra",
    [(bench_pairs, ["--n", "999999", "--seed", "1"]), (cli_identity, [])],
    ids=["bench_pairs", "cli_identity"],
)
def test_bad_tmp_is_refused(tool, extra, plain_file, tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(tool, "git", lambda *args: calls.append(("git", args)))
    monkeypatch.setattr(tool, "export", lambda *args: calls.append(("export", args)))
    bad = tmp_path / "bad"
    if plain_file:
        bad.write_text("")
    argv = ["--parent", "HEAD~1", "--change", "HEAD", "--tmp", str(bad)] + extra
    assert tool.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "--tmp %s is not an existing directory\n" % bad
    assert calls == []
    assert bad.exists() == plain_file
    assert not (bench_pairs.ROOT / "BENCH_999999.json").exists()


def test_identity_commands_are_distinct():
    commands = [" ".join(c) for c in cli_identity.COMMANDS]
    assert len(commands) == len(set(commands))


def test_identity_commands_hold_every_cli_pin():
    pins = test_cli.TestNumericPins
    pinned = set(pins.GOLDEN) | set(pins.GOLDEN_STDERR) | {
        "series --family %s --order 30 --format json" % family
        for family in test_cli.TestSeries.GOLDEN
    } | set(test_cli.TestContract.EXPONENT_FORM)
    commands = {" ".join(c) for c in cli_identity.COMMANDS}
    assert pinned <= commands, sorted(pinned - commands)
