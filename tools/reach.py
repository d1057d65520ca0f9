"""What of src/ the CLI reaches: the functions and lines no command runs.

    python3 tools/reach.py

Runs every command of ``cli_identity.COMMANDS`` in-process, through
``asymptode.cli.main`` with stdout and stderr captured, under
``sys.settrace``, and records the lines each function of
``src/asymptode`` executes.  Lambdas and comprehensions count as lines
of the function that holds them.  Prints each function that no command
reaches, then each reached function with the lines that no command
reaches, then the counts.  A frame of a function whose lines have all
been reached is not traced further, so the run costs a few times the
untraced commands rather than a line event per executed line.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "asymptode"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))
from cli_identity import COMMANDS  # noqa: E402


def _key(code):
    return code.co_filename, code.co_qualname, code.co_firstlineno


def _lines(code):
    """The lines of code that can raise a line event: not the def line."""
    return {line for _, _, line in code.co_lines() if line is not None} - {code.co_firstlineno}


def functions(path):
    """{key of each code object in path: key of the named function that
    holds it}, and {key of each named function: its lines}."""
    owner, lines = {}, {}
    stack = [(compile(path.read_text(), str(path), "exec"), None)]
    while stack:
        code, parent = stack.pop()
        # a named function; not a module or class body, lambda or comprehension
        if code.co_flags & inspect.CO_NEWLOCALS and "<" not in code.co_name:
            parent = _key(code)
            lines[parent] = set()
        if parent is not None:
            owner[_key(code)] = parent
            lines[parent] |= _lines(code)
        stack.extend((c, parent) for c in code.co_consts if isinstance(c, types.CodeType))
    return owner, lines


def trace(argvs, files):
    """{key of each executed code object of files: the lines it ran}."""
    seen, remaining = {}, {}

    def on_call(frame, event, arg):
        code = frame.f_code
        if code.co_filename not in files:
            return None
        key = id(code)
        if key not in seen:
            seen[key] = (code, set())
            remaining[key] = _lines(code)
        if not remaining[key]:
            return None  # every line already reached
        ran, left = seen[key][1], remaining[key]

        def on_line(frame, event, arg):
            if event == "line":
                ran.add(frame.f_lineno)
                left.discard(frame.f_lineno)
            return on_line

        return on_line

    sys.settrace(on_call)
    try:
        from asymptode.cli import main  # traced too: functions run at import

        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                main(list(argv))
    finally:
        sys.settrace(None)
    return {_key(code): ran for code, ran in seen.values()}


def _spans(lines):
    """Sorted line numbers as text, runs of consecutive ones as a-b."""
    runs = []
    for line in sorted(lines):
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else "%d-%d" % (a, b) for a, b in runs)


def main():
    owner, lines = {}, {}
    for path in sorted(SRC.glob("*.py")):
        o, n = functions(path)
        owner.update(o)
        lines.update(n)
    ran = {key: set() for key in lines}
    for key, got in trace(COMMANDS, {str(p) for p in SRC.glob("*.py")}).items():
        if key in owner:
            ran[owner[key]] |= got

    def name(key):
        return "%s:%d %s" % (Path(key[0]).name, key[2], key[1])

    keys = sorted(lines, key=lambda key: (key[0], key[2]))
    never = [key for key in keys if not ran[key]]
    partly = [key for key in keys if ran[key] and lines[key] - ran[key]]
    print("functions no command reaches:")
    for key in never:
        print("  " + name(key))
    print("lines no command reaches, in reached functions:")
    for key in partly:
        print("  %s: %s" % (name(key), _spans(lines[key] - ran[key])))
    print("%d of %d functions never reached, %d partly reached, over %d commands"
          % (len(never), len(lines), len(partly), len(COMMANDS)))


if __name__ == "__main__":
    main()
