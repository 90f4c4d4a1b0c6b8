"""The lines of `src/diffalg` that no tier-1 test runs, function by function.

Runs the tier-1 suite in this process with a line tracer (`sys.settrace`)
that records only frames of code under `src/diffalg`, then prints, for each
function that has any, the lines of its body that no test ran; a `def` line
(with its decorators) and the statements of a class body outside its
methods are not counted.  Lambdas, comprehensions and generator expressions
count as lines of the function that holds them.

The tracer is installed again around every test, by a pytest hook wrapper:
CPython unsets a trace function that raises, and a tracer set once for the
whole run stopped recording partway through an audit, which then reported
as never run lines that a single test shows running.

    python tests/line_audit.py [pytest arguments]

It imports `diffalg` from this checkout's `src`, needs nothing but the
standard library and pytest, and is not collected by pytest (its name
does not start with `test_`).  The whole of tier-1 took about 2 min 50 s
under the tracer on a 2-core machine, against about 35 s without it.
Under the tracer's slowdown the tests that time themselves fail, and so
can a bench test whose timer signal handler may run longer than its
period; the lines they ran up to the failure still count, and the exit
status is pytest's.
"""

import ast
import os
import sys
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "diffalg"
_PREFIX = str(SRC) + os.sep

_ran = defaultdict(set)         # file name -> line numbers run
_traced = {}                    # file name -> is it under src/diffalg?


def _local(frame, event, arg):
    if event == "line":
        _ran[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    traced = _traced.get(name)
    if traced is None:
        traced = _traced[name] = os.path.realpath(name).startswith(_PREFIX)
    return _local if traced else None


class _Tracer:
    """Installs the tracer for the setup, call and teardown of each test."""

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(self, item, nextitem):
        sys.settrace(_global)
        try:
            yield
        finally:
            sys.settrace(None)


def function_lines(path):
    """{function: its body lines that hold code}, for the functions and
    methods of the module at `path`."""
    text = path.read_text()
    skipped = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            skipped.add(node.lineno)
            skipped.update(d.lineno for d in node.decorator_list)
    lines = defaultdict(set)
    # (code object, the function its lines count for, or None for a module
    # or class body and what they hold outside functions)
    stack = [(compile(text, str(path), "exec"), None)]
    while stack:
        code, owner = stack.pop()
        if not code.co_flags & 0x2:             # no CO_NEWLOCALS: a body
            owner = None
        elif not code.co_name.startswith("<"):  # a def, not a lambda
            owner = getattr(code, "co_qualname", code.co_name) \
                .replace(".<locals>", "")
        if owner is not None:
            lines[owner].update(line for _, _, line in code.co_lines()
                                if line is not None and line not in skipped)
        stack.extend((c, owner) for c in code.co_consts
                     if hasattr(c, "co_code"))
    return lines


def main(argv):
    sys.path.insert(0, str(SRC.parent))
    os.chdir(ROOT)
    status = pytest.main(["-q", "-p", "no:cacheprovider", *argv],
                         plugins=[_Tracer()])
    ran = defaultdict(set)
    for name, lines in _ran.items():
        ran[os.path.realpath(name)] |= lines
    total = 0
    print()
    for path in sorted(SRC.glob("*.py")):
        done = ran[str(path)]
        for function, lines in sorted(function_lines(path).items(),
                                      key=lambda kv: min(kv[1], default=0)):
            missed = sorted(lines - done)
            if missed:
                total += len(missed)
                print(f"{path.name}:{function}: "
                      f"{', '.join(map(str, missed))}")
    print(f"{total} lines of src/diffalg that no test ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
