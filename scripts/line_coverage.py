"""Print the lines of diffalg that a tree's tier-1 tests never reach.

    python3 scripts/line_coverage.py [TREE]

TREE is a checkout of this repository; it defaults to the one holding this
script.  Its tier-1 tests (TREE/tests and TREE/bench/tests) run under
pytest in a child process, from a temporary directory and with
``-p no:cacheprovider --hypothesis-seed=1``, so that two trees draw the
same examples and no ``.hypothesis/`` or ``.pytest_cache`` is written
into TREE.  A
``sys.settrace`` tracer records each line of TREE/src/diffalg that runs; a
pytest plugin arms it again before each test's setup, call and teardown,
because a trace function that raises is switched off, as when a test
recurses until the stack overflows; the lines such a test runs after the
overflow count as unreached.  A line counts as executable
when a code object compiled from its module maps an instruction to it.
The report prints each unreached line as ``module:line: source``, then
the unreached and executable lines per module and in total.  Lines that
only a test's subprocess runs count as unreached.  It exits 2 when TREE
has no src/diffalg or the tests cannot run, 1 when a test fails (the
report is still printed) and 0 otherwise.  It uses the standard library
only, besides the pytest that runs the tests.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]


def executable_lines(path):
    """The line numbers that some instruction of the module at path maps
    to, in its code object or any nested one."""
    lines = set()
    codes = [compile(path.read_bytes(), str(path), "exec", dont_inherit=True)]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def trace_tests(tree, out):
    """Run the tier-1 tests of tree under the tracer, in this process, and
    write {module: [reached line, ...]} to out as JSON; pytest's exit
    code."""
    import pytest

    package = os.path.realpath(os.path.join(tree, "src", "diffalg")) + os.sep
    reached = {}  # filename -> set of reached lines
    ours = {}     # filename -> its set in reached, or None

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        lines = ours.get(filename, False)
        if lines is False:
            lines = ours[filename] = (
                reached.setdefault(filename, set())
                if os.path.realpath(filename).startswith(package) else None)
        if lines is None:
            return None
        lines.add(frame.f_lineno)
        return local

    class Rearm:
        """Arms the tracer again before each phase of each test."""

        def pytest_runtest_setup(self, item):
            sys.settrace(tracer)
            threading.settrace(tracer)

        pytest_runtest_call = pytest_runtest_teardown = pytest_runtest_setup

    paths = [p for p in (os.path.join(tree, "tests"),
                         os.path.join(tree, "bench", "tests"))
             if os.path.isdir(p)]
    sys.settrace(tracer)
    threading.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider",
                            "--continue-on-collection-errors",
                            "--hypothesis-seed=1"] + paths,
                           plugins=[Rearm()])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    report = {os.path.relpath(os.path.realpath(f), package): sorted(lines)
              for f, lines in reached.items()}
    Path(out).write_text(json.dumps(report))
    return int(code)


def unreached(tree, reached):
    """[(module, unreached lines, executable line count)] per module of
    tree's src/diffalg, in name order."""
    package = Path(tree, "src", "diffalg")
    out = []
    for path in sorted(package.rglob("*.py")):
        name = path.relative_to(package).as_posix()
        lines = executable_lines(path)
        out.append((name, sorted(lines - set(reached.get(name, ()))),
                    len(lines)))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="the lines of src/diffalg no tier-1 test reaches")
    parser.add_argument("tree", nargs="?", default=str(HERE))
    parser.add_argument("--trace-into", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    tree = os.path.abspath(args.tree)
    if args.trace_into:
        return trace_tests(tree, args.trace_into)
    if not Path(tree, "src", "diffalg").is_dir():
        print("%s: no src/diffalg there" % tree, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as work:
        out = os.path.join(work, "reached.json")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (
            os.path.join(tree, "src"), os.environ.get("PYTHONPATH")))))
        proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                               tree, "--trace-into", out],
                              cwd=work, env=env, capture_output=True,
                              text=True)
        if not os.path.exists(out):
            sys.stderr.write(proc.stdout + proc.stderr)
            return 2
        reached = json.loads(Path(out).read_text())
    rows = unreached(tree, reached)
    for name, lines, _ in rows:
        source = Path(tree, "src", "diffalg", name).read_text().splitlines()
        for line in lines:
            print("%s:%d: %s" % (name, line, source[line - 1].strip()))
    print()
    counts = [(name, len(lines), total) for name, lines, total in rows]
    counts.append(("total", sum(c[1] for c in counts),
                   sum(c[2] for c in counts)))
    width = max(len(name) for name, _, _ in counts)
    for name, count, total in counts:
        print("%s  %5d of %5d" % (name.ljust(width), count, total))
    summary = proc.stdout.strip().splitlines()
    print("pytest: %s" % (summary[-1] if summary else "no output"))
    return 1 if proc.returncode else 0


if __name__ == "__main__":
    sys.exit(main())
