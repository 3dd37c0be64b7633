"""Time the inputs that are slow or hang, each in a fresh process, on one
or two trees.

    python3 scripts/slow_inputs.py BEFORE [AFTER] [--cap S] [--only NAME ...]

BEFORE and AFTER are checkouts of this repository.  Each row below runs
once per tree, BEFORE first, in a new ``python3`` whose PYTHONPATH is that
tree's src/, killed after ``--cap`` seconds (default 60).  The rows are the
swell ideal (``check-containment --shape naive`` and ``prolong-variety
--k 1``), the swell kernel (``kernel-prolong --to 2`` and ``--to 3``), the
rational power ``f ** e`` at e = 5, 6 and 7, printed by ``print_poly``,
``(x1_[0] + 1)^3000`` under ``prolong-variety --all``, the integer power
``3^100000000*x1_[0]`` and the power of a two-term coefficient
``(t1 + 1)^100000*x1_[0]``, each under ``prolong-variety --k 1``.
``--only NAME`` (it may be repeated) keeps only the named rows.

For each row and tree it prints the seconds, the exit code, the bytes of
stdout and the first 12 hex digits of their sha256; a row killed at the
cap reads ``>CAP`` with no exit code.  It exits 1 when two trees' stdout
bytes or exit codes differ on a row that both finished, and 2 on an
unknown row name.  It uses the standard library only.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
import time

SWELL_IDEAL = """\
m=2 n=2 gamma=1 mode=rational
(t2 - 1)/(t2 + 1)*x1_[0,0]*x2_[0,0] - (t2 - 2)/(t2)*x1_[0,0]^2 \
- (t2 - 1)/(t1 + 1)*x2_[0,0]
-(t1 + 3)/(t1)*x2_[0,0]^2 + 3/(t1 + 2)*x1_[0,0]*x2_[0,0]
"""
SWELL_KERNEL = """\
m=1 n=2 length=1 mode=rational
(-t1 + 1)*x1_[1] + 1/2*x1_[0]*x2_[1] + x1_[0]
-x1_[1]*x2_[1] + 1/(t1 + 1)*x2_[0] + t1
"""
BIG_POWER = """\
m=1 n=1 gamma=1 mode=constants
(x1_[0] + 1)^3000
"""
INT_POWER = """\
m=1 n=1 gamma=0 mode=constants
3^100000000*x1_[0]
"""
T_POWER = """\
m=1 n=1 gamma=0 mode=rational
(t1 + 1)^100000*x1_[0]
"""
RATIONAL_POWER = """\
import sys
from diffalg.coeff import FieldMode
from diffalg.dpoly import Context, parse_poly, print_poly
ctx = Context(n=2, m=2, mode=FieldMode("rational", 2))
f = parse_poly("x1_[0,0]*x2_[0,0]/(t1 + 1) - 3/2*x2_[0,0] + t2/(t2 - 1)", ctx)
print(print_poly(f ** int(sys.argv[1])))
"""
CLI = ["-m", "diffalg.cli"]

# name -> (input file name, input text, python arguments after the file)
ROWS = {
    "swell-ideal-naive": ("swell.ideal", SWELL_IDEAL,
                          CLI + ["check-containment", "{}", "--shape",
                                 "naive"]),
    "swell-ideal-prolong": ("swell.ideal", SWELL_IDEAL,
                            CLI + ["prolong-variety", "{}", "--k", "1"]),
    "swell-kernel-2": ("swell.kernel", SWELL_KERNEL,
                       CLI + ["kernel-prolong", "{}", "--to", "2"]),
    "swell-kernel-3": ("swell.kernel", SWELL_KERNEL,
                       CLI + ["kernel-prolong", "{}", "--to", "3"]),
    "rational-power-5": (None, None, ["-c", RATIONAL_POWER, "5"]),
    "rational-power-6": (None, None, ["-c", RATIONAL_POWER, "6"]),
    "rational-power-7": (None, None, ["-c", RATIONAL_POWER, "7"]),
    "power-3000": ("power.ideal", BIG_POWER,
                   CLI + ["prolong-variety", "{}", "--all"]),
    "int-power": ("int-power.ideal", INT_POWER,
                  CLI + ["prolong-variety", "{}", "--k", "1"]),
    "t-power": ("t-power.ideal", T_POWER,
                CLI + ["prolong-variety", "{}", "--k", "1"]),
}


def run_row(tree, name, cap, workdir):
    """(seconds, exit code, stdout bytes) of one row on tree; the exit code
    and stdout are None when the row ran past cap seconds."""
    filename, text, args = ROWS[name]
    if filename:
        path = os.path.join(workdir, filename)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        args = [path if a == "{}" else a for a in args]
    env = dict(os.environ,
               PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable] + args, cwd=workdir, env=env,
                              capture_output=True, timeout=cap)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, None, None
    return time.perf_counter() - start, proc.returncode, proc.stdout


def differs(results):
    """Whether the finished results [(seconds, code, stdout), ...] of one
    row disagree on the exit code or the stdout bytes."""
    done = {(code, out) for _, code, out in results if code is not None}
    return len(done) > 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("trees", nargs="+", metavar="TREE")
    parser.add_argument("--cap", type=float, default=60.0)
    parser.add_argument("--only", action="append", metavar="NAME")
    args = parser.parse_args(argv)
    if len(args.trees) > 2:
        parser.error("at most two trees")
    names = args.only or list(ROWS)
    unknown = [n for n in names if n not in ROWS]
    if unknown:
        print("unknown row %s; rows are %s"
              % (", ".join(unknown), ", ".join(ROWS)), file=sys.stderr)
        return 2
    labels = ["BEFORE", "AFTER"][:len(args.trees)]
    print("%-20s %-6s %8s %4s %9s  %s"
          % ("row", "tree", "seconds", "exit", "bytes", "sha256"))
    failed = []
    with tempfile.TemporaryDirectory() as workdir:
        for name in names:
            results = [run_row(tree, name, args.cap, workdir)
                       for tree in args.trees]
            for label, (seconds, code, out) in zip(labels, results):
                if code is None:
                    print("%-20s %-6s %8s" % (name, label, ">%g" % args.cap))
                    continue
                print("%-20s %-6s %8.2f %4d %9d  %s"
                      % (name, label, seconds, code, len(out),
                         hashlib.sha256(out).hexdigest()[:12]))
            if differs(results):
                failed.append(name)
    if failed:
        print("outputs differ: %s" % ", ".join(failed))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
