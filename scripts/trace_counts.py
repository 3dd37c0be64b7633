"""Compare two trees' per-layer trace counts on the benchmark's workloads.

    python3 scripts/trace_counts.py BEFORE [AFTER] [--seed 1] [--seconds 2] \
        [--expect NAME ...]

BEFORE and AFTER are checkouts of this repository; AFTER defaults to the
one holding this script.  For each workload, each tree's own
``bench/run.py --workload W --seed S --seconds N --trace 1`` runs as a
subprocess, and the metrics of its last output line are compared: every
one whose unit is count, bits or ratio, except ``trace.overhead_ratio``,
which is a ratio of times.  It prints one line per metric that differs,
with both values, then a summary line.  Each ``--expect NAME`` (it may
be repeated) names a metric that a change is meant to move: its lines are
marked ``(expected)``, and a line names each expected metric that differs
on no workload.  It exits 1 when a metric not expected differs or an
expected one does not, 2 when a run fails or prints no result line, and 0
otherwise.
It uses the standard library only, and it changes nothing under bench/.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["kernel-tower", "groebner-classic", "cli-batch"]
COMPARED_UNITS = {"count", "bits", "ratio"}
SKIPPED = {"trace.overhead_ratio"}
HERE = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))


class RunFailed(Exception):
    """A benchmark run exited nonzero or printed no result line."""


def compared(result):
    """{metric: value} of the compared metrics of a result line's JSON."""
    return {name: metric["value"]
            for name, metric in json.loads(result)["metrics"].items()
            if metric["unit"] in COMPARED_UNITS and name not in SKIPPED}


def differences(before, after):
    """[(metric, before value, after value)] of the compared metrics that
    differ between two result lines, in BEFORE's order and then AFTER's; a
    metric one side lacks has the value None there."""
    a, b = compared(before), compared(after)
    names = list(a) + [name for name in b if name not in a]
    return [(name, a.get(name), b.get(name)) for name in names
            if a.get(name) != b.get(name)]


def run_trace(tree, workload, seed, seconds):
    """The result line of the tree's own traced benchmark run."""
    proc = subprocess.run(
        [sys.executable, os.path.join(tree, "bench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines or not lines[-1].startswith("{"):
        raise RunFailed("%s: %s exited %d: %s" % (
            tree, workload, proc.returncode, proc.stderr.strip()[-500:]))
    return lines[-1]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("before")
    parser.add_argument("after", nargs="?", default=HERE)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=2)
    parser.add_argument("--expect", action="append", default=[],
                        metavar="NAME")
    args = parser.parse_args(argv)
    trees = [os.path.abspath(args.before), os.path.abspath(args.after)]
    total = differ = 0
    unexpected = 0
    moved = set()
    for workload in WORKLOADS:
        try:
            before, after = [run_trace(tree, workload, args.seed,
                                       args.seconds) for tree in trees]
        except RunFailed as exc:
            print("run failed: %s" % exc)
            return 2
        total += len(compared(before))
        for name, a, b in differences(before, after):
            differ += 1
            expected = name in args.expect
            moved.add(name)
            unexpected += not expected
            print("%s %s: %s -> %s%s" % (workload, name, a, b,
                                         " (expected)" if expected else ""))
    print("%d of %d metrics differ over %d workloads (seed %d)"
          % (differ, total, len(WORKLOADS), args.seed))
    still = [name for name in dict.fromkeys(args.expect) if name not in moved]
    for name in still:
        print("expected %s differs on no workload" % name)
    return 1 if unexpected or still else 0


if __name__ == "__main__":
    sys.exit(main())
