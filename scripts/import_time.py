"""Time a fresh ``import diffalg.cli``, and how it changed.

    python3 scripts/import_time.py BEFORE [AFTER] [--runs N]

BEFORE and AFTER are checkouts of this repository.  Each tree's src/ is
copied, without any __pycache__, to a temporary directory, and
``python -X importtime -c "import diffalg.cli"`` runs there N times
(default 15) per tree in child interpreters, the trees taking turns to go
first, in each of two modes:

- ``no-bytecode``: with PYTHONDONTWRITEBYTECODE=1 every run compiles
  diffalg from source, as the benchmark's set-up does;
- ``pycache``: with PYTHONPYCACHEPREFIX set to a temporary directory,
  which one untimed run per tree fills first, every run loads compiled
  code, as an installed CLI does.  Nothing is written into a tree.

For each mode it prints, in microseconds, the median self time of each
diffalg module and the median total: the cumulative time of each import
of a diffalg module that no other import nests, which holds the modules
diffalg brings along.  Given two trees, each figure reads ``BEFORE ->
AFTER (delta)``, the total with the ratio too, and a module in one tree
only counts as zero in the other.  It exits 2 when a tree has no
src/diffalg or a run fails.  It uses the standard library only.
"""
from __future__ import annotations

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

MODES = {"no-bytecode": "PYTHONDONTWRITEBYTECODE=1",
         "pycache": "PYTHONPYCACHEPREFIX set, cache filled"}
COMMAND = "import diffalg.cli"


class RunFailed(Exception):
    """A child interpreter could not import diffalg.cli."""


def parse(report):
    """(total, {diffalg module: self time}) in microseconds, from the
    ``-X importtime`` report of one run."""
    total, own = 0, {}
    for line in report.splitlines():
        if not line.startswith("import time:"):
            continue
        self_us, cumulative, name = line[len("import time:"):].split("|")
        module = name.strip()
        if not self_us.strip().isdigit() or module.split(".")[0] != "diffalg":
            continue
        own[module] = int(self_us)
        if len(name) - len(name.lstrip()) == 1:  # nested in no other import
            total += int(cumulative)
    return total, own


def run_once(src, mode, cache):
    """parse() of one child interpreter's import of diffalg.cli from src."""
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPYCACHEPREFIX", None)
    if mode == "no-bytecode":
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    else:
        env["PYTHONPYCACHEPREFIX"] = cache
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", COMMAND],
                          capture_output=True, text=True, env=env, timeout=120)
    if proc.returncode != 0:
        raise RunFailed("%s: %s" % (src, proc.stderr.strip().splitlines()[-1:]))
    return parse(proc.stderr)


def medians(samples):
    """(median total, {module: median self time}) of parse() results."""
    modules = sorted(set().union(*(own for _, own in samples)))
    return (statistics.median(total for total, _ in samples),
            {m: statistics.median(own.get(m, 0) for _, own in samples)
             for m in modules})


def measure(trees, runs):
    """{mode: [medians() per tree]}."""
    with tempfile.TemporaryDirectory() as tmp:
        srcs = []
        for k, tree in enumerate(trees):
            src = os.path.join(tmp, "tree%d" % k)
            shutil.copytree(Path(tree, "src"), src,
                            ignore=shutil.ignore_patterns("__pycache__"))
            srcs.append(src)
        results = {}
        for mode in MODES:
            cache = os.path.join(tmp, "pycache")
            if mode == "pycache":
                for src in srcs:
                    run_once(src, mode, cache)
            samples = [[] for _ in srcs]
            for r in range(runs):
                turn = list(range(len(srcs)))
                for k in turn[r % 2:] + turn[:r % 2]:
                    samples[k].append(run_once(srcs[k], mode, cache))
            results[mode] = [medians(s) for s in samples]
    return results


def cell(values, ratio=False):
    if len(values) == 1:
        return "%d" % values[0]
    before, after = values
    text = "%d -> %d (%+d" % (before, after, after - before)
    if ratio and before:
        text += ", x%.3f" % (after / before)
    return text + ")"


def table(per_tree):
    """The printed rows of one mode: each module's self time, then the
    total."""
    modules = sorted(set().union(*(own for _, own in per_tree)))
    rows = [("module", "self-us")]
    for m in modules:
        rows.append((m, cell([own.get(m, 0) for _, own in per_tree])))
    rows.append(("total", cell([total for total, _ in per_tree], True)))
    width = max(len(name) for name, _ in rows)
    return ["%s  %s" % (name.ljust(width), figure) for name, figure in rows]


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="scripts/import_time.py",
        description="Time a fresh import of diffalg.cli in each tree.")
    parser.add_argument("trees", nargs="+", metavar="TREE")
    parser.add_argument("--runs", type=int, default=15)
    args = parser.parse_args(argv)
    if len(args.trees) > 2 or args.runs < 1:
        parser.print_usage(sys.stderr)
        return 2
    for tree in args.trees:
        if not Path(tree, "src", "diffalg").is_dir():
            print("%s: no src/diffalg there" % tree, file=sys.stderr)
            return 2
    try:
        results = measure(args.trees, args.runs)
    except RunFailed as exc:
        print("import failed: %s" % exc, file=sys.stderr)
        return 2
    for mode, per_tree in results.items():
        print("%s (%s), median of %d runs" % (mode, MODES[mode], args.runs))
        for line in table(per_tree):
            print("  " + line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
