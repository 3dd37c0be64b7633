"""Time two trees' diffalg side by side on the benchmark's jobs, to size a
change before claiming it.

    python3 scripts/pair_timing.py BEFORE [AFTER] --workload cli-batch \
        --seed 6 --rounds 5 [--family large-input ...] [--jobs 0:50]

BEFORE and AFTER are checkouts of this repository; AFTER defaults to the
one holding this script, whose bench/ builds the jobs.  Both trees'
diffalg packages are loaded into this one process, each from its own src/.
Every round builds the jobs of a fresh variant for each tree and runs each
job on both, alternating which tree goes first.  It prints, per job family
(the job name without its trailing ``-<n>``), the median over the family's
jobs of each job's median time, the ratio AFTER / BEFORE and, as "won",
the rounds in which AFTER's jobs of the family took less time in total
than BEFORE's, which tells a ratio that repeats from one that a single
round moved; the next line sums the per-job medians over all jobs, with
the rounds won over all jobs, and the last one counts those rounds
again.  Each ``--family NAME`` (it may be repeated) keeps only that
family's jobs, and ``--jobs START:STOP`` then keeps a slice of what is
left.  It exits 1 when any job's rendered output differs between the
trees, and 2 when no job is left to run.

Times are raw perf_counter seconds in one process, with no calibration
loop, so they serve for sizing only; a claimed gain still comes from
bench/run.py.  It uses the standard library only, and it imports bench/
without changing anything there.
"""
from __future__ import annotations

import argparse
import importlib
import os
import re
import statistics
import sys
import tempfile
import time

WORKLOADS = {"kernel-tower": "kernel_tower",
             "groebner-classic": "groebner_classic",
             "cli-batch": "cli_batch"}
HERE = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))


def _diffalg_modules():
    return [k for k in sys.modules
            if k == "diffalg" or k.startswith("diffalg.")]


def load_tree(tree):
    """Import TREE/src/diffalg and return the package, leaving sys.modules
    as it was: the package keeps its own submodules, so two trees' copies
    live side by side."""
    src = os.path.join(os.path.abspath(tree), "src")
    saved = {k: sys.modules.pop(k) for k in _diffalg_modules()}
    sys.path.insert(0, src)
    try:
        api = importlib.import_module("diffalg")
        importlib.import_module("diffalg.cli")
        importlib.import_module("diffalg.files")
    finally:
        sys.path.remove(src)
        for k in _diffalg_modules():
            del sys.modules[k]
        sys.modules.update(saved)
    if not os.path.abspath(api.__file__).startswith(src + os.sep):
        raise ImportError("diffalg imported from %s, not from %s"
                          % (api.__file__, src))
    return api


def load_workload(name, bench=os.path.join(HERE, "bench")):
    sys.path.insert(0, bench)
    try:
        return importlib.import_module(WORKLOADS[name])
    finally:
        sys.path.remove(bench)


def family(job_name):
    return re.sub(r"-\d+$", "", job_name)


def _run(job):
    """(seconds, rendered output) of one call; an exception is an output."""
    t0 = time.perf_counter()
    try:
        result = job.call()
    except Exception as exc:  # both trees must fail alike
        return time.perf_counter() - t0, "raised %r" % (exc,)
    return time.perf_counter() - t0, job.render(result)


def pair_times(rounds_of_jobs):
    """Run each round's job pairs, alternating which side goes first.

    rounds_of_jobs yields, per round, a list of (job_before, job_after).
    Returns ({job name: ([before s], [after s])}, [names whose outputs
    differed], [(before s, after s) summed over each round's jobs]), names
    in first-seen order.
    """
    times, differ, totals = {}, [], []
    for r, pairs in enumerate(rounds_of_jobs):
        total_before = total_after = 0
        for i, (before, after) in enumerate(pairs):
            first_after = (r + i) % 2
            sides = (after, before) if first_after else (before, after)
            (t_first, out_first), (t_second, out_second) = map(_run, sides)
            t_before, t_after = ((t_second, t_first) if first_after
                                 else (t_first, t_second))
            slot = times.setdefault(before.name, ([], []))
            slot[0].append(t_before)
            slot[1].append(t_after)
            total_before += t_before
            total_after += t_after
            if out_first != out_second and before.name not in differ:
                differ.append(before.name)
        totals.append((total_before, total_after))
    return times, differ, totals


def rounds_won(jobs):
    """The rounds in which AFTER took less time in total over jobs, a list
    of ([before s per round], [after s per round])."""
    before = [sum(r) for r in zip(*(b for b, _ in jobs))]
    after = [sum(r) for r in zip(*(a for _, a in jobs))]
    return sum(a < b for b, a in zip(before, after))


def report(times, totals):
    """Lines of per-family median job times (ms), AFTER / BEFORE and the
    rounds the family's total AFTER beat, then the same over all jobs, and
    the count of rounds whose totals AFTER beat."""
    families = {}
    for name, sides in times.items():
        families.setdefault(family(name), []).append(sides)
    rounds = len(totals)

    def row(label, count, b, a, won):
        return "%-22s %5d %10.3f %10.3f %7.3f %7s" % (
            label, count, 1e3 * b, 1e3 * a, a / b if b else 0,
            "%d/%d" % (won, rounds))

    lines = ["%-22s %5s %10s %10s %7s %7s"
             % ("family", "jobs", "before_ms", "after_ms", "ratio", "won")]
    medians = []
    for fam, jobs in sorted(families.items()):
        meds = [(statistics.median(b), statistics.median(a)) for b, a in jobs]
        medians += meds
        lines.append(row(fam, len(meds),
                         statistics.median(b for b, _ in meds),
                         statistics.median(a for _, a in meds),
                         rounds_won(jobs)))
    won = sum(a < b for b, a in totals)
    lines.append(row("all (sum)", len(medians), sum(b for b, _ in medians),
                     sum(a for _, a in medians), won))
    lines.append("after faster in %d of %d rounds" % (won, rounds))
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before")
    parser.add_argument("after", nargs="?", default=HERE)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        default="cli-batch")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--family", action="append", default=[],
                        help="run only this job family (repeatable)")
    parser.add_argument("--jobs", default=":",
                        help="a slice START:STOP of the job list")
    args = parser.parse_args(argv)
    start, _, stop = args.jobs.partition(":")
    keep = slice(int(start) if start else None, int(stop) if stop else None)
    apis = load_tree(args.before), load_tree(args.after)
    module = load_workload(args.workload)

    def chosen(jobs):
        return [job for job in jobs
                if not args.family or family(job.name) in args.family][keep]

    def rounds():
        for variant in range(args.rounds):
            with tempfile.TemporaryDirectory() as d0, \
                    tempfile.TemporaryDirectory() as d1:
                jobs = [chosen(module.build(api, args.seed, d, variant))
                        for api, d in zip(apis, (d0, d1))]
                yield list(zip(*jobs))

    times, differ, totals = pair_times(rounds())
    if not times:
        parser.error("no job left to run (check --family and --jobs)")
    for line in report(times, totals):
        print(line)
    for name in differ:
        print("output differs: %s" % name)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
