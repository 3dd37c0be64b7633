"""Print the lines of diffalg that no benchmark job reaches.

    python3 scripts/job_coverage.py [TREE]

TREE is a checkout of this repository; it defaults to the one holding this
script.  In a child process, from a temporary directory and with TREE/src
first on PYTHONPATH, every job of the job sets ``scripts/jobset_digests.py``
builds (each workload of TREE/bench, seeds 1-5, variants 0-2) runs once, in
process, and its output is rendered, as for a digest.  The tracer of
``scripts/line_coverage.py`` records each line of TREE/src/diffalg that
runs, from the import of diffalg on; it is armed again before each job,
because a trace function that raises, as when a job recurses until the
stack overflows, is switched off.  Whatever the jobs print to stdout is
swallowed.  The report is line_coverage.py's: each unreached line as
``module:line: source``, then the unreached and executable lines per
module and in total, then the number of jobs run.  It exits 2 when TREE
has no src/diffalg or its jobs cannot run, and 0 otherwise.  It uses the
standard library only, and it changes nothing under bench/.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]


def _script(name):
    """The module scripts/<name>.py beside this one."""
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).resolve().with_name(name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


line_coverage = _script("line_coverage")
jobset_digests = _script("jobset_digests")


def trace_jobs(tree, out):
    """Run every job of tree's job sets under the tracer, in this process,
    write the lines they reach to out (line_coverage.write_reached) and
    return the number of jobs run."""
    tracer, reached = line_coverage.line_tracer(tree)
    jobs = 0
    sys.settrace(tracer)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            api, modules = jobset_digests.workloads(tree)
            for _, module in modules:
                for seed in jobset_digests.SEEDS:
                    for variant in jobset_digests.VARIANTS:
                        with tempfile.TemporaryDirectory() as workdir:
                            for job in module.build(api, seed, workdir,
                                                    variant):
                                sys.settrace(tracer)
                                job.render(job.call())
                                jobs += 1
    finally:
        sys.settrace(None)
    line_coverage.write_reached(tree, reached, out)
    return jobs


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="the lines of src/diffalg no benchmark job reaches")
    parser.add_argument("tree", nargs="?", default=str(HERE))
    parser.add_argument("--trace-into", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    tree = os.path.abspath(args.tree)
    if args.trace_into:
        print("%d jobs run" % trace_jobs(tree, args.trace_into))
        return 0
    if not Path(tree, "src", "diffalg").is_dir():
        print("%s: no src/diffalg there" % tree, file=sys.stderr)
        return 2
    proc, reached = line_coverage.run_traced(__file__, tree)
    if reached is None:
        sys.stderr.write(proc.stdout + proc.stderr)
        return 2
    line_coverage.report(tree, reached)
    print("jobs: %s" % proc.stdout.strip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
