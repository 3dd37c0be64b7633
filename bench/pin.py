"""Rewrite golden.json from the current diffalg.

golden.json pins the printed reduced bases of groebner-classic's fixed
systems (the benchmark's tests check them against sympy.groebner) and the
per-job output digests of every workload at the seeds in PINNED_SEEDS.
Rewrite it only for a deliberate change of diffalg's output or of the
benchmark's inputs:

    python3 bench/pin.py
"""
from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import groebner_classic
import run

PINNED_SEEDS = [1]


def main():
    api = run.load_api()
    golden = {"bases": {}, "digests": {}}
    for job in groebner_classic.build(api, 0, None)[:len(
            groebner_classic.SYSTEMS)]:
        golden["bases"][job.name] = json.loads(job.render(job.call()))
    path = os.path.join(run.BENCH_DIR, "golden.json")
    _write(path, golden)
    for workload, build in sorted(run.WORKLOADS.items()):
        for seed in PINNED_SEEDS:
            workdir = tempfile.mkdtemp(prefix=".bench-tmp-", dir=run.ROOT)
            try:
                jobs = build(api, seed, workdir)
                results = [job.call() for job in jobs]
            finally:
                shutil.rmtree(workdir)
            golden["digests"].setdefault(workload, {})[str(seed)] = [
                run.digest(job.render(r)) for job, r in zip(jobs, results)]
    _write(path, golden)
    return 0


def _write(path, golden):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
