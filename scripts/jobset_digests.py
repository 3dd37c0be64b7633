"""Print one sha256 digest per benchmark job set, to show that two trees
give byte-identical outputs.

    python3 scripts/jobset_digests.py [TREE] > digests.txt

TREE is a checkout of this repository; it defaults to the one holding this
script.  With TREE/src and TREE/bench on sys.path, for each workload module
it calls ``build(diffalg, seed, tmpdir, variant)`` for seeds 1-5 and
variants 0-2, runs every job once and hashes each job's name and
``render(call())``.  Each line reads ``<workload> <seed> <variant> <digest>``,
so the outputs of two trees compare with ``diff``.  It uses the standard
library only, and it imports bench/ without changing anything there.
"""
from __future__ import annotations

import hashlib
import importlib
import os
import sys
import tempfile

WORKLOADS = [("kernel-tower", "kernel_tower"),
             ("groebner-classic", "groebner_classic"),
             ("cli-batch", "cli_batch")]
SEEDS = range(1, 6)
VARIANTS = range(3)


def jobset_digest(api, module, seed, variant):
    """sha256 over the names and rendered outputs of one job set, in order."""
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as workdir:
        for job in module.build(api, seed, workdir, variant):
            for text in (job.name, job.render(job.call())):
                digest.update(text.encode("utf-8") + b"\0")
    return digest.hexdigest()


def workloads(tree):
    """(api, [(workload, module)]): tree's diffalg package, with its cli
    and files modules loaded, and its bench workload modules, imported
    with TREE/src and TREE/bench put first on sys.path."""
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "bench")]
    api = importlib.import_module("diffalg")
    importlib.import_module("diffalg.cli")
    importlib.import_module("diffalg.files")
    return api, [(name, importlib.import_module(module_name))
                 for name, module_name in WORKLOADS]


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    tree = os.path.abspath(argv[0] if argv else
                           os.path.join(os.path.dirname(__file__), os.pardir))
    api, modules = workloads(tree)
    for name, module in modules:
        for seed in SEEDS:
            for variant in VARIANTS:
                print(name, seed, variant,
                      jobset_digest(api, module, seed, variant), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
