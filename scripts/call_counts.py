"""Count the calls of named diffalg functions over the benchmark's job sets.

    python3 scripts/call_counts.py [TREE] NAME [NAME ...]

TREE is a checkout of this repository; it defaults to the one holding this
script, and a first argument that is a directory or holds a path
separator is taken for it.  Each
NAME is a function of a diffalg module, or a method of a class in one,
written without the package: ``groebner.DivisorBasis.pack``,
``kernels.kernel_prolong_once``.  In a child process, from a temporary
directory and with TREE/src first on sys.path, every binding of each named
function in the package's modules and classes is replaced by a counting
wrapper, and every job of the job sets ``scripts/jobset_digests.py`` builds
(each workload of TREE/bench, seeds 1-5, variants 0-2) runs once, in
process, and its output is rendered, as for a digest.  Only the calls
made while a job runs or renders are counted; whatever the jobs print to
stdout is swallowed.  It prints one line per workload and name,
``<workload> <name> <calls>``.  It exits 2 when TREE has no src/diffalg, a
NAME does not resolve to a function, or a job cannot run, and 0
otherwise.  It uses the standard library only, and it changes nothing
under bench/.
"""
from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
import types
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
PACKAGE = "diffalg"


def _script(name):
    """The module scripts/<name>.py beside this one."""
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).resolve().with_name(name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


jobset_digests = _script("jobset_digests")


def resolve(name):
    """The function NAME names in the loaded package, or None."""
    module, _, path = name.partition(".")
    obj = sys.modules.get(PACKAGE + "." + module)
    for part in path.split(".") if path else ():
        obj = getattr(obj, part, None)
    return obj if isinstance(obj, types.FunctionType) else None


def counting(name, fn, counts, active):
    """fn, adding one to counts[name] per call while active[0] is true."""
    def counted(*args, **kwargs):
        if active[0]:
            counts[name] += 1
        return fn(*args, **kwargs)
    return counted


def install(names, counts, active):
    """Replace every binding of each named function, in the package's
    modules and in the classes they define, by its `counting` wrapper."""
    wrappers = {}
    for name in names:
        fn = resolve(name)
        wrappers[id(fn)] = counting(name, fn, counts, active)
    namespaces = {}
    for key, module in list(sys.modules.items()):
        if key == PACKAGE or key.startswith(PACKAGE + "."):
            namespaces[id(module)] = module
            for obj in vars(module).values():
                if isinstance(obj, type) and obj.__module__.startswith(
                        PACKAGE):
                    namespaces[id(obj)] = obj
    for ns in namespaces.values():
        for attr, value in list(vars(ns).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                setattr(ns, attr, wrapper)


def count_calls(tree, names):
    """{workload: {name: calls}} over every job of tree's job sets, or
    None, the names that do not resolve written to stderr."""
    with contextlib.redirect_stdout(io.StringIO()):
        api, modules = jobset_digests.workloads(tree)
        unresolved = [name for name in names if resolve(name) is None]
        if unresolved:
            print("not a function of %s: %s"
                  % (PACKAGE, " ".join(unresolved)), file=sys.stderr)
            return None
        counts = dict.fromkeys(names, 0)
        active = [False]
        install(names, counts, active)
        out = {}
        for workload, module in modules:
            for seed in jobset_digests.SEEDS:
                for variant in jobset_digests.VARIANTS:
                    with tempfile.TemporaryDirectory() as workdir:
                        for job in module.build(api, seed, workdir, variant):
                            active[0] = True
                            try:
                                job.render(job.call())
                            finally:
                                active[0] = False
            out[workload] = dict(counts)
            counts.update(dict.fromkeys(names, 0))
    return out


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["--count-into"]:
        out, tree, names = argv[1], argv[2], argv[3:]
        counts = count_calls(tree, names)
        if counts is None:
            return 2
        Path(out).write_text(json.dumps(counts))
        return 0
    tree = str(HERE)
    if argv and (os.sep in argv[0] or os.path.isdir(argv[0])):
        tree = os.path.abspath(argv.pop(0))
    if not argv:
        print("usage: python3 scripts/call_counts.py [TREE] NAME [NAME ...]",
              file=sys.stderr)
        return 2
    if not Path(tree, "src", PACKAGE).is_dir():
        print("%s: no src/%s there" % (tree, PACKAGE), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as work:
        out = os.path.join(work, "counts.json")
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--count-into", out,
             tree, *argv], cwd=work, capture_output=True, text=True)
        if proc.returncode or not os.path.exists(out):
            sys.stderr.write(proc.stdout + proc.stderr)
            return 2
        counts = json.loads(Path(out).read_text())
    for workload, calls in counts.items():
        for name in argv:
            print(workload, name, calls[name])
    return 0


if __name__ == "__main__":
    sys.exit(main())
