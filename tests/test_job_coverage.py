"""`scripts/job_coverage.py` runs a tree's benchmark jobs under a line
tracer and prints each line of src/diffalg they never reach; here on a
tiny tree."""
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SCRIPT = load(ROOT / "scripts" / "job_coverage.py", "job_coverage")

# lines 5, 7 and 11 run only in a job; line 6 in none
MODULE = '''"""A module docstring."""


def half(x):
    if x % 2:
        raise ValueError("odd")
    return x // 2


def twice(x):
    return 2 * x
'''

CLI = '''def run(argv):
    print("printed by a job")
    return 0
'''

# kernel_tower's first job recurses until the stack overflows, most likely
# in a call of the tracer, which switches it off; the second job still
# reaches twice, as the tracer is armed again before each job
WORKLOADS = {
    "common.py": '''import collections

Job = collections.namedtuple("Job", "name call render check")


def recurse():
    return recurse()


def overflow():
    try:
        recurse()
    except RecursionError:
        return "overflowed"
''',
    "kernel_tower.py": '''from common import Job, overflow


def build(api, seed, workdir, variant=0):
    return [Job("overflow", overflow, str, None),
            Job("twice", lambda: api.a.twice(seed), str, None)]
''',
    "groebner_classic.py": '''from common import Job


def build(api, seed, workdir, variant=0):
    return [Job("half", lambda: api.a.half(2 * variant), str, None)]
''',
    "cli_batch.py": '''from common import Job


def build(api, seed, workdir, variant=0):
    return [Job("run", lambda: api.cli.run([]), str, None)]
''',
}


def tree(base, workloads):
    package = base / "src" / "diffalg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("from . import a\n")
    (package / "a.py").write_text(MODULE)
    (package / "cli.py").write_text(CLI)
    (package / "files.py").write_text("")
    (base / "bench").mkdir()
    for name, text in workloads.items():
        (base / "bench" / name).write_text(text)
    return str(base)


def test_each_unreached_line_is_printed_then_a_count_per_module(tmp_path,
                                                                capsys):
    base = tree(tmp_path, WORKLOADS)
    assert SCRIPT.main([base]) == 0
    out = capsys.readouterr().out.splitlines()
    # the module lines ran at import; the CLI's print is swallowed
    assert out[:2] == ['a.py:6: raise ValueError("odd")', ""]
    assert [line.split() for line in out[2:7]] == [
        ["__init__.py", "0", "of", "1"], ["a.py", "1", "of", "7"],
        ["cli.py", "0", "of", "3"], ["files.py", "0", "of", "0"],
        ["total", "1", "of", "11"]]
    # 15 job sets: 2 jobs each of kernel_tower's, 1 of the others'
    assert out[7:] == ["jobs: 60 jobs run"]
    assert sorted(p.name for p in Path(base).iterdir()) == ["bench", "src"]


def test_a_failing_job_and_a_tree_without_the_package_exit_2(tmp_path,
                                                             capsys):
    failing = dict(WORKLOADS, **{"groebner_classic.py": WORKLOADS[
        "groebner_classic.py"].replace("2 * variant", "2 * variant + 1")})
    assert SCRIPT.main([tree(tmp_path / "failing", failing)]) == 2
    assert capsys.readouterr().out == ""
    assert SCRIPT.main([str(tmp_path / "missing")]) == 2
    assert capsys.readouterr().out == ""
