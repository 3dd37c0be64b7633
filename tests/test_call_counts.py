"""`scripts/call_counts.py` counts the calls of named diffalg functions
over a tree's benchmark jobs; here on a tiny tree."""
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SCRIPT = load(ROOT / "scripts" / "call_counts.py", "call_counts")

# half is bound in a and in the package, and called through both
MODULE = '''def half(x):
    return x // 2


def quarter(x):
    return half(half(x))


class Box:
    def grow(self, x):
        return 2 * x
'''

WORKLOADS = {
    "common.py": '''import collections

Job = collections.namedtuple("Job", "name call render check")
''',
    # the build's call is not counted
    "kernel_tower.py": '''from common import Job


def build(api, seed, workdir, variant=0):
    api.half(seed)
    return [Job("quarter", lambda: api.a.quarter(seed), str, None),
            Job("grow", lambda: api.a.Box().grow(seed), str, None)]
''',
    "groebner_classic.py": '''from common import Job


def build(api, seed, workdir, variant=0):
    return [Job("half", lambda: api.half(variant), str, None)]
''',
    "cli_batch.py": '''from common import Job


def build(api, seed, workdir, variant=0):
    return [Job("run", lambda: api.cli.run([variant]), str, None)]
''',
}

CLI = '''from .a import Box


def run(argv):
    print("printed by a job")
    return 1 // len(argv)
'''


def tree(base, workloads=WORKLOADS):
    package = base / "src" / "diffalg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "from . import a\nfrom .a import half\n")
    (package / "a.py").write_text(MODULE)
    (package / "cli.py").write_text(CLI)
    (package / "files.py").write_text("")
    (base / "bench").mkdir()
    for name, text in workloads.items():
        (base / "bench" / name).write_text(text)
    return str(base)


def test_one_line_per_workload_and_name(tmp_path, capsys):
    base = tree(tmp_path)
    assert SCRIPT.main([base, "a.half", "a.Box.grow", "cli.run"]) == 0
    # 15 job sets per workload: kernel_tower's quarter halves twice, and
    # groebner_classic's job halves once; the CLI's print is swallowed
    assert capsys.readouterr().out.splitlines() == [
        "kernel-tower a.half 30", "kernel-tower a.Box.grow 15",
        "kernel-tower cli.run 0",
        "groebner-classic a.half 15", "groebner-classic a.Box.grow 0",
        "groebner-classic cli.run 0",
        "cli-batch a.half 0", "cli-batch a.Box.grow 0", "cli-batch cli.run 15"]
    assert sorted(p.name for p in Path(base).iterdir()) == ["bench", "src"]


def test_an_unknown_name_a_missing_package_or_a_failing_job_exit_2(
        tmp_path, capsys):
    base = tree(tmp_path / "tree")
    for names in (["a.third"], ["a.half", "b.half"], ["a.Box"], []):
        assert SCRIPT.main([base, *names]) == 2
        assert capsys.readouterr().out == ""
    assert SCRIPT.main([str(tmp_path / "missing"), "a.half"]) == 2
    assert capsys.readouterr().out == ""
    failing = dict(WORKLOADS, **{"cli_batch.py": WORKLOADS[
        "cli_batch.py"].replace("[variant]", "[]")})
    assert SCRIPT.main([tree(tmp_path / "failing", failing), "a.half"]) == 2
    assert capsys.readouterr().out == ""
