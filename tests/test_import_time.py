"""`scripts/import_time.py` times a fresh `import diffalg.cli` in child
interpreters, in two bytecode modes; here one run on a copy of this
tree's src/, and the parsing of an `-X importtime` report."""
import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SCRIPT = load(ROOT / "scripts" / "import_time.py", "import_time")

REPORT = """\
import time: self [us] | cumulative | imported package
import time:        84 |         84 |   sitecustomize
import time:      1379 |      32904 | site
import time:       477 |        477 |       diffalg.errors
import time:       994 |       7528 |       dataclasses
import time:      5842 |      13370 |     diffalg.coeff
import time:       561 |      40641 |   diffalg
import time:      1043 |       1043 |   diffalg.files
import time:      2033 |      47795 | diffalg.cli
import time:        10 |         20 | diffalgebra
"""


def test_a_report_gives_the_total_and_each_diffalg_modules_self_time():
    assert SCRIPT.parse(REPORT) == (47795, {
        "diffalg.errors": 477, "diffalg.coeff": 5842, "diffalg": 561,
        "diffalg.files": 1043, "diffalg.cli": 2033})
    # two imports that no other nests both count
    assert SCRIPT.parse(REPORT + "import time: 5 | 7 | diffalg.x\n")[0] == (
        47795 + 7)


def test_one_run_prints_both_modes_and_writes_nothing_into_the_tree(
        tmp_path, capsys):
    tree = tmp_path / "tree"
    shutil.copytree(ROOT / "src", tree / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    assert SCRIPT.main([str(tree), "--runs", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    heads = [line.split()[0] for line in out if not line.startswith(" ")]
    assert heads == ["no-bytecode", "pycache"]
    rows = [line.split() for line in out if line.startswith(" ")]
    names = [row[0] for row in rows]
    assert names.count("total") == 2 and "diffalg.cli" in names
    assert all(row[1].isdigit() for row in rows if row[0] != "module")
    assert not list(tree.rglob("__pycache__"))


def test_two_trees_print_each_figure_with_its_delta():
    per_tree = [(100, {"diffalg": 10, "diffalg.a": 5}),
                (80, {"diffalg": 12, "diffalg.b": 3})]
    assert SCRIPT.table(per_tree) == [
        "module     self-us",
        "diffalg    10 -> 12 (+2)",
        "diffalg.a  5 -> 0 (-5)",
        "diffalg.b  0 -> 3 (+3)",
        "total      100 -> 80 (-20, x0.800)"]


def test_a_tree_without_the_package_is_refused(tmp_path, capsys):
    assert SCRIPT.main([str(tmp_path)]) == 2
    assert capsys.readouterr().out == ""
