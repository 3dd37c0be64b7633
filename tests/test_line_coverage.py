"""`scripts/line_coverage.py` runs a tree's tests under a line tracer and
prints each line of src/diffalg they never reach; here on a tiny tree."""
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SCRIPT = load(ROOT / "scripts" / "line_coverage.py", "line_coverage")

# lines 5, 7 and 11 run only in a test; line 6 in none
MODULE = '''"""A module docstring."""


def half(x):
    if x % 2:
        raise ValueError("odd")
    return x // 2


def twice(x):
    return 2 * x
'''

TESTS = '''from hypothesis import given, strategies as st

from diffalg.a import half, twice


def recurse():
    return recurse()


def test_overflow():
    # the stack overflows, most likely in a call of the tracer, which
    # switches it off
    try:
        recurse()
    except RecursionError:
        pass


def test_half():
    assert half(4) == 2


@given(st.integers())
def test_twice(x):
    assert twice(x) == x + x
'''


def tree(base, tests):
    package = base / "src" / "diffalg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "a.py").write_text(MODULE)
    (base / "tests").mkdir()
    for name, text in tests.items():
        (base / "tests" / name).write_text(text)
    return str(base)


def test_executable_lines_are_those_an_instruction_maps_to(tmp_path):
    path = Path(tree(tmp_path, {}), "src", "diffalg", "a.py")
    assert SCRIPT.executable_lines(path) == {1, 4, 5, 6, 7, 10, 11}


def test_each_unreached_line_is_printed_then_a_count_per_module(tmp_path,
                                                                capsys):
    base = tree(tmp_path, {"test_a.py": TESTS})
    assert SCRIPT.main([base]) == 0
    out = capsys.readouterr().out.splitlines()
    # half and twice run after the overflow, the latter under Hypothesis:
    # the tracer is armed again before each test
    assert out[:2] == ['a.py:6: raise ValueError("odd")', ""]
    assert [line.split() for line in out[2:5]] == [
        ["__init__.py", "0", "of", "0"], ["a.py", "1", "of", "7"],
        ["total", "1", "of", "7"]]
    assert out[5].startswith("pytest: 3 passed")
    assert sorted(p.name for p in Path(base).iterdir()) == ["src", "tests"]


def test_a_failing_test_exits_1_and_a_tree_without_the_package_2(tmp_path,
                                                                 capsys):
    base = tree(tmp_path / "failing", {
        "test_a.py": "from diffalg.a import half\n\n\n"
                     "def test_odd():\n    assert half(3) == 1\n"})
    assert SCRIPT.main([base]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["a.py:7: return x // 2", "a.py:11: return 2 * x"]
    assert out[-1].startswith("pytest: 1 failed")
    assert SCRIPT.main([str(tmp_path / "missing")]) == 2
    assert capsys.readouterr().out == ""
