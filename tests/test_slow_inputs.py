"""`scripts/slow_inputs.py` runs each slow input in a fresh process on one
or two trees, and exits 1 when two trees that both finished a row differ
in its stdout bytes or exit code."""
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_cheap_row_matches_itself_on_two_trees(capsys):
    script = load(ROOT / "scripts" / "slow_inputs.py", "slow_inputs")
    assert script.main([str(ROOT), str(ROOT), "--only", "rational-power-5",
                        "--cap", "120"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["row", "tree", "seconds", "exit", "bytes",
                                "sha256"]
    rows = [line.split() for line in lines[1:]]
    assert [row[:2] for row in rows] == [["rational-power-5", "BEFORE"],
                                         ["rational-power-5", "AFTER"]]
    for row in rows:
        assert row[3:] == ["0", "153135", "e26ec6af4cb2"]


def test_the_int_power_row_exits_3_at_once(capsys):
    script = load(ROOT / "scripts" / "slow_inputs.py", "slow_inputs")
    assert script.main([str(ROOT), "--only", "int-power", "--cap", "60"]) == 0
    row = capsys.readouterr().out.splitlines()[1].split()
    assert row[:2] == ["int-power", "BEFORE"] and float(row[2]) < 30
    assert row[3:] == ["3", "99", "c1a76222feb5"]


def test_the_t_power_row_exits_3_at_once(capsys):
    # (t1 + 1)^100000 is one term whose coefficient squares its way to 513
    # by 513 t-monomials, over the default term budget
    script = load(ROOT / "scripts" / "slow_inputs.py", "slow_inputs")
    assert script.main([str(ROOT), "--only", "t-power", "--cap", "60"]) == 0
    row = capsys.readouterr().out.splitlines()[1].split()
    assert row[:2] == ["t-power", "BEFORE"] and float(row[2]) < 30
    assert row[3:] == ["3", "97", "92dc4c23f36e"]


def test_only_finished_rows_are_compared(capsys):
    script = load(ROOT / "scripts" / "slow_inputs.py", "slow_inputs")
    assert not script.differs([(1.0, 0, b"x"), (2.0, 0, b"x")])
    assert not script.differs([(1.0, 0, b"x"), (60.0, None, None)])
    assert script.differs([(1.0, 0, b"x"), (2.0, 3, b"x")])
    assert script.differs([(1.0, 0, b"x"), (2.0, 0, b"y")])
    assert script.main([str(ROOT), "--only", "no-such-row"]) == 2
    assert "no-such-row" in capsys.readouterr().err
