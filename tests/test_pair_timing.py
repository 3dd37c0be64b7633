"""`scripts/pair_timing.py` runs two trees' diffalg side by side on the
benchmark's jobs and fails when their outputs differ.  `bench/` is only
read."""
import importlib.util
import sys
from pathlib import Path

import pytest

import diffalg

ROOT = Path(__file__).resolve().parents[1]


def load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SCRIPT = load(ROOT / "scripts" / "pair_timing.py", "pair_timing")


def test_two_copies_of_one_tree_agree_on_a_job_slice(capsys):
    loaded = {k: v for k, v in sys.modules.items()
              if k == "diffalg" or k.startswith("diffalg.")}
    code = SCRIPT.main([str(ROOT), str(ROOT), "--workload", "cli-batch",
                        "--rounds", "2", "--jobs", "0:12"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0].split() == ["family", "jobs", "before_ms", "after_ms",
                              "ratio"]
    assert out[-1].startswith("all (sum)") and int(out[-1].split()[2]) == 12
    assert not any(line.startswith("output differs") for line in out)
    # the session's own diffalg is left in place
    assert sys.modules["diffalg"] is diffalg
    assert {k: v for k, v in sys.modules.items()
            if k == "diffalg" or k.startswith("diffalg.")} == loaded


def test_one_family_runs_alone(capsys):
    code = SCRIPT.main([str(ROOT), str(ROOT), "--workload", "cli-batch",
                        "--rounds", "1", "--family", "large-input"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert [line.split()[:2] for line in out[1:]] == [["large-input", "4"],
                                                      ["all", "(sum)"]]
    assert int(out[-1].split()[2]) == 4
    with pytest.raises(SystemExit) as exit_:
        SCRIPT.main([str(ROOT), str(ROOT), "--rounds", "1",
                     "--family", "no-such-family"])
    assert exit_.value.code == 2


def test_loaded_trees_are_separate_copies():
    before, after = SCRIPT.load_tree(ROOT), SCRIPT.load_tree(ROOT)
    assert before is not after and before is not diffalg
    assert before.dpoly.DiffPolynomial is not after.dpoly.DiffPolynomial


def test_a_differing_output_is_reported():
    class Job:
        def __init__(self, name, value):
            self.name, self.value = name, value

        def call(self):
            return self.value

        def render(self, result):
            return str(result)

    rounds = [[(Job("same-0", 1), Job("same-0", 1)),
               (Job("odd-0", 1), Job("odd-0", 2))]] * 3
    times, differ = SCRIPT.pair_times(rounds)
    assert differ == ["odd-0"]
    assert all(len(t[0]) == len(t[1]) == 3 for t in times.values())
    assert [line.split()[0] for line in SCRIPT.report(times)[1:]] == \
        ["odd", "same", "all"]
