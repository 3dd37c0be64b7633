"""`scripts/pair_timing.py` runs two trees' diffalg side by side on the
benchmark's jobs and fails when their outputs differ.  `bench/` is only
read."""
import importlib.util
import re
import sys
from pathlib import Path
from types import SimpleNamespace

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
                              "ratio", "won"]
    assert out[-2].startswith("all (sum)") and int(out[-2].split()[2]) == 12
    assert re.fullmatch(r"after faster in [0-2] of 2 rounds", out[-1])
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
    assert [line.split()[:2] for line in out[1:-1]] == [
        ["large-input", "4"], ["all", "(sum)"]]
    assert int(out[-2].split()[2]) == 4
    assert re.fullmatch(r"after faster in [01] of 1 rounds", out[-1])
    assert out[-1].split()[3] == out[-2].split()[-1][0] == \
        out[1].split()[-1][0]
    with pytest.raises(SystemExit) as exit_:
        SCRIPT.main([str(ROOT), str(ROOT), "--rounds", "1",
                     "--family", "no-such-family"])
    assert exit_.value.code == 2


def test_loaded_trees_are_separate_copies():
    before, after = SCRIPT.load_tree(ROOT), SCRIPT.load_tree(ROOT)
    assert before is not after and before is not diffalg
    assert before.dpoly.DiffPolynomial is not after.dpoly.DiffPolynomial


class Job:
    """A job whose call returns `value` and, on a fake clock, takes
    `seconds`."""

    def __init__(self, name, value, seconds=0, clock=None):
        self.name, self.value = name, value
        self.seconds, self.clock = seconds, clock

    def call(self):
        if self.clock is not None:
            self.clock[0] += self.seconds
        return self.value

    def render(self, result):
        return str(result)


def test_a_differing_output_is_reported():
    rounds = [[(Job("same-0", 1), Job("same-0", 1)),
               (Job("odd-0", 1), Job("odd-0", 2))]] * 3
    times, differ, totals = SCRIPT.pair_times(rounds)
    assert differ == ["odd-0"]
    assert all(len(t[0]) == len(t[1]) == 3 for t in times.values())
    assert len(totals) == 3
    assert [line.split()[0] for line in SCRIPT.report(times, totals)[1:]] \
        == ["odd", "same", "all", "after"]


def test_rounds_won_compare_each_rounds_totals(monkeypatch):
    # after is slower on job a and faster on job b: it wins a round only
    # when its total over the round's jobs is smaller
    clock = [0.0]
    monkeypatch.setattr(SCRIPT, "time",
                        SimpleNamespace(perf_counter=lambda: clock[0]))
    durations = [  # per round: (a before, a after, b before, b after)
        (1, 2, 3, 1),  # totals 4 and 3: after wins
        (1, 2, 2, 1),  # 3 and 3: a tie is no win
        (1, 4, 3, 1),  # 4 and 5
        (2, 1, 2, 2),  # 4 and 3: after wins
    ]
    rounds = [[(Job("a-0", 0, ab, clock), Job("a-0", 0, aa, clock)),
               (Job("b-0", 0, bb, clock), Job("b-0", 0, ba, clock))]
              for ab, aa, bb, ba in durations]
    times, differ, totals = SCRIPT.pair_times(rounds)
    assert differ == []
    assert totals == [(4, 3), (3, 3), (4, 5), (4, 3)]
    assert times["a-0"] == ([1, 1, 1, 2], [2, 2, 4, 1])
    lines = SCRIPT.report(times, totals)
    assert lines[-1] == "after faster in 2 of 4 rounds"
    assert lines[-2].startswith("all (sum)")
    # per family: a's after wins round 4 alone, b's rounds 1-3
    assert lines[0].split()[-1] == "won"
    assert [line.split()[-1] for line in lines[1:-1]] == ["1/4", "3/4",
                                                          "2/4"]
