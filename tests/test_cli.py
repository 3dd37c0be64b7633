import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import diffalg
from diffalg import cli, coeff, kernels, prolong
from diffalg.cli import (EXIT_NEGATIVE, EXIT_OK, EXIT_RESOURCE, EXIT_USAGE,
                         run)
from diffalg.files import load_ideal_text, load_kernel_text
from diffalg.errors import FileFormatError

IDEAL_PARABOLA = """\
# parabola, naive layout
m=1 n=1 gamma=1 mode=constants
x1_[1] - x1_[0]^2
"""

IDEAL_BAD_CONTAINMENT = """\
m=1 n=1 gamma=1 mode=constants
x1_[0]
x1_[1] - 1
"""

# a failing rational-mode containment: the witness is printed from W's
# grevlex basis
IDEAL_RATIONAL_WITNESS = """\
m=1 n=1 gamma=1 mode=rational
x1_[0]^2 - t1*x1_[0]
x1_[1] - 1/(t1 + 1)*x1_[0]
"""

KERNEL_LINEAR = """\
m=1 n=1 length=1 mode=constants
x1_[1] - x1_[0]
"""

KERNEL_COUNTEREXAMPLE = """\
m=2 n=1 length=1 mode=constants
x1_[1,0] - 1
x1_[0,1] - x1_[0,0]
"""

# invalid at length 2: D_1 x1_[0] = x1_[1] is 1, not 0, modulo the ideal
KERNEL_INVALID = """\
m=1 n=1 length=2 mode=constants
x1_[0]
x1_[1] - 1
"""
INVALID_VIOLATIONS = (
    '[{"generator":"x1_[0]","k":1,"normal_form":"1"},'
    '{"generator":"x1_[1] - 1","k":1,"normal_form":"x1_[2]"}]')

# test_kernels' SATURATION_DECIDES with nothing inverted: inverting x1_[0]
# would make it valid, so here the first generator's D_1-image stays nonzero
KERNEL_SATURATION_DECIDES = """\
m=1 n=1 length=2 mode=constants
x1_[0]*x1_[1] - x1_[0]
x1_[0]*x1_[2]
"""
SATURATION_VIOLATIONS = (
    '[{"generator":"x1_[0]*x1_[1] - x1_[0]","k":1,'
    '"normal_form":"x1_[1]^2 - x1_[1]"}]')


def invoke(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def test_bounds_command(capsys):
    code, out = invoke(capsys, ["bounds", "2", "3", "1"])
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["value"] == 9
    assert data["closed_form"] == 9
    assert data["closed_form_agrees"] is True


def test_gamma_command(capsys):
    code, out = invoke(capsys, ["gamma", "--m", "2", "--r", "1"])
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["count"] == 3
    assert data["elements"] == [[0, 0], [1, 0], [0, 1]]


def test_axiom_shape_command(capsys):
    code, out = invoke(capsys, ["axiom-shape", "2", "2"])
    assert code == EXIT_OK
    data = json.loads(out)
    assert (data["C"], data["alpha"], data["beta"]) == (4, 30, 20)


def test_axiom_shape_builds_no_coordinates(capsys):
    # alpha is 265,224: enumerating that many coordinates takes over a
    # second, while the sizes follow from bound_C and binomials alone
    start = time.perf_counter()
    result = invoke(capsys, ["axiom-shape", "8", "2"])
    elapsed = time.perf_counter() - start
    assert result == (
        EXIT_OK, '{"C":256,"alpha":265224,"beta":263168,"m":2,"n":8}\n')
    assert elapsed < 0.1


def test_gamma_of_a_thousand_slots(tmp_path, capsys):
    # a single multi-index of m = 1000 zeros, listed and used; Gamma(1)
    # has 1,001 indices of 1,000 entries, over the default budget
    code, out = invoke(capsys, ["gamma", "--m", "1000", "--r", "0"])
    assert (code, json.loads(out)) == (EXIT_OK, {
        "m": 1000, "r": 0, "count": 1, "elements": [[0] * 1000]})
    path = tmp_path / "one.ideal"
    path.write_text("m=1000 n=1 gamma=0\n1\n")
    code, out = invoke(capsys, ["check-containment", str(path),
                                "--shape", "naive"])
    assert code == EXIT_OK and json.loads(out)["holds"] is True
    code, out = invoke(capsys, ["gamma", "--m", "1000", "--r", "1"])
    assert (code, json.loads(out)) == (EXIT_RESOURCE, {
        "error": "resource",
        "message": "1000*|Gamma(1)| = 1001000 exceeds the coordinate budget"})


def test_axiom_shape_keeps_the_coordinate_budget(capsys, monkeypatch):
    monkeypatch.setenv("DIFFALG_COORD_BUDGET", "10")
    code, out = invoke(capsys, ["axiom-shape", "2", "2"])
    assert code == EXIT_RESOURCE
    assert json.loads(out)["error"] == "resource"


def test_prolong_variety_command(tmp_path, capsys):
    path = tmp_path / "parabola.ideal"
    path.write_text("m=1 n=1 gamma=0 mode=constants\nx1_[0]^2 - 1\n")
    code, out = invoke(capsys, ["prolong-variety", str(path), "--all"])
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["generators"] == ["x1_[0]^2 - 1", "2*x1_[0]*x1_[1]"]


def test_check_containment_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.ideal"
    good.write_text(IDEAL_PARABOLA)
    code, out = invoke(capsys, ["check-containment", str(good),
                                "--shape", "naive"])
    assert code == EXIT_OK
    assert json.loads(out)["holds"] is True

    bad = tmp_path / "bad.ideal"
    bad.write_text(IDEAL_BAD_CONTAINMENT)
    code, out = invoke(capsys, ["check-containment", str(bad),
                                "--shape", "naive"])
    assert code == EXIT_NEGATIVE
    data = json.loads(out)
    assert data["holds"] is False
    assert data["witnesses"]


def test_kernel_check_command(tmp_path, capsys):
    path = tmp_path / "linear.kernel"
    path.write_text(KERNEL_LINEAR)
    code, out = invoke(capsys, ["kernel-check", str(path)])
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["valid"] is True
    assert data["length"] == 1
    assert data["realization_bound"] == 1


def test_kernel_prolong_command(tmp_path, capsys):
    path = tmp_path / "linear.kernel"
    path.write_text(KERNEL_LINEAR)
    code, out = invoke(capsys, ["kernel-prolong", str(path), "--to", "3"])
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["status"] == "prolonged"
    assert data["final_length"] == 3
    assert data["realization_guaranteed"] is True

    code, out = invoke(capsys, ["kernel-prolong", str(path), "--to-bound"])
    assert code == EXIT_OK
    assert json.loads(out)["target_length"] == 1


def test_kernel_prolong_obstruction(tmp_path, capsys):
    path = tmp_path / "ce.kernel"
    path.write_text(KERNEL_COUNTEREXAMPLE)
    code, out = invoke(capsys, ["kernel-prolong", str(path), "--to", "2"])
    assert code == EXIT_NEGATIVE
    data = json.loads(out)
    assert data["status"] == "obstructed"
    assert data["witness"]["normal_form"] == "-1"


def test_compile_formula_command(tmp_path, capsys):
    path = tmp_path / "rho.txt"
    path.write_text("d[1,1]x1 * x1 - 1 = 0\n")
    code, out = invoke(capsys, ["compile-formula", str(path), "--m", "2"])
    assert code == EXIT_OK
    data = json.loads(out)
    assert (data["t"], data["r"], data["n"]) == (1, 2, 3)
    assert data["algebraically_closed"] is False


@pytest.mark.parametrize("text,m,stdout", [
    # a t variable picks rational mode
    ("d[1]x1 = t1", "1",
     '{"algebraically_closed":false,"alpha":2,"atoms":["d[1]x1 - t1 = 0"],'
     '"beta":1,"m":1,"n":1,"r":1,"t":1}'),
    # n = 20 at m = 3: the axiom sizes are refused, and the note says why
    ("d[1,1,1]x2 = 0", "3",
     '{"algebraically_closed":false,"alpha":null,"atoms":["d[1,1,1]x2 = 0"],'
     '"beta":null,"m":3,"n":20,"r":3,"resource_note":"result needs about '
     '6291454 bits, over the 1048576-bit budget","t":2}'),
    # '(' opens no sub-formula here, so the parser backtracks to an atom
    ("(x1 + 1)*x1 = 0", "1",
     '{"algebraically_closed":true,"alpha":null,"atoms":["x1^2 + x1 = 0"],'
     '"beta":null,"m":1,"n":1,"r":0,"t":1}'),
], ids=["rational-mode", "resource-note", "parenthesised-arithmetic"])
def test_compile_formula_stdout_pinned(tmp_path, capsys, monkeypatch, text,
                                       m, stdout):
    monkeypatch.delenv("DIFFALG_BIT_BUDGET", raising=False)
    path = tmp_path / "rho.txt"
    path.write_text(text + "\n")
    assert invoke(capsys, ["compile-formula", str(path), "--m", m]) == (
        EXIT_OK, stdout + "\n")


def test_demo_counterexample_exit_code(capsys):
    code, out = invoke(capsys, ["demo", "counterexample"])
    assert code == EXIT_NEGATIVE
    data = json.loads(out)
    assert data["containment"]["holds"] is True
    assert data["kernel"]["status"] == "obstructed"


def test_demo_deterministic_stdout(capsys):
    _, first = invoke(capsys, ["demo", "counterexample"])
    _, second = invoke(capsys, ["demo", "counterexample"])
    assert first == second
    _, pretty = invoke(capsys, ["--pretty", "demo", "counterexample"])
    assert json.loads(pretty) == json.loads(first)


DEMO_NARRATIVE = (
    '"narrative":["The projection of W onto the base coordinate is the whole '
    'line, so W is contained in the prolongation of its projection with no '
    'conditions to check.","Extending the kernel by one level forces the '
    'mixed second derivative to equal both 0 (deriving y - 1) and 1 '
    '(deriving z - x), an inconsistent pair of linear constraints."],')


@pytest.mark.parametrize("argv,code,stdout", [
    (["demo", "counterexample", "--mode", mode], EXIT_NEGATIVE,
     '{"containment":{"elimination_generators":[],"holds":true,"note":'
     '"projection handled via its Zariski closure (elimination ideal); the '
     'base membership condition holds automatically for projections of '
     'points of W","witnesses":[]},"kernel":{"length":1,"status":'
     '"obstructed","valid":true,"witness":{"normal_form":"-1","provenance":'
     '[[0,2],[1,1]],"relation":"-1"}},"mode":"%s",' % mode + DEMO_NARRATIVE
     + '"variety":{"ambient":"K^3, coordinates x1_[0,0], x1_[1,0], '
     'x1_[0,1]","generators":["x1_[1,0] - 1","x1_[0,1] - x1_[0,0]"]}}')
    for mode in ("constants", "rational")
] + [
    (["axiom-shape", "2", "2"], EXIT_OK,
     '{"C":4,"alpha":30,"beta":20,"m":2,"n":2}'),
    (["gamma", "--m", "2", "--r", "2"], EXIT_OK,
     '{"count":6,"elements":[[0,0],[1,0],[0,1],[2,0],[1,1],[0,2]],'
     '"m":2,"r":2}'),
    (["check-containment", "{path}", "--shape", "naive"], EXIT_NEGATIVE,
     '{"elimination_generators":["x1_[0]^2 - t1*x1_[0]"],"holds":false,'
     '"note":"projection handled via its Zariski closure (elimination '
     'ideal); the base membership condition holds automatically for '
     'projections of points of W","witnesses":[{"generator":"x1_[0]^2 - '
     't1*x1_[0]","k":1,"normal_form":"-(t1 + 1)/(t1^2 + 2*t1 + 1)*x1_[0]"}]}'),
], ids=["demo-constants", "demo-rational", "axiom-shape", "gamma",
        "rational-witness"])
def test_stdout_pinned(capsys, tmp_path, argv, code, stdout):
    path = tmp_path / "rational-witness.ideal"
    path.write_text(IDEAL_RATIONAL_WITNESS)
    argv = [a.format(path=path) for a in argv]
    assert invoke(capsys, argv) == (code, stdout + "\n")


def test_pretty_does_not_leak_into_the_next_call(capsys):
    code, pretty = invoke(capsys, ["--pretty", "bounds", "1", "2", "1"])
    assert code == EXIT_OK and "\n  " in pretty
    assert invoke(capsys, ["bounds", "1", "2", "1"]) == (
        EXIT_OK, '{"closed_form":2,"closed_form_agrees":true,"m":2,"n":1,'
        '"r":1,"value":2}\n')


def test_usage_error_does_not_leak_into_the_next_call(capsys, tmp_path):
    path = tmp_path / "linear.kernel"
    path.write_text(KERNEL_LINEAR)
    valid = ["kernel-prolong", str(path), "--to", "2"]
    fresh = run_cli_process(valid)
    assert fresh.returncode == EXIT_OK
    code, _ = invoke(capsys, ["kernel-prolong", str(path), "--to", "2",
                              "--to-bound"])
    assert code == EXIT_USAGE
    assert invoke(capsys, valid) == (EXIT_OK, fresh.stdout)


def test_usage_errors(capsys, tmp_path):
    code, _ = invoke(capsys, ["bounds", "2"])
    assert code == EXIT_USAGE
    code, _ = invoke(capsys, ["no-such-command"])
    assert code == EXIT_USAGE
    code, out = invoke(capsys, ["kernel-check", str(tmp_path / "missing")])
    assert code == EXIT_USAGE
    assert json.loads(out)["error"] == "usage"


@pytest.mark.parametrize("argv", [
    ["check-containment", "{path}", "--shape", "naive"],
    ["kernel-check", "{path}"],
    ["kernel-prolong", "{path}", "--to", "2"],
    ["prolong-variety", "{path}", "--all"],
    ["compile-formula", "{path}", "--m", "2"],
], ids=lambda argv: argv[0])
def test_non_utf8_input_is_a_usage_error(capsys, tmp_path, argv):
    path = tmp_path / "latin1.txt"
    path.write_bytes("m=1 n=1 gamma=1 mode=constants\n# caf\xe9\n"
                     .encode("latin-1"))
    code, out = invoke(capsys, [a.format(path=path) for a in argv])
    assert code == EXIT_USAGE
    assert json.loads(out)["error"] == "usage"


def run_cli_process(argv):
    """Run the CLI in a fresh interpreter, at the default recursion limit
    and the default int-to-str digit limit."""
    src = str(Path(diffalg.__file__).resolve().parents[1])
    env = dict(os.environ)
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "diffalg.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


@pytest.mark.parametrize("argv,text,code,error", [
    (["prolong-variety", "{path}", "--all"],
     "m=1 n=1 gamma=0 mode=constants\n" + "(" * 250 + "x1_[0]" + ")" * 250,
     EXIT_USAGE, "usage"),
    (["prolong-variety", "{path}", "--all"],
     "m=1 n=1 gamma=0 mode=constants\n" + "-" * 1500 + "x1_[0]",
     EXIT_USAGE, "usage"),
    (["compile-formula", "{path}", "--m", "1"], "!" * 1500 + "x1 = 0",
     EXIT_USAGE, "usage"),
    (["bounds", "1", "7", "1"], None, EXIT_RESOURCE, "resource"),
    (["bounds", "2", "6", "1"], None, EXIT_RESOURCE, "resource"),
    (["kernel-check", "{path}"],
     "m=10 n=1 length=1 mode=constants\nx1_[0,0,0,0,0,0,0,0,0,1] - 1",
     EXIT_RESOURCE, "resource"),
], ids=["parens", "minus-signs", "negations", "bounds-1-7-1", "bounds-2-6-1",
        "kernel-check-m10"])
def test_deep_recursion_is_an_error_exit(tmp_path, argv, text, code, error):
    path = tmp_path / "input.txt"
    if text is not None:
        path.write_text(text + "\n")
    proc = run_cli_process([a.format(path=path) for a in argv])
    assert proc.stderr == ""
    assert proc.returncode == code
    assert json.loads(proc.stdout)["error"] == error


@pytest.mark.parametrize("text,target,code,stdout", [
    ("m=1 n=1 length=1 mode=constants\nx1_[0]*x1_[1] - 2\n", "3", EXIT_OK,
     '{"bound":1,"final_generators":["x1_[0]*x1_[1] - 2",'
     '"1/2*x1_[1]^3 + x1_[2]","-3/4*x1_[1]^5 + x1_[3]"],"final_length":3,'
     '"realization_guaranteed":true,"status":"prolonged","target_length":3}'),
    (KERNEL_COUNTEREXAMPLE, "2", EXIT_NEGATIVE,
     '{"bound":2,"final_length":1,"realization_guaranteed":false,'
     '"status":"obstructed","target_length":2,"witness":{"normal_form":"-1",'
     '"provenance":[[0,2],[1,1]],"relation":"-1"}}'),
    (KERNEL_INVALID, "3", EXIT_NEGATIVE,
     '{"status":"invalid","violations":' + INVALID_VIOLATIONS + '}'),
    (KERNEL_SATURATION_DECIDES, "3", EXIT_NEGATIVE,
     '{"status":"invalid","violations":' + SATURATION_VIOLATIONS + '}'),
], ids=["saturating", "obstructed", "invalid", "saturation-decides"])
def test_kernel_prolong_stdout_pinned(tmp_path, capsys, text, target, code,
                                      stdout):
    path = tmp_path / "k.kernel"
    path.write_text(text)
    assert invoke(capsys, ["kernel-prolong", str(path), "--to", target]) == (
        code, stdout + "\n")


@pytest.mark.parametrize("text,code,stdout", [
    (KERNEL_LINEAR, EXIT_OK,
     '{"length":1,"realization_bound":1,"valid":true,"violations":[]}'),
    (KERNEL_INVALID, EXIT_NEGATIVE,
     '{"length":2,"realization_bound":2,"valid":false,"violations":'
     + INVALID_VIOLATIONS + '}'),
    (KERNEL_SATURATION_DECIDES, EXIT_NEGATIVE,
     '{"length":2,"realization_bound":2,"valid":false,"violations":'
     + SATURATION_VIOLATIONS + '}'),
], ids=["valid", "invalid", "saturation-decides"])
def test_kernel_check_stdout_pinned(tmp_path, capsys, text, code, stdout):
    path = tmp_path / "k.kernel"
    path.write_text(text)
    assert invoke(capsys, ["kernel-check", str(path)]) == (code, stdout + "\n")


def test_resource_budget_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("DIFFALG_BIT_BUDGET", "64")
    code, out = invoke(capsys, ["bounds", "3", "4", "1"])
    assert code == EXIT_RESOURCE
    assert json.loads(out)["error"] == "resource"


def test_a_t2_degree_past_its_slot_exits_3(tmp_path, capsys, monkeypatch):
    # 4-bit slots: t2 holds 0..7, and t2^8 leaves its slot while parsing;
    # t1's slot is unbounded
    monkeypatch.setattr(coeff, "T_BITS", 4)
    path = tmp_path / "slot.ideal"
    path.write_text("m=2 n=1 gamma=1 mode=rational\nx1_[0,0] - t2^8\n")
    code, out = invoke(capsys, ["prolong-variety", str(path), "--all"])
    assert (code, json.loads(out)) == (EXIT_RESOURCE, {
        "error": "resource", "message": "a degree in a base variable after "
        "t1 is over the t-key slot limit 7"})
    path.write_text("m=2 n=1 gamma=1 mode=rational\nx1_[0,0] - t1^8\n")
    code, out = invoke(capsys, ["prolong-variety", str(path), "--all"])
    assert (code, json.loads(out)["generators"]) == (EXIT_OK, [
        "x1_[0,0] - t1^8", "x1_[1,0] - 8*t1^7", "x1_[0,1]"])


def test_the_power_input_exits_3_at_the_term_budget(tmp_path, capsys,
                                                   monkeypatch):
    # (x1_[0] + 1)^3000 squares its way to 513 by 513 terms, over the
    # default budget of 250,000 term pairs
    monkeypatch.delenv("DIFFALG_TERM_BUDGET", raising=False)
    path = tmp_path / "power.ideal"
    path.write_text("m=1 n=1 gamma=1 mode=constants\n(x1_[0] + 1)^3000\n")
    code, out = invoke(capsys, ["prolong-variety", str(path), "--all"])
    assert (code, json.loads(out)) == (EXIT_RESOURCE, {
        "error": "resource", "message": "a product of 513 by 513 terms "
        "exceeds the term budget 250000"})


def test_a_power_of_a_two_term_coefficient_exits_3_at_the_term_budget(
        tmp_path, capsys, monkeypatch):
    # (t1 + 1)^100000 is a single term, but its coefficient squares its
    # way to 513 by 513 t-monomials, each counted as a term
    monkeypatch.delenv("DIFFALG_TERM_BUDGET", raising=False)
    path = tmp_path / "t-power.ideal"
    path.write_text("m=1 n=1 gamma=0 mode=rational\n"
                    "(t1 + 1)^100000*x1_[0]\n")
    code, out = invoke(capsys, ["prolong-variety", str(path), "--k", "1"])
    assert (code, json.loads(out)) == (EXIT_RESOURCE, {
        "error": "resource", "message": "a product of 513 by 513 terms "
        "exceeds the term budget 250000"})


@pytest.mark.parametrize("value", ["abc", "1e3", "-5", ""])
@pytest.mark.parametrize("name,argv", [
    ("DIFFALG_BIT_BUDGET", ["bounds", "1", "2", "3"]),
    ("DIFFALG_COORD_BUDGET", ["gamma", "--m", "2", "--r", "3"]),
], ids=["bits", "coords"])
def test_malformed_budget_is_a_usage_error(capsys, monkeypatch, name, argv,
                                           value):
    # not a verdict (exit 1) or an overrun (exit 3): one JSON line, exit 2
    monkeypatch.setenv(name, value)
    code, out = invoke(capsys, argv)
    assert (code, json.loads(out)) == (EXIT_USAGE, {
        "error": "usage",
        "message": "%s must be a non-negative integer, not %r"
                   % (name, value)})
    assert out.count("\n") == 1


def test_ideal_file_errors():
    with pytest.raises(FileFormatError):
        load_ideal_text("")
    with pytest.raises(FileFormatError):
        load_ideal_text("m=1 n=1\nx1_[0]\n")  # missing gamma
    with pytest.raises(FileFormatError):
        load_ideal_text("m=1 n=1 gamma=0\nx1_[1]\n")  # level over gamma
    with pytest.raises(FileFormatError):
        load_kernel_text("m=1 n=1 gamma=1\nx1_[0]\n")  # missing length
    with pytest.raises(FileFormatError):
        load_ideal_text("m=1 n=1 gamma=0\nx1_[0] +\n")  # parse error
    # negative header values fail before the generators are parsed
    with pytest.raises(FileFormatError, match="gamma=-1 is negative"):
        load_ideal_text("m=1 n=1 gamma=-1\nx1_[0] +\n")
    with pytest.raises(FileFormatError, match="length=-2 is negative"):
        load_kernel_text("m=1 n=1 length=-2 gamma=3\nx1_[0] +\n")


@pytest.mark.parametrize("argv,text,message", [
    (["prolong-variety", "{path}", "--all"], "m=1 n=1 gamma=-1\n7\n",
     "header gamma=-1 is negative"),
    (["check-containment", "{path}", "--shape", "naive"],
     "m=1 n=1 gamma=-1\n7\n", "header gamma=-1 is negative"),
    (["kernel-check", "{path}"], "m=1 n=1 length=-2 gamma=3\nx1_[0]\n",
     "header length=-2 is negative"),
    (["kernel-prolong", "{path}", "--to", "2"], "m=1 n=1 length=-1\n7\n",
     "header length=-1 is negative"),
], ids=["ideal-gamma", "containment-gamma", "kernel-length",
        "kernel-default-gamma"])
def test_negative_header_values_are_rejected(capsys, tmp_path, argv, text,
                                             message):
    path = tmp_path / "input.txt"
    path.write_text(text)
    code, out = invoke(capsys, [a.format(path=path) for a in argv])
    assert (code, json.loads(out)) == (
        EXIT_USAGE, {"error": "usage", "message": message})


@pytest.mark.parametrize("argv,text,message", [
    (["prolong-variety", "{path}", "--all"],
     "m=1 n=1 gamma=1 mod=rational\nx1_[0]\n", "unknown header key 'mod'"),
    (["check-containment", "{path}", "--shape", "naive"],
     "m=1 n=1 gamma=1 gamma=2\nx1_[0]\n", "header key 'gamma' given twice"),
    (["kernel-check", "{path}"], "m=1 n=1 length=1 r=1\nx1_[0]\n",
     "unknown header key 'r'"),
    (["kernel-prolong", "{path}", "--to", "2"],
     "m=1 n=1 length=1 mode=constants mode=rational\nx1_[0]\n",
     "header key 'mode' given twice"),
], ids=["ideal-unknown", "containment-repeated", "kernel-unknown",
        "kernel-repeated"])
def test_unknown_or_repeated_header_keys_are_rejected(capsys, tmp_path, argv,
                                                      text, message):
    path = tmp_path / "input.txt"
    path.write_text(text)
    code = run([a.format(path=path) for a in argv])
    out, err = capsys.readouterr()
    assert (code, json.loads(out), err) == (
        EXIT_USAGE, {"error": "usage", "message": message}, "")
    assert out.count("\n") == 1


def test_ideal_file_roundtrip():
    ideal, fields = load_ideal_text(IDEAL_PARABOLA)
    assert fields["mode"] == "constants"
    assert len(ideal.generators) == 1
    kernel = load_kernel_text(KERNEL_COUNTEREXAMPLE)
    assert kernel.r == 1
    assert kernel.ctx.m == 2


@pytest.mark.parametrize("argv,code,stdout", [
    (["bounds", "1", "1", str(10**12)], EXIT_OK,
     '{"closed_form":1,"closed_form_agrees":true,"m":1,"n":1000000000000,'
     '"r":1,"value":1}'),
    (["bounds", "0", "3", str(10**12)], EXIT_OK,
     '{"closed_form":null,"closed_form_agrees":null,"m":3,'
     '"n":1000000000000,"r":0,"value":0}'),
    (["bounds", "1", "2", "2000000"], EXIT_RESOURCE,
     '{"error": "resource", "message": "result needs about 2000001 bits, '
     'over the 1048576-bit budget"}'),
    (["bounds", "3", "4", "2"], EXIT_RESOURCE,
     '{"error": "resource", "message": "C^1 recursion over ~2^256 steps '
     'exceeds the iteration budget"}'),
    (["bounds", "0", "2", "3000000"], EXIT_OK,
     '{"closed_form":0,"closed_form_agrees":true,"m":2,"n":3000000,'
     '"r":0,"value":0}'),
    (["bounds", "2", "7", "1"], EXIT_RESOURCE,
     '{"error": "resource", "message": "Ackermann recursion too deep: the '
     'value is over the 1048576-bit budget"}'),
], ids=["m1", "m3-r0", "m2-over-budget", "m4-recursion-over-budget",
        "m2-r0", "m7-ackermann-too-deep"])
def test_bounds_large_n_is_fast(capsys, monkeypatch, argv, code, stdout):
    monkeypatch.delenv("DIFFALG_BIT_BUDGET", raising=False)
    start = time.perf_counter()
    assert invoke(capsys, argv) == (code, stdout + "\n")
    assert time.perf_counter() - start < 1


BIG = "7" * 5000
INPUT_TOO_LONG = "integer of 5000 digits is over the 4300-digit limit"
OUTPUT_TOO_LONG = "an output integer is over the 4300-digit int-to-str limit"


OVERSIZED = [
    (["prolong-variety", "{path}", "--all"],
     "m=1 n=1 gamma=0 mode=constants\nx1_[0] - " + BIG, EXIT_USAGE,
     {"error": "usage",
      "message": "line 2: " + INPUT_TOO_LONG + " (at position 9)"}),
    (["kernel-check", "{path}"],
     "m=1 n=1 length=1 mode=constants\nx1_[1] - " + BIG, EXIT_USAGE,
     {"error": "usage",
      "message": "line 2: " + INPUT_TOO_LONG + " (at position 9)"}),
    (["compile-formula", "{path}", "--m", "1"], "x1 = " + BIG, EXIT_USAGE,
     {"error": "usage", "message": INPUT_TOO_LONG + " (at position 5)"}),
    (["bounds", "1", "2", "20000"], None, EXIT_RESOURCE,
     {"error": "resource", "message": OUTPUT_TOO_LONG}),
    (["compile-formula", "{path}", "--m", "2"], "d[126,0]x1 = 0",
     EXIT_RESOURCE, {"error": "resource", "message": OUTPUT_TOO_LONG}),
    (["prolong-variety", "{path}", "--all"],
     "m=1 n=1 gamma=0 mode=constants\nx1_[0] - 2^15000", EXIT_RESOURCE,
     {"error": "resource", "message": OUTPUT_TOO_LONG}),
]
OVERSIZED_IDS = ["ideal-literal", "kernel-literal", "formula-literal",
                 "bounds-value", "formula-alpha", "generator-coefficient"]


def oversized_argv(tmp_path, argv, text):
    """argv with {path} naming a file that holds text, when text is given."""
    path = tmp_path / "input.txt"
    if text is not None:
        path.write_text(text + "\n")
    return [a.format(path=path) for a in argv]


@pytest.mark.parametrize("argv,text,code,error", OVERSIZED, ids=OVERSIZED_IDS)
def test_oversized_integers_are_error_exits(tmp_path, argv, text, code,
                                            error):
    proc = run_cli_process(oversized_argv(tmp_path, argv, text))
    assert proc.stderr == ""
    assert proc.returncode == code
    assert json.loads(proc.stdout) == error


@pytest.fixture
def default_digit_limit():
    """The interpreter's default int-to-str digit limit, for this test."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    yield
    sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("argv,text,code,error", OVERSIZED, ids=OVERSIZED_IDS)
def test_oversized_integers_are_error_exits_in_process(
        tmp_path, capsys, default_digit_limit, argv, text, code, error):
    # the same exits from run(), in this process
    code_got, out = invoke(capsys, oversized_argv(tmp_path, argv, text))
    assert (code_got, json.loads(out)) == (code, error)


def test_main_exits_with_the_run_code(capsys, monkeypatch,
                                      default_digit_limit):
    monkeypatch.setattr(sys, "argv", ["diffalg", "bounds", "1", "2", "20000"])
    with pytest.raises(SystemExit) as exit_:
        cli.main()
    assert exit_.value.code == EXIT_RESOURCE
    assert json.loads(capsys.readouterr().out) == {
        "error": "resource", "message": OUTPUT_TOO_LONG}


def test_an_integer_power_over_the_bit_budget_exits_3(tmp_path, capsys,
                                                      monkeypatch):
    # 3^100000000 alone runs for minutes; e * (bit length of 3, minus 1)
    # is 10^8 bits, over the default budget, so the parser refuses it
    # before it multiplies anything
    monkeypatch.delenv("DIFFALG_BIT_BUDGET", raising=False)
    path = tmp_path / "power.ideal"
    path.write_text("m=1 n=1 gamma=0 mode=constants\n3^100000000*x1_[0]\n")
    start = time.perf_counter()
    code, out = invoke(capsys, ["prolong-variety", str(path), "--k", "1"])
    assert (code, json.loads(out)) == (EXIT_RESOURCE, {
        "error": "resource", "message": "result needs about 100000000 bits, "
        "over the 1048576-bit budget"})
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("n,error", [(3, None), (4, "n*|Gamma(2)| = 12")],
                         ids=["fits", "over"])
def test_kernel_prolong_keeps_the_coordinate_budget(tmp_path, capsys,
                                                    monkeypatch, n, error):
    # an m = 1 kernel's level-2 ambient has n*|Gamma(2)| = 3n coordinates
    monkeypatch.setenv("DIFFALG_COORD_BUDGET", "10")
    path = tmp_path / "k.kernel"
    path.write_text("m=1 n=%d length=1 mode=constants\nx1_[1] - x1_[0]\n" % n)
    code, out = invoke(capsys, ["kernel-prolong", str(path), "--to", "2"])
    if error is None:
        assert (code, json.loads(out)["status"]) == (EXIT_OK, "prolonged")
    else:
        assert (code, json.loads(out)) == (EXIT_RESOURCE, {
            "error": "resource",
            "message": error + " exceeds the coordinate budget"})


SHARP_2_2 = "m=2 n=2 gamma=1 mode=constants\nx1_[0,0] - x2_[0,0]\n"


@pytest.mark.parametrize("shape,text,budget,error", [
    # naive: n(m+1) coordinates
    ("naive", "m=1 n=5 gamma=1 mode=constants\nx1_[0]*x5_[1] - 1\n", 10,
     None),
    ("naive", "m=1 n=6 gamma=1 mode=constants\nx1_[0]*x6_[1] - 1\n", 10,
     "n(m+1) = 12"),
    # sharp: alpha(n,m) coordinates, refused exactly where axiom-shape is
    ("sharp", SHARP_2_2, 30, None),
    ("sharp", SHARP_2_2, 29, "alpha(2,2) = 30"),
], ids=["naive-fits", "naive-over", "sharp-fits", "sharp-over"])
def test_check_containment_keeps_the_coordinate_budget(
        tmp_path, capsys, monkeypatch, shape, text, budget, error):
    monkeypatch.setenv("DIFFALG_COORD_BUDGET", str(budget))
    path = tmp_path / "w.ideal"
    path.write_text(text)
    code, out = invoke(capsys, ["check-containment", str(path),
                                "--shape", shape])
    if error is None:
        assert code in (EXIT_OK, EXIT_NEGATIVE)
        assert "holds" in json.loads(out)
    else:
        assert (code, json.loads(out)) == (EXIT_RESOURCE, {
            "error": "resource",
            "message": error + " exceeds the coordinate budget"})
    if shape == "sharp":
        assert invoke(capsys, ["axiom-shape", "2", "2"])[0] == (
            EXIT_OK if error is None else EXIT_RESOURCE)


def refused(code, out, error):
    return (code, json.loads(out)) == (EXIT_RESOURCE, {
        "error": "resource",
        "message": error + " exceeds the coordinate budget"})


def counting_calls(monkeypatch, module, name):
    """The calls made to module.name, recorded before each runs."""
    calls = []
    fn = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("argv,budget,error", [
    # --all: the Gamma(1) layout, n(m+1) = 8 coordinates; --k: 2n = 4
    (["--all"], 8, None),
    (["--all"], 7, "n(m+1) = 8"),
    (["--k", "2"], 4, None),
    (["--k", "2"], 3, "2n = 4"),
], ids=["all-fits", "all-over", "k-fits", "k-over"])
def test_prolong_variety_keeps_the_coordinate_budget(
        tmp_path, capsys, monkeypatch, argv, budget, error):
    monkeypatch.setenv("DIFFALG_COORD_BUDGET", str(budget))
    images = counting_calls(monkeypatch, prolong, "derivation_image")
    path = tmp_path / "v.ideal"
    path.write_text("m=3 n=2 gamma=0 mode=constants\n"
                    "x1_[0,0,0]*x2_[0,0,0] - 1\n")
    code, out = invoke(capsys, ["prolong-variety", str(path)] + argv)
    if error is None:
        assert code == EXIT_OK and len(json.loads(out)["generators"]) > 1
        assert images
    else:
        # refused before any D_k-image is computed
        assert refused(code, out, error) and not images


# KERNEL_INVALID's m*|Gamma(2)| = 3 entries fit a budget of 3, its level-3
# ambient (n*|Gamma(3)| = 4 coordinates, m*|Gamma(3)| = 4 entries) does not
@pytest.mark.parametrize("budget,check,prolong_to", [
    (4, EXIT_NEGATIVE, EXIT_NEGATIVE),
    (3, EXIT_NEGATIVE, "1*|Gamma(3)| = 4"),
    (2, "1*|Gamma(2)| = 3", "1*|Gamma(3)| = 4"),
], ids=["fits", "next-level-over", "kernel-over"])
def test_kernel_commands_refuse_before_they_validate(
        tmp_path, capsys, monkeypatch, budget, check, prolong_to):
    # an invalid kernel whose next level is over the budget exits 3, not 1,
    # and neither command computes a D_k-image of an over-budget kernel
    monkeypatch.setenv("DIFFALG_COORD_BUDGET", str(budget))
    images = counting_calls(monkeypatch, kernels, "image_normal_form")
    validations = counting_calls(monkeypatch, kernels, "kernel_validate")
    path = tmp_path / "k.kernel"
    path.write_text(KERNEL_INVALID)
    for argv, want in ((["kernel-check"], check),
                       (["kernel-prolong", "--to", "3"], prolong_to)):
        images.clear()
        validations.clear()
        code, out = invoke(capsys, [argv[0], str(path)] + argv[1:])
        if want == EXIT_NEGATIVE:
            assert code == EXIT_NEGATIVE and images
            assert "violations" in json.loads(out)
        else:
            # the prolongation refuses before it validates
            assert refused(code, out, want) and not images
            assert not validations


@pytest.mark.parametrize("target", [["--to", "2"], ["--to-bound"]],
                         ids=["to-length", "to-bound"])
def test_kernel_prolong_to_its_own_length_validates(tmp_path, capsys,
                                                    monkeypatch, target):
    # the invalid kernel's bound, 2, is its length: no level runs, and the
    # kernel is still validated, once
    validations = counting_calls(monkeypatch, kernels, "kernel_validate")
    path = tmp_path / "k.kernel"
    path.write_text(KERNEL_INVALID)
    assert invoke(capsys, ["kernel-prolong", str(path)] + target) == (
        EXIT_NEGATIVE,
        '{"status":"invalid","violations":' + INVALID_VIOLATIONS + '}\n')
    assert len(validations) == 1


# the m = 3 kernel whose realization bound is 6,291,453 levels
KERNEL_HUGE_BOUND = """\
m=3 n=3 length=1 mode=constants
x1_[1,0,0] - x2_[0,0,0]
"""


def test_kernel_prolong_keeps_the_level_budget(tmp_path, capsys,
                                               monkeypatch):
    path = tmp_path / "k.kernel"
    path.write_text(KERNEL_LINEAR)
    monkeypatch.setenv("DIFFALG_LEVEL_BUDGET", "2")
    assert invoke(capsys, ["kernel-prolong", str(path), "--to", "2"])[0] == \
        EXIT_OK
    validations = counting_calls(monkeypatch, kernels, "kernel_validate")
    levels = counting_calls(monkeypatch, kernels, "kernel_prolong_once")
    code, out = invoke(capsys, ["kernel-prolong", str(path), "--to", "3"])
    assert (code, json.loads(out)) == (EXIT_RESOURCE, {
        "error": "resource",
        "message": "target length 3 exceeds the level budget"})
    assert not validations and not levels
    # under the default budget the huge bound is refused up front (a level
    # that ran would fail here rather than run for minutes)
    monkeypatch.delenv("DIFFALG_LEVEL_BUDGET")
    monkeypatch.setattr(kernels, "kernel_prolong_once", levels.append)
    path.write_text(KERNEL_HUGE_BOUND)
    code, out = invoke(capsys, ["kernel-prolong", str(path), "--to-bound"])
    assert (code, json.loads(out)["message"]) == (
        EXIT_RESOURCE, "target length 6291453 exceeds the level budget")
    assert not validations and not levels
    monkeypatch.setenv("DIFFALG_LEVEL_BUDGET", "1e3")
    code, out = invoke(capsys, ["kernel-prolong", str(path), "--to", "2"])
    assert (code, json.loads(out)["error"]) == (EXIT_USAGE, "usage")


@pytest.mark.parametrize("poly,error", [
    ("x1_[0]² - 1", "unexpected character '²' (at position 6)"),
    ("x1_[0]^① - 1", "unexpected character '①' (at position 7)"),
    ("x1_[0]^٣ - 1", None),
], ids=["superscript-two", "circled-one", "arabic-indic-three"])
def test_only_decimal_digits_scan_as_numbers(tmp_path, capsys, poly, error):
    # '²' and '①' are digits to str.isdigit but not to int(); the
    # Arabic-Indic '٣' is a decimal digit that int() reads as 3
    path = tmp_path / "u.ideal"
    path.write_text("m=1 n=1 gamma=0 mode=constants\n%s\n" % poly,
                    encoding="utf-8")
    code, out = invoke(capsys, ["prolong-variety", str(path), "--all"])
    if error is None:
        assert (code, json.loads(out)["generators"]) == (
            EXIT_OK, ["x1_[0]^3 - 1", "3*x1_[0]^2*x1_[1]"])
    else:
        assert (code, json.loads(out)) == (
            EXIT_USAGE, {"error": "usage", "message": "line 2: " + error})


IDEAL_HEADER = "m=1 n=1 gamma=0 mode=constants\n"


@pytest.mark.parametrize("argv,text,message", [
    (["compile-formula", "{path}", "--m", "1"], "x0 + x1 = 0",
     "coordinate index 0 out of range 1..1 (at position 0)"),
    (["compile-formula", "{path}", "--m", "1"], "d[1]x0 = 0 & x2 != 1",
     "coordinate index 0 out of range 1..2 (at position 0)"),
    (["prolong-variety", "{path}", "--all"], IDEAL_HEADER + "x1_[0] & 1",
     "line 2: unexpected character '&' (at position 7)"),
    (["prolong-variety", "{path}", "--all"], IDEAL_HEADER + "x1_[0] = 1",
     "line 2: expected 'EOF', found '=' (at position 7)"),
    (["prolong-variety", "{path}", "--k", "1"], "m=1 n\nx1_[0]",
     "bad header field 'n'"),
    (["prolong-variety", "{path}", "--all"], "m=1 gamma=0\nx1_[0]",
     "bad or missing header field: 'n'"),
    (["prolong-variety", "{path}", "--all"], IDEAL_HEADER + "x1_0",
     "line 2: expected '[' (at position 3)"),
    (["prolong-variety", "{path}", "--all"], IDEAL_HEADER + "x1 + 1",
     "line 2: expected '_[' after x1 (at position 2)"),
    (["prolong-variety", "{path}", "--all"], IDEAL_HEADER + "x_[0]",
     "line 2: expected a number (at position 1)"),
    (["compile-formula", "{path}", "--m", "1"], "d[1]y1 = 0",
     "expected 'x' after d[...] (at position 4)"),
    (["compile-formula", "{path}", "--m", "1"], "x1 + 1",
     "expected '=' or '!=' in atom (at position 6)"),
], ids=["bare-x0", "derivative-of-x0", "ideal-and", "ideal-equals",
        "header-key-without-value", "header-without-n", "index-without-[",
        "variable-without-index", "variable-without-number",
        "derivative-of-y", "atom-without-relation"])
def test_formula_and_ideal_token_errors(tmp_path, capsys, argv, text,
                                        message):
    # a formula's bare x0 is refused as x0_[0] would be, at its own
    # position; '&' scans only in a formula, and '=' scans everywhere but
    # ends no polynomial
    path = tmp_path / "input.txt"
    path.write_text(text + "\n")
    code, out = invoke(capsys, [a.format(path=path) for a in argv])
    assert (code, out) == (EXIT_USAGE, json.dumps(
        {"error": "usage", "message": message}) + "\n")


@pytest.mark.parametrize("argv", [
    ["axiom-shape", "8001", "2"],
    ["gamma", "--m", "2", "--r", "9" * 4001],
], ids=["axiom-shape", "gamma"])
def test_huge_coordinate_counts_name_the_budget(argv):
    # both counts have over 4,300 decimal digits
    proc = run_cli_process(argv)
    assert (proc.stderr, proc.returncode) == ("", EXIT_RESOURCE)
    out = json.loads(proc.stdout)
    assert out["error"] == "resource"
    assert out["message"].endswith("exceeds the coordinate budget")
