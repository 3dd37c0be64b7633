"""`scripts/trace_counts.py` compares two trees' `--trace 1` counts; here it
reads canned result lines and starts no benchmark run."""
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SCRIPT = load(ROOT / "scripts" / "trace_counts.py", "trace_counts")


def result(**values):
    """A result line with the given metrics, their unit read off the
    name's last part as the benchmark names them."""
    units = {"calls": "count", "builds": "count", "self_s": "s",
             "max_bits": "bits", "ratio": "ratio"}
    metrics = {}
    for key, value in values.items():
        name = key.replace("__", ".")
        unit = next(u for suffix, u in units.items() if name.endswith(suffix))
        metrics[name] = {"value": value, "unit": unit}
    return json.dumps({"correct": True, "attempted": 3, "failed": 0,
                       "metrics": metrics})


BASE = dict(groebner__normal_form__calls=956,
            groebner__normal_form__self_s=0.02,
            kernels__saturation_builds=10, coeff__max_bits=17,
            groebner__buchberger__zero_reductions_ratio=0.11,
            trace__overhead_ratio=0.03)


def test_only_counts_bits_and_ratios_are_compared():
    assert SCRIPT.compared(result(**BASE)) == {
        "groebner.normal_form.calls": 956, "kernels.saturation_builds": 10,
        "coeff.max_bits": 17,
        "groebner.buchberger.zero_reductions_ratio": 0.11}
    # times and the tracer's overhead may differ freely
    moved = dict(BASE, groebner__normal_form__self_s=0.5,
                 trace__overhead_ratio=0.9)
    assert SCRIPT.differences(result(**BASE), result(**moved)) == []


def test_each_differing_metric_is_listed_with_both_values():
    moved = dict(BASE, groebner__normal_form__calls=684, coeff__max_bits=18,
                 groebner__buchberger__zero_reductions_ratio=0.12)
    assert SCRIPT.differences(result(**BASE), result(**moved)) == [
        ("groebner.normal_form.calls", 956, 684), ("coeff.max_bits", 17, 18),
        ("groebner.buchberger.zero_reductions_ratio", 0.11, 0.12)]
    # a metric on one side only differs, with None on the other
    fewer = dict(BASE)
    del fewer["kernels__saturation_builds"]
    assert SCRIPT.differences(result(**fewer), result(**BASE)) == [
        ("kernels.saturation_builds", None, 10)]


def test_main_prints_each_difference_and_a_summary(monkeypatch, capsys):
    lines = {"before": result(**BASE),
             "after": result(**dict(BASE, groebner__normal_form__calls=684))}
    runs = []

    def canned(tree, workload, seed, seconds):
        runs.append((Path(tree).name, workload, seed, seconds))
        return lines[Path(tree).name]

    monkeypatch.setattr(SCRIPT, "run_trace", canned)
    assert SCRIPT.main(["/x/before", "/x/after", "--seed", "3"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == ["%s groebner.normal_form.calls: 956 -> 684" % w
                   for w in SCRIPT.WORKLOADS] + [
        "3 of 12 metrics differ over 3 workloads (seed 3)"]
    assert [r[:3] for r in runs] == [(side, w, 3) for w in SCRIPT.WORKLOADS
                                     for side in ("before", "after")]
    lines["after"] = lines["before"]
    assert SCRIPT.main(["/x/before", "/x/after"]) == 0
    assert capsys.readouterr().out == (
        "0 of 12 metrics differ over 3 workloads (seed 1)\n")


def test_expected_metrics_are_marked_and_must_move(monkeypatch, capsys):
    lines = {"before": result(**BASE),
             "after": result(**dict(BASE, groebner__normal_form__calls=684))}
    monkeypatch.setattr(SCRIPT, "run_trace",
                        lambda tree, *rest: lines[Path(tree).name])
    expect = ["--expect", "groebner.normal_form.calls"]
    assert SCRIPT.main(["/x/before", "/x/after"] + expect) == 0
    assert capsys.readouterr().out.splitlines() == [
        "%s groebner.normal_form.calls: 956 -> 684 (expected)" % w
        for w in SCRIPT.WORKLOADS] + [
        "3 of 12 metrics differ over 3 workloads (seed 1)"]
    # a metric not expected still fails the comparison
    lines["after"] = result(**dict(BASE, groebner__normal_form__calls=684,
                                   coeff__max_bits=18))
    assert SCRIPT.main(["/x/before", "/x/after"] + expect) == 1
    out = capsys.readouterr().out.splitlines()
    assert "kernel-tower coeff.max_bits: 17 -> 18" in out
    assert "kernel-tower groebner.normal_form.calls: 956 -> 684 (expected)" \
        in out
    # so does an expected metric that moves on no workload
    lines["after"] = result(**dict(BASE, groebner__normal_form__calls=684))
    assert SCRIPT.main(["/x/before", "/x/after"] + expect + [
        "--expect", "kernels.saturation_builds"]) == 1
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "3 of 12 metrics differ over 3 workloads (seed 1)",
        "expected kernels.saturation_builds differs on no workload"]


def test_a_failed_run_exits_2(monkeypatch, capsys):
    def failing(tree, workload, seed, seconds):
        raise SCRIPT.RunFailed("%s: %s exited 1" % (tree, workload))

    monkeypatch.setattr(SCRIPT, "run_trace", failing)
    assert SCRIPT.main(["/x/before", "/x/after"]) == 2
    assert capsys.readouterr().out.startswith("run failed: ")
