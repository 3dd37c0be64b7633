"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q bench/tests
"""
import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)

import cli_batch  # noqa: E402
import groebner_classic  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

ROOT = os.path.dirname(BENCH_DIR)
CAP_S = 120.0


def _pass(jobs, trace=False):
    deadline = time.perf_counter() + 2 * CAP_S
    tracer = spans.Tracer().install() if trace else None
    try:
        _, _, results = run.run_pass(jobs, CAP_S, deadline)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return results, tracer


def _counts(summary):
    return {k: v for k, v in summary.items()
            if not k.endswith((".s", ".self_s"))}


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_tracing_keeps_outputs_and_counts_repeat(workload, tmp_path):
    api = run.load_api()
    jobs = run.WORKLOADS[workload](api, 1, str(tmp_path))
    results, _ = _pass(jobs)
    plain, errors = run.judge(jobs, results)
    assert errors == []
    assert plain == run.golden_digests(workload, 1)
    counts = []
    for _ in range(2):
        results, tracer = _pass(jobs, trace=True)
        assert run.judge(jobs, results) == (plain, [])
        counts.append(_counts(tracer.summary()))
    assert counts[0] == counts[1]
    assert counts[0]["groebner.buchberger.calls"] > 0


def test_reflected_variants_do_the_same_work(tmp_path):
    api = run.load_api()
    counts = []
    for variant in (0, 1, 2):
        jobs = groebner_classic.build(api, 5, str(tmp_path), variant)
        results, tracer = _pass(jobs, trace=True)
        assert run.judge(jobs, results)[1] == []
        counts.append(_counts(tracer.summary()))
    assert counts[0] == counts[1] == counts[2]


def test_scale_uses_the_loops_on_each_side():
    nominal = run.CALIBRATION_NOMINAL_S
    # two loops before job 0, two between jobs 0 and 1, none before job 2
    loops = [(0, nominal), (0, nominal), (1, 2 * nominal),
             (1, 2 * nominal), (3, 4 * nominal), (3, 4 * nominal)]
    scaled = run.scale([1.0, 1.0, None, 1.0], loops)
    assert scaled[0] == pytest.approx(1 / 1.5)
    assert scaled[1] == pytest.approx(1 / 3.0)
    assert scaled[2] is None
    assert scaled[3] == pytest.approx(1 / 4.0)


def test_tracer_patches_every_binding_and_restores():
    api = run.load_api()
    original = api.groebner.normal_form
    is_zero_mod = api.kernels.KernelPresentation.is_zero_mod
    tracer = spans.Tracer().install()
    try:
        wrapped = api.groebner.normal_form
        assert wrapped is not original
        assert api.kernels.normal_form is wrapped
        assert api.normal_form is wrapped
        assert api.axioms.kernel_prolong_once is api.kernels.kernel_prolong_once
        assert api.files.parse_poly is api.dpoly.parse_poly
        assert api.kernels.KernelPresentation.is_zero_mod is not is_zero_mod
    finally:
        tracer.uninstall()
    assert api.groebner.normal_form is original
    assert api.kernels.normal_form is original
    assert api.normal_form is original
    assert api.kernels.KernelPresentation.is_zero_mod is is_zero_mod


def _main(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    return code, json.loads(out.getvalue().splitlines()[-1])


def _benchmark_names(key):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[key]]


def test_run_prints_every_metric_of_both_modes():
    code, plain = _main(["--workload", "groebner-classic", "--seed", "2",
                         "--seconds", "1", "--trace", "0"])
    assert code == 0 and plain["correct"] and plain["failed"] == 0
    assert sorted(plain["metrics"]) == sorted(_benchmark_names("end_to_end"))
    assert all(m["value"] > 0 for m in plain["metrics"].values())
    code, traced = _main(["--workload", "groebner-classic", "--seed", "2",
                          "--seconds", "1", "--trace", "1"])
    assert code == 0 and traced["correct"]
    assert sorted(traced["metrics"]) == sorted(_benchmark_names("per_layer"))
    assert isinstance(traced["metrics"]["trace.overhead_ratio"]["value"],
                      float)


def test_two_seeds_give_different_cli_inputs_and_both_pass(tmp_path):
    texts = {seed: [text for _, _, text, _ in cli_batch.specs(seed)]
             for seed in (1, 2)}
    assert set(texts[1]) != set(texts[2])
    api = run.load_api()
    for seed in (1, 2):
        workdir = tmp_path / str(seed)
        workdir.mkdir()
        jobs = cli_batch.build(api, seed, str(workdir))
        assert len(jobs) >= 100
        results, _ = _pass(jobs)
        assert run.judge(jobs, results)[1] == []


def test_altered_answer_fails_the_run(monkeypatch):
    def altered(api, seed, workdir, variant=0):
        jobs = groebner_classic.build(api, seed, workdir, variant)
        idx = next(i for i, job in enumerate(jobs)
                   if job.name.startswith("radical-"))
        job = jobs[idx]
        jobs[idx] = job._replace(call=lambda: not job.call())
        return jobs

    monkeypatch.setitem(run.WORKLOADS, "groebner-classic", altered)
    code, result = _main(["--workload", "groebner-classic", "--seed", "3",
                          "--seconds", "0.5", "--trace", "0"])
    assert code != 0
    assert result["correct"] is False and result["failed"] >= 1


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-batch",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _to_sympy(text, sympy):
    return sympy.sympify(re.sub(r"x(\d+)_\[0\]", r"x\1",
                                text).replace("^", "**"))


def test_pinned_bases_match_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.orderings import ProductOrder, grevlex

    pinned = groebner_classic.pinned_bases()
    for name, mode, n, gens, order, eliminate in groebner_classic.SYSTEMS:
        # diffalg ranks x_n above ... above x_1
        xs = sympy.symbols(" ".join("x%d" % i for i in range(n, 0, -1)))
        if order == "block":
            first = [x for x in xs if int(str(x)[1:]) in eliminate]
            xs = tuple(first) + tuple(x for x in xs if x not in first)
            k = len(first)
            order = ProductOrder((grevlex, lambda m: m[:k]),
                                 (grevlex, lambda m: m[k:]))
        domain = "QQ(t1)" if mode == "rational" else "QQ"
        want = sympy.groebner([_to_sympy(g, sympy) for g in gens], *xs,
                              order=order, domain=domain).exprs
        got = [_to_sympy(g, sympy) for g in pinned[name]]
        assert len(got) == len(want), name
        for g in got:
            assert any(sympy.cancel(g - w) == 0 for w in want), (name, g)
