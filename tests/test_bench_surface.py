"""The names the benchmark calls and traces must stay resolvable.

`bench/spans.py` patches the functions listed in its TARGETS, and the
workloads call diffalg through its public package.  A rename or removal
that would break `bench/run.py` fails here instead.  `bench/` is only read.
"""
import importlib
import sys
from pathlib import Path

import pytest

import diffalg
import diffalg.cli
import diffalg.files
from diffalg.dpoly import order_packing

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def load_bench(name):
    sys.path.insert(0, str(BENCH_DIR))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCH_DIR))


def resolve(obj, path):
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def test_traced_targets_resolve():
    spans = load_bench("spans")
    assert spans.TARGETS
    for _, module, path in spans.TARGETS:
        target = resolve(importlib.import_module("diffalg." + module), path)
        assert callable(target), (module, path)


@pytest.mark.parametrize("path", [
    "Context", "FieldMode", "parse_poly", "print_poly", "buchberger",
    "radical_member", "elimination_ideal", "kernel_prolong_to",
    "files.load_ideal_text", "files.load_kernel_text", "cli.run",
])
def test_workload_names_resolve(path):
    assert callable(resolve(diffalg, path))


def test_workload_orders_build():
    x1 = (1, (0,))
    for order in (diffalg.MonomialOrder.grevlex(), diffalg.MonomialOrder.lex(),
                  diffalg.MonomialOrder.block_elim({x1})):
        assert callable(order.packing)


def test_buchberger_returns_a_list_of_the_basis():
    # the tracer takes len() of the result as the basis size and the
    # groebner-classic renderer iterates it
    ctx = diffalg.Context(n=3, m=1, mode=diffalg.FieldMode("constants", 1))
    gens = [diffalg.parse_poly(text, ctx)
            for text in ("x2_[0] - x3_[0]^2", "x1_[0] - x3_[0]^3")]
    gb = diffalg.buchberger(gens, diffalg.MonomialOrder.lex())
    assert type(gb) is list
    assert [diffalg.print_poly(g) for g in gb] == [
        "x2_[0]^3 - x1_[0]^2", "-x2_[0]^2 + x1_[0]*x3_[0]",
        "x2_[0]*x3_[0] - x1_[0]", "x3_[0]^2 - x2_[0]"]
    assert len(gb) == 4


def test_cli_batch_pass_evicts_no_order_packing(tmp_path):
    # printing and division share order_packing's LRU; one cli-batch pass
    # must fit in it, or a later pass rebuilds packings it evicted
    cli_batch = load_bench("cli_batch")
    jobs = cli_batch.build(diffalg, 1, str(tmp_path), 1)
    order_packing.cache_clear()
    for job in jobs:
        job.call()
    info = order_packing.cache_info()
    assert info.misses == info.currsize < info.maxsize
