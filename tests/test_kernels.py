import itertools
import random

import pytest

from diffalg.coeff import FieldMode
from diffalg.dpoly import Context, DiffPolynomial, parse_poly, print_poly
from diffalg.errors import ContextError
from diffalg.groebner import IdealPresentation
from diffalg.kernels import (KernelPresentation, KernelValidationError,
                             kernel_prolong_once, kernel_prolong_to,
                             kernel_validate, realization_bound)

from helpers import graph_kernel, kernel_corpus, ode_kernel

C1 = Context(n=1, m=1, mode=FieldMode("constants", 1))
M2 = Context(n=1, m=2, mode=FieldMode("constants", 2))


def make_kernel(ctx, r, texts, inverted=()):
    gens = [parse_poly(t, ctx) for t in texts]
    return KernelPresentation(ctx=ctx, r=r, ideal=IdealPresentation(ctx, gens),
                              inverted=list(inverted))


def counterexample_kernel(mode_kind="constants"):
    ctx = Context(n=1, m=2, mode=FieldMode(mode_kind, 2))
    return make_kernel(ctx, 1, ["x1_[1,0] - 1", "x1_[0,1] - x1_[0,0]"])


def test_presentation_rejects_overlong_variables():
    with pytest.raises(ContextError):
        make_kernel(C1, 0, ["x1_[1] - 1"])


def test_validate_vacuous():
    K = make_kernel(C1, 1, ["x1_[1] - x1_[0]"])
    assert kernel_validate(K).valid


def test_validate_detects_violation():
    K = make_kernel(C1, 2, ["x1_[0]", "x1_[1] - 1"])
    report = kernel_validate(K)
    assert not report.valid
    hit = [v for v in report.violations if v["generator"] == "x1_[0]"]
    assert hit and hit[0]["normal_form"] == "1"


def test_validate_counterexample_is_genuine_kernel():
    assert kernel_validate(counterexample_kernel()).valid


def test_prolong_counterexample_obstructed():
    result = kernel_prolong_once(counterexample_kernel())
    assert result.status == "obstructed"
    assert result.next is None
    w = result.witness
    assert w.normal_form.is_constant()
    assert not w.normal_form.is_zero()
    # both generators and both derivations fed the inconsistent relation
    assert len(w.provenance) == 2


def test_prolong_linear_ode():
    K = make_kernel(C1, 1, ["x1_[1] - x1_[0]"])
    result = kernel_prolong_once(K)
    assert result.status == "prolonged"
    nxt = result.next
    assert nxt.r == 2
    # the new level is pinned: u^(2) = x^(1)
    rel = parse_poly("x1_[2] - x1_[1]", nxt.ctx)
    assert nxt.ideal.normal_form(rel).is_zero()


def test_prolong_zero_ideal_all_free():
    K = KernelPresentation(ctx=M2, r=0, ideal=IdealPresentation(M2, []))
    result = kernel_prolong_once(K)
    assert result.status == "prolonged"
    assert result.next.r == 1
    assert result.next.ideal.reduced_gb == []


def test_prolong_requires_valid_kernel():
    K = make_kernel(C1, 2, ["x1_[0]", "x1_[1] - 1"])
    with pytest.raises(KernelValidationError) as exc:
        kernel_prolong_once(K)
    assert exc.value.report.violations


SATURATION_DECIDES = ["x1_[0]*x1_[1] - x1_[0]", "x1_[0]*x1_[2]"]


@pytest.mark.parametrize("make,normal_forms", [
    (lambda: make_kernel(C1, 2, ["x1_[0]", "x1_[1] - 1"]), ["1", "x1_[2]"]),
    (lambda: make_kernel(C1, 2, SATURATION_DECIDES), ["x1_[1]^2 - x1_[1]"]),
    (lambda: make_kernel(C1, 2, SATURATION_DECIDES,
                         [parse_poly("x1_[0]", C1)]), []),
    (lambda: kernel_corpus()[4], []),
    (lambda: kernel_corpus()[9], []),
], ids=["r2-violations", "no-inverted", "inverted", "corpus4", "corpus9"])
def test_prolong_validates_like_kernel_validate(make, normal_forms):
    """kernel_prolong_once goes on exactly when kernel_validate's report is
    valid, and otherwise raises with that same report."""
    report = kernel_validate(make())
    assert [v["normal_form"] for v in report.violations] == normal_forms
    if report.valid:
        kernel_prolong_once(make())
        return
    with pytest.raises(KernelValidationError) as exc:
        kernel_prolong_once(make())
    assert exc.value.report.valid is False
    assert exc.value.report.violations == report.violations


def test_prolong_to_quadratic_ode():
    K = make_kernel(C1, 1, ["x1_[1] - x1_[0]^2"])
    result, info = kernel_prolong_to(K, 3)
    assert result.status == "prolonged"
    assert result.next.r == 3
    assert info["bound"] == 1
    assert info["final_length"] == 3
    assert info["realization_guaranteed"]


def test_prolong_to_counterexample_stops_at_first_step():
    result, info = kernel_prolong_to(counterexample_kernel(), 2)
    assert result.status == "obstructed"
    assert info["final_length"] == 1
    assert not info["realization_guaranteed"]


def test_prolong_to_identity():
    K = make_kernel(C1, 1, ["x1_[1] - x1_[0]"])
    result, info = kernel_prolong_to(K, 1)
    assert result.status == "prolonged"
    assert result.next is K
    assert info["final_length"] == 1
    with pytest.raises(ContextError):
        kernel_prolong_to(K, 0)


def test_realization_bound_examples():
    assert realization_bound(make_kernel(C1, 1, ["x1_[1]"])) == 1
    assert realization_bound(counterexample_kernel()) == 2
    ctx3 = Context(n=1, m=3, mode=FieldMode("constants", 3))
    K = KernelPresentation(ctx=ctx3, r=2, ideal=IdealPresentation(ctx3, []))
    assert realization_bound(K) == 9


def test_pivot_denominator_is_inverted():
    # x^(0) * x^(1) - 1: prolonging divides by x^(0)
    K = make_kernel(C1, 1, ["x1_[0]*x1_[1] - 1"])
    result = kernel_prolong_once(K)
    assert result.status == "prolonged"
    assert result.next.inverted
    assert kernel_validate(result.next).valid


@pytest.mark.parametrize("idx", range(0, 50, 7))
def test_corpus_prolonged_kernels_validate_and_contain(idx):
    K = kernel_corpus()[idx]
    result = kernel_prolong_once(K)
    assert result.status == "prolonged"
    nxt = result.next
    assert kernel_validate(nxt).valid
    for g in K.ideal.generators:
        assert nxt.ideal.normal_form(g).is_zero()


def test_ode_kernel_from_separant():
    K = ode_kernel((2, -1))
    assert kernel_validate(K).valid
    result = kernel_prolong_once(K)
    assert result.status == "prolonged"


def test_status_is_presentation_invariant():
    rng = random.Random(42)
    for _ in range(4):
        K = graph_kernel(rng)
        reference = kernel_prolong_once(K).status
        gens = K.ideal.generators
        for perm in itertools.permutations(gens):
            K2 = KernelPresentation(ctx=K.ctx, r=K.r,
                                    ideal=IdealPresentation(K.ctx, list(perm)))
            assert kernel_prolong_once(K2).status == reference
    ce = counterexample_kernel()
    swapped = KernelPresentation(
        ctx=ce.ctx, r=ce.r,
        ideal=IdealPresentation(ce.ctx, list(reversed(ce.ideal.generators))))
    assert kernel_prolong_once(swapped).status == "obstructed"


def test_obstruction_soundness_randomized():
    # obstructions must always carry a nonzero-constant witness
    for mode in ("constants", "rational"):
        result = kernel_prolong_once(counterexample_kernel(mode))
        assert result.status == "obstructed"
        nf = result.witness.normal_form
        assert nf.is_constant() and not nf.is_zero()
        assert not result.next
