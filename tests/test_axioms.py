import itertools
import json
import random

import pytest

from diffalg.axioms import (atom_rho_text, axiom_shape, compile_formula,
                            containment_check, counterexample_demo)
from diffalg.coeff import FieldMode
from diffalg.dpoly import Context, parse_poly
from diffalg.errors import ContextError, ParseError
from diffalg.groebner import IdealPresentation
from diffalg.kernels import KernelPresentation, kernel_validate

from helpers import rand_dpoly

C1 = Context(n=1, m=1, mode=FieldMode("constants", 1))
M2 = Context(n=1, m=2, mode=FieldMode("constants", 2))


def test_axiom_shape_examples():
    s = axiom_shape(1, 1)
    assert (s.C, s.alpha, s.beta) == (1, 2, 1)
    s = axiom_shape(1, 2)
    assert (s.C, s.alpha, s.beta) == (2, 6, 3)
    s = axiom_shape(2, 2)
    assert (s.C, s.alpha, s.beta) == (4, 30, 20)


def test_axiom_shape_consistency_with_maps():
    s = axiom_shape(2, 2)
    assert s.alpha == len(s.layout)
    assert s.beta == len(s.pi_indices)


def test_containment_counterexample_holds():
    W = IdealPresentation(M2, [parse_poly("x1_[1,0] - 1", M2),
                               parse_poly("x1_[0,1] - x1_[0,0]", M2)])
    verdict = containment_check(W, "naive")
    assert verdict.holds
    assert verdict.elimination_generators == []
    assert not verdict.witnesses


def test_containment_fails_with_witness():
    W = IdealPresentation(C1, [parse_poly("x1_[0]", C1),
                               parse_poly("x1_[1] - 1", C1)])
    verdict = containment_check(W, "naive")
    assert not verdict.holds
    (w,) = verdict.witnesses
    assert w["generator"] == "x1_[0]"
    assert w["k"] == 1
    assert w["normal_form"] == "1"


def test_containment_parabola_holds():
    W = IdealPresentation(C1, [parse_poly("x1_[1] - x1_[0]^2", C1)])
    verdict = containment_check(W, "naive")
    assert verdict.holds
    assert verdict.elimination_generators == []


def test_containment_rejects_overlong_variables():
    ctx = Context(n=1, m=1, mode=FieldMode("constants", 1))
    W = IdealPresentation(ctx, [parse_poly("x1_[2] - 1", ctx)])
    with pytest.raises(ContextError):
        containment_check(W, "naive")
    with pytest.raises(ContextError):
        containment_check(W, "bogus")


def test_naive_and_sharp_agree_for_m1():
    # C_{1,1}^n = 1 makes the two ambient layouts coincide
    rng = random.Random(9)
    ctx = Context(n=2, m=1, mode=FieldMode("constants", 1))
    variables = [(i, (j,)) for i in range(1, 3) for j in (0, 1)]
    for _ in range(10):
        gens = [rand_dpoly(rng, ctx, variables, max_deg=2, max_terms=2)
                for _ in range(rng.randint(1, 2))]
        W = IdealPresentation(ctx, gens)
        assert (containment_check(W, "naive").holds
                == containment_check(W, "sharp").holds)


def test_verdict_presentation_independent():
    gens = [parse_poly("x1_[0]", C1), parse_poly("x1_[1] - 1", C1)]
    verdicts = set()
    for perm in itertools.permutations(gens):
        W = IdealPresentation(C1, list(perm))
        verdicts.add(containment_check(W, "naive").holds)
    assert verdicts == {False}


def test_sharp_holds_gives_valid_truncation_kernel():
    # when the containment holds, the level-1 data reads off a genuine kernel
    W = IdealPresentation(C1, [parse_poly("x1_[1] - x1_[0]^2", C1)])
    assert containment_check(W, "sharp").holds
    K = KernelPresentation(ctx=C1, r=1, ideal=W)
    assert kernel_validate(K).valid


def test_compile_formula_examples():
    out = compile_formula("d[1,1]x1 * x1 - 1 = 0", 2)
    assert (out.formula.t, out.formula.r) == (1, 2)
    assert out.n == 3
    assert not out.algebraically_closed

    out = compile_formula("d[1]x1 - x1 = 0", 1)
    assert (out.formula.t, out.formula.r) == (1, 1)
    assert out.n == 1
    assert (out.alpha, out.beta) == (2, 1)

    out = compile_formula("x1 - 1 = 0", 2)
    assert out.formula.r == 0
    assert out.algebraically_closed


def test_compile_formula_connectives_and_atoms():
    out = compile_formula("(d[1]x1 = 0 | x1 != 1) & !(x2 = x1)", 1)
    assert out.formula.t == 2
    atoms = out.formula.atoms()
    assert [rel for _, rel in atoms] == ["eq", "neq", "eq"]
    # the atom polynomials live over the renamed algebraic variables
    ctx = out.formula.ctx
    assert atoms[0][0] == parse_poly("x1_[1]", ctx)
    assert atoms[2][0] == parse_poly("x2_[0] - x1_[0]", ctx)


def test_compile_formula_roundtrip():
    texts = ["d[1,1]x1*x1 - 1 = 0",
             "d[1,0]x1 - x2 = 0",
             "x1^2 - 2*x2 != 0"]
    for text in texts:
        out = compile_formula(text, 2)
        for poly, rel in out.formula.atoms():
            rendered = atom_rho_text(poly, rel)
            again = compile_formula(rendered, 2)
            (atom2,) = again.formula.atoms()
            assert atom2[1] == rel
            ctx = out.formula.ctx.with_n(max(out.formula.t, again.formula.t))
            assert atom2[0].with_context(ctx) == poly.with_context(ctx)


def test_compile_formula_errors():
    with pytest.raises(ParseError):
        compile_formula("1 = 1", 1)  # no differential variables
    with pytest.raises(ParseError):
        compile_formula("d[1]x1 = 0", 2)  # index arity mismatch
    with pytest.raises(ParseError):
        compile_formula("d[1]x1 + = 0", 1)


def test_demo_verdicts():
    report = counterexample_demo()
    assert report["containment"]["holds"]
    assert report["kernel"]["valid"]
    assert report["kernel"]["status"] == "obstructed"
    nf = report["kernel"]["witness"]["normal_form"]
    assert nf not in ("0",) and "x" not in nf


def test_demo_deterministic_and_mode_independent():
    a = json.dumps(counterexample_demo(), sort_keys=True)
    b = json.dumps(counterexample_demo(), sort_keys=True)
    assert a == b
    rat = counterexample_demo("rational")
    const = counterexample_demo("constants")
    assert rat["containment"]["holds"] == const["containment"]["holds"]
    assert rat["kernel"]["status"] == const["kernel"]["status"]
    assert (rat["kernel"]["witness"]["normal_form"]
            == const["kernel"]["witness"]["normal_form"])
