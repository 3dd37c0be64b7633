import itertools
import json
import random

import pytest

from diffalg import axioms, groebner
from diffalg.axioms import (atom_rho_text, axiom_shape, compile_formula,
                            containment_check, counterexample_demo)
from diffalg.coeff import FieldMode
from diffalg.dpoly import (Context, DiffPolynomial, derivation_image,
                           parse_poly, print_poly)
from diffalg.errors import ContextError, ParseError
from diffalg.groebner import IdealPresentation
from diffalg.kernels import KernelPresentation, kernel_validate

from helpers import rand_dpoly, reference_containment

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


def _verdict_text(W, kind, check):
    # a fresh presentation per check, so no basis is shared between them
    W = IdealPresentation(W.ctx, list(W.generators))
    return json.dumps(check(W, kind).to_json(), sort_keys=True)


def _containment_corpus(rng, ctx, kind, count):
    """Random W in the ambient of `kind`: generators over the projected
    levels, with all their D_k-images (the check mostly holds), with
    graphs x - q for top-level variables x, or with random generators over
    every level."""
    top = 1 if kind == "naive" else axiom_shape(ctx.n, ctx.m).C
    levels = [xi for xi in itertools.product(range(top + 1), repeat=ctx.m)
              if sum(xi) <= top]
    every = [(i, xi) for xi in levels for i in range(1, ctx.n + 1)]
    lower = [v for v in every if sum(v[1]) < top]
    corpus = []
    for idx in range(count):
        gens = [rand_dpoly(rng, ctx, lower, max_deg=2, max_terms=2)
                for _ in range(rng.randint(1, 2))]
        if idx % 3 == 0:
            gens += [derivation_image(g, k) for g in list(gens)
                     for k in range(1, ctx.m + 1)]
        elif idx % 3 == 1:
            gens += [DiffPolynomial.var(ctx, *v)
                     - rand_dpoly(rng, ctx, every, max_deg=2, max_terms=2,
                                  nonzero=False)
                     for v in every if v not in lower and rng.random() < 0.7]
        else:
            gens += [rand_dpoly(rng, ctx, every, max_deg=2, max_terms=3)
                     for _ in range(rng.randint(1, 2))]
        corpus.append(IdealPresentation(ctx, gens))
    return corpus


@pytest.mark.parametrize("mode", ["constants", "rational"])
@pytest.mark.parametrize("kind,n,m", [("naive", 2, 1), ("naive", 1, 2),
                                      ("sharp", 1, 2)])
def test_containment_matches_reference_loop(mode, kind, n, m):
    ctx = Context(n=n, m=m, mode=FieldMode(mode, m))
    rng = random.Random("containment:%s:%s:%d:%d" % (mode, kind, n, m))
    one = DiffPolynomial.from_int(ctx, 1)
    x = DiffPolynomial.var(ctx, 1, (0,) * m)
    corpus = _containment_corpus(rng, ctx, kind, 24) + [
        IdealPresentation(ctx, []),  # no generators
        IdealPresentation(ctx, [x, x - one]),  # the unit ideal
        # only projected variables: the elimination removes nothing
        IdealPresentation(ctx, [x * x - one]),
    ]
    verdicts = set()
    for W in corpus:
        got = _verdict_text(W, kind, containment_check)
        assert got == _verdict_text(W, kind, reference_containment)
        verdicts.add(json.loads(got)["holds"])
    assert verdicts == {True, False}


def _logged_containment(monkeypatch, W):
    """containment_check(W, "naive") and, in call order, the order kind of
    each buchberger call and each condition ("D", generator, k) formed."""
    log = []

    def buchberger(gens, order, *args, inner=groebner.buchberger):
        log.append(order.kind)
        return inner(gens, order, *args)

    def image(g, k, inner=axioms.derivation_image):
        log.append(("D", print_poly(g), k))
        return inner(g, k)

    monkeypatch.setattr(groebner, "buchberger", buchberger)
    monkeypatch.setattr(axioms, "derivation_image", image)
    return containment_check(W, "naive"), log


@pytest.mark.parametrize("text,order", [
    # x1_[1] eliminated; D_1(x1_[0]^2) = 2*x1_[0]*x1_[1] lies in W
    ("x1_[0]^2; x1_[0]*x1_[1]", "block"),
    # nothing eliminated: the unit ideal, decided on W's own basis
    ("x1_[0]; x1_[0] - 1", "grevlex"),
])
def test_holding_containment_builds_one_basis(monkeypatch, text, order):
    W = IdealPresentation(C1, [parse_poly(t, C1) for t in text.split(";")])
    verdict, log = _logged_containment(monkeypatch, W)
    assert verdict.holds
    assert [e for e in log if isinstance(e, str)] == [order]


def test_failing_containment_builds_the_grevlex_basis_at_its_first_witness(
        monkeypatch):
    ctx = Context(n=3, m=1, mode=FieldMode("constants", 1))
    W = IdealPresentation(ctx, [parse_poly(t, ctx) for t in (
        "x1_[0]", "x1_[1]", "x2_[0] - 1", "x3_[0] - 2")])
    expected = _verdict_text(W, "naive", reference_containment)
    verdict, log = _logged_containment(monkeypatch, W)
    assert json.dumps(verdict.to_json(), sort_keys=True) == expected
    first = verdict.witnesses[0]
    assert len(verdict.witnesses) == 2
    # the first condition, D_1(x1_[0]) = x1_[1], holds and builds nothing
    assert log == ["block", ("D", "x1_[0]", 1),
                   ("D", first["generator"], first["k"]), "grevlex",
                   ("D", verdict.witnesses[1]["generator"], 1)]


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
