import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from diffalg import files, groebner, kernels
from diffalg.coeff import FieldMode
from diffalg.dpoly import (Context, DiffPolynomial, derivation_image,
                           mono_mul, parse_poly, print_poly)
from diffalg.errors import ContextError, ResourceBudgetError
from diffalg.groebner import (IdealPresentation, MonomialOrder, buchberger,
                              leading_term)
from diffalg.kernels import (KernelPresentation, KernelValidationError,
                             kernel_prolong_once, kernel_prolong_to,
                             kernel_validate, realization_bound)

from diffalg.indices import deg, gamma_set

from helpers import (graph_kernel, kernel_corpus, ode_kernel,
                     reference_kernel_prolong_once)

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


@pytest.mark.parametrize("idx", range(0, 50, 6))
def test_prolongation_keeps_the_old_basis_verbatim(idx):
    # The new relations' lex leads carry a level-(r+1) unknown, so none
    # divides a term of the old basis: its elements come through as they
    # are, and the basis is the one computed from scratch.
    K = kernel_corpus()[idx]
    for _ in range(2):
        gb = K.ideal.reduced_gb
        result = kernel_prolong_once(K)
        assert result.status == "prolonged"
        K = result.next
        got = K.ideal.reduced_gb
        assert all(any(g is h for h in got) for g in gb)
        want = buchberger(K.ideal.generators, MonomialOrder.lex())
        assert [print_poly(g) for g in got] == [print_poly(g) for g in want]
        # the same terms in the same order, each coefficient in the same form
        assert ([[(m, str(c)) for m, c in g.terms.items()] for g in got]
                == [[(m, str(c)) for m, c in g.terms.items()] for g in want])


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


# -- validity by construction ------------------------------------------------

def m2_kernel(mode_kind, texts, inverted=(), n=1):
    ctx = Context(n=n, m=2, mode=FieldMode(mode_kind, 2))
    return make_kernel(ctx, 1, texts, [parse_poly(t, ctx) for t in inverted])


CONSTRUCTION_CASES = {  # name: (kernel maker, levels added)
    "ode-3-roots": (lambda: ode_kernel((3, -2, 0)), 3),
    "ode-rational": (lambda: ode_kernel((1, 2), "rational"), 3),
    "graph-rational": (lambda: graph_kernel(random.Random(7), "rational"), 2),
    "implicit-t1": (lambda: make_kernel(
        Context(n=1, m=1, mode=FieldMode("rational", 1)), 1,
        ["x1_[0]*x1_[1] - 2*t1"]), 3),
    "inverted-m1": (lambda: make_kernel(C1, 2, SATURATION_DECIDES,
                                        [parse_poly("x1_[0]", C1)]), 2),
    "zero-m2": (lambda: KernelPresentation(ctx=M2, r=0,
                                           ideal=IdealPresentation(M2, [])),
                3),
    "rational-m2": (lambda: m2_kernel("rational", [
        "x1_[1,0] - t1*x1_[0,0]", "x1_[0,1] + t2*x1_[0,0]"]), 2),
    "riccati-m2": (lambda: m2_kernel("constants", [
        "x1_[1,0] - x1_[0,0]^2", "x1_[0,1] + 2*x1_[0,0]^2"]), 2),
    "implicit-m2": (lambda: m2_kernel("constants", [
        "x1_[0,0]*x1_[1,0] - 3", "x1_[0,1]"]), 2),
    "inverted-m2": (lambda: m2_kernel("rational", [
        "x1_[0,0]*x1_[1,0] - t1", "x1_[0,0]*x1_[0,1] - 2*t2"],
        inverted=["x1_[0,0]"]), 2),
    "rotation-m2-n2": (lambda: m2_kernel("constants", [
        "x1_[1,0] - 2*x2_[0,0]", "x2_[1,0] + x1_[0,0]",
        "x1_[0,1] - 3*x1_[0,0]", "x2_[0,1] - 3*x2_[0,0]"], n=2), 2),
}


def produced_kernels(monkeypatch, K, s):
    """Every kernel that kernel_prolong_to(K, s) produces, in order."""
    produced = []

    def recording(Kp):
        result = real(Kp)
        produced.append(result.next)
        return result

    real = kernels.kernel_prolong_once
    monkeypatch.setattr(kernels, "kernel_prolong_once", recording)
    result, _ = kernel_prolong_to(K, s)
    monkeypatch.undo()
    assert result.status == "prolonged" and len(produced) == s - K.r
    return produced


@pytest.mark.parametrize("name", sorted(CONSTRUCTION_CASES))
def test_produced_kernels_are_valid(monkeypatch, name):
    # what kernel_prolong_once no longer checks on its own results
    make, levels = CONSTRUCTION_CASES[name]
    K = make()
    for nxt in produced_kernels(monkeypatch, K, K.r + levels):
        assert nxt.validated
        assert kernel_validate(nxt).valid
    if name.startswith("inverted"):
        assert nxt.inverted


def test_corpus_produced_kernels_are_valid(monkeypatch):
    for K in kernel_corpus():
        for nxt in produced_kernels(monkeypatch, K, K.r + 3):
            assert kernel_validate(nxt).valid


def counting_validate(monkeypatch):
    reports = []

    def counting(Kp):
        reports.append(real(Kp))
        return reports[-1]

    real = kernels.kernel_validate
    monkeypatch.setattr(kernels, "kernel_validate", counting)
    return reports


def test_prolong_to_validates_a_loaded_kernel_once(monkeypatch):
    K = files.load_kernel_text("m=2 n=1 length=1 mode=rational\n"
                               "x1_[1,0] - t1*x1_[0,0]\n"
                               "x1_[0,1] + t2*x1_[0,0]\n")
    assert not K.validated
    reports = counting_validate(monkeypatch)
    result, info = kernel_prolong_to(K, K.r + 3)
    assert result.status == "prolonged" and info["final_length"] == 4
    assert len(reports) == 1 and reports[0].valid


def test_prolong_to_own_length_validates_once(monkeypatch):
    # with no level to run, kernel_prolong_to validates the kernel itself
    reports = counting_validate(monkeypatch)
    K = make_kernel(C1, 1, ["x1_[1] - x1_[0]"])
    result, info = kernel_prolong_to(K, K.r)
    assert result.next is K and info["final_length"] == 1
    assert len(reports) == 1 and reports[0].valid
    invalid = make_kernel(C1, 2, ["x1_[0]", "x1_[1] - 1"])
    with pytest.raises(KernelValidationError) as exc:
        kernel_prolong_to(invalid, 2)
    assert len(reports) == 2 and exc.value.report == reports[1]
    assert not reports[1].valid
    # a produced kernel is valid by construction
    nxt = kernel_prolong_once(K).next
    del reports[:]
    assert kernel_prolong_to(nxt, nxt.r)[0].next is nxt
    assert not reports


def test_prolong_to_refuses_a_target_over_the_level_budget(monkeypatch):
    K = make_kernel(C1, 1, ["x1_[1] - x1_[0]^2"])
    levels = []
    real = kernels.kernel_prolong_once

    def counting(Kp):
        levels.append(Kp.r)
        return real(Kp)

    monkeypatch.setattr(kernels, "kernel_prolong_once", counting)
    reports = counting_validate(monkeypatch)
    monkeypatch.setenv("DIFFALG_LEVEL_BUDGET", "3")
    with pytest.raises(ResourceBudgetError, match="target length 4 exceeds"
                       " the level budget"):
        kernel_prolong_to(K, 4)
    assert not levels and not reports  # refused before any work
    assert kernel_prolong_to(K, 3)[1]["final_length"] == 3
    assert levels == [1, 2] and len(reports) == 1
    # the default budget is 1000 levels (a level that ran would fail here
    # rather than run for minutes)
    monkeypatch.delenv("DIFFALG_LEVEL_BUDGET")
    monkeypatch.setattr(kernels, "kernel_prolong_once", levels.append)
    del levels[:]
    with pytest.raises(ResourceBudgetError):
        kernel_prolong_to(K, 1001)
    assert not levels


def test_only_produced_kernels_skip_validation(monkeypatch):
    nxt = kernel_prolong_once(make_kernel(C1, 1, ["x1_[0]*x1_[1] - 1"])).next
    hand = KernelPresentation(ctx=nxt.ctx, r=nxt.r, ideal=nxt.ideal,
                              inverted=list(nxt.inverted))
    # the flag takes no part in equality or repr, and no caller sets it
    assert nxt.validated and not hand.validated
    assert hand == nxt and repr(hand) == repr(nxt)
    assert "validated" not in repr(nxt)
    with pytest.raises(TypeError):
        KernelPresentation(ctx=C1, r=1, ideal=nxt.ideal, validated=True)
    reports = counting_validate(monkeypatch)
    assert (kernel_prolong_once(hand).next.ideal.reduced_gb
            == kernel_prolong_once(nxt).next.ideal.reduced_gb)
    assert len(reports) == 1 and reports[0].valid


def test_invalid_hand_built_kernel_still_raises(monkeypatch):
    reports = counting_validate(monkeypatch)
    K = make_kernel(C1, 2, SATURATION_DECIDES)
    with pytest.raises(KernelValidationError) as exc:
        kernel_prolong_once(K)
    assert len(reports) == 1
    assert exc.value.report.violations == reports[0].violations == [
        {"generator": "x1_[0]*x1_[1] - x1_[0]", "k": 1,
         "normal_form": "x1_[1]^2 - x1_[1]"}]


def test_prolongation_derives_no_lead_of_a_prefix(monkeypatch):
    # the next level's basis and its saturation basis complete a reduced
    # prefix, and take its leads from the ideal that computed it
    K = make_kernel(C1, 1, ["x1_[0]*x1_[1] - 1"])  # x1_[0] is inverted
    K.ideal.reduced_gb
    derived = []

    def counting(f, order):
        derived.append(print_poly(f))
        return leading_term(f, order)

    monkeypatch.setattr(groebner, "leading_term", counting)
    nxt = kernel_prolong_once(K).next
    gb = nxt.ideal.reduced_gb
    assert nxt.inverted and derived
    assert not set(derived) & {print_poly(g) for g in K.ideal.reduced_gb}
    derived.clear()
    sat = nxt._saturation_basis
    divisors = sat.divisors
    assert derived and not set(derived) & {print_poly(g) for g in gb}
    # the saturation basis arrives with its run's packing, every lead
    # keyed, so dividing by it derives no lead and packs nothing
    derived.clear()
    assert divisors.packing is not None
    assert len(divisors.keys) == len(divisors) > 1
    packs = []
    pack = groebner.DivisorBasis.pack

    def packing(self, *args):
        packs.append(args)
        return pack(self, *args)

    monkeypatch.setattr(groebner.DivisorBasis, "pack", packing)
    sat.normal_form(gb[0].with_context(sat.ctx))
    assert not derived and not packs


@pytest.mark.parametrize("text", [
    "m=2 n=1 length=1 mode=constants\nx1_[1,0] - 2*x1_[0,0]^2\n"
    "x1_[0,1] + x1_[0,0]^2\n",
    "m=2 n=1 length=1 mode=rational\nx1_[1,0] - t1*x1_[0,0]\n"
    "x1_[0,1] + t2*x1_[0,0]\n",
    "m=1 n=1 length=1 mode=rational\nx1_[0]*x1_[1] - 3*t1\n",
], ids=["riccati", "rational", "implicit"])
@pytest.mark.parametrize("widened", [False, True])
def test_prolongation_packs_the_basis_once_per_level(monkeypatch, text,
                                                     widened):
    # each level packs the kernel's basis once, before its rows, growing
    # its packing by the level's unknowns at its width without reading the
    # divisors' terms, so no row division widens; the next level's basis
    # completes that basis as its prefix under the same packing, and each
    # prefix element it keeps as it is holds the tail object packed for
    # it, so no prefix tail is packed twice over the levels.  A basis that an
    # earlier division widened keeps its wider slots.
    K = files.load_kernel_text(text)
    K.ideal.reduced_gb
    if widened:
        v = K.ideal.lms[0][0][0]  # the first variable of the first lead
        K.ideal.normal_form(DiffPolynomial.var(K.ctx, *v) ** 40)
        assert K.ideal.divisors.packing.limit >= 40
    packs, uses, widens, packed = [], [], [], []
    reading = [None]  # the term dicts support reads within a pack call
    pack, use, divide, tail, support = (
        groebner.DivisorBasis.pack, groebner.DivisorBasis._use,
        groebner._divide, groebner.DivisorBasis.tail, groebner.support)

    def counting_pack(self, *args):
        packs.append((self, []))
        reading[0] = packs[-1][1]
        try:
            return pack(self, *args)
        finally:
            reading[0] = None

    def reading_support(term_dicts):
        term_dicts = list(term_dicts)
        if reading[0] is not None:
            reading[0].extend(term_dicts)
        return support(term_dicts)

    def counting_use(self, packing):
        uses.append(self)
        return use(self, packing)

    def counting_divide(f, basis):
        try:
            return divide(f, basis)
        except groebner._Widen:
            widens.append(basis)
            raise

    def counting_tail(self, i):
        if self.tails[i] is None:
            packed.append(self.polys[i])  # kept alive: ids stay distinct
        return tail(self, i)

    monkeypatch.setattr(groebner.DivisorBasis, "pack", counting_pack)
    monkeypatch.setattr(groebner.DivisorBasis, "_use", counting_use)
    monkeypatch.setattr(groebner, "_divide", counting_divide)
    monkeypatch.setattr(groebner.DivisorBasis, "tail", counting_tail)
    monkeypatch.setattr(groebner, "support", reading_support)
    carried, prefixes = 0, []
    for _ in range(3):
        basis = K.ideal.divisors
        prefixes += basis.polys
        limit = basis.packing.limit
        packs.clear()
        uses.clear()
        widens.clear()
        nxt = kernel_prolong_once(K).next
        assert [b for b in uses if b is basis] == [basis]
        (read,) = [read for b, read in packs if b is basis]
        assert not [t for t in read if any(t is g.terms for g in basis.polys)]
        assert not [b for b in widens if b is basis]
        assert basis.packing.limit == limit
        following = nxt.ideal.divisors
        assert following.packing is basis.packing
        for g, t in zip(following.polys, following.tails):
            at = [i for i, h in enumerate(basis.polys) if g is h]
            if at and basis.tails[at[0]] is not None:
                assert t is basis.tails[at[0]]
                carried += 1
        K = nxt
    assert carried
    mine = [g for g in packed if any(g is h for h in prefixes)]
    assert mine and len({id(g) for g in mine}) == len(mine)


def recording_divisions(monkeypatch):
    """(dividend, basis, remainder) of every normal_form call."""
    calls = []
    divide = groebner.normal_form

    def recording(f, basis):
        nf = divide(f, basis)
        calls.append((f, basis, nf))
        return nf

    monkeypatch.setattr(groebner, "normal_form", recording)
    monkeypatch.setattr(kernels, "normal_form", recording)
    return calls


def member(f, gens):
    """Is f in the ideal gens generate?  A grevlex basis from scratch."""
    basis = groebner.DivisorBasis(MonomialOrder.grevlex(),
                                  buchberger(gens, MonomialOrder.grevlex()))
    return groebner.normal_form(f, basis).is_zero()


@pytest.mark.parametrize("inverted", [[], ["x1_[0]"]], ids=["none", "x1"])
def test_is_zero_mod_takes_a_normal_form(inverted):
    # is_zero_mod(nf) is membership of f in I : g^infinity, g the product
    # of the inverted elements: f in the Rabinowitsch ideal I + (1 - g*z)
    K = make_kernel(C1, 2, SATURATION_DECIDES,
                    [parse_poly(h, C1) for h in inverted])
    gens = K.ideal.generators
    if inverted:
        ctx2, gens = groebner.rabinowitsch(gens, parse_poly(inverted[0], C1))
    else:
        ctx2 = C1
    rng = random.Random(5)
    variables = [(1, (d,)) for d in range(3)]
    texts = ["0", "1", "x1_[0]", "x1_[1] - 1", "x1_[1]^2 - x1_[1]", "x1_[2]",
             "x1_[0]*x1_[2]", "x1_[0]*x1_[1] - x1_[0]", "x1_[1] + x1_[2]"]
    fs = [parse_poly(t, C1) for t in texts]
    for _ in range(12):
        f = DiffPolynomial.zero(C1)
        for t in rng.sample(texts[2:], 2):
            term = parse_poly(str(rng.randint(-3, 3)), C1)
            for v in rng.sample(variables, rng.randint(0, 2)):
                term = term * DiffPolynomial.var(C1, *v)
            f = f + term * parse_poly(t, C1)
        fs.append(f)
    verdicts = []
    for f in fs:
        verdict = K.is_zero_mod(K.ideal.normal_form(f))
        assert verdict == member(f.with_context(ctx2), gens), print_poly(f)
        verdicts.append(verdict)
    # both answers occur, and inverting x1_[0] decides more of them
    assert True in verdicts and False in verdicts
    assert verdicts[texts.index("x1_[1]^2 - x1_[1]")] == bool(inverted)


def test_validate_divides_each_image_once(monkeypatch):
    # each D_k-image is divided once by the kernel's basis, a violation
    # reports that division's remainder, and each nonzero remainder gets
    # one division by the saturation basis when something is inverted
    for texts, inverted, count in (
            (["x1_[0]", "x1_[1] - 1"], [], 2),
            (SATURATION_DECIDES, [], 1),
            (SATURATION_DECIDES, [parse_poly("x1_[0]", C1)], 1)):
        K = make_kernel(C1, 2, texts, inverted)
        own = K.ideal.divisors
        images = []  # (f, k, basis, remainder) of each image division
        divide = kernels.image_normal_form

        def recording(f, k, basis):
            images.append((f, k, basis, divide(f, k, basis)))
            return images[-1][3]

        monkeypatch.setattr(kernels, "image_normal_form", recording)
        calls = recording_divisions(monkeypatch)
        report = kernel_validate(K)
        monkeypatch.undo()
        # building the saturation basis divides the inverted elements, and
        # no image is divided by the kernel's basis again
        assert not [f for f, basis, _ in calls if basis is own
                    and not any(f is h for h in inverted)]
        mine = [(derivation_image(f, k), nf) for f, k, basis, nf in images
                if basis is own]
        assert len(images) == count
        assert len(mine) == len(images)
        assert all(groebner.normal_form(img, own).terms == nf.terms
                   for img, nf in mine)
        nonzero = [nf for _, nf in mine if nf]
        assert nonzero
        sat = K._saturation_basis
        if sat is None:
            assert [v["normal_form"] for v in report.violations] == [
                print_poly(nf) for nf in nonzero]
        else:
            assert report.valid
            assert len([c for c in calls if c[1] is sat.divisors]) == \
                len(nonzero)


def implicit_m2_kernel():
    """x = 2/x' in the first derivation: the pivots are x, so the levels
    build saturation bases."""
    return files.load_kernel_text("m=2 n=1 length=1 mode=constants\n"
                                  "x1_[0,0]*x1_[1,0] - 2\nx1_[0,1]\n")


def test_is_zero_mod_divides_by_the_saturation_basis_alone(monkeypatch):
    # along a prolongation that builds saturation bases, no zero test
    # divides its argument by its kernel's basis (building the saturation
    # basis divides the inverted elements), and each makes at most one
    # division by its saturation basis
    calls = recording_divisions(monkeypatch)
    tests = []  # (kernel, [(dividend, basis)]) per is_zero_mod call
    zero_mod = KernelPresentation.is_zero_mod

    def recording(self, f):
        start = len(calls)
        verdict = zero_mod(self, f)
        tests.append((self, [c[:2] for c in calls[start:]]))
        return verdict

    monkeypatch.setattr(KernelPresentation, "is_zero_mod", recording)
    for K in (make_kernel(C1, 2, SATURATION_DECIDES,
                          [parse_poly("x1_[0]", C1)]), implicit_m2_kernel()):
        kernel_prolong_to(K, K.r + 2)
    monkeypatch.undo()
    saturated = 0
    for K, divisions in tests:
        assert all(any(f is h for h in K.inverted)
                   for f, b in divisions if b is K.ideal.divisors)
        sat = K._saturation_basis
        if sat is not None:
            hits = sum(b is sat.divisors for _, b in divisions)
            assert hits <= 1
            saturated += hits
    assert saturated > 3


def test_saturation_builds_of_one_kernel(monkeypatch):
    # the saturation bases built prolonging one fixed kernel to length 4,
    # counted as the benchmark counts them: a buchberger run inside a
    # zero test
    depth, builds = [0], [0]
    zero_mod = KernelPresentation.is_zero_mod
    run = groebner.buchberger

    def testing(self, f):
        depth[0] += 1
        try:
            return zero_mod(self, f)
        finally:
            depth[0] -= 1

    def counting(*args, **kwargs):
        builds[0] += bool(depth[0])
        return run(*args, **kwargs)

    monkeypatch.setattr(KernelPresentation, "is_zero_mod", testing)
    monkeypatch.setattr(groebner, "buchberger", counting)
    result, _ = kernel_prolong_to(implicit_m2_kernel(), 4)
    assert result.status == "prolonged"
    assert builds[0] == 3


# -- rows as reduced polynomials ---------------------------------------------

COEFFICIENTS = {"constants": ["1", "-1", "2", "1/2", "-3/2"],
                "rational": ["1", "-1", "1/2", "t1", "-t1 + 1",
                             "1/(t1 + 1)"]}


@st.composite
def kernel_specs(draw):
    """(mode, m, n, r, generators): each generator a list of (coefficient
    text, variables) terms, the first a variable of the top level times
    at most one more, the others of degree at most one.  A graph kernel
    gives each top variable one generator, whose lead it is: for m = 2 its
    rows seldom agree, and the kernel is obstructed."""
    mode = draw(st.sampled_from(sorted(COEFFICIENTS)))
    # rational coefficients swell over two derivations or two coordinates
    # (some such kernels take minutes), so a rational kernel has m = n = 1
    most = 1 if mode == "rational" else 2
    m = draw(st.integers(1, most))
    n = draw(st.integers(1, most))
    r = draw(st.integers(0, 2 if m == 1 else 1))
    variables = [(i, xi) for xi in gamma_set(m, r) for i in range(1, n + 1)]
    top = [v for v in variables if deg(v[1]) == r]
    coefficient = st.sampled_from(COEFFICIENTS[mode])
    if draw(st.booleans()):
        leads = [[v] for v in top]
    else:
        leads = [[draw(st.sampled_from(top))] + draw(
            st.lists(st.sampled_from(variables), max_size=1))
            for _ in range(draw(st.integers(1, 2)))]
    gens = []
    for lead in leads:
        rest = draw(st.lists(st.tuples(coefficient, st.lists(
            st.sampled_from(variables), max_size=1)), max_size=2))
        terms = [(draw(coefficient), lead)] + rest
        gens.append(draw(st.permutations(terms)))
    return mode, m, n, r, gens


def build_kernel(spec):
    """A fresh kernel from a drawn spec, each generator's terms in the
    drawn order (a repeated monomial keeps its first coefficient)."""
    mode, m, n, r, gens = spec
    ctx = Context(n=n, m=m, mode=FieldMode(mode, m))
    polys = []
    for terms in gens:
        out = {}
        for text, variables in terms:
            mono = ()
            for v in variables:
                mono = mono_mul(mono, ((v, 1),))
            out.setdefault(mono, parse_poly(text, ctx).constant_value())
        polys.append(DiffPolynomial(ctx, out))
    return KernelPresentation(ctx=ctx, r=r,
                              ideal=IdealPresentation(ctx, polys,
                                                      MonomialOrder.lex()))


def outcome(prolong):
    """What the prolongation prolong() prints: the status and the final
    generators and inverted set, or the witness, or the violations of an
    invalid kernel."""
    try:
        result = prolong()
    except KernelValidationError as exc:
        return "invalid", exc.report.violations
    if result.status == "obstructed":
        return result.status, result.witness.to_json()
    nxt = result.next
    return (result.status, nxt.r,
            [print_poly(g) for g in nxt.ideal.generators],
            [print_poly(h) for h in nxt.inverted])


def reference_prolong_to(K, s):
    while True:
        result = reference_kernel_prolong_once(K)
        if result.status == "obstructed" or result.next.r == s:
            return result
        K = result.next


@given(spec=kernel_specs(), levels=st.integers(1, 2))
@settings(max_examples=200, deadline=None)
def test_rows_as_polynomials_match_the_split_rows(spec, levels):
    s = spec[3] + levels
    want = outcome(lambda: reference_prolong_to(build_kernel(spec), s))
    got = outcome(lambda: kernel_prolong_to(build_kernel(spec), s)[0])
    assert got == want


@pytest.mark.parametrize("name", sorted(CONSTRUCTION_CASES) + [
    "counterexample-constants", "counterexample-rational"])
def test_named_kernels_match_the_split_rows(name):
    # rational kernels with m = 2 or n = 2, and obstructions
    if name.startswith("counterexample"):
        make, s = (lambda: counterexample_kernel(name.split("-")[1])), 2
    else:
        make, levels = CONSTRUCTION_CASES[name]
        s = make().r + levels
    want = outcome(lambda: reference_prolong_to(make(), s))
    assert outcome(lambda: kernel_prolong_to(make(), s)[0]) == want
    assert want[0] == ("obstructed" if name.startswith("counterexample")
                       else "prolonged")


def counted_prolong_once(monkeypatch, prolong_once, K):
    """The printed dividends of every division that prolong_once(K) makes,
    in order, and its result: each normal_form call's, and the D_k-image
    of each image_normal_form call."""
    dividends = []

    def counting(f, basis):
        dividends.append(print_poly(f))
        return real(f, basis)

    def counting_image(f, k, basis):
        dividends.append(print_poly(derivation_image(f, k)))
        return real_image(f, k, basis)

    real, real_image = groebner.normal_form, kernels.image_normal_form
    monkeypatch.setattr(groebner, "normal_form", counting)
    monkeypatch.setattr(kernels, "image_normal_form", counting_image)
    result = prolong_once(K)
    monkeypatch.undo()
    return dividends, result


def test_one_division_per_row_and_per_elimination_step(monkeypatch):
    # two rows share the unknown x1_[1]: the first pivots on it (its
    # coefficient 2*x1_[0] is inverted) and the second takes one update,
    # which leaves x2_[1] to the second row
    ctx = Context(n=2, m=1, mode=FieldMode("constants", 1))

    def kernel():
        K = make_kernel(ctx, 0, ["x2_[0] - x1_[0]", "x1_[0]^2 - 2"])
        K.ideal.reduced_gb
        return K

    K = kernel()
    images = [print_poly(derivation_image(g, 1)) for g in K.ideal.reduced_gb]
    assert images == ["2*x1_[0]*x1_[1]", "x2_[1] - x1_[1]"]
    dividends, result = counted_prolong_once(monkeypatch, kernel_prolong_once,
                                             K)
    # one division per image and one for the update; every other dividend
    # is a zero test in the kernel's field, free of unknowns
    rows = [f for f in dividends if "_[1]" in f]
    assert rows == images + ["2*x1_[0]*x2_[1]"]
    assert [print_poly(g) for g in result.next.ideal.generators] == [
        "x1_[0]^2 - 2", "x2_[0] - x1_[0]", "2*x1_[0]*x1_[1]",
        "2*x1_[0]*x2_[1]"]
    # split rows divide each unknown's coefficient and the constant part
    # on their own: 2 and 3 parts for the images, 3 for the update
    split, reference = counted_prolong_once(
        monkeypatch, reference_kernel_prolong_once, kernel())
    assert not [f for f in split if "_[1]" in f]
    assert len(split) == len(dividends) - len(rows) + 2 + 3 + 3
    assert outcome(lambda: reference) == outcome(lambda: result)
