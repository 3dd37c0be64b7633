"""The library's record classes: which compare and hash by value, which
are immutable, which defaults their constructors fill in, and which
fields take part in a presentation's equality."""
import pytest

from diffalg.axioms import (CompiledFormula, ContainmentVerdict,
                            compile_formula, containment_check)
from diffalg.coeff import FieldMode
from diffalg.dpoly import Context, parse_poly
from diffalg.errors import ContextError
from diffalg.groebner import IdealPresentation, MonomialOrder
from diffalg.indices import coordinate_maps
from diffalg.kernels import (KernelPresentation, ObstructionWitness,
                             ProlongResult, ValidationReport,
                             kernel_prolong_once)
from diffalg.prolong import ProlongationSystem, prolong_delta

C1 = Context(n=1, m=1, mode=FieldMode("constants", 1))


def lex_ideal(*texts):
    return IdealPresentation(C1, [parse_poly(t, C1) for t in texts],
                             MonomialOrder.lex())


def test_field_modes_and_contexts_are_equal_and_hash_alike_by_value():
    a = Context(n=2, m=1, mode=FieldMode("rational", 1))
    b = Context(2, 1, FieldMode(kind="rational", m=1))
    assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a.mode is not b.mode and a.mode == b.mode
    assert hash(a.mode) == hash(b.mode)
    assert a.with_n(2) == a and a.with_n(3) != a
    assert a != Context(2, 1, FieldMode("constants", 1))
    assert FieldMode("rational", 1) != FieldMode("rational", 2)
    # a record of another class, or a tuple of the same values, is unequal
    assert a != (2, 1, a.mode) and a.mode != ("rational", 1)
    assert MonomialOrder.lex() != ("lex", None)
    assert coordinate_maps(2, 1) == coordinate_maps(2, 1)
    assert hash(coordinate_maps(2, 1)) == hash(coordinate_maps(2, 1))
    assert coordinate_maps(2, 1) != coordinate_maps(1, 2)


@pytest.mark.parametrize("record,name", [
    (C1, "n"), (C1, "mode"), (FieldMode("constants", 1), "m"),
    (FieldMode("constants", 1), "kind"), (coordinate_maps(1, 1), "alpha"),
    (coordinate_maps(1, 1), "layout"), (MonomialOrder.lex(), "kind"),
    (MonomialOrder.block_elim([(1, (0,))]), "leading")],
    ids=["context-n", "context-mode", "mode-m", "mode-kind", "maps-alpha",
         "maps-layout", "order-kind", "order-leading"])
def test_contexts_modes_and_coordinate_maps_are_immutable(record, name):
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, 5)
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) == before


def test_constructors_refuse_inconsistent_fields():
    with pytest.raises(ContextError):
        FieldMode("complex", 1)
    with pytest.raises(ContextError):
        FieldMode("constants", 0)
    with pytest.raises(ContextError):
        Context(n=0, m=1, mode=FieldMode("constants", 1))
    with pytest.raises(ContextError):
        Context(n=1, m=2, mode=FieldMode("constants", 1))
    C2 = Context(n=2, m=1, mode=C1.mode)
    with pytest.raises(ContextError):
        IdealPresentation(C1, [parse_poly("x2_[0]", C2)])
    with pytest.raises(ContextError):
        KernelPresentation(C1, -1, lex_ideal("x1_[0]"))
    with pytest.raises(ContextError):
        KernelPresentation(C2, 1, lex_ideal("x1_[0]"))


def test_kernels_built_without_inverted_do_not_share_the_list():
    ideal = lex_ideal("x1_[1] - 1")
    a = KernelPresentation(C1, 1, ideal)
    b = KernelPresentation(ctx=C1, r=1, ideal=ideal)
    assert a.inverted == [] and a.inverted is not b.inverted
    a.inverted.append(parse_poly("x1_[0]", C1))
    assert b.inverted == [] and a != b


def test_a_kernel_compares_its_data_and_not_its_validated_flag():
    ideal = lex_ideal("x1_[0]*x1_[1] - 1")
    a = KernelPresentation(C1, 1, ideal, [parse_poly("x1_[0]", C1)])
    b = KernelPresentation(C1, 1, ideal, [parse_poly("x1_[0]", C1)])
    assert not a.validated and a == b
    a.validated = True
    assert a == b and not b.validated
    assert a != KernelPresentation(C1, 2, ideal, list(a.inverted))
    assert a != KernelPresentation(C1, 1, lex_ideal("x1_[0]*x1_[1] - 2"),
                                   list(a.inverted))
    # a grevlex ideal is presented under lex, and then compares equal
    grevlex = IdealPresentation(C1, list(ideal.generators))
    assert KernelPresentation(C1, 1, grevlex, list(a.inverted)) == a


def test_an_ideal_compares_context_generators_and_order_only():
    I = lex_ideal("x1_[0]^2 - 1", "x1_[1] - x1_[0]")
    same = IdealPresentation(C1, list(I.generators), MonomialOrder.lex(),
                             _prefix=I.divisors)
    given = IdealPresentation(C1, list(I.generators), MonomialOrder.lex(),
                              _divisors=I.divisors)
    assert I == same == given
    assert I != IdealPresentation(C1, list(I.generators))
    assert I != lex_ideal("x1_[0]^2 - 1")
    other = Context(n=2, m=1, mode=C1.mode)
    assert I != IdealPresentation(other, [], MonomialOrder.lex())


def test_presentations_are_unhashable():
    ideal = lex_ideal("x1_[1] - 1")
    with pytest.raises(TypeError):
        hash(ideal)
    with pytest.raises(TypeError):
        hash(KernelPresentation(C1, 1, ideal))


def test_result_records_default_their_optional_fields_to_none():
    result = ProlongResult(status="prolonged")
    assert result.next is None and result.witness is None
    assert result == ProlongResult("prolonged", None, None)
    closed = compile_formula("x1 = 0", 1)
    assert closed.alpha is None and closed.beta is None
    assert closed.resource_note is None
    assert closed == CompiledFormula(formula=closed.formula, n=1,
                                     algebraically_closed=True)


def test_result_records_compare_field_by_field():
    K = KernelPresentation(C1, 1, lex_ideal("x1_[0]*x1_[1] - 1"))
    first, again = kernel_prolong_once(K), kernel_prolong_once(K)
    assert first is not again and first == again
    assert first.next == again.next and first.witness is None
    assert first != ProlongResult("obstructed", first.next)
    assert ValidationReport(True, []) == ValidationReport(True, [])
    assert ValidationReport(True, []) != ValidationReport(False, [])
    assert compile_formula("d[1]x1 = x1", 1) == compile_formula(
        "d[1]x1 = x1", 1)
    assert compile_formula("d[1]x1 = x1", 1) != compile_formula(
        "d[1]x1 = 2*x1", 1)
    M2 = Context(n=1, m=2, mode=FieldMode("constants", 2))
    counterexample = KernelPresentation(M2, 1, IdealPresentation(
        M2, [parse_poly("x1_[1,0] - 1", M2),
             parse_poly("x1_[0,1] - x1_[0,0]", M2)]))
    witness = kernel_prolong_once(counterexample).witness
    assert witness == kernel_prolong_once(counterexample).witness
    assert witness != ObstructionWitness(witness.relation,
                                         witness.normal_form, [])
    W = IdealPresentation(C1, [parse_poly("x1_[0]", C1),
                               parse_poly("x1_[1] - 1", C1)])
    verdict = containment_check(W, "naive")
    assert verdict == containment_check(W, "naive") and not verdict.holds
    assert verdict != ContainmentVerdict(
        True, verdict.witnesses, verdict.elimination_generators, verdict.note)
    base = IdealPresentation(C1, [parse_poly("x1_[0]^2 - 1", C1)])
    system = prolong_delta(base)
    assert system == prolong_delta(IdealPresentation(C1, list(
        base.generators)))
    assert system != ProlongationSystem(base, system.ks, [])
