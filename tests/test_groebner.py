import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from diffalg.coeff import FieldMode
from diffalg.dpoly import Context, DiffPolynomial, parse_poly, print_poly
from diffalg.groebner import (IdealPresentation, MonomialOrder, buchberger,
                              elimination_ideal, normal_form, radical_member)

C3 = Context(n=3, m=1, mode=FieldMode("constants", 1))
C2 = Context(n=2, m=1, mode=FieldMode("constants", 1))
C1 = Context(n=1, m=1, mode=FieldMode("constants", 1))
M2 = Context(n=1, m=2, mode=FieldMode("constants", 2))

X = (1, (0,))
Y = (2, (0,))
Z = (3, (0,))
LEX = MonomialOrder.lex()  # x3 > x2 > x1


def p(text, ctx=C3):
    return parse_poly(text, ctx)


def test_already_reduced():
    gens = [p("x1_[0] - 1", C2), p("x2_[0] - 2", C2)]
    gb = buchberger(gens, LEX)
    assert sorted(print_poly(g) for g in gb) == \
        sorted(print_poly(g) for g in gens)


def test_small_closure_gives_canonical_normal_forms():
    gens = [p("x1_[0]^2", C2), p("x1_[0]*x2_[0]", C2)]
    order = MonomialOrder.grevlex()
    gb = buchberger(gens, order)
    # normal forms are canonical: equal polynomials reduce identically
    f = p("x1_[0]^2 + x1_[0]*x2_[0] + x2_[0]", C2)
    g = p("x2_[0]", C2)
    assert normal_form(f, gb, order) == normal_form(g, gb, order)


def test_twisted_cubic_lex():
    gens = [p("x2_[0] - x3_[0]^2"), p("x1_[0] - x3_[0]^3")]
    gb = buchberger(gens, LEX)
    target = p("x1_[0]^2 - x2_[0]^3")
    assert normal_form(target, gb, LEX).is_zero()
    elim_part = [g for g in gb if g.variables() <= {X, Y}]
    assert elim_part and all(normal_form(target, elim_part, LEX).is_zero()
                             for _ in [0])
    # derived oracle: x1^2 - x2^3 vanishes under the parametrization
    check = target.substitute({Y: p("x3_[0]^2"), X: p("x3_[0]^3")})
    assert check.is_zero()


def test_normal_form_examples():
    I = IdealPresentation(C2, [p("x1_[0] - 1", C2), p("x2_[0] - 2", C2)])
    assert I.normal_form(p("x1_[0]*x2_[0]", C2)) == p("2", C2)
    assert I.normal_form(p("x1_[0] - 1", C2)).is_zero()
    zero_ideal = IdealPresentation(C2, [])
    assert zero_ideal.normal_form(p("1", C2)) == p("1", C2)


def test_normal_form_idempotent_and_congruent():
    rng = random.Random(5)
    I = IdealPresentation(C2, [p("x1_[0]^2 - x2_[0]", C2),
                               p("x2_[0]^2 - 1", C2)])
    for _ in range(10):
        f = _random_poly(rng, C2)
        nf = I.normal_form(f)
        assert I.normal_form(nf) == nf
        assert I.contains(f - nf)


def test_elimination_twisted_cubic():
    I = IdealPresentation(C3, [p("x2_[0] - x1_[0]^2"), p("x3_[0] - x1_[0]^3")])
    J = elimination_ideal(I, {Y, Z})
    target = p("x3_[0]^2 - x2_[0]^3")
    assert J.contains(target)
    # and the target generates J back: every J generator is a multiple check
    back = IdealPresentation(C3, [target])
    assert all(back.contains(g) for g in J.reduced_gb)


def test_elimination_counterexample_projection_is_everything():
    I = IdealPresentation(M2, [p("x1_[1,0] - 1", M2),
                               p("x1_[0,1] - x1_[0,0]", M2)])
    J = elimination_ideal(I, {(1, (0, 0))})
    assert J.is_zero_ideal()


def test_elimination_zero_ideal():
    I = IdealPresentation(C2, [])
    assert elimination_ideal(I, {X}).is_zero_ideal()


def test_elimination_keep_all_returns_reduced_gb():
    I = IdealPresentation(C2, [p("x1_[0]^2 - 1", C2),
                               p("x1_[0]*x2_[0] - x2_[0]", C2)])
    J = elimination_ideal(I, {X, Y})
    assert J.generators == I.reduced_gb


def test_radical_membership():
    I = IdealPresentation(C1, [p("x1_[0]^2", C1)])
    assert radical_member(p("x1_[0]", C1), I)
    assert not radical_member(p("x1_[0] + 1", C1), I)
    assert radical_member(parse_poly("0", C1), I)


def test_unit_ideal_collapses_to_one():
    I = IdealPresentation(C1, [p("x1_[0]", C1), p("x1_[0] - 1", C1)])
    assert I.is_unit_ideal()
    assert I.reduced_gb == [p("1", C1)]


def _random_poly(rng, ctx):
    variables = [(i, (0,)) for i in range(1, ctx.n + 1)]
    f = parse_poly("0", ctx)
    for _ in range(rng.randint(1, 3)):
        term = parse_poly(str(rng.randint(1, 4)), ctx)
        if rng.random() < 0.5:
            term = -term
        for _ in range(rng.randint(0, 3)):
            i, xi = rng.choice(variables)
            term = term * parse_poly("x%d_[0]" % i, ctx)
        f = f + term
    return f


@pytest.mark.parametrize("seed", range(6))
def test_reduced_gb_permutation_invariant(seed):
    rng = random.Random(seed)
    gens = [_random_poly(rng, C2) for _ in range(3)]
    gens = [g for g in gens if not g.is_zero()]
    order = MonomialOrder.grevlex()
    reference = buchberger(gens, order)
    for perm in itertools.permutations(gens):
        gb = buchberger(list(perm), order)
        assert [print_poly(g) for g in gb] == \
               [print_poly(g) for g in reference]


def test_rational_mode_coefficients():
    ctx = Context(n=1, m=1, mode=FieldMode("rational", 1))
    I = IdealPresentation(ctx, [parse_poly("t1*x1_[0] - 1", ctx)])
    nf = I.normal_form(parse_poly("x1_[0]", ctx))
    assert nf == parse_poly("1/t1", ctx)


# --- monomial orders against dense exponent-vector references -------------

M22 = Context(n=2, m=2, mode=FieldMode("constants", 2))
# The variables of M22 up to level 2, most significant first: higher level
# wins, then the later multi-index of the level ((1,1) after (2,0)), then
# the larger coordinate index.
DENSE_VARS = [(2, (1, 1)), (1, (1, 1)), (2, (2, 0)), (1, (2, 0)),
              (2, (0, 1)), (1, (0, 1)), (2, (1, 0)), (1, (1, 0)),
              (2, (0, 0)), (1, (0, 0))]


def _dense_lex(exps):
    return tuple(exps)


def _dense_grevlex(exps):
    # higher degree wins; on a tie, the monomial whose last nonzero entry
    # of the difference is negative is the larger one
    return (sum(exps), tuple(-e for e in reversed(exps)))


def _reference_key(kind, arg):
    idx = {v: k for k, v in enumerate(DENSE_VARS)}
    if kind == "grevlex":
        return _dense_grevlex
    if kind == "lex":
        return _dense_lex
    inner = [idx[v] for v in DENSE_VARS if v in arg]
    outer = [idx[v] for v in DENSE_VARS if v not in arg]
    return lambda exps: (_dense_grevlex([exps[k] for k in inner]),
                         _dense_grevlex([exps[k] for k in outer]))


def _order(kind, arg):
    if kind == "grevlex":
        return MonomialOrder.grevlex()
    if kind == "lex":
        return MonomialOrder.lex()
    return MonomialOrder.block_elim(arg)


def _monomial(exps):
    f = DiffPolynomial.from_int(M22, 1)
    for (i, xi), e in zip(DENSE_VARS, exps):
        f = f * DiffPolynomial.var(M22, i, xi) ** e
    (mono,) = f.terms
    return mono


_orders = st.one_of(
    st.tuples(st.sampled_from(["grevlex", "lex"]), st.none()),
    st.tuples(st.just("block"), st.sets(st.sampled_from(DENSE_VARS))))


@given(order=_orders,
       dense=st.lists(st.lists(st.integers(0, 3), min_size=len(DENSE_VARS),
                               max_size=len(DENSE_VARS)).map(tuple),
                      min_size=2, max_size=12, unique=True))
@settings(max_examples=150, deadline=None)
def test_sort_keys_match_dense_reference_orders(order, dense):
    kind, arg = order
    key = _order(kind, arg).sort_key
    reference = _reference_key(kind, arg)
    monos = {exps: _monomial(exps) for exps in dense}
    assert [monos[e] for e in sorted(dense, key=reference)] == \
        sorted(monos.values(), key=key)
    assert len({key(m) for m in monos.values()}) == len(monos)
