import itertools
import random
import re

import pytest
from hypothesis import assume, given, settings, strategies as st

from diffalg.coeff import Coefficient, FieldMode
from diffalg.dpoly import Context, DiffPolynomial, parse_poly, print_poly
from diffalg.groebner import (IdealPresentation, MonomialOrder, buchberger,
                              elimination_ideal, normal_form, radical_member)

from helpers import naive_normal_form

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
        assert I.normal_form(f - nf).is_zero()


def test_elimination_twisted_cubic():
    I = IdealPresentation(C3, [p("x2_[0] - x1_[0]^2"), p("x3_[0] - x1_[0]^3")])
    J = elimination_ideal(I, {Y, Z})
    target = p("x3_[0]^2 - x2_[0]^3")
    assert J.normal_form(target).is_zero()
    # and the target generates J back: every J generator is a multiple check
    back = IdealPresentation(C3, [target])
    assert all(back.normal_form(g).is_zero() for g in J.reduced_gb)


def test_elimination_counterexample_projection_is_everything():
    I = IdealPresentation(M2, [p("x1_[1,0] - 1", M2),
                               p("x1_[0,1] - x1_[0,0]", M2)])
    J = elimination_ideal(I, {(1, (0, 0))})
    assert J.reduced_gb == []


def test_elimination_zero_ideal():
    I = IdealPresentation(C2, [])
    assert elimination_ideal(I, {X}).reduced_gb == []


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
    gb = I.reduced_gb
    assert len(gb) == 1 and gb[0].is_constant()
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


# --- normal_form against the naive division loop, buchberger against sympy --

XS = [X, Y, Z]
# the block order eliminates x1, the least significant variable
ORDERS = {"grevlex": MonomialOrder.grevlex(), "lex": LEX,
          "block": MonomialOrder.block_elim({X})}


def _coefficients(nv):
    """Nonzero coefficients; in rational mode some have t1 in the
    denominator, so reduction order shows in their printed form."""
    def build(p, q, b, d):
        c = Coefficient.from_rational(p, q, nv)
        if nv:
            t1 = Coefficient.base_var(1, nv)
            c = c + Coefficient.from_int(b, nv) * t1
            if d:
                c = c / (t1 + Coefficient.from_int(d, nv))
        return c

    return st.builds(build, st.integers(-3, 3).filter(bool),
                     st.sampled_from([1, 2, 3]), st.integers(-1, 1),
                     st.integers(0, 2))


def _polys(ctx, max_deg, max_terms):
    def build(terms):
        f = DiffPolynomial.zero(ctx)
        for c, factors in terms:
            term = DiffPolynomial.const(ctx, c)
            for i, xi in factors:
                term = term * DiffPolynomial.var(ctx, i, xi)
            f = f + term
        return f

    term = st.tuples(_coefficients(ctx.nv),
                     st.lists(st.sampled_from(XS), max_size=max_deg))
    return st.lists(term, min_size=1, max_size=max_terms).map(build)


def _ctx(mode):
    return Context(n=3, m=1, mode=FieldMode(mode, 1))


def _layout(f):
    return [(mono, str(c)) for mono, c in f.terms.items()]


@pytest.mark.parametrize("mode", ["constants", "rational"])
@pytest.mark.parametrize("kind", sorted(ORDERS))
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_normal_form_matches_naive_reference(mode, kind, data):
    ctx, order = _ctx(mode), ORDERS[kind]
    # rational-mode bases swell fast beyond two generators
    gens = data.draw(st.lists(_polys(ctx, 2, 3), min_size=1,
                              max_size=3 if mode == "constants" else 2))
    gens = [g for g in gens if g]
    f = data.draw(_polys(ctx, 4, 6))
    for basis in (gens, buchberger(gens, order)):
        got = normal_form(f, basis, order)
        want = naive_normal_form(f, basis, order)
        assert print_poly(got) == print_poly(want)
        # the same terms in the same order, each coefficient in the same form
        assert _layout(got) == _layout(want)


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def _sympy_expr(f, sympy):
    return sympy.sympify(re.sub(r"x(\d+)_\[0\]", r"x\1",
                                print_poly(f)).replace("^", "**"))


@pytest.mark.parametrize("kind", sorted(ORDERS))
@given(gens=st.lists(_polys(C3, 2, 3), min_size=1, max_size=3))
@settings(max_examples=25, deadline=None)
def test_buchberger_matches_sympy(sympy, kind, gens):
    from sympy.polys.orderings import ProductOrder, grevlex

    gens = [g for g in gens if g]
    assume(gens)
    # diffalg ranks x3 above x2 above x1
    x3, x2, x1 = xs = sympy.symbols("x3 x2 x1")
    order = kind
    if kind == "block":
        xs = (x1, x3, x2)
        order = ProductOrder((grevlex, lambda m: m[:1]),
                             (grevlex, lambda m: m[1:]))
    want = sympy.groebner([_sympy_expr(g, sympy) for g in gens], *xs,
                          order=order, domain="QQ").exprs
    got = [_sympy_expr(g, sympy) for g in buchberger(gens, ORDERS[kind])]
    assert len(got) == len(want)
    for g in got:
        assert any(sympy.expand(g - w) == 0 for w in want), g
