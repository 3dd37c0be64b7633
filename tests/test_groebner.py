import collections
import itertools
import random
import re
import sys

import pytest
from hypothesis import assume, given, settings, strategies as st

from diffalg import groebner
from diffalg.coeff import Coefficient, FieldMode
from diffalg.dpoly import (Context, DiffPolynomial, derivation_image,
                           mono_lcm, mono_mul, parse_poly, print_poly,
                           var_rank)
from diffalg.errors import ContextError
from diffalg.groebner import (DivisorBasis, IdealPresentation, MonomialOrder,
                              _reduce_basis, buchberger, elimination_ideal,
                              leading_term, normal_form, radical_member)
from diffalg.kernels import KernelPresentation

import helpers
from helpers import (_coefficient_forms, mono_div, naive_normal_form,
                     naive_reduce_basis, reference_buchberger,
                     reference_normal_form, sort_key)

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
    divisors = DivisorBasis(order, gb)
    assert normal_form(f, divisors) == normal_form(g, divisors)


def test_twisted_cubic_lex():
    gens = [p("x2_[0] - x3_[0]^2"), p("x1_[0] - x3_[0]^3")]
    gb = buchberger(gens, LEX)
    target = p("x1_[0]^2 - x2_[0]^3")
    assert normal_form(target, DivisorBasis(LEX, gb)).is_zero()
    elim_part = [g for g in gb if g.variables() <= {X, Y}]
    assert elim_part and normal_form(target,
                                     DivisorBasis(LEX, elim_part)).is_zero()
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
    # the leads handed over from the block order are the grevlex leads
    assert J.reduced_gb == J.generators
    assert J.lms == [leading_term(g, J.order)[0] for g in J.generators]


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


def test_argument_checks():
    with pytest.raises(ContextError, match="^unknown monomial order 'foo'$"):
        MonomialOrder("foo")
    I = IdealPresentation(C2, [p("x1_[0] - 1", C2)])
    for call in (I.normal_form, lambda f: radical_member(f, I)):
        with pytest.raises(ContextError, match="^polynomial in wrong context$"):
            call(p("x1_[0]"))


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
    key = sort_key(_order(kind, arg))
    reference = _reference_key(kind, arg)
    monos = {exps: _monomial(exps) for exps in dense}
    assert [monos[e] for e in sorted(dense, key=reference)] == \
        sorted(monos.values(), key=key)
    assert len({key(m) for m in monos.values()}) == len(monos)


# --- normal_form against the naive division loop, buchberger against sympy --

XS = [X, Y, Z]
# in the context of every generated basis, but in no generator
W = (4, (0,))
# the block order eliminates x1, the least significant variable
ORDERS = {"grevlex": MonomialOrder.grevlex(), "lex": LEX,
          "block": MonomialOrder.block_elim({X})}


def _coefficient(p, q, b, d, nv):
    """(p/q + b*t1)/(t1 + d), the t1 parts in rational mode only; d = 0
    leaves out the division."""
    c = Coefficient.from_rational(p, q, nv)
    if nv:
        t1 = Coefficient.base_var(1, nv)
        c = c + Coefficient.from_int(b, nv) * t1
        if d:
            c = c / (t1 + Coefficient.from_int(d, nv))
    return c


def _coefficients(nv):
    """Nonzero coefficients; in rational mode some have t1 in the
    denominator, so reduction order shows in their printed form."""
    return st.builds(_coefficient, st.integers(-3, 3).filter(bool),
                     st.sampled_from([1, 2, 3]), st.integers(-1, 1),
                     st.integers(0, 2), st.just(nv))


def _random_coefficient(rng, nv):
    return _coefficient(rng.choice([-3, -2, -1, 1, 2, 3]),
                        rng.choice([1, 2, 3]), rng.randint(-1, 1),
                        rng.randint(0, 2), nv)


def _times_variables(rng, g):
    for i, xi in rng.choices(XS, k=rng.randint(0, 2)):
        g = g * DiffPolynomial.var(g.ctx, i, xi)
    return g


def _polys(ctx, max_deg, max_terms, variables=XS):
    def build(terms):
        f = DiffPolynomial.zero(ctx)
        for c, factors in terms:
            term = DiffPolynomial.const(ctx, c)
            for i, xi in factors:
                term = term * DiffPolynomial.var(ctx, i, xi)
            f = f + term
        return f

    term = st.tuples(_coefficients(ctx.nv),
                     st.lists(st.sampled_from(variables), max_size=max_deg))
    return st.lists(term, min_size=1, max_size=max_terms).map(build)


def _ctx(mode):
    return Context(n=4, m=1, mode=FieldMode(mode, 1))


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
    # the dividend may carry x4_[0], which no lead has
    f = data.draw(_polys(ctx, 4, 6, XS + [W]))
    for basis in (gens, buchberger(gens, order)):
        _check_normal_form(normal_form(f, DivisorBasis(order, basis)), f,
                           basis, order)
    # the basis an IdealPresentation prepares once and divides by
    I = IdealPresentation(ctx, gens, order)
    _check_normal_form(I.normal_form(f), f, I.reduced_gb, order)
    if kind == "lex":
        # the saturation basis a kernel prepares for is_zero_mod, which
        # takes a normal form under the kernel's basis
        h = data.draw(_polys(ctx, 1, 2))
        K = KernelPresentation(ctx=ctx, r=0, ideal=I, inverted=[h])
        nf = I.normal_form(f)
        verdict = K.is_zero_mod(nf)
        sat = K._saturation_basis
        if sat is None:
            assert verdict == nf.is_zero()
        else:
            f2 = nf.with_context(sat.ctx)
            want = _check_normal_form(sat.normal_form(f2), f2, sat.reduced_gb,
                                      order)
            assert verdict == want.is_zero()


def _check_normal_form(got, f, basis, order):
    """got, a remainder of f by prepared divisors, against the naive loop
    over the same basis; returns the reference remainder."""
    want = naive_normal_form(f, basis, order)
    assert print_poly(got) == print_poly(want)
    # the same terms in the same order, each coefficient in the same form
    assert _layout(got) == _layout(want)
    return want


def capturing_runs(monkeypatch):
    """The DivisorBasis G of each buchberger run, as _reduce_basis gets
    it."""
    runs = []
    reduce_basis = groebner._reduce_basis

    def capturing(G, prefix=0, out=None):
        runs.append(G)
        return reduce_basis(G, prefix, out)

    monkeypatch.setattr(groebner, "_reduce_basis", capturing)
    return runs


def counting_packs(monkeypatch):
    """The arguments of each DivisorBasis.pack call."""
    packs = []
    pack = DivisorBasis.pack

    def counting(self, *args):
        packs.append(args)
        return pack(self, *args)

    monkeypatch.setattr(DivisorBasis, "pack", counting)
    return packs


def test_ideal_normal_form_prepares_each_leading_term_once(monkeypatch):
    # buchberger hands over the leads its final reduction has and the
    # packing its run built, with every lead keyed, so dividing by the
    # reduced basis derives no leading term, and dividends over its
    # variables divide with no pack call
    I = IdealPresentation(C3, [p("x2_[0] - x3_[0]^2"), p("x1_[0] - x3_[0]^3"),
                               p("x1_[0]*x2_[0] - 1")], LEX)
    runs = capturing_runs(monkeypatch)
    gb = I.reduced_gb
    prepared = I.divisors
    assert len(runs) == 1 and prepared.packing is runs[0].packing
    assert len(prepared.keys) == len(gb) > 1
    assert prepared.tails == [None] * len(gb)
    calls = []

    def counting(f, order):
        calls.append(f)
        return leading_term(f, order)

    monkeypatch.setattr(groebner, "leading_term", counting)
    packs = counting_packs(monkeypatch)
    rng = random.Random(3)
    for _ in range(10):
        I.normal_form(_random_poly(rng, C3))
    assert packs == [] and calls == []
    monkeypatch.undo()
    # the same leads, lead keys and packed tails as derived from scratch
    # and packed at the same width
    want = DivisorBasis(LEX, gb)
    assert prepared.polys == gb and prepared.lms == want.lms
    assert want.pack(prepared.packing.limit) is prepared.packing
    assert prepared.keys == want.keys
    assert [prepared.tail(i) for i in range(len(gb))] == \
        [want.tail(i) for i in range(len(gb))]


@pytest.mark.parametrize("mode", ["constants", "rational"])
@pytest.mark.parametrize("kind", sorted(ORDERS))
def test_buchberger_takes_the_prefix_leads(monkeypatch, mode, kind):
    # the reduced basis arrives with its run's packing, a one-element
    # basis too, so dividing by it packs nothing; completing it as a
    # prefix derives no lead of a prefix element, packs no prefix tail
    # again and gives the same basis and leads as from scratch
    ctx, order = _ctx(mode), ORDERS[kind]
    _check_prefix_basis(monkeypatch, ctx, order, [
        "x2_[0] - x3_[0]^2", "x1_[0] - x3_[0]^3", "x4_[0]*x2_[0] + x1_[0]"])
    _check_prefix_basis(monkeypatch, ctx, order, ["x1_[0]^2 - x2_[0]"])


def _check_prefix_basis(monkeypatch, ctx, order, first_gens):
    """Fill a DivisorBasis with the reduced basis of first_gens, divide
    the sum of its leads by it, then complete it with one generator."""
    first = DivisorBasis(order)
    gb = buchberger([p(t, ctx) for t in first_gens], order, out=first)
    assert first.packing is not None and len(first.keys) == len(gb)
    packs = counting_packs(monkeypatch)
    one = Coefficient.one(ctx.nv)
    normal_form(DiffPolynomial(ctx, {lm: one for lm in first.lms}), first)
    assert packs == []
    monkeypatch.undo()
    carried = [t for t in first.tails if t is not None]
    assert carried
    gens = gb + [p("x1_[0]*x2_[0] - x4_[0]", ctx)]
    want_divisors = DivisorBasis(order)
    want = buchberger(gens, order, out=want_divisors)
    calls, packed = [], []
    tail = DivisorBasis.tail

    def counting(f, order):
        calls.append(f)
        return leading_term(f, order)

    def packing_tail(self, i):
        if self.tails[i] is None and any(self.polys[i] is g for g in gb):
            packed.append(i)
        return tail(self, i)

    monkeypatch.setattr(groebner, "leading_term", counting)
    monkeypatch.setattr(DivisorBasis, "tail", packing_tail)
    got_divisors = DivisorBasis(order)
    got = buchberger(gens, order, first, got_divisors)
    monkeypatch.undo()
    assert calls and not [f for f in calls if any(f is g for g in gb)]
    assert [_layout(g) for g in got] == [_layout(g) for g in want]
    assert got_divisors.polys == got
    assert got_divisors.lms == want_divisors.lms
    if len(gb) > 1:
        # the new generator's variables are the prefix's (one element
        # lacks x4_[0]), so its packing lasts: no prefix tail is packed
        # again, and each prefix element kept as it is holds its tail object
        assert got_divisors.packing is first.packing and packed == []
        kept = [(t, first.tails[gb.index(g)]) for g, t in
                zip(got_divisors.polys, got_divisors.tails)
                if any(g is h for h in gb)]
        assert kept and all(t is given for t, given in kept)


@pytest.mark.parametrize("mode", ["constants", "rational"])
@pytest.mark.parametrize("kind", sorted(ORDERS))
def test_buchberger_derives_no_remainder_lead(monkeypatch, mode, kind):
    # a nonzero S-polynomial remainder joins the basis with its first term
    # as lead, so a basis from scratch derives the lead of each nonzero
    # generator once and of nothing else
    ctx, order = _ctx(mode), ORDERS[kind]
    gens = [p("x2_[0] - x3_[0]^2", ctx), DiffPolynomial.zero(ctx),
            p("x1_[0] - x3_[0]^3", ctx), p("x1_[0]*x2_[0] - x4_[0]", ctx)]
    want = reference_buchberger(gens, order)
    calls, given = [], []
    append = DivisorBasis.append

    def counting(f, order):
        calls.append(f)
        return leading_term(f, order)

    def logged(self, g, lm=None):
        given.append(lm)
        append(self, g, lm)

    monkeypatch.setattr(groebner, "leading_term", counting)
    monkeypatch.setattr(DivisorBasis, "append", logged)
    got = buchberger(gens, order)
    monkeypatch.undo()
    # the remainders, each appended with its lead given
    assert len(given) > 3 and given[:3] == [None] * 3 and all(given[3:])
    assert len(calls) == 3
    assert all(any(f is g for g in gens) for f in calls)
    assert [_layout(g) for g in got] == [_layout(g) for g in want]


def _unreduced_basis(rng, basis, order):
    """The reduced basis (ascending by lm) padded into an unreduced
    Groebner basis of the same ideal: each element rescaled and, where it
    keeps its lead, summed with a multiple of a smaller element, then
    monomial multiples and a duplicate, all shuffled."""
    nv = basis[0].ctx.nv

    def lead_key(g):
        return sort_key(order)(leading_term(g, order)[0])

    G = []
    for g in basis:
        g = g.scale(_random_coefficient(rng, nv))
        below = [h for h in G if lead_key(h) < lead_key(g)]
        if below:
            h = rng.choice(below).scale(_random_coefficient(rng, nv))
            hx = _times_variables(rng, h)
            g = g + (hx if lead_key(hx) < lead_key(g) else h)
        G.append(g)
    for g in rng.sample(G, rng.randint(0, min(2, len(G)))):
        G.append(_times_variables(rng, g).scale(_random_coefficient(rng, nv)))
    G.append(rng.choice(G))
    rng.shuffle(G)
    return G


def _check_reduce_basis(G, basis, order):
    # the pass runs as buchberger runs it: G packed first, and packed again
    # and the pass run again on a widen
    divisors = DivisorBasis(order, G)
    got = groebner._packed(divisors, _reduce_basis, divisors, 0)
    want = naive_reduce_basis(G, order)
    assert [print_poly(g) for g in got] == [print_poly(g) for g in want]
    assert got == basis


@pytest.mark.parametrize("mode", ["constants", "rational"])
@pytest.mark.parametrize("kind", sorted(ORDERS))
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_reduce_basis_matches_naive_reference(mode, kind, data):
    ctx, order = _ctx(mode), ORDERS[kind]
    gens = data.draw(st.lists(_polys(ctx, 2, 3), min_size=1,
                              max_size=3 if mode == "constants" else 2))
    basis = buchberger([g for g in gens if g], order)
    assume(basis)
    rng = data.draw(st.randoms(use_true_random=False))
    _check_reduce_basis(_unreduced_basis(rng, basis, order), basis, order)


def _rational_systems():
    """(rng, gens) for each of 40 seeded systems of three rational
    generators, then for the same draw with every constant term dropped,
    so that the origin is a common zero and the ideal is proper (most of
    the first systems generate the unit ideal); rng as drawing gens, or
    checking the system before, left it."""
    ctx = _ctx("rational")
    for seed in range(40):
        rng = random.Random(seed)
        gens = []
        for _ in range(3):
            f = DiffPolynomial.zero(ctx)
            for _ in range(rng.randint(1, 3)):
                c = DiffPolynomial.const(ctx, _random_coefficient(rng, ctx.nv))
                f = f + _times_variables(rng, c)
            gens.append(f)
        yield rng, gens
        yield rng, [DiffPolynomial(ctx, {m: c for m, c in g.terms.items()
                                         if m}) for g in gens]


@pytest.mark.parametrize("kind", sorted(ORDERS))
def test_reduce_basis_keeps_the_rational_forms(kind):
    # Three rational generators give bases where several kept leads divide
    # one tail term and sums build uncancelled factors: on some of these
    # seeds, tail reduction against the already reduced elements, or
    # against the kept ones in lm order, would print a coefficient in
    # another form than the reference.
    order = ORDERS[kind]
    for rng, gens in _rational_systems():
        basis = buchberger(gens, order)
        if basis:
            _check_reduce_basis(_unreduced_basis(rng, basis, order), basis,
                                order)


def _lead_dividing(ctx, gb):
    """c*d + e with d a divisor of a term of an element of gb and e a
    constant: its lead d divides that element's lm or a tail term, so the
    element is dropped or tail-reduced, unless d is its own lm."""
    @st.composite
    def build(draw):
        g = draw(st.sampled_from(gb))
        mono = draw(st.sampled_from(sorted(g.terms)))
        d = tuple((v, k) for v, e in mono
                  for k in [draw(st.integers(0, e))] if k)
        c, e = draw(_coefficients(ctx.nv)), draw(_coefficients(ctx.nv))
        return DiffPolynomial(ctx, {d: c}) + DiffPolynomial.const(ctx, e)
    return build()


@pytest.mark.parametrize("mode", ["constants", "rational"])
@pytest.mark.parametrize("kind", sorted(ORDERS))
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_buchberger_prefix_matches_from_scratch(mode, kind, data):
    ctx, order = _ctx(mode), ORDERS[kind]
    gens = data.draw(st.lists(_polys(ctx, 2, 3), min_size=1,
                              max_size=3 if mode == "constants" else 2))
    first = DivisorBasis(order)
    gb = buchberger([g for g in gens if g], order, out=first)
    assume(gb)
    new = data.draw(st.lists(st.one_of(_polys(ctx, 2, 3), _polys(ctx, 1, 2),
                                       _lead_dividing(ctx, gb)),
                             min_size=1, max_size=2))
    if data.draw(st.booleans(), label="prefix divided by first"):
        # packs prefix tails, maybe under a wider packing, as a kernel's
        # rows do before its basis is carried
        normal_form(data.draw(_polys(ctx, 2, 3)) * gb[-1], first)
    _check_prefix(first, new, order)


@pytest.mark.parametrize("mode", ["constants", "rational"])
def test_buchberger_prefix_past_its_packing(monkeypatch, mode):
    # the final reduction of [x2 - x1^5, x3 - x2^7] makes x3 - x1^35, which
    # widens G's packing (limit 31) and runs the pass again, so the packing
    # handed over with it fits x1^35; x1 - 1's lead is coprime to both, so
    # completing with it queues no pair that could widen the packing
    ctx = _ctx(mode)
    first = DivisorBasis(LEX)
    gb = buchberger([p("x2_[0] - x1_[0]^5", ctx), p("x3_[0] - x2_[0]^7", ctx)],
                    LEX, out=first)
    assert [print_poly(g) for g in gb] == ["-x1_[0]^5 + x2_[0]",
                                           "-x1_[0]^35 + x3_[0]"]
    assert first.packing.limit >= 35
    _check_prefix(first, [p("x1_[0] - 1", ctx)], LEX)
    # here each slot of the handed-over packing (limit 31) fits the tail
    # x1^20*x2^20 but its total degree does not: the final reduction meets
    # that tail first and runs again under a wider packing
    first = DivisorBasis(LEX)
    gb = buchberger([p("x3_[0] - x1_[0]^4*x2_[0]^4", ctx),
                     p("x4_[0] - x3_[0]^5", ctx)], LEX, out=first)
    assert [print_poly(g) for g in gb] == ["-x1_[0]^4*x2_[0]^4 + x3_[0]",
                                           "-x1_[0]^20*x2_[0]^20 + x4_[0]"]
    assert first.packing.limit == 31
    runs = capturing_runs(monkeypatch)
    _check_prefix(first, [p("x1_[0] - 1", ctx)], LEX)
    # twice on one G with the prefix, then once from scratch
    assert len(runs) == 3 and runs[0] is runs[1] is not runs[2]
    assert runs[0].packing.limit == 63


CYCLIC4 = ["x1_[0] + x2_[0] + x3_[0] + x4_[0]",
           "x1_[0]*x2_[0] + x2_[0]*x3_[0] + x3_[0]*x4_[0] + x4_[0]*x1_[0]",
           "x1_[0]*x2_[0]*x3_[0] + x2_[0]*x3_[0]*x4_[0]"
           " + x3_[0]*x4_[0]*x1_[0] + x4_[0]*x1_[0]*x2_[0]",
           "x1_[0]*x2_[0]*x3_[0]*x4_[0] - 1"]


@pytest.mark.parametrize("mode", ["constants", "rational"])
def test_buchberger_packs_each_tail_once_per_packing(monkeypatch, mode):
    # cyclic-4 under lex packs, in its S-pairs, the tails of elements its
    # final reduction keeps; the kept elements divide with those packed
    # tails, so no tail is packed twice under one packing
    packs = []
    tail = DivisorBasis.tail

    def counting(self, i):
        if self.tails[i] is None:
            packs.append((self.packing, self.polys[i]))
        return tail(self, i)

    monkeypatch.setattr(DivisorBasis, "tail", counting)
    ctx = _ctx(mode)
    buchberger([p(g, ctx) for g in CYCLIC4], LEX)
    # packs holds every packing and polynomial, so no id is reused
    keys = [(id(packing), id(g)) for packing, g in packs]
    assert packs and len(set(keys)) == len(keys)


@pytest.mark.parametrize("kind", ["grevlex", "lex"])
def test_buchberger_keys_each_lead_once(monkeypatch, kind):
    # the final reduction hands G's lm keys to the kept elements and to
    # `out`, so _fit keys a lead only as buchberger adds it to G; these
    # are all the _fit calls of one cyclic-4 run, by caller and by whether
    # the final reduction makes them
    calls = collections.Counter()
    reducing = []
    fit, reduce_basis = groebner._fit, groebner._reduce_basis

    def counting_fit(packing, monos, start=None):
        calls[sys._getframe(1).f_code.co_name, bool(reducing)] += 1
        return fit(packing, monos, start)

    def counting_reduce_basis(*args):
        reducing.append(args)
        try:
            return reduce_basis(*args)
        finally:
            reducing.pop()

    monkeypatch.setattr(groebner, "_fit", counting_fit)
    monkeypatch.setattr(groebner, "_reduce_basis", counting_reduce_basis)
    out = DivisorBasis(ORDERS[kind])
    ctx = _ctx("constants")
    gb = buchberger([p(g, ctx) for g in CYCLIC4], ORDERS[kind], out=out)
    assert out.polys == gb and out.keys == out.packing.keys(out.lms, 0)[0]
    # keying each result lm twice more would add ("insert", True): 2 *
    # len(gb), 14 under grevlex and 12 under lex
    assert calls == {
        "grevlex": {("insert", False): 6, ("_s_remainder", False): 11,
                    ("tail", False): 10, ("_divide", True): 6},
        "lex": {("insert", False): 10, ("_s_remainder", False): 20,
                ("tail", False): 14, ("_divide", True): 5}}[kind]


@pytest.mark.parametrize("mode", ["constants", "rational"])
def test_reduce_basis_after_its_kept_elements_widen(monkeypatch, mode):
    # the S-pair of x4 - x2 and x4*x1 - x1 packs x4 - x2's tail at limit
    # 31; the final reduction of x3 - x2^7 by x2 - x1^5 then meets x1^35,
    # which leaves G's packing: G is packed wider and the pass runs again,
    # so x4 - x2 joins the kept elements with the tail packed under the
    # new packing, and x5 - x4 divides by it under that packing
    ctx = Context(n=5, m=1, mode=FieldMode(mode, 1))
    gens = [p(g, ctx) for g in ["x2_[0] - x1_[0]^5", "x3_[0] - x2_[0]^7",
                                "x4_[0] - x2_[0]", "x4_[0]*x1_[0] - x1_[0]",
                                "x5_[0] - x4_[0]"]]
    runs = capturing_runs(monkeypatch)
    assert [print_poly(g) for g in buchberger(gens, LEX)] == [
        "x1_[0]^6 - x1_[0]", "-x1_[0]^5 + x2_[0]", "-x1_[0]^5 + x3_[0]",
        "-x1_[0]^5 + x4_[0]", "-x1_[0]^5 + x5_[0]"]
    assert len(runs) == 2 and runs[0] is runs[1]
    assert runs[0].packing.limit == 1023


@pytest.mark.parametrize("kind", sorted(ORDERS))
def test_buchberger_prefix_reorders_its_first_element(kind):
    # The lone element keeps its generator's ascending term order.  From
    # scratch the new, smaller x2_[0] is kept first, so the old element
    # comes out of normal_form in descending order: it must here too.
    ctx = _ctx("constants")
    first = DivisorBasis(ORDERS[kind])
    gb = buchberger([p("1 + x3_[0]", ctx)], ORDERS[kind], out=first)
    assert _layout(gb[0])[0][0] == ()
    _check_prefix(first, [p("x2_[0] - 2", ctx)], ORDERS[kind])


def _check_prefix(first, new, order):
    """Completing the DivisorBasis `first`, which buchberger filled, with
    the generators `new` gives the basis from scratch, term for term."""
    got = buchberger(first.polys + new, order, first)
    want = buchberger(first.polys + new, order)
    assert [print_poly(g) for g in got] == [print_poly(g) for g in want]
    assert [_layout(g) for g in got] == [_layout(g) for g in want]


def _logged_buchberger(fn, gens, order, prefix, *extra):
    """fn(gens, order, prefix, *extra) with every S-pair reduction logged:
    groebner._s_remainder for buchberger, helpers.reference_s_remainder
    (normal_form of the S-polynomial formed on tuple monomials) for the
    reference, each looked up when called.  An entry holds the number of
    divisors and the layout of the monic remainder, and in rational mode
    the exact remainder's layout too: constants mode forms a positive
    multiple of the S-polynomial.  Returns (log, basis)."""
    log = []
    module, name = ((groebner, "_s_remainder") if fn is buchberger
                    else (helpers, "reference_s_remainder"))
    real = getattr(module, name)

    def logging(G, *pair):
        r = real(G, *pair)
        entry = (len(G), _layout(_monic(r)))
        if r.ctx.mode.kind == "rational":
            entry += (_layout(r),)
        log.append(entry)
        return r

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, name, logging)
        basis = fn(gens, order, prefix, *extra)
    return log, basis


def _monic(r):
    """r over its first coefficient, the lead of a remainder."""
    return r.scale(next(iter(r.terms.values())).inverse()) if r else r


def _check_pair_sequence(gens, order, prefix=None):
    """buchberger reduces the same S-pairs in the same order as the loop
    that queues every pair, and returns the same basis; returns the
    reference's coprime-pair questions.  `prefix`, when given, is the
    DivisorBasis buchberger filled with a reduced prefix of gens."""
    queries = []
    want_log, want = _logged_buchberger(reference_buchberger, gens, order,
                                        len(prefix) if prefix else 0, queries)
    got_log, got = _logged_buchberger(buchberger, gens, order, prefix)
    assert got_log == want_log
    assert [print_poly(g) for g in got] == [print_poly(g) for g in want]
    assert [_layout(g) for g in got] == [_layout(g) for g in want]
    # the rule buchberger decides coprime pairs by: done exactly when
    # sorting below the pair being processed
    assert all(done == below for done, below, _ in queries)
    return queries


@pytest.mark.parametrize("mode", ["constants", "rational"])
@pytest.mark.parametrize("kind", sorted(ORDERS))
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_buchberger_pair_sequence_matches_reference(mode, kind, data):
    ctx, order = _ctx(mode), ORDERS[kind]
    gens = data.draw(st.lists(_polys(ctx, 2, 3), min_size=1,
                              max_size=4 if mode == "constants" else 2))
    gens = [g for g in gens if g]
    if data.draw(st.booleans(), label="reduced prefix"):
        first = DivisorBasis(order)
        gb = buchberger(gens, order, out=first)
        assume(gb)
        new = data.draw(st.lists(st.one_of(_polys(ctx, 2, 3),
                                           _lead_dividing(ctx, gb)),
                                 min_size=1, max_size=2))
        _check_pair_sequence(gb + new, order, first)
    else:
        _check_pair_sequence(gens, order)


def test_buchberger_coprime_pair_popped_before_a_smaller_pair_is_queued():
    # The coprime leads x3_[0] and x2_[0] pair first and are popped; the
    # S-polynomials then add elements whose pairs sort below that pair, and
    # the chain criterion asks about it while processing one of them.  It
    # is done, as it sorts below the pair being processed.
    ctx = _ctx("constants")
    gens = [p("x3_[0] + 2", ctx), p("x2_[0] - 1", ctx),
            p("x2_[0]*x3_[0]", ctx)]
    queries = _check_pair_sequence(gens, ORDERS["grevlex"])
    assert (True, True, True) in queries


@pytest.mark.parametrize("mode", ["constants", "rational"])
@pytest.mark.parametrize("kind", sorted(ORDERS))
def test_buchberger_chain_criterion_breaks_equal_lcm_ties_by_index(mode,
                                                                   kind):
    # The three pairs of the generators share the lcm x1_[0]*x2_[0]*x3_[0],
    # so the chain criterion asks about queued pairs of that lcm from both
    # index directions, and only the indices tell them apart: {1, 2} pops
    # last of the three, after {0, 1} and {0, 2}, and is skipped.
    ctx, order = _ctx(mode), ORDERS[kind]
    texts = ["x1_[0]*x2_[0] - 1", "x1_[0]*x3_[0] - 2", "x2_[0]*x3_[0] - 3"]
    real = groebner._s_remainder
    for perm in itertools.permutations(texts):
        gens = [p(text, ctx) for text in perm]
        _check_pair_sequence(gens, order)
        paired = []

        def recording(G, i, j, lcm):
            paired.append({id(G.polys[i]), id(G.polys[j])})
            return real(G, i, j, lcm)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(groebner, "_s_remainder", recording)
            buchberger(gens, order)
        assert {id(gens[0]), id(gens[1])} in paired
        assert {id(gens[1]), id(gens[2])} not in paired


@pytest.mark.parametrize("kind", sorted(ORDERS))
def test_buchberger_queues_no_coprime_pair(monkeypatch, kind):
    # the heap gets exactly the pairs whose leads share a variable, each
    # with its lcm
    ctx, order = _ctx("constants"), ORDERS[kind]
    gens = [p("x1_[0]^2 - x2_[0]", ctx), p("x3_[0]^2 - 1", ctx),
            p("x1_[0]*x3_[0] - x4_[0]", ctx), p("x4_[0]^2 - x2_[0]", ctx)]
    bases, pushed = [], []
    real_init, real_push = DivisorBasis.__init__, groebner.heapq.heappush

    def tracking(self, *args):
        bases.append(self)
        real_init(self, *args)

    def recording(heap, item):
        pushed.append(item)
        real_push(heap, item)

    monkeypatch.setattr(DivisorBasis, "__init__", tracking)
    monkeypatch.setattr(groebner.heapq, "heappush", recording)
    buchberger(gens, order)
    monkeypatch.undo()
    lms = bases[0].lms  # the basis the pairs index
    shared = {(i, j) for j in range(len(lms)) for i in range(j)
              if {v for v, _ in lms[i]} & {v for v, _ in lms[j]}}
    assert 0 < len(shared) < len(lms) * (len(lms) - 1) // 2
    assert sorted(item[1:3] for item in pushed) == sorted(shared)
    assert all(lcm == mono_lcm(lms[i], lms[j]) for _, i, j, lcm in pushed)


def _random_monomials(rng, variables, count, top):
    out = []
    for _ in range(count):
        exps = {}
        for v in rng.sample(variables, rng.randint(0, len(variables))):
            exps[v] = rng.randint(1, top)
        out.append(tuple(sorted(exps.items(), key=lambda t: var_rank(t[0]))))
    return out


@pytest.mark.parametrize("kind", sorted(ORDERS) + ["block-two"])
def test_packed_keys_match_tuple_monomials(kind):
    # keys sort as sort_key does, the guarded subtraction is the
    # divisibility test, and product and quotient keys decode to mono_mul
    # and mono_div
    order = (MonomialOrder.block_elim({Y, (1, (1,))}) if kind == "block-two"
             else ORDERS[kind])
    rng = random.Random(13)
    variables = XS + [W, (1, (1,)), (2, (2,))]
    monos = _random_monomials(rng, variables, 60, 3)
    # small exponents, so that divisors are common
    monos += _random_monomials(rng, variables, 60, 1)
    top = 2 * max(sum(e for _, e in mono) for mono in monos)
    packing = order.packing(variables, top)
    keys, _ = packing.keys(monos)
    one, guards = packing.one, packing.guards
    assert [packing.decode(k) for k in keys] == monos
    assert not any(k & guards for k in keys)
    assert sorted(monos, key=sort_key(order)) == \
        [monos[i] for i in sorted(range(len(monos)), key=keys.__getitem__)]
    divides = 0
    for (a, ka), (b, kb) in itertools.product(zip(monos, keys), repeat=2):
        assert packing.decode(ka + kb - one) == mono_mul(a, b)
        q = ka - kb + one
        assert (not q & guards) == (mono_div(a, b) is not None)
        if not q & guards:
            divides += 1
            assert packing.decode(q) == mono_div(a, b)
    assert len(monos) < divides < len(monos) ** 2 // 2


@pytest.mark.parametrize("kind", sorted(ORDERS) + ["block-two"])
def test_leading_term_is_the_tuple_key_maximum(kind):
    # leading_term takes the largest packed key over f's own variables and
    # degree: the term whose tuple sort key is largest
    order = (MonomialOrder.block_elim({Y, (1, (1,))}) if kind == "block-two"
             else ORDERS[kind])
    ctx = Context(n=4, m=1, mode=FieldMode("constants", 1))
    rng = random.Random(17)
    variables = XS + [W, (1, (1,)), (2, (2,))]
    key = sort_key(order)
    for top in (1, 3, 40):
        for _ in range(20):
            monos = _random_monomials(rng, variables, rng.randint(1, 8), top)
            f = DiffPolynomial(ctx, {mono: Coefficient.from_int(n + 1, 0)
                                     for n, mono in enumerate(monos)})
            lm = max(f.terms, key=key)
            assert leading_term(f, order) == (lm, f.terms[lm])


def test_packed_keys_report_overflow():
    # a product whose exponent leaves its slot sets a guard bit, also when
    # the lower slots of the factors are full
    for kind in ("lex", "block"):
        packing = ORDERS[kind].packing(XS, 40)
        one, guards = packing.one, packing.guards
        assert packing.limit == 63
        (ka, kb, kc), top = packing.keys([((X, 40),), ((X, 3), (Y, 4)),
                                          ((X, 23), (Y, 40))])
        assert top == 63
        assert not (ka + kb - one) & guards
        assert (ka + ka - one) & guards
        assert (kc + kc - one) & guards
        assert packing.decode(ka + kc - one) == ((X, 63), (Y, 40))


# --- normal_form against the loop on tuple monomials ---------------------------

# outside every generated basis: division never changes them
OUTSIDE = [(1, (1,)), (3, (1,)), (2, (2,))]


def _check_against_reference(got, f, basis):
    want = reference_normal_form(f, basis)
    assert print_poly(got) == print_poly(want)
    assert _layout(got) == _layout(want)


@pytest.mark.parametrize("mode", ["constants", "rational"])
@pytest.mark.parametrize("kind", sorted(ORDERS))
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_normal_form_matches_reference_loop(mode, kind, data):
    ctx, order = _ctx(mode), ORDERS[kind]
    gens = data.draw(st.lists(_polys(ctx, 2, 3), min_size=1,
                              max_size=3 if mode == "constants" else 2))
    gens = [g for g in gens if g]
    # one to three variables outside the basis, which the packing gains
    # for the dividend
    outside = OUTSIDE[:data.draw(st.integers(1, 3))]
    f = data.draw(_polys(ctx, 4, 6, XS + outside))
    for basis in (gens, buchberger(gens, order)):
        divisors = DivisorBasis(order, basis)
        _check_against_reference(normal_form(f, divisors), f, divisors)


@pytest.mark.parametrize("mode", ["constants", "rational"])
@pytest.mark.parametrize("kind", sorted(ORDERS))
def test_normal_form_divides_with_variables_outside_the_basis(mode, kind):
    ctx, order = _ctx(mode), ORDERS[kind]
    I = IdealPresentation(ctx, [p("x1_[0]^2 - x2_[0]", ctx),
                                p("x2_[0]*x3_[0] - 1", ctx)], order)
    divisors = I.divisors
    rng = random.Random(5)
    for n_out in (1, 2, 3):
        f = DiffPolynomial.zero(ctx)
        for _ in range(8):
            term = DiffPolynomial.const(ctx, _random_coefficient(rng, ctx.nv))
            for i, xi in rng.choices(XS + OUTSIDE[:n_out], k=rng.randint(0, 5)):
                term = term * DiffPolynomial.var(ctx, i, xi)
            f = f + term
        got = I.normal_form(f)
        _check_against_reference(got, f, divisors)
        assert len({tuple(t for t in mono if t[0] in OUTSIDE)
                    for mono in got.terms}) > 1


@pytest.mark.parametrize("kind", sorted(ORDERS))
def test_long_constants_division_matches_reference(kind):
    # leads coprime and not monic under every order (x3 and x2^2, or x3
    # and x1 when x1 is eliminated), tails with fractions: the integer
    # loop scales by the leads, cancels content and keeps one denominator
    # through a long division
    ctx, order = _ctx("constants"), ORDERS[kind]
    divisors = DivisorBasis(order, [p("3*x3_[0] - 2/5*x2_[0]", ctx),
                                    p("7*x2_[0]^2 - 1/3*x1_[0]", ctx)])
    assert all(g.terms[lm] != Coefficient.one(ctx.nv)
               for g, lm in zip(divisors.polys, divisors.lms))
    power = p("x1_[0] + x2_[0] + x3_[0]", ctx) ** 8
    outside = DiffPolynomial.var(ctx, *W)
    # a variable outside the basis, then terms with other denominators
    for f in (power * outside, power * outside - power.scale(
            Coefficient.from_rational(5, 2, ctx.nv))):
        got = normal_form(f, divisors)
        _check_against_reference(got, f, divisors)
        assert len(got.terms) > 8


@pytest.mark.parametrize("mode", ["constants", "rational"])
@pytest.mark.parametrize("kind", sorted(ORDERS))
def test_presentation_reused_over_new_variables(monkeypatch, mode, kind):
    # the reduced basis arrives with its run's packing; the first dividend
    # brings variables that no divisor has, and the packing is built once
    # more, over those too, at the run's width, which keeps a lex basis's
    # lead keys; the later dividends over the same variables divide under it
    ctx, order = _ctx(mode), ORDERS[kind]
    I = IdealPresentation(ctx, [p("x1_[0]^2 - x2_[0]", ctx),
                                p("x3_[0]^2 + x1_[0]*x2_[0]", ctx)], order)
    runs = capturing_runs(monkeypatch)
    divisors = I.divisors
    run = divisors.packing
    assert run is runs[0].packing and len(divisors.keys) == len(divisors)
    keys = divisors.keys
    new = [W] + OUTSIDE
    assert not set(new) & set().union(*(g.variables() for g in divisors.polys))
    packs = counting_packs(monkeypatch)
    rng = random.Random(8)
    for n in range(8):
        f = _random_poly(rng, ctx)
        for v in new if n == 0 else rng.sample(new, 2):
            f = f * DiffPolynomial.var(ctx, *v)
        f = f + _random_poly(rng, ctx)
        assert n or set(new) <= f.variables()
        got = I.normal_form(f)
        _check_against_reference(got, f, divisors)
        assert len(packs) == 1
    monkeypatch.undo()
    assert set(new) <= set(divisors.packing.weights)
    assert divisors.packing.limit == run.limit
    if kind == "lex":
        assert divisors.keys is keys
    # the lead keys and packed tails of the reduced basis packed from
    # scratch over the same variables, at the same width
    want = DivisorBasis(order, divisors.polys)
    want.pack(run.limit, [((v, 1),) for v in new])
    assert want.lms == divisors.lms and want.keys == divisors.keys
    assert [want.tail(i) for i in range(len(want))] == \
        [divisors.tail(i) for i in range(len(divisors))]


@pytest.mark.parametrize("mode", ["constants", "rational"])
def test_pack_keeps_the_keys_when_new_variables_outrank_the_old(mode):
    # x1_[1] outranks every divisor variable: the lex packing rebuilt over
    # it gives each old variable its old weight, so the lead keys and the
    # packed tails stay, the same objects; under grevlex the degree slot
    # moves up and every weight with it, and the basis is keyed again
    ctx = _ctx(mode)
    gens = [p("x1_[0]^2 - x2_[0]", ctx), p("x2_[0]*x3_[0] - 1", ctx)]
    first = p("x1_[0]^3*x3_[0] + x1_[0]*x2_[0]^2*x3_[0]^2", ctx)
    second = (first * DiffPolynomial.var(ctx, *OUTSIDE[0])
              + p("x2_[0]^2*x3_[0]", ctx))
    for kind in ("lex", "grevlex"):
        order = ORDERS[kind]
        basis = DivisorBasis(order, buchberger(gens, order))
        _check_against_reference(normal_form(first, basis), first, basis)
        packing, keys, tails = basis.packing, basis.keys, list(basis.tails)
        assert None not in tails
        got = normal_form(second, basis)
        assert basis.packing is not packing
        assert OUTSIDE[0] in basis.packing.weights
        _check_against_reference(got, second, basis)
        fresh = DivisorBasis(order, basis.polys)
        assert _layout(got) == _layout(normal_form(second, fresh))
        if kind == "lex":
            assert basis.keys is keys
            assert all(a is b for a, b in zip(basis.tails, tails))
        else:
            assert basis.keys is not keys and basis.keys != keys
            assert not any(a is b for a, b in zip(basis.tails, tails))


@pytest.mark.parametrize("mode", ["constants", "rational"])
@pytest.mark.parametrize("kind", ["lex", "block"])
def test_normal_form_widens_the_packing(kind, mode):
    # exponents outgrow the first slot width: x2^9 reduces to x1^45 under
    # lex (x2 > x1) and x1^9 to x2^45 when x1 is eliminated; one more term
    # has an exponent of 2^70
    ctx = _ctx(mode)
    big, small = ("x2_[0]", "x1_[0]") if kind == "lex" else ("x1_[0]",
                                                            "x2_[0]")
    divisors = DivisorBasis(ORDERS[kind],
                            [p("%s - %s^5" % (big, small), ctx)])
    first = p("%s^2 + %s" % (big, small), ctx)
    _check_against_reference(normal_form(first, divisors), first, divisors)
    narrow = divisors.packing.limit
    assert narrow < 45
    f = p("%s^9 - 3*%s^4*x3_[0]" % (big, big), ctx)
    got = normal_form(f, divisors)
    _check_against_reference(got, f, divisors)
    assert divisors.packing.limit >= 45
    # irreducible: the small variable and x3 only
    small_var = X if kind == "lex" else Y
    g = f + DiffPolynomial(ctx, {((small_var, 2 ** 70), (Z, 2 ** 70)):
                                 Coefficient.one(ctx.nv)})
    got = normal_form(g, divisors)
    _check_against_reference(got, g, divisors)
    assert divisors.packing.limit >= 2 ** 70
    for f in (first, g):
        _check_against_reference(normal_form(f, divisors), f, divisors)


# --- image_normal_form against the divided D_k-image -----------------------

# the level-1 variables: the D_1-images of x1..x3 and a lead or tail term
# of some generated bases
SHIFTED = [(1, (1,)), (2, (1,)), (3, (1,))]


def _check_image(f, basis):
    """image_normal_form(f, 1, basis) against normal_form of the D_1-image
    by a fresh basis over the same divisors: the same terms in the same
    order, each coefficient in the same form."""
    got = groebner.image_normal_form(f, 1, basis)
    want = normal_form(derivation_image(f, 1),
                       DivisorBasis(basis.order, basis.polys))
    assert _layout(got) == _layout(want)
    assert _coefficient_forms(got) == _coefficient_forms(want)
    return got


@pytest.mark.parametrize("mode", ["constants", "rational"])
@pytest.mark.parametrize("kind", sorted(ORDERS))
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_image_normal_form_matches_the_divided_image(mode, kind, data):
    ctx, order = _ctx(mode), ORDERS[kind]
    gens = data.draw(st.lists(_polys(ctx, 2, 3, XS + SHIFTED), min_size=1,
                              max_size=3 if mode == "constants" else 2))
    gens = [g for g in gens if g]
    assume(gens)
    f = data.draw(_polys(ctx, 3, 4, XS + SHIFTED[:1]))
    ups = {(i, (xi[0] + 1,)) for i, xi in f.variables()}
    use = DivisorBasis._use
    for basis in (gens, buchberger(gens, order)):
        # never packed; then as the first image left it; then packed over
        # x1..x3 and f's variables, which lack the shifted ones of f's
        # variables that no divisor has: they join the packing at its
        # width in one re-pack
        never = DivisorBasis(order, basis)
        _check_image(f, never)
        _check_image(f, never)
        lacking = DivisorBasis(order, basis)
        lacking.pack(0, [*f.terms, *[((v, 1),) for v in XS]])
        limit = lacking.packing.limit
        missing = ups - set(lacking.packing.weights)
        repacks = []

        def counting(self, packing):
            if self is lacking and packing.limit == limit:
                repacks.append(packing)
            return use(self, packing)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(DivisorBasis, "_use", counting)
            _check_image(f, lacking)
        assert len(repacks) == (1 if missing else 0)
        assert all(missing <= set(packing.weights) for packing in repacks)


@pytest.mark.parametrize("mode", ["constants", "rational"])
def test_image_normal_form_widens_a_slot_at_its_limit(mode):
    # x1_[0]^31 fits the narrowest slots (limit 31) and so does its image
    # 31*x1_[0]^30*x1_[1], but dividing by x1_[1] - x1_[0]^2 makes
    # x1_[0]^32, whose key has a guard bit set: the slots double in width
    ctx = _ctx(mode)
    basis = DivisorBasis(LEX, [p("x1_[1] - x1_[0]^2", ctx)])
    basis.pack()
    assert basis.packing.limit == 31
    got = _check_image(p("x1_[0]^31 + x2_[0]", ctx), basis)
    assert basis.packing.limit == 2 ** 10 - 1
    assert print_poly(got) == "31*x1_[0]^32 + x2_[1]"


def test_image_normal_form_adds_to_a_derived_coefficient():
    # the image's x1_[1]*x2_[1] term takes the first term's derived
    # coefficient 1/(t1 + 1)^2, then -1/(t1 + 1)^2 from x1_[0]*x2_[1] (the
    # sum is zero), then 1/(t1 + 2) from x2_[0]*x1_[1]: in that order the
    # coefficient is 1/(t1 + 2); any other order leaves a degree-5
    # denominator
    ctx = _ctx("rational")
    f = p("-1/(t1 + 1)*x1_[1]*x2_[1] - 1/(t1 + 1)^2*x1_[0]*x2_[1]"
          " + 1/(t1 + 2)*x1_[1]*x2_[0]", ctx)
    got = _check_image(f, DivisorBasis(LEX, [p("x1_[2] - x2_[0]", ctx)]))
    c = got.terms[(((1, (1,)), 1), ((2, (1,)), 1))]
    assert (c.num, c.den) == ({0: 1}, {1: 1, 0: 2})


@pytest.mark.parametrize("mode", ["constants", "rational"])
@pytest.mark.parametrize("kind", sorted(ORDERS))
def test_a_tail_variable_grows_the_packing_alone(monkeypatch, mode, kind):
    # x2 is in no lead and in no dividend: the packing first meets it when
    # the tail of x1*x3 - x2 is packed, and grows by it at its width
    # without reading a divisor's terms (the block order eliminates x3, so
    # that x3^2 and x1*x3 lead under every order)
    ctx = _ctx(mode)
    order = MonomialOrder.block_elim({Z}) if kind == "block" else ORDERS[kind]
    divisors = DivisorBasis(order, [p("x3_[0]^2 - x1_[0]", ctx)])
    packing = divisors.pack()
    divisors.append(p("x1_[0]*x3_[0] - x2_[0]", ctx))
    assert divisors.packing is packing and Y not in packing.weights
    read = []  # the term dicts support reads
    support = groebner.support

    def reading(term_dicts):
        term_dicts = list(term_dicts)
        read.extend(term_dicts)
        return support(term_dicts)

    monkeypatch.setattr(groebner, "support", reading)
    packs = counting_packs(monkeypatch)
    f = p("x1_[0]^2*x3_[0] + x3_[0]^3", ctx)
    got = normal_form(f, divisors)
    monkeypatch.undo()
    assert len(packs) == 1
    assert not [t for t in read if any(t is g.terms for g in divisors.polys)]
    assert set(divisors.packing.weights) == {X, Y, Z}
    assert divisors.packing.limit == packing.limit
    _check_against_reference(got, f, divisors)


@pytest.mark.parametrize("kind", sorted(ORDERS))
def test_divisors_added_after_the_basis_divides(kind):
    # a lead that does not fit the packing drops it, and a tail that does
    # not fit widens it when the tail is first used; every division still
    # matches the reference loop (the block order eliminates x3, so that
    # x3^2 and x1*x3 lead under every order)
    ctx = _ctx("constants")
    order = MonomialOrder.block_elim({Z}) if kind == "block" else ORDERS[kind]
    divisors = DivisorBasis(order, [p("x3_[0]^2 - x1_[0]", ctx)])

    def check(text):
        f = p(text, ctx)
        _check_against_reference(normal_form(f, divisors), f, divisors)

    check("x3_[0]^3 + x1_[0]^2*x3_[0] + 1")
    packing = divisors.packing
    assert Y not in packing.weights
    divisors.append(p("x1_[0]*x3_[0] - x2_[0]", ctx))
    assert divisors.packing is packing
    check("x1_[0]^2*x3_[0] + x2_[0]*x3_[0]")
    assert Y in divisors.packing.weights
    # a new variable alone rebuilds the packing at the same width
    assert divisors.packing.limit == packing.limit
    divisors.append(p("x4_[0]^70 - x2_[0]", ctx))
    assert divisors.packing is None
    check("x4_[0]^71 + x1_[0]*x3_[0]")
    assert divisors.packing.limit < 150
    divisors.append(p("x4_[0]^150 - x1_[0]", ctx))
    assert divisors.packing is None
    check("x4_[0]^151 + x2_[0]")
    if kind == "lex":
        # x3*x2 leads, its tail x1^600 is too wide for the packing
        divisors.append(p("x3_[0]*x2_[0] - x1_[0]^600", ctx))
        assert divisors.packing.limit < 600
        check("x3_[0]*x2_[0]^2 + x1_[0]")
        assert divisors.packing.limit >= 600


@pytest.mark.parametrize("kind", sorted(ORDERS))
def test_rational_unit_ideal_reduces_to_one(kind):
    ctx = _ctx("rational")
    unit = parse_poly("(t1^2+3)/(t1+2)", ctx)
    for gens in ([unit], [parse_poly("x1_[0]", ctx), unit]):
        gb = buchberger(gens, ORDERS[kind])
        assert [print_poly(g) for g in gb] == ["1"]


def _twisted_cubic(order):
    return IdealPresentation(C3, [p("x2_[0] - x3_[0]^2"),
                                  p("x1_[0] - x3_[0]^3")], order)


def test_orders_compare_by_kind_and_block():
    assert MonomialOrder.lex() == MonomialOrder.lex()
    assert hash(MonomialOrder.lex()) == hash(MonomialOrder.lex())
    assert MonomialOrder.lex() != MonomialOrder.grevlex()
    assert MonomialOrder.block_elim({X}) == MonomialOrder.block_elim([X])
    assert MonomialOrder.block_elim({X}) != MonomialOrder.block_elim({Y})
    assert MonomialOrder.block_elim({X}) != MonomialOrder.block_elim({X, Y})
    assert len({MonomialOrder.lex(), MonomialOrder.lex(),
                MonomialOrder.block_elim({X})}) == 2


def test_presentations_compare_by_generators_and_order():
    # two separately built lex orders; caches and prefix hints are ignored
    I, J = _twisted_cubic(MonomialOrder.lex()), _twisted_cubic(
        MonomialOrder.lex())
    assert I == J
    I.reduced_gb
    I.divisors
    assert I._divisors is not None and J._divisors is None
    assert I == J
    K = IdealPresentation(C3, list(I.reduced_gb), MonomialOrder.lex(),
                          _prefix=I.divisors)
    assert K == IdealPresentation(C3, list(I.reduced_gb), MonomialOrder.lex())
    assert I != _twisted_cubic(MonomialOrder.grevlex())
    assert _twisted_cubic(MonomialOrder.block_elim({X})) != \
        _twisted_cubic(MonomialOrder.block_elim({Y}))
    kernels = [KernelPresentation(ctx=C3, r=0, ideal=ideal)
               for ideal in (I, _twisted_cubic(MonomialOrder.lex()))]
    assert kernels[0] == kernels[1]


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
    gens = [g for g in gens if g]
    assume(gens)
    _check_sympy(sympy, kind, gens, buchberger(gens, ORDERS[kind]))


@pytest.mark.parametrize("kind", sorted(ORDERS))
def test_rational_buchberger_matches_sympy(sympy, kind):
    # the value oracle for rational mode: each basis of the seeded rational
    # systems is sympy's over QQ(t1), whatever form its coefficients print in
    for _, gens in _rational_systems():
        _check_sympy(sympy, kind, gens, buchberger(gens, ORDERS[kind]))


def _check_sympy(sympy, kind, gens, got):
    """got is sympy's reduced basis of gens under the order `kind`, over
    QQ, or over QQ(t1) in rational mode, compared by value: two elements
    agree when they have the same monomials and each difference of two
    coefficients cancels to 0."""
    from sympy.polys.orderings import ProductOrder, grevlex

    # diffalg ranks x4 above x3 above x2 above x1
    x4, x3, x2, x1 = xs = sympy.symbols("x4 x3 x2 x1")
    order = kind
    if kind == "block":
        xs = (x1, x4, x3, x2)
        order = ProductOrder((grevlex, lambda m: m[:1]),
                             (grevlex, lambda m: m[1:]))
    domain = (sympy.QQ.frac_field(sympy.Symbol("t1"))
              if gens[0].ctx.mode.kind == "rational" else sympy.QQ)
    want = sympy.groebner([_sympy_expr(g, sympy) for g in gens], *xs,
                          order=order, domain=domain).exprs

    def terms(f):
        return sympy.Poly(f, *xs).as_dict()  # {exponents: coefficient}

    want = [terms(w) for w in want]
    assert len(got) == len(want)
    for g in got:
        g = terms(_sympy_expr(g, sympy))
        assert any(g.keys() == w.keys() and all(
            sympy.cancel(c - w[m]) == 0 for m, c in g.items())
            for w in want), g


@pytest.mark.parametrize("mode", ["constants", "rational"])
@pytest.mark.parametrize("kind", sorted(ORDERS))
@pytest.mark.parametrize("texts,lcm_degree", [
    # the lcm x1_[0]^20*x2_[0]^20 has degree 40, over the limit 31 of the
    # narrowest slots, which the generators fit
    (["x1_[0]^20*x2_[0] - 1", "x1_[0]*x2_[0]^20 - 1"], 40),
    # under lex the lcm x2_[0]^2*x1_[0]^12 fits, and x1_[0]^12 times the
    # tail term x1_[0]^25 sets the guard bit of the x1 slot
    (["x2_[0]*x1_[0]^12 - x1_[0]^25", "x2_[0]^2 - x1_[0]^25"], None),
], ids=["lcm-degree", "tail-guard"])
def test_s_pair_formation_widens_the_packing(monkeypatch, mode, kind, texts,
                                             lcm_degree):
    ctx, order = _ctx(mode), ORDERS[kind]
    gens = [p(text, ctx) for text in texts]
    limits = []  # of G's packing as each S-pair is formed
    tops = []  # of each _Widen out of S-pair formation and division
    real = groebner._s_remainder

    def recording(G, *args):
        limits.append(G.packing.limit)
        try:
            return real(G, *args)
        except groebner._Widen as widen:
            tops.append(widen.top)
            raise

    monkeypatch.setattr(groebner, "_s_remainder", recording)
    got = buchberger(gens, order)
    monkeypatch.undo()
    if lcm_degree is not None:
        # the packing fits twice the largest lead degree before the first
        # pair is queued, so the degree-40 lcm widens nothing
        assert limits[0] >= lcm_degree and lcm_degree not in tops
    elif kind == "lex":
        # the first S-pair widens as it is formed
        assert tops[:1] == [None]
    want = reference_buchberger(gens, order)
    assert [print_poly(g) for g in got] == [print_poly(g) for g in want]
    assert [_layout(g) for g in got] == [_layout(g) for g in want]
    _check_sympy(pytest.importorskip("sympy"), kind, gens, got)


@pytest.mark.parametrize("mode", ["constants", "rational"])
def test_queued_pairs_are_keyed_again_when_the_packing_widens(mode):
    # under lex the first pair, {0, 1}, widens the packing as it is formed
    # (x1_[0]^12 times the tail term x1_[0]^25 sets a guard bit) while
    # {0, 2} and {1, 2} are queued: they must sort against the pairs of
    # later elements as in the loop on tuple keys
    ctx = _ctx(mode)
    gens = [p("x2_[0]*x1_[0]^12 - x1_[0]^25", ctx),
            p("x2_[0]^2 - x1_[0]^25", ctx), p("x3_[0]*x2_[0] - x1_[0]", ctx)]
    G = DivisorBasis(LEX, gens)
    G.pack(2 * 13)  # as buchberger packs for the largest lead degree, 13
    with pytest.raises(groebner._Widen):
        groebner._s_remainder(G, 0, 1, mono_lcm(G.lms[0], G.lms[1]))
    _check_pair_sequence(gens, LEX)
