import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from diffalg import coeff, dpoly
from diffalg.axioms import _rho_var_str, atom_rho_text
from diffalg.coeff import _ONE, Coefficient, FieldMode
from diffalg.dpoly import (Context, DiffPolynomial, derivation_image,
                           mono_lcm, mono_mul, parse_poly, print_poly,
                           var_rank)
from diffalg.errors import ContextError, ParseError, ResourceBudgetError
from helpers import (_coefficient_forms, from_tkeys,
                     reference_derivation_image, reference_mono_lcm,
                     reference_mono_mul, reference_mul, reference_parse_poly,
                     reference_pow, reference_print_poly, reference_render,
                     to_tkeys)

CONST2 = Context(n=1, m=2, mode=FieldMode("constants", 2))
RAT2 = Context(n=2, m=2, mode=FieldMode("rational", 2))
RAT1 = Context(n=2, m=1, mode=FieldMode("rational", 1))
CONST1 = Context(n=2, m=1, mode=FieldMode("constants", 1))


def test_parse_basic():
    ctx = Context(n=1, m=2, mode=FieldMode("rational", 2))
    f = parse_poly("x1_[2,0]^2 - t1", ctx)
    v = (1, (2, 0))
    assert max(e for mono in f.terms for w, e in mono if w == v) == 2
    assert f.variables() == {v}
    const_term = f.terms[()]
    assert const_term == -Coefficient.base_var(1, 2)


def test_parse_two_terms():
    f = parse_poly("x1_[0]*x2_[1] + 1/2", CONST1)
    assert len(f.terms) == 2
    assert f.variables() == {(1, (0,)), (2, (1,))}


X1, X2, X3 = ((((1, (0,)), 1),), (((2, (0,)), 1),),
              (((1, (1,)), 1),))


@pytest.mark.parametrize("text,order", [
    ("x1_[0] + 1 - x1_[0] + x1_[0]", [(), X1]),
    ("x2_[0] - (x1_[0] - x2_[0]) + x1_[0] - 2*x2_[0] + x2_[0]", [X2]),
    ("x1_[0] + x2_[0] - x1_[0] + (1 + x1_[0])", [X2, (), X1]),
])
def test_parse_sums_reinsert_a_cancelled_monomial_at_the_end(text, order):
    # each +/- chain adds left to right into one dict: a zero sum deletes
    # the monomial and a later term inserts it last
    assert list(parse_poly(text, CONST1).terms) == order


def test_sub_keeps_self_order_and_appends_new_monomials():
    f = parse_poly("x1_[0] + 1 + x2_[0]", RAT1)
    g = parse_poly("x1_[0] + x1_[1]/t1 - x2_[0]", RAT1)
    diff = f - g
    assert list(diff.terms) == [(), X2, X3]
    assert print_poly(diff) == "-1/(t1)*x1_[1] + 2*x2_[0] + 1"
    assert diff == f + (-g)
    assert list((f - 1).terms) == [X1, X2]
    assert (f - f).is_zero()


def test_eq_compares_values_and_checks_the_context():
    # (t1 + 2)/(t1 + 3), once reduced and once as (t1^2 + 3*t1 + 2)/
    # (t1^2 + 4*t1 + 3), which the best-effort reduction leaves as it is
    c = Coefficient(to_tkeys({(1,): 1, (0,): 2}, 1),
                    to_tkeys({(1,): 1, (0,): 3}, 1), 1)
    d = Coefficient(to_tkeys({(2,): 1, (1,): 3, (0,): 2}, 1),
                    to_tkeys({(2,): 1, (1,): 4, (0,): 3}, 1), 1)
    assert (c.num, c.den) != (d.num, d.den)
    assert DiffPolynomial(RAT1, {X1: c}) == DiffPolynomial(RAT1, {X1: d})
    assert DiffPolynomial(RAT1, {X1: c}) != DiffPolynomial(RAT1, {X2: c})
    with pytest.raises(ContextError):
        parse_poly("x1_[0]", RAT1) == parse_poly("x1_[0]", RAT1.with_n(3))
    f = parse_poly("x1_[0]", RAT1)
    assert f.__eq__(1) is NotImplemented
    assert f != "x1_[0]" and not f == 1


def test_argument_checks():
    # the refusals of the library calls the loaders and the parser rule out
    f = parse_poly("x1_[0]", CONST1)
    with pytest.raises(ContextError,
                       match=r"^coordinate index 3 out of range 1\.\.2$"):
        CONST1.check_var((3, (0,)))
    with pytest.raises(ContextError,
                       match=r"^multi-index \(0, 0\) must have length 1$"):
        CONST1.check_var((1, (0, 0)))
    with pytest.raises(ContextError,
                       match="^base variable t1 needs rational mode$"):
        DiffPolynomial.base_var(CONST1, 1)
    with pytest.raises(ContextError, match="^polynomial is not constant$"):
        f.constant_value()
    with pytest.raises(ContextError, match="^negative exponent$"):
        f ** -1
    with pytest.raises(ContextError,
                       match=r"^derivation index 2 out of range 1\.\.1$"):
        f.coeff_derivative(2)
    with pytest.raises(ContextError,
                       match=r"^point missing values for \['x1_\[0\]'\]$"):
        f.evaluate({})
    with pytest.raises(ContextError, match="^incompatible context$"):
        f.with_context(RAT1)


def test_parse_unclosed_bracket():
    with pytest.raises(ParseError) as exc:
        parse_poly("x1_[0,0,0", Context(n=1, m=3,
                                        mode=FieldMode("constants", 3)))
    assert "unclosed" in str(exc.value)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        parse_poly("x1_[0] + ?", CONST1)
    assert exc.value.pos == 9


def test_parse_index_out_of_range():
    with pytest.raises(ParseError):
        parse_poly("x5_[0]", CONST1)
    with pytest.raises(ParseError):
        parse_poly("x1_[0,0]", CONST1)
    with pytest.raises(ParseError):
        parse_poly("t1", CONST1)


def test_parse_division_restrictions():
    f = parse_poly("x1_[0]/2", RAT1)
    assert f == parse_poly("1/2*x1_[0]", RAT1)
    g = parse_poly("x1_[0]/t1", RAT1)
    assert g.terms[(((1, (0,)), 1),)] == Coefficient.base_var(1, 1).inverse()
    with pytest.raises(ParseError):
        parse_poly("1/x1_[0]", RAT1)
    with pytest.raises(ParseError):
        parse_poly("x1_[0]/0", RAT1)


def _parsed(parse, text, ctx):
    """The terms of parse(text, ctx) with each coefficient's num and den
    items in order, or the type and message of what it raised."""
    try:
        f = parse(text, ctx)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)
    return [(mono, (c.num, c.den) if not c.nv else
             (list(c.num.items()), list(c.den.items())))
            for mono, c in f.terms.items()]


@functools.lru_cache(maxsize=None)
def _parse_texts(ctx):
    """Texts whose terms mix runs of integer, x and t factors with
    parentheses, `/`, `^`, unary minus and zero factors."""
    names = ["x%d_[%s]" % (i, ",".join(map(str, xi)))
             for i in (1, 2) for xi in _indices(ctx.m, 1)]
    tnames = ["t%d" % k for k in range(1, ctx.nv + 1)]
    leaf = st.sampled_from(names + tnames + list("01123"))
    power = st.sampled_from(["", "", "", "^0", "^2", "^3"])

    def expr(inner):
        primary = st.one_of(leaf, leaf, leaf, inner.map("({})".format))
        factor = st.tuples(st.sampled_from(["", "", "", "-"]), primary,
                           power).map("".join)
        # mostly nonzero coefficient divisors, sometimes any factor
        divisor = st.one_of(st.sampled_from(["2", "3"] + tnames), factor)
        rest = st.one_of(factor.map("*".__add__), factor.map("*".__add__),
                         divisor.map("/".__add__))
        term = st.tuples(factor, st.lists(rest, max_size=4)).map(
            lambda t: t[0] + "".join(t[1]))
        return st.tuples(term, st.lists(st.tuples(
            st.sampled_from([" + ", " - "]), term), max_size=2)).map(
            lambda t: t[0] + "".join(op + p for op, p in t[1]))

    return st.recursive(expr(leaf), expr, max_leaves=3)


@pytest.mark.parametrize("ctx", [CONST1, RAT1, CONST2, RAT2],
                         ids=["c1", "r1", "c2", "r2"])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_parse_poly_matches_the_factor_by_factor_reference(ctx, data):
    text = data.draw(_parse_texts(ctx))
    assert _parsed(parse_poly, text, ctx) == \
        _parsed(reference_parse_poly, text, ctx)


@pytest.mark.parametrize("text,ctx,error", [
    ("2*x1_[0,0]", CONST1, "multi-index [0, 0] must have 1 entries "
     "(at position 2)"),
    ("x1_[0]*x3_[0]", CONST1, "coordinate index 3 out of range 1..2 "
     "(at position 7)"),
    ("3*t1*x1_[0]", CONST1, "base variable t1 needs rational mode "
     "(at position 2)"),
    ("x1_[0,0]*t3", RAT2, "base variable t3 out of range 1..2 "
     "(at position 9)"),
    ("x1_[0]^x2_[0]", CONST1, "expected 'INT', found 'XVAR' "
     "(at position 7)"),
    ("x1_[0]^2^2", CONST1, "expected 'EOF', found '^' (at position 8)"),
    ("2*(", CONST1, "unexpected token 'EOF' (at position 3)"),
    ("0*x1_[0]/0", CONST1, "division by zero (at position 8)"),
], ids=["index-length", "coordinate", "t-in-constants", "t3-with-m2",
        "caret-without-int", "double-caret", "open-paren", "zero-division"])
def test_malformed_terms_keep_their_errors(text, ctx, error):
    with pytest.raises(ParseError) as exc:
        parse_poly(text, ctx)
    assert str(exc.value) == error
    assert _parsed(reference_parse_poly, text, ctx) == (ParseError, error)


@pytest.mark.parametrize("text", [
    "t2^7*t2", "t2^7*t2*0", "0*t2^7*t2", "0*t2^8", "-0*t2^9", "t2^16",
    "t2^7*t2^7*t2^7", "0*t2^7*t2^7*t2^7*x1_[0,0]", "0*t2^7*t2*t2^16",
    "t2^7*t2*x5_[0,0]", "t2^3*x1_[0,0]*t2^4", "t1^100*t2^7 - t2^7*t2/2"])
def test_t_slot_refusals_match_the_reference(monkeypatch, text):
    # 4-bit slots: t2 holds 0..7.  A run refuses where, and only where,
    # the factor-by-factor product does: a power past the slot always,
    # a product past it only while the coefficient is nonzero, and a key
    # sum that would carry out of the slot never goes unrefused
    monkeypatch.setattr(coeff, "T_BITS", 4)
    assert _parsed(parse_poly, text, RAT2) == \
        _parsed(reference_parse_poly, text, RAT2)


def test_a_power_over_the_bit_budget_is_refused(monkeypatch):
    # e * (the largest coefficient bit length - 1) is checked before the
    # power is taken; a coefficient of 1 never counts against it
    monkeypatch.setenv("DIFFALG_BIT_BUDGET", "64")
    with pytest.raises(ResourceBudgetError) as exc:
        parse_poly("(2*x1_[0])^100", CONST1)
    assert str(exc.value) == "result needs about 100 bits, over the " \
        "64-bit budget"
    assert str(parse_poly("(2*x1_[0])^64", CONST1)) == \
        "18446744073709551616*x1_[0]^64"
    assert str(parse_poly("x1_[0]^99999999999", CONST1)) == \
        "x1_[0]^99999999999"


def test_coeff_derivative_examples():
    f = parse_poly("x1_[0]^2 - 17*x1_[1] + 3", CONST1)
    assert f.coeff_derivative(1).is_zero()
    g = parse_poly("x1_[0]^2 - t1", RAT1)
    assert g.coeff_derivative(1) == parse_poly("-1", RAT1)
    h = parse_poly("t2*x1_[0,0]", RAT2)
    assert h.coeff_derivative(1).is_zero()


def test_substitute_examples():
    f = parse_poly("x1_[0]^2", CONST1)
    one = DiffPolynomial.from_int(CONST1, 1)
    assert f.substitute({(1, (0,)): one}) == one
    g = parse_poly("x1_[0,0] - 1", CONST2)
    renamed = g.substitute({(1, (0, 0)): parse_poly("x1_[1,0]", CONST2)})
    assert renamed == parse_poly("x1_[1,0] - 1", CONST2)
    h = parse_poly("2*x1_[0]*x2_[0] - 1", RAT1)
    img = {(1, (0,)): parse_poly("t1", RAT1),
           (2, (0,)): parse_poly("1/2/t1", RAT1)}
    assert h.substitute(img).is_zero()


def test_substitute_reinserts_a_cancelled_monomial_at_the_end():
    # x2 -> x1 sends the first term to x1^2 and the third to -x1^2, which
    # deletes it; the fourth inserts it again, after x1_[1]
    one, inv = Coefficient.one(1), Coefficient.base_var(1, 1).inverse()
    f = DiffPolynomial(RAT1, {(((1, (0,)), 1), ((2, (0,)), 1)): one,
                              X3: inv, (((1, (0,)), 2),): -one,
                              (((2, (0,)), 2),): inv})
    got = f.substitute({(2, (0,)): parse_poly("x1_[0]", RAT1)})
    assert list(got.terms) == [X3, (((1, (0,)), 2),)]
    assert print_poly(got) == "1/(t1)*x1_[0]^2 + 1/(t1)*x1_[1]"


def test_substitute_context_mismatch():
    f = parse_poly("x1_[0]", CONST1)
    with pytest.raises(ContextError):
        f.substitute({(1, (0,)): parse_poly("x1_[0,0]", CONST2)})


def _random_poly(rng, ctx, levels=2):
    variables = [(i, xi) for i in range(1, ctx.n + 1)
                 for xi in _indices(ctx.m, levels)]
    f = DiffPolynomial.zero(ctx)
    for _ in range(rng.randint(1, 4)):
        term = DiffPolynomial.const(ctx, _random_coeff(rng, ctx.nv))
        for _ in range(rng.randint(0, 3)):
            i, xi = rng.choice(variables)
            term = term * DiffPolynomial.var(ctx, i, xi)
        f = f + term
    return f


def _indices(m, r):
    from diffalg.indices import gamma_set
    return list(gamma_set(m, r))


def _random_coeff(rng, nv):
    c = Coefficient.from_rational(rng.randint(-5, 5), rng.choice([1, 2, 3]), nv)
    for k in range(1, nv + 1):
        if rng.random() < 0.4:
            c = c + Coefficient.base_var(k, nv)
    return c


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("ctx", [CONST1, RAT1, RAT2], ids=["c1", "r1", "r2"])
def test_print_parse_roundtrip(seed, ctx):
    rng = random.Random(seed)
    f = _random_poly(rng, ctx)
    assert parse_poly(print_poly(f), ctx) == f


@pytest.mark.parametrize("seed", range(8))
def test_coeff_derivative_is_a_derivation(seed):
    rng = random.Random(200 + seed)
    f = _random_poly(rng, RAT2)
    g = _random_poly(rng, RAT2)
    for k in (1, 2):
        lhs = (f * g).coeff_derivative(k)
        rhs = f.coeff_derivative(k) * g + f * g.coeff_derivative(k)
        assert lhs == rhs
        assert (f + g).coeff_derivative(k) == (f.coeff_derivative(k)
                                               + g.coeff_derivative(k))
        # variables are fixed by the coefficient derivation
        for v in sorted(f.variables()):
            assert f.coeff_derivative(k).variables() <= f.variables()


@pytest.mark.parametrize("seed", range(8))
def test_derivative_operators_commute(seed):
    rng = random.Random(300 + seed)
    f = _random_poly(rng, RAT2)
    assert (f.coeff_derivative(1).coeff_derivative(2)
            == f.coeff_derivative(2).coeff_derivative(1))


def test_derivation_image_leibniz():
    rng = random.Random(77)
    f = _random_poly(rng, RAT1, levels=1)
    g = _random_poly(rng, RAT1, levels=1)
    assert (derivation_image(f * g, 1)
            == f * derivation_image(g, 1) + g * derivation_image(f, 1))


def _image_coefficient(p, q, a, b, d):
    """(p/q + a*t1 + b*t2)/(t1 + d) over RAT2; d = 0 leaves out the
    division."""
    nv = RAT2.nv
    c = Coefficient.from_rational(p, q, nv)
    c = c + Coefficient.from_int(a, nv) * Coefficient.base_var(1, nv)
    c = c + Coefficient.from_int(b, nv) * Coefficient.base_var(2, nv)
    if d:
        c = c / (Coefficient.base_var(1, nv) + Coefficient.from_int(d, nv))
    return c


def _image_poly(terms):
    f = DiffPolynomial.zero(RAT2)
    for c, factors in terms:
        term = DiffPolynomial.const(RAT2, c)
        for i, xi in factors:
            term = term * DiffPolynomial.var(RAT2, i, xi)
        f = f + term
    return f


_image_terms = st.lists(st.tuples(
    st.builds(_image_coefficient, st.integers(-2, 2), st.sampled_from([1, 2, 3]),
              st.integers(-1, 1), st.integers(-1, 1), st.integers(0, 2)),
    st.lists(st.sampled_from([(i, xi) for i in (1, 2)
                              for xi in _indices(2, 1)]), max_size=3)),
    min_size=1, max_size=5)


@given(terms=_image_terms, k=st.sampled_from([1, 2]))
@settings(max_examples=150, deadline=None)
def test_derivation_image_matches_reference(terms, k):
    f = _image_poly(terms)
    got, want = derivation_image(f, k), reference_derivation_image(f, k)
    assert print_poly(got) == print_poly(want)
    assert [(m, str(c)) for m, c in got.terms.items()] == \
        [(m, str(c)) for m, c in want.terms.items()]
    assert _coefficient_forms(got) == _coefficient_forms(want)


def test_derivation_image_examples():
    # sum_v df/dv * x^(xi+k) + f^{delta_k}
    f = parse_poly("t1*x1_[0]^3 + x1_[0]*x2_[1]", RAT1)
    assert print_poly(derivation_image(f, 1)) == \
        "3*t1*x1_[0]^2*x1_[1] + x1_[0]^3 + x1_[1]*x2_[1] + x1_[0]*x2_[2]"
    assert derivation_image(parse_poly("x1_[0]^2", CONST1), 1) == \
        parse_poly("2*x1_[0]*x1_[1]", CONST1)


def test_derivation_image_cancels_like_the_reference():
    # the coefficient derivative of t1*x1_[1,0] cancels the x1_[1,0] term
    # that D_1 of -x1_[0,0] adds
    f = parse_poly("t1*x1_[1,0] - x1_[0,0]", RAT2)
    got = derivation_image(f, 1)
    assert print_poly(got) == "t1*x1_[2,0]"
    assert _coefficient_forms(got) == \
        _coefficient_forms(reference_derivation_image(f, 1))


def test_print_zero_and_signs():
    assert print_poly(DiffPolynomial.zero(CONST1)) == "0"
    f = parse_poly("-x1_[0] + 2", CONST1)
    assert print_poly(f) == "-x1_[0] + 2"


def _print_coefficient(nv):
    """Constants: p/q.  Rational: num/den from random integer polynomials,
    reduced by the constructor; den is 1 about half the time."""
    if not nv:
        return st.builds(Coefficient.from_rational,
                         st.integers(-50, 50).filter(bool),
                         st.integers(1, 12), st.just(0))

    def poly(top, size):
        return st.dictionaries(
            st.tuples(*[st.integers(0, top)] * nv),
            st.integers(-9, 9).filter(bool), min_size=1, max_size=size).map(
            lambda p: to_tkeys(p, nv))

    return st.builds(
        lambda num, den: Coefficient(num, den or _ONE, nv),
        poly(40, 4), st.one_of(st.none(), poly(4, 3)))


@pytest.mark.parametrize("ctx", [CONST1, RAT1, RAT2], ids=["c1", "r1", "r2"])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_print_poly_matches_the_reference(ctx, data):
    variables = [(i, xi) for i in range(1, ctx.n + 1)
                 for xi in _indices(ctx.m, 2)]
    monomial = st.dictionaries(st.sampled_from(variables),
                               st.integers(1, 40), max_size=3).map(
        lambda d: tuple(sorted(d.items(), key=lambda t: var_rank(t[0]))))
    terms = data.draw(st.dictionaries(monomial, _print_coefficient(ctx.nv),
                                      min_size=1, max_size=12))
    f = DiffPolynomial(ctx, terms)
    for c in terms.values():
        assert c.render() == reference_render(c)
    assert print_poly(f) == reference_print_poly(f)
    assert atom_rho_text(f) == \
        reference_print_poly(f, vstr=_rho_var_str) + " = 0"


@pytest.mark.parametrize("ctx", [CONST1, RAT1], ids=["c1", "r1"])
def test_print_poly_with_a_huge_exponent_matches_the_reference(ctx):
    f = parse_poly("-3*x2_[0]^2 + x1_[0]^99999999999 + 5", ctx)
    assert print_poly(f) == reference_print_poly(f) == \
        "x1_[0]^99999999999 - 3*x2_[0]^2 + 5"


@pytest.mark.parametrize("ctx", [CONST1, RAT1], ids=["c1", "r1"])
def test_scale_by_one_returns_the_polynomial(ctx):
    f = parse_poly("2*x1_[0]^2 - x2_[0] + 1", ctx)
    assert f.scale(Coefficient.one(ctx.nv)) is f
    assert f.scale(Coefficient.from_int(-1, ctx.nv)) == -f


@pytest.mark.parametrize("m", [1, 2, 3])
def test_mono_mul_and_lcm_match_dict_and_sort(m):
    rng = random.Random(70 + m)
    variables = [(i, xi) for i in (1, 2) for xi in _indices(m, 2)]

    def monomial(pool):
        chosen = rng.sample(pool, rng.randint(0, min(4, len(pool))))
        return tuple(sorted(((v, rng.randint(1, 4)) for v in chosen),
                            key=lambda ve: var_rank(ve[0])))

    for trial in range(300):
        if trial % 3 == 0:  # disjoint variables
            half = rng.sample(variables, len(variables) // 2)
            rest = [v for v in variables if v not in half]
            a, b = monomial(half), monomial(rest)
        elif trial % 3 == 1:  # at least one shared variable
            a, b = monomial(variables), monomial(variables)
            if a:
                b = reference_mono_mul(b, (a[0],))
        else:
            a, b = monomial(variables), monomial(variables)
        for got, want in ((mono_mul(a, b), reference_mono_mul(a, b)),
                          (mono_lcm(a, b), reference_mono_lcm(a, b))):
            assert got == want
            ranks = [var_rank(v) for v, _ in got]
            assert all(x < y for x, y in zip(ranks, ranks[1:]))
    assert mono_mul((), ()) == mono_lcm((), ()) == ()


# --- products against the tuple-keyed double loop ----------------------------

PRODUCT_KINDS = {"constants": CONST1, "integers": CONST1, "integral": RAT2,
                 "fractions": RAT2}


def _product_coefficient(rng, ctx, kind):
    """A nonzero coefficient: a rational number in constants mode, an int
    ("integers"); in rational mode an integer polynomial ("integral",
    denominator 1, some with t1-degrees up to 2**70) or, often, a fraction
    with a denominator 2 or t1 + 1 ("fractions")."""
    nv = ctx.nv
    if kind == "constants":
        return Coefficient.from_rational(rng.choice([-2, -1, 1, 1, 3]),
                                         rng.choice([1, 1, 2, 3]), nv)
    if kind == "integers":
        return Coefficient.from_int(rng.choice([-2, -1, 1, 3, 10**20]), nv)
    c = Coefficient.from_int(rng.choice([-2, -1, 1, 1, 3]), nv)
    if rng.random() < 0.5:
        c = c + Coefficient.base_var(rng.randint(1, nv), nv)
    if kind == "integral" and rng.random() < 0.3:
        # t1^7 or t1^(2**70), times 1 or t2^(2**27): t1's slot is
        # unbounded, and a ninth power keeps t2 inside its 32-bit slot
        exps = ((rng.choice([7, 2**70]),)
                + tuple(rng.choice([0, 2**27]) for _ in range(nv - 1)))
        c = c + Coefficient(to_tkeys({exps: rng.choice([-1, 5])}, nv),
                            to_tkeys({(0,) * nv: 1}, nv), nv)
    if kind == "fractions" and rng.random() < 0.6:
        # one non-constant denominator, so that powers stay small
        c = c / rng.choice([Coefficient.from_int(2, nv),
                            Coefficient.base_var(1, nv)
                            + Coefficient.from_int(1, nv)])
    return c


def _product_poly(rng, ctx, kind, variables, terms, top):
    out = {}
    for _ in range(terms):
        chosen = rng.sample(variables, rng.randint(0, len(variables)))
        mono = tuple(sorted(((v, rng.randint(1, top)) for v in chosen),
                            key=lambda ve: var_rank(ve[0])))
        out[mono] = _product_coefficient(rng, ctx, kind)
    return DiffPolynomial(ctx, out)


def _assert_same_product(got, want):
    # same terms in the same dict order, equal num/den dicts, same text
    assert _coefficient_forms(got) == _coefficient_forms(want)
    assert print_poly(got) == print_poly(want)


def _product_variables(ctx):
    zero = (0,) * ctx.m
    return [(1, zero), (2, zero), (1, (1,) + zero[1:])]


@pytest.mark.parametrize("kind", sorted(PRODUCT_KINDS))
def test_mul_matches_reference_loop(kind):
    ctx = PRODUCT_KINDS[kind]
    rng = random.Random("mul:" + kind)
    variables = _product_variables(ctx)
    for trial in range(200):
        top = (1, 2, 3, 2**70)[trial % 4]
        pool = variables[:rng.randint(1, 3)]
        a = _product_poly(rng, ctx, kind, pool, rng.randint(0, 6), top)
        b = _product_poly(rng, ctx, kind, variables, rng.randint(0, 6), top)
        _assert_same_product(a * b, reference_mul(a, b))
        _assert_same_product(b * a, reference_mul(b, a))
        _assert_same_product(a * a, reference_mul(a, a))


@pytest.mark.parametrize("kind", sorted(PRODUCT_KINDS))
def test_mul_by_a_single_term_matches_reference_loop(kind):
    ctx = PRODUCT_KINDS[kind]
    rng = random.Random("mul-shift:" + kind)
    variables = _product_variables(ctx)
    for _ in range(60):
        one = _product_poly(rng, ctx, kind, variables, 1, 3)
        f = _product_poly(rng, ctx, kind, variables, rng.randint(0, 6), 3)
        assert len(one.terms) == 1
        _assert_same_product(one * f, reference_mul(one, f))
        _assert_same_product(f * one, reference_mul(f, one))


@pytest.mark.parametrize("kind", sorted(PRODUCT_KINDS))
def test_pow_matches_reference_powering(kind):
    ctx = PRODUCT_KINDS[kind]
    rng = random.Random("pow:" + kind)
    variables = _product_variables(ctx)[:2]
    for _ in range(4):
        f = _product_poly(rng, ctx, kind, variables, rng.randint(1, 3), 2)
        for e in range(10):
            _assert_same_product(f ** e, reference_pow(f, e))


def test_mul_reinserts_a_cancelled_monomial_at_the_end():
    # x^2*y^2 gets +1 (x^2 * y^2), then -1 (x*y * -x*y), which removes it,
    # then +1 again (y^2 * x^2), which inserts it last
    a = parse_poly("x1_[0]^2 + x1_[0]*x2_[0] + x2_[0]^2", CONST1)
    b = parse_poly("x2_[0]^2 - x1_[0]*x2_[0] + x1_[0]^2", CONST1)
    want = reference_mul(a, b)
    x2y2 = (((1, (0,)), 2), ((2, (0,)), 2))
    assert list(want.terms)[-1] == x2y2
    _assert_same_product(a * b, want)
    assert print_poly(a * b) == "x2_[0]^4 + x1_[0]^2*x2_[0]^2 + x1_[0]^4"


def test_fractional_mul_reinserts_a_cancelled_monomial_at_the_end():
    # test_mul_reinserts_a_cancelled_monomial_at_the_end with c = 1/(t1 + 1)
    # in the coefficients: x^2*y^2 gets c^2, then -c^2, which removes it,
    # then c^2 again, which inserts it last; x^3*y and x*y^3 cancel too
    a = parse_poly("x1_[0]^2 + x1_[0]*x2_[0]/(t1 + 1)"
                   " + x2_[0]^2/(t1 + 1)^2", RAT1)
    b = parse_poly("x2_[0]^2/(t1 + 1)^2 - x1_[0]*x2_[0]/(t1 + 1)"
                   " + x1_[0]^2", RAT1)
    want = reference_mul(a, b)
    x2y2 = (((1, (0,)), 2), ((2, (0,)), 2))
    assert list(want.terms)[-1] == x2y2
    _assert_same_product(a * b, want)
    assert print_poly(a * b) == (
        "1/(t1^4 + 4*t1^3 + 6*t1^2 + 4*t1 + 1)*x2_[0]^4"
        " + 1/(t1^2 + 2*t1 + 1)*x1_[0]^2*x2_[0]^2 + x1_[0]^4")


@pytest.mark.parametrize("a,b", [
    ("x1_[0]/(t1 + 1) + x2_[0] + 1", "x1_[0] + x2_[0]/(t1 + 1) + t1"),
    ("(x1_[0] + x2_[0]/t1 + 1/(t1 + 1))^2", "x1_[0] - x2_[0]/t1 + 1"),
])
def test_fractional_mul_adds_meeting_pairs_like_the_reference(a, b):
    f, g = parse_poly(a, RAT1), parse_poly(b, RAT1)
    meets = {}
    for ma in f.terms:
        for mb in g.terms:
            mono = mono_mul(ma, mb)
            meets[mono] = meets.get(mono, 0) + 1
    assert max(meets.values()) >= 2
    _assert_same_product(f * g, reference_mul(f, g))
    _assert_same_product(g * f, reference_mul(g, f))


def test_mul_packs_huge_exponents():
    x, y = (1, (0,)), (2, (0,))
    big = 2**70
    a = DiffPolynomial(CONST1, {((x, big),): Coefficient.from_int(1, 0),
                                ((x, 1), (y, 1)): Coefficient.from_int(2, 0),
                                (): Coefficient.from_int(-1, 0)})
    b = DiffPolynomial(CONST1, {((x, big - 1), (y, 1)):
                                Coefficient.from_int(3, 0),
                                ((y, big),): Coefficient.from_int(1, 0),
                                ((x, 1),): Coefficient.from_int(1, 0)})
    _assert_same_product(a * b, reference_mul(a, b))
    assert ((x, 2 * big),) in (a * a).terms
    _assert_same_product(a ** 3, reference_pow(a, 3))


def test_the_term_budget_refuses_a_product_before_any_work(monkeypatch):
    a = parse_poly("x1_[0] + x2_[0] + 1", CONST1)
    b = parse_poly("x1_[0] - x2_[0]", CONST1)
    monkeypatch.setenv("DIFFALG_TERM_BUDGET", "6")
    _assert_same_product(a * b, reference_mul(a, b))
    monkeypatch.setenv("DIFFALG_TERM_BUDGET", "5")
    monkeypatch.setattr(dpoly, "_integral_product", None)
    monkeypatch.setattr(dpoly, "mono_mul", None)
    with pytest.raises(ResourceBudgetError,
                       match="a product of 3 by 2 terms exceeds the term "
                             "budget 5"):
        a * b
    monkeypatch.undo()
    # a one-term operand only shifts its other operand: no budget applies
    monkeypatch.setenv("DIFFALG_TERM_BUDGET", "0")
    one = parse_poly("2*x1_[0]", CONST1)
    _assert_same_product(a * one, reference_mul(a, one))
    _assert_same_product(one * a, reference_mul(one, a))
    # in rational mode a term counts once per t-monomial of its
    # coefficient's numerator, so a one-term operand is a shift, never
    # refused, only when that numerator is one t-monomial
    c = parse_poly("x1_[0] + t1*x2_[0] + 1", RAT1)
    for text in ("2*x1_[0]", "t1^2/(t1 + 1)*x1_[0]"):
        one = parse_poly(text, RAT1)
        _assert_same_product(c * one, reference_mul(c, one))
        _assert_same_product(one * one, reference_mul(one, one))
    two = parse_poly("(t1 + 1)*x1_[0]", RAT1)
    monkeypatch.setenv("DIFFALG_TERM_BUDGET", "6")
    _assert_same_product(two * c, reference_mul(two, c))
    monkeypatch.setenv("DIFFALG_TERM_BUDGET", "5")
    monkeypatch.setattr(dpoly, "mono_mul", None)
    with pytest.raises(ResourceBudgetError,
                       match="a product of 2 by 3 terms exceeds the term "
                             "budget 5"):
        two * c
    with pytest.raises(ResourceBudgetError,
                       match="a product of 3 by 2 terms exceeds the term "
                             "budget 5"):
        c * two
    monkeypatch.undo()
    monkeypatch.setenv("DIFFALG_TERM_BUDGET", "1e3")
    with pytest.raises(ContextError, match="DIFFALG_TERM_BUDGET"):
        a * b


# --- integer-coefficient products ---------------------------------------------


def test_integral_mul_cancels_inside_a_surviving_term():
    # x1*x2 gets (t1 + 1)*(t1 - 1) and then 1*1: the constant t-terms
    # cancel, and t1^2 is left
    a = parse_poly("(t1 + 1)*x1_[0] + x2_[0]", RAT1)
    b = parse_poly("(t1 - 1)*x2_[0] + x1_[0]", RAT1)
    got, want = a * b, reference_mul(a, b)
    _assert_same_product(got, want)
    assert from_tkeys(got.terms[(((1, (0,)), 1), ((2, (0,)), 1))].num, 1) \
        == {(2,): 1}
    assert print_poly(got) == \
        "(t1 - 1)*x2_[0]^2 + t1^2*x1_[0]*x2_[0] + (t1 + 1)*x1_[0]^2"


def test_integral_mul_reinserts_a_cancelled_monomial_at_the_end():
    # rational-mode twin of the constants test above: x^2*y^2 gets t1,
    # then -t1 (x*y * -x*y), which removes it, then t1 again, which
    # inserts it last
    a = parse_poly("t1*x1_[0]^2 + t1*x1_[0]*x2_[0] + x2_[0]^2", RAT1)
    b = parse_poly("x2_[0]^2 - x1_[0]*x2_[0] + t1*x1_[0]^2", RAT1)
    want = reference_mul(a, b)
    x2y2 = (((1, (0,)), 2), ((2, (0,)), 2))
    assert list(want.terms)[-1] == x2y2
    _assert_same_product(a * b, want)
    assert print_poly(a * b) == (
        "x2_[0]^4 + (t1 - 1)*x1_[0]*x2_[0]^3 + t1*x1_[0]^2*x2_[0]^2"
        " + (t1^2 - t1)*x1_[0]^3*x2_[0] + t1^2*x1_[0]^4")


def test_products_with_fractions_keep_the_coefficient_loop(monkeypatch):
    t_plus_1 = parse_poly("t1 + 1", RAT1).constant_value()
    a = parse_poly("(t1 + 2)*x1_[0] + x2_[0] - 3", RAT1)
    b = parse_poly("x1_[0] - t1^2*x2_[0] + 7*t1", RAT1)
    x1 = (((1, (0,)), 1),)
    a_frac = DiffPolynomial(RAT1, dict(a.terms))
    a_frac.terms[x1] = a.terms[x1] / t_plus_1
    c = parse_poly("x1_[0]^2 + 2*x1_[0]*x2_[0] - 3", CONST1)
    d = parse_poly("x1_[0] - 5*x2_[0] + 7", CONST1)
    c_half = parse_poly("1/2*x1_[0]^2 + 2*x1_[0]*x2_[0] - 3", CONST1)
    calls = []
    for cls in {Coefficient, type(Coefficient.from_int(1, 0))}:
        def counted(self, other, mul=cls.__mul__):
            calls.append(self)
            return mul(self, other)
        monkeypatch.setattr(cls, "__mul__", counted)
    for f, g, coefficient_loop in ((a, b, False), (c, d, False),
                                   (a_frac, b, True), (c_half, d, True)):
        del calls[:]
        got = f * g
        assert bool(calls) == coefficient_loop
        _assert_same_product(got, reference_mul(f, g))
