import random

import pytest

from diffalg.coeff import Coefficient, FieldMode
from diffalg.dpoly import (Context, DiffPolynomial, derivation_image,
                           parse_poly, print_poly)
from diffalg.errors import ContextError, ParseError

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


def test_partial_derivative_examples():
    x = parse_poly("x1_[0]", CONST1)
    v0, v1 = (1, (0,)), (1, (1,))
    f = parse_poly("x1_[0]^2", CONST1)
    assert f.partial_derivative(v0) == 2 * x
    g = parse_poly("x1_[0]*x1_[1]", CONST1)
    assert g.partial_derivative(v1) == x
    h = parse_poly("t1*x1_[0]^3", RAT1)
    assert h.partial_derivative(v0) == parse_poly("3*t1*x1_[0]^2", RAT1)


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
    vs = sorted(f.variables())
    if len(vs) >= 2:
        a, b = vs[0], vs[1]
        assert (f.partial_derivative(a).partial_derivative(b)
                == f.partial_derivative(b).partial_derivative(a))
    assert (f.coeff_derivative(1).coeff_derivative(2)
            == f.coeff_derivative(2).coeff_derivative(1))


def test_derivation_image_leibniz():
    rng = random.Random(77)
    f = _random_poly(rng, RAT1, levels=1)
    g = _random_poly(rng, RAT1, levels=1)
    assert (derivation_image(f * g, 1)
            == f * derivation_image(g, 1) + g * derivation_image(f, 1))


def test_print_zero_and_signs():
    assert print_poly(DiffPolynomial.zero(CONST1)) == "0"
    f = parse_poly("-x1_[0] + 2", CONST1)
    assert print_poly(f) == "-x1_[0] + 2"
