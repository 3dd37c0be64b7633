import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from diffalg import coeff as coeff_module
from diffalg.coeff import (Coefficient, FieldMode, _padd, _pderiv,
                           _pexact_div, _pmonomial_content, _pmul, _pneg,
                           _tmono_str)
from diffalg.dpoly import Context, parse_poly
from diffalg.errors import ContextError, ResourceBudgetError
from helpers import (from_tkeys, reference_pderiv, reference_pexact_div,
                     reference_pmonomial_content, reference_pmul,
                     reference_reduce, reference_tmono_str, to_tkeys)


RAT2 = Context(n=1, m=2, mode=FieldMode("rational", 2))


def Q(p, q=1, nv=0):
    return Coefficient.from_rational(p, q, nv)


def t(k, nv):
    return Coefficient.base_var(k, nv)


def test_field_mode_validation():
    assert FieldMode("constants", 2).base_vars == 0
    assert FieldMode("rational", 2).base_vars == 2
    with pytest.raises(ContextError):
        FieldMode("weird", 1)
    with pytest.raises(ContextError):
        FieldMode("constants", 0)


def test_rational_arithmetic():
    assert Q(1, 2) + Q(1, 3) == Q(5, 6)
    assert Q(1, 2) - Q(1, 3) == Q(1, 6)
    assert Q(2, 3) * Q(3, 4) == Q(1, 2)
    assert Q(1, 2) / Q(1, 4) == Q(2)


def test_self_division_is_one():
    a = t(1, 1)
    assert a / a == Coefficient.one(1)
    assert (a / a).is_one()


def test_cross_multiplication_equality():
    # (t1^2 - 1)/(t1 - 1) equals t1 + 1 under the field equality test
    t1 = t(1, 1)
    one = Coefficient.one(1)
    lhs = (t1 * t1 - one) / (t1 - one)
    assert lhs * one == t1 + one


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Q(1) / Q(0)
    with pytest.raises(ZeroDivisionError):
        Q(1).inverse() / Q(0)


def test_zero_canonical():
    a = Q(3, 7) - Q(3, 7)
    assert a.is_zero()
    assert not a
    assert a == Coefficient.zero(0)


def test_derive_constants_mode():
    assert Q(7, 3).derive(1).is_zero()


def test_derive_power_rule():
    t1 = t(1, 1)
    assert (t1 * t1).derive(1) == Q(2, 1, 1) * t1


def test_derive_quotient_rule():
    # d/dt2 of 1/t2 = -1/t2^2, derived by hand
    t2 = t(2, 2)
    a = Coefficient.one(2) / t2
    assert a.derive(2) == -(Coefficient.one(2) / (t2 * t2))


def test_derive_unrelated_base_var():
    assert t(2, 2).derive(1).is_zero()


def _random_coeff(rng, nv):
    c = Coefficient.from_rational(rng.randint(-4, 4), rng.choice([1, 2, 3]), nv)
    for k in range(1, nv + 1):
        if rng.random() < 0.5:
            c = c + t(k, nv)
        if rng.random() < 0.2:
            c = c * t(k, nv)
    return c


@pytest.mark.parametrize("seed", range(8))
def test_leibniz_and_additivity(seed):
    rng = random.Random(seed)
    nv = 2
    a = _random_coeff(rng, nv)
    b = _random_coeff(rng, nv)
    for k in (1, 2):
        assert (a * b).derive(k) == a.derive(k) * b + a * b.derive(k)
        assert (a + b).derive(k) == a.derive(k) + b.derive(k)


@pytest.mark.parametrize("seed", range(8))
def test_derivations_commute(seed):
    rng = random.Random(100 + seed)
    a = _random_coeff(rng, 2)
    ab = a.derive(1).derive(2)
    ba = a.derive(2).derive(1)
    assert ab == ba


@given(p=st.integers(-30, 30), q=st.integers(1, 12),
       r=st.integers(-30, 30), s=st.integers(1, 12))
@settings(max_examples=60, deadline=None)
def test_rational_field_laws(p, q, r, s):
    a, b = Q(p, q), Q(r, s)
    assert a + b == b + a
    assert a * b == b * a
    assert (a - b) + b == a
    if not b.is_zero():
        assert (a / b) * b == a


def test_str_roundtrippable_forms():
    assert str(Q(-3, 2)) == "-3/2"
    t1 = t(1, 2)
    t2 = t(2, 2)
    assert str(t1 + t2) == "(t1 + t2)"
    assert str(Coefficient.one(2) / t2) == "1/(t2)"


# --- constants mode against fractions.Fraction ------------------------------

def _from_fraction(f):
    return Coefficient.from_rational(f.numerator, f.denominator, 0)


def _agrees(c, f):
    """c is the canonical constants-mode form of the Fraction f."""
    assert isinstance(c, Coefficient) and c.nv == 0
    assert str(c) == str(f)
    assert c == _from_fraction(f)
    assert c.is_zero() == (f == 0) and bool(c) == (f != 0)
    assert c.is_one() == (f == 1)
    assert c.render() == (f < 0, str(abs(f)), abs(f) == 1)


_fractions = st.fractions(max_denominator=10 ** 6)


@given(a=_fractions, b=_fractions, e=st.integers(-6, 6),
       k=st.integers(-50, 50), p=st.integers(-10 ** 9, 10 ** 9),
       q=st.integers(-10 ** 9, 10 ** 9).filter(bool))
@settings(max_examples=300, deadline=None)
def test_constants_mode_matches_fraction(a, b, e, k, p, q):
    x, y = _from_fraction(a), _from_fraction(b)
    _agrees(x, a)
    _agrees(Coefficient.from_rational(p, q, 0), Fraction(p, q))
    _agrees(Coefficient.from_int(p, 0), Fraction(p))
    _agrees(x + y, a + b)
    _agrees(x - y, a - b)
    _agrees(x * y, a * b)
    _agrees(-x, -a)
    _agrees(x.scale_int(k), a * k)
    _agrees(x.derive(1), Fraction(0))
    assert (x == y) == (a == b)
    if b:
        _agrees(x / y, a / b)
        _agrees(y.inverse(), 1 / b)
    if a or e >= 0:
        _agrees(x ** e, a ** e)


def test_constants_mode_render_signs_and_units():
    assert Coefficient.from_int(-1, 0).render() == (True, "1", True)
    assert not Coefficient.from_int(-1, 0).is_one()
    assert Coefficient.one(0).render() == (False, "1", True)
    assert Coefficient.zero(0).render() == (False, "0", False)
    assert Q(-3, 2).render() == (True, "3/2", False)
    assert Q(6, -4).render() == (True, "3/2", False)
    assert Q(7, 1).render() == (False, "7", False)


def test_rational_mode_render_signs_and_units():
    def c(text):
        return parse_poly(text, RAT2).constant_value()

    assert c("-1").render() == (True, "1", True)
    assert c("-t1").render() == (True, "t1", False)
    assert c("1 - t1").render() == (True, "(t1 - 1)", False)
    assert c("-2/3").render() == (True, "2/3", False)
    assert c("-t1/(t2 + 1)").render() == (True, "t1/(t2 + 1)", False)
    assert c("-1/(t1)").render() == (True, "1/(t1)", False)
    assert c("(-t2 + t1)/(-3)").render() == (True, "(t1 - t2)/3", False)
    assert c("2*t1^2*t2 - t2^3 + 1").render() == \
        (False, "(2*t1^2*t2 - t2^3 + 1)", False)
    assert Coefficient.zero(2).render() == (False, "0", False)


def test_constants_mode_errors():
    zero = Coefficient.zero(0)
    with pytest.raises(ZeroDivisionError):
        Q(1) / zero
    with pytest.raises(ZeroDivisionError):
        zero.inverse()
    with pytest.raises(ZeroDivisionError):
        zero ** -2
    with pytest.raises(ZeroDivisionError):
        Coefficient.from_rational(1, 0, 0)
    c, r = Q(3, 2), t(1, 1)
    for mixed in (lambda: c + r, lambda: r + c, lambda: c - r, lambda: c * r,
                  lambda: r * c, lambda: c / r, lambda: r / c, lambda: c == r,
                  lambda: r == c):
        with pytest.raises(ContextError):
            mixed()


# --- rational-mode shortcuts against the full reduction ---------------------

def _int_polys(nv):
    """Integer polynomials in nv base variables as {exponents: int} dicts."""
    return st.dictionaries(st.tuples(*[st.integers(0, 3)] * nv),
                           st.integers(-6, 6).filter(bool), max_size=4)


def _one(nv):
    """A fresh denominator-1 dict, not the one coeff.py shares."""
    return {(0,) * nv: 1}


def _tuples(c):
    """(num, den) of the Coefficient c as exponent-tuple dicts."""
    return from_tkeys(c.num, c.nv), from_tkeys(c.den, c.nv)


def _reduce(num, den, nv):
    """Coefficient._reduce of exponent-tuple dicts, through t-keys."""
    num, den = Coefficient._reduce(to_tkeys(num, nv), to_tkeys(den, nv), nv)
    return from_tkeys(num, nv), from_tkeys(den, nv)


def _full(num, den, nv):
    """(num, den) reduced with no shortcut, checked against the constructor."""
    ref = reference_reduce(num, den)
    c = Coefficient(to_tkeys(num, nv), to_tkeys(den, nv), nv)
    assert _tuples(c) == ref
    return ref


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_denominator_one_shortcuts_match_full_reduction(data):
    nv = data.draw(st.integers(1, 2))
    an = data.draw(_int_polys(nv))
    bn = data.draw(st.one_of(_int_polys(nv),
                             st.just({e: -v for e, v in an.items()})))
    k = data.draw(st.integers(1, nv))
    s = data.draw(st.integers(-5, 5))
    a = Coefficient(to_tkeys(an, nv), to_tkeys(_one(nv), nv), nv)
    b = Coefficient(to_tkeys(bn, nv), to_tkeys(_one(nv), nv), nv)
    one = _one(nv)
    mul, deriv = reference_pmul, reference_pderiv
    cases = [
        (a + b, _padd(mul(an, one), mul(bn, one)), mul(one, one)),
        (a - b, _padd(mul(an, one), mul(_pneg(bn), one)), mul(one, one)),
        (a - a, _padd(mul(an, one), mul(_pneg(an), one)), mul(one, one)),
        (a * b, mul(an, bn), mul(one, one)),
        (a.scale_int(s), {e: v * s for e, v in an.items()} if s else {}, one),
        (a.derive(k), _padd(mul(deriv(an, k), one),
                            _pneg(mul(an, deriv(one, k)))),
         mul(one, one)),
    ]
    for got, num, den in cases:
        assert _tuples(got)[1] == one
        assert _tuples(got) == _full(num, den, nv)
        if not num:
            assert _tuples(got) == ({}, one)


@pytest.mark.parametrize("nv", [1, 2])
@pytest.mark.parametrize("c", [1, -1, 2, -2, 3, -6, 12])
def test_constant_denominator_reduction_matches_exact_division(nv, c):
    rng = random.Random(31 * nv + c)
    checked = 0
    for _ in range(40):
        num = {tuple(rng.randint(0, 2) for _ in range(nv)):
               rng.choice([-1, 1]) * rng.randint(1, 30) for _ in range(3)}
        if math.gcd(*num.values(), c) != 1:
            continue  # the case under test: num's content coprime to c
        den = {(0,) * nv: c}
        assert _reduce(num, den, nv) == reference_reduce(num, den)
        checked += 1
    assert checked >= 10


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_constant_denominator_reduction_property(data):
    nv = data.draw(st.integers(1, 2))
    num = data.draw(_int_polys(nv))
    den = {(0,) * nv: data.draw(st.integers(-12, 12).filter(bool))}
    assert _reduce(num, den, nv) == reference_reduce(num, den)


def test_parsing_integer_polynomials_skips_reduction(monkeypatch):
    from diffalg.dpoly import Context, parse_poly
    calls = {"_pexact_div": 0, "_reduce": 0}
    reduce = Coefficient._reduce

    def counting_div(a, b, nv):
        calls["_pexact_div"] += 1
        return _pexact_div(a, b, nv)

    def counting_reduce(num, den, nv):
        calls["_reduce"] += 1
        return reduce(num, den, nv)

    monkeypatch.setattr(coeff_module, "_pexact_div", counting_div)
    monkeypatch.setattr(Coefficient, "_reduce", staticmethod(counting_reduce))
    ctx = Context(n=2, m=1, mode=FieldMode("rational", 1))
    parse_poly("(x1_[0] + x2_[0] + t1)^20", ctx)
    assert calls == {"_pexact_div": 0, "_reduce": 0}
    # the counters do see a denominator that is not constant
    parse_poly("x1_[0]/(t1 + 1)", ctx)
    assert calls["_pexact_div"] and calls["_reduce"]


# --- t-keys against the exponent-tuple references ---------------------------

@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_t_key_helpers_match_the_tuple_references(data):
    nv = data.draw(st.integers(1, 3))
    a, b = data.draw(_int_polys(nv)), data.draw(_int_polys(nv))
    ta, tb = to_tkeys(a, nv), to_tkeys(b, nv)
    ab = reference_pmul(a, b)
    assert from_tkeys(_pmul(ta, tb), nv) == ab
    # a*b - b*a cancels to {}
    assert _padd(_pmul(ta, tb), _pneg(_pmul(tb, ta))) == {}
    for k in range(1, nv + 1):
        assert from_tkeys(_pderiv(ta, k, nv), nv) == reference_pderiv(a, k)
    if a:
        assert from_tkeys({_pmonomial_content(ta, nv): 1}, nv) == \
            {reference_pmonomial_content(a): 1}
    for exps, key in zip(a, ta):
        assert _tmono_str(key, nv, coeff_module.T_BITS) == \
            reference_tmono_str(exps)
    for x, y in ((ab, b), (a, b), (b, a)):
        got = _pexact_div(to_tkeys(x, nv), to_tkeys(y, nv), nv)
        want = reference_pexact_div(x, y)
        assert (got if got is None else from_tkeys(got, nv)) == want
    if nv > 1:
        # y's lead is under x's in t1 but over it in the lower slot j: the
        # key difference is positive, and only its guard bit tells
        j = data.draw(st.integers(1, nv - 1))
        lead = list(data.draw(st.tuples(*[st.integers(0, 3)] * nv)))
        lead[j] += 1
        over = list(lead)
        over[0] += data.draw(st.integers(1, 3))
        over[j] = data.draw(st.integers(0, lead[j] - 1))
        x, y = {tuple(over): 6}, {tuple(lead): 3}
        tx, ty = to_tkeys(x, nv), to_tkeys(y, nv)
        assert min(tx) > max(ty)
        assert reference_pexact_div(x, y) is None
        assert _pexact_div(tx, ty, nv) is None


def test_a_degree_past_a_lower_slot_is_refused(monkeypatch):
    # 4-bit slots: t2 holds 0..7; t1's slot is unbounded
    monkeypatch.setattr(coeff_module, "T_BITS", 4)
    t1, t2, one = t(1, 2), t(2, 2), Coefficient.one(2)
    assert str(t1 ** 100 * t2 ** 7) == "t1^100*t2^7"
    assert str(t2 ** 3 / (t1 + one) * t2 ** 4) == "t2^7/(t1 + 1)"
    for product in (lambda: t2 ** 4 * t2 ** 4,
                    lambda: t2 ** 4 / (t1 + one) * t2 ** 4,
                    lambda: (t2 ** 4 / (t1 + one)).derive(1) * t2 ** 4):
        with pytest.raises(ResourceBudgetError, match="slot limit 7"):
            product()
    # the integer-coefficient product of DiffPolynomial.__mul__
    f = parse_poly("t2^4*x1_[0,0] + x1_[1,0]", RAT2)
    assert str(f * parse_poly("t2^3*x1_[0,0] + 1", RAT2)) == \
        "t2^3*x1_[0,0]*x1_[1,0] + t2^7*x1_[0,0]^2 + x1_[1,0] + t2^4*x1_[0,0]"
    with pytest.raises(ResourceBudgetError, match="slot limit 7"):
        f * f
    # one base variable has no limit at all
    assert str(t(1, 1) ** 100 * t(1, 1) ** 100) == "t1^200"


def test_exact_division_that_borrows_from_a_lower_slot_fails(monkeypatch):
    monkeypatch.setattr(coeff_module, "T_BITS", 4)
    # t1 / t2^7: the key 16 - 7 = 9 sets t2's guard bit 8
    assert _pexact_div({16: 1}, {7: 1}, 2) is None
    assert reference_pexact_div({(1, 0): 1}, {(0, 7): 1}) is None
    assert _pexact_div({16 + 7: 2}, {7: 1}, 2) == {16: 2}
    # t1*t3 / t2: t2's slot borrows from t1's and t3's does not
    x, y = to_tkeys({(1, 0, 1): 3}, 3), to_tkeys({(0, 1, 0): 3}, 3)
    assert _pexact_div(x, y, 3) is None
    assert str(t(1, 2) / t(2, 2)) == "t1/(t2)"
