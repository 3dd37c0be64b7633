import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from diffalg import coeff as coeff_module
from diffalg.coeff import (Coefficient, FieldMode, _padd, _pderiv,
                           _pexact_div, _pmul, _pneg)
from diffalg.dpoly import Context, parse_poly
from diffalg.errors import ContextError
from helpers import reference_reduce


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


def _full(num, den, nv):
    """(num, den) reduced with no shortcut, checked against the constructor."""
    ref = reference_reduce(num, den)
    c = Coefficient(num, den, nv)
    assert (c.num, c.den) == ref
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
    a = Coefficient(an, _one(nv), nv)
    b = Coefficient(bn, _one(nv), nv)
    one = _one(nv)
    cases = [
        (a + b, _padd(_pmul(an, one), _pmul(bn, one)), _pmul(one, one)),
        (a - b, _padd(_pmul(an, one), _pmul(_pneg(bn), one)), _pmul(one, one)),
        (a - a, _padd(_pmul(an, one), _pmul(_pneg(an), one)), _pmul(one, one)),
        (a * b, _pmul(an, bn), _pmul(one, one)),
        (a.scale_int(s), {e: v * s for e, v in an.items()} if s else {}, one),
        (a.derive(k), _padd(_pmul(_pderiv(an, k), one),
                            _pneg(_pmul(an, _pderiv(one, k)))),
         _pmul(one, one)),
    ]
    for got, num, den in cases:
        assert got.den == one
        assert (got.num, got.den) == _full(num, den, nv)
        if not num:
            assert (got.num, got.den) == ({}, one)


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
        assert Coefficient._reduce(num, den) == reference_reduce(num, den)
        checked += 1
    assert checked >= 10


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_constant_denominator_reduction_property(data):
    nv = data.draw(st.integers(1, 2))
    num = data.draw(_int_polys(nv))
    den = {(0,) * nv: data.draw(st.integers(-12, 12).filter(bool))}
    assert Coefficient._reduce(num, den) == reference_reduce(num, den)


def test_parsing_integer_polynomials_skips_reduction(monkeypatch):
    from diffalg.dpoly import Context, parse_poly
    calls = {"_pexact_div": 0, "_reduce": 0}
    reduce = Coefficient._reduce

    def counting_div(a, b):
        calls["_pexact_div"] += 1
        return _pexact_div(a, b)

    def counting_reduce(num, den):
        calls["_reduce"] += 1
        return reduce(num, den)

    monkeypatch.setattr(coeff_module, "_pexact_div", counting_div)
    monkeypatch.setattr(Coefficient, "_reduce", staticmethod(counting_reduce))
    ctx = Context(n=2, m=1, mode=FieldMode("rational", 1))
    parse_poly("(x1_[0] + x2_[0] + t1)^20", ctx)
    assert calls == {"_pexact_div": 0, "_reduce": 0}
    # the counters do see a denominator that is not constant
    parse_poly("x1_[0]/(t1 + 1)", ctx)
    assert calls["_pexact_div"] and calls["_reduce"]
