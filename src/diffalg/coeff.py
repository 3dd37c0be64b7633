"""Exact coefficients: K = Q (constants mode) or K = Q(t_1..t_m).

In rational mode (m base variables t_1..t_m) a Coefficient is a fraction
of integer-coefficient polynomials in the t_k.  Fractions are reduced
best-effort only: integer content, common monomial content, and exact
polynomial division when it happens to succeed.  Correctness never depends
on reduction; equality is decided by cross-multiplication and the zero test
is "numerator identically zero".  The printed form depends on the order of
the operations that built a fraction, so callers that must print the same
text keep that order.

An integer polynomial has denominator exactly 1, and reduction leaves such
a fraction as it is.  So + and * of two denominator-1 operands, and
scale_int and derive of one, skip the reduction and __init__ as well: after
the nv check they build their result with `_raw`, which only sets the three
slots, as do negation, zero, one, from_int and base_var.  Inside the
reduction a constant denominator skips the exact-division attempt.  The num
and den dicts are shared between Coefficients (the denominator-1 values of
one nv all hold one unit dict) and are never mutated.

In constants mode (no base variables) a Coefficient is a rational number
held as a reduced integer pair: den > 0 and gcd(num, den) == 1, so the form
is canonical.  It is the private subclass _Q, which the constructors below
return whenever nv == 0.  Its num and den are plain ints, and Groebner
division (groebner.normal_form) reads them and divides on the ints,
building a Coefficient only for each remainder term.

Every sum of sparse terms, here and in dpoly, keeps one rule: each (key,
value) is added in order with the old value on the left, a zero sum deletes
the key, and a new key goes last.  add_into is its loop.  Three more
loops keep it: _pmul and dpoly's _integral_product, inline, as a
generator made them slower, and groebner's _add_shifted, which also tests
the guard bits of each new key, for every dividend and S-polynomial.

integral_num is the integral view of a coefficient in either mode: the
integer polynomial {exponent tuple: int} it equals when its denominator is
1, else None; from_integral builds it back.  A denominator-1 value has one
form, so DiffPolynomial.__mul__ may add these dicts in any order.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from operator import add

from .errors import ContextError


@dataclass(frozen=True)
class FieldMode:
    """Which base field we are over and how the derivations act on it."""

    kind: str  # "constants" or "rational"
    m: int

    def __post_init__(self):
        if self.kind not in ("constants", "rational"):
            raise ContextError("unknown field mode %r" % (self.kind,))
        if self.m < 1:
            raise ContextError("m must be >= 1")

    @property
    def base_vars(self):
        return self.m if self.kind == "rational" else 0


# --- integer polynomials as {exponent tuple: int} dicts -------------------

def _pconst(c, nv):
    return {(0,) * nv: c} if c else {}


@functools.lru_cache(maxsize=None)
def _unit(nv):
    """The constant polynomial 1, one shared dict per nv: never mutate it."""
    return {(0,) * nv: 1}


def _pis_const(p):
    return all(all(e == 0 for e in exps) for exps in p)


def add_into(terms, items):
    """Add each (key, nonzero value) of items into the dict terms in
    place, by the rule above, and return terms."""
    for key, value in items:
        old = terms.get(key)
        if old is None:
            terms[key] = value
        else:
            s = old + value
            if s:
                terms[key] = s
            else:
                del terms[key]
    return terms


def _padd(a, b):
    return add_into(dict(a), b.items())


def _pneg(a):
    return {exps: -c for exps, c in a.items()}


def _pmul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            exps = tuple(map(add, ea, eb))
            s = out.get(exps, 0) + ca * cb
            if s:
                out[exps] = s
            elif exps in out:
                del out[exps]
    return out


def _pcontent(a):
    g = 0
    for c in a.values():
        g = math.gcd(g, c)
    return g or 1


def _pmonomial_content(a):
    it = iter(a)
    first = next(it)
    mins = list(first)
    for exps in it:
        for j, e in enumerate(exps):
            if e < mins[j]:
                mins[j] = e
    return tuple(mins)


def _pshift_down(a, mins):
    if not any(mins):
        return a
    return {tuple(e - m for e, m in zip(exps, mins)): c for exps, c in a.items()}


def _pderiv(a, k):
    """Formal partial derivative with respect to base variable k (1-based)."""
    j = k - 1
    return add_into({}, ((exps[:j] + (exps[j] - 1,) + exps[j + 1:],
                          c * exps[j]) for exps, c in a.items() if exps[j]))


def _plead(a):
    """Lex-leading (exps, coeff) pair; a must be nonzero."""
    exps = max(a)
    return exps, a[exps]


def _pexact_div(a, b):
    """Exact polynomial quotient a / b, or None when it does not divide."""
    if not b:
        return None
    if not a:
        return {}
    q = {}
    r = dict(a)
    eb, cb = _plead(b)
    while r:
        er, cr = _plead(r)
        if any(x < y for x, y in zip(er, eb)) or cr % cb != 0:
            return None
        eq = tuple(x - y for x, y in zip(er, eb))
        cq = cr // cb
        q[eq] = cq
        r = _padd(r, _pneg(_pmul({eq: cq}, b)))
    return q


@functools.lru_cache(maxsize=4096)
def _tmono_str(exps):
    """The printed t-monomial of an exponent tuple, "" for the constant."""
    return "*".join("t%d" % j if e == 1 else "t%d^%d" % (j, e)
                    for j, e in enumerate(exps, 1) if e)


def _pstr(a, order, sign=1):
    """Render the integer polynomial sign * a, its exponent tuples taken in
    `order` (lex-descending)."""
    parts = []
    for exps in order:
        c = sign * a[exps]
        factors = _tmono_str(exps)
        if not factors:
            parts.append(str(c))
        elif c == 1:
            parts.append(factors)
        elif c == -1:
            parts.append("-" + factors)
        else:
            parts.append(str(c) + "*" + factors)
    return " + ".join(parts).replace("+ -", "- ")


class Coefficient:
    """An element of the base field K: num/den integer polynomials (ints in
    the constants-mode subclass _Q)."""

    __slots__ = ("num", "den", "nv")

    def __init__(self, num, den, nv):
        if not den:
            raise ZeroDivisionError("zero denominator")
        num, den = self._reduce(num, den)
        self.num = num
        self.den = den
        self.nv = nv

    @staticmethod
    def _reduce(num, den):
        nv = len(next(iter(den)))
        if not num:
            return {}, _unit(nv)
        g = math.gcd(_pcontent(num), _pcontent(den))
        if g > 1:
            num = {e: c // g for e, c in num.items()}
            den = {e: c // g for e, c in den.items()}
        if len(den) == 1 and _pis_const(den):
            # the content of num is now coprime to the constant c, so c
            # divides num exactly only when it is 1 or -1
            c = next(iter(den.values()))
            if c == 1 or c == -1:
                return (num if c == 1 else _pneg(num)), _unit(nv)
            return (num, den) if c > 0 else (_pneg(num), _pneg(den))
        mn = _pmonomial_content(num)
        md = _pmonomial_content(den)
        common = tuple(min(x, y) for x, y in zip(mn, md))
        num = _pshift_down(num, common)
        den = _pshift_down(den, common)
        q = _pexact_div(num, den)
        if q is not None:
            num = q
            den = _unit(nv)
        # sign convention: lex-leading coefficient of the denominator positive
        if _plead(den)[1] < 0:
            num = _pneg(num)
            den = _pneg(den)
        return num, den

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, nv):
        if not nv:
            return _Q(0, 1)
        return _raw({}, _unit(nv), nv)

    @classmethod
    def one(cls, nv):
        if not nv:
            return _Q(1, 1)
        return _raw(_unit(nv), _unit(nv), nv)

    @classmethod
    def from_int(cls, value, nv):
        if not nv:
            return _Q(value, 1)
        return _raw(_pconst(value, nv), _unit(nv), nv)

    @classmethod
    def from_rational(cls, p, q, nv):
        if not nv:
            return _q(p, q)
        return cls(_pconst(p, nv), _pconst(q, nv), nv)

    @classmethod
    def base_var(cls, k, nv):
        """The base variable t_k as a field element."""
        if not 1 <= k <= nv:
            raise ContextError("base variable t%d out of range 1..%d" % (k, nv))
        exps = tuple(1 if j == k - 1 else 0 for j in range(nv))
        return _raw({exps: 1}, _unit(nv), nv)

    # -- predicates ----------------------------------------------------------

    def is_zero(self):
        return not self.num

    def is_one(self):
        return self.num == self.den

    def is_constant(self):
        return _pis_const(self.num) and _pis_const(self.den)

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if not isinstance(other, Coefficient):
            return NotImplemented
        self._check(other)
        return _pmul(self.num, other.den) == _pmul(other.num, self.den)

    __hash__ = None

    def _check(self, other):
        if self.nv != other.nv:
            raise ContextError("coefficients over different base fields")

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        one = _unit(self.nv)
        if self.den == one == other.den:
            return _raw(_padd(self.num, other.num), one, self.nv)
        num = _padd(_pmul(self.num, other.den), _pmul(other.num, self.den))
        return Coefficient(num, _pmul(self.den, other.den), self.nv)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return _raw(_pneg(self.num), self.den, self.nv)

    def __mul__(self, other):
        self._check(other)
        one = _unit(self.nv)
        if self.den == one == other.den:
            return _raw(_pmul(self.num, other.num), one, self.nv)
        return Coefficient(_pmul(self.num, other.num),
                           _pmul(self.den, other.den), self.nv)

    def __truediv__(self, other):
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero coefficient")
        return Coefficient(_pmul(self.num, other.den),
                           _pmul(self.den, other.num), self.nv)

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        out = Coefficient.one(self.nv)
        for _ in range(e):
            out = out * self
        return out

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return Coefficient(self.den, self.num, self.nv)

    def scale_int(self, c):
        num = {exps: v * c for exps, v in self.num.items()} if c else {}
        one = _unit(self.nv)
        if self.den == one:
            return _raw(num, one, self.nv)
        return Coefficient(num, self.den, self.nv)

    def derive(self, k):
        """d/dt_k by the quotient rule."""
        if not 1 <= k <= self.nv:
            raise ContextError("derivation index %d out of range 1..%d"
                               % (k, self.nv))
        dn = _pderiv(self.num, k)
        one = _unit(self.nv)
        if self.den == one:
            return _raw(dn, one, self.nv)
        dd = _pderiv(self.den, k)
        num = _padd(_pmul(dn, self.den), _pneg(_pmul(self.num, dd)))
        return Coefficient(num, _pmul(self.den, self.den), self.nv)

    # -- rendering -----------------------------------------------------------

    def render(self):
        """(negative, magnitude_text, is_one) for the printer.

        The numerator's terms are sorted lex-descending once; the first
        gives the sign, and the magnitude is printed in that order with the
        sign flipped.  The magnitude text is a factor in the polynomial
        grammar.
        """
        num, den = self.num, self.den
        if not num:
            return False, "0", False
        order = sorted(num, reverse=True)
        neg = num[order[0]] < 0
        text = _pstr(num, order, -1 if neg else 1)
        if len(order) > 1:
            text = "(" + text + ")"
        if den == _unit(self.nv):
            return neg, text, text == "1"
        if _pis_const(den):
            return neg, "%s/%d" % (text, den[(0,) * self.nv]), False
        den_text = _pstr(den, sorted(den, reverse=True))
        return neg, "%s/(%s)" % (text, den_text), False

    def __str__(self):
        neg, text, _ = self.render()
        return "-" + text if neg else text

    def __repr__(self):
        return "Coefficient(%s)" % self


def _raw(num, den, nv):
    """The rational-mode coefficient num/den, built without __init__, for
    a fraction that needs no check and no reduction."""
    c = object.__new__(Coefficient)
    c.num = num
    c.den = den
    c.nv = nv
    return c


def integral_num(c):
    """The integer polynomial {exponent tuple: int} that c equals when its
    denominator is 1, or None: num itself in rational mode, {(): num} in
    constants mode.  Never mutate it."""
    if c.nv:
        return c.num if c.den == _unit(c.nv) else None
    return {(): c.num} if c.den == 1 else None


def from_integral(num, nv):
    """The coefficient equal to the nonzero integer polynomial num, in the
    form integral_num reads: num/1 in rational mode, _Q(num[()], 1) in
    constants mode.  num is kept, not copied."""
    if nv:
        return _raw(num, _unit(nv), nv)
    return _Q(num[()], 1)


def _q(num, den):
    """The constants-mode coefficient num/den, reduced."""
    if not den:
        raise ZeroDivisionError("zero denominator")
    if den < 0:
        num, den = -num, -den
    g = math.gcd(num, den)
    if g != 1:
        num //= g
        den //= g
    return _Q(num, den)


class _Q(Coefficient):
    """A constants-mode coefficient: num/den ints, den > 0, gcd 1.

    It overrides the Coefficient operations that need num/den to be
    polynomial dicts; the others (is_zero, -, **, bool, the nv check) are
    Coefficient's.
    """

    __slots__ = ()
    nv = 0

    def __init__(self, num, den):
        # callers pass an already reduced pair; _q reduces any other
        self.num = num
        self.den = den

    def is_one(self):
        return self.num == 1 and self.den == 1

    def is_constant(self):
        return True

    def __eq__(self, other):
        if not isinstance(other, Coefficient):
            return NotImplemented
        self._check(other)
        return self.num == other.num and self.den == other.den

    def __add__(self, other):
        self._check(other)
        a, b, c, d = self.num, self.den, other.num, other.den
        if b == d == 1:
            return _Q(a + c, 1)
        return _q(a * d + b * c, b * d)

    def __neg__(self):
        return _Q(-self.num, self.den)

    def __mul__(self, other):
        self._check(other)
        a, b, c, d = self.num, self.den, other.num, other.den
        if b == d == 1:
            return _Q(a * c, 1)
        return _q(a * c, b * d)

    def __truediv__(self, other):
        self._check(other)
        if not other.num:
            raise ZeroDivisionError("division by zero coefficient")
        return self * other.inverse()

    def inverse(self):
        if not self.num:
            raise ZeroDivisionError("inverse of zero")
        if self.num < 0:
            return _Q(-self.den, -self.num)
        return _Q(self.den, self.num)

    def scale_int(self, c):
        return _q(self.num * c, self.den)

    def derive(self, k):
        """Zero: a constant has no base variables to differentiate in."""
        return _Q(0, 1)

    def render(self):
        num, den = abs(self.num), self.den
        text = str(num) if den == 1 else "%d/%d" % (num, den)
        return self.num < 0, text, num == 1 and den == 1
