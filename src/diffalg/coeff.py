"""Exact coefficients: K = Q (constants mode) or K = Q(t_1..t_m).

In rational mode (m base variables t_1..t_m) a Coefficient is a fraction
of integer-coefficient polynomials in the t_k.  Fractions are reduced
best-effort only: integer content, common monomial content, and exact
polynomial division when it happens to succeed.  Correctness never depends
on reduction; equality is decided by cross-multiplication and the zero test
is "numerator identically zero".  The printed form depends on the order of
the operations that built a fraction, so callers that must print the same
text keep that order.

An integer polynomial is a dict {t-key: nonzero int}.  The t-key of a
t-monomial is one int: each exponent e_j has a slot of T_BITS bits, t1's
slot the most significant, so int order is the lex order of the exponents
(render sorts by it) and the constant monomial's key is 0.  t1's slot is
unbounded; each lower slot holds 0..limit, limit = 2**(T_BITS - 1) - 1,
and its top bit is a guard bit, as in dpoly.Packing.  The key of a product
of monomials is the sum of their keys, and it sets a guard bit exactly
when a slot overflows; a key difference sets one, or goes negative,
exactly when a slot goes below zero, which is _pexact_div's divisibility
test.  With m = 1 the key is the exponent itself, with no guard and no
limit.  A product whose t_2..t_m degree would leave its slot raises
ResourceBudgetError (_fit).

An integer polynomial has denominator exactly 1, and reduction leaves such
a fraction as it is.  So + and * of two denominator-1 operands, and
scale_int and derive of one, skip the reduction and __init__ as well: after
the nv check they build their result with `_raw`, which only sets the three
slots, as do negation, zero, one, from_int and base_var.  Inside the
reduction a constant denominator skips the exact-division attempt.  The num
and den dicts are shared between Coefficients (the denominator-1 values
all hold the one dict _ONE) and are never mutated.

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
integer polynomial it equals when its denominator is 1, else None;
from_integral builds it back.  A denominator-1 value has one form, so
DiffPolynomial.__mul__ may add these dicts in any order.
"""
from __future__ import annotations

import functools
import math

from .errors import ContextError, FrozenRecord, ResourceBudgetError


class FieldMode(FrozenRecord):
    """Which base field we are over and how the derivations act on it: a
    FrozenRecord of its kind and m."""

    __slots__ = _fields = ("kind", "m")

    def __init__(self, kind, m):
        if kind not in ("constants", "rational"):
            raise ContextError("unknown field mode %r" % (kind,))
        if m < 1:
            raise ContextError("m must be >= 1")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "m", m)

    @property
    def base_vars(self):
        return self.m if self.kind == "rational" else 0


# --- integer polynomials as {t-key: int} dicts -----------------------------

# The width of a t-key's slot, in bits: t2..tm degrees up to 2**31 - 1.
T_BITS = 32


@functools.lru_cache(maxsize=None)
def _slots(nv, bits):
    """((shift, mask) per slot, t1's first, and the guard bits) of the
    t-keys of nv base variables in slots of `bits` bits.  `key >> shift &
    mask` is that slot's exponent; t1's mask is -1, which keeps every bit."""
    shifts = [bits * j for j in reversed(range(nv))]
    guard = 1 << bits - 1
    return (tuple(zip(shifts, [-1] + [2 * guard - 1] * (nv - 1))),
            sum(guard << s for s in shifts[1:]))


def t_key(k, e, nv):
    """The t-key of t_k**e over nv base variables, or None when e is past
    t_k's slot limit (t1's slot has none)."""
    if k > 1 and e >> T_BITS - 1:
        return None
    return e << T_BITS * (nv - k)


def t_guards(nv):
    """The guard bits of the t-keys of nv base variables (0 when nv <= 1):
    a sum of keys with one set has a t_2..t_m degree past its slot."""
    return _slots(nv, T_BITS)[1]


def _fit(p, nv):
    """p itself, or ResourceBudgetError when a key of p has a guard bit set:
    a t_2..t_m degree of p is past the slot limit."""
    guards = nv > 1 and t_guards(nv)
    if guards and any(k & guards for k in p):
        raise ResourceBudgetError("a degree in a base variable after t1 is "
                                  "over the t-key slot limit %d"
                                  % ((1 << T_BITS - 1) - 1))
    return p


def _pconst(c):
    return {0: c} if c else {}


# The constant polynomial 1, one shared dict: never mutate it.
_ONE = {0: 1}


def _pis_const(p):
    return not any(p)


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
    return {k: -c for k, c in a.items()}


def _pmul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            s = out.get(e, 0) + ca * cb
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def _pcontent(a):
    g = 0
    for c in a.values():
        g = math.gcd(g, c)
    return g or 1


def _pmonomial_content(keys, nv):
    """The t-key of the largest monomial dividing each of keys: the least
    exponent of each slot."""
    out = 0
    for shift, mask in _slots(nv, T_BITS)[0]:
        out |= min(k >> shift & mask for k in keys) << shift
    return out


def _pshift_down(a, key):
    """a divided by the monomial of `key`, which divides every term."""
    return {k - key: c for k, c in a.items()} if key else a


def _pderiv(a, k, nv):
    """Formal partial derivative with respect to base variable k (1-based)."""
    shift, mask = _slots(nv, T_BITS)[0][k - 1]
    return {key - (1 << shift): c * e
            for key, c in a.items() if (e := key >> shift & mask)}


def _plead(a):
    """Lex-leading (t-key, coeff) pair; a must be nonzero."""
    key = max(a)
    return key, a[key]


def _pexact_div(a, b, nv):
    """Exact polynomial quotient a / b, or None when it does not divide:
    when a quotient key goes negative or sets a guard bit, a slot of b's
    lead is over r's."""
    if not b:
        return None
    if not a:
        return {}
    guards = _slots(nv, T_BITS)[1]
    q = {}
    r = dict(a)
    eb, cb = _plead(b)
    while r:
        er, cr = _plead(r)
        eq = er - eb
        if eq < 0 or eq & guards or cr % cb != 0:
            return None
        cq = cr // cb
        q[eq] = cq
        add_into(r, ((eq + k, -(cq * c)) for k, c in b.items()))
    return q


@functools.lru_cache(maxsize=4096)
def _tmono_str(key, nv, bits):
    """The printed t-monomial of a t-key in slots of `bits` bits (a cache
    key, as the slot width is), "" for the constant."""
    return "*".join("t%d" % j if e == 1 else "t%d^%d" % (j, e)
                    for j, (shift, mask) in enumerate(_slots(nv, bits)[0], 1)
                    if (e := key >> shift & mask))


def _pstr(a, order, nv, sign=1):
    """Render the integer polynomial sign * a, its t-keys taken in `order`
    (lex-descending)."""
    parts = []
    for key in order:
        c = sign * a[key]
        factors = _tmono_str(key, nv, T_BITS)
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
        num, den = self._reduce(num, den, nv)
        self.num = num
        self.den = den
        self.nv = nv

    @staticmethod
    def _reduce(num, den, nv):
        if not num:
            return {}, _ONE
        _fit(num, nv)
        _fit(den, nv)
        g = math.gcd(_pcontent(num), _pcontent(den))
        if g > 1:
            num = {e: c // g for e, c in num.items()}
            den = {e: c // g for e, c in den.items()}
        if len(den) == 1 and _pis_const(den):
            # the content of num is now coprime to the constant c, so c
            # divides num exactly only when it is 1 or -1
            c = den[0]
            if c == 1 or c == -1:
                return (num if c == 1 else _pneg(num)), _ONE
            return (num, den) if c > 0 else (_pneg(num), _pneg(den))
        common = _pmonomial_content([*num, *den], nv)
        num = _pshift_down(num, common)
        den = _pshift_down(den, common)
        q = _pexact_div(num, den, nv)
        if q is not None:
            num = q
            den = _ONE
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
        return _raw({}, _ONE, nv)

    @classmethod
    def one(cls, nv):
        if not nv:
            return _Q(1, 1)
        return _raw(_ONE, _ONE, nv)

    @classmethod
    def from_int(cls, value, nv):
        if not nv:
            return _Q(value, 1)
        return _raw(_pconst(value), _ONE, nv)

    @classmethod
    def from_rational(cls, p, q, nv):
        if not nv:
            return _q(p, q)
        return cls(_pconst(p), _pconst(q), nv)

    @classmethod
    def base_var(cls, k, nv):
        """The base variable t_k as a field element."""
        if not 1 <= k <= nv:
            raise ContextError("base variable t%d out of range 1..%d" % (k, nv))
        return _raw({t_key(k, 1, nv): 1}, _ONE, nv)

    # -- predicates ----------------------------------------------------------

    def is_zero(self):
        return not self.num

    def is_one(self):
        return self.num == self.den

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
        if self.den == _ONE == other.den:
            return _raw(_padd(self.num, other.num), _ONE, self.nv)
        num = _padd(_pmul(self.num, other.den), _pmul(other.num, self.den))
        return Coefficient(num, _pmul(self.den, other.den), self.nv)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return _raw(_pneg(self.num), self.den, self.nv)

    def __mul__(self, other):
        self._check(other)
        if self.den == _ONE == other.den:
            return _raw(_fit(_pmul(self.num, other.num), self.nv), _ONE,
                        self.nv)
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
        num = {k: v * c for k, v in self.num.items()} if c else {}
        if self.den == _ONE:
            return _raw(num, _ONE, self.nv)
        return Coefficient(num, self.den, self.nv)

    def derive(self, k):
        """d/dt_k by the quotient rule."""
        if not 1 <= k <= self.nv:
            raise ContextError("derivation index %d out of range 1..%d"
                               % (k, self.nv))
        dn = _pderiv(self.num, k, self.nv)
        if self.den == _ONE:
            return _raw(dn, _ONE, self.nv)
        dd = _pderiv(self.den, k, self.nv)
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
        text = _pstr(num, order, self.nv, -1 if neg else 1)
        if len(order) > 1:
            text = "(" + text + ")"
        if den == _ONE:
            return neg, text, text == "1"
        if _pis_const(den):
            return neg, "%s/%d" % (text, den[0]), False
        den_text = _pstr(den, sorted(den, reverse=True), self.nv)
        return neg, "%s/(%s)" % (text, den_text), False

    def __str__(self):
        neg, text, _ = self.render()
        return "-" + text if neg else text


def _raw(num, den, nv):
    """The rational-mode coefficient num/den, built without __init__, for
    a fraction that needs no check and no reduction."""
    c = object.__new__(Coefficient)
    c.num = num
    c.den = den
    c.nv = nv
    return c


def integral_num(c):
    """The integer polynomial {t-key: int} that c equals when its
    denominator is 1, or None: num itself in rational mode, {0: num} in
    constants mode.  Never mutate it."""
    if c.nv:
        return c.num if c.den == _ONE else None
    return {0: c.num} if c.den == 1 else None


def from_integral(num, nv):
    """The coefficient equal to the nonzero integer polynomial num, in the
    form integral_num reads: num/1 in rational mode, _Q(num[0], 1) in
    constants mode.  num is kept, not copied; a key of num past the slot
    limit raises ResourceBudgetError."""
    if nv:
        return _raw(_fit(num, nv), _ONE, nv)
    return _Q(num[0], 1)


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
