"""Exact coefficients: K = Q (constants mode) or K = Q(t_1..t_m).

In rational mode (m base variables t_1..t_m) a Coefficient is a fraction
of integer-coefficient polynomials in the t_k.  Fractions are reduced
best-effort only: integer content, common monomial content, and exact
polynomial division when it happens to succeed.  Correctness never depends
on reduction; equality is decided by cross-multiplication and the zero test
is "numerator identically zero".  The printed form depends on the order of
the operations that built a fraction, so callers that must print the same
text keep that order.

In constants mode (no base variables) a Coefficient is a rational number
held as a reduced integer pair: den > 0 and gcd(num, den) == 1, so the form
is canonical.  It is the private subclass _Q, which the constructors below
return whenever nv == 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

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


def _pis_const(p):
    return all(all(e == 0 for e in exps) for exps in p)


def _padd(a, b):
    out = dict(a)
    for exps, c in b.items():
        s = out.get(exps, 0) + c
        if s:
            out[exps] = s
        elif exps in out:
            del out[exps]
    return out


def _pneg(a):
    return {exps: -c for exps, c in a.items()}


def _pmul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            exps = tuple(x + y for x, y in zip(ea, eb))
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
    out = {}
    j = k - 1
    for exps, c in a.items():
        e = exps[j]
        if e == 0:
            continue
        nexps = exps[:j] + (e - 1,) + exps[j + 1:]
        s = out.get(nexps, 0) + c * e
        if s:
            out[nexps] = s
        elif nexps in out:
            del out[nexps]
    return out


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


def _pstr(a, names):
    """Render an integer polynomial, terms lex-descending."""
    if not a:
        return "0"
    parts = []
    for exps in sorted(a, reverse=True):
        c = a[exps]
        factors = []
        for name, e in zip(names, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append("%s^%d" % (name, e))
        if not factors:
            parts.append(str(c))
        elif c == 1:
            parts.append("*".join(factors))
        elif c == -1:
            parts.append("-" + "*".join(factors))
        else:
            parts.append(str(c) + "*" + "*".join(factors))
    return " + ".join(parts).replace("+ -", "- ")


class Coefficient:
    """An element of the base field K: num/den integer polynomials (ints in
    the constants-mode subclass _Q)."""

    __slots__ = ("num", "den", "nv")

    def __init__(self, num, den, nv, reduce=True):
        if not den:
            raise ZeroDivisionError("zero denominator")
        if reduce:
            num, den = self._reduce(num, den)
        self.num = num
        self.den = den
        self.nv = nv

    @staticmethod
    def _reduce(num, den):
        if not num:
            nv = len(next(iter(den)))
            return {}, _pconst(1, nv)
        g = math.gcd(_pcontent(num), _pcontent(den))
        if g > 1:
            num = {e: c // g for e, c in num.items()}
            den = {e: c // g for e, c in den.items()}
        mn = _pmonomial_content(num)
        md = _pmonomial_content(den)
        common = tuple(min(x, y) for x, y in zip(mn, md))
        num = _pshift_down(num, common)
        den = _pshift_down(den, common)
        q = _pexact_div(num, den)
        if q is not None:
            num = q
            den = _pconst(1, len(next(iter(den))))
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
        return cls({}, _pconst(1, nv), nv, reduce=False)

    @classmethod
    def one(cls, nv):
        if not nv:
            return _Q(1, 1)
        return cls(_pconst(1, nv), _pconst(1, nv), nv, reduce=False)

    @classmethod
    def from_int(cls, value, nv):
        if not nv:
            return _Q(value, 1)
        return cls(_pconst(value, nv), _pconst(1, nv), nv, reduce=False)

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
        return cls({exps: 1}, _pconst(1, nv), nv, reduce=False)

    # -- predicates ----------------------------------------------------------

    def is_zero(self):
        return not self.num

    def is_one(self):
        return self.num == self.den

    def is_constant(self):
        return _pis_const(self.num) and _pis_const(self.den)

    def __bool__(self):
        return not self.is_zero()

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
        num = _padd(_pmul(self.num, other.den), _pmul(other.num, self.den))
        return Coefficient(num, _pmul(self.den, other.den), self.nv)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Coefficient(_pneg(self.num), self.den, self.nv, reduce=False)

    def __mul__(self, other):
        self._check(other)
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
        return Coefficient(num, self.den, self.nv)

    def derive(self, k):
        """d/dt_k by the quotient rule."""
        if not 1 <= k <= self.nv:
            raise ContextError("derivation index %d out of range 1..%d"
                               % (k, self.nv))
        dn = _pderiv(self.num, k)
        dd = _pderiv(self.den, k)
        num = _padd(_pmul(dn, self.den), _pneg(_pmul(self.num, dd)))
        return Coefficient(num, _pmul(self.den, self.den), self.nv)

    # -- rendering -----------------------------------------------------------

    def render(self):
        """(negative, magnitude_text, is_one) for the printer.

        The magnitude text is a valid factor in the polynomial grammar.
        """
        names = ["t%d" % (j + 1) for j in range(self.nv)]
        neg = _plead(self.num)[1] < 0 if not self.is_zero() else False
        num = _pneg(self.num) if neg else self.num
        den_is_one = self.den == _pconst(1, self.nv)
        num_text = (_pstr(num, names) if len(num) <= 1
                    else "(" + _pstr(num, names) + ")")
        if den_is_one:
            text = num_text
        elif _pis_const(self.den):
            text = "%s/%d" % (num_text, self.den[(0,) * self.nv])
        else:
            text = "%s/(%s)" % (num_text, _pstr(self.den, names))
        is_one = den_is_one and num == _pconst(1, self.nv)
        return neg, text, is_one

    def __str__(self):
        neg, text, _ = self.render()
        return "-" + text if neg else text

    def __repr__(self):
        return "Coefficient(%s)" % self


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
