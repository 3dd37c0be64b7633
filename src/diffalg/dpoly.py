"""Differential polynomials in the indeterminates x_i^xi.

A variable is the pair (i, xi) with 1 <= i <= n and xi a multi-index of
length m.  A monomial is a tuple of ((i, xi), exponent) pairs with positive
exponents, sorted by ascending var_rank; the constant monomial is ().  A
polynomial is a sparse map from monomials to Coefficients.  The mono_*
helpers below are the library's only monomial arithmetic, and grevlex_key
is the default order, the one used for printing.

Text grammar (also used for printing):

    poly   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | primary ('^' INT)?
    primary:= INT | xvar | tvar | '(' poly ')'
    xvar   := 'x' INT '_[' INT (',' INT)* ']'      e.g. x1_[2,0]
    tvar   := 't' INT                              (rational mode only)

Division is exact field division and the divisor must be coefficient-only
(no x variables), which keeps printed rational-function coefficients
round-trippable.
"""
from __future__ import annotations

import functools
import sys
from dataclasses import dataclass

from .coeff import Coefficient, FieldMode
from .errors import ContextError, ParseError
from .indices import deg, shift, index_sort_key


@dataclass(frozen=True)
class Context:
    """Ambient data shared by the polynomials of one computation."""

    n: int
    m: int
    mode: FieldMode

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ContextError("n and m must be >= 1")
        if self.mode.m != self.m:
            raise ContextError("field mode has m=%d, context has m=%d"
                               % (self.mode.m, self.m))

    @property
    def nv(self):
        return self.mode.base_vars

    def check_var(self, v):
        i, xi = v
        if not 1 <= i <= self.n:
            raise ContextError("coordinate index %d out of range 1..%d"
                               % (i, self.n))
        if len(xi) != self.m:
            raise ContextError("multi-index %r must have length %d"
                               % (xi, self.m))

    def with_n(self, n):
        return Context(n=n, m=self.m, mode=self.mode)


@functools.lru_cache(maxsize=None)
def var_rank(v):
    """Canonical significance rank of a variable; larger = more significant."""
    i, xi = v
    return (index_sort_key(xi), i)


def var_str(v):
    i, xi = v
    return "x%d_[%s]" % (i, ",".join(str(e) for e in xi))


def _mono_key(exps):
    return tuple(sorted(exps.items(), key=lambda kv: var_rank(kv[0])))


# --- monomial arithmetic and the grevlex key --------------------------------


def mono_mul(a, b):
    exps = dict(a)
    for v, e in b:
        exps[v] = exps.get(v, 0) + e
    return _mono_key(exps)


def mono_div(a, b):
    """a / b, or None when b does not divide a."""
    exps = dict(a)
    for v, e in b:
        have = exps.get(v, 0)
        if have < e:
            return None
        if have == e:
            del exps[v]
        else:
            exps[v] = have - e
    return _mono_key(exps)


def mono_lcm(a, b):
    exps = dict(a)
    for v, e in b:
        if exps.get(v, 0) < e:
            exps[v] = e
    return _mono_key(exps)


def mono_coprime(a, b):
    vb = {v for v, _ in b}
    return all(v not in vb for v, _ in a)


def mono_deg(a):
    return sum(e for _, e in a)


def grevlex_key(mono):
    """Graded reverse lex: higher degree wins, then the smaller exponent in
    the least significant variable where the monomials differ."""
    return (mono_deg(mono), tuple((var_rank(v), -e) for v, e in mono))


class DiffPolynomial:
    """Immutable sparse multivariate polynomial over Coefficient."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms):
        self.ctx = ctx
        self.terms = terms  # {mono tuple: nonzero Coefficient}

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, ctx):
        return cls(ctx, {})

    @classmethod
    def const(cls, ctx, c):
        if c.is_zero():
            return cls(ctx, {})
        return cls(ctx, {(): c})

    @classmethod
    def from_int(cls, ctx, value):
        return cls.const(ctx, Coefficient.from_int(value, ctx.nv))

    @classmethod
    def var(cls, ctx, i, xi):
        ctx.check_var((i, tuple(xi)))
        mono = (((i, tuple(xi)), 1),)
        return cls(ctx, {mono: Coefficient.one(ctx.nv)})

    @classmethod
    def base_var(cls, ctx, k):
        if ctx.mode.kind != "rational":
            raise ContextError("base variable t%d needs rational mode" % k)
        return cls.const(ctx, Coefficient.base_var(k, ctx.nv))

    # -- basic queries --------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_constant(self):
        return all(not mono for mono in self.terms)

    def constant_value(self):
        """The Coefficient value of a constant polynomial."""
        if not self.terms:
            return Coefficient.zero(self.ctx.nv)
        if not self.is_constant():
            raise ContextError("polynomial is not constant")
        return self.terms[()]

    def variables(self):
        out = set()
        for mono in self.terms:
            for v, _ in mono:
                out.add(v)
        return out

    def max_level(self):
        """Largest deg xi occurring, or -1 for constants."""
        levels = [deg(v[1]) for v in self.variables()]
        return max(levels) if levels else -1

    def __eq__(self, other):
        if not isinstance(other, DiffPolynomial):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None

    def _check(self, other):
        if self.ctx != other.ctx:
            raise ContextError("polynomials built over different contexts")

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = DiffPolynomial.from_int(self.ctx, other)
        self._check(other)
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            if mono in terms:
                s = terms[mono] + c
                if s.is_zero():
                    del terms[mono]
                else:
                    terms[mono] = s
            else:
                terms[mono] = c
        return DiffPolynomial(self.ctx, terms)

    __radd__ = __add__

    def __neg__(self):
        return DiffPolynomial(self.ctx,
                              {mono: -c for mono, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = DiffPolynomial.from_int(self.ctx, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            other = DiffPolynomial.from_int(self.ctx, other)
        if isinstance(other, Coefficient):
            return self.scale(other)
        self._check(other)
        terms = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                mono = mono_mul(ma, mb)
                c = ca * cb
                if mono in terms:
                    c = terms[mono] + c
                if c.is_zero():
                    terms.pop(mono, None)
                else:
                    terms[mono] = c
        return DiffPolynomial(self.ctx, terms)

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            raise ContextError("negative exponent")
        result = DiffPolynomial.from_int(self.ctx, 1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def scale(self, c):
        if c.is_zero():
            return DiffPolynomial.zero(self.ctx)
        return DiffPolynomial(self.ctx,
                              {mono: v * c for mono, v in self.terms.items()})

    # -- calculus ---------------------------------------------------------------

    def partial_derivative(self, v):
        """Formal d/dv for a variable v = (i, xi)."""
        self.ctx.check_var(v)
        terms = {}
        for mono, c in self.terms.items():
            e = dict(mono).get(v, 0)
            if e == 0:
                continue
            nmono = mono_div(mono, ((v, 1),))
            nc = c.scale_int(e)
            if nmono in terms:
                nc = terms[nmono] + nc
            if nc.is_zero():
                terms.pop(nmono, None)
            else:
                terms[nmono] = nc
        return DiffPolynomial(self.ctx, terms)

    def coeff_derivative(self, k):
        """f^{delta_k}: apply delta_k to every coefficient, variables fixed."""
        if not 1 <= k <= self.ctx.m:
            raise ContextError("derivation index %d out of range 1..%d"
                               % (k, self.ctx.m))
        terms = {}
        for mono, c in self.terms.items():
            dc = c.derive(k)
            if not dc.is_zero():
                terms[mono] = dc
        return DiffPolynomial(self.ctx, terms)

    def substitute(self, mapping, target_ctx=None):
        """Simultaneous substitution; unmapped variables map to themselves."""
        ctx = target_ctx or self.ctx
        result = DiffPolynomial.zero(ctx)
        for mono, c in self.terms.items():
            prod = DiffPolynomial.const(ctx, c)
            for v, e in mono:
                img = mapping.get(v)
                if img is None:
                    img = DiffPolynomial.var(ctx, v[0], v[1])
                elif img.ctx != ctx:
                    raise ContextError("substitution image in wrong context")
                prod = prod * img ** e
            result = result + prod
        return result

    def evaluate(self, point):
        """Evaluate at a {var: Coefficient} point; must cover all variables."""
        missing = self.variables() - set(point)
        if missing:
            raise ContextError("point missing values for %s"
                               % sorted(var_str(v) for v in missing))
        mapping = {v: DiffPolynomial.const(self.ctx, c)
                   for v, c in point.items()}
        return self.substitute(mapping).constant_value()

    def with_context(self, ctx):
        """Reinterpret over a wider context (same m and mode)."""
        if ctx.m != self.ctx.m or ctx.mode != self.ctx.mode:
            raise ContextError("incompatible context")
        for v in self.variables():
            ctx.check_var(v)
        return DiffPolynomial(ctx, dict(self.terms))

    # -- printing ----------------------------------------------------------------

    def __str__(self):
        return print_poly(self)

    def __repr__(self):
        return "DiffPolynomial(%s)" % self


def derivation_image(f, k):
    """The formal D_k-image: sum_v df/dv * x^(xi+k) + f^{delta_k}.

    Used by prolongations (variables at level 0), kernel validation and
    kernel prolongation (shifted variables may leave the presented range;
    the context itself does not bound levels).
    """
    ctx = f.ctx
    out = f.coeff_derivative(k)
    for v in sorted(f.variables(), key=var_rank):
        pd = f.partial_derivative(v)
        if pd.is_zero():
            continue
        i, xi = v
        out = out + pd * DiffPolynomial.var(ctx, i, shift(xi, k))
    return out


# --- printing -----------------------------------------------------------------


def _mono_str(mono, vstr):
    return "*".join(vstr(v) if e == 1 else "%s^%d" % (vstr(v), e)
                    for v, e in mono)


def print_poly(f, vstr=var_str):
    """Canonical text form: terms in descending grevlex order."""
    if f.is_zero():
        return "0"
    monos = sorted(f.terms, key=grevlex_key, reverse=True)
    pieces = []
    for idx, mono in enumerate(monos):
        neg, text, is_one = f.terms[mono].render()
        if mono:
            body = (_mono_str(mono, vstr) if is_one
                    else text + "*" + _mono_str(mono, vstr))
        else:
            body = text
        if idx == 0:
            pieces.append("-" + body if neg else body)
        else:
            pieces.append((" - " if neg else " + ") + body)
    return "".join(pieces)


# --- parsing ------------------------------------------------------------------


class _Tokenizer:
    """Hand-rolled scanner with positions for error reporting."""

    def __init__(self, text, formula_mode=False):
        self.text = text
        self.pos = 0
        self.formula_mode = formula_mode
        self.tokens = []
        self._scan()
        self.index = 0

    def _error(self, message, pos=None):
        raise ParseError(message, self.pos if pos is None else pos)

    def _scan_int(self):
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            self._error("expected a number")
        limit = sys.get_int_max_str_digits()
        if limit and self.pos - start > limit:
            # int() would refuse it with a ValueError and no position
            self._error("integer of %d digits is over the %d-digit limit"
                        % (self.pos - start, limit), start)
        return int(self.text[start:self.pos])

    def _scan_index_list(self):
        """'[' INT (',' INT)* ']' with the opening bracket already required."""
        if self.pos >= len(self.text) or self.text[self.pos] != "[":
            self._error("expected '['")
        self.pos += 1
        entries = [self._scan_int()]
        while self.pos < len(self.text) and self.text[self.pos] == ",":
            self.pos += 1
            entries.append(self._scan_int())
        if self.pos >= len(self.text) or self.text[self.pos] != "]":
            self._error("unclosed '[': expected ']'")
        self.pos += 1
        return tuple(entries)

    def _scan(self):
        text = self.text
        while self.pos < len(text):
            ch = text[self.pos]
            start = self.pos
            if ch.isspace():
                self.pos += 1
                continue
            if ch.isdigit():
                self.tokens.append(("INT", self._scan_int(), start))
            elif ch == "x":
                self.pos += 1
                i = self._scan_int()
                if self.pos < len(text) and text[self.pos] == "_":
                    self.pos += 1
                    xi = self._scan_index_list()
                    self.tokens.append(("XVAR", (i, xi), start))
                elif self.formula_mode:
                    self.tokens.append(("DVAR0", i, start))
                else:
                    self._error("expected '_[' after x%d" % i)
            elif ch == "t":
                self.pos += 1
                self.tokens.append(("TVAR", self._scan_int(), start))
            elif ch == "d" and self.formula_mode:
                self.pos += 1
                xi = self._scan_index_list()
                if self.pos >= len(text) or text[self.pos] != "x":
                    self._error("expected 'x' after d[...]")
                self.pos += 1
                i = self._scan_int()
                self.tokens.append(("XVAR", (i, xi), start))
            elif ch in "+-*/^(),":
                self.pos += 1
                self.tokens.append((ch, ch, start))
            elif ch == "=" :
                self.pos += 1
                self.tokens.append(("=", "=", start))
            elif ch == "!" and self.formula_mode:
                self.pos += 1
                if self.pos < len(text) and text[self.pos] == "=":
                    self.pos += 1
                    self.tokens.append(("!=", "!=", start))
                else:
                    self.tokens.append(("!", "!", start))
            elif ch in "&|" and self.formula_mode:
                self.pos += 1
                self.tokens.append((ch, ch, start))
            else:
                self._error("unexpected character %r" % ch)
        self.tokens.append(("EOF", None, len(text)))

    # token-stream interface

    def peek(self):
        return self.tokens[self.index]

    def next(self):
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError("expected %r, found %r" % (kind, tok[0]), tok[2])
        return tok


class _ExprParser:
    """Recursive-descent parser producing DiffPolynomials over a context."""

    def __init__(self, tz, ctx):
        self.tz = tz
        self.ctx = ctx

    def parse_expr(self):
        value = self.parse_term()
        while self.tz.peek()[0] in ("+", "-"):
            op = self.tz.next()[0]
            rhs = self.parse_term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def parse_term(self):
        value = self.parse_factor()
        while self.tz.peek()[0] in ("*", "/"):
            kind, _, pos = self.tz.next()
            rhs = self.parse_factor()
            if kind == "*":
                value = value * rhs
            else:
                if not rhs.is_constant():
                    raise ParseError(
                        "division only by coefficient expressions", pos)
                c = rhs.constant_value()
                if c.is_zero():
                    raise ParseError("division by zero", pos)
                value = value.scale(c.inverse())
        return value

    def parse_factor(self):
        kind, _, _ = self.tz.peek()
        if kind == "-":
            self.tz.next()
            return -self.parse_factor()
        value = self.parse_primary()
        if self.tz.peek()[0] == "^":
            _, _, pos = self.tz.next()
            tok = self.tz.expect("INT")
            value = value ** tok[1]
        return value

    def parse_primary(self):
        kind, payload, pos = self.tz.next()
        if kind == "INT":
            return DiffPolynomial.from_int(self.ctx, payload)
        if kind == "XVAR":
            i, xi = payload
            if len(xi) != self.ctx.m:
                raise ParseError("multi-index %r must have %d entries"
                                 % (list(xi), self.ctx.m), pos)
            if not 1 <= i <= self.ctx.n:
                raise ParseError("coordinate index %d out of range 1..%d"
                                 % (i, self.ctx.n), pos)
            return DiffPolynomial.var(self.ctx, i, xi)
        if kind == "DVAR0":
            if not 1 <= payload <= self.ctx.n:
                raise ParseError("coordinate index %d out of range 1..%d"
                                 % (payload, self.ctx.n), pos)
            return DiffPolynomial.var(self.ctx, payload, (0,) * self.ctx.m)
        if kind == "TVAR":
            if self.ctx.mode.kind != "rational":
                raise ParseError("base variable t%d needs rational mode"
                                 % payload, pos)
            if not 1 <= payload <= self.ctx.nv:
                raise ParseError("base variable t%d out of range 1..%d"
                                 % (payload, self.ctx.nv), pos)
            return DiffPolynomial.base_var(self.ctx, payload)
        if kind == "(":
            value = self.parse_expr()
            self.tz.expect(")")
            return value
        raise ParseError("unexpected token %r" % kind, pos)


def parse_poly(text, ctx):
    """Parse one polynomial in the grammar above."""
    tz = _Tokenizer(text)
    try:
        value = _ExprParser(tz, ctx).parse_expr()
    except RecursionError:
        raise ParseError("expression nested too deeply") from None
    tz.expect("EOF")
    return value
