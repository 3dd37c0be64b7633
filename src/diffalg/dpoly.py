"""Differential polynomials in the indeterminates x_i^xi.

A variable is the pair (i, xi) with 1 <= i <= n and xi a multi-index of
length m.  A monomial is a tuple of ((i, xi), exponent) pairs with positive
exponents, sorted by ascending var_rank; the constant monomial is ().  A
polynomial is a sparse map from monomials to Coefficients.  mono_mul and
mono_lcm merge two rank-sorted tuples, with no dict and no re-sort.  The
one other form is the packed key of a `Packing`: one integer per monomial,
with a bit slot per variable, and the library's one encoding of a monomial
order.  When both factors have more than one term and no coefficient of
either has a denominator, DiffPolynomial.__mul__ adds such keys instead
of merging tuples and multiplies the coefficients on ints
(`_integral_product`), with the same bytes (see __mul__); every other
product runs one `add_into` loop on tuples.  groebner compares, multiplies
and tests divisibility on packed keys.  Each turns keys back into tuples
once per term of its result.  print_poly sorts terms by their keys in the
grevlex Packing, the comparator that division uses.

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

parse_poly builds a term in two steps.  Its leading run of INT, xvar and
tvar factors joined by '*' (each but an INT with an optional '^' INT, after
at most one unary '-') becomes one term at once: the sign times the INTs,
the x exponents summed per variable and sorted by var_rank, the t-keys
summed.  Its coefficient has denominator 1, and a denominator-1 coefficient
has one form per value, so this is the very value that multiplying the
run's factors one at a time would give.  The rest of the term is
multiplied or divided in factor by factor.  A '^' INT on any other factor
is refused with ResourceBudgetError before it is taken when the exponent
times (the largest bit length among its coefficient's ints, less one) is
over DIFFALG_BIT_BUDGET.
"""
from __future__ import annotations

import functools
import operator
import sys

from .bounds import _check_bits, bit_budget
from .coeff import (Coefficient, add_into, from_integral, integral_num,
                    t_guards, t_key)
from .errors import (ContextError, ParseError, ResourceBudgetError, env_budget,
                     immutable)
from .indices import deg, shift, index_sort_key


class Context:
    """Ambient data shared by the polynomials of one computation.
    Immutable, and equal and hashed by value."""

    __slots__ = ("n", "m", "mode")

    def __init__(self, n, m, mode):
        if n < 1 or m < 1:
            raise ContextError("n and m must be >= 1")
        if mode.m != m:
            raise ContextError("field mode has m=%d, context has m=%d"
                               % (mode.m, m))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "mode", mode)

    __setattr__ = __delattr__ = immutable

    def __eq__(self, other):
        if other.__class__ is not Context:
            return NotImplemented
        return self is other or (self.n == other.n and self.m == other.m
                                 and self.mode == other.mode)

    def __hash__(self):
        return hash((self.n, self.m, self.mode))

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


@functools.lru_cache(maxsize=None)
def var_str(v):
    i, xi = v
    return "x%d_[%s]" % (i, ",".join(str(e) for e in xi))


# --- monomial arithmetic and packed keys ------------------------------------


def _mono_merge(a, b, combine):
    """Merge two rank-sorted monomials; combine(ea, eb) sets the exponent of
    a variable that occurs in both."""
    if not a or not b:
        return a or b
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        va, ea = a[i]
        vb, eb = b[j]
        if va == vb:
            out.append((va, combine(ea, eb)))
            i += 1
            j += 1
        elif var_rank(va) < var_rank(vb):
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    return tuple(out) + a[i:] + b[j:]


def mono_mul(a, b):
    return _mono_merge(a, b, operator.add)


def mono_lcm(a, b):
    return _mono_merge(a, b, max)


def support(term_dicts):
    """The variables of the monomials in term_dicts (each iterable over
    monomials), and the largest total degree among those monomials."""
    variables = set()
    top = 0
    for terms in term_dicts:
        for mono in terms:
            d = 0
            for v, e in mono:
                variables.add(v)
                d += e
            if d > top:
                top = d
    return variables, top


class Packing:
    """Packed exponent keys: one integer per monomial over fixed variables.

    The variables come in blocks, the most significant first, and every
    block takes slots of `width` bits above the blocks after it.  A plain
    block gives each variable a slot, in ascending var_rank from the
    lowest, that holds its exponent e.  A graded block holds its total
    degree in its top slot and `limit - e` in each variable's slot, the
    least significant variable highest.  A key is `one + sum(e *
    weights[v])` (`one` being the key of the constant monomial), and the
    key of a product is the sum of its factors' keys minus `one`.  While
    every slot stays within 0..limit no slot borrows from or carries into
    the next, and keys compare as lex (one plain block), grevlex (one
    graded block) or a block order (one graded block per block) compare
    the monomials.

    The top bit of each slot is a guard bit (`guards` has them all) and
    `limit` fills the bits below it.  A monomial of total degree at most
    `limit` has a key, with no guard bit set, and so has a product whose
    slots all stay within 0..limit.  For two keys ka and kb with no guard
    bit set, the lowest slot of `ka - kb + one` outside 0..limit has its
    guard bit set, so that value has no guard bit set exactly when kb's
    monomial divides ka's, and it is then the key of the quotient.
    Likewise `ka + kb - one` has a guard bit set exactly when a slot of the
    product leaves 0..limit.  `decode(k)` turns a key back into its
    rank-sorted monomial.  `order_packing` builds and caches them.
    """

    __slots__ = ("weights", "one", "guards", "limit", "decode")

    def __init__(self, blocks, width):
        limit = (1 << (width - 1)) - 1
        guard = limit + 1
        self.weights = {}
        slots = []
        one = guards = shift = 0
        for variables, graded in reversed(blocks):
            if not variables:
                continue
            ranked = sorted(variables, key=var_rank, reverse=graded)
            base = limit if graded else 0
            for v in ranked:
                self.weights[v] = 1 << shift
                slots.append((var_rank(v), v, shift, base))
                one += base << shift
                guards |= guard << shift
                shift += width
            if graded:
                degree = 1 << shift
                for v in ranked:
                    self.weights[v] = degree - self.weights[v]
                guards |= guard << shift
                shift += width
        slots.sort()
        self.one, self.guards, self.limit = one, guards, limit
        slots = [(v, shift, base) for _, v, shift, base in slots]
        # with no graded block and the slots ascending with rank, a key
        # with nothing left from a slot up has no more exponents to decode
        stops = not one and all(a[1] < b[1] for a, b in zip(slots, slots[1:]))

        def decode(k):
            mono = []
            for v, shift, base in slots:
                e = k >> shift
                if not e and stops:
                    break
                # a plain slot holds e, a graded one limit - e, which is
                # limit ^ e: limit has every bit that e can set
                e = (e & limit) ^ base
                if e:
                    mono.append((v, e))
            return tuple(mono)
        self.decode = decode

    def keys(self, monos, start=None):
        """The keys of the monomials monos, in order, each counted from
        `start` instead of `one` when given, and their largest total
        degree.  A variable without a slot raises KeyError; keys are
        meaningless when that degree is over `limit`."""
        weights = self.weights
        start = self.one if start is None else start
        out = []
        top = 0
        for mono in monos:
            k = start
            d = 0
            for v, e in mono:
                k += e * weights[v]
                d += e
            if d > top:
                top = d
            out.append(k)
        return out, top


# The narrowest slot, in bits: small bases then share packings, and small
# exponent growth in a division needs no wider one.
MIN_WIDTH = 6


@functools.lru_cache(maxsize=256)
def order_packing(kind, leading, variables, width):
    """The Packing with slots of `width` bits over the frozenset
    `variables` whose keys compare as the monomial order of that kind
    compares: "lex", "grevlex", or "block" eliminating `leading`."""
    if kind == "block":
        blocks = [(variables & leading, True), (variables - leading, True)]
    else:
        blocks = [(variables, kind == "grevlex")]
    return Packing(blocks, width)


def _integral_product(a, b, nv):
    """__mul__'s product of the term dicts a and b on ints, {monomial:
    Coefficient}, or None when a coefficient has a denominator.

    Monomials are keyed by the lex packing over every variable of a or b
    whose `limit` is at least the sum of their largest total degrees, so
    no slot of a key sum ka + kb leaves 0..limit, and ka + kb is the
    product's key (a lex packing's `one` is 0).  A coefficient is its
    integral_num, whose t-keys add as they are.  Sums gather in {x-key:
    {t-key: int}}; an x-key whose dict empties is removed, as a zero sum
    removes a term.  Keys are decoded and coefficients built once, at the
    end, by from_integral, which refuses a t-key past its slot."""
    nums_a = [integral_num(c) for c in a.values()]
    nums_b = [integral_num(c) for c in b.values()]
    if None in nums_a or None in nums_b:
        return None
    variables, deg_a = support((a,))
    more, deg_b = support((b,))
    packing = order_packing("lex", None, frozenset(variables | more),
                            (deg_a + deg_b).bit_length() + 1)
    packed_b = list(zip(packing.keys(b)[0], nums_b))
    terms = {}
    for ka, ta in zip(packing.keys(a)[0], nums_a):
        for kb, tb in packed_b:
            k = ka + kb
            t = terms.get(k)
            if t is None:
                t = terms[k] = {}
            for ea, ca in ta.items():
                for eb, cb in tb.items():
                    e = ea + eb
                    s = t.get(e, 0) + ca * cb
                    if s:
                        t[e] = s
                    else:
                        del t[e]
            if not t:
                del terms[k]
    decode = packing.decode
    return {decode(k): from_integral(t, nv) for k, t in terms.items()}


def _size(terms, nv):
    """The terms of a product operand, each counted once per t-monomial of
    its coefficient's numerator (once, when nv is 0: constants mode)."""
    return sum(len(c.num) for c in terms.values()) if nv else len(terms)


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
        self._check(other)
        return self.terms == other.terms

    __hash__ = None

    def _check(self, other):
        if self.ctx != other.ctx:
            raise ContextError("polynomials built over different contexts")

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = DiffPolynomial.from_int(self.ctx, other)
        self._check(other)
        return DiffPolynomial(self.ctx,
                              add_into(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return DiffPolynomial(self.ctx,
                              {mono: -c for mono, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """The product: for each term of self, then each of other, ca * cb
        (self's coefficient on the left) is added to the term it meets, in
        that order; a zero sum removes the term, so a later product there
        inserts it again at the end.  A product of two nonzero field
        elements is never zero, so a new monomial is always inserted.

        A product of more pairs than DIFFALG_TERM_BUDGET (default
        250,000), by `_size`, raises ResourceBudgetError before any work,
        unless an operand is a single term whose numerator is one
        t-monomial: the product is then a shift of the other's terms.

        Two paths, chosen by operand size and by denominators.  With two
        multi-term operands and no denominator in either the loop runs on
        ints (`_integral_product`), with the same bytes: a denominator-1
        coefficient has one form per value, so the order of the integer
        additions does not matter; terms are inserted, removed and
        inserted again as above, so their dict order holds; and the order
        of the keys inside a num dict is never observable (render sorts,
        _plead takes the max, == compares dicts).  Otherwise `add_into`
        adds the products into one dict in just this order, self's terms
        outer; with a single-term operand no two products meet, so each
        term is its one product ca * cb.
        """
        if isinstance(other, int):
            other = DiffPolynomial.from_int(self.ctx, other)
        if isinstance(other, Coefficient):
            return self.scale(other)
        self._check(other)
        ctx, a, b, nv = self.ctx, self.terms, other.terms, self.ctx.nv
        if not (len(a) == 1 == _size(a, nv) or len(b) == 1 == _size(b, nv)):
            budget = env_budget("DIFFALG_TERM_BUDGET", 250_000)
            na, nb = _size(a, nv), _size(b, nv)
            if na * nb > budget:
                raise ResourceBudgetError("a product of %d by %d terms "
                                          "exceeds the term budget %d"
                                          % (na, nb, budget))
        terms = (None if len(a) == 1 or len(b) == 1
                 else _integral_product(a, b, nv))
        if terms is None:
            terms = add_into({}, ((mono_mul(ma, mb), ca * cb)
                                  for ma, ca in a.items()
                                  for mb, cb in b.items()))
        return DiffPolynomial(ctx, terms)

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
        """c * self; self itself when c is one."""
        if c.is_zero():
            return DiffPolynomial.zero(self.ctx)
        if c.is_one():
            return self
        return DiffPolynomial(self.ctx,
                              {mono: v * c for mono, v in self.terms.items()})

    # -- calculus ---------------------------------------------------------------

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

    def substitute(self, mapping):
        """Simultaneous substitution; unmapped variables map to themselves."""
        ctx = self.ctx
        terms = {}
        for mono, c in self.terms.items():
            prod = DiffPolynomial.const(ctx, c)
            for v, e in mono:
                img = mapping.get(v)
                if img is None:
                    img = DiffPolynomial.var(ctx, v[0], v[1])
                prod = prod * img ** e  # an image in another ctx raises
            add_into(terms, prod.terms.items())
        return DiffPolynomial(ctx, terms)

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
    the context itself does not bound levels).  Built in one dict in the
    order of that sum: f^{delta_k}, then per variable v in ascending
    var_rank the terms of f in dict order, each adding e*c (c itself when
    e is 1) at mono/v * x^(xi+k), e the exponent of v.  One scan of f's
    terms groups (mono/v, e, c) by variable, slicing v out of mono.
    """
    ctx = f.ctx
    terms = f.coeff_derivative(k).terms
    groups = {}
    for mono, c in f.terms.items():
        for pos, (v, e) in enumerate(mono):
            quotient = mono[:pos] + ((v, e - 1),) * (e > 1) + mono[pos + 1:]
            groups.setdefault(v, []).append((quotient, e, c))
    for v in sorted(groups, key=var_rank):
        i, xi = v
        up = (((i, shift(xi, k)), 1),)
        ctx.check_var(up[0][0])
        add_into(terms, ((mono_mul(quotient, up),
                          c if e == 1 else c.scale_int(e))
                         for quotient, e, c in groups[v]))
    return DiffPolynomial(ctx, terms)


# --- printing -----------------------------------------------------------------


@functools.lru_cache(maxsize=4096)
def _mono_str(mono, vstr):
    return "*".join(vstr(v) if e == 1 else "%s^%d" % (vstr(v), e)
                    for v, e in mono)


def print_poly(f, vstr=var_str):
    """Canonical text form: terms in descending grevlex order, sorted once
    by their keys in the grevlex Packing over f's own variables at the
    width division would take, so the two share `order_packing` entries."""
    if f.is_zero():
        return "0"
    terms = f.terms
    variables, top = support((terms,))
    packing = order_packing("grevlex", None, frozenset(variables),
                            max(top.bit_length() + 1, MIN_WIDTH))
    pieces = []
    for _, mono in sorted(zip(packing.keys(terms)[0], terms), reverse=True):
        neg, text, is_one = terms[mono].render()
        if mono:
            body = (_mono_str(mono, vstr) if is_one
                    else text + "*" + _mono_str(mono, vstr))
        else:
            body = text
        pieces.append((" - " if neg else " + ") + body)
    out = "".join(pieces)
    return out[3:] if out[1] == "+" else "-" + out[3:]


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
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
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
            if ch.isdecimal():
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
            elif ch in "+-*/^(),=" or ch in "&|" and self.formula_mode:
                self.pos += 1
                self.tokens.append((ch, ch, start))
            elif ch == "!" and self.formula_mode:
                self.pos += 1
                if self.pos < len(text) and text[self.pos] == "=":
                    self.pos += 1
                    self.tokens.append(("!=", "!=", start))
                else:
                    self.tokens.append(("!", "!", start))
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
        """A `+`/`-` chain, summed left to right into one dict."""
        terms = dict(self.parse_term().terms)
        while self.tz.peek()[0] in ("+", "-"):
            op = self.tz.next()[0]
            rhs = self.parse_term().terms.items()
            add_into(terms, rhs if op == "+" else
                     ((mono, -c) for mono, c in rhs))
        return DiffPolynomial(self.ctx, terms)

    def parse_term(self):
        """A `*`/`/` chain, multiplied left to right.

        Its leading run of monomial factors is read in one step
        (`parse_monomial_run`), and the loop goes on from the token after
        the run.  The run is one term whose coefficient has denominator 1,
        and such a coefficient has one form per value, so the folded term
        is the value, in the same form, that multiplying the run's factors
        one at a time would hold at that token."""
        value = self.parse_monomial_run()
        if value is None:
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

    def parse_monomial_run(self):
        """The leading run of a term's factors joined by `*` that are an
        INT, an XVAR or a TVAR with an optional `^ INT` (not an INT's), after
        at most one unary `-`, as one term; None, with no token taken, when
        the term does not start with such a factor.

        The run keeps the sign times its INTs, the exponent of each x and
        the sum of its t-keys, and builds the term at its end: the monomial
        sorted by var_rank, the coefficient from_integral's.  It stops
        before any other token, an invalid variable, a `^` without an INT,
        or a t-power past its slot, which parse_factor then reads or
        refuses as it would any factor; and right after a t-factor whose
        key sum sets a guard bit, where from_integral raises as the product
        would, unless the coefficient is 0."""
        tokens, nv = self.tz.tokens, self.ctx.nv
        i = end = self.tz.index
        c = 1
        if tokens[i][0] == "-":
            c = -1
            i += 1
        exps = {}
        tkey = guards = 0
        while True:
            kind, payload, pos = tokens[i]
            if not (kind == "INT" or kind in ("XVAR", "TVAR")
                    and self._var_error(kind, payload, pos) is None):
                break
            j, e = i + 1, 1
            if tokens[j][0] == "^":
                if kind == "INT" or tokens[j + 1][0] != "INT":
                    break
                e = tokens[j + 1][1]
                j += 2
            if kind == "INT":
                c *= payload
            elif kind == "XVAR":
                exps[payload] = exps.get(payload, 0) + e
            else:
                key = t_key(payload, e, nv)
                if key is None:
                    break
                tkey += key
                guards = t_guards(nv)
            i = end = j
            if tkey & guards or tokens[i][0] != "*":
                break
            i += 1
        if end == self.tz.index:
            return None
        self.tz.index = end
        if not c:
            return DiffPolynomial.zero(self.ctx)
        mono = tuple(sorted(((v, e) for v, e in exps.items() if e),
                            key=_rank_of_item))
        return DiffPolynomial(self.ctx, {mono: from_integral({tkey: c}, nv)})

    def parse_factor(self):
        kind, _, _ = self.tz.peek()
        if kind == "-":
            self.tz.next()
            return -self.parse_factor()
        value = self.parse_primary()
        if self.tz.peek()[0] == "^":
            self.tz.next()
            e = self.tz.expect("INT")[1]
            _check_bits(e * (_max_bit_length(value) - 1), bit_budget())
            value = value ** e
        return value

    def _var_error(self, kind, payload, pos):
        """The ParseError for an XVAR or TVAR token that the context does
        not have, or None."""
        ctx = self.ctx
        if kind == "XVAR":
            i, xi = payload
            if len(xi) != ctx.m:
                return ParseError("multi-index %r must have %d entries"
                                  % (list(xi), ctx.m), pos)
            if not 1 <= i <= ctx.n:
                return ParseError("coordinate index %d out of range 1..%d"
                                  % (i, ctx.n), pos)
        elif ctx.mode.kind != "rational":
            return ParseError("base variable t%d needs rational mode"
                              % payload, pos)
        elif not 1 <= payload <= ctx.nv:
            return ParseError("base variable t%d out of range 1..%d"
                              % (payload, ctx.nv), pos)
        return None

    def parse_primary(self):
        """An INT, a variable or a parenthesised poly.  A formula's bare
        xI is the variable xI_[0,...,0] and takes the XVAR path, so it is
        checked, and refused, as that token would be."""
        kind, payload, pos = self.tz.next()
        if kind == "DVAR0":
            kind, payload = "XVAR", (payload, (0,) * self.ctx.m)
        if kind == "INT":
            return DiffPolynomial.from_int(self.ctx, payload)
        if kind in ("XVAR", "TVAR"):
            error = self._var_error(kind, payload, pos)
            if error is not None:
                raise error
            if kind == "XVAR":
                return DiffPolynomial.var(self.ctx, *payload)
            return DiffPolynomial.base_var(self.ctx, payload)
        if kind == "(":
            value = self.parse_expr()
            self.tz.expect(")")
            return value
        raise ParseError("unexpected token %r" % kind, pos)


def _rank_of_item(item):
    return var_rank(item[0])


def _max_bit_length(f):
    """The largest bit length among the ints of f's coefficients (0 for
    the zero polynomial)."""
    bits = 0
    for c in f.terms.values():
        ints = ((c.num, c.den) if not c.nv
                else (*c.num.values(), *c.den.values()))
        for n in ints:
            bits = max(bits, n.bit_length())
    return bits


def parse_poly(text, ctx):
    """Parse one polynomial in the grammar above."""
    tz = _Tokenizer(text)
    try:
        value = _ExprParser(tz, ctx).parse_expr()
    except RecursionError:
        raise ParseError("expression nested too deeply") from None
    tz.expect("EOF")
    return value
