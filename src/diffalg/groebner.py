"""Buchberger-based ideal computations over the exact coefficient field.

Monomial orders are grevlex (default), lex, and block orders for
elimination.  The block order compares the eliminated block first, so the
basis elements free of eliminated variables generate the elimination ideal.
Reduced Groebner bases are unique for a fixed order, which is what makes
every downstream construction (prolongations, containment checks)
presentation-independent.

`normal_form` divides by a `DivisorBasis`: polynomials under one order,
each with its (leading monomial, leading coefficient, tail) computed
once.  A basis that divides also gets a packing for its order
(dpoly.Packing): one integer key per monomial, with a guard bit per
slot, so that comparing two terms, multiplying a tail term by a quotient
and testing whether a lead divides a term are each one integer
operation.  Over K = Q (constants mode) the coefficients are ints too:
each divisor's tail is packed as its primitive integer multiple, and the
dividend carries one denominator per group of terms; rational mode
divides on Coefficients.  `buchberger` grows one DivisorBasis as it adds
S-polynomials, its final reduction tests and divides with that basis's
packing, and it fills the reduced basis into a DivisorBasis of the
caller's (`IdealPresentation`, the kernels' saturation cache) with the
leads the final reduction has, keyed under its packing, so no division
re-derives a divisor's leading term or packs the basis again.

`buchberger` gives each variable of its leads a bit of a support mask
and never queues a pair whose masks are disjoint (coprime leads).  The
chain criterion counts such a pair done when it sorts below the pair
being processed, exactly when a loop that queued it would already have
popped it.  Bases, reduction order and every coefficient operation are
those of the loop that queues every pair and tests every divisor on
tuple monomials.  `buchberger` also takes a reduced prefix of its input,
as iterated kernel prolongation produces it: a reduced basis plus new
relations is completed without re-pairing or re-reducing the old
elements, and with the leads handed over for it.
"""
from __future__ import annotations

import bisect
import functools
import heapq
import math
from dataclasses import dataclass, field
from itertools import zip_longest

from .coeff import Coefficient
from .dpoly import (Context, DiffPolynomial, Packing, grevlex_key, mono_div,
                    mono_lcm, mono_mul, support, var_rank)
from .errors import ContextError


def _lex_key(mono):
    return tuple((var_rank(v), e) for v, e in reversed(mono))


class MonomialOrder:
    """A total order on monomials, given as a plain-tuple sort key.

    A monomial sorts below another exactly when its ``sort_key`` does:

    - grevlex: ``(degree, ((var_rank(v), -e) for v, e in mono))``, the
      pairs in ascending rank;
    - lex: ``((var_rank(v), e) for v, e in reversed(mono))``, most
      significant variable first;
    - block: ``(grevlex key of the eliminated part, grevlex key of the
      rest)``, so the eliminated block is compared first.

    Two orders are equal when their kind and eliminated block are.
    """

    def __init__(self, kind, leading=None):
        if kind not in ("lex", "grevlex", "block"):
            raise ContextError("unknown monomial order %r" % (kind,))
        self.kind = kind
        # leading (eliminated) variable block (block order only)
        self.leading = frozenset(leading) if leading is not None else None
        if kind == "grevlex":
            self.sort_key = grevlex_key
        elif kind == "block":
            self.sort_key = self._block_key
        else:
            self.sort_key = _lex_key

    @classmethod
    def grevlex(cls):
        return cls("grevlex")

    @classmethod
    def lex(cls):
        return cls("lex")

    @classmethod
    def block_elim(cls, eliminate):
        return cls("block", leading=eliminate)

    def __eq__(self, other):
        if not isinstance(other, MonomialOrder):
            return NotImplemented
        return (self.kind, self.leading) == (other.kind, other.leading)

    def __hash__(self):
        return hash((self.kind, self.leading))

    def packing(self, variables, top):
        """A guarded Packing whose keys compare as this order does, over
        the variables, for monomials of total degree up to top."""
        return _order_packing(self.kind, self.leading, frozenset(variables),
                              max(top.bit_length() + 1, MIN_WIDTH))

    def _block_key(self, mono):
        lead = self.leading
        inner = tuple(t for t in mono if t[0] in lead)
        outer = tuple(t for t in mono if t[0] not in lead)
        return (grevlex_key(inner), grevlex_key(outer))


# The narrowest slot, in bits: small bases then share packings (see
# _order_packing), and small exponent growth in a division needs no
# wider one.
MIN_WIDTH = 6


@functools.lru_cache(maxsize=256)
def _order_packing(kind, leading, variables, width):
    """MonomialOrder.packing, for the order's kind and eliminated block, a
    frozenset of variables and a width."""
    if kind == "block":
        blocks = [(variables & leading, True), (variables - leading, True)]
    else:
        blocks = [(variables, kind == "grevlex")]
    return Packing(blocks, width, guarded=True)


# --- division and Buchberger ------------------------------------------------


def leading_term(f, order):
    """(monomial, coefficient) of the order-largest term; f nonzero."""
    mono = max(f.terms, key=order.sort_key)
    return mono, f.terms[mono]


class DivisorBasis:
    """Divisors for `normal_form`: polynomials under one monomial order,
    computed once per element when it is added:

    - `polys[i]` with `leads[i] = (lm, lc, tail)`, its leading monomial and
      coefficient and its other terms;
    - once the basis divides, `packing`, a guarded Packing for the order
      over the variables of every divisor, wide enough for all of their
      monomials, with `keys[i]`, the key of lm minus `packing.one`, and
      `tails[i]`, packed when the divisor is first used (None until then):
      (a, [(key of the tail monomial minus `packing.one`, b), ...]).  In
      rational mode a is lc and each b the tail term's Coefficient; in
      constants mode a*x^lm + sum(b*x^m) is the divisor's primitive
      integer multiple, a > 0 and every b an int.

    A basis that never divides builds no packing.  One added while the
    packing is set gets its lm keyed, or drops the packing when lm does
    not fit it.
    """

    def __init__(self, order, polys=(), lms=None):
        """The divisors polys, in order; `lms`, when given, holds the
        leading monomials of the first len(lms) of them, so none of those
        is derived again."""
        self.order = order
        self.polys = []
        self.leads = []
        self.packing = None
        self.keys = []
        self.tails = []
        for g, lm in zip_longest(polys, lms or ()):
            self.append(g, lm)

    def __len__(self):
        return len(self.polys)

    def append(self, g, lm=None):
        """Add the nonzero g, whose leading monomial lm is derived here
        unless given, as the last divisor."""
        if lm is None:
            lm, lc = leading_term(g, self.order)
        else:
            lc = g.terms[lm]
        self.insert(len(self.polys), g,
                    (lm, lc, [t for t in g.terms.items() if t[0] != lm]))

    def insert(self, k, g, lead):
        """Put g, with its (lm, lc, tail) lead, at position k."""
        self.polys.insert(k, g)
        self.leads.insert(k, lead)
        packing = self.packing
        if packing is not None:
            try:
                (key,), top = packing.keys((lead[0],), 0)
            except KeyError:
                top = None
            if top is None or top > packing.limit:
                self.packing = None
                self.keys, self.tails = [], []
            else:
                self.keys.insert(k, key)
                self.tails.insert(k, None)

    def take(self, k, other, i):
        """Put divisor i of the DivisorBasis other at position k, with its
        packed entries when the two share a packing."""
        if self.packing is None or self.packing is not other.packing:
            self.insert(k, other.polys[i], other.leads[i])
            return
        self.polys.insert(k, other.polys[i])
        self.leads.insert(k, other.leads[i])
        self.keys.insert(k, other.keys[i])
        self.tails.insert(k, other.tails[i])

    def pack(self, top=0):
        """Build the packing, for total degrees up to top or up to the
        divisors' total degree, whichever is larger, and key every lm."""
        variables, most = support(g.terms for g in self.polys)
        packing = self.packing = self.order.packing(variables, max(top, most))
        self.keys = packing.keys([lm for lm, _, _ in self.leads], 0)[0]
        self.tails = [None] * len(self.polys)
        return packing

    def tail(self, i):
        """The (lc, packed tail) of divisor i, packed now on first use;
        raises _Widen when the tail does not fit the packing."""
        packed = self.tails[i]
        if packed is None:
            packing = self.packing
            _, lc, tail = self.leads[i]
            try:
                keys, top = packing.keys([m for m, _ in tail], 0)
            except KeyError:
                # a variable new to the packing: build it again, as wide
                raise _Widen(packing.limit) from None
            if top > packing.limit:
                raise _Widen(top)
            coefficients = [c for _, c in tail]
            if self.polys[i].ctx.mode.kind == "constants":
                lc, coefficients = _primitive(lc, coefficients)
            packed = self.tails[i] = lc, list(zip(keys, coefficients))
        return packed


def _primitive(lc, tail):
    """The integers a and [b, ...] of the primitive integer multiple of a
    constants-mode divisor with lead coefficient lc and tail coefficients
    `tail`: every coefficient times the lcm of the denominators, divided by
    the integer content, the sign chosen so that a > 0."""
    lcm = math.lcm(lc.den, *[c.den for c in tail])
    a = lc.num * (lcm // lc.den)
    nums = [c.num * (lcm // c.den) for c in tail]
    g = math.gcd(a, *nums)
    if a < 0:
        g = -g
    if g == 1:
        return a, nums
    return a // g, [n // g for n in nums]


class _Widen(Exception):
    """A division left its basis's packing: build it again, for total
    degrees up to `top`, or with slots twice as wide when top is None."""

    def __init__(self, top):
        super().__init__(top)
        self.top = top


def normal_form(f, basis):
    """Full remainder of f under multivariate division by the DivisorBasis
    `basis`, the first divisor whose lm divides a term being the one used.

    Reduces in place in one dict from packed keys (`basis.packing`) to
    coefficients, and decodes each remainder key once.  The keys compare
    as the order does, so taking the largest key pops the order-largest
    term.  A divisor divides the term of key mk when the quotient key q =
    mk - keys[i] has no guard bit set, and the term of a tail entry (kb,
    cb) times the quotient has key q + kb, so the loop picks the divisor,
    and meets the terms, of a loop on tuple monomials.

    The field mode of f picks the coefficient loop.  In rational mode
    each step does the Coefficient operations of p - (c/lc)*x^q*g term by
    term, in the order of the loop on tuple monomials, as a rational
    function's printed form depends on the operations that built it (the
    quotient is negated once per step, and (-k)*cb has the form of
    -(k*cb), as negation commutes with every Coefficient operation and
    reduction).  In constants mode a coefficient is a reduced integer
    pair, one form per value, so only the values must agree and the
    arithmetic may be reordered: from a group's first reduction step its
    terms are ints p over one denominator D > 0, and a step by a divisor's
    primitive integer multiple a*x^lm + tail on the term c*x^mk scales p
    and D by a/g, g = gcd(c, a), when that is not 1, subtracts
    (c/g)*x^q*tail, and then divides p and D by their common content.
    Each remainder term is built once, as the reduced pair of c/D.

    Variables of f that no divisor has are outside the packing.  Division
    never changes a term's outside part, nor the order of two terms that
    share it, so the terms are grouped by outside part and each group is
    divided on the keys of its inside parts; with more than one group the
    remainder is sorted back into one order.  A product key with a guard
    bit set, or a divisor tail or a term of f of too high a degree, means
    a slot is too narrow: the packing is built again, wider, and the
    division starts over, which repeats the same coefficient operations.
    A divisor tail with a variable the packing lacks (a divisor added
    after the packing was built) rebuilds it over the divisors' variables
    at the same width, and the division starts over likewise.
    The remainder's terms are in descending order.
    """
    if not basis:
        return f
    if not f.terms:
        return DiffPolynomial(f.ctx, {})
    if basis.packing is None:
        basis.pack()
    while True:
        try:
            return _divide(f, basis)
        except _Widen as widen:
            top = widen.top
            basis.pack((basis.packing.limit + 1) ** 2 - 1 if top is None
                       else top)


def _divide(f, basis):
    """normal_form's division under basis.packing, which raises _Widen
    when a slot is too narrow for it."""
    packing = basis.packing
    try:
        keys, top = packing.keys(f.terms)
    except KeyError:
        groups, top = _split(f.terms, packing)
    else:
        groups = {(): dict(zip(keys, f.terms.values()))}
    if top > packing.limit:
        raise _Widen(top)
    divide = (_divide_coefficients if f.ctx.mode.kind == "rational"
              else _divide_ints)
    remainder = {}
    for outside, p in groups.items():
        divide(p, basis, outside, remainder)
    if len(groups) > 1:
        sort_key = basis.order.sort_key
        remainder = dict(sorted(remainder.items(),
                                key=lambda t: sort_key(t[0]), reverse=True))
    return DiffPolynomial(f.ctx, remainder)


def _divide_coefficients(p, basis, outside, remainder):
    """normal_form's rational-mode loop: reduce the group p, {key:
    Coefficient} with outside part `outside`, in place, adding its
    remainder's terms to `remainder` in descending order."""
    packing = basis.packing
    guards, decode, keys, tails = (packing.guards, packing.decode,
                                   basis.keys, basis.tails)
    while p:
        mk = max(p)
        c = p.pop(mk)
        for i, lk in enumerate(keys):
            q = mk - lk
            if q & guards:
                continue
            lc, tail = tails[i] or basis.tail(i)
            # the leading terms cancel exactly
            k = -(c / lc)
            for kb, cb in tail:
                m = q + kb
                v = k * cb
                if m in p:
                    s = p[m] + v
                    if s.is_zero():
                        del p[m]
                    else:
                        p[m] = s
                elif m & guards:
                    raise _Widen(None)
                else:
                    p[m] = v
            break
        else:
            mono = decode(mk)
            remainder[mono_mul(mono, outside) if outside else mono] = c


def _divide_ints(p, basis, outside, remainder):
    """normal_form's constants-mode loop: _divide_coefficients on ints,
    p / D, from the group's first reduction step on."""
    packing = basis.packing
    guards, decode, keys, tails = (packing.guards, packing.decode,
                                   basis.keys, basis.tails)
    gcd = math.gcd
    D = None  # p holds Coefficients until the first reduction step
    while p:
        mk = max(p)
        c = p.pop(mk)
        for i, lk in enumerate(keys):
            q = mk - lk
            if q & guards:
                continue
            if D is None:
                D = c.den
                if p:  # a one-term group needs no lcm and no conversion
                    D = math.lcm(D, *[v.den for v in p.values()])
                    p = {m: v.num * (D // v.den) for m, v in p.items()}
                c = c.num * (D // c.den)
            a, tail = tails[i] or basis.tail(i)
            # p/D - (c/D)/a * x^q * (a*x^lm + tail), over D*(a/g): the
            # leading terms cancel exactly
            g = gcd(c, a)
            scale = a // g
            if scale != 1:
                D *= scale
                p = {m: v * scale for m, v in p.items()}
            k = -(c // g)
            for kb, cb in tail:
                m = q + kb
                v = k * cb
                if m in p:
                    s = p[m] + v
                    if s:
                        p[m] = s
                    else:
                        del p[m]
                elif m & guards:
                    raise _Widen(None)
                else:
                    p[m] = v
            if scale != 1:
                # keep D and p no larger than the reduced pairs need
                h = gcd(D, *p.values())
                if h != 1:
                    D //= h
                    p = {m: v // h for m, v in p.items()}
            break
        else:
            mono = decode(mk)
            remainder[mono_mul(mono, outside) if outside else mono] = (
                c if D is None else Coefficient.from_int(c, 0) if D == 1
                else Coefficient.from_rational(c, D, 0))


def _split(terms, packing):
    """The terms grouped by outside part, the variables without a slot in
    the packing: {outside part: {key of the inside part: coefficient}},
    and the largest total degree of an inside part."""
    weights = packing.weights
    parts = {}
    for mono, c in terms.items():
        inside = tuple(t for t in mono if t[0] in weights)
        outside = tuple(t for t in mono if t[0] not in weights)
        parts.setdefault(outside, {})[inside] = c
    groups = {}
    top = 0
    for outside, part in parts.items():
        keys, degree = packing.keys(part)
        groups[outside] = dict(zip(keys, part.values()))
        top = max(top, degree)
    return groups, top


def _s_poly(f, g, lead_f, lead_g):
    ctx = f.ctx
    (lmf, lcf, _), (lmg, lcg, _) = lead_f, lead_g
    lcm = mono_lcm(lmf, lmg)
    uf = mono_div(lcm, lmf)
    ug = mono_div(lcm, lmg)
    return (DiffPolynomial(ctx, {uf: lcf.inverse()}) * f
            - DiffPolynomial(ctx, {ug: lcg.inverse()}) * g)


def buchberger(gens, order, prefix=0, divisors=None, prefix_lms=None):
    """Reduced Groebner basis of the ideal generated by gens, as a list.

    Classic Buchberger with the coprimality and chain criteria, pairs taken
    from a heap of (lcm sort key, i, j), S-polynomials reduced against one
    DivisorBasis that grows with the basis; the final reduction gives the
    unique reduced basis, ascending by lm.

    A pair whose leads are coprime (disjoint support masks) is never
    queued, and the chain criterion decides such a pair P by comparing it
    with the pair C being processed: P counts as done exactly when its
    (lcm sort key, i, j) sorts below C's.  That is when the loop that
    queues every pair would already have popped it.  The criterion asks
    about P = {x, k} only with C = {x, y} and lm_k dividing lcm(C), so
    lcm(P) divides lcm(C).  If P was queued no earlier than C, the two sat
    in the heap together and P went first exactly when it sorts below.
    Otherwise y is younger than x and k, P sorts below C (on equal lcms,
    by the indices), and P was popped before C.
    So the same pairs are reduced in the same order.

    The first `prefix` gens may be a reduced basis under `order`, nonzero,
    monic and ascending by lm, as this function returns it.  Only pairs
    with a later element are then queued (pairs within the prefix count as
    done for the chain criterion), and the final reduction keeps each
    prefix element as it is unless a new lead divides one of its terms.
    The result is the same basis as with prefix 0.  `prefix_lms`, when
    given, holds the prefix's leading monomials, as `divisors` received
    them when the prefix was computed, so none is derived again.

    `divisors`, when given an empty DivisorBasis under `order`, receives
    the result, with the leads the final reduction has in hand and keyed
    under the packing it divided with, so dividing by it derives no
    leading term and builds no packing again (unless a lead does not fit).
    Each S-polynomial remainder is added to the growing basis with its
    first term as lm: normal_form returns its terms in descending order.
    """
    G = DivisorBasis(order, [g for g in gens if not g.is_zero()], prefix_lms)
    if not G:
        return []
    polys, leads = G.polys, G.leads
    bits = {}  # a bit per variable of a lead
    masks = [_support_mask(lm, bits) for lm, _, _ in leads]
    pairs = []  # heap of (lcm sort key, i, j), lms not coprime
    done = set()
    current = None  # the pair being processed

    def push_pairs(j):
        for i in range(j):
            if masks[i] & masks[j]:
                lcm = mono_lcm(leads[i][0], leads[j][0])
                heapq.heappush(pairs, (order.sort_key(lcm), i, j))

    def is_done(a, b):
        if a > b:
            a, b = b, a
        if b < prefix:
            return True
        if masks[a] & masks[b]:
            return (a, b) in done
        lcm = mono_lcm(leads[a][0], leads[b][0])
        return (order.sort_key(lcm), a, b) < current

    for j in range(prefix, len(G)):
        push_pairs(j)
    while pairs:
        current = heapq.heappop(pairs)
        _, i, j = current
        done.add((i, j))
        lcm = mono_lcm(leads[i][0], leads[j][0])
        outside = ~(masks[i] | masks[j])
        chain = False
        for k in range(len(G)):
            if k in (i, j) or masks[k] & outside:
                continue
            if mono_div(lcm, leads[k][0]) is None:
                continue
            if is_done(i, k) and is_done(j, k):
                chain = True
                break
        if chain:
            continue
        s = normal_form(_s_poly(polys[i], polys[j], leads[i], leads[j]), G)
        if s.is_zero():
            continue
        G.append(s, next(iter(s.terms)))
        masks.append(_support_mask(leads[-1][0], bits))
        push_pairs(len(G) - 1)
    return _reduce_basis(G, prefix, divisors)


def _support_mask(mono, bits):
    """The bits of mono's variables, a new one given to each variable that
    has none in `bits`: two monomials with disjoint masks are coprime."""
    mask = 0
    for v, _ in mono:
        bit = bits.get(v)
        if bit is None:
            bit = bits[v] = 1 << len(bits)
        mask |= bit
    return mask


def _reduce_basis(G, prefix=0, out=None):
    """Reduced basis, ascending by lm, of the Groebner basis in the
    DivisorBasis G, in one pass in stable lm order.  Each element whose lm
    no kept lm divides is tail-reduced against the kept elements,
    unreduced and in G order, and made monic.  A lm never exceeds a term it
    divides, so later elements reduce no tail, and G order keeps
    normal_form's choice of divisor.  A constant sorts first and leaves the
    basis [1].  Every divisibility test is the guarded subtraction of
    normal_form on G's packed keys, and the kept elements are divided by
    with G's packing and the tails it has packed.

    The first `prefix` elements of G are a reduced basis as `buchberger`
    returns it, so only kept leads from later elements can divide their lms
    or terms.  One that no such lead divides is kept as it is: normal_form
    would return its terms unchanged, in the descending order they already
    have.  Element 0 alone may keep its generator's term order, so once
    something is kept before it, it goes through normal_form as it would
    from scratch.

    `out`, when given an empty DivisorBasis, receives the result with its
    lms, under the packing of the last division.
    """
    order, leads = G.order, G.leads
    divisors = DivisorBasis(order)  # the kept elements, in G order
    if len(G) > 1:
        divisors.packing = packing = G.packing or G.pack()
        guards, one = packing.guards, packing.one
    keys = G.keys  # sort as the lms do

    def divided(k, among):
        """Does the lm of an element of G in `among` divide the monomial
        whose key is k?"""
        return any(not (k - keys[j]) & guards for j in among)

    kept = []  # indices into G of the kept elements, ascending
    new = []  # those from index prefix on
    reduced, lms = [], []
    for i in sorted(range(len(G)), key=keys.__getitem__) if keys else (0,):
        lm, lc, tail = leads[i]
        g = r = G.polys[i]
        if i < prefix:
            if new and divided(keys[i] + one, new):
                continue
            as_is = not kept or (i and not (new and any(
                divided(k + one, new) for k, _ in G.tail(i)[1])))
        elif kept and divided(keys[i] + one, kept):
            continue
        else:
            new.append(i)
            as_is = False
        if not as_is:
            r = (normal_form(g, divisors) if kept else g).scale(lc.inverse())
        reduced.append(r)
        lms.append(lm)
        k = bisect.bisect(kept, i)
        kept.insert(k, i)
        divisors.take(k, G, i)
    if out is not None:
        out.packing = divisors.packing
        for r, lm in zip(reduced, lms):
            out.append(r, lm)
    return reduced


# --- ideal presentations ------------------------------------------------------


@dataclass
class IdealPresentation:
    """Finite generator list plus its cached reduced Groebner basis and the
    DivisorBasis of that basis, which `normal_form` divides by.

    `_prefix` and `_prefix_lms` are passed to `buchberger`: the first
    `_prefix` generators may be a reduced basis under `order`, as
    `buchberger` returns it, and `_prefix_lms` its leading monomials.
    Equality compares the context, the generators and the order only, so
    no cache or hint changes it.
    """

    ctx: Context
    generators: list
    order: MonomialOrder = field(default_factory=MonomialOrder.grevlex)
    _gb: list = field(default=None, repr=False, compare=False)
    _prefix: int = field(default=0, repr=False, compare=False)
    _prefix_lms: list = field(default=None, repr=False, compare=False)
    _divisors: DivisorBasis = field(default=None, init=False, repr=False,
                                    compare=False)

    def __post_init__(self):
        for g in self.generators:
            if g.ctx != self.ctx:
                raise ContextError("generator in wrong context")

    @property
    def reduced_gb(self):
        if self._gb is None:
            divisors = DivisorBasis(self.order)
            self._gb = buchberger(self.generators, self.order, self._prefix,
                                  divisors, self._prefix_lms)
            self._divisors = divisors
        return self._gb

    @property
    def divisors(self):
        """The reduced basis as a DivisorBasis, prepared once: the one
        `buchberger` filled, or one derived from a `_gb` given at
        construction."""
        gb = self.reduced_gb
        if self._divisors is None:
            self._divisors = DivisorBasis(self.order, gb)
        return self._divisors

    @property
    def lms(self):
        """The leading monomials of the reduced basis, in order."""
        return [lm for lm, _, _ in self.divisors.leads]

    def normal_form(self, f):
        if f.ctx != self.ctx:
            raise ContextError("polynomial in wrong context")
        return normal_form(f, self.divisors)

    def variables(self):
        out = set()
        for g in self.generators:
            out |= g.variables()
        return out


def elimination_ideal(I, keep):
    """Generators of I intersected with the subring on `keep` variables.

    Uses a block order eliminating the complement (plain grevlex when
    nothing is eliminated); the returned presentation's generators are its
    reduced grevlex basis.
    """
    keep = set(keep)
    # variables we keep but that never occur in I are harmless
    eliminate = I.variables() - keep
    order = (MonomialOrder.block_elim(eliminate) if eliminate
             else MonomialOrder.grevlex())
    gb = buchberger(I.generators, order)
    kept = [g for g in gb if g.variables() <= keep]
    # restricted to the kept variables the block order is plain grevlex,
    # so `kept` is already the reduced grevlex basis of the elimination ideal
    return IdealPresentation(I.ctx, list(kept), MonomialOrder.grevlex(),
                             _gb=list(kept))


def rabinowitsch(gens, h, order, prefix=0, divisors=None,
                 prefix_lms=None):
    """Reduced basis of gens + (1 - h*z), z a fresh level-0 coordinate.

    Returns (ctx2, basis), z being coordinate n+1 of ctx2.  The ideal
    presents the localization of (gens) at h; it is (1) exactly when h lies
    in the radical of (gens).  `prefix`, `divisors` and `prefix_lms` are
    passed to `buchberger`: the first `prefix` gens may be a reduced basis
    under `order`, with leading monomials `prefix_lms`, and `divisors`, an
    empty DivisorBasis, receives the basis.
    """
    ctx = h.ctx
    ctx2 = ctx.with_n(ctx.n + 1)
    z = DiffPolynomial.var(ctx2, ctx2.n, (0,) * ctx2.m)
    gens2 = [g.with_context(ctx2) for g in gens]
    gens2.append(DiffPolynomial.from_int(ctx2, 1) - h.with_context(ctx2) * z)
    return ctx2, buchberger(gens2, order, prefix, divisors, prefix_lms)


def radical_member(f, I):
    """Rabinowitsch test: f in the radical of I."""
    if f.ctx != I.ctx:
        raise ContextError("polynomial in wrong context")
    if f.is_zero():
        return True
    _, gb = rabinowitsch(I.generators, f, MonomialOrder.grevlex())
    return len(gb) == 1 and gb[0].is_constant()
