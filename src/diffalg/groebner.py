"""Buchberger-based ideal computations over the exact coefficient field.

Monomial orders are grevlex (default), lex, and block orders for
elimination.  The block order compares the eliminated block first, so the
basis elements free of eliminated variables generate the elimination ideal.
Reduced Groebner bases are unique for a fixed order, which is what makes
every downstream construction (prolongations, containment checks)
presentation-independent.

`normal_form` divides by a `DivisorBasis`: polynomials under one order,
each with its leading monomial derived once.  A basis that divides also
gets a packing for its order (dpoly.Packing): one integer key per
monomial, with a guard bit per slot, so that comparing two terms,
multiplying a tail term by a quotient and testing whether a lead divides
a term are each one integer operation; a divisor's tail is packed when
it is first used, and `_add_shifted` adds it, times a term, into a
dividend.  Over K = Q (constants mode) the coefficients are ints too:
each divisor's tail is packed as its primitive integer multiple, and the
dividend carries one denominator; rational mode divides on Coefficients.
`buchberger` grows one DivisorBasis as it adds S-polynomial remainders,
each formed on that basis's packed keys and divided in place, its final
reduction tests and divides with that basis's packing, and it fills the
reduced basis, with the leads the final reduction has and that packing,
into the caller's DivisorBasis (`IdealPresentation`'s): no division
re-derives a lead, and a dividend over the basis's variables packs nothing.
`image_normal_form` likewise forms a D_k-image (dpoly.derivation_image)
on a basis's packed keys and divides it in place, as a kernel's
validation and rows need: no tuple-keyed image is built.

`buchberger` gives each variable of its leads a bit of a support mask
and never queues a pair whose masks are disjoint (coprime leads).  The
chain criterion counts a pair done when it sorts below the pair being
processed, queued or not, exactly when a loop that queued it would
already have popped it.  Bases, reduction order and, in rational mode,
every coefficient operation are those of the loop that queues every pair
and tests every divisor on tuple monomials (in constants mode an
S-polynomial is a positive multiple of its).  `buchberger` also takes a
reduced prefix of its input as the DivisorBasis an earlier run filled, as
iterated kernel prolongation produces it: a reduced basis plus new
relations is completed without re-pairing or re-reducing the old
elements, and from a copy of that basis, so while its packing lasts no
prefix lead is derived and no prefix tail packed again, and each prefix
element kept as it is reaches the result with its packed tail.
"""
from __future__ import annotations

import bisect
import heapq
import math

from .coeff import Coefficient, add_into
from .dpoly import (MIN_WIDTH, DiffPolynomial, mono_lcm, order_packing,
                    support, var_rank)
from .errors import ContextError, FrozenRecord, Record
from .indices import shift


class MonomialOrder(FrozenRecord):
    """A total order on monomials: grevlex, lex, or a block order that
    compares the eliminated block first, by grevlex within each block.  Its
    packings key monomials by integers that compare as it does.  A
    FrozenRecord of its kind and its eliminated block, `leading`.
    """

    __slots__ = _fields = ("kind", "leading")

    def __init__(self, kind, leading=None):
        if kind not in ("lex", "grevlex", "block"):
            raise ContextError("unknown monomial order %r" % (kind,))
        object.__setattr__(self, "kind", kind)
        # leading (eliminated) variable block (block order only)
        object.__setattr__(self, "leading", None if leading is None
                           else frozenset(leading))

    @classmethod
    def grevlex(cls):
        return cls("grevlex")

    @classmethod
    def lex(cls):
        return cls("lex")

    @classmethod
    def block_elim(cls, eliminate):
        return cls("block", leading=eliminate)

    def packing(self, variables, top):
        """A Packing whose keys compare as this order does, over the
        variables, for monomials of total degree up to top."""
        return order_packing(self.kind, self.leading, frozenset(variables),
                             max(top.bit_length() + 1, MIN_WIDTH))


# --- division and Buchberger ------------------------------------------------


def leading_term(f, order):
    """(monomial, coefficient) of the term with the largest key in the
    order's packing over f's variables and degree; f nonzero."""
    variables, top = support((f.terms,))
    keys = order.packing(variables, top).keys(f.terms)[0]
    return max(zip(keys, f.terms.items()))[1]


class DivisorBasis:
    """Divisors for `normal_form`: polynomials under one monomial order.

    - `polys[i]` with `lms[i]`, its leading monomial (lc, its leading
      coefficient, is `polys[i].terms[lms[i]]`);
    - once the basis divides, `packing`, a Packing for the order over the
      variables of the divisors and of the dividend it was built for,
      wide enough for all of their monomials, with `keys[i]`, the key
      of lm minus `packing.one`, and `tails[i]`, packed when the divisor is
      first used (None until then): (a, [(key of the tail monomial minus
      `packing.one`, b), ...]).  In rational mode a is lc and each b the
      tail term's Coefficient; in constants mode a*x^lm + sum(b*x^m) is the
      divisor's primitive integer multiple, a > 0 and every b an int.

    normal_form packs (`pack`) a basis `buchberger` did not fill when it
    first divides, and again, keeping valid keys, when a division leaves
    it; an inserted divisor gets its lm keyed or drops a misfit packing.
    A filled basis can be carried into a later `buchberger` run as its
    prefix, which starts from a `copy`.
    """

    def __init__(self, order, polys=()):
        """The divisors polys, in order, each lead derived here."""
        self.order = order
        self.polys = []
        self.lms = []
        self.packing = None
        self.keys = []
        self.tails = []
        for g in polys:
            self.append(g)

    def __len__(self):
        return len(self.polys)

    def copy(self, polys):
        """A basis dividing by polys, which equal this basis's divisors
        term for term (in this context or another), with its leads,
        packing, lead keys and packed tails: none is derived again."""
        basis = DivisorBasis(self.order)
        basis.polys = list(polys)
        basis.lms, basis.keys = list(self.lms), list(self.keys)
        basis.packing, basis.tails = self.packing, list(self.tails)
        return basis

    def append(self, g, lm=None, tail=None, key=None):
        """Add the nonzero g, whose leading monomial lm is derived here
        unless given, as the last divisor; `insert` takes `tail` and
        `key`."""
        if lm is None:
            lm = leading_term(g, self.order)[0]
        self.insert(len(self.polys), g, lm, tail, key)

    def insert(self, k, g, lm, tail=None, key=None):
        """Put g, with leading monomial lm, at position k; `tail` and `key`,
        when given, are g's packed tail and lm's key (as in `keys`) under
        this basis's packing, and lm is keyed here when key is None."""
        self.polys.insert(k, g)
        self.lms.insert(k, lm)
        if self.packing is not None:
            if key is None:
                try:
                    (key,) = _fit(self.packing, (lm,), 0)
                except _Widen:
                    self.packing = None
                    self.keys, self.tails = [], []
                    return
            self.keys.insert(k, key)
            self.tails.insert(k, tail)

    def pack(self, top=0, terms=()):
        """Build the packing over the variables of the divisors and of the
        monomials `terms`, for total degrees up to top or up to the
        divisors' total degree, whichever is larger, and key every lm."""
        variables, most = support(g.terms for g in self.polys)
        variables |= support((terms,))[0]
        return self._use(self.order.packing(variables, max(top, most)))

    def extend(self, variables):
        """Add the variables to the packing at its width, without reading
        the divisors' terms, as a kernel's basis does for a level's
        unknowns before dividing its rows; with no packing yet, `pack`
        over them."""
        if self.packing is None:
            return self.pack(0, [((v, 1),) for v in variables])
        return self._use(self.order.packing(
            self.packing.weights.keys() | set(variables), self.packing.limit))

    def _use(self, packing):
        """Divide under packing from now on, keying every lm again unless
        the keys stay.  A key is a sum of weights, so the keys and packed
        tails stay when the old packing had the same `one` and weighs every
        variable the two share alike, as a lex packing gaining variables
        that outrank its own does (a kernel's basis dividing a row's
        unknowns)."""
        old, self.packing = self.packing, packing
        if old is None or old.one != packing.one or any(
                packing.weights.get(v, w) != w for v, w in old.weights.items()):
            self.keys = packing.keys(self.lms, 0)[0]
            self.tails = [None] * len(self.polys)
        return packing

    def tail(self, i):
        """The (lc, packed tail) of divisor i, packed now on first use;
        raises _Widen when the tail does not fit the packing."""
        packed = self.tails[i]
        if packed is None:
            g, lm = self.polys[i], self.lms[i]
            lc = g.terms[lm]
            tail = [t for t in g.terms.items() if t[0] != lm]
            keys = _fit(self.packing, [m for m, _ in tail], 0)
            coefficients = [c for _, c in tail]
            if g.ctx.mode.kind == "constants":
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


def _fit(packing, monos, start=None):
    """packing.keys(monos, start)'s keys; raises _Widen when a monomial has
    a variable the packing lacks (build it again, as wide) or a total
    degree over its limit."""
    try:
        keys, top = packing.keys(monos, start)
    except KeyError:
        raise _Widen(packing.limit) from None
    if top > packing.limit:
        raise _Widen(top)
    return keys


def normal_form(f, basis):
    """Full remainder of f under multivariate division by the DivisorBasis
    `basis`, the first divisor whose lm divides a term being the one used.

    Reduces in place in one dict from packed keys (`basis.packing`) to
    coefficients, and decodes each remainder key once.  The keys compare
    as the order does, so taking the largest key pops the order-largest
    term.  A divisor divides the term of key mk when the quotient key q =
    mk - keys[i] has no guard bit set, and `_add_shifted` adds the tail
    times the quotient at keys q + kb, so the loop picks the divisor, and
    meets the terms, of a loop on tuple monomials.

    The field mode of f picks the coefficient loop.  In rational mode
    each step does the Coefficient operations of p - (c/lc)*x^q*g term by
    term, in the order of the loop on tuple monomials, as a rational
    function's printed form depends on the operations that built it (the
    quotient is negated once per step, and (-k)*cb has the form of
    -(k*cb), as negation commutes with every Coefficient operation and
    reduction).  In constants mode a coefficient is a reduced integer
    pair, one form per value, so only the values must agree and the
    arithmetic may be reordered: from the first reduction step the terms
    are ints p over one denominator D > 0, and a step by a divisor's
    primitive integer multiple a*x^lm + tail on the term c*x^mk scales p
    and D by a/g, g = gcd(c, a), when that is not 1, subtracts
    (c/g)*x^q*tail, and then divides p and D by their common content.
    Each remainder term is built once, as the reduced pair of c/D.  (The
    loop also starts from ints over a given D: buchberger's S-polynomials.)

    The first division builds the packing over the divisors' variables
    and f's.  A term of a later f, or a divisor tail (of a divisor added
    after the packing was built), with a variable the packing lacks
    rebuilds it over the divisors' variables and f's at the same width,
    and the division starts over.  A product key with a guard bit set, or
    a divisor tail or a term of f of too high a degree, means a slot is
    too narrow: the packing is built again, wider, and the division starts
    over, which repeats the same coefficient operations.
    The remainder's terms are in descending order.
    """
    if not basis:
        return f
    if not f.terms:
        return DiffPolynomial(f.ctx, {})
    return _packed(basis, f.terms, _divide, f, basis)


def _packed(basis, terms, divide, *args):
    """divide(*args) under basis.packing, built first over the divisors'
    variables and the monomials `terms` when the basis has none; on
    _Widen the packing is built again and divide runs again."""
    if basis.packing is None:
        basis.pack(0, terms)
    while True:
        try:
            return divide(*args)
        except _Widen as widen:
            top = widen.top
            basis.pack((basis.packing.limit + 1) ** 2 - 1 if top is None
                       else top, terms)


def _divide(f, basis):
    """normal_form's division under basis.packing, which raises _Widen
    when the packing lacks a variable or a slot is too narrow for it."""
    keys = _fit(basis.packing, f.terms)
    divide = (_divide_coefficients if f.ctx.mode.kind == "rational"
              else _divide_ints)
    return DiffPolynomial(f.ctx, divide(dict(zip(keys, f.terms.values())),
                                        basis))


def _add_shifted(p, q, k, tail, guards):
    """Add k*cb at key q + kb into the packed dict p for each tail entry
    (kb, cb), in order, by add_into's rule (coeff), k and the old value on
    the left; raises _Widen(None), leaving p part-updated, when a new key
    has a guard bit set."""
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


def _divide_coefficients(p, basis):
    """normal_form's rational-mode loop: reduce p, {key: Coefficient}, in
    place, one `_add_shifted` per step, and return its remainder,
    {monomial: Coefficient} in descending order."""
    packing = basis.packing
    guards, decode, keys, tails = (packing.guards, packing.decode,
                                   basis.keys, basis.tails)
    remainder = {}
    while p:
        mk = max(p)
        c = p.pop(mk)
        for i, lk in enumerate(keys):
            q = mk - lk
            if q & guards:
                continue
            lc, tail = tails[i] or basis.tail(i)
            # the leading terms cancel exactly
            _add_shifted(p, q, -(c / lc), tail, guards)
            break
        else:
            remainder[decode(mk)] = c
    return remainder


def _divide_ints(p, basis, D=None):
    """normal_form's constants-mode loop: _divide_coefficients on ints,
    p / D.  With D None, p holds Coefficients, converted to ints over one
    denominator at the first reduction step; given a start denominator D,
    p holds ints from the start."""
    packing = basis.packing
    guards, decode, keys, tails = (packing.guards, packing.decode,
                                   basis.keys, basis.tails)
    gcd = math.gcd
    remainder = {}
    while p:
        mk = max(p)
        c = p.pop(mk)
        for i, lk in enumerate(keys):
            q = mk - lk
            if q & guards:
                continue
            if D is None:
                D = c.den
                if p:  # a one-term dividend needs no lcm and no conversion
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
            _add_shifted(p, q, -(c // g), tail, guards)
            if scale != 1:
                # keep D and p no larger than the reduced pairs need
                h = gcd(D, *p.values())
                if h != 1:
                    D //= h
                    p = {m: v // h for m, v in p.items()}
            break
        else:
            remainder[decode(mk)] = (
                c if D is None else Coefficient.from_int(c, 0) if D == 1
                else Coefficient.from_rational(c, D, 0))
    return remainder


def _s_remainder(G, i, j, lcm):
    """normal_form by G of the S-polynomial of G's divisors i < j (leads
    of lcm `lcm`), formed by `_add_shifted`; raises _Widen as _divide does.
    Rational mode makes x^q_i*g_i/lc_i - x^q_j*g_j/lc_j's Coefficient
    operations in order, (-lc_j^-1)*cb having the form of -(lc_j^-1*cb),
    but never forms the leading terms, which only cancel.  Constants mode
    forms the positive multiple (a_j/g)*x^q_i*tail_i - (a_i/g)*x^q_j*tail_j
    of primitive tails, g = gcd(a_i, a_j): buchberger reads an element only
    through its lead, primitive tail and monic final reduction."""
    (key,) = _fit(G.packing, (lcm,))
    (a, tail_i), (b, tail_j) = G.tails[i] or G.tail(i), G.tails[j] or G.tail(j)
    ctx = G.polys[i].ctx
    rational = ctx.mode.kind == "rational"
    if rational:
        ks = a.inverse(), -b.inverse()
    else:
        g = math.gcd(a, b)
        ks = b // g, -(a // g)
    p = {}
    for k, lk, tail in zip(ks, (G.keys[i], G.keys[j]), (tail_i, tail_j)):
        _add_shifted(p, key - lk, k, tail, G.packing.guards)
    return DiffPolynomial(ctx, _divide_coefficients(p, G) if rational
                          else _divide_ints(p, G, 1))


def image_normal_form(f, k, basis):
    """normal_form(derivation_image(f, k), basis), basis nonempty, with
    the image formed on basis.packing's keys and divided in place.

    The term c*x^mono of f adds e*c (c itself when e is 1), for each
    variable v of mono with exponent e, at mono/v * x^(xi+k), whose key is
    mono's plus weights[(i, xi+k)] - weights[v]: the image has f's total
    degrees, so no slot leaves 0..limit.  The additions meet per key in
    derivation_image's order, by add_into's rule (rational forms depend on
    it): each nonzero c.derive(k) first, in rational mode, then per v in
    ascending var_rank the terms holding v, in f's order.  A shifted
    variable the packing lacks raises _Widen, and `_packed` builds the
    packing again over the divisors' variables, f's and the shifted ones.
    """
    groups = {}  # v: [(position of the term in f, its addition)]
    for pos, (mono, c) in enumerate(f.terms.items()):
        for v, e in mono:
            groups.setdefault(v, []).append(
                (pos, c if e == 1 else c.scale_int(e)))
    ups = [(v, (v[0], shift(v[1], k)), groups[v])
           for v in sorted(groups, key=var_rank)]
    terms = [*f.terms, *[((up, 1),) for _, up, _ in ups]]
    return _packed(basis, terms, _divide_image, f, k, ups, basis)


def _divide_image(f, k, ups, basis):
    """image_normal_form's image and division under basis.packing; raises
    _Widen as _divide does."""
    packing = basis.packing
    weights = packing.weights
    keys = _fit(packing, f.terms)
    rational = f.ctx.mode.kind == "rational"
    p = {key: dc for key, c in zip(keys, f.terms.values())
         if (dc := c.derive(k))} if rational else {}
    for v, up, group in ups:
        if up not in weights:
            raise _Widen(packing.limit)
        w = weights[up] - weights[v]
        add_into(p, ((keys[pos] + w, c) for pos, c in group))
    return DiffPolynomial(f.ctx, _divide_coefficients(p, basis) if rational
                          else _divide_ints(p, basis))


def buchberger(gens, order, prefix=None, out=None):
    """Reduced Groebner basis of the ideal generated by gens, as a list.

    Classic Buchberger with the coprimality and chain criteria, pairs taken
    from a heap of (lcm key, i, j, lcm), S-polynomials formed on packed
    keys and reduced against one DivisorBasis that grows with the basis
    (`_s_remainder`); the final reduction gives the unique reduced basis,
    ascending by lm.  G's packing fits twice the largest lead degree, so
    every lcm of two leads has a key; when it changes, the queued pairs are
    keyed again in place, and stay a heap, as keys compare as the order.
    One rule covers every packing G outgrows: an S-pair, or the final
    reduction, that meets a term it does not fit packs G again and runs
    again whole (`_packed`).

    A pair whose leads are coprime (disjoint support masks) is never
    queued.  The chain criterion skips C = (i, j) when lm_k divides lcm(C)
    and both {i, k} and {j, k} sort below C, as they then were popped
    before it, or would have been had they been queued: such a pair P =
    (a, b), a < b, has lcm(P) dividing lcm(C), so it sorts below C exactly
    when lcm(P) != lcm(C) or (a, b) < (i, j); P and C sat in the heap
    together unless C was queued after P was popped, and then j is
    younger than a and b, so (a, b) < (i, j).

    `prefix`, when given, is the DivisorBasis `out` received from an
    earlier run under `order`: a reduced basis, nonzero, monic and
    ascending by lm, whose polynomials the first len(prefix) gens equal
    term for term (they may be moved into another context).  G starts as
    a copy of it, with its leads, packing, lead keys and packed tails, so
    no lead is derived and no tail packed again while the packing lasts,
    and only the later gens are appended.  Any packing will do, by that
    rule.  Only pairs with a later element are then queued (pairs within
    the prefix count as done for the chain criterion), and the final
    reduction keeps each prefix element as it is unless a new lead divides
    one of its terms.  The result is the same basis as with no prefix.

    `out`, when given an empty DivisorBasis under `order`, receives the
    result, with the leads the final reduction has in hand, the run's
    packing and the packed tails of the prefix elements kept as they are,
    so dividing by it derives no leading term.
    Each S-polynomial remainder is added to the growing basis with its
    first term as lm: the division returns its terms in descending order.
    """
    start = len(prefix) if prefix else 0
    G = prefix.copy(gens[:start]) if start else DivisorBasis(order)
    for g in gens[start:]:
        if not g.is_zero():
            G.append(g)
    if not G:
        return []
    lms = G.lms
    bits = {}  # a bit per variable of a lead
    masks = [_support_mask(lm, bits) for lm in lms]
    top = support((lms,))[1]  # the largest lead degree
    # heap of (lcm key, i, j, lcm), lms not coprime; (key, i, j) is unique,
    # so the lcm is never compared
    pairs = []
    packing = None  # the packing the queued pairs are keyed in

    def sync(new):
        # widen G's packing to fit every lcm of two leads, key the queued
        # pairs again if it changed, then queue the pairs of `new`'s leads
        nonlocal packing
        if G.packing is None or G.packing.limit < 2 * top:
            G.pack(2 * top)
        if G.packing is not packing:
            packing = G.packing
            for n, (_, a, b, lcm) in enumerate(pairs):
                pairs[n] = (packing.keys((lcm,))[0][0], a, b, lcm)
        for j in new:
            for a in range(j):
                if masks[a] & masks[j]:
                    lcm = mono_lcm(lms[a], lms[j])
                    heapq.heappush(pairs,
                                   (packing.keys((lcm,))[0][0], a, j, lcm))

    def popped(a, b):
        # has {a, b}, whose lcm divides lcm(i, j), been popped before (i, j)?
        # (equal masks are a cheap necessary condition for equal lcms)
        if a > b:
            a, b = b, a
        return (b < start or (a, b) < (i, j) or masks[a] | masks[b] != mask
                or mono_lcm(lms[a], lms[b]) != lcm)

    sync(range(start, len(G)))
    while pairs:
        key, i, j, lcm = heapq.heappop(pairs)
        mask = masks[i] | masks[j]
        keys, guards = G.keys, packing.guards
        if any(not (key - keys[k]) & guards and k != i and k != j
               and popped(i, k) and popped(j, k) for k in range(len(G))):
            continue
        new = len(G)
        s = _packed(G, (), _s_remainder, G, i, j, lcm)
        if s:
            G.append(s, next(iter(s.terms)))
            masks.append(_support_mask(lms[-1], bits))
            top = max(top, sum(e for _, e in lms[-1]))
        sync(range(new, len(G)))
    return _packed(G, (), _reduce_basis, G, start, out)


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
    normal_form on G's packed keys, and the kept elements, inserted under
    G's packing, are divided (`_divide`) with it and with the lm keys and
    tails G packed under it: none is keyed or packed again.

    The first `prefix` elements of G are a reduced basis as `buchberger`
    returns it, so only kept leads from later elements can divide their lms
    or terms.  One that no such lead divides is kept as it is: normal_form
    would return its terms unchanged, in the descending order they already
    have.  Element 0 alone may keep its generator's term order, so once
    something is kept before it, it is divided as it would be from scratch.

    G's packing is the one packing of the pass.  A division that leaves
    it, or a prefix tail it does not fit, raises _Widen before `out` is
    touched, and buchberger packs G again and runs the pass again
    (`_packed`), as it does an S-pair: a carried prefix's packing is its
    earlier run's, and neither it nor the packing of G's own run need fit
    the terms a tail reduction makes.

    `out`, when given an empty DivisorBasis, receives the result with its
    lms, G's packing and G's keys of the lms, and each prefix element kept
    as it is with its packed tail from G.
    """
    order, lms = G.order, G.lms
    divisors = DivisorBasis(order)  # the kept elements, in G order
    divisors.packing = packing = G.packing
    guards, one = packing.guards, packing.one
    keys = G.keys  # sort as the lms do

    def divided(k, among):
        """Does the lm of an element of G in `among` divide the monomial
        whose key is k?"""
        return any(not (k - keys[j]) & guards for j in among)

    kept = []  # indices into G of the kept elements, ascending
    new = []  # those from index prefix on
    reduced = []  # (element, lm, packed tail or None, lm key), by lm
    for i in sorted(range(len(G)), key=keys.__getitem__):
        g = G.polys[i]
        lm = lms[i]
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
        if as_is:
            reduced.append((g, lm, G.tails[i], keys[i]))
        else:
            reduced.append(((_divide(g, divisors) if kept else g).scale(
                g.terms[lm].inverse()), lm, None, keys[i]))
        k = bisect.bisect(kept, i)
        kept.insert(k, i)
        divisors.insert(k, g, lm, G.tails[i], keys[i])
    if out is not None:
        out.packing = packing
        for r in reduced:
            out.append(*r)
    return [r[0] for r in reduced]


# --- ideal presentations ------------------------------------------------------


class IdealPresentation(Record):
    """Finite generator list plus the DivisorBasis of its reduced Groebner
    basis, computed once, which `normal_form` divides by.

    `order` is grevlex unless given.  `_prefix` is passed to `buchberger`:
    the DivisorBasis of a reduced basis under `order`, as `buchberger`
    fills it (another presentation's `divisors`), whose polynomials the
    first len(_prefix) generators equal term for term.  `_divisors`, when
    given, is the reduced basis, a DivisorBasis under `order`.  A Record
    of the context, the generators and the order only, so no cache or hint
    changes its equality.
    """

    _fields = ("ctx", "generators", "order")

    def __init__(self, ctx, generators, order=None, _prefix=None,
                 _divisors=None):
        self.ctx = ctx
        self.generators = generators
        self.order = MonomialOrder.grevlex() if order is None else order
        self._prefix = _prefix
        self._divisors = _divisors
        for g in self.generators:
            if g.ctx != self.ctx:
                raise ContextError("generator in wrong context")

    @property
    def divisors(self):
        """The reduced basis as a DivisorBasis, the one `buchberger` filled
        unless given at construction."""
        if self._divisors is None:
            divisors = DivisorBasis(self.order)
            buchberger(self.generators, self.order, self._prefix, divisors)
            self._divisors = divisors
        return self._divisors

    @property
    def reduced_gb(self):
        return self.divisors.polys

    @property
    def lms(self):
        """The leading monomials of the reduced basis, in order."""
        return self.divisors.lms

    def normal_form(self, f):
        if f.ctx != self.ctx:
            raise ContextError("polynomial in wrong context")
        return normal_form(f, self.divisors)

    def variables(self):
        out = set()
        for g in self.generators:
            out |= g.variables()
        return out


def elimination_presentation(I, keep):
    """I presented under the order that eliminates its variables outside
    `keep`: a block order, or plain grevlex when there are none; I itself
    when it has that order already."""
    eliminate = I.variables() - set(keep)
    order = (MonomialOrder.block_elim(eliminate) if eliminate
             else MonomialOrder.grevlex())
    return I if I.order == order else IdealPresentation(I.ctx, I.generators,
                                                        order)


def elimination_ideal(I, keep):
    """Generators of I intersected with the subring on `keep` variables.

    Reads the reduced basis of `elimination_presentation(I, keep)`, which a
    caller may have computed already; the returned presentation's
    generators are its reduced grevlex basis.
    """
    keep = set(keep)
    gb = elimination_presentation(I, keep).divisors
    # restricted to the kept variables the block order is plain grevlex,
    # so the kept elements are already the reduced grevlex basis of the
    # elimination ideal, with the same leads
    kept = DivisorBasis(MonomialOrder.grevlex())
    for g, lm in zip(gb.polys, gb.lms):
        if g.variables() <= keep:
            kept.append(g, lm)
    return IdealPresentation(I.ctx, list(kept.polys), kept.order,
                             _divisors=kept)


def rabinowitsch(gens, h):
    """(ctx2, gens + [1 - h*z]), z a fresh level-0 coordinate, coordinate
    n+1 of ctx2, and gens and h moved into ctx2.

    The ideal they generate presents the localization of (gens) at h; it is
    (1) exactly when h lies in the radical of (gens).
    """
    ctx = h.ctx
    ctx2 = ctx.with_n(ctx.n + 1)
    z = DiffPolynomial.var(ctx2, ctx2.n, (0,) * ctx2.m)
    gens2 = [g.with_context(ctx2) for g in gens]
    gens2.append(DiffPolynomial.from_int(ctx2, 1) - h.with_context(ctx2) * z)
    return ctx2, gens2


def radical_member(f, I):
    """Rabinowitsch test: f in the radical of I."""
    if f.ctx != I.ctx:
        raise ContextError("polynomial in wrong context")
    if f.is_zero():
        return True
    gb = buchberger(rabinowitsch(I.generators, f)[1], MonomialOrder.grevlex())
    return len(gb) == 1 and gb[0].is_constant()
