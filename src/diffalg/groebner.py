"""Buchberger-based ideal computations over the exact coefficient field.

Monomial orders are grevlex (default), lex, and block orders for
elimination.  The block order compares the eliminated block first, so the
basis elements free of eliminated variables generate the elimination ideal.
Reduced Groebner bases are unique for a fixed order, which is what makes
every downstream construction (prolongations, containment checks)
presentation-independent.

`normal_form` divides by a `DivisorBasis`: polynomials under one order,
each with its (leading monomial, leading coefficient, tail) computed
once, and a support mask of its leading monomial, one bit per
variable of the basis's leads.  `buchberger` grows one as it adds
S-polynomials, and hands over the leading monomials its final reduction
has, from which `IdealPresentation` and the kernels' saturation cache
prepare one per reduced basis, so no division re-derives a divisor's
leading term.

The masks screen every divisibility test: `normal_form` tries a divisor
only when its mask lies inside the term's, and `buchberger` never queues
a pair whose masks are disjoint (coprime leads).  The chain criterion
counts such a pair done when it sorts below the pair being processed,
exactly when a loop that queued it would already have popped it.  Bases,
reduction order and every coefficient operation are those of the loop
that queues every pair and tests every divisor.  `buchberger` also takes
a reduced prefix of its input, as iterated kernel prolongation produces
it: a reduced basis plus new relations is completed without re-pairing or
re-reducing the old elements, and with the leads handed over for it.
"""
from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass, field
from itertools import zip_longest

from .dpoly import (Context, DiffPolynomial, grevlex_key, mono_div,
                    mono_lcm, mono_mul, var_rank)
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

    def _block_key(self, mono):
        lead = self.leading
        inner = tuple(t for t in mono if t[0] in lead)
        outer = tuple(t for t in mono if t[0] not in lead)
        return (grevlex_key(inner), grevlex_key(outer))


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
    - `masks[i]`, the support mask of lm: the bits, in `bits`, of its
      variables.  The basis gives each variable of a lead its own bit when
      it first meets it, so a lm whose mask is not inside a monomial's
      `mask` cannot divide that monomial, and two lms whose masks are
      disjoint are coprime.
    """

    def __init__(self, order, polys=(), lms=None):
        """The divisors polys, in order; `lms`, when given, holds the
        leading monomials of the first len(lms) of them, so none of those
        is derived again."""
        self.order = order
        self.polys = []
        self.leads = []
        self.masks = []
        self.bits = {}
        for g, lm in zip_longest(polys, lms or ()):
            self.append(g, lm)

    def __len__(self):
        return len(self.polys)

    def mask(self, mono):
        """The bits of the variables of mono that this basis knows."""
        bits = self.bits
        out = 0
        for v, _ in mono:
            out |= bits.get(v, 0)
        return out

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
        bits = self.bits
        mask = 0
        for v, _ in lead[0]:
            bit = bits.get(v)
            if bit is None:
                bit = bits[v] = 1 << len(bits)
            mask |= bit
        self.polys.insert(k, g)
        self.leads.insert(k, lead)
        self.masks.insert(k, mask)


def normal_form(f, basis):
    """Full remainder of f under multivariate division by the DivisorBasis
    `basis`, the first divisor whose lm divides a term being the one used.

    Reduces in place in one {monomial: Coefficient} dict.  Each step does
    the Coefficient operations of p - (c/lc)*x^q*g term by term, in the
    same order, so rational-mode coefficients come out in the same form;
    the quotient is negated once per step, and (-k)*cb has the form of
    -(k*cb), as negation commutes with every Coefficient operation and
    reduction.  A divisor is tried only when its support mask lies inside
    the term's; the others cannot divide it.
    The remainder's terms are in descending order.
    """
    if not basis:
        return f
    sort_key = basis.order.sort_key
    leads, masks, bits = basis.leads, basis.masks, basis.bits
    p = dict(f.terms)
    keys = {mono: sort_key(mono) for mono in p}
    remainder = {}
    while p:
        mono = max(p, key=keys.__getitem__)
        c = p.pop(mono)
        have = 0  # basis.mask(mono), inline
        for w, _ in mono:
            have |= bits.get(w, 0)
        for mask, (lm, lc, tail) in zip(masks, leads):
            if mask & ~have:
                continue
            q = mono_div(mono, lm)
            if q is not None:
                # the leading terms cancel exactly
                k = -(c / lc)
                for mb, cb in tail:
                    m = mono_mul(q, mb)
                    v = k * cb
                    if m in p:
                        s = p[m] + v
                        if s.is_zero():
                            del p[m]
                        else:
                            p[m] = s
                    else:
                        p[m] = v
                        if m not in keys:
                            keys[m] = sort_key(m)
                break
        else:
            remainder[mono] = c
    return DiffPolynomial(f.ctx, remainder)


def _s_poly(f, g, lead_f, lead_g):
    ctx = f.ctx
    (lmf, lcf, _), (lmg, lcg, _) = lead_f, lead_g
    lcm = mono_lcm(lmf, lmg)
    uf = mono_div(lcm, lmf)
    ug = mono_div(lcm, lmg)
    return (DiffPolynomial(ctx, {uf: lcf.inverse()}) * f
            - DiffPolynomial(ctx, {ug: lcg.inverse()}) * g)


def buchberger(gens, order, prefix=0, lms=None, prefix_lms=None):
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
    given, holds the prefix's leading monomials, as `lms` received them
    when the prefix was computed, so none is derived again.

    `lms`, when given a list, receives the leading monomial of each
    element of the result, which the final reduction has in hand, so
    `DivisorBasis(order, basis, lms)` derives no leading term again.
    """
    G = DivisorBasis(order, [g for g in gens if not g.is_zero()], prefix_lms)
    if not G:
        return []
    polys, leads, masks = G.polys, G.leads, G.masks
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
        G.append(s)
        push_pairs(len(G) - 1)
    return _reduce_basis(G, prefix, lms)


def _divided(mono, have, lms):
    """Does one of the (mask, lm) pairs lms divide mono, whose mask under
    the same basis is `have`?"""
    return any(not mask & ~have and mono_div(mono, lm) is not None
               for mask, lm in lms)


def _reduce_basis(G, prefix=0, lms=None):
    """Reduced basis, ascending by lm, of the Groebner basis in the
    DivisorBasis G, in one pass in stable lm order.  Each element whose lm
    no kept lm divides is tail-reduced against the kept elements,
    unreduced and in G order, and made monic.  A lm never exceeds a term it
    divides, so later elements reduce no tail, and G order keeps
    normal_form's choice of divisor.  A constant sorts first and leaves the
    basis [1].  Every divisibility test is screened by G's support masks.

    The first `prefix` elements of G are a reduced basis as `buchberger`
    returns it, so only kept leads from later elements can divide their lms
    or terms.  One that no such lead divides is kept as it is: normal_form
    would return its terms unchanged, in the descending order they already
    have.  Element 0 alone may keep its generator's term order, so once
    something is kept before it, it goes through normal_form as it would
    from scratch.

    `lms`, when given, receives the lm of each element of the result.
    """
    order, leads, masks = G.order, G.leads, G.masks
    kept = []  # indices into G of the kept elements, ascending
    divisors = DivisorBasis(order)  # those elements, in the same order
    kept_lms = []  # (mask, lm) of the kept elements
    new_lms = []  # those from index prefix on
    reduced = []
    for i in sorted(range(len(G)), key=lambda i: order.sort_key(leads[i][0])):
        lm, lc, tail = leads[i]
        mask = masks[i]
        g = r = G.polys[i]
        if i < prefix:
            if _divided(lm, mask, new_lms):
                continue
            as_is = not kept or (i and not (new_lms and any(
                _divided(m, G.mask(m), new_lms) for m, _ in tail)))
        elif _divided(lm, mask, kept_lms):
            continue
        else:
            new_lms.append((mask, lm))
            as_is = False
        if not as_is:
            r = (normal_form(g, divisors) if kept else g).scale(lc.inverse())
        reduced.append(r)
        if lms is not None:
            lms.append(lm)
        kept_lms.append((mask, lm))
        k = bisect.bisect(kept, i)
        kept.insert(k, i)
        divisors.insert(k, g, leads[i])
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
    _lms: list = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for g in self.generators:
            if g.ctx != self.ctx:
                raise ContextError("generator in wrong context")

    @property
    def reduced_gb(self):
        if self._gb is None:
            self._lms = []
            self._gb = buchberger(self.generators, self.order, self._prefix,
                                  self._lms, self._prefix_lms)
        return self._gb

    @property
    def divisors(self):
        """The reduced basis as a DivisorBasis, prepared once, with the
        leading monomials `buchberger` handed over (derived for a `_gb`
        given at construction)."""
        if self._divisors is None:
            gb = self.reduced_gb
            self._divisors = DivisorBasis(self.order, gb, self._lms)
        return self._divisors

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


def rabinowitsch(gens, h, order, prefix=0, lms=None, prefix_lms=None):
    """Reduced basis of gens + (1 - h*z), z a fresh level-0 coordinate.

    Returns (ctx2, basis), z being coordinate n+1 of ctx2.  The ideal
    presents the localization of (gens) at h; it is (1) exactly when h lies
    in the radical of (gens).  `prefix`, `lms` and `prefix_lms` are
    passed to `buchberger`: the first `prefix` gens may be a reduced basis
    under `order`, with leading monomials `prefix_lms`, and `lms` receives
    the leading monomials of the basis.
    """
    ctx = h.ctx
    ctx2 = ctx.with_n(ctx.n + 1)
    z = DiffPolynomial.var(ctx2, ctx2.n, (0,) * ctx2.m)
    gens2 = [g.with_context(ctx2) for g in gens]
    gens2.append(DiffPolynomial.from_int(ctx2, 1) - h.with_context(ctx2) * z)
    return ctx2, buchberger(gens2, order, prefix, lms, prefix_lms)


def radical_member(f, I):
    """Rabinowitsch test: f in the radical of I."""
    if f.ctx != I.ctx:
        raise ContextError("polynomial in wrong context")
    if f.is_zero():
        return True
    _, gb = rabinowitsch(I.generators, f, MonomialOrder.grevlex())
    return len(gb) == 1 and gb[0].is_constant()
