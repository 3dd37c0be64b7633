"""Buchberger-based ideal computations over the exact coefficient field.

Monomial orders are grevlex (default), lex, and block orders for
elimination.  The block order compares the eliminated block first, so the
basis elements free of eliminated variables generate the elimination ideal.
Reduced Groebner bases are unique for a fixed order, which is what makes
every downstream construction (prolongations, containment checks)
presentation-independent.

`normal_form` divides by a `DivisorBasis`: polynomials under one order,
each with its (leading monomial, leading coefficient, tail) computed once.
`buchberger` grows one as it adds S-polynomials, and `IdealPresentation`
and the kernels' saturation cache one per reduced basis, so no division
re-derives a divisor's leading term.  `buchberger` also takes a reduced
prefix of its input, as iterated kernel prolongation produces it: a
reduced basis plus new relations is completed without re-pairing or
re-reducing the old elements.
"""
from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass, field

from .dpoly import (Context, DiffPolynomial, grevlex_key, mono_coprime,
                    mono_div, mono_lcm, mono_mul, var_rank)
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
    `polys[i]` with `leads[i] = (lm, lc, tail)`, its leading monomial and
    coefficient and its other terms, computed once when it is added."""

    def __init__(self, order, polys=()):
        self.order = order
        self.polys = []
        self.leads = []
        for g in polys:
            self.append(g)

    def __len__(self):
        return len(self.polys)

    def append(self, g):
        """Add the nonzero g as the last divisor."""
        lm, lc = leading_term(g, self.order)
        self.insert(len(self.polys), g,
                    (lm, lc, [t for t in g.terms.items() if t[0] != lm]))

    def insert(self, k, g, lead):
        """Put g, with its (lm, lc, tail) lead, at position k."""
        self.polys.insert(k, g)
        self.leads.insert(k, lead)


def normal_form(f, basis):
    """Full remainder of f under multivariate division by the DivisorBasis
    `basis`, the first divisor whose lm divides a term being the one used.

    Reduces in place in one {monomial: Coefficient} dict.  Each step does
    the Coefficient operations of p - (c/lc)*x^q*g term by term, in the
    same order, so rational-mode coefficients come out in the same form.
    The remainder's terms are in descending order.
    """
    if not basis:
        return f
    sort_key = basis.order.sort_key
    leads = basis.leads
    p = dict(f.terms)
    keys = {mono: sort_key(mono) for mono in p}
    remainder = {}
    while p:
        mono = max(p, key=keys.__getitem__)
        c = p.pop(mono)
        for lm, lc, tail in leads:
            q = mono_div(mono, lm)
            if q is not None:
                # the leading terms cancel exactly
                k = c / lc
                for mb, cb in tail:
                    m = mono_mul(q, mb)
                    v = -(k * cb)
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


def buchberger(gens, order, prefix=0):
    """Reduced Groebner basis of the ideal generated by gens.

    Classic Buchberger with the coprimality and chain criteria, pairs taken
    from a heap of (lcm sort key, i, j), S-polynomials reduced against one
    DivisorBasis that grows with the basis; the final reduction gives the
    unique reduced basis, ascending by lm.

    The first `prefix` gens may be a reduced basis under `order`, nonzero,
    monic and ascending by lm, as this function returns it.  Only pairs
    with a later element are then queued (pairs within the prefix count as
    done for the chain criterion), and the final reduction keeps each
    prefix element as it is unless a new lead divides one of its terms.
    The result is the same basis as with prefix 0.
    """
    G = DivisorBasis(order, [g for g in gens if not g.is_zero()])
    if not G:
        return []
    polys, leads = G.polys, G.leads
    pairs = []

    def push_pair(i, j):
        lcm = mono_lcm(leads[i][0], leads[j][0])
        heapq.heappush(pairs, (order.sort_key(lcm), i, j))

    def is_done(a, b):
        pair = (a, b) if a < b else (b, a)
        return pair[1] < prefix or pair in done

    for j in range(prefix, len(G)):
        for i in range(j):
            push_pair(i, j)
    done = set()
    while pairs:
        _, i, j = heapq.heappop(pairs)
        done.add((i, j))
        if mono_coprime(leads[i][0], leads[j][0]):
            continue
        lcm = mono_lcm(leads[i][0], leads[j][0])
        chain = False
        for k in range(len(G)):
            if k in (i, j):
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
        t = len(G)
        G.append(s)
        for k in range(t):
            push_pair(k, t)
    return _reduce_basis(G, prefix)


def _reduce_basis(G, prefix=0):
    """Reduced basis, ascending by lm, of the Groebner basis in the
    DivisorBasis G, in one pass in stable lm order.  Each element whose lm
    no kept lm divides is tail-reduced against the kept elements,
    unreduced and in G order, and made monic.  A lm never exceeds a term it
    divides, so later elements reduce no tail, and G order keeps
    normal_form's choice of divisor.  A constant sorts first and leaves the
    basis [1].

    The first `prefix` elements of G are a reduced basis as `buchberger`
    returns it, so only kept leads from later elements can divide their lms
    or terms.  One that no such lead divides is kept as it is: normal_form
    would return its terms unchanged, in the descending order they already
    have.  Element 0 alone may keep its generator's term order, so once
    something is kept before it, it goes through normal_form as it would
    from scratch.
    """
    order, leads = G.order, G.leads
    kept = []  # indices into G of the kept elements, ascending
    divisors = DivisorBasis(order)  # those elements, in the same order
    new_lms = []  # the lms of the kept elements from index prefix on
    reduced = []
    for i in sorted(range(len(G)), key=lambda i: order.sort_key(leads[i][0])):
        lm, lc, tail = leads[i]
        g = r = G.polys[i]
        if i < prefix:
            if any(mono_div(lm, n) is not None for n in new_lms):
                continue
            as_is = not kept or (i and not any(
                mono_div(m, n) is not None for m, _ in tail for n in new_lms))
        elif any(mono_div(lm, d[0]) is not None for d in divisors.leads):
            continue
        else:
            new_lms.append(lm)
            as_is = False
        if not as_is:
            r = (normal_form(g, divisors) if kept else g).scale(lc.inverse())
        reduced.append(r)
        k = bisect.bisect(kept, i)
        kept.insert(k, i)
        divisors.insert(k, g, leads[i])
    return reduced


# --- ideal presentations ------------------------------------------------------


@dataclass
class IdealPresentation:
    """Finite generator list plus its cached reduced Groebner basis and the
    DivisorBasis of that basis, which `normal_form` divides by.

    `_prefix` is passed to `buchberger`: the first `_prefix` generators
    may be a reduced basis under `order`, as `buchberger` returns it.
    """

    ctx: Context
    generators: list
    order: MonomialOrder = field(default_factory=MonomialOrder.grevlex)
    _gb: list = field(default=None, repr=False)
    _prefix: int = field(default=0, repr=False)
    _divisors: DivisorBasis = field(default=None, init=False, repr=False,
                                    compare=False)

    def __post_init__(self):
        for g in self.generators:
            if g.ctx != self.ctx:
                raise ContextError("generator in wrong context")

    @property
    def reduced_gb(self):
        if self._gb is None:
            self._gb = buchberger(self.generators, self.order, self._prefix)
        return self._gb

    @property
    def divisors(self):
        """The reduced basis as a DivisorBasis, prepared once."""
        if self._divisors is None:
            self._divisors = DivisorBasis(self.order, self.reduced_gb)
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


def rabinowitsch(gens, h, order, prefix=0):
    """Reduced basis of gens + (1 - h*z), z a fresh level-0 coordinate.

    Returns (ctx2, basis), z being coordinate n+1 of ctx2.  The ideal
    presents the localization of (gens) at h; it is (1) exactly when h lies
    in the radical of (gens).  `prefix` is passed to `buchberger`: the
    first `prefix` gens may be a reduced basis under `order`.
    """
    ctx = h.ctx
    ctx2 = ctx.with_n(ctx.n + 1)
    z = DiffPolynomial.var(ctx2, ctx2.n, (0,) * ctx2.m)
    gens2 = [g.with_context(ctx2) for g in gens]
    gens2.append(DiffPolynomial.from_int(ctx2, 1) - h.with_context(ctx2) * z)
    return ctx2, buchberger(gens2, order, prefix)


def radical_member(f, I):
    """Rabinowitsch test: f in the radical of I."""
    if f.ctx != I.ctx:
        raise ContextError("polynomial in wrong context")
    if f.is_zero():
        return True
    _, gb = rabinowitsch(I.generators, f, MonomialOrder.grevlex())
    return len(gb) == 1 and gb[0].is_constant()
