"""Buchberger-based ideal computations over the exact coefficient field.

Monomial orders are grevlex (default), lex, and block orders for
elimination.  The block order compares the eliminated block first, so the
basis elements free of eliminated variables generate the elimination ideal.
Reduced Groebner bases are unique for a fixed order, which is what makes
every downstream construction (prolongations, containment checks)
presentation-independent.
"""
from __future__ import annotations

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


def normal_form(f, basis, order):
    """Full remainder of f under multivariate division by basis.

    Reduces in place in one {monomial: Coefficient} dict.  Each step does
    the Coefficient operations of p - (c/lc)*x^q*g term by term, in the
    same order, so rational-mode coefficients come out in the same form.
    """
    if not basis:
        return f
    sort_key = order.sort_key
    leads = []
    for g in basis:
        lm, lc = leading_term(g, order)
        leads.append((lm, lc, [t for t in g.terms.items() if t[0] != lm]))
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


def _s_poly(f, g, order):
    ctx = f.ctx
    lmf, lcf = leading_term(f, order)
    lmg, lcg = leading_term(g, order)
    lcm = mono_lcm(lmf, lmg)
    uf = mono_div(lcm, lmf)
    ug = mono_div(lcm, lmg)
    return (DiffPolynomial(ctx, {uf: lcf.inverse()}) * f
            - DiffPolynomial(ctx, {ug: lcg.inverse()}) * g)


def buchberger(gens, order):
    """Reduced Groebner basis of the ideal generated by gens.

    Classic Buchberger with the coprimality and chain criteria; pairs are
    processed from a heap of (lcm sort key, i, j), and the final
    reduction makes the result the unique reduced basis for the order.
    """
    G = [g for g in gens if not g.is_zero()]
    if not G:
        return []
    lms = [leading_term(g, order)[0] for g in G]
    pairs = []

    def push_pair(i, j):
        heapq.heappush(pairs, (order.sort_key(mono_lcm(lms[i], lms[j])), i, j))

    for i in range(len(G)):
        for j in range(i + 1, len(G)):
            push_pair(i, j)
    done = set()
    while pairs:
        _, i, j = heapq.heappop(pairs)
        done.add((i, j))
        if mono_coprime(lms[i], lms[j]):
            continue
        lcm = mono_lcm(lms[i], lms[j])
        chain = False
        for k in range(len(G)):
            if k in (i, j):
                continue
            if mono_div(lcm, lms[k]) is None:
                continue
            pik = (min(i, k), max(i, k))
            pjk = (min(j, k), max(j, k))
            if pik in done and pjk in done:
                chain = True
                break
        if chain:
            continue
        s = normal_form(_s_poly(G[i], G[j], order), G, order)
        if s.is_zero():
            continue
        t = len(G)
        G.append(s)
        lms.append(leading_term(s, order)[0])
        for k in range(t):
            push_pair(k, t)
    return _reduce_basis(G, order)


def _reduce_basis(G, order):
    """Minimalize, tail-reduce, normalize monic, sort ascending by lm."""
    lms = [leading_term(g, order)[0] for g in G]
    keep = []
    for i, lm in enumerate(lms):
        redundant = False
        for j, other in enumerate(lms):
            if i == j:
                continue
            if mono_div(lm, other) is not None:
                # break ties deterministically so exactly one survives
                if other != lm or j < i:
                    redundant = True
                    break
        if not redundant:
            keep.append(G[i])
    reduced = []
    for idx, g in enumerate(keep):
        others = keep[:idx] + keep[idx + 1:]
        r = normal_form(g, others, order) if others else g
        if r.is_zero():
            continue
        _, lc = leading_term(r, order)
        reduced.append(r.scale(lc.inverse()))
    reduced.sort(key=lambda g: order.sort_key(leading_term(g, order)[0]))
    # unit ideal collapses to {1}
    for g in reduced:
        if g.is_constant():
            return [DiffPolynomial.from_int(g.ctx, 1)]
    return reduced


# --- ideal presentations ------------------------------------------------------


@dataclass
class IdealPresentation:
    """Finite generator list plus a cached reduced Groebner basis."""

    ctx: Context
    generators: list
    order: MonomialOrder = field(default_factory=MonomialOrder.grevlex)
    _gb: list = field(default=None, repr=False)

    def __post_init__(self):
        for g in self.generators:
            if g.ctx != self.ctx:
                raise ContextError("generator in wrong context")

    @property
    def reduced_gb(self):
        if self._gb is None:
            self._gb = buchberger(self.generators, self.order)
        return self._gb

    def normal_form(self, f):
        if f.ctx != self.ctx:
            raise ContextError("polynomial in wrong context")
        return normal_form(f, self.reduced_gb, self.order)

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


def rabinowitsch(gens, h, order):
    """Reduced basis of gens + (1 - h*z), z a fresh level-0 coordinate.

    Returns (ctx2, basis), z being coordinate n+1 of ctx2.  The ideal
    presents the localization of (gens) at h; it is (1) exactly when h lies
    in the radical of (gens).
    """
    ctx = h.ctx
    ctx2 = ctx.with_n(ctx.n + 1)
    z = DiffPolynomial.var(ctx2, ctx2.n, (0,) * ctx2.m)
    gens2 = [g.with_context(ctx2) for g in gens]
    gens2.append(DiffPolynomial.from_int(ctx2, 1) - h.with_context(ctx2) * z)
    return ctx2, buchberger(gens2, order)


def radical_member(f, I):
    """Rabinowitsch test: f in the radical of I."""
    if f.ctx != I.ctx:
        raise ContextError("polynomial in wrong context")
    if f.is_zero():
        return True
    _, gb = rabinowitsch(I.generators, f, MonomialOrder.grevlex())
    return len(gb) == 1 and gb[0].is_constant()
