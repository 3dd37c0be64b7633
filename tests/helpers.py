"""Shared corpus generators for the test suite.

Everything is seeded; corpora are deterministic across runs.
"""
from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass

from diffalg import coeff, groebner
from diffalg.axioms import ContainmentVerdict
from diffalg.coeff import (Coefficient, FieldMode, _padd, _pcontent, _plead,
                           _pneg, add_into)
from diffalg.dpoly import (Context, DiffPolynomial, _Tokenizer,
                           derivation_image, mono_lcm, mono_mul, print_poly,
                           var_rank, var_str)
from diffalg.errors import ContextError, ParseError
from diffalg.groebner import (DivisorBasis, IdealPresentation, MonomialOrder,
                              elimination_ideal, leading_term, normal_form)
from diffalg.indices import (axiom_sizes, check_coordinates, deg, gamma_set,
                             index_sort_key, shift)
from diffalg.kernels import (KernelPresentation, KernelValidationError,
                             ObstructionWitness, ProlongResult,
                             kernel_validate, violation)


# --- plain-tuple monomial keys, the reference for packed keys ---------------


def mono_div(a, b):
    """a / b, or None when b does not divide a."""
    need = dict(b)
    out = []
    for v, e in a:
        e -= need.pop(v, 0)
        if e < 0:
            return None
        if e:
            out.append((v, e))
    return None if need else tuple(out)


def grevlex_key(mono):
    """Graded reverse lex: higher degree wins, then the smaller exponent in
    the least significant variable where the monomials differ."""
    return (sum(e for _, e in mono), tuple((var_rank(v), -e) for v, e in mono))


def _lex_key(mono):
    return tuple((var_rank(v), e) for v, e in reversed(mono))


def sort_key(order):
    """The plain-tuple sort key of the MonomialOrder `order`: a monomial
    sorts below another exactly when its key does.

    - grevlex: ``(degree, ((var_rank(v), -e) for v, e in mono))``, the
      pairs in ascending rank;
    - lex: ``((var_rank(v), e) for v, e in reversed(mono))``, most
      significant variable first;
    - block: ``(grevlex key of the eliminated part, grevlex key of the
      rest)``, so the eliminated block is compared first.
    """
    if order.kind == "grevlex":
        return grevlex_key
    if order.kind == "lex":
        return _lex_key
    lead = order.leading

    def block_key(mono):
        inner = tuple(t for t in mono if t[0] in lead)
        outer = tuple(t for t in mono if t[0] not in lead)
        return (grevlex_key(inner), grevlex_key(outer))
    return block_key


def rand_rational(rng, span=3):
    p = rng.randint(-span, span)
    q = rng.choice([1, 1, 2, 3])
    return p, q


def rand_coeff(rng, nv, allow_base=True):
    p, q = rand_rational(rng)
    c = Coefficient.from_rational(p, q, nv)
    if nv and allow_base and rng.random() < 0.4:
        c = c + Coefficient.base_var(rng.randint(1, nv), nv)
    return c


def rand_dpoly(rng, ctx, variables, max_deg=3, max_terms=3, nonzero=True):
    """A sparse random polynomial in the given variables."""
    variables = list(variables)
    while True:
        f = DiffPolynomial.zero(ctx)
        for _ in range(rng.randint(1, max_terms)):
            term = DiffPolynomial.const(ctx, rand_coeff(rng, ctx.nv))
            deg = rng.randint(0, max_deg)
            for _ in range(deg):
                i, xi = rng.choice(variables)
                term = term * DiffPolynomial.var(ctx, i, xi)
            f = f + term
        if not nonzero or not f.is_zero():
            return f


def graph_kernel(rng, mode_kind="constants"):
    """A length-r kernel whose top derivatives are graphs over the lower ones.

    The ideal is generated by x_i^(r) - q_i(levels <= r-1), which presents a
    genuine kernel: the lower variables stay algebraically independent, so
    the derivation extends freely.
    """
    n = rng.choice([1, 2])
    r = rng.choice([1, 1, 2])
    ctx = Context(n=n, m=1, mode=FieldMode(mode_kind, 1))
    lower = [(i, (j,)) for i in range(1, n + 1) for j in range(r)]
    gens = []
    for i in range(1, n + 1):
        q = rand_dpoly(rng, ctx, lower, max_deg=3, max_terms=2, nonzero=False)
        gens.append(DiffPolynomial.var(ctx, i, (r,)) - q)
    return KernelPresentation(ctx=ctx, r=r, ideal=IdealPresentation(ctx, gens))


def ode_kernel(roots, mode_kind="constants"):
    """The kernel of an order-1 equation: f(x) with distinct rational roots,
    together with its formal derivative."""
    ctx = Context(n=1, m=1, mode=FieldMode(mode_kind, 1))
    x0 = DiffPolynomial.var(ctx, 1, (0,))
    f = DiffPolynomial.from_int(ctx, 1)
    for a in roots:
        f = f * (x0 - DiffPolynomial.from_int(ctx, a))
    gens = [f, derivation_image(f, 1)]
    return KernelPresentation(ctx=ctx, r=1, ideal=IdealPresentation(ctx, gens))


def kernel_corpus(count=50, seed=20240817):
    """Mixed corpus of valid ordinary kernels for the Lando property runs."""
    rng = random.Random(seed)
    out = []
    root_sets = [(0,), (1,), (2, -1), (1, -1), (0, 3)]
    for idx in range(count):
        if idx % 5 == 4:
            out.append(ode_kernel(root_sets[(idx // 5) % len(root_sets)],
                                  "constants" if idx % 2 else "rational"))
        else:
            out.append(graph_kernel(rng,
                                    "rational" if idx % 3 == 0 else "constants"))
    return out


def locus_with_point(rng, n, m):
    """A rational-mode point a = (p_1(t), ..., p_n(t)) and generators of a
    variety through it, built as g_j(x) - g_j(a)."""
    ctx = Context(n=n, m=m, mode=FieldMode("rational", m))
    nv = ctx.nv
    point = []
    for _ in range(n):
        c = Coefficient.from_rational(*rand_rational(rng), nv)
        for k in range(1, m + 1):
            if rng.random() < 0.7:
                p, q = rand_rational(rng, span=2)
                c = c + (Coefficient.from_rational(p, q, nv)
                         * Coefficient.base_var(k, nv) ** _small_pow(rng))
        point.append(c)
    zero = (0,) * m
    base_vars = [(i, zero) for i in range(1, n + 1)]
    gens = []
    for _ in range(rng.randint(1, 2)):
        g = rand_dpoly(rng, ctx, base_vars, max_deg=2, max_terms=2,
                       nonzero=False)
        value = g.evaluate({v: point[v[0] - 1] for v in base_vars})
        gens.append(g - DiffPolynomial.const(ctx, value))
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        gens = [DiffPolynomial.var(ctx, 1, zero)
                - DiffPolynomial.const(ctx, point[0])]
    return IdealPresentation(ctx, gens), point


def _small_pow(rng):
    return rng.choice([1, 1, 2])


def finite_solution_ideal(rng, ctx):
    """An ideal with a finite rational solution set plus the known solutions.

    Per variable a product of distinct integer-root linear factors; the
    solution set is the full grid of root combinations.
    """
    zero_xi = (0,) * ctx.m
    variables = [(i, zero_xi) for i in range(1, ctx.n + 1)]
    gens = []
    roots = {}
    for v in variables:
        vals = rng.sample(range(-3, 4), rng.randint(1, 2))
        roots[v] = vals
        g = DiffPolynomial.from_int(ctx, 1)
        xv = DiffPolynomial.var(ctx, v[0], v[1])
        for a in vals:
            g = g * (xv - DiffPolynomial.from_int(ctx, a))
        gens.append(g)
    solutions = [{}]
    for v in variables:
        solutions = [{**s, v: a} for s in solutions for a in roots[v]]
    points = [{v: Coefficient.from_int(a, ctx.nv) for v, a in s.items()}
              for s in solutions]
    return IdealPresentation(ctx, gens), variables, points


def brute_force_solutions(I, variables, box=range(-4, 5)):
    """Exhaustively search an integer box for common zeros of I's generators."""
    nv = I.ctx.nv
    found = []

    def rec(assignment, remaining):
        if not remaining:
            point = {v: Coefficient.from_int(a, nv)
                     for v, a in assignment.items()}
            if all(g.evaluate(point).is_zero() for g in I.generators):
                found.append(point)
            return
        v = remaining[0]
        for a in box:
            assignment[v] = a
            rec(assignment, remaining[1:])
        del assignment[v]

    rec({}, list(variables))
    return found


def naive_normal_form(f, basis, order):
    """Reference remainder: the textbook division loop on whole polynomials.

    Each step subtracts (c/lc)*x^q*g as a DiffPolynomial and moves an
    irreducible leading term to the remainder by adding and subtracting it,
    which fixes the order of every Coefficient operation.
    """
    ctx = f.ctx
    if not basis:
        return f
    leads = [(leading_term(g, order), g) for g in basis]
    remainder = DiffPolynomial.zero(ctx)
    p = f
    while not p.is_zero():
        mono, c = leading_term(p, order)
        reduced = False
        for (lm, lc), g in leads:
            q = mono_div(mono, lm)
            if q is not None:
                p = p - DiffPolynomial(ctx, {q: c / lc}) * g
                reduced = True
                break
        if not reduced:
            remainder = remainder + DiffPolynomial(ctx, {mono: c})
            p = p - DiffPolynomial(ctx, {mono: c})
    return remainder


def reference_normal_form(f, basis):
    """Reference remainder for groebner.normal_form: its loop on tuple
    monomials, before packed keys.  Each term's sort key is kept in a dict,
    the order-largest term is popped with max, the first divisor whose lm
    divides it is found with mono_div, and each tail term is multiplied in
    with mono_mul.  (That loop also screened divisors by support masks,
    which skip only divisors that mono_div rejects.)"""
    if not basis:
        return f
    key = sort_key(basis.order)
    leads = [(lm, g.terms[lm], [t for t in g.terms.items() if t[0] != lm])
             for g, lm in zip(basis.polys, basis.lms)]
    p = dict(f.terms)
    keys = {mono: key(mono) for mono in p}
    remainder = {}
    while p:
        mono = max(p, key=keys.__getitem__)
        c = p.pop(mono)
        for lm, lc, tail in leads:
            q = mono_div(mono, lm)
            if q is not None:
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
                            keys[m] = key(m)
                break
        else:
            remainder[mono] = c
    return DiffPolynomial(f.ctx, remainder)


def naive_reduce_basis(G, order):
    """Reference inter-reduction of a Groebner basis G: all-pairs
    minimalization with a tie-break, each survivor tail-reduced against all
    the others in G order, made monic, then sorted by lm; the unit ideal is
    collapsed to [1] at the end."""
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
        r = normal_form(g, DivisorBasis(order, others)) if others else g
        if r.is_zero():
            continue
        _, lc = leading_term(r, order)
        reduced.append(r.scale(lc.inverse()))
    key = sort_key(order)
    reduced.sort(key=lambda g: key(leading_term(g, order)[0]))
    # unit ideal collapses to {1}
    for g in reduced:
        if g.is_constant():
            return [DiffPolynomial.from_int(g.ctx, 1)]
    return reduced


# --- integer polynomials keyed by exponent tuples ----------------------------


def to_tkeys(p, nv):
    """The {t-key: int} form of the {exponent tuple: int} dict p, in p's
    order, in slots of coeff.T_BITS bits as that is when called."""
    bits = coeff.T_BITS
    return {sum(e << bits * (nv - 1 - j) for j, e in enumerate(exps)): c
            for exps, c in p.items()}


def from_tkeys(p, nv):
    """The {exponent tuple: int} form of the {t-key: int} dict p."""
    bits = coeff.T_BITS
    mask = (1 << bits) - 1
    return {tuple(k >> bits * (nv - 1 - j) & (mask if j else -1)
                  for j in range(nv)): c for k, c in p.items()}


def reference_pmul(a, b):
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


def reference_pmonomial_content(a):
    it = iter(a)
    mins = list(next(it))
    for exps in it:
        for j, e in enumerate(exps):
            if e < mins[j]:
                mins[j] = e
    return tuple(mins)


def reference_pderiv(a, k):
    j = k - 1
    return add_into({}, ((exps[:j] + (exps[j] - 1,) + exps[j + 1:],
                          c * exps[j]) for exps, c in a.items() if exps[j]))


def reference_pexact_div(a, b):
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
        r = _padd(r, _pneg(reference_pmul({eq: cq}, b)))
    return q


def reference_tmono_str(exps):
    return "*".join("t%d" % j if e == 1 else "t%d^%d" % (j, e)
                    for j, e in enumerate(exps, 1) if e)


def reference_reduce(num, den):
    """Reference rational-mode reduction on exponent-tuple dicts:
    Coefficient._reduce with no shortcut, so every denominator, constant or
    not, goes through the monomial shift and the exact-division attempt."""
    nv = len(next(iter(den)))
    if not num:
        return {}, {(0,) * nv: 1}
    g = math.gcd(_pcontent(num), _pcontent(den))
    if g > 1:
        num = {e: c // g for e, c in num.items()}
        den = {e: c // g for e, c in den.items()}
    mn = reference_pmonomial_content(num)
    md = reference_pmonomial_content(den)
    common = tuple(min(x, y) for x, y in zip(mn, md))
    num = {tuple(e - m for e, m in zip(exps, common)): c
           for exps, c in num.items()}
    den = {tuple(e - m for e, m in zip(exps, common)): c
           for exps, c in den.items()}
    q = reference_pexact_div(num, den)
    if q is not None:
        num = q
        den = {(0,) * nv: 1}
    # sign convention: lex-leading coefficient of the denominator positive
    if _plead(den)[1] < 0:
        num = _pneg(num)
        den = _pneg(den)
    return num, den


def _reference_mono(exps):
    return tuple(sorted(exps.items(), key=lambda kv: var_rank(kv[0])))


def reference_mono_mul(a, b):
    """Reference monomial product: add exponents in a dict, sort by rank."""
    exps = dict(a)
    for v, e in b:
        exps[v] = exps.get(v, 0) + e
    return _reference_mono(exps)


def reference_mul(f, g):
    """Reference DiffPolynomial product: the double loop keyed by tuple
    monomials, adding each ca * cb to the term it meets and dropping a
    term whose sum is zero."""
    terms = {}
    for ma, ca in f.terms.items():
        for mb, cb in g.terms.items():
            mono = mono_mul(ma, mb)
            c = ca * cb
            if mono in terms:
                c = terms[mono] + c
            if c.is_zero():
                terms.pop(mono, None)
            else:
                terms[mono] = c
    return DiffPolynomial(f.ctx, terms)


def reference_pow(f, e):
    """f ** e by the binary powering of DiffPolynomial.__pow__, each
    product by reference_mul."""
    result = DiffPolynomial.from_int(f.ctx, 1)
    base = f
    while e:
        if e & 1:
            result = reference_mul(result, base)
        base = reference_mul(base, base) if e > 1 else base
        e >>= 1
    return result


def reference_mono_lcm(a, b):
    """Reference monomial lcm: take the larger exponent in a dict, sort by
    rank."""
    exps = dict(a)
    for v, e in b:
        if exps.get(v, 0) < e:
            exps[v] = e
    return _reference_mono(exps)


def _coprime(a, b):
    vb = {v for v, _ in b}
    return all(v not in vb for v, _ in a)


def reference_s_poly(f, g, lmf, lmg):
    """The S-polynomial x^uf*f/lc(f) - x^ug*g/lc(g), formed as whole
    polynomials on tuple monomials: two single-term products and a
    difference."""
    ctx = f.ctx
    lcm = mono_lcm(lmf, lmg)
    uf = mono_div(lcm, lmf)
    ug = mono_div(lcm, lmg)
    return (DiffPolynomial(ctx, {uf: f.terms[lmf].inverse()}) * f
            - DiffPolynomial(ctx, {ug: g.terms[lmg].inverse()}) * g)


def reference_s_remainder(G, i, j):
    """groebner.normal_form of reference_s_poly of the divisors i < j of
    the DivisorBasis G, by G."""
    return groebner.normal_form(
        reference_s_poly(G.polys[i], G.polys[j], G.lms[i], G.lms[j]), G)


def reference_buchberger(gens, order, prefix=0, coprime_queries=None):
    """Reference pair loop for groebner.buchberger: every pair, coprime
    ones included, goes on the heap of (lcm sort key, i, j), and a pair is
    done once it is popped; coprime pairs are skipped when popped.

    S-pairs are reduced through reference_s_remainder, looked up when
    called, so a test can log the reductions.  Each chain-criterion
    question about a coprime pair outside the prefix is appended to
    `coprime_queries`, when given, as (done, sorts below the pair being
    processed, popped before a pair that sorts below it was queued).
    """
    G = DivisorBasis(order, [g for g in gens if not g.is_zero()])
    if not G:
        return []
    lms = G.lms  # grows with G
    pairs = []
    queued = []  # every heap entry, in the order queued
    popped_at = {}  # (i, j): len(queued) when it was popped
    current = None
    key = sort_key(order)

    def entry(i, j):
        return (key(mono_lcm(lms[i], lms[j])), i, j)

    def push(i, j):
        queued.append(entry(i, j))
        heapq.heappush(pairs, queued[-1])

    def is_done(a, b):
        pair = (a, b) if a < b else (b, a)
        if pair[1] < prefix:
            return True
        done = pair in popped_at
        if coprime_queries is not None and _coprime(lms[a], lms[b]):
            mine = entry(*pair)
            coprime_queries.append((
                done, mine < current,
                done and any(q < mine for q in queued[popped_at[pair]:])))
        return done

    for j in range(prefix, len(G)):
        for i in range(j):
            push(i, j)
    while pairs:
        current = heapq.heappop(pairs)
        _, i, j = current
        popped_at[(i, j)] = len(queued)
        if _coprime(lms[i], lms[j]):
            continue
        lcm = mono_lcm(lms[i], lms[j])
        chain = False
        for k in range(len(G)):
            if k in (i, j):
                continue
            if mono_div(lcm, lms[k]) is None:
                continue
            if is_done(i, k) and is_done(j, k):
                chain = True
                break
        if chain:
            continue
        s = reference_s_remainder(G, i, j)
        if s.is_zero():
            continue
        t = len(G)
        G.append(s)
        for k in range(t):
            push(k, t)
    return groebner._packed(G, groebner._reduce_basis, G, prefix)


def _partial_derivative(f, v):
    """Formal d/dv of f for a variable v = (i, xi)."""
    terms = {}
    for mono, c in f.terms.items():
        for w, e in mono:
            if w == v:
                break
        else:
            continue  # v does not occur in this term
        nmono = mono_div(mono, ((v, 1),))
        nc = c.scale_int(e)
        if nmono in terms:
            nc = terms[nmono] + nc
        if nc.is_zero():
            terms.pop(nmono, None)
        else:
            terms[nmono] = nc
    return DiffPolynomial(f.ctx, terms)


def _coefficient_forms(f):
    """f's terms in order, each coefficient as the numerator and
    denominator it holds: two rational forms of one value differ here."""
    return [(mono, c.num, c.den) for mono, c in f.terms.items()]


def reference_derivation_image(f, k):
    """Reference D_k-image: f^{delta_k} plus, per variable in ascending
    var_rank, the partial derivative times the shifted variable, each added
    as a whole polynomial."""
    ctx = f.ctx
    out = f.coeff_derivative(k)
    for v in sorted(f.variables(), key=var_rank):
        pd = _partial_derivative(f, v)
        if pd.is_zero():
            continue
        i, xi = v
        out = out + pd * DiffPolynomial.var(ctx, i, shift(xi, k))
    return out


@dataclass
class _Row:
    """One linear constraint: sum coeffs[u] * u + const = 0."""

    coeffs: dict  # {unknown var: DiffPolynomial}
    const: DiffPolynomial
    provenance: set

    def relation(self):
        """const + sum coeffs[u] * u, the unknowns in var_rank order."""
        rel = self.const
        for u, p in sorted(self.coeffs.items(), key=lambda t: var_rank(t[0])):
            rel = rel + p * DiffPolynomial.var(rel.ctx, *u)
        return rel


def _split_linear(img, unknowns, ideal):
    """Separate a D_k-image into per-unknown coefficients and a constant part.

    Every monomial of the image carries at most one unknown, with exponent
    one, because the image is affine-linear in the shifted top variables.
    """
    ctx = img.ctx
    coeff_terms = {}
    const_terms = {}
    for mono, c in img.terms.items():
        hit = [v for v, _ in mono if v in unknowns]
        if not hit:
            const_terms[mono] = c
            continue
        (u,) = hit
        rest = tuple(t for t in mono if t[0] != u)
        coeff_terms.setdefault(u, {})[rest] = c
    coeffs = {u: ideal.normal_form(DiffPolynomial(ctx, terms))
              for u, terms in coeff_terms.items()}
    coeffs = {u: p for u, p in coeffs.items() if not p.is_zero()}
    return coeffs, ideal.normal_form(DiffPolynomial(ctx, const_terms))


def reference_kernel_prolong_once(Kp):
    """Reference kernel_prolong_once: each row held as per-unknown
    coefficients plus a constant, each part divided on its own, combined
    unknown by unknown, and rebuilt into a polynomial for the witness and
    the pivot relations."""
    if not Kp.validated:
        report = kernel_validate(Kp)
        if not report.valid:
            raise KernelValidationError(report)
    ctx, r = Kp.ctx, Kp.r
    levels = gamma_set(ctx.m, r + 1)
    check_coordinates("n*|Gamma(%d)|" % (r + 1), ctx.n * len(levels))
    top = [xi for xi in levels if deg(xi) == r + 1]
    unknowns = [(i, xi) for xi in top for i in range(1, ctx.n + 1)]
    unknown_set = set(unknowns)

    rows = []
    gb = Kp.ideal.reduced_gb
    for idx, f in enumerate(gb):
        if f.max_level() != r:
            continue
        for k in range(1, ctx.m + 1):
            coeffs, const = _split_linear(derivation_image(f, k), unknown_set,
                                          Kp.ideal)
            if coeffs or not const.is_zero():
                rows.append(_Row(coeffs=coeffs, const=const,
                                 provenance={(idx, k)}))

    localized = Kp  # the kernel's field, localized at the pivots so far
    solved = []
    for u in sorted(unknowns, key=var_rank):
        pivot = next((row for row in rows if u in row.coeffs
                      and not localized.is_zero_mod(row.coeffs[u])), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        d = pivot.coeffs[u]
        if not d.is_constant() and d not in localized.inverted:
            localized = KernelPresentation(ctx=ctx, r=r, ideal=Kp.ideal,
                                           inverted=localized.inverted + [d])
        for row in rows:
            c = row.coeffs.get(u)
            if c is None or c.is_zero():
                continue
            new_coeffs = {}
            for v in set(row.coeffs) | set(pivot.coeffs):
                combo = (d * row.coeffs.get(v, DiffPolynomial.zero(ctx))
                         - c * pivot.coeffs.get(v, DiffPolynomial.zero(ctx)))
                combo = Kp.ideal.normal_form(combo)
                if not combo.is_zero():
                    new_coeffs[v] = combo
            row.coeffs = new_coeffs
            row.const = Kp.ideal.normal_form(d * row.const - c * pivot.const)
            row.provenance |= pivot.provenance
        solved.append(pivot)

    for row in rows:
        # all unknown coefficients are zero in the kernel's field here
        if not localized.is_zero_mod(row.const):
            witness = ObstructionWitness(
                relation=row.relation(),
                normal_form=row.const,  # reduced by _split_linear or a pivot
                provenance=sorted(row.provenance),
            )
            return ProlongResult(status="obstructed", witness=witness)

    # gb is a reduced lex basis: as buchberger's prefix it is neither
    # re-paired nor re-reduced, only completed with the pivot relations
    new_gens = list(gb) + [pivot.relation() for pivot in solved]
    next_kernel = KernelPresentation(
        ctx=ctx, r=r + 1,
        ideal=IdealPresentation(ctx, new_gens, MonomialOrder.lex(),
                                _prefix=Kp.ideal.divisors),
        inverted=localized.inverted)
    next_kernel.validated = True
    return ProlongResult(status="prolonged", next=next_kernel)


def reference_gamma_set(m, r):
    """Gamma(r) in canonical order, by recursion over the m slots."""
    if m < 1:
        raise ContextError("m must be >= 1, got %d" % m)
    if r < 0:
        raise ContextError("r must be >= 0, got %d" % r)
    out = []

    def rec(prefix, remaining):
        if len(prefix) == m:
            out.append(tuple(prefix))
            return
        for e in range(remaining + 1):
            rec(prefix + [e], remaining - e)

    rec([], r)
    out.sort(key=index_sort_key)
    return tuple(out)


def _reference_pstr(a, names):
    """An integer polynomial's text, terms lex-descending, each t-monomial
    built factor by factor from the names."""
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


def reference_render(c):
    """Coefficient.render by a max for the sign, a negated copy of the
    numerator and a sort per printed polynomial, on exponent tuples."""
    if not c.nv:
        num, den = abs(c.num), c.den
        text = str(num) if den == 1 else "%d/%d" % (num, den)
        return c.num < 0, text, num == 1 and den == 1
    names = tuple("t%d" % (j + 1) for j in range(c.nv))
    num, den = from_tkeys(c.num, c.nv), from_tkeys(c.den, c.nv)
    one = {(0,) * c.nv: 1}
    neg = _plead(num)[1] < 0 if not c.is_zero() else False
    num = _pneg(num) if neg else num
    num_text = (_reference_pstr(num, names) if len(num) <= 1
                else "(" + _reference_pstr(num, names) + ")")
    if den == one:
        text = num_text
    elif list(den) == [(0,) * c.nv]:
        text = "%s/%d" % (num_text, den[(0,) * c.nv])
    else:
        text = "%s/(%s)" % (num_text, _reference_pstr(den, names))
    return neg, text, den == one and num == one


def reference_print_poly(f, vstr=var_str):
    """print_poly by a grevlex_key tuple per monomial and reference_render
    per coefficient."""
    if f.is_zero():
        return "0"
    pieces = []
    for idx, mono in enumerate(sorted(f.terms, key=grevlex_key, reverse=True)):
        neg, text, is_one = reference_render(f.terms[mono])
        if mono:
            body = "*".join(vstr(v) if e == 1 else "%s^%d" % (vstr(v), e)
                            for v, e in mono)
            body = body if is_one else text + "*" + body
        else:
            body = text
        if idx == 0:
            pieces.append("-" + body if neg else body)
        else:
            pieces.append((" - " if neg else " + ") + body)
    return "".join(pieces)


class _ReferenceParser:
    """The recursive-descent parser as it read a term before monomial runs
    were folded: each factor a DiffPolynomial of its own, multiplied into
    the term one at a time."""

    def __init__(self, tz, ctx):
        self.tz = tz
        self.ctx = ctx

    def expr(self):
        terms = dict(self.term().terms)
        while self.tz.peek()[0] in ("+", "-"):
            op = self.tz.next()[0]
            rhs = self.term().terms.items()
            add_into(terms, rhs if op == "+" else
                     ((mono, -c) for mono, c in rhs))
        return DiffPolynomial(self.ctx, terms)

    def term(self):
        value = self.factor()
        while self.tz.peek()[0] in ("*", "/"):
            kind, _, pos = self.tz.next()
            rhs = self.factor()
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

    def factor(self):
        if self.tz.peek()[0] == "-":
            self.tz.next()
            return -self.factor()
        value = self.primary()
        if self.tz.peek()[0] == "^":
            self.tz.next()
            value = value ** self.tz.expect("INT")[1]
        return value

    def primary(self):
        ctx = self.ctx
        kind, payload, pos = self.tz.next()
        if kind == "INT":
            return DiffPolynomial.from_int(ctx, payload)
        if kind == "XVAR":
            i, xi = payload
            if len(xi) != ctx.m:
                raise ParseError("multi-index %r must have %d entries"
                                 % (list(xi), ctx.m), pos)
            if not 1 <= i <= ctx.n:
                raise ParseError("coordinate index %d out of range 1..%d"
                                 % (i, ctx.n), pos)
            return DiffPolynomial.var(ctx, i, xi)
        if kind == "TVAR":
            if ctx.mode.kind != "rational":
                raise ParseError("base variable t%d needs rational mode"
                                 % payload, pos)
            if not 1 <= payload <= ctx.nv:
                raise ParseError("base variable t%d out of range 1..%d"
                                 % (payload, ctx.nv), pos)
            return DiffPolynomial.base_var(ctx, payload)
        if kind == "(":
            value = self.expr()
            self.tz.expect(")")
            return value
        raise ParseError("unexpected token %r" % kind, pos)


def reference_parse_poly(text, ctx):
    """parse_poly as it was before monomial runs were folded: every factor
    parsed and multiplied on its own (formula-mode tokens aside)."""
    tz = _Tokenizer(text)
    try:
        value = _ReferenceParser(tz, ctx).expr()
    except RecursionError:
        raise ParseError("expression nested too deeply") from None
    tz.expect("EOF")
    return value


def reference_containment(W, kind):
    """containment_check's verdict as its loop computed it before the
    elimination basis decided the tests: every condition D_k(g) reduced
    by W's own reduced basis, its normal form the witness when nonzero.
    W must fit its shape."""
    n, m = W.ctx.n, W.ctx.m
    max_level = 1 if kind == "naive" else axiom_sizes(n, m)[0]
    keep = {(i, xi) for xi in gamma_set(m, max_level - 1)
            for i in range(1, n + 1)}
    J = elimination_ideal(W, keep)
    witnesses = []
    for g in J.reduced_gb:
        for k in range(1, m + 1):
            nf = W.normal_form(derivation_image(g, k))
            if not nf.is_zero():
                witnesses.append(violation(g, k, nf))
    return ContainmentVerdict(
        holds=not witnesses,
        witnesses=witnesses,
        elimination_generators=[print_poly(g) for g in J.reduced_gb],
        note=("projection handled via its Zariski closure (elimination "
              "ideal); the base membership condition holds automatically "
              "for projections of points of W"),
    )
