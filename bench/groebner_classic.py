"""groebner-classic: reduced bases of classic systems plus seeded queries.

`groebner` and `coeff` do all the work here, on large bases with many
S-pairs; kernels, the file parser and the CLI do almost none.

References:
- the bases of the fixed systems are pinned in ``golden.json``; the
  benchmark's tests check the pinned text against ``sympy.groebner``;
- each query ideal is presented as a mix of univariate products with known
  integer roots, so its variety is a known grid of points.  A polynomial is
  in the radical exactly when it vanishes on that grid (Nullstellensatz),
  and the elimination ideal onto a set of variables is generated by their
  univariate products, which fixes its reduced basis.

katsura-3 with ``t1`` under lex and katsura-4 under lex are left out: each
runs for minutes at seed (see README.md).
"""
from __future__ import annotations

import itertools
import json
import os
import random

import textpoly as tp
from common import Job


def _v(i):
    return (i, (0,))


def katsura(n, constant="1"):
    """Katsura-n in the variables x1 .. x(n+1) (u_0 .. u_n)."""
    u = lambda k: tp.var_text(_v(k + 1))
    eqs = [" + ".join([u(0)] + ["2*%s" % u(i) for i in range(1, n + 1)])
           + " - " + constant]
    for m in range(n):
        terms = ["%s*%s" % (u(abs(l)), u(abs(m - l)))
                 for l in range(-n, n + 1) if abs(m - l) <= n]
        eqs.append(" + ".join(terms) + " - " + u(m))
    return eqs


def cyclic(n):
    xs = [tp.var_text(_v(i + 1)) for i in range(n)]
    eqs = [" + ".join("*".join(xs[(i + j) % n] for j in range(d))
                      for i in range(n))
           for d in range(1, n)]
    eqs.append("*".join(xs) + " - 1")
    return eqs


# (name, mode, number of variables, generators, order, eliminated variables)
SYSTEMS = [
    ("katsura4-grevlex", "constants", 5, katsura(4), "grevlex", None),
    ("katsura3-lex", "constants", 4, katsura(3), "lex", None),
    ("cyclic4-grevlex", "constants", 4, cyclic(4), "grevlex", None),
    ("cyclic4-lex", "constants", 4, cyclic(4), "lex", None),
    ("cyclic4-block", "constants", 4, cyclic(4), "block", (1, 2)),
    ("katsura3-t1-grevlex", "rational", 4, katsura(3, "t1"), "grevlex",
     None),
]

QUERY_VARS = 3
RADICAL_QUERIES = 12
ELIMINATION_QUERIES = 8


def _system_job(api, golden, name, mode, n, gens, order, eliminate):
    def call():
        ctx = api.Context(n=n, m=1, mode=api.FieldMode(mode, 1))
        polys = [api.parse_poly(g, ctx) for g in gens]
        if order == "block":
            mo = api.MonomialOrder.block_elim({_v(i) for i in eliminate})
        else:
            mo = getattr(api.MonomialOrder, order)()
        return api.buchberger(polys, mo)

    def render(basis):
        return json.dumps([api.print_poly(g) for g in basis])

    def check(basis):
        want = golden.get(name)
        if want is None:
            return "no pinned basis for %s" % name
        return None if basis == want else "basis differs from pinned basis"

    return Job(name, call, render, check)


def _sign(rng):
    return rng.choice([-1, 1])


def _grid_ideal(shape):
    """Roots and multiplicities per variable, and the mixed generators."""
    variables = [_v(i) for i in range(1, QUERY_VARS + 1)]
    roots = {v: [_sign(shape) * r for r in shape.sample(range(1, 4), 2)]
             for v in variables}
    mult = {v: shape.choice([1, 2]) for v in variables}
    prods = [tp.univariate(tp.roots_poly(roots[v] * mult[v]), v)
             for v in variables]
    # generator j = P_j + sum over k > j of c_jk * P_k: unitriangular mixing
    gens = []
    for j in range(QUERY_VARS):
        g = prods[j]
        for k in range(j + 1, QUERY_VARS):
            c = _sign(shape) * shape.choice([1, 2])
            g = tp.add(g, tp.scale(prods[k], c))
        gens.append(g)
    return variables, roots, mult, gens


def _reflected(rng, roots, polys):
    """Replace each variable v by -v or v, as ``rng`` draws; returns the
    roots and polynomials of the image.  The image's ideal costs exactly as
    much as the original's (see ``textpoly.reflect``), so the seed and the
    variant change the inputs but not the work."""
    signs = {v: _sign(rng) for v in roots}
    return ({v: [signs[v] * r for r in rs] for v, rs in roots.items()},
            [tp.reflect(p, signs) for p in polys])


def _ideal_text(gens):
    header = "m=1 n=%d gamma=0 mode=constants" % QUERY_VARS
    return header + "\n" + "\n".join(tp.render(g) for g in gens) + "\n"


def _probe(shape, variables, roots, kind):
    """A probe polynomial of one of three kinds: a combination of the
    squarefree products (in the radical), a product plus a nonzero constant
    (not), and a product of two linear factors (vanishes on only part of
    the grid)."""
    if kind == 0:
        f = {}
        for v in variables:
            p = tp.univariate(tp.roots_poly(roots[v]), v)
            h = tp.add(tp.const(_sign(shape) * shape.choice([1, 2])),
                       tp.scale(tp.var(*shape.choice(variables)),
                                _sign(shape)))
            f = tp.add(f, tp.mul(h, p))
        return f
    v, w = shape.sample(variables, 2)
    if kind == 1:
        p = tp.univariate(tp.roots_poly(roots[v]), v)
        return tp.add(p, tp.const(_sign(shape) * shape.choice([1, 2, 3])))
    return tp.mul(tp.univariate(tp.roots_poly([shape.choice(roots[v])]), v),
                  tp.univariate(tp.roots_poly([shape.choice(roots[w])]), w))


def _radical_job(api, idx, text, probe_text, expected):
    def call():
        ideal, _ = api.files.load_ideal_text(text)
        return api.radical_member(api.parse_poly(probe_text, ideal.ctx), ideal)

    def check(value):
        return None if value is expected else "radical_member gave %s" % value

    return Job("radical-%d" % idx, call, json.dumps, check)


def _elimination_job(api, idx, text, keep, expected):
    def call():
        ideal, _ = api.files.load_ideal_text(text)
        return api.elimination_ideal(ideal, keep)

    def render(J):
        return json.dumps([api.print_poly(g) for g in J.reduced_gb])

    def check(basis):
        if sorted(basis) != expected:
            return "elimination basis %s, expected %s" % (basis, expected)
        return None

    return Job("elimination-%d" % idx, call, render, check)


def pinned_bases():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "golden.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["bases"]


def build(api, seed, workdir, variant=0):
    golden = pinned_bases()
    jobs = [_system_job(api, golden, *system) for system in SYSTEMS]
    rng = random.Random("groebner-classic:%d:%d" % (seed, variant))
    for idx in range(RADICAL_QUERIES):
        shape = random.Random("groebner-classic-radical:%d" % idx)
        variables, roots, _, gens = _grid_ideal(shape)
        probe = _probe(shape, variables, roots, idx % 3)
        roots, polys = _reflected(rng, roots, gens + [probe])
        probe = polys.pop()
        grid = [dict(zip(variables, point)) for point in
                itertools.product(*(roots[v] for v in variables))]
        expected = all(tp.evaluate(probe, p) == 0 for p in grid)
        jobs.append(_radical_job(api, idx, _ideal_text(polys),
                                 tp.render(probe), expected))
    for idx in range(ELIMINATION_QUERIES):
        shape = random.Random("groebner-classic-elimination:%d" % idx)
        variables, roots, mult, gens = _grid_ideal(shape)
        keep = set(shape.sample(variables, 2))
        roots, polys = _reflected(rng, roots, gens)
        expected = sorted(
            tp.render(tp.univariate(tp.roots_poly(roots[v] * mult[v]), v))
            for v in keep)
        jobs.append(_elimination_job(api, idx, _ideal_text(polys), keep,
                                     expected))
    return jobs
