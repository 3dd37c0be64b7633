"""Small exact polynomials over the integers, used to build benchmark inputs.

The benchmark derives its inputs and its reference answers with this module
and the standard library only, so no expected answer comes from diffalg.

A variable is ``(i, xi)``: coordinate ``i`` and multi-index ``xi``, printed
``xI_[d1,...,dm]`` as in diffalg's grammar.  A polynomial is a dict from a
monomial, a sorted tuple of ``(variable, exponent)`` pairs, to a nonzero int.
"""
from __future__ import annotations


def var(i, xi):
    return {(((i, tuple(xi)), 1),): 1}


def const(c):
    return {(): c} if c else {}


def _mono_mul(a, b):
    exps = dict(a)
    for v, e in b:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


def add(*polys):
    out = {}
    for p in polys:
        for mono, c in p.items():
            s = out.get(mono, 0) + c
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
    return out


def scale(p, c):
    return {mono: c * v for mono, v in p.items()} if c else {}


def reflect(p, signs):
    """``p`` with each variable ``v`` replaced by ``signs[v] * v``, where a
    sign is 1 or -1.

    This keeps every monomial and the size of every coefficient, so a
    Groebner basis computation on the image takes the same steps as on
    ``p``.
    """
    out = {}
    for mono, c in p.items():
        for v, e in mono:
            if e % 2 and signs.get(v, 1) < 0:
                c = -c
        out[mono] = c
    return out


def sub(a, b):
    return add(a, scale(b, -1))


def mul(*polys):
    out = const(1)
    for p in polys:
        acc = {}
        for ma, ca in out.items():
            for mb, cb in p.items():
                mono = _mono_mul(ma, mb)
                s = acc.get(mono, 0) + ca * cb
                if s:
                    acc[mono] = s
                else:
                    acc.pop(mono, None)
        out = acc
    return out


def shift(xi, k):
    """xi + unit k, with k counted from 1."""
    return tuple(d + (1 if j == k - 1 else 0) for j, d in enumerate(xi))


def derive(p, k):
    """D_k p over constants: sum of dp/dv * v shifted by unit k."""
    out = {}
    for mono, c in p.items():
        for idx, (v, e) in enumerate(mono):
            rest = mono[:idx] + ((v, e - 1),) * (e > 1) + mono[idx + 1:]
            term = {tuple(sorted(rest)): c * e}
            out = add(out, mul(term, var(v[0], shift(v[1], k))))
    return out


def evaluate(p, point):
    """Value at ``point``, a dict from variable to int."""
    total = 0
    for mono, c in p.items():
        for v, e in mono:
            c *= point[v] ** e
        total += c
    return total


def var_text(v):
    i, xi = v
    return "x%d_[%s]" % (i, ",".join(str(d) for d in xi))


def render(p):
    """Text in diffalg's polynomial grammar, terms by descending degree.

    For a monic polynomial in one variable this is exactly how diffalg
    prints it, which the elimination references rely on.
    """
    if not p:
        return "0"
    pieces = []
    for mono, c in sorted(p.items(), key=lambda t: (-sum(e for _, e in t[0]),
                                                    t[0])):
        factors = [var_text(v) + ("^%d" % e if e > 1 else "")
                   for v, e in mono]
        if abs(c) != 1 or not factors:
            factors.insert(0, str(abs(c)))
        body = "*".join(factors)
        if not pieces:
            pieces.append("-" + body if c < 0 else body)
        else:
            pieces.append((" - " if c < 0 else " + ") + body)
    return "".join(pieces)


def roots_poly(roots):
    """Integer coefficients, lowest degree first, of prod (x - a)."""
    coeffs = [1]
    for a in roots:
        nxt = [0] * (len(coeffs) + 1)
        for d, c in enumerate(coeffs):
            nxt[d + 1] += c
            nxt[d] -= a * c
        coeffs = nxt
    return coeffs


def univariate(coeffs, v):
    """The polynomial sum coeffs[d] * v^d."""
    out = {}
    for d, c in enumerate(coeffs):
        if c:
            out[((v, d),) if d else ()] = c
    return out
