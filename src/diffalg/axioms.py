"""Checkers for the geometric axiom conditions and the formula compiler.

`containment_check` decides, at the ideal level, whether the variety W sits
inside the prolongation of its projection: it computes the elimination
ideal J of the projection, forms for every reduced-basis element of J and
every derivation the linearized prolongation condition pulled back to W's
ambient coordinates, and tests membership in I(W) on the basis J is read
from, W's under the elimination order (membership does not depend on
the order), building W's own basis only to print a witness.  The
set-theoretic base condition (projections of points of W lie in the
projection) holds automatically, which the verdict records as a note.

W is taken to be Zariski-closed and irreducible; constructible inputs are
not interpreted.  Primality is assumed, not verified.
"""
from __future__ import annotations

import math

from .coeff import FieldMode
from .dpoly import (Context, derivation_image, parse_poly, print_poly,
                    _ExprParser, _Tokenizer)
from .errors import ContextError, ParseError, ResourceBudgetError
from .groebner import (IdealPresentation, elimination_ideal,
                       elimination_presentation)
from .indices import (axiom_sizes, check_coordinates, coordinate_maps, deg,
                      gamma_set)
from .kernels import KernelPresentation, kernel_prolong_once, violation


def axiom_shape(n, m):
    """The (n, m) axiom-scheme instance: n, m, C, alpha, beta and the maps."""
    return coordinate_maps(n, m)


class ContainmentVerdict:
    """Whether the containment holds, its witnesses, a list of
    {"generator": str, "k": int, "normal_form": str} dicts, the printed
    elimination generators and a note."""

    def __init__(self, holds, witnesses, elimination_generators, note):
        self.holds = holds
        self.witnesses = witnesses
        self.elimination_generators = elimination_generators
        self.note = note

    def __eq__(self, other):
        if other.__class__ is not ContainmentVerdict:
            return NotImplemented
        return (self.holds, self.witnesses, self.elimination_generators,
                self.note) == (other.holds, other.witnesses,
                               other.elimination_generators, other.note)

    def to_json(self):
        return {
            "holds": self.holds,
            "witnesses": self.witnesses,
            "elimination_generators": self.elimination_generators,
            "note": self.note,
        }


def containment_check(W, kind):
    """Check W inside tau_Delta of its projection, naive or full shape.

    naive: W lives in the Gamma(1) layout K^{n(m+1)} and the projection
    keeps the level-0 coordinates.  sharp: W lives in the Gamma(C) layout
    K^{alpha(n,m)} with C = C_{1,m}^n and the projection keeps Gamma(C-1).
    Either ambient must fit the coordinate budget.

    The conditions are decided on the elimination basis; W's own basis,
    which prints each witness, is built at the first one.
    """
    n, m = W.ctx.n, W.ctx.m
    if kind == "naive":
        max_level, size, what = 1, n * (m + 1), "n(m+1)"
    elif kind == "sharp":
        max_level, size, _ = axiom_sizes(n, m)
        what = "alpha(%d,%d)" % (n, m)
    else:
        raise ContextError("unknown containment shape %r" % (kind,))
    for v in W.variables():
        if deg(v[1]) > max_level:
            raise ContextError(
                "variable %r exceeds the %s ambient (levels <= %d)"
                % (v, kind, max_level))
    check_coordinates(what, size)
    keep_levels = gamma_set(m, max_level - 1) if max_level >= 1 else []
    keep = {(i, xi) for xi in keep_levels for i in range(1, n + 1)}
    E = elimination_presentation(W, keep)
    J = elimination_ideal(E, keep)
    witnesses = []
    for g in J.reduced_gb:
        for k in range(1, m + 1):
            cond = derivation_image(g, k)
            if not E.normal_form(cond).is_zero():
                witnesses.append(violation(g, k, W.normal_form(cond)))
    return ContainmentVerdict(
        holds=not witnesses,
        witnesses=witnesses,
        elimination_generators=[print_poly(g) for g in J.reduced_gb],
        note=("projection handled via its Zariski closure (elimination "
              "ideal); the base membership condition holds automatically "
              "for projections of points of W"),
    )


# --- quantifier-free differential formulas ------------------------------------


class DiffFormula:
    """A quantifier-free formula in derivatives, with its algebraic rewrite.

    The tree uses nodes ("and", a, b), ("or", a, b), ("not", a) and
    ("atom", poly, rel) with rel one of "eq"/"neq"; atom polynomials live
    over the algebraic variables x_i^xi of the Context ctx.
    """

    def __init__(self, t, r, m, tree, ctx):
        self.t = t
        self.r = r
        self.m = m
        self.tree = tree
        self.ctx = ctx

    def __eq__(self, other):
        if other.__class__ is not DiffFormula:
            return NotImplemented
        return (self.t, self.r, self.m, self.tree, self.ctx) == (
            other.t, other.r, other.m, other.tree, other.ctx)

    def atoms(self):
        out = []

        def walk(node):
            if node[0] == "atom":
                out.append((node[1], node[2]))
            elif node[0] == "not":
                walk(node[1])
            else:
                walk(node[1])
                walk(node[2])

        walk(self.tree)
        return out


def _rho_var_str(v):
    i, xi = v
    if deg(xi) == 0:
        return "x%d" % i
    return "d[%s]x%d" % (",".join(str(e) for e in xi), i)


def atom_rho_text(poly, rel="eq"):
    """Render an atom back in derivative notation d[...]xI."""
    return print_poly(poly, vstr=_rho_var_str) + (" = 0" if rel == "eq"
                                                  else " != 0")


class _FormulaParser:
    def __init__(self, tz, ctx):
        self.tz = tz
        self.expr = _ExprParser(tz, ctx)
        self.ctx = ctx

    def parse(self):
        tree = self.parse_disj()
        self.tz.expect("EOF")
        return tree

    def parse_disj(self):
        node = self.parse_conj()
        while self.tz.peek()[0] == "|":
            self.tz.next()
            node = ("or", node, self.parse_conj())
        return node

    def parse_conj(self):
        node = self.parse_lit()
        while self.tz.peek()[0] == "&":
            self.tz.next()
            node = ("and", node, self.parse_lit())
        return node

    def parse_lit(self):
        if self.tz.peek()[0] == "!":
            self.tz.next()
            return ("not", self.parse_lit())
        if self.tz.peek()[0] == "(":
            # '(' may open a grouped sub-formula or an atom's arithmetic
            saved = self.tz.index
            try:
                self.tz.next()
                node = self.parse_disj()
                self.tz.expect(")")
                return node
            except ParseError:
                self.tz.index = saved
        return self.parse_atom()

    def parse_atom(self):
        lhs = self.expr.parse_expr()
        kind, _, pos = self.tz.next()
        if kind not in ("=", "!="):
            raise ParseError("expected '=' or '!=' in atom", pos)
        rhs = self.expr.parse_expr()
        return ("atom", lhs - rhs, "eq" if kind == "=" else "neq")


class CompiledFormula:
    """A formula with the size of the axiom instance that would witness
    it: alpha and beta, or the resource note that refused them, are None
    unless given."""

    def __init__(self, formula, n, algebraically_closed, alpha=None,
                 beta=None, resource_note=None):
        self.formula = formula
        self.n = n
        self.algebraically_closed = algebraically_closed
        self.alpha = alpha
        self.beta = beta
        self.resource_note = resource_note

    def __eq__(self, other):
        if other.__class__ is not CompiledFormula:
            return NotImplemented
        return (self.formula, self.n, self.algebraically_closed, self.alpha,
                self.beta, self.resource_note) == (
            other.formula, other.n, other.algebraically_closed, other.alpha,
            other.beta, other.resource_note)


def compile_formula(rho_text, m):
    """Extract (t, r), rewrite derivatives as algebraic variables, size the
    axiom instance that would witness the formula."""
    if m < 1:
        raise ContextError("m must be >= 1")
    tz = _Tokenizer(rho_text, formula_mode=True)
    t = 0
    r = 0
    has_base = False
    for kind, payload, pos in tz.tokens:
        if kind == "XVAR":
            i, xi = payload
            if len(xi) != m:
                raise ParseError("multi-index %r must have %d entries"
                                 % (list(xi), m), pos)
            t = max(t, i)
            r = max(r, deg(xi))
        elif kind == "DVAR0":
            t = max(t, payload)
        elif kind == "TVAR":
            has_base = True
    if t == 0:
        raise ParseError("formula mentions no differential variables")
    mode = FieldMode("rational" if has_base else "constants", m)
    ctx = Context(n=t, m=m, mode=mode)
    try:
        tree = _FormulaParser(tz, ctx).parse()
    except RecursionError:
        raise ParseError("formula nested too deeply") from None
    formula = DiffFormula(t=t, r=r, m=m, tree=tree, ctx=ctx)
    if r == 0:
        return CompiledFormula(formula=formula, n=t,
                               algebraically_closed=True)
    n = t * math.comb(r - 1 + m, m)
    alpha = beta = None
    note = None
    try:
        _, alpha, beta = axiom_sizes(n, m)
    except ResourceBudgetError as exc:
        note = str(exc)
    return CompiledFormula(formula=formula, n=n, algebraically_closed=False,
                           alpha=alpha, beta=beta, resource_note=note)


# --- the m = 2 counterexample, mechanized --------------------------------------


def counterexample_demo(mode_kind="constants"):
    """The naive containment holds yet the kernel obstructs.

    W in K^3 (coordinates x, y=dx_1, z=dx_2) is cut out by y = 1 and z = x.
    Its projection to the x-line is everything, so there are no prolongation
    conditions and the naive containment holds vacuously.  Read as a
    length-1 kernel, however, the presentation forces the mixed second
    derivative to be 0 (from y = 1) and 1 (from z = x) at once.
    """
    mode = FieldMode(mode_kind, 2)
    ctx = Context(n=1, m=2, mode=mode)
    gens = [parse_poly("x1_[1,0] - 1", ctx),
            parse_poly("x1_[0,1] - x1_[0,0]", ctx)]
    W = IdealPresentation(ctx, gens)
    verdict = containment_check(W, "naive")
    kernel = KernelPresentation(ctx=ctx, r=1, ideal=W)
    result = kernel_prolong_once(kernel)
    report = {
        "mode": mode_kind,
        "variety": {
            "ambient": "K^3, coordinates x1_[0,0], x1_[1,0], x1_[0,1]",
            "generators": [print_poly(g) for g in gens],
        },
        "containment": verdict.to_json(),
        "kernel": {
            "length": 1,
            "valid": True,  # kernel_prolong_once raises on an invalid kernel
            "status": result.status,
        },
        "narrative": [
            "The projection of W onto the base coordinate is the whole "
            "line, so W is contained in the prolongation of its projection "
            "with no conditions to check.",
            "Extending the kernel by one level forces the mixed second "
            "derivative to equal both 0 (deriving y - 1) and 1 (deriving "
            "z - x), an inconsistent pair of linear constraints.",
        ],
    }
    if result.status == "obstructed":
        report["kernel"]["witness"] = result.witness.to_json()
    return report
