"""Differential kernels: validation, prolongation by one, iterated prolongation.

A kernel presentation of length r is an ideal over the variables
{x_i^xi : deg xi <= r} with the implied derivation action
D_k x_i^xi = x_i^(xi + unit k).  Prolonging by one introduces unknowns for
the level r+1 derivatives and decides the joint linear system over the
fraction field of the quotient.  Each row of that system is one reduced
polynomial, affine-linear in the unknowns, and the pivot rows are the
relations the next level adjoins.  A zero test takes a normal form under
the kernel's basis and makes at most one division, by the saturation basis
of the `inverted` set (the pivot denominators so far): ideal + (1 - g*z).
`kernel_validate` is the one derivation-extension check; the prolongation
runs it on every input it did not produce itself (its results are valid
by construction) and builds its rows from the top-level generators only.
Both take each D_k-image's normal form in one step,
`groebner.image_normal_form`, which forms the image on the packed keys
of the kernel's basis and divides it there.

Primality of the presented ideal is assumed, not verified: the obstruction
verdict is sound regardless, but a "prolonged" verdict is certified only
modulo that assumption.
"""
from __future__ import annotations

import math
from functools import cached_property

from . import bounds
from .dpoly import DiffPolynomial, print_poly, var_rank
from .errors import (ContextError, DiffAlgError, Record, ResourceBudgetError,
                     _size_text, env_budget)
from .groebner import (IdealPresentation, MonomialOrder, image_normal_form,
                       normal_form, rabinowitsch)
from .indices import check_coordinates, check_gamma, deg, gamma_set


class KernelValidationError(DiffAlgError):
    """kernel_prolong_once called on a presentation that fails validation."""

    def __init__(self, report):
        super().__init__("kernel fails the derivation-extension check")
        self.report = report


class ValidationReport(Record):
    """Whether a kernel meets the derivation-extension criterion, and the
    violations, a list of {"generator": str, "k": int, "normal_form":
    str} dicts.  A Record of both."""

    _fields = ("valid", "violations")

    def __init__(self, valid, violations):
        self.valid = valid
        self.violations = violations


class ObstructionWitness(Record):
    """An unsatisfiable linear relation found during prolongation: the
    relation, the nonzero normal form of its constant part and its
    provenance, the list of (generator index, k) pairs that fed it.  A
    Record of all three."""

    _fields = ("relation", "normal_form", "provenance")

    def __init__(self, relation, normal_form, provenance):
        self.relation = relation
        self.normal_form = normal_form
        self.provenance = provenance

    def to_json(self):
        return {
            "relation": print_poly(self.relation),
            "normal_form": print_poly(self.normal_form),
            "provenance": [list(p) for p in self.provenance],
        }


class ProlongResult(Record):
    """The outcome of one prolongation: status "prolonged" with the next
    kernel, or "obstructed" with the witness.  A Record of all three."""

    _fields = ("status", "next", "witness")

    def __init__(self, status, next=None, witness=None):
        self.status = status
        self.next = next
        self.witness = witness


class KernelPresentation(Record):
    """A length-r kernel: a lex ideal over the levels <= r, read in its
    fraction field localized at `inverted`, a list, empty unless given.

    `validated` is set only by `kernel_prolong_once`, on the kernel it
    returns, which meets the derivation-extension criterion by
    construction; any other kernel is validated before it is prolonged.
    It takes no part in equality: a kernel is a Record of ctx, r, the
    ideal and `inverted`.
    """

    _fields = ("ctx", "r", "ideal", "inverted")

    def __init__(self, ctx, r, ideal, inverted=None):
        self.ctx = ctx
        self.r = r
        self.ideal = ideal
        self.inverted = [] if inverted is None else inverted
        self.validated = False
        if self.r < 0:
            raise ContextError("kernel length must be >= 0")
        if self.ideal.ctx != self.ctx:
            raise ContextError("kernel ideal has a different context")
        for v in self.ideal.variables():
            if deg(v[1]) > self.r:
                raise ContextError(
                    "generator variable %r exceeds kernel length %d"
                    % (v, self.r))
        # kernels work under lex with higher-level derivatives most
        # significant: presentations where top derivatives are graphs over
        # the lower levels stay triangular, which grevlex destroys.  The
        # kernel loader and the prolongation build lex ideals; this
        # rebuild serves other callers.
        if self.ideal.order.kind != "lex":
            self.ideal = IdealPresentation(self.ctx, self.ideal.generators,
                                           MonomialOrder.lex())

    def __repr__(self):
        return "KernelPresentation(ctx=%r, r=%r, ideal=%r, inverted=%r)" % (
            self.ctx, self.r, self.ideal, self.inverted)

    @property
    def n(self):
        return self.ctx.n

    @property
    def m(self):
        return self.ctx.m

    # -- zero tests in the kernel's field -----------------------------------

    @cached_property
    def _saturation_basis(self):
        """The presentation of ideal + (1 - g*z), g the product of the
        inverted elements not constant modulo the ideal, or None.  Each is
        a pivot reduced at an earlier level, so over a prime ideal the
        division returns it as it is; over one that is not prime (the
        loader accepts any) it maps a pivot the ideal now contains to 0,
        which kept in g would make the saturation the unit ideal."""
        factors = []
        for h in self.inverted:
            nf = self.ideal.normal_form(h)
            if not nf.is_constant() and nf not in factors:
                factors.append(nf)
        if not factors:
            return None
        g = math.prod(factors[1:], start=factors[0])
        ideal = self.ideal
        ctx2, gens = rabinowitsch(ideal.reduced_gb, g)
        return IdealPresentation(ctx2, gens, ideal.order,
                                  _prefix=ideal.divisors)

    def is_zero_mod(self, f):
        """Is f, a normal form under the kernel's basis, zero in the kernel's
        field (quotient localized at inverted), by at most one division?"""
        if f.is_zero():
            return True
        sat = self._saturation_basis
        return sat is not None and normal_form(f.with_context(sat.ctx),
                                               sat.divisors).is_zero()


def violation(f, k, nf):
    """Report entry: the D_k-image of f has nonzero normal form nf."""
    return {"generator": print_poly(f), "k": k, "normal_form": print_poly(nf)}


def kernel_validate(Kp):
    """Check the derivation-extension criterion on the canonical generators.

    Every reduced-basis element whose variables all sit below the top level
    must have a D_k-image lying in the ideal, for every k; otherwise the
    claimed derivations do not extend delta_k with the prescribed images.
    A violation reports the image's normal form, the one division made of
    it.  Over-budget m*|Gamma(r)| entries are refused before any image.
    """
    check_gamma(Kp.m, Kp.r)
    violations = []
    basis = Kp.ideal.divisors
    for f in basis.polys:
        if f.max_level() > Kp.r - 1:
            continue
        for k in range(1, Kp.m + 1):
            nf = image_normal_form(f, k, basis)
            if not Kp.is_zero_mod(nf):
                violations.append(violation(f, k, nf))
    return ValidationReport(valid=not violations, violations=violations)


def _split(row, unknowns):
    """The nonzero coefficients of the unknowns in a row, {unknown:
    DiffPolynomial}, and its constant part.  A row is affine-linear in the
    unknowns, which outrank every other variable: an unknown is the last
    variable of its monomial."""
    parts = {}
    for mono, c in row.terms.items():
        u = mono[-1][0] if mono and mono[-1][0] in unknowns else None
        parts.setdefault(u, {})[mono if u is None else mono[:-1]] = c
    ctx = row.ctx
    const = DiffPolynomial(ctx, parts.pop(None, {}))
    return {u: DiffPolynomial(ctx, terms) for u, terms in parts.items()}, const


def kernel_prolong_once(Kp):
    """Extend the kernel by one level or report the obstruction.

    Builds the joint linear system for the unknown level-(r+1) derivatives,
    eliminates over the kernel's fraction field (pivot denominators join the
    inverted set), and on success adjoins the triangular pivot relations;
    unknowns untouched by any pivot stay free as new transcendentals.
    Raises ResourceBudgetError, before validating, when the level-(r+1)
    ambient of n*|Gamma(r+1)| coordinates is over the coordinate budget,
    and KernelValidationError with `kernel_validate`'s report on an invalid
    kernel.  Only top-level generators give rows: the D_k-image of a lower
    one has no level-(r+1) unknown, so it never pivots, and its constant,
    zero in the kernel's field once validated, stays zero.

    Each row is the normal form of a D_k-image, formed on the packed keys
    of the kernel's basis and divided there (`image_normal_form`), and an
    elimination step replaces it by the normal form of d*row - c*pivot: no
    lead of the kernel's basis has an unknown, so one division reduces
    each unknown's coefficient and the constant part.  A pivot row is its
    pivot relation.  Before the first row the unknowns join the packing of
    the kernel's basis, at its width (`DivisorBasis.extend`): they outrank
    every lower level in lex, so its lead keys and packed tails stay, and
    no row widens the packing for an unknown.  That basis, packed tails
    and all, is the next level's `buchberger` prefix.

    The kernel returned is valid by construction and carries `validated`,
    so it is not checked again when it is prolonged in turn.  Let I be
    Kp's ideal, I' the next one and S' the new inverted set.  After
    localizing at S', every pivot is a unit.  The pivot relations are then
    triangular over the pivot unknowns, so I'_{S'} meets the ring of
    levels <= r in exactly I_{S'}.  D_k maps I into I'_{S'}: for the lower
    generators by Kp's validation, for the top-level ones by the rows, each
    a unit combination of pivot relations plus rows that reduced to zero.
    So every new basis element below level r+1 has its D_k-image in
    I'_{S'}, and that is all `kernel_validate` checks.  This uses the
    module's primality assumption: a pivot nonzero in Kp's field stays a
    non-zero-divisor.
    """
    ctx, r = Kp.ctx, Kp.r
    levels = gamma_set(ctx.m, r + 1)
    check_coordinates("n*|Gamma(%d)|" % (r + 1), ctx.n * len(levels))
    _require_valid(Kp)
    top = [xi for xi in levels if deg(xi) == r + 1]
    unknowns = [(i, xi) for xi in top for i in range(1, ctx.n + 1)]
    unknown_set = set(unknowns)
    reduce = Kp.ideal.normal_form
    basis = Kp.ideal.divisors
    basis.extend(unknowns)

    rows = []  # (row, its coefficients by unknown, provenance)
    gb = Kp.ideal.reduced_gb
    for idx, f in enumerate(gb):
        if f.max_level() != r:
            continue
        for k in range(1, ctx.m + 1):
            row = image_normal_form(f, k, basis)
            if row:
                rows.append((row, _split(row, unknown_set)[0], {(idx, k)}))

    localized = Kp  # the kernel's field, localized at the pivots so far
    solved = []
    for u in sorted(unknowns, key=var_rank):
        at = next((i for i, (_, coeffs, _) in enumerate(rows) if u in coeffs
                   and not localized.is_zero_mod(coeffs[u])), None)
        if at is None:
            continue
        pivot, pivot_coeffs, provenance = rows.pop(at)
        d = pivot_coeffs[u]
        if not d.is_constant() and d not in localized.inverted:
            localized = KernelPresentation(ctx=ctx, r=r, ideal=Kp.ideal,
                                           inverted=localized.inverted + [d])
        for i, (row, coeffs, seen) in enumerate(rows):
            c = coeffs.get(u)
            if c is not None:
                row = reduce(d * row - c * pivot)
                rows[i] = row, _split(row, unknown_set)[0], seen | provenance
        solved.append(pivot)

    for row, _, provenance in rows:
        # all unknown coefficients are zero in the kernel's field here
        const = _split(row, unknown_set)[1]
        if not localized.is_zero_mod(const):
            witness = ObstructionWitness(relation=row, normal_form=const,
                                         provenance=sorted(provenance))
            return ProlongResult(status="obstructed", witness=witness)

    # gb is a reduced lex basis: as buchberger's prefix it is neither
    # re-paired nor re-reduced, only completed with the pivot relations,
    # under this level's packing while the new leads fit it
    next_kernel = KernelPresentation(
        ctx=ctx, r=r + 1,
        ideal=IdealPresentation(ctx, list(gb) + solved, MonomialOrder.lex(),
                                _prefix=basis),
        inverted=localized.inverted)
    next_kernel.validated = True
    return ProlongResult(status="prolonged", next=next_kernel)


def _require_valid(Kp):
    """Raise KernelValidationError, with `kernel_validate`'s report, when Kp
    is invalid; a kernel `kernel_prolong_once` returned is not checked."""
    if not Kp.validated:
        report = kernel_validate(Kp)
        if not report.valid:
            raise KernelValidationError(report)


def kernel_prolong_to(Kp, s):
    """Iterate single prolongations up to length s (or the first obstruction).

    Raises ResourceBudgetError, before any other work, when s is over the
    level budget (DIFFALG_LEVEL_BUDGET): the levels of a kernel cost more
    and more, so a huge target is refused up front.  An invalid kernel
    raises KernelValidationError, also when s is its own length and no
    level runs; the kernel is validated once, by the first level or, with
    none to run, here.

    Returns (result, info); info reports the realization bound for the
    starting data and whether reaching s certifies a regular realization.
    """
    if s < Kp.r:
        raise ContextError("target length %d below kernel length %d"
                           % (s, Kp.r))
    if s > env_budget("DIFFALG_LEVEL_BUDGET", 1000):
        raise ResourceBudgetError("target length %s exceeds the level budget"
                                  % _size_text(s))
    bound = realization_bound(Kp)
    if s == Kp.r:
        _require_valid(Kp)
    current = Kp
    result = ProlongResult(status="prolonged", next=Kp)
    while current.r < s:
        result = kernel_prolong_once(current)
        if result.status == "obstructed":
            break
        current = result.next
    info = {
        "bound": bound,
        "final_length": current.r,
        "realization_guaranteed": result.status == "prolonged" and s >= bound,
    }
    return result, info


def realization_bound(Kp):
    """C_{r,m}^n for the kernel's data."""
    return bounds.bound_C(Kp.r, Kp.m, Kp.n)
