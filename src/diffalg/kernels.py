"""Differential kernels: validation, prolongation by one, iterated prolongation.

A kernel presentation of length r is an ideal over the variables
{x_i^xi : deg xi <= r} with the implied derivation action
D_k x_i^xi = x_i^(xi + unit k).  Prolonging by one introduces unknowns for
the level r+1 derivatives and decides the joint linear system over the
fraction field of the quotient; zero tests go through saturation by the
`inverted` multiplicative set (the pivot denominators accumulated so far),
encoded with the auxiliary-variable trick 1 - g*z.  `kernel_validate` is
the one derivation-extension check; the prolongation runs it first and
builds its rows from the top-level generators only.

Primality of the presented ideal is assumed, not verified: the obstruction
verdict is sound regardless, but a "prolonged" verdict is certified only
modulo that assumption.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import bounds
from .dpoly import Context, DiffPolynomial, derivation_image, print_poly, var_rank
from .errors import ContextError, DiffAlgError
from .groebner import (IdealPresentation, MonomialOrder, normal_form,
                       rabinowitsch)
from .indices import check_coordinates, deg, gamma_set


class KernelValidationError(DiffAlgError):
    """kernel_prolong_once called on a presentation that fails validation."""

    def __init__(self, report):
        super().__init__("kernel fails the derivation-extension check")
        self.report = report


@dataclass
class ValidationReport:
    valid: bool
    violations: list  # of {"generator": str, "k": int, "normal_form": str}


@dataclass
class ObstructionWitness:
    """An unsatisfiable linear relation found during prolongation."""

    relation: DiffPolynomial
    normal_form: DiffPolynomial  # of the relation's constant part, nonzero
    provenance: list  # of (generator index, k) pairs that fed the relation

    def to_json(self):
        return {
            "relation": print_poly(self.relation),
            "normal_form": print_poly(self.normal_form),
            "provenance": [list(p) for p in self.provenance],
        }


@dataclass
class ProlongResult:
    status: str  # "prolonged" or "obstructed"
    next: "KernelPresentation" = None
    witness: ObstructionWitness = None


@dataclass
class KernelPresentation:
    ctx: Context
    r: int
    ideal: IdealPresentation
    inverted: list = field(default_factory=list)

    def __post_init__(self):
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
        # the lower levels stay triangular, which grevlex destroys
        if self.ideal.order.kind != "lex":
            self.ideal = IdealPresentation(self.ctx, self.ideal.generators,
                                           MonomialOrder.lex())
        self._sat_cache = None

    @property
    def n(self):
        return self.ctx.n

    @property
    def m(self):
        return self.ctx.m

    # -- zero tests in the kernel's field -----------------------------------

    def _saturation_basis(self):
        """GB of ideal + (1 - g*z), g the product of inverted, or ()."""
        factors = []
        for h in self.inverted:
            nf = self.ideal.normal_form(h)
            if not nf.is_constant() and nf not in factors:
                factors.append(nf)
        if not factors:
            return ()
        g = math.prod(factors[1:], start=factors[0])
        return rabinowitsch(self.ideal.reduced_gb, g, self.ideal.order)

    def is_zero_mod(self, f):
        """Is f zero in the kernel's field (quotient localized at inverted)?"""
        if self.ideal.normal_form(f).is_zero():
            return True
        if self._sat_cache is None:
            self._sat_cache = self._saturation_basis()
        if not self._sat_cache:
            return False
        ctx2, gb = self._sat_cache
        return normal_form(f.with_context(ctx2), gb,
                           self.ideal.order).is_zero()


def violation(f, k, nf):
    """Report entry: the D_k-image of f has nonzero normal form nf."""
    return {"generator": print_poly(f), "k": k, "normal_form": print_poly(nf)}


def kernel_validate(Kp):
    """Check the derivation-extension criterion on the canonical generators.

    Every reduced-basis element whose variables all sit below the top level
    must have a D_k-image lying in the ideal, for every k; otherwise the
    claimed derivations do not extend delta_k with the prescribed images.
    """
    violations = []
    for idx, f in enumerate(Kp.ideal.reduced_gb):
        if f.max_level() > Kp.r - 1:
            continue
        for k in range(1, Kp.m + 1):
            img = derivation_image(f, k)
            if not Kp.is_zero_mod(img):
                violations.append(violation(f, k, Kp.ideal.normal_form(img)))
    return ValidationReport(valid=not violations, violations=violations)


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


def kernel_prolong_once(Kp):
    """Extend the kernel by one level or report the obstruction.

    Builds the joint linear system for the unknown level-(r+1) derivatives,
    eliminates over the kernel's fraction field (pivot denominators join the
    inverted set), and on success adjoins the triangular pivot relations;
    unknowns untouched by any pivot stay free as new transcendentals.
    Raises KernelValidationError with `kernel_validate`'s report on an
    invalid kernel, and ResourceBudgetError when the level-(r+1) ambient
    of n*|Gamma(r+1)| coordinates is over the coordinate budget.  Only
    top-level generators give rows: the D_k-image of a lower one has no
    level-(r+1) unknown, so it never pivots, and its constant, zero in the
    kernel's field once validated, stays zero.
    """
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
        if not d.is_constant():
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
                normal_form=Kp.ideal.normal_form(row.const),
                provenance=sorted(row.provenance),
            )
            return ProlongResult(status="obstructed", witness=witness)

    new_gens = list(gb) + [pivot.relation() for pivot in solved]
    inverted = localized.inverted
    new_inverted = [h for i, h in enumerate(inverted) if h not in inverted[:i]]
    next_kernel = KernelPresentation(
        ctx=ctx, r=r + 1,
        ideal=IdealPresentation(ctx, new_gens),
        inverted=new_inverted)
    return ProlongResult(status="prolonged", next=next_kernel)


def kernel_prolong_to(Kp, s):
    """Iterate single prolongations up to length s (or the first obstruction).

    Returns (result, info); info reports the realization bound for the
    starting data and whether reaching s certifies a regular realization.
    """
    if s < Kp.r:
        raise ContextError("target length %d below kernel length %d"
                           % (s, Kp.r))
    bound = realization_bound(Kp)
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
