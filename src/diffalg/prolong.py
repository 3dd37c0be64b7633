"""Prolongation varieties tau_{delta_k} X and tau_Delta X.

The base variety lives in coordinates x_i^(0,...,0); the k-th derivative
block uses the variables x_i^(unit k), so the full prolongation ambient is
indexed by Gamma(1).  Generators are computed from the reduced Groebner
basis of the base ideal, which makes the presented system canonical.
"""
from __future__ import annotations

from .dpoly import derivation_image
from .errors import ContextError
from .indices import check_coordinates, unit_index


class ProlongationSystem:
    """Base ideal (an IdealPresentation) together with the linearized
    derivative conditions: the derivations ks, a tuple, and the
    generators, a list."""

    def __init__(self, base, ks, generators):
        self.base = base
        self.ks = ks
        self.generators = generators

    def __eq__(self, other):
        if other.__class__ is not ProlongationSystem:
            return NotImplemented
        return (self.base, self.ks, self.generators) == (
            other.base, other.ks, other.generators)


def prolong_one(I, k):
    """tau_{delta_k} of the variety presented by I, refused when its
    ambient of 2n coordinates is over the coordinate budget."""
    if not 1 <= k <= I.ctx.m:
        raise ContextError("derivation index %d out of range 1..%d"
                           % (k, I.ctx.m))
    return _prolong(I, (k,))


def prolong_delta(I):
    """tau_Delta: the fibre product of all m single prolongations over X,
    refused when its n(m+1) coordinates are over the coordinate budget."""
    return _prolong(I, tuple(range(1, I.ctx.m + 1)))


def _prolong(I, ks):
    """The reduced basis of I, then its D_k-images for each k in ks."""
    for v in I.variables():
        if sum(v[1]) != 0:
            raise ContextError(
                "prolongation base must use level-0 variables only, got %r"
                % (v,))
    check_coordinates("n(m+1)" if len(ks) > 1 else "2n",
                      I.ctx.n * (len(ks) + 1))
    gb = I.reduced_gb
    gens = list(gb)
    for k in ks:
        gens.extend(derivation_image(g, k) for g in gb)
    return ProlongationSystem(base=I, ks=ks, generators=gens)


def point_in_prolongation(point, system, derivatives=None):
    """Does (a, delta_1 a, ..., delta_m a) satisfy every generator?

    `point` is a list of n Coefficients.  `derivatives` maps k to the list
    (delta_k a_1, ..., delta_k a_n); omitted entries are computed with the
    base-field derivation (which is the zero map in constants mode).
    """
    ctx = system.base.ctx
    n, m = ctx.n, ctx.m
    if len(point) != n:
        raise ContextError("point has %d coordinates, expected %d"
                           % (len(point), n))
    derivatives = dict(derivatives or {})
    for k in system.ks:
        if k not in derivatives:
            derivatives[k] = [a.derive(k) for a in point]
        elif len(derivatives[k]) != n:
            raise ContextError("derivative data for k=%d has wrong arity" % k)
    values = {}
    zero = (0,) * m
    for i, a in enumerate(point, start=1):
        values[(i, zero)] = a
    for k, das in derivatives.items():
        for i, da in enumerate(das, start=1):
            values[(i, unit_index(k, m))] = da
    for g in system.generators:
        if not g.evaluate(values).is_zero():
            return False
    return True
