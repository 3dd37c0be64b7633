"""Multi-index combinatorics: the sets Gamma(r) and the coordinate maps.

Multi-indices are plain tuples of m naturals.  The canonical ordering is by
total degree first, then by "first derivation wins" within a degree, so that
for m = 2 the order starts (0,0), (1,0), (0,1), (2,0), (1,1), (0,2), ...
Every coordinate layout in the library is derived from this one ordering.
"""
from __future__ import annotations

import math

from .errors import (ContextError, ResourceBudgetError, _size_text, env_budget,
                     immutable)
from . import bounds


def deg(xi):
    """Total degree of a multi-index."""
    return sum(xi)


def unit_index(k, m):
    """The multi-index with a single 1 in slot k (1-based)."""
    if not 1 <= k <= m:
        raise ContextError("derivation index %d out of range 1..%d" % (k, m))
    return tuple(1 if j == k - 1 else 0 for j in range(m))


def shift(xi, k):
    """xi + unit_index(k)."""
    return tuple(e + (1 if j == k - 1 else 0) for j, e in enumerate(xi))


def index_sort_key(xi):
    """Canonical (degree, within-degree) sort key for multi-indices."""
    return (deg(xi), tuple(-e for e in xi))


def check_gamma(m, r):
    """Refuse a Gamma(r) of N^m whose m*|Gamma(r)| entries are over the
    coordinate budget, without enumerating it."""
    if m < 1:
        raise ContextError("m must be >= 1, got %d" % m)
    if r < 0:
        raise ContextError("r must be >= 0, got %d" % r)
    check_coordinates("%s*|Gamma(%s)|" % (_size_text(m), _size_text(r)),
                      m * math.comb(r + m, m))


def gamma_set(m, r):
    """Enumerate Gamma(r) = {xi in N^m : deg xi <= r} in canonical order,
    refused by `check_gamma` first.  Within a degree the order is
    descending lex: the next index moves a unit from the last nonzero slot
    j before the final one, and the final slot's units, to slot j+1."""
    check_gamma(m, r)
    out = []
    for d in range(r + 1):
        xi = [d] + [0] * (m - 1)
        while True:
            out.append(tuple(xi))
            j = m - 2
            while j >= 0 and not xi[j]:
                j -= 1
            if j < 0:
                break
            xi[j] -= 1
            last, xi[-1] = xi[-1], 0
            xi[j + 1] = last + 1
    return tuple(out)


class CoordinateMaps:
    """The shape of the (n, m) axiom-scheme instance: C = C_{1,m}^n, alpha,
    beta and the index bookkeeping for the ambient space K^{alpha(n,m)}.
    Immutable, and equal and hashed by value.

    pi_indices select the Gamma(C-1) block, psi_indices the Gamma(1) block,
    and phi_blocks[k] maps the Gamma(C-1) block through xi -> xi + k
    (block 0 being the identity / pi block); all three and the layout are
    tuples.
    """

    __slots__ = ("n", "m", "C", "alpha", "beta", "layout", "pi_indices",
                 "psi_indices", "phi_blocks")

    def __init__(self, n, m, C, alpha, beta, layout, pi_indices, psi_indices,
                 phi_blocks):
        for name, value in zip(self.__slots__, (
                n, m, C, alpha, beta, layout, pi_indices, psi_indices,
                phi_blocks)):
            object.__setattr__(self, name, value)

    __setattr__ = __delattr__ = immutable

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not CoordinateMaps:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())


def axiom_sizes(n, m):
    """(C, alpha, beta) of the (n, m) axiom shape: C = C_{1,m}^n and the
    coordinate counts alpha = n*|Gamma(C)| and beta = n*|Gamma(C-1)|."""
    if n < 1 or m < 1:
        raise ContextError("n and m must be >= 1")
    C = bounds.bound_C(1, m, n)
    return C, n * math.comb(C + m, m), n * math.comb(C - 1 + m, m)


def check_coordinates(what, count):
    """Refuse an ambient of `count` coordinates, named `what`, over the
    coordinate budget."""
    if count > env_budget("DIFFALG_COORD_BUDGET", 1_000_000):
        raise ResourceBudgetError(
            "%s = %s exceeds the coordinate budget"
            % (what, _size_text(count)))


def coordinate_maps(n, m):
    """Build the coordinate maps pi, psi, phi for the (n, m) axiom shape."""
    C, alpha, beta = axiom_sizes(n, m)
    check_coordinates("alpha(%d,%d)" % (n, m), alpha)
    # xi-major, i-minor: the Gamma(r') coordinates are then a prefix of the
    # Gamma(r) ones for every r' <= r, which is what makes the projections
    # "onto the first ... coordinates"
    layout = tuple((i, xi) for xi in gamma_set(m, C) for i in range(1, n + 1))
    pos = {v: idx for idx, v in enumerate(layout)}
    small = gamma_set(m, C - 1)
    pi = tuple(pos[(i, xi)] for xi in small for i in range(1, n + 1))
    one = gamma_set(m, 1)
    psi = tuple(pos[(i, xi)] for xi in one for i in range(1, n + 1))
    blocks = [pi]
    for k in range(1, m + 1):
        blocks.append(tuple(pos[(i, shift(xi, k))]
                            for xi in small for i in range(1, n + 1)))
    return CoordinateMaps(n=n, m=m, C=C, alpha=alpha, beta=beta,
                          layout=layout, pi_indices=pi,
                          psi_indices=psi, phi_blocks=tuple(blocks))
