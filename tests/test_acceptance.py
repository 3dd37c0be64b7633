"""End-to-end acceptance gate.

Each test checks one acceptance criterion at its stated tolerance and time
budget and prints a single PASS/FAIL line (run with -s to see them).
"""
import math
import random
import time

import pytest

from diffalg.axioms import (axiom_shape, compile_formula, containment_check,
                            counterexample_demo)
from diffalg.bounds import ackermann, bound_C
from diffalg.coeff import FieldMode
from diffalg.dpoly import Context, parse_poly
from diffalg.errors import ResourceBudgetError
from diffalg.groebner import IdealPresentation, radical_member
from diffalg.indices import gamma_set
from diffalg.kernels import kernel_prolong_once, kernel_validate
from diffalg.prolong import point_in_prolongation, prolong_delta

from helpers import (brute_force_solutions, finite_solution_ideal,
                     kernel_corpus, locus_with_point, rand_dpoly)


def _report(number, ok, elapsed, limit):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print("ACCEPTANCE %d: %s (%.2fs, limit %.0fs)"
          % (number, status, elapsed, limit))
    assert ok
    assert elapsed < limit


def test_acceptance_1_bound_closed_forms():
    start = time.monotonic()
    ok = True
    for n in range(1, 5):
        for r in range(9):
            ok = ok and bound_C(r, 1, n) == r
            ok = ok and bound_C(r, 2, n) == (1 << n) * r
    for r in range(11):
        ok = ok and bound_C(r, 3, 1) == 3 * ((1 << r) - 1)
    _report(1, ok, time.monotonic() - start, 1)


def test_acceptance_2_ackermann_consistency():
    start = time.monotonic()

    def naive(x, y, memo={}):
        key = (x, y)
        if key not in memo:
            if x == 0:
                memo[key] = y + 1
            elif y == 0:
                memo[key] = naive(x - 1, 1)
            else:
                memo[key] = naive(x - 1, naive(x, y - 1))
        return memo[key]

    # warm the memo bottom-up so A(3, 10) = 8189 never recurses deeply
    for x in (1, 2):
        for y in range(9000):
            naive(x, y)
    ok = all(ackermann(x, y) == naive(x, y)
             for x in range(4) for y in range(11))
    ok = ok and ackermann(3, 3) == 61 == naive(3, 3)
    _report(2, ok, time.monotonic() - start, 1)


def test_acceptance_3_counterexample_reproduction():
    start = time.monotonic()
    first = counterexample_demo()
    second = counterexample_demo()
    ok = first == second
    ok = ok and first["containment"]["holds"]
    ok = ok and first["kernel"]["status"] == "obstructed"
    witness_nf = first["kernel"]["witness"]["normal_form"]
    ok = ok and witness_nf != "0" and "x" not in witness_nf
    _report(3, ok, time.monotonic() - start, 5)


def test_acceptance_4_lando_property():
    start = time.monotonic()
    corpus = kernel_corpus(count=50)
    ok = len(corpus) >= 50
    for K in corpus:
        ok = ok and kernel_validate(K).valid
        result = kernel_prolong_once(K)
        ok = ok and result.status == "prolonged"
        ok = ok and kernel_validate(result.next).valid
        if not ok:
            break
    _report(4, ok, time.monotonic() - start, 60)


def test_acceptance_5_prolongation_point_invariance():
    start = time.monotonic()
    rng = random.Random(20240818)
    checked = 0
    ok = True
    while checked < 100 and ok:
        n = rng.choice([1, 2])
        m = rng.choice([1, 2])
        ideal, point = locus_with_point(rng, n, m)
        system = prolong_delta(ideal)
        derivs = {k: [a.derive(k) for a in point]
                  for k in range(1, m + 1)}
        ok = ok and point_in_prolongation(point, system, derivs)
        checked += m
    ok = ok and checked >= 100
    _report(5, ok, time.monotonic() - start, 30)


def test_acceptance_6_groebner_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(20240819)
    ok = True
    for idx in range(20):
        ctx = Context(n=rng.choice([1, 2]), m=1,
                      mode=FieldMode("constants", 1))
        I, variables, points = finite_solution_ideal(rng, ctx)
        found = brute_force_solutions(I, variables)
        ok = ok and len(found) == len(points)
        probe = rand_dpoly(rng, ctx, variables, max_deg=2, max_terms=2,
                           nonzero=False)
        vanishes = all(probe.evaluate(p).is_zero() for p in points)
        ok = ok and radical_member(probe, I) == vanishes
        nf = I.normal_form(probe)
        ok = ok and I.normal_form(nf) == nf
        shuffled = list(I.generators)
        rng.shuffle(shuffled)
        ok = ok and IdealPresentation(ctx, shuffled).reduced_gb == I.reduced_gb
        if not ok:
            break
    _report(6, ok, time.monotonic() - start, 60)


def test_acceptance_7_shape_coherence():
    start = time.monotonic()
    ok = True
    for n in range(1, 4):
        for m in range(1, 4):
            try:
                shape = axiom_shape(n, m)
            except ResourceBudgetError:
                continue
            C = bound_C(1, m, n)
            ok = ok and shape.C == C
            ok = ok and shape.alpha == n * math.comb(C + m, m)
            ok = ok and shape.beta == n * math.comb(C - 1 + m, m)
            ok = ok and shape.alpha == n * len(gamma_set(m, C))
            ok = ok and shape.beta == n * len(gamma_set(m, C - 1))
    rng = random.Random(20240820)
    ctx = Context(n=2, m=1, mode=FieldMode("constants", 1))
    variables = [(i, (j,)) for i in range(1, 3) for j in (0, 1)]
    for _ in range(10):
        gens = [rand_dpoly(rng, ctx, variables, max_deg=2, max_terms=2)
                for _ in range(rng.randint(1, 2))]
        W = IdealPresentation(ctx, gens)
        ok = ok and (containment_check(W, "naive").holds
                     == containment_check(W, "sharp").holds)
    _report(7, ok, time.monotonic() - start, 10)


def test_acceptance_8_formula_compiler():
    start = time.monotonic()
    cases = [("d[1,1]x1 * x1 - 1 = 0", 2, (1, 2, 3)),
             ("d[1]x1 - x1 = 0", 1, (1, 1, 1)),
             ("x1 - 1 = 0", 2, (1, 0, None))]
    ok = True
    for text, m, (t, r, n) in cases:
        out = compile_formula(text, m)
        ok = ok and (out.formula.t, out.formula.r) == (t, r)
        if r == 0:
            ok = ok and out.algebraically_closed
        else:
            ok = ok and out.n == n and not out.algebraically_closed
        # atom round-trip through the derivative notation
        from diffalg.axioms import atom_rho_text
        for poly, rel in out.formula.atoms():
            again = compile_formula(atom_rho_text(poly, rel), m)
            (atom2,) = again.formula.atoms()
            ctx = out.formula.ctx
            ok = ok and atom2[1] == rel
            ok = ok and atom2[0].with_context(ctx) == poly
    _report(8, ok, time.monotonic() - start, 1)
