import random

import pytest

from diffalg.coeff import Coefficient, FieldMode
from diffalg.dpoly import Context, parse_poly, print_poly
from diffalg.errors import ContextError
from diffalg.groebner import IdealPresentation
from diffalg.prolong import point_in_prolongation, prolong_delta, prolong_one

from helpers import locus_with_point

C1 = Context(n=1, m=1, mode=FieldMode("constants", 1))
R1 = Context(n=1, m=1, mode=FieldMode("rational", 1))
M2 = Context(n=1, m=2, mode=FieldMode("constants", 2))


def gens_text(system):
    return [print_poly(g) for g in system.generators]


def test_prolong_one_constants():
    I = IdealPresentation(C1, [parse_poly("x1_[0]^2 - 1", C1)])
    system = prolong_one(I, 1)
    assert gens_text(system) == ["x1_[0]^2 - 1", "2*x1_[0]*x1_[1]"]


def test_prolong_one_refuses_a_derivation_out_of_range():
    I = IdealPresentation(C1, [parse_poly("x1_[0]^2 - 1", C1)])
    with pytest.raises(ContextError,
                       match=r"^derivation index 2 out of range 1\.\.1$"):
        prolong_one(I, 2)


def test_prolong_one_rational():
    I = IdealPresentation(R1, [parse_poly("x1_[0]^2 - t1", R1)])
    system = prolong_one(I, 1)
    assert gens_text(system) == ["x1_[0]^2 - t1", "2*x1_[0]*x1_[1] - 1"]


def test_prolong_zero_ideal_adds_nothing():
    I = IdealPresentation(C1, [])
    assert prolong_one(I, 1).generators == []
    I2 = IdealPresentation(M2, [])
    assert prolong_delta(I2).generators == []


def test_prolong_delta_m2():
    I = IdealPresentation(M2, [parse_poly("x1_[0,0]^2 - 1", M2)])
    system = prolong_delta(I)
    assert gens_text(system) == ["x1_[0,0]^2 - 1",
                                 "2*x1_[0,0]*x1_[1,0]",
                                 "2*x1_[0,0]*x1_[0,1]"]


def test_prolong_delta_m1_equals_prolong_one():
    I = IdealPresentation(C1, [parse_poly("x1_[0]^3 - 2", C1)])
    assert gens_text(prolong_delta(I)) == gens_text(prolong_one(I, 1))


def test_prolong_delta_blockwise_matches_single():
    I = IdealPresentation(M2, [parse_poly("x1_[0,0]^2 - 3", M2)])
    full = gens_text(prolong_delta(I))
    for k in (1, 2):
        single = gens_text(prolong_one(I, k))
        assert all(g in full for g in single)


def test_added_generators_affine_linear_in_y_block():
    I = IdealPresentation(M2, [parse_poly("x1_[0,0]^3 - x1_[0,0]", M2)])
    system = prolong_delta(I)
    base_count = len(I.reduced_gb)
    for g in system.generators[base_count:]:
        ydeg = max(sum(e for v, e in mono if sum(v[1]) >= 1)
                   for mono in g.terms)
        assert ydeg <= 1


def test_rejects_nonbase_variables():
    I = IdealPresentation(C1, [parse_poly("x1_[1] - 1", C1)])
    with pytest.raises(ContextError):
        prolong_one(I, 1)


def test_point_membership_examples():
    I = IdealPresentation(R1, [parse_poly("x1_[0] - t1", R1)])
    system = prolong_one(I, 1)
    t1 = Coefficient.base_var(1, 1)
    assert point_in_prolongation([t1], system)

    I2 = IdealPresentation(C1, [parse_poly("x1_[0]^2 - 1", C1)])
    system2 = prolong_one(I2, 1)
    one = Coefficient.one(0)
    zero = Coefficient.zero(0)
    five = Coefficient.from_int(5, 0)
    assert point_in_prolongation([one], system2, {1: [zero]})
    assert not point_in_prolongation([one], system2, {1: [five]})


def test_point_membership_wrong_arity():
    I = IdealPresentation(C1, [parse_poly("x1_[0]^2 - 1", C1)])
    system = prolong_one(I, 1)
    with pytest.raises(ContextError):
        point_in_prolongation([], system)
    with pytest.raises(ContextError):
        point_in_prolongation([Coefficient.one(0)], system,
                              {1: [Coefficient.one(0), Coefficient.one(0)]})


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_point_invariance_randomized(seed, n, m):
    rng = random.Random(1000 * n + 100 * m + seed)
    ideal, point = locus_with_point(rng, n, m)
    system = prolong_delta(ideal)
    derivs = {k: [a.derive(k) for a in point]
              for k in range(1, m + 1)}
    assert point_in_prolongation(point, system, derivs)
