import math

import pytest

from diffalg.errors import ContextError, ResourceBudgetError
from diffalg.indices import (axiom_sizes, check_gamma, coordinate_maps, deg,
                             gamma_set, shift, unit_index)

from helpers import reference_gamma_set


def test_gamma_m2_r1():
    assert gamma_set(2, 1) == ((0, 0), (1, 0), (0, 1))


def test_argument_checks():
    with pytest.raises(ContextError,
                       match=r"^derivation index 0 out of range 1\.\.2$"):
        unit_index(0, 2)
    with pytest.raises(ContextError, match="^r must be >= 0, got -1$"):
        check_gamma(1, -1)
    with pytest.raises(ContextError, match="^n and m must be >= 1$"):
        axiom_sizes(0, 1)


def test_gamma_m3_r2_count():
    # oracle: binom(5, 3) = 10
    gs = gamma_set(3, 2)
    assert len(gs) == 10
    assert len(set(gs)) == 10
    assert all(deg(xi) <= 2 for xi in gs)


def test_gamma_ordinary():
    assert gamma_set(1, 5) == tuple((j,) for j in range(6))


def test_gamma_rejects_zero_dimension():
    with pytest.raises(ContextError):
        gamma_set(0, 3)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("r", list(range(9)))
def test_gamma_cardinality(m, r):
    assert len(gamma_set(m, r)) == math.comb(r + m, m)


@pytest.mark.parametrize("m", range(1, 6))
def test_gamma_order_matches_the_recursive_enumeration(m):
    for r in range(7):
        assert gamma_set(m, r) == reference_gamma_set(m, r)


@pytest.mark.parametrize("m,r,entries", [(1, 5, 6), (2, 1, 6), (3, 2, 30)])
def test_gamma_budget_counts_m_entries_per_index(monkeypatch, m, r, entries):
    # m = 1 counts |Gamma(r)| as before; every entry of a tuple counts
    monkeypatch.setenv("DIFFALG_COORD_BUDGET", str(entries))
    assert len(gamma_set(m, r)) * m == entries
    monkeypatch.setenv("DIFFALG_COORD_BUDGET", str(entries - 1))
    with pytest.raises(ResourceBudgetError) as exc:
        gamma_set(m, r)
    assert str(exc.value) == ("%d*|Gamma(%d)| = %d exceeds the coordinate "
                              "budget" % (m, r, entries))


def test_gamma_of_many_slots_needs_no_recursion():
    # one multi-index of 5000 slots: a recursion per slot would overflow
    assert gamma_set(5000, 0) == ((0,) * 5000,)
    with pytest.raises(ResourceBudgetError):
        gamma_set(5000, 1)  # 5001 indices of 5000 entries each


def test_gamma_ordering_stable():
    a = gamma_set(3, 4)
    b = gamma_set(3, 4)
    assert a == b
    degs = [deg(xi) for xi in a]
    assert degs == sorted(degs)


def test_unit_index_and_shift():
    assert unit_index(2, 3) == (0, 1, 0)
    assert shift((1, 0, 2), 3) == (1, 0, 3)


def test_coordinate_maps_n1_m1():
    maps = coordinate_maps(1, 1)
    assert (maps.C, maps.alpha, maps.beta) == (1, 2, 1)
    # phi on K^2 is the identity: block 0 then block 1 covers all coordinates
    assert list(maps.phi_blocks[0]) + list(maps.phi_blocks[1]) == [0, 1]


def test_coordinate_maps_n1_m2():
    maps = coordinate_maps(1, 2)
    assert (maps.C, maps.alpha, maps.beta) == (2, 6, 3)


def test_coordinate_maps_n2_m1():
    maps = coordinate_maps(2, 1)
    assert (maps.C, maps.alpha, maps.beta) == (1, 4, 2)


@pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2)])
def test_coordinate_maps_invariants(n, m):
    maps = coordinate_maps(n, m)
    assert maps.alpha == n * len(gamma_set(m, maps.C))
    assert maps.beta == n * len(gamma_set(m, maps.C - 1))
    assert maps.alpha == len(maps.layout)
    # pi after phi block 0 is the identity on the Gamma(C-1) block
    assert maps.phi_blocks[0] == maps.pi_indices
    assert maps.pi_indices == tuple(range(maps.beta))
    assert maps.psi_indices == tuple(range(n * (m + 1)))
    # block k lands on the xi + unit_k coordinates
    for k in range(1, m + 1):
        for pos, target in enumerate(maps.phi_blocks[k]):
            i, xi = maps.layout[maps.pi_indices[pos]]
            assert maps.layout[target] == (i, shift(xi, k))


def test_coordinate_maps_budget(monkeypatch):
    monkeypatch.setenv("DIFFALG_COORD_BUDGET", "10")
    with pytest.raises(ResourceBudgetError):
        coordinate_maps(2, 2)
