import math

import pytest

from diffalg.errors import ContextError, ResourceBudgetError
from diffalg.indices import (coordinate_maps, deg, gamma_set, shift,
                             unit_index)


def test_gamma_m2_r1():
    assert gamma_set(2, 1) == ((0, 0), (1, 0), (0, 1))


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
