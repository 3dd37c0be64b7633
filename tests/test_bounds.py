import sys

import pytest

from diffalg import bounds
from diffalg.bounds import ackermann, bound_C, closed_form
from diffalg.errors import ContextError, ResourceBudgetError


def naive_ackermann(x, y):
    """Brute-force oracle: the recursive definition, memoized verbatim."""
    memo = {}

    def a(x, y):
        if x == 0:
            return y + 1
        key = (x, y)
        if key not in memo:
            if y == 0:
                memo[key] = a(x - 1, 1)
            else:
                memo[key] = a(x - 1, a(x, y - 1))
        return memo[key]

    old = sys.getrecursionlimit()
    sys.setrecursionlimit(200_000)
    try:
        return a(x, y)
    finally:
        sys.setrecursionlimit(old)


def test_ackermann_examples():
    assert ackermann(0, 7) == 8
    assert ackermann(2, 2) == 7        # frozen from the oracle
    assert ackermann(3, 3) == 61       # frozen from the oracle
    assert naive_ackermann(2, 2) == 7
    assert naive_ackermann(3, 3) == 61


def test_oracle_restores_recursion_limit():
    old = sys.getrecursionlimit()
    assert naive_ackermann(3, 3) == 61
    assert sys.getrecursionlimit() == old


@pytest.mark.parametrize("x", [0, 1, 2, 3])
@pytest.mark.parametrize("y", list(range(21)))
def test_ackermann_closed_forms_match_recursion(x, y):
    if x == 3 and y > 10:
        expected = (1 << (y + 3)) - 3  # oracle too deep; closed form proven
    else:
        expected = naive_ackermann(x, y)
    assert ackermann(x, y) == expected


def test_ackermann_above_closed_forms():
    assert ackermann(4, 0) == 13
    assert ackermann(4, 1) == 65533


def test_ackermann_budget(monkeypatch):
    monkeypatch.setenv("DIFFALG_BIT_BUDGET", str(1 << 20))
    with pytest.raises(ResourceBudgetError):
        ackermann(4, 3)


@pytest.fixture
def default_recursion_limit():
    """Deep arguments must meet the interpreter's default limit, as in the
    CLI, whatever limit the test process runs at."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(old)


def test_too_deep_recursion_is_over_budget(default_recursion_limit):
    with pytest.raises(ResourceBudgetError):
        ackermann(5, 1)  # A(4, 65533): 65,533 frames deep
    with pytest.raises(ResourceBudgetError):
        bound_C(1, 7, 1)
    assert bound_C(1, 6, 1) == 65533


def test_ackermann_rejects_negative():
    with pytest.raises(ContextError):
        ackermann(-1, 0)


def test_bound_examples():
    assert bound_C(5, 1, 3) == 5            # C_{r,1}^n = r
    assert bound_C(3, 2, 2) == 12           # C_{r,2}^n = 2^n r
    assert bound_C(2, 3, 1) == 9            # C_{r,3}^1 = 3(2^r - 1)
    assert ackermann(2, 3) == 9             # cross-check via the recursion
    assert bound_C(1, 4, 1) == 5            # A(3, 0), frozen from the oracle
    assert naive_ackermann(3, 0) == 5


def recursive_bound(r, m, n):
    """C_{r,m}^n with every C^1 step taken by the literal recursion,
    bypassing the m <= 3 closed forms."""
    for _ in range(n):
        r = bounds._c1_recursive(r, m, bounds.bit_budget())
    return r


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("r", list(range(9)))
def test_closed_forms_vs_recursion(r, n):
    assert bound_C(r, 1, n) == r
    assert recursive_bound(r, 1, n) == r
    assert bound_C(r, 2, n) == (1 << n) * r
    assert recursive_bound(r, 2, n) == (1 << n) * r
    if n == 1:
        assert bound_C(r, 3, 1) == 3 * ((1 << r) - 1)
        assert recursive_bound(r, 3, 1) == 3 * ((1 << r) - 1)


@pytest.mark.parametrize("m,n", [(1, 1), (1, 4), (2, 2), (3, 1)])
def test_bound_monotone_in_r(m, n):
    values = [bound_C(r, m, n) for r in range(9)]
    assert values == sorted(values)


def test_bound_m4_known_value():
    # C_{3,4}^1 = A(3, A(3, A(3, 0))) = A(3, 253) = 2^256 - 3
    assert bound_C(3, 4, 1) == (1 << 256) - 3


def test_bound_m4_budget_abort(monkeypatch):
    monkeypatch.setenv("DIFFALG_BIT_BUDGET", str(1 << 20))
    with pytest.raises(ResourceBudgetError):
        bound_C(5, 4, 1)


def test_bound_rejects_bad_args():
    with pytest.raises(ContextError):
        bound_C(1, 0, 1)
    with pytest.raises(ContextError):
        bound_C(-1, 1, 1)


def test_closed_form_helper():
    assert closed_form(7, 1, 3) == 7
    assert closed_form(3, 2, 2) == 12
    assert closed_form(2, 3, 1) == 9
    assert closed_form(2, 3, 2) is None
    assert closed_form(1, 4, 1) is None
