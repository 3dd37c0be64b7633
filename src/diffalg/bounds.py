"""The Ackermann function and the realization-length bound C_{r,m}^n.

Everything here is exact big-integer arithmetic.  A bit budget (env var
DIFFALG_BIT_BUDGET, default 2^20 bits) guards against the m >= 4 blowups;
hitting it raises ResourceBudgetError rather than truncating.  Each public
function reads the budget once and passes it down.
"""
from __future__ import annotations

from .errors import ContextError, ResourceBudgetError, _size_text, env_budget

# Looping more than this many times in the C^1 recursion is hopeless anyway.
MAX_RECURSION_STEPS = 1 << 20

_ack_memo = {}


def bit_budget():
    return env_budget("DIFFALG_BIT_BUDGET", 1 << 20)


def _check_bits(approx_bits, budget):
    if approx_bits > budget:
        raise ResourceBudgetError(
            "result needs about %s bits, over the %d-bit budget"
            % (_size_text(approx_bits), budget))


def _pow2(e, budget):
    _check_bits(e + 1, budget)
    return 1 << e


def ackermann(x, y):
    """A(x, y) with closed forms for x <= 3 and memoized recursion above.

    The closed forms (y+1, y+2, 2y+3, 2^{y+3}-3) each follow from the
    recursion by induction on y.
    """
    if x < 0 or y < 0:
        raise ContextError("ackermann arguments must be naturals")
    return _ack(x, y, bit_budget())


def _ack(x, y, budget):
    """_ackermann, with a too-deep recursion reported as over the budget."""
    try:
        return _ackermann(x, y, budget)
    except RecursionError:
        raise ResourceBudgetError("Ackermann recursion too deep: the value is "
                                  "over the %d-bit budget" % budget) from None


def _ackermann(x, y, budget):
    if x == 0:
        return y + 1
    if x == 1:
        return y + 2
    if x == 2:
        _check_bits(y.bit_length() + 2, budget)
        return 2 * y + 3
    if x == 3:
        return _pow2(y + 3, budget) - 3
    key = (x, y)
    if key in _ack_memo:
        return _ack_memo[key]
    if y == 0:
        val = _ackermann(x - 1, 1, budget)
    else:
        val = _ackermann(x - 1, _ackermann(x, y - 1, budget), budget)
    _ack_memo[key] = val
    return val


def _c1_recursive(r, m, budget):
    """C_{r,m}^1 by literally iterating C_{r,m}^1 = A(m-1, C_{r-1,m}^1)."""
    if r > MAX_RECURSION_STEPS:
        raise ResourceBudgetError(
            "C^1 recursion over %s steps exceeds the iteration budget"
            % _size_text(r))
    value = 0
    for _ in range(r):
        value = _ack(m - 1, value, budget)
    return value


def _c1(r, m, budget):
    """C_{r,m}^1 for m != 2, via the closed forms for m = 1 and m = 3."""
    if m == 1:
        return r
    if m == 3:
        return 3 * (_pow2(r, budget) - 1)
    return _c1_recursive(r, m, budget)


def bound_C(r, m, n):
    """The realization bound C_{r,m}^n.

    C_{0,m}^1 = 0, C_{r,m}^1 = A(m-1, C_{r-1,m}^1), and
    C_{r,m}^n = C_{C_{r,m}^{n-1}, m}^1.  For m = 2 that is 2^n * r; other
    m iterate C^1 until n steps or a fixed point, so a large n costs
    nothing once the value stops changing.
    """
    if m < 1 or n < 1:
        raise ContextError("m and n must be >= 1")
    if r < 0:
        raise ContextError("r must be >= 0")
    budget = bit_budget()
    if m == 2:
        return _pow2(n, budget) * r if r else 0
    value = r
    for _ in range(n):
        step = _c1(value, m, budget)
        if step == value:
            break
        value = step
    return value


def closed_form(r, m, n):
    """The paper's closed forms where available, else None.

    C_{r,1}^n = r; C_{r,2}^n = 2^n * r; C_{r,3}^1 = 3(2^r - 1).  bound_C
    evaluates exactly these forms for those m and n, so this is its value
    there, and `closed_form_agrees` is true whenever this is not None.
    """
    if m in (1, 2) or (m, n) == (3, 1):
        return bound_C(r, m, n)
    return None
