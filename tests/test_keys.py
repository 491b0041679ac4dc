"""Property tests for the int sort key of a monomial order and for interned
rings: sorting by `orders.linear_key` equals sorting by the order's key
tuple, and each (char, vars, order) names one PolyRing, hashed by content."""

from operator import mul

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from modcore.orders import _EXP_LIMIT, BlockOrder, GrevLex, elimination_order, linear_key  # noqa: E402
from modcore.poly import PolyRing  # noqa: E402

PRIMES = (2, 3, 7, 32003, 10**18 + 3)
TOP = _EXP_LIMIT - 1


@st.composite
def orders(draw):
    """(nvars, order): grevlex, a block order on a permutation of the
    variables cut into blocks, or an elimination order, on 1-8 variables."""
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(("grevlex", "block", "elimination") if n > 1 else ("grevlex", "block")))
    if kind == "grevlex":
        return n, GrevLex()
    if kind == "block":
        perm = draw(st.permutations(range(n)))
        cuts = [0, *sorted(draw(st.sets(st.integers(1, n - 1)))), n] if n > 1 else [0, n]
        return n, BlockOrder(tuple(tuple(perm[a:b]) for a, b in zip(cuts, cuts[1:])))
    drop = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
    return n, elimination_order(n, tuple(drop))


# small exponents tie the leading digits; the extremes reach the digit bound
EXPONENTS = st.one_of(st.integers(0, 3), st.sampled_from((0, TOP - 1, TOP)), st.integers(0, TOP))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(orders(), st.data())
def test_int_key_sorts_as_the_order_key(case, data):
    n, order = case
    monos = data.draw(st.lists(st.tuples(*[EXPONENTS] * n), min_size=2, max_size=30, unique=True))
    units, width = linear_key(order, n)
    keys = {m: sum(map(mul, m, units)) for m in monos}
    assert all(-(1 << width) < k < (1 << width) for k in keys.values())
    assert sorted(monos, key=keys.__getitem__) == sorted(monos, key=order.key)


def _ring_orders(n):
    return [GrevLex(), BlockOrder((tuple(range(n)),))] + ([elimination_order(n, (0,))] if n > 1 else [])


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.sampled_from(PRIMES), st.lists(st.sampled_from("xyzwuv"), min_size=1, max_size=4, unique=True))
def test_one_ring_per_char_vars_and_order(p, names):
    R = PolyRing(p, list(names))
    assert R is PolyRing(p, tuple(names), GrevLex()) and R is PolyRing(p, iter(names))
    assert hash(R) == hash((R.char, R.vars, R.order)) == hash((p, tuple(names), GrevLex()))
    rings = [PolyRing(q, names, order) for q in PRIMES for order in _ring_orders(len(names))]
    rings.append(PolyRing(p, names + ["t"]))
    if len(names) > 1:
        rings.append(PolyRing(p, names[::-1]))
    assert len({id(S) for S in rings}) == len(rings)
    assert sum(S == R for S in rings) == 1
