"""Monomial orders, realized as flat integer sort keys on exponent vectors.

Every order produces a key tuple such that ordinary tuple comparison of keys
agrees with the monomial order; larger key = larger monomial.  Each key
component is a linear form in the exponents, zero at the monomial 1, so the
key packs into one int (`linear_key`), the sort key of polynomial terms and
of the Groebner kernel's term codes (`groebner._Codec`) alike; an order that
breaks the contract is refused.  Only `linear_key` reads `key`.
"""

from __future__ import annotations

from functools import cache
from operator import mul

from .errors import OrderError

Mono = tuple  # exponent vector, one int per ring variable
_EXP_LIMIT = 1 << 15  # every exponent stays below this: linear_key orders no larger one


class MonomialOrder:
    """Base class.  An order is immutable, and equal to (with the same hash
    as) an order of its own type with the same parameters, so it serves as
    a cache key; a subclass passes its parameters to this `__init__`."""

    __slots__ = ("_params", "_hash")

    def __init__(self, *params):
        object.__setattr__(self, "_params", params)
        object.__setattr__(self, "_hash", hash(params))

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        return type(other) is type(self) and other._params == self._params

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(map(repr, self._params))})"

    def key(self, m: Mono) -> tuple:
        raise NotImplementedError


class GrevLex(MonomialOrder):
    """Graded reverse lexicographic: degree first, last nonzero difference negative."""

    __slots__ = ()

    def key(self, m: Mono) -> tuple:
        return (sum(m), *(-e for e in reversed(m)))


class BlockOrder(MonomialOrder):
    """Block (elimination) order: compare grevlex block by block.

    `blocks` partitions the variable indices; any monomial involving a
    variable of an earlier block beats every monomial supported on later
    blocks, so a Groebner basis eliminates the leading blocks.
    """

    __slots__ = ("blocks",)

    def __init__(self, blocks: tuple):
        object.__setattr__(self, "blocks", blocks)  # tuple of tuples of variable indices
        super().__init__(blocks)

    def key(self, m: Mono) -> tuple:
        out = []
        for block in self.blocks:
            out.append(sum(m[i] for i in block))
            out.extend(-m[i] for i in reversed(block))
        return tuple(out)


def elimination_order(nvars: int, drop: tuple) -> BlockOrder:
    """Block order whose Groebner bases eliminate the variables in `drop`."""
    dropset = set(drop)
    keep = tuple(i for i in range(nvars) if i not in dropset)
    if not dropset or not keep:
        raise OrderError("elimination needs a proper nonempty block")
    return BlockOrder((tuple(sorted(dropset)), keep))


@cache
def linear_key(order: MonomialOrder, nvars: int):
    """`order` on `nvars` variables as one int key: (units, width) such that
    sum(e_i * units[i]) sorts exponent vectors e, every e_i below
    _EXP_LIMIT, as order.key(e) does, and lies strictly between -2^width
    and 2^width.

    Key component k_j is digit j, high to low, of a number in base 2^b, and
    2^b exceeds the spread of every digit over exponents below _EXP_LIMIT,
    so int order is the order of the digit tuples.  Raises OrderError when
    a component is not a linear form in the exponents, zero at 1."""
    zero = order.key((0,) * nvars)
    units = [order.key(tuple(int(i == j) for j in range(nvars))) for i in range(nvars)]
    probe = tuple(range(1, nvars + 1))
    if any(zero) or tuple(order.key(probe)) != tuple(
            sum(e * u[k] for e, u in zip(probe, units)) for k in range(len(zero))):
        raise OrderError(f"{order!r} has no linear sort key")
    r = len(zero)
    b = (max(sum(abs(u[k]) for u in units) for k in range(r)) * (_EXP_LIMIT - 1)).bit_length()
    digits = [1 << (b * (r - 1 - k)) for k in range(r)]
    return tuple(sum(map(mul, u, digits)) for u in units), b * r
