"""Monomial orders, realized as flat integer sort keys on exponent vectors.

Every order produces a key tuple such that ordinary tuple comparison of keys
agrees with the monomial order; larger key = larger monomial.  Each key
component is a linear form in the exponents, zero at the monomial 1: the
Groebner kernel packs keys into one int per term on that contract
(`groebner._Codec`), and refuses an order that breaks it.
"""

from __future__ import annotations

from .errors import OrderError

Mono = tuple  # exponent vector, one int per ring variable


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
