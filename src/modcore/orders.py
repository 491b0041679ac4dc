"""Monomial orders, realized as flat integer sort keys on exponent vectors.

Every order produces a key tuple such that ordinary tuple comparison of keys
agrees with the monomial order; larger key = larger monomial.  Each key
component is a linear form in the exponents, zero at the monomial 1: the
Groebner kernel packs keys into one int per term on that contract
(`groebner._Codec`), and refuses an order that breaks it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import OrderError

Mono = tuple  # exponent vector, one int per ring variable


class MonomialOrder:
    """Base class; subclasses are frozen dataclasses usable as cache keys."""

    def key(self, m: Mono) -> tuple:
        raise NotImplementedError


@dataclass(frozen=True)
class GrevLex(MonomialOrder):
    """Graded reverse lexicographic: degree first, last nonzero difference negative."""

    def key(self, m: Mono) -> tuple:
        return (sum(m), *(-e for e in reversed(m)))


@dataclass(frozen=True)
class BlockOrder(MonomialOrder):
    """Block (elimination) order: compare grevlex block by block.

    `blocks` partitions the variable indices; any monomial involving a
    variable of an earlier block beats every monomial supported on later
    blocks, so a Groebner basis eliminates the leading blocks.
    """

    blocks: tuple  # tuple of tuples of variable indices

    def key(self, m: Mono) -> tuple:
        out = []
        for block in self.blocks:
            out.append(sum(m[i] for i in block))
            out.extend(-m[i] for i in reversed(block))
        return tuple(out)


@dataclass(frozen=True)
class GrevLexVarLast(MonomialOrder):
    """Grevlex with variable `last` playing the revlex-smallest role.

    Used for saturating a homogeneous ideal by a single variable: in this
    order, dividing each basis element by its `last`-variable content yields
    the saturation directly.
    """

    last: int

    def key(self, m: Mono) -> tuple:
        tail = tuple(-m[i] for i in reversed(range(len(m))) if i != self.last)
        return (sum(m), -m[self.last]) + tail


def elimination_order(nvars: int, drop: tuple) -> BlockOrder:
    """Block order whose Groebner bases eliminate the variables in `drop`."""
    dropset = set(drop)
    keep = tuple(i for i in range(nvars) if i not in dropset)
    if not dropset or not keep:
        raise OrderError("elimination needs a proper nonempty block")
    return BlockOrder((tuple(sorted(dropset)), keep))
