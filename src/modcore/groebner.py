"""The Groebner/syzygy kernel and ideal-level operations.

One engine serves ideals and submodules of free modules.  It works on term
dicts {(position, monomial): coeff} under the position-over-term order of a
ring it is handed: a basis under another order (an elimination block, a
variable moved last) is taken in a ring that owns that order.  An ideal is
the one-position case {(0, m): c}.  Syzygies, intersections and colons are
all read off a module basis by one helper, `_eliminate_to`; a colon is one
Buchberger call over block copies of a reduced basis it already knows, one
copy per GF(p)-independent normal form of its divisors.  Only this module
knows the term codes behind the kernel (`_Codec`).
Ideal values are immutable apart from their memo of derived data (`_memo`).
"""

from __future__ import annotations

import random
import warnings
from functools import cache, reduce, wraps
from heapq import heapify, heappop, heappush
from itertools import accumulate, combinations, combinations_with_replacement, groupby
from math import comb
from operator import mul, or_
from struct import Struct

from .errors import ModcoreError, OrderError, RingMismatchError
from .orders import GrevLex, elimination_order
from .poly import (
    Polynomial,
    PolyRing,
    _EXP_LIMIT,
    map_poly,
    mono_deg,
    mono_div,
    substitute,
)

RETRY_CAP = 32  # seeded draws before a randomized test gives up

# -- derived data, computed once per owning object -------------------------------


_MISSING = object()  # no memo yet; any value a function returns is a memo


def _memo(fn):
    """Compute fn(obj, *args) once per owner `obj`, and keep the value in
    obj._cache under fn's name and `args`.  A value found there is returned
    as it is, whatever it is (False, 0 and [] included).  A value that is
    obj itself is returned but not kept: obj would hold itself, a reference
    cycle that only the garbage collector frees."""
    name = fn.__name__

    @wraps(fn)
    def memo(obj, *args):
        key = (name, args)
        value = obj._cache.get(key, _MISSING)
        if value is _MISSING:
            value = fn(obj, *args)
            if value is not obj:
                obj._cache[key] = value
        return value

    return memo


def _remember(obj, name, value):
    """Store `value` as the memo of the function called `name` at obj: a
    value known before anyone asks for it."""
    obj._cache[(name, ())] = value


# -- the kernel on term codes ------------------------------------------------------
#
# The Buchberger loop and the normal form work on term codes: each module term
# (position, monomial) is one int (`_Codec`), so a product is one addition,
# a comparison one int compare and a divisibility test one subtraction.  The
# boundary is the term dict {(position, monomial): coeff}: `buchberger`
# encodes its input once and decodes its basis once.

_FIELD_BITS = 16  # one field per exponent; its top bit is the guard bit
_FIELD = _EXP_LIMIT - 1  # the exponent bits of a field
_POS_BITS = 32
_POS_MASK = (1 << _POS_BITS) - 1


class _Codec:
    """Term codes for one monomial order on `nvars` variables.

    The code of (pos, m) is one int, laid out high to low as
      - the position-over-term key (-pos, k_1(m), ..., k_r(m)), as the digits
        of a number in base 2^b;
      - pos, in _POS_BITS bits;
      - the exponents of m, one _FIELD_BITS-bit field each, whose top bit is
        a guard bit.
    Every k_j is a linear form in the exponents, zero at the monomial 1
    (orders.py), and 2^b exceeds the spread of every digit over exponents
    below 2^15, so the code is a linear form in (pos, m) and int order is
    term order.  Hence code(pos, m) + code(0, q) = code(pos, m*q) as long as
    m*q sets no guard bit, and lm divides m in the same position exactly when
    (code(pos, m) | guard) - code(pos, lm) keeps every guard bit; the
    difference minus the guard bits is then code(0, m / lm).
    """

    def __init__(self, order, nvars):
        zero = order.key((0,) * nvars)
        units = [order.key(tuple(int(i == j) for j in range(nvars))) for i in range(nvars)]
        probe = tuple(range(1, nvars + 1))
        if any(zero) or tuple(order.key(probe)) != tuple(
                sum(e * u[k] for e, u in zip(probe, units)) for k in range(len(zero))):
            raise OrderError(f"{order!r} has no linear sort key")
        r = len(zero)
        b = (max(sum(abs(u[k]) for u in units) for k in range(r)) * _FIELD).bit_length()
        shifts = tuple(_FIELD_BITS * (nvars - 1 - i) for i in range(nvars))
        self.ebits = _FIELD_BITS * nvars
        low = self.ebits + _POS_BITS
        digits = [1 << (b * (r - 1 - k)) for k in range(r)]
        self.units = tuple((sum(map(mul, u, digits)) << low) + (1 << s) for u, s in zip(units, shifts))
        self.pos_unit = (1 << self.ebits) - (1 << (b * r + low))
        self.guard = sum(1 << (s + _FIELD_BITS - 1) for s in shifts)
        self.emask = (1 << self.ebits) - 1
        self.low_mask = (1 << low) - 1
        self.unpack = Struct(f">I{nvars}H").unpack  # (pos, m) from the fields of the low part

    def code(self, pos, m):
        if pos >> _POS_BITS:
            raise ModcoreError(f"position {pos} does not fit in a term code ({_POS_BITS} bits)")
        if max(m) > _FIELD:
            raise OverflowError("monomial exponent overflow")
        return pos * self.pos_unit + sum(map(mul, m, self.units))

    def term(self, code):
        v = self.unpack((code & self.low_mask).to_bytes(_POS_BITS // 8 + self.ebits // 8, "big"))
        return v[0], v[1:]

    def pos(self, code):
        return (code >> self.ebits) & _POS_MASK

    def encode(self, d):
        code = self.code
        return {code(pos, m): c for (pos, m), c in d.items()}

    def decode(self, d):
        term = self.term
        return {term(t): c for t, c in d.items()}


@cache
def _codec(order, nvars):
    return _Codec(order, nvars)


def _vec_to_dict(vec):
    d = {}
    for pos, f in enumerate(vec):
        for m, c in f.terms:
            d[(pos, m)] = c
    return d


def _ordered_to_vec(d, ring, npos):
    """The vector of a kernel output `d` under the ring's order.

    `nf_dict`, and so `buchberger`, return their terms in descending
    position-over-term order, so each coordinate's terms already come
    sorted, with coefficients in [1, p): no second sort is needed."""
    coords = [[] for _ in range(npos)]
    for (pos, m), c in d.items():
        coords[pos].append((m, c))
    return tuple(Polynomial(ring, tuple(t)) for t in coords)


def _add_divisor(divs, d, codec, p):
    """File the code dict `d` under its leading position in `divs` as a
    divisor (lead, lc^-1, tail, bound), and return it.

    bound is the fieldwise OR of the exponents of d: when bound + code(0, q)
    sets no guard bit, no tail term times q overflows."""
    items = sorted(d.items(), reverse=True)
    lead, lc = items[0]
    div = (lead, pow(lc, -1, p), tuple(items[1:]), reduce(or_, d) & codec.emask)
    divs.setdefault(codec.pos(lead), []).append(div)
    return div


def _reducer(basis, ring):
    """Normal form against the term dicts `basis` (ring's order), as a
    function on term dicts; the divisors are encoded once."""
    p = ring.char
    codec = _codec(ring.order, ring.nvars)
    divs = {}
    for g in basis:
        _add_divisor(divs, codec.encode(g), codec, p)
    return lambda d: codec.decode(nf_dict(codec.encode(d), divs, codec, p))


def _overflows(tail, q, guard):
    """Whether some tail term times code(0, q) sets a guard bit."""
    return any((t + q) & guard for t, _ in tail)


def nf_dict(f, divs, codec, p):
    """Full normal form of the code dict `f` against the divisors `divs`
    (by leading position, as `_add_divisor` files them); the first divisor
    whose leading term divides is used.  The terms of the result come in
    descending order."""
    if not f:
        return {}
    if not divs:
        return {t: f[t] for t in sorted(f, reverse=True)}
    guard, ebits, pmask = codec.guard, codec.ebits, _POS_MASK
    work = dict(f)
    out = {}
    heap = [-t for t in work]
    heapify(heap)
    while heap:
        t = -heappop(heap)
        c = work.pop(t, None)
        if c is None:
            continue
        probe = t | guard
        for lead, lcinv, tail, bound in divs.get((t >> ebits) & pmask, ()):
            q = probe - lead
            if q & guard == guard:
                break
        else:
            out[t] = c
            continue
        q -= guard
        if (bound + q) & guard and _overflows(tail, q, guard):
            raise OverflowError("monomial exponent overflow")
        factor = (c * lcinv) % p
        for tt, tc in tail:
            tt += q
            prev = work.get(tt)
            if prev is None:
                v = (-factor * tc) % p
                if v:
                    work[tt] = v
                    heappush(heap, -tt)
            else:
                v = (prev - factor * tc) % p
                if v:
                    work[tt] = v
                else:
                    del work[tt]
    return out


def _monic(d, p):
    lm = max(d)
    inv = pow(d[lm], -1, p)
    if inv == 1:
        return d
    return {t: (c * inv) % p for t, c in d.items()}


def buchberger(gens, ring, known=()):
    """Reduced Groebner basis (list of monic term dicts, ascending leading terms)
    of `known` and the term dicts `gens`, under the position-over-term order
    of `ring`'s monomial order, over GF(ring.char).

    Normal selection strategy: S-pairs of elements with equal leading
    positions, processed by (lcm degree, pair index) for reproducibility and
    pruned by the chain criterion.  The product criterion (coprime leading
    monomials) holds only for ideals, so it prunes only when every input
    term lies in one position.

    `known` is a reduced Groebner basis that is already encoded: a list of
    (code dict, divisor) pairs (`_add_divisor`), as `_colon` builds them for
    shifted copies of one basis.  It is taken as it is: no reduction, and
    no S-pair between two of its elements, since each such pair reduces to
    zero against them (Gebauer-Moeller, J. Symb. Comp. 6, 1988); the chain
    criterion counts those pairs as done.

    Inputs that are all single terms need no loop: the S-polynomial of two
    terms is 0, so the reduced basis is the minimal terms (`_minimal_terms`).
    """
    gens = [g for g in gens if g]
    if not gens and not known:
        return []
    p = ring.char
    codec = _codec(ring.order, ring.nvars)
    if all(len(g) == 1 for g in gens) and all(len(d) == 1 for d, _ in known):
        codes = [t for d, _ in known for t in d] + [codec.code(*pm) for g in gens for pm in g]
        return [{codec.term(t): 1} for t in _minimal_terms(codes, codec)]
    positions = {pm[0] for g in gens for pm in g}
    one_position = len(positions) <= 1 and len(positions.union(codec.pos(t) for d, _ in known for t in d)) <= 1
    guard = codec.guard
    G = []  # monic code dicts
    D = []  # their divisors
    leads = []
    lterms = []  # the leading terms as (position, monomial)
    at = {}  # position -> indices of the elements leading there
    divs = {}
    pairs = []
    done = set()
    nknown = len(known)

    def add(d, div=None):
        idx = len(G)
        G.append(d)
        if div is None:
            div = _add_divisor(divs, d, codec, p)
        else:
            divs.setdefault(codec.pos(div[0]), []).append(div)
        D.append(div)
        leads.append(div[0])
        pos, m = codec.term(div[0])
        lterms.append((pos, m))
        same = at.setdefault(pos, [])
        for j in same:
            if idx < nknown:
                done.add((j, idx))
            else:
                heappush(pairs, (sum(map(max, lterms[j][1], m)), j, idx))
        same.append(idx)

    for d, div in known:
        add(d, div)
    for g in gens:
        r = nf_dict(codec.encode(g), divs, codec, p)
        if r:
            add(_monic(r, p))

    while pairs:
        _, i, j = heappop(pairs)
        done.add((i, j))
        pi, mi = lterms[i]
        mj = lterms[j][1]
        if one_position and not any(map(min, mi, mj)):
            continue
        lcm = codec.code(pi, tuple(map(max, mi, mj)))
        probe = lcm | guard
        skip = False
        for k in at[pi]:
            if k != i and k != j and (probe - leads[k]) & guard == guard:
                a = (k, i) if k < i else (i, k)
                b = (k, j) if k < j else (j, k)
                if a in done and b in done:
                    skip = True
                    break
        if skip:
            continue
        # the monic leading terms cancel: s is the difference of the shifted tails
        _, _, tail_i, bound_i = D[i]
        _, _, tail_j, bound_j = D[j]
        qi = lcm - leads[i]
        qj = lcm - leads[j]
        if ((bound_i + qi) & guard and _overflows(tail_i, qi, guard)
                or (bound_j + qj) & guard and _overflows(tail_j, qj, guard)):
            raise OverflowError("monomial exponent overflow")
        s = {t + qi: c for t, c in tail_i}
        for t, c in tail_j:
            t += qj
            v = (s.get(t, 0) - c) % p
            if v:
                s[t] = v
            elif t in s:
                del s[t]
        r = nf_dict(s, divs, codec, p)
        if r:
            add(_monic(r, p))

    return [codec.decode(g) for g in _reduce_basis(G, D, codec, p)]


def _minimal_terms(codes, codec):
    """The term codes among `codes` that no other one divides, ascending,
    each once.  A divisor of a term precedes it in term order and shares its
    position, so one ascending pass compares each term with the kept ones
    at its position only."""
    guard = codec.guard
    kept = []
    at = {}  # position -> kept codes there
    for t in sorted(set(codes)):
        probe = t | guard
        same = at.setdefault(codec.pos(t), [])
        if not any((probe - s) & guard == guard for s in same):
            same.append(t)
            kept.append(t)
    return kept


def _reduce_basis(G, D, codec, p):
    """Unique reduced basis of the monic code dicts G, whose divisors are D:
    minimal leading terms, fully tail-reduced, monic.

    One pass in ascending leading terms: every term of g_i other than its
    leading one is smaller than lm(g_i), so only lm(g_0)..lm(g_(i-1)) can
    divide it, and the normal form against the reduced prefix is final.  An
    element the normal form leaves as it is keeps its divisor."""
    guard = codec.guard
    kept = []
    divs = {}
    for g, div in sorted(zip(G, D), key=lambda gd: gd[1][0]):
        lead = div[0]
        pos = codec.pos(lead)
        probe = lead | guard
        if any((probe - h[0]) & guard == guard for h in divs.get(pos, ())):
            continue
        r = nf_dict(g, divs, codec, p)
        kept.append(r)
        if r == g:
            divs.setdefault(pos, []).append(div)
        else:
            _add_divisor(divs, r, codec, p)
    return kept


def _eliminate_to(basis, first):
    """What a module with reduced basis `basis` meets in the positions from
    `first` on, as a reduced basis shifted down by `first`.

    Those positions are the smallest in position-over-term order, so the
    basis elements with every term there are a reduced basis of that meet
    (Greuel-Pfister, A Singular Introduction to Commutative Algebra, 2.8)."""
    return [{(pos - first, m): c for (pos, m), c in g.items()}
            for g in basis if all(pm[0] >= first for pm in g)]


def _syzygy_dicts(gens, npos, ring):
    """Syzygies of the term dicts `gens` (positions below npos), as term dicts
    on positions 0..len(gens)-1: generator i is tagged with position
    npos + i, and the syzygies are what the span meets from npos on."""
    unit = (0,) * ring.nvars
    tagged = [{**g, (npos + i, unit): 1} for i, g in enumerate(gens)]
    return _eliminate_to(buchberger(tagged, ring), npos)


def _minimal_columns(cols, degrees, ring):
    """The columns of a minimal generating set of span(cols), in their given
    order, for `cols` a reduced basis of homogeneous term dicts on positions
    of degrees `degrees`.  No Buchberger call.

    By graded Nakayama (Bruns-Herzog, Cohen-Macaulay Rings, 1.5.15) a column
    of degree d can go exactly when it lies in the GF(p)-span of the degree-d
    multiples of the columns of lower degree and of the degree-d columns
    kept; taken in ascending degree, the lower columns kept span what all of
    them do.  Columns of the lowest degree are all kept: a reduced basis has
    distinct leading terms, so its columns of one degree are
    GF(p)-independent.  The span lives on term codes in echelon form
    (`_echelon_add`), a column times a monomial q being its codes plus
    code(0, q), the sum of the codes of q's variables."""
    degs = [mono_deg(m) + degrees[pos] for pos, m in (next(iter(c)) for c in cols)]
    if len(set(degs)) <= 1:
        return list(cols)
    p = ring.char
    codec = _codec(ring.order, ring.nvars)
    guard = codec.guard
    low = min(degs)
    shifts = {}  # k -> the codes code(0, q) of the monomials q of degree k
    kept = []  # (degree, codes, exponent bound, index) of the columns kept
    for d, group in groupby(sorted(range(len(cols)), key=degs.__getitem__), key=degs.__getitem__):
        rows = {}
        for e, c, bound, _ in kept:
            qs = shifts.get(d - e)
            if qs is None:
                qs = shifts[d - e] = [sum(us) for us in combinations_with_replacement(codec.units, d - e)]
            for q in qs:
                if (bound + q) & guard and _overflows(c.items(), q, guard):
                    raise OverflowError("monomial exponent overflow")
                _echelon_add(rows, {t + q: a for t, a in c.items()}, p)
        for j in group:
            c = codec.encode(cols[j])
            if d == low or _echelon_add(rows, dict(c), p):
                kept.append((d, c, reduce(or_, c) & codec.emask, j))
    return [cols[j] for j in sorted(j for *_, j in kept)]


def _meet(pairs, n, ring):
    """{sum r_i b_i : sum r_i a_i = 0} for the pairs (a_i, b_i) of term
    dicts on R^n: what span((a_i, b_i)) in R^n + R^n meets in the second
    block, as a reduced basis of R^n."""
    gens = [{**a, **{(pos + n, m): c for (pos, m), c in b.items()}} for a, b in pairs]
    return _eliminate_to(buchberger(gens, ring), n)


def _echelon_add(rows, r, p):
    """Clear the code dict `r` (consumed) at the leading codes of `rows`,
    {leading code: monic row}, and file what is left, monic, as a new row.
    Returns whether anything was left: whether r raised the GF(p)-rank."""
    while r:
        lead = max(r)
        row = rows.get(lead)
        if row is None:
            rows[lead] = _monic(r, p)
            return True
        c = r[lead]
        for t, a in row.items():
            x = (r.get(t, 0) - c * a) % p
            if x:
                r[t] = x
            else:
                del r[t]
    return False


def _back_substitute(rows, p):
    """Reduce the echelon `rows` of `_echelon_add` in place, and return it:
    in ascending leading code, clear each row by the reduced rows before it,
    so every row is 0 at every other leading code (the unique reduced form)."""
    done = []
    for lead in sorted(rows):
        r = rows[lead]
        for k in done:
            c = r.get(k)
            if c:
                for t, a in rows[k].items():
                    x = (r.get(t, 0) - c * a) % p
                    if x:
                        r[t] = x
                    else:
                        del r[t]
        done.append(lead)
    return rows


def _independent_normal_forms(vs, divs, codec, p):
    """A GF(p)-basis of the span of the normal forms of the term dicts `vs`
    modulo the divisors `divs` of a reduced basis, in echelon form by
    leading code (`_echelon_add`).  A GF(p)-combination of normal forms is
    a normal form, so every row is one."""
    rows = {}
    for v in vs:
        _echelon_add(rows, nf_dict(codec.encode(v), divs, codec, p), p)
    return [codec.decode(r) for r in rows.values()]


def _colon(vs, basis, ring, npos) -> Ideal:
    """(span(basis) :_R span(vs)) for term dicts of R^npos, `basis` a reduced
    basis under the ring's order.

    r*v lies in span(basis) exactly when r*NF(v) does, and a colon by a set
    depends only on its R-span modulo span(basis); so vs gives way to a
    GF(p)-basis w_1, ..., w_k of the span of its normal forms, and k = 0
    gives the unit ideal.  r*w_i lies in span(basis) for every i exactly
    when r*(w_1, ..., w_k) lies in the block sum of k copies of span(basis),
    so the colon is what span((w_1, ..., w_k, 1), (b in block i, 0)) meets
    in position k*npos.  Shifted copies of a reduced basis that lead in
    disjoint positions are a reduced basis, so one `buchberger` call takes
    them as known.  The basis is encoded and its divisors are built once,
    for the normal forms: a code is linear in the position, so block i's
    are those plus i*npos position units."""
    p = ring.char
    codec = _codec(ring.order, ring.nvars)
    divs = {}
    coded = []
    for b in basis:
        d = codec.encode(b)
        coded.append((d, _add_divisor(divs, d, codec, p)))
    ws = _independent_normal_forms(vs, divs, codec, p)
    unit = (0,) * ring.nvars
    if not ws:
        return _basis_ideal(ring, [{(0, unit): 1}])
    shifts = [i * npos * codec.pos_unit for i in range(len(ws))]
    known = [({t + s: c for t, c in d.items()}, (lead + s, lcinv, tuple((t + s, c) for t, c in tail), bound))
             for s in shifts for d, (lead, lcinv, tail, bound) in coded]
    tagged = {(pos + i * npos, m): c for i, w in enumerate(ws) for (pos, m), c in w.items()}
    last = len(ws) * npos
    tagged[(last, unit)] = 1
    return _basis_ideal(ring, _eliminate_to(buchberger([tagged], ring, known), last))


def _basis_ideal(ring, basis) -> Ideal:
    """The ideal whose reduced basis under the ring's order is `basis`, term
    dicts in position 0 as `buchberger` returns them (ascending, monic,
    reduced).  Those are its generators, and its basis memo starts with
    them, so no later `groebner_basis` call recomputes them."""
    gens = tuple(_ordered_to_vec(d, ring, 1)[0] for d in basis)
    I = Ideal(ring, gens)
    _remember(I, "groebner_basis", gens)
    return I


def _ideal_basis(polys, ring):
    """Reduced Groebner basis of the ideal spanned by `polys` under `ring`'s
    order, as polynomials of `ring`."""
    return [_ordered_to_vec(d, ring, 1)[0] for d in buchberger([_vec_to_dict((f,)) for f in polys], ring)]


# -- Ideal -----------------------------------------------------------------------


class Ideal:
    """Finitely generated ideal; derived data such as its reduced Groebner
    basis under the ring's order are memoized in `_cache` (`_memo`)."""

    __slots__ = ("ring", "gens", "_cache")

    def __init__(self, ring: PolyRing, gens):
        gens = tuple(g for g in gens if g)
        for g in gens:
            if g.ring != ring:
                raise RingMismatchError("generator from a different ring")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, *a):
        raise AttributeError("Ideal is immutable")

    def __repr__(self):
        return f"Ideal({', '.join(str(g) for g in self.gens) or '0'})"

    @_memo
    def groebner_basis(self):
        """Reduced Groebner basis under the ring's order, as a tuple of monic
        polynomials, ascending.  A principal ideal needs no Buchberger
        call: a single generator f is its own reduced basis once monic, and
        the zero ideal has the empty basis."""
        if len(self.gens) <= 1:
            return tuple(f.monic() for f in self.gens)
        return tuple(_ideal_basis(self.gens, self.ring))

    def is_zero(self) -> bool:
        return not self.gens

    def is_unit(self) -> bool:
        gb = self.groebner_basis()
        return len(gb) == 1 and gb[0].is_constant()

    def contains(self, f: Polynomial) -> bool:
        return ideal_membership(f, self)

    __contains__ = contains

    def __le__(self, other: "Ideal") -> bool:
        """Every generator reduces to 0 modulo other's basis, through one
        reducer."""
        if self.ring != other.ring:
            raise RingMismatchError("containment across rings")
        if not self.gens:
            return True
        nf = _reducer([_vec_to_dict((g,)) for g in other.groebner_basis()], self.ring)
        return not any(nf(_vec_to_dict((f,))) for f in self.gens)

    def __eq__(self, other):
        if not isinstance(other, Ideal) or self.ring != other.ring:
            return NotImplemented
        return self.groebner_basis() == other.groebner_basis()

    def __hash__(self):
        return hash((self.ring, self.groebner_basis()))

    def __add__(self, other: "Ideal") -> "Ideal":
        if self.ring != other.ring:
            raise RingMismatchError("ideal sum across rings")
        return Ideal(self.ring, self.gens + other.gens)

    def __mul__(self, other: "Ideal") -> "Ideal":
        if self.ring != other.ring:
            raise RingMismatchError("ideal product across rings")
        return Ideal(self.ring, tuple(dict.fromkeys(f * g for f in self.gens for g in other.gens)))


def normal_form(f: Polynomial, G) -> Polynomial:
    """Remainder of f on division by the Groebner basis G (ring's order)."""
    G = [g for g in G if g]
    if not G:
        return f
    ring = f.ring
    nf = _reducer([_vec_to_dict((g,)) for g in G], ring)
    return _ordered_to_vec(nf(_vec_to_dict((f,))), ring, 1)[0]


def ideal_membership(f: Polynomial, I: Ideal) -> bool:
    if f.ring != I.ring:
        raise RingMismatchError("membership across rings")
    if not f:
        return True
    return not normal_form(f, I.groebner_basis())


# -- intersection and colon by elimination ----------------------------------------


def intersect(I: Ideal, J: Ideal) -> Ideal:
    """I cap J: the meet of the pairs (f, f), f in I, and (g, 0), g in J."""
    if I.ring != J.ring:
        raise RingMismatchError("intersection across rings")
    ring = I.ring
    if I.is_zero() or J.is_zero():
        return Ideal(ring, ())
    pairs = [(_vec_to_dict((f,)),) * 2 for f in I.gens] + [(_vec_to_dict((g,)), {}) for g in J.gens]
    return _basis_ideal(ring, _meet(pairs, 1, ring))


def quotient_ideal(J: Ideal, I: Ideal) -> Ideal:
    """(J :_R I): one colon over J's reduced basis by all generators of I."""
    if J.ring != I.ring:
        raise RingMismatchError("quotient across rings")
    ring = J.ring
    if I.is_zero():
        warnings.warn("colon by the zero ideal; returning the unit ideal", stacklevel=2)
        return Ideal(ring, (ring.one(),))
    basis = [_vec_to_dict((h,)) for h in J.groebner_basis()]
    return _colon([_vec_to_dict((g,)) for g in I.gens], basis, ring, 1)


def _is_std_homogeneous(I: Ideal) -> bool:
    return all(g.is_homogeneous() for g in I.gens)


def _saturate_variable_graded(I: Ideal, i: int) -> Ideal:
    """(I : x_i^infinity) for a homogeneous I: I's reduced grevlex basis with
    x_i moved last, each element divided by its x_i-content (Bayer-Stillman,
    Invent. Math. 87, 1987).  The basis is taken in a ring whose variables
    are R's with x_i moved last, on term dicts whose exponents are permuted
    to match; the divided elements go back to R by one `from_dict` each."""
    ring = I.ring
    moved = PolyRing(ring.char, ring.vars[:i] + ring.vars[i + 1:] + ring.vars[i:i + 1])
    gens = [{(0, m[:i] + m[i + 1:] + m[i:i + 1]): c for m, c in f.terms} for f in I.gens]
    out = []
    for g in buchberger(gens, moved):
        e = min(m[-1] for _, m in g)
        out.append(ring.from_dict({m[:i] + (m[-1] - e,) + m[i:-1]: c for (_, m), c in g.items()}))
    return Ideal(ring, out)


def _saturate_rabinowitsch(I: Ideal, f: Polynomial) -> Ideal:
    """I + (t*f - 1) in R[t], with t eliminated.  The block order is grevlex
    on R's variables, so under R's default order the basis elements free of
    t are the reduced basis of the result, ascending, and its basis memo
    starts with them."""
    ring = I.ring
    # "#t" is unreachable from the polynomial grammar, so it never clashes
    big = PolyRing(ring.char, ("#t",) + ring.vars, elimination_order(ring.nvars + 1, (0,)))
    t = big.var(0)
    gens = [map_poly(g, big) for g in I.gens]
    gens.append(t * map_poly(f, big) - big.one())
    basis = _ideal_basis(gens, big)
    S = Ideal(ring, [map_poly(g, ring) for g in basis if all(m[0] == 0 for m, _ in g.terms)])
    if ring.order == GrevLex():
        _remember(S, "groebner_basis", S.gens)
    return S


def saturate(J: Ideal, f: Polynomial) -> Ideal:
    """(J : f^infinity), from the extra-variable elimination, or, for a
    monomial f and a homogeneous J, from the grevlex-variable-last divide out
    of each of f's variables."""
    if not f:
        raise ModcoreError("saturation by zero")
    if f.is_constant() or J.is_zero():
        return J
    if len(f.terms) == 1 and _is_std_homogeneous(J):
        S = J
        for i, e in enumerate(f.lm()):
            if e:
                S = _saturate_variable_graded(S, i)
        return S
    return _saturate_rabinowitsch(J, f)


# -- dimension, height, Hilbert function ------------------------------------------


def _leading_supports(I: Ideal):
    gb = I.groebner_basis()
    return [frozenset(i for i, e in enumerate(g.lm()) if e) for g in gb]


def _coprime_forms(f: Polynomial, g: Polynomial) -> bool:
    """Whether the forms f, g of positive degrees a, b have no common factor.

    They have one exactly when u*f + v*g = 0 for some (u, v) != 0 with
    deg u = b - 1 and deg v = a - 1: for a common factor h, u = m*g/h and
    v = -m*f/h with deg m = deg h - 1; for coprime f, g, f divides v, which
    cannot be in degree a - 1.  So they are coprime exactly when the
    products m*f (deg m = b - 1) and m*g (deg m = a - 1) are
    GF(p)-independent: one echelon on term codes (`_echelon_add`), a product
    with a monomial q being the codes plus code(0, q)."""
    ring = f.ring
    p = ring.char
    codec = _codec(ring.order, ring.nvars)
    rows = {}
    for h, k in ((f, g.degree() - 1), (g, f.degree() - 1)):
        codes = codec.encode(_vec_to_dict((h,)))
        for us in combinations_with_replacement(codec.units, k):
            q = sum(us)
            if not _echelon_add(rows, {t + q: c for t, c in codes.items()}, p):
                return False
    return True


@_memo
def krull_dimension(I: Ideal) -> int:
    """dim(R/I), once per ideal.

    At most two forms of positive degree take no basis.  They span a proper
    ideal.  One form has height 1 (Krull's principal ideal theorem), and two
    have height 2 exactly when they are coprime (`_coprime_forms`): then
    they are a regular sequence in the factorial ring R, and otherwise the
    ideal lies in the principal ideal of their common factor.  Any other
    ideal takes the largest variable set independent modulo the leading
    terms of its basis."""
    n = I.ring.nvars
    if I.is_zero():
        return n
    gens = I.gens
    if (len(gens) <= 2 and all(g.is_homogeneous() and g.degree() > 0 for g in gens)
            and sum(g.degree() for g in gens) <= _FIELD):
        return n - 2 if len(gens) == 2 and _coprime_forms(*gens) else n - 1
    if I.is_unit():
        return -1
    supports = _leading_supports(I)
    for size in range(n, 0, -1):
        for S in combinations(range(n), size):
            Sset = set(S)
            if all(not sup <= Sset for sup in supports):
                return size
    return 0


def height(I: Ideal) -> int:
    """d - dim(R/I); the unit ideal gets the sentinel d + 1."""
    return I.ring.nvars - krull_dimension(I)


def _monomials_of_degree(nvars: int, deg: int):
    if nvars == 1:
        if deg >= 0:
            yield (deg,)
        return
    for e in range(deg + 1):
        for rest in _monomials_of_degree(nvars - 1, deg - e):
            yield (e,) + rest


def _minimal_monomials(monos):
    """The minimal generators of the monomial ideal spanned by `monos`."""
    out = []
    for m in sorted(set(monos), key=mono_deg):
        if all(mono_div(m, g) is None for g in out):
            out.append(m)
    return out


def _add_series(a, b):
    """a + b on coefficient lists, without trailing zeros."""
    if len(a) < len(b):
        a, b = b, a
    out = [c + (b[k] if k < len(b) else 0) for k, c in enumerate(a)]
    while out and not out[-1]:
        out.pop()
    return out


def _hilbert_numerator(monos) -> list:
    """Coefficients of N(t) with HS(S/M) = N(t) / (1-t)^n, for the monomial
    ideal M spanned by `monos` (exponent tuples) in n variables, without
    trailing zeros, so that equal numerators are equal lists.

    Bigatti's pivot recursion (JPAA 119, 1997): for a pivot p = x_i^a,
    N(M) = N(M + (p)) + t^a N(M : p).  The pivot variable lies in the most
    generators and a is the lower median of its positive exponents, so at
    least two generators collapse into p on the first side while every
    degree drops on the second.  Pairwise coprime generators end the
    recursion with the product of the (1 - t^deg g).
    """
    gens = _minimal_monomials(monos)
    if not gens:
        return [1]
    if not any(gens[0]):
        return []  # the unit ideal: S/M = 0
    n = len(gens[0])
    counts = [sum(1 for m in gens if m[i]) for i in range(n)]
    i = max(range(n), key=counts.__getitem__)
    if counts[i] <= 1:
        out = [1]
        for m in gens:
            out = _add_series(out, [0] * mono_deg(m) + [-c for c in out])
        return out
    a = sorted(m[i] for m in gens if m[i])[(counts[i] - 1) // 2]
    pivot = tuple(a if j == i else 0 for j in range(n))
    plus = [m for m in gens if m[i] < a] + [pivot]
    colon = [m[:i] + (max(m[i] - a, 0),) + m[i + 1 :] for m in gens]
    return _add_series(_hilbert_numerator(plus), [0] * a + _hilbert_numerator(colon))


def _standard_count(nvars: int, numerators, gen_degrees, deg: int) -> int:
    """Number of module monomials m*e_pos of degree deg(m) + gen_degrees[pos]
    = deg that no leading term of a basis divides: dim_k of the degree-`deg`
    piece of the quotient by the span of the basis.

    numerators[pos] is the Hilbert numerator N_pos of the leading monomials
    at position pos; the count there is
    sum_k N_pos[k] * C(deg - shift - k + n - 1, n - 1)."""
    total = 0
    for numer, shift in zip(numerators, gen_degrees):
        for k, c in enumerate(numer):
            m = deg - shift - k
            if c and m >= 0:
                total += c * comb(m + nvars - 1, nvars - 1)
    return total


def _ideal_numerator(I: Ideal) -> list:
    """N(t) with HS(R/I) = N(t) / (1-t)^n, read off the leading terms of
    I's reduced basis."""
    return _hilbert_numerator([g.lm() for g in I.groebner_basis()])


def hilbert_function(I: Ideal, deg: int) -> int:
    """dim_k (R/I)_deg: the one-position case of `_standard_count`."""
    return _standard_count(I.ring.nvars, [_ideal_numerator(I)], (0,), deg)


# -- Cohen-Macaulay certificate ------------------------------------------------------


def _finite_length(numer, m: int) -> bool:
    """Whether N(t)/(1-t)^m is a polynomial, as the Hilbert series of a
    module of finite length is: whether (1-t)^m divides N(t).  Each step
    checks N(1) = 0 and divides by 1 - t, whose quotient has the partial
    sums of N as coefficients."""
    for _ in range(m):
        if sum(numer):
            return False
        numer = list(accumulate(numer))[:-1]
    return True


def _regular_forms(ring: PolyRing, k: int, numer, section, draws: int = RETRY_CAP) -> bool | None:
    """Whether k < n linear forms are regular on a graded module M, by
    seeded draws; `numer` is M's Hilbert numerator over R.

    For linear forms l = l_1..l_k, each exact sequence
    0 -> (0 :_M l_i)(-1) -> M(-1) -> M -> M/l_iM -> 0 adds t*HS(0 :_M l_i),
    whose lowest coefficient is positive, to (1-t)*HS(M).  So l is an
    M-regular sequence exactly when HS(M/lM) = (1-t)^k HS(M): when the
    Hilbert numerators of M over R and of M/lM over R' agree.  Each draw
    replaces the last k variables by random linear forms in the first
    n - k, a map onto R' = GF(p)[x_1..x_(n-k)] whose kernel is spanned by k
    independent linear forms l, so M/lM is M over R';
    `section(R', cut)` returns its numerator, `cut` that map on
    polynomials.  Equal numerators give True: depth M >= k.  A section of
    finite length (`_finite_length`) gives False: l is then a system of
    parameters of M when k = dim M, and one that is not regular proves M
    not Cohen-Macaulay (Bruns-Herzog, Cohen-Macaulay Rings, Thm 2.1.2).
    None when `draws` draws decide nothing (a small field may have no
    regular forms).  The generator is seeded here, so the verdict is
    reproducible."""
    n = ring.nvars
    small = PolyRing(ring.char, ring.vars[: n - k])
    variables = [g.lm() for g in small.gens()]
    rng = random.Random(0)
    for _ in range(draws):
        forms = [small.from_dict({v: rng.randrange(ring.char) for v in variables}) for _ in range(k)]
        cache = {}
        got = section(small, lambda f: substitute(f, small, range(n - k), forms, cache))
        if got == numer:
            return True
        if _finite_length(got, n - k):
            return False
    return None


@_memo
def _certified_cm(K: Ideal, d: int) -> bool | None:
    """Whether R/K is Cohen-Macaulay, for a proper homogeneous K with
    d = dim R/K, once per (K, d).  dim 0 is Artinian, and a K generated by
    n - d = ht(K) elements is a complete intersection (K = 0 when d = n):
    both are CM (Bruns-Herzog, Cohen-Macaulay Rings, Thm 2.1.3), with no
    draw.

    Otherwise R/K is CM exactly when d linear forms are R/K-regular
    (`_regular_forms`, whose section R/(K + l) is R'/K' for the image K'
    of K's basis): True when a draw is regular, False when a draw is a
    system of parameters that is not, None when RETRY_CAP draws decide
    nothing."""
    ring = K.ring
    if d == 0 or len(K.gens) == ring.nvars - d:
        return True
    basis = K.groebner_basis()
    return _regular_forms(ring, d, _ideal_numerator(K),
                          lambda small, cut: _ideal_numerator(Ideal(small, [cut(g) for g in basis])))
