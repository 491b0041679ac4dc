"""The Groebner/syzygy kernel and ideal-level operations.

One engine serves ideals and submodules of free modules.  It works on term
dicts {(position, monomial): coeff} with an explicit position-over-term sort
key, so Groebner bases under temporary orders (elimination blocks,
variable-last saturations) never touch the ring's default order.  An ideal
is the one-position case {(0, m): c}.  Intersections and colons are read
off module bases by eliminating all positions but one.  Ideal values are
immutable apart from their per-order basis cache.
"""

from __future__ import annotations

import warnings
from heapq import heappop, heappush
from itertools import combinations
from math import comb

from .errors import ModcoreError, RingMismatchError
from .orders import GrevLexVarLast, MonomialOrder, elimination_order
from .poly import (
    Polynomial,
    PolyRing,
    embed_poly,
    mono_deg,
    mono_div,
    mono_lcm,
    mono_mul,
    restrict_poly,
)

# -- dict-level kernel -------------------------------------------------------------


def _mkeyf(keyf):
    """Position-over-term key on (position, monomial), position 0 largest.

    Memoized: the same module monomials recur constantly."""
    cache = {}

    def key(pm):
        k = cache.get(pm)
        if k is None:
            k = (-pm[0],) + keyf(pm[1])
            cache[pm] = k
        return k

    return key


def _vec_to_dict(vec):
    d = {}
    for pos, f in enumerate(vec):
        for m, c in f.terms:
            d[(pos, m)] = c
    return d


def _dict_to_vec(d, ring, npos):
    coords = [{} for _ in range(npos)]
    for (pos, m), c in d.items():
        coords[pos][m] = c
    return tuple(ring.from_dict(cd) for cd in coords)


def _prep(basis, mkey, p):
    """Precompute (lm, lc^-1, tail) triples for the divisors."""
    out = []
    for g in basis:
        lm = max(g, key=mkey)
        lcinv = pow(g[lm], -1, p)
        tail = tuple((pm, c) for pm, c in g.items() if pm != lm)
        out.append((lm, lcinv, tail))
    return out


def _negkey(k):
    return tuple(-v for v in k)


def nf_dict(f, prepped, mkey, p):
    """Full normal form of the term dict `f` against prepared divisors."""
    if not f:
        return {}
    if not prepped:
        return dict(f)
    work = dict(f)
    out = {}
    heap = [(_negkey(mkey(pm)), pm) for pm in work]
    heap.sort()
    while heap:
        _, pm = heappop(heap)
        c = work.get(pm)
        if c is None:
            continue
        pos, m = pm
        for (lpos, lmm), lcinv, tail in prepped:
            if lpos != pos:
                continue
            q = mono_div(m, lmm)
            if q is not None:
                break
        else:
            out[pm] = c
            del work[pm]
            continue
        del work[pm]
        factor = (c * lcinv) % p
        for (tp, tm), tc in tail:
            mm = (tp, mono_mul(tm, q))
            prev = work.get(mm)
            if prev is None:
                v = (-factor * tc) % p
                if v:
                    work[mm] = v
                    heappush(heap, (_negkey(mkey(mm)), mm))
            else:
                v = (prev - factor * tc) % p
                if v:
                    work[mm] = v
                else:
                    del work[mm]
    return out


def _monic(d, mkey, p):
    lm = max(d, key=mkey)
    inv = pow(d[lm], -1, p)
    if inv == 1:
        return d
    return {pm: (c * inv) % p for pm, c in d.items()}


def buchberger(gens, mkey, p):
    """Reduced Groebner basis (list of monic term dicts, ascending leading terms).

    Normal selection strategy: S-pairs of elements with equal leading
    positions, processed by (lcm degree, pair index) for reproducibility and
    pruned by the chain criterion.  The product criterion (coprime leading
    monomials) holds only for ideals, so it prunes only when every input
    term lies in one position.
    """
    one_position = len({pm[0] for g in gens for pm in g}) <= 1
    G = []
    prepped = []
    pairs = []
    done = set()

    def add(d):
        idx = len(G)
        lm = max(d, key=mkey)
        G.append(d)
        prepped.append((lm, 1, tuple((pm, c) for pm, c in d.items() if pm != lm)))
        for j in range(idx):
            lj = prepped[j][0]
            if lj[0] == lm[0]:
                lcm = mono_lcm(lj[1], lm[1])
                heappush(pairs, (mono_deg(lcm), j, idx))

    for g in gens:
        if g:
            r = nf_dict(g, prepped, mkey, p)
            if r:
                add(_monic(r, mkey, p))

    while pairs:
        _, i, j = heappop(pairs)
        done.add((i, j))
        (pi, mi) = prepped[i][0]
        (pj, mj) = prepped[j][0]
        lcm = mono_lcm(mi, mj)
        if one_position and lcm == mono_mul(mi, mj):
            continue
        skip = False
        for k in range(len(G)):
            if k == i or k == j:
                continue
            (pk, mk) = prepped[k][0]
            if pk == pi and mono_div(lcm, mk) is not None:
                a = (k, i) if k < i else (i, k)
                b = (k, j) if k < j else (j, k)
                if a in done and b in done:
                    skip = True
                    break
        if skip:
            continue
        qi = mono_div(lcm, mi)
        qj = mono_div(lcm, mj)
        s = {}
        for (tp, tm), c in G[i].items():
            s[(tp, mono_mul(tm, qi))] = c
        for (tp, tm), c in G[j].items():
            pm = (tp, mono_mul(tm, qj))
            v = (s.get(pm, 0) - c) % p
            if v:
                s[pm] = v
            elif pm in s:
                del s[pm]
        r = nf_dict(s, prepped, mkey, p)
        if r:
            add(_monic(r, mkey, p))

    return _reduce_basis(G, mkey, p)


def _reduce_basis(G, mkey, p):
    """Unique reduced basis: minimal leading terms, fully tail-reduced, monic.

    One pass in ascending leading terms: every term of g_i other than its
    leading one is smaller than lm(g_i), so only lm(g_0)..lm(g_(i-1)) can
    divide it, and the normal form against the reduced prefix is final."""
    items = []
    for g in G:
        if g:
            lm = max(g, key=mkey)
            items.append((mkey(lm), lm, g))
    items.sort(key=lambda t: t[0])
    kept = []
    prepped = []
    for _, lm, g in items:
        if any(h[0] == lm[0] and mono_div(lm[1], h[1]) is not None for h, _, _ in prepped):
            continue
        r = _monic(nf_dict(g, prepped, mkey, p), mkey, p)
        kept.append(r)
        prepped.append((lm, 1, tuple((pm, c) for pm, c in r.items() if pm != lm)))
    return kept


def _syzygy_dicts(gens, npos, ring):
    """Syzygies of the term dicts `gens` (positions below npos), as term dicts
    on positions 0..len(gens)-1.

    Generator i is tagged with position npos + i.  The target block leads in
    position-over-term order, so the basis elements with no term below npos
    are exactly the syzygies.
    """
    unit = (0,) * ring.nvars
    tagged = []
    for i, g in enumerate(gens):
        d = dict(g)
        d[(npos + i, unit)] = 1
        tagged.append(d)
    out = []
    for g in buchberger(tagged, _mkeyf(ring.order.key), ring.char):
        if all(pm[0] >= npos for pm in g):
            out.append({(pos - npos, m): c for (pos, m), c in g.items()})
    return out


def _eliminate_to(gens, last, ring) -> Ideal:
    """The ideal that span(gens) meets in its last position `last`: that
    position is the smallest in position-over-term order, so the basis
    elements with every term there generate it (Greuel-Pfister, A Singular
    Introduction to Commutative Algebra, 2.8)."""
    basis = buchberger(gens, _mkeyf(ring.order.key), ring.char)
    return Ideal(ring, [ring.from_dict({m: c for (_, m), c in g.items()})
                        for g in basis if all(pm[0] == last for pm in g)])


def _colon(v, cols, ring, npos) -> Ideal:
    """(span(cols) :_R v) for term dicts of R^npos: what span((v, 1),
    (col, 0)) in R^npos + R meets in position npos."""
    tagged = dict(v)
    tagged[(npos, (0,) * ring.nvars)] = 1
    return _eliminate_to([tagged] + cols, npos, ring)


def _ideal_basis(polys, keyf, ring):
    """Reduced Groebner basis of the ideal spanned by `polys` under the
    monomial key `keyf`, as polynomials of `ring`."""
    basis = buchberger([_vec_to_dict((f,)) for f in polys], _mkeyf(keyf), ring.char)
    return [_dict_to_vec(d, ring, 1)[0] for d in basis]


# -- Ideal -----------------------------------------------------------------------


class Ideal:
    """Finitely generated ideal with lazily cached reduced Groebner bases."""

    __slots__ = ("ring", "gens", "_gb")

    def __init__(self, ring: PolyRing, gens):
        gens = tuple(g for g in gens if g)
        for g in gens:
            if g.ring != ring:
                raise RingMismatchError("generator from a different ring")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "_gb", {})

    def __setattr__(self, *a):
        raise AttributeError("Ideal is immutable")

    def __repr__(self):
        return f"Ideal({', '.join(str(g) for g in self.gens) or '0'})"

    def groebner_basis(self, order: MonomialOrder | None = None):
        """Reduced Groebner basis as a tuple of monic polynomials, ascending."""
        if order is None:
            order = self.ring.order
        cached = self._gb.get(order)
        if cached is None:
            cached = tuple(_ideal_basis(self.gens, order.key, self.ring))
            self._gb[order] = cached
        return cached

    def is_zero(self) -> bool:
        return not self.gens

    def is_unit(self) -> bool:
        gb = self.groebner_basis()
        return len(gb) == 1 and gb[0].is_constant()

    def contains(self, f: Polynomial) -> bool:
        return ideal_membership(f, self)

    __contains__ = contains

    def __le__(self, other: "Ideal") -> bool:
        return all(other.contains(g) for g in self.gens)

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

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            return Ideal(self.ring, tuple(g * other for g in self.gens))
        if self.ring != other.ring:
            raise RingMismatchError("ideal product across rings")
        return Ideal(self.ring, tuple(dict.fromkeys(f * g for f in self.gens for g in other.gens)))


def groebner_basis(I: Ideal, order: MonomialOrder | None = None):
    return I.groebner_basis(order)


def normal_form(f: Polynomial, G) -> Polynomial:
    """Remainder of f on division by the Groebner basis G (ring's order)."""
    G = [g for g in G if g]
    if not G:
        return f
    ring = f.ring
    mkey = _mkeyf(ring.order.key)
    prepped = _prep([_vec_to_dict((g,)) for g in G], mkey, ring.char)
    return _dict_to_vec(nf_dict(_vec_to_dict((f,)), prepped, mkey, ring.char), ring, 1)[0]


def ideal_membership(f: Polynomial, I: Ideal) -> bool:
    if f.ring != I.ring:
        raise RingMismatchError("membership across rings")
    if not f:
        return True
    return not normal_form(f, I.groebner_basis())


def exact_div(f: Polynomial, g: Polynomial) -> Polynomial:
    """f / g when g divides f exactly; raises otherwise."""
    if not g:
        raise ModcoreError("division by zero polynomial")
    ring = f.ring
    p = ring.char
    ginv = pow(g.lc(), -1, p)
    out = {}
    num = f
    while num:
        q = mono_div(num.lm(), g.lm())
        if q is None:
            raise ModcoreError("exact_div: division is not exact")
        c = (num.lc() * ginv) % p
        out[q] = c
        num = num - ring.monomial(q, c) * g
    return ring.from_dict(out)


# -- intersection and colon by elimination ----------------------------------------


def intersect(I: Ideal, J: Ideal) -> Ideal:
    """I cap J: what span((f, f), (g, 0)), f in I and g in J, in R^2 meets in
    position 1."""
    if I.ring != J.ring:
        raise RingMismatchError("intersection across rings")
    ring = I.ring
    if I.is_zero() or J.is_zero():
        return Ideal(ring, ())
    gens = [{(pos, m): c for m, c in f.terms for pos in (0, 1)} for f in I.gens]
    return _eliminate_to(gens + [_vec_to_dict((g,)) for g in J.gens], 1, ring)


def quotient_ideal(J: Ideal, I: Ideal) -> Ideal:
    """(J :_R I), the intersection of the colons (J : g) over generators g of I."""
    if J.ring != I.ring:
        raise RingMismatchError("quotient across rings")
    ring = J.ring
    if I.is_zero():
        warnings.warn("colon by the zero ideal; returning the unit ideal", stacklevel=2)
        return Ideal(ring, (ring.one(),))
    cols = [_vec_to_dict((h,)) for h in J.gens]
    result = None
    for g in I.gens:
        Qg = _colon(_vec_to_dict((g,)), cols, ring, 1)
        result = Qg if result is None else intersect(result, Qg)
        if result.is_zero():
            return result
    return result


def _is_std_homogeneous(I: Ideal) -> bool:
    return all(g.is_homogeneous() for g in I.gens)


def _divide_out_variable(f: Polynomial, i: int) -> Polynomial:
    e = min(m[i] for m, _ in f.terms)
    if e == 0:
        return f
    d = {}
    for m, c in f.terms:
        mm = list(m)
        mm[i] -= e
        d[tuple(mm)] = c
    return f.ring.from_dict(d)


def _saturate_variable_graded(I: Ideal, i: int) -> Ideal:
    # grevlex with x_i revlex-last: dividing the basis by x_i-content saturates
    ring = I.ring
    basis = _ideal_basis(I.gens, GrevLexVarLast(i).key, ring)
    return Ideal(ring, tuple(_divide_out_variable(f, i) for f in basis))


def _saturate_rabinowitsch(I: Ideal, f: Polynomial) -> Ideal:
    """I + (t*f - 1) in R[t], with t eliminated."""
    ring = I.ring
    # "#t" is unreachable from the polynomial grammar, so it never clashes
    big = PolyRing(ring.char, ("#t",) + ring.vars, elimination_order(ring.nvars + 1, (0,)))
    t = big.var(0)
    gens = [embed_poly(g, big) for g in I.gens]
    gens.append(t * embed_poly(f, big) - big.one())
    basis = _ideal_basis(gens, big.order.key, big)
    return Ideal(ring, [restrict_poly(g, ring) for g in basis if all(m[0] == 0 for m, _ in g.terms)])


def saturate(J: Ideal, f: Polynomial, want_exponent: bool = True):
    """(J : f^infinity); returns (ideal, k) with k the stabilization exponent.

    The ideal comes from the extra-variable elimination (or, for a single
    variable of a homogeneous ideal, from the grevlex-variable-last divide
    out); the exponent is the least k with f^k * result <= J.
    """
    if not f:
        raise ModcoreError("saturation by zero")
    ring = J.ring
    if f.is_constant() or J.is_zero():
        return (J, 0) if want_exponent else (J, None)
    if len(f.terms) == 1 and _is_std_homogeneous(J):
        S = J
        for i, e in enumerate(f.lm()):
            if e:
                S = _saturate_variable_graded(S, i)
    else:
        S = _saturate_rabinowitsch(J, f)
    if not want_exponent:
        return S, None
    gb = J.groebner_basis()
    power = ring.one()
    k = 0
    while True:
        if all(not normal_form(power * g, gb) for g in S.gens):
            return S, k
        power = power * f
        k += 1
        if k > 512:
            raise ModcoreError("saturation exponent failed to stabilize")


def eliminate(I: Ideal, keep) -> Ideal:
    """I cap GF(p)[kept variables], returned as an ideal of the same ring."""
    ring = I.ring
    keep_idx = set()
    for v in keep:
        keep_idx.add(ring.var_index(v) if isinstance(v, str) else int(v))
    drop = tuple(i for i in range(ring.nvars) if i not in keep_idx)
    if not drop:
        return Ideal(ring, I.gens)
    basis = _ideal_basis(I.gens, elimination_order(ring.nvars, drop).key, ring)
    return Ideal(ring, [g for g in basis if all(m[i] == 0 for m, _ in g.terms for i in drop)])


# -- dimension, height, Hilbert function ------------------------------------------


def _leading_supports(I: Ideal):
    gb = I.groebner_basis()
    return [frozenset(i for i, e in enumerate(g.lm()) if e) for g in gb]


def krull_dimension(I: Ideal) -> int:
    """dim(R/I) via the largest variable set independent modulo the leading terms."""
    if I.is_zero():
        return I.ring.nvars
    if I.is_unit():
        return -1
    supports = _leading_supports(I)
    n = I.ring.nvars
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
    if len(a) < len(b):
        a, b = b, a
    return [c + (b[k] if k < len(b) else 0) for k, c in enumerate(a)]


def _hilbert_numerator(monos) -> list:
    """Coefficients of N(t) with HS(S/M) = N(t) / (1-t)^n, for the monomial
    ideal M spanned by `monos` (exponent tuples) in n variables.

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


def _multiplicity(I: Ideal, dim: int) -> int:
    """e(R/I) for a homogeneous I with dim R/I = dim: Q(1), where the Hilbert
    numerator of in(I) is N = (1-t)^(n-dim) * Q.  For dim = 0 this is the
    length of R/I."""
    numer = _hilbert_numerator([g.lm() for g in I.groebner_basis()])
    for _ in range(I.ring.nvars - dim):
        # divide by (1 - t): Q_k is the k-th prefix sum of N, the remainder N(1) is 0
        acc = 0
        quot = []
        for c in numer:
            acc += c
            quot.append(acc)
        numer = quot[:-1]
    return sum(numer)


def _standard_count(nvars: int, leads, gen_degrees, deg: int) -> int:
    """Number of module monomials m*e_pos of degree deg(m) + gen_degrees[pos]
    = deg that no leading term (pos, lm) in `leads` divides: dim_k of the
    degree-`deg` piece of the quotient by the span of the basis.

    Read off the Hilbert numerator N_pos of each position's monomial ideal:
    the count there is sum_k N_pos[k] * C(deg - shift - k + n - 1, n - 1)."""
    total = 0
    for pos, shift in enumerate(gen_degrees):
        numer = _hilbert_numerator([lm for lpos, lm in leads if lpos == pos])
        for k, c in enumerate(numer):
            m = deg - shift - k
            if c and m >= 0:
                total += c * comb(m + nvars - 1, nvars - 1)
    return total


def hilbert_function(I: Ideal, deg: int) -> int:
    """dim_k (R/I)_deg: the one-position case of `_standard_count`."""
    return _standard_count(I.ring.nvars, [(0, g.lm()) for g in I.groebner_basis()], (0,), deg)
