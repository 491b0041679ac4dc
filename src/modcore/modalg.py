"""Finitely presented graded modules: syzygies, resolutions, Ext, Fitting ideals.

Vectors are tuples of polynomials, one per free-module position; the
Groebner/syzygy kernel in `groebner` works on their term dicts
{(position, monomial): coeff}.  Presentations are stored column-wise (each
column is one relation among the generators).  Minimal presentations and
resolutions keep a minimal set of columns of a reduced basis by one
routine, `groebner._minimal_columns`.
"""

from __future__ import annotations

import math
import weakref
from bisect import bisect_left
from functools import partial
from itertools import combinations

from .errors import ModcoreError, NotHomogeneousError, RingMismatchError
from .groebner import (
    Ideal,
    _back_substitute,
    _basis_ideal,
    _colon,
    _echelon_add,
    _eliminate_to,
    _hilbert_numerator,
    _meet,
    _memo,
    _minimal_columns,
    _ordered_to_vec,
    _recall,
    _reducer,
    _remember,
    _standard_count,
    _syzygy_dicts,
    _vec_to_dict,
    buchberger,
    height,
)
from .poly import Polynomial, PolyRing, _add_products, _add_terms, _poly, mono_deg


# -- submodules of free modules, on the kernel in groebner ---------------------


def module_gb(vectors, ring: PolyRing):
    """Reduced Groebner basis of the span of `vectors` inside a free module."""
    return buchberger([_vec_to_dict(v) for v in vectors], ring)


def syzygies(vectors, ring: PolyRing, npos: int):
    """Generators of the relations among `vectors` (elements of R^npos).

    Returns vectors in R^k, k = len(vectors).
    """
    if any(len(v) != npos for v in vectors):
        raise ModcoreError("vector length does not match the free module")
    k = len(vectors)
    return [_ordered_to_vec(s, ring, k) for s in _syzygy_dicts([_vec_to_dict(v) for v in vectors], npos, ring)]


# -- vectors and matrices ----------------------------------------------------------


def vector_degree(vec, degrees):
    """Degree of a homogeneous vector (None for zero); raises if inhomogeneous."""
    deg = None
    for pos, f in enumerate(vec):
        if not f:
            continue
        if not f.is_homogeneous():
            raise NotHomogeneousError(f"coordinate {pos} is not homogeneous")
        d = f.degree() + degrees[pos]
        if deg is None:
            deg = d
        elif deg != d:
            raise NotHomogeneousError("vector coordinates disagree in degree")
    return deg


def _vec_is_zero(u):
    return all(not a for a in u)


def _constant_row(coeffs):
    """The GF(p) row `coeffs` as a sparse row {-i: c} for `_echelon_add`,
    whose leading key is then its first nonzero position."""
    return {-i: c for i, c in enumerate(coeffs) if c}


@_memo
def _relation_echelon(E: PresentedModule):
    """The constant parts of E's relations, their images modulo the graded
    maximal ideal, in echelon form by `_echelon_add`: {-pivot: row} on
    sparse rows (`_constant_row`), once per E.  It is left unreduced: `mu`
    reads its length and `minimal_presentation` its pivots, which are those
    of every echelon form of the same row space."""
    p = E.ring.char
    rows = {}
    for col in E.relations:
        _echelon_add(rows, _constant_row(f.constant_coeff() for f in col), p)
    return rows


def _constant_rank(E, rows) -> int:
    """The GF(p)-rank of the constant parts of E's relations together with
    the sparse rows `rows` (`_constant_row`): E's echelon
    (`_relation_echelon`) with only the new rows added."""
    p = E.ring.char
    echelon = dict(_relation_echelon(E))
    for r in rows:
        _echelon_add(echelon, r, p)
    return len(echelon)


# -- presented modules ---------------------------------------------------------------


class PresentedModule:
    """E = coker of a homogeneous matrix of relations among graded generators."""

    __slots__ = (
        "ring",
        "gen_degrees",
        "relations",
        "_cache",
    )

    def __init__(self, ring: PolyRing, gen_degrees, relations, _validate=True):
        gen_degrees = tuple(int(d) for d in gen_degrees)
        cols = []
        for col in relations:
            col = tuple(col)
            if len(col) != len(gen_degrees):
                raise ModcoreError("relation column length does not match generators")
            if _vec_is_zero(col):
                continue
            if _validate:
                vector_degree(col, gen_degrees)
            cols.append(col)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "gen_degrees", gen_degrees)
        object.__setattr__(self, "relations", tuple(cols))
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, *a):
        raise AttributeError("PresentedModule is immutable")

    @property
    def n(self) -> int:
        return len(self.gen_degrees)

    def __repr__(self):
        return f"PresentedModule({self.n} gens, {len(self.relations)} relations, degrees {list(self.gen_degrees)})"

    @_memo
    def relation_gb(self):
        """The reduced basis of the relations, ascending.  A direct sum's is
        read off its summands' (`direct_sum`): the relations of E2 shifted
        past E1's positions, whose leading terms are the smaller, then E1's.
        Leading terms in different positions make no S-pair, and no leading
        term divides a tail term of the other summand, which lies in other
        positions; so the union is a reduced basis, with no Buchberger call."""
        summands = self._cache.get("summands")
        if summands is None:
            return module_gb(self.relations, self.ring)
        E1, E2 = summands
        n1 = E1.n
        return [{(pos + n1, m): c for (pos, m), c in g.items()} for g in E2.relation_gb()] + E1.relation_gb()

    def is_zero_module(self) -> bool:
        return mu(self) == 0

    def common_degree(self):
        """The single generator degree, or None if generators mix degrees."""
        degs = set(self.gen_degrees)
        return degs.pop() if len(degs) == 1 else None

    def basis_vector(self, i):
        v = [self.ring.zero()] * self.n
        v[i] = self.ring.one()
        return tuple(v)

    @_memo
    def hilbert_numerators(self):
        """N_pos for each generator position: the Hilbert numerator of the
        leading monomials of the relation basis there, so that
        HS_E(t) = sum_pos t^gen_degrees[pos] N_pos(t) / (1-t)^n.  E is graded,
        so in(N) has the Hilbert function of the relations N.  Each basis
        element lists its terms in descending order, as `buchberger` returns
        them, so its first key is its leading term."""
        leads = [[] for _ in self.gen_degrees]
        for g in self.relation_gb():
            pos, m = next(iter(g))
            leads[pos].append(m)
        return [_hilbert_numerator(ms) for ms in leads]

    def hilbert_function(self, deg: int) -> int:
        """dim_k E_deg via standard module monomials of the relation basis."""
        return _standard_count(self.ring.nvars, self.hilbert_numerators(), self.gen_degrees, deg)


@_memo
def module_from_ideal(I: Ideal) -> PresentedModule:
    """An ideal of positive grade, viewed as a torsionfree rank-one module,
    one per ideal object: every module of a session built on I, and the
    summands of its sums, share this one and all its memos.

    It is presented by a minimal set of the syzygies of I's generators
    (`_minimal_columns`), recorded as the input flag
    `E._cache["minimal_relations"]` (`minimal_presentation`), and their
    reduced basis, which the syzygy step returns, is its relation basis:
    both span the same module, whose reduced basis is unique.  The syzygies
    of homogeneous generators are homogeneous, so the columns need no
    check."""
    if I.is_zero():
        raise ModcoreError("the zero ideal is not a module of positive rank")
    ring = I.ring
    degrees = []
    for g in I.gens:
        if not g.is_homogeneous():
            raise NotHomogeneousError("ideal generators must be homogeneous")
        degrees.append(g.degree())
    basis = _syzygy_dicts([_vec_to_dict((g,)) for g in I.gens], 1, ring)
    k = len(degrees)
    cols = [_ordered_to_vec(s, ring, k) for s in _minimal_columns(basis, degrees, ring)]
    E = PresentedModule(ring, degrees, cols, _validate=False)
    # E records its ideal as a new Ideal on I's generators: I itself, whose
    # memo holds E, would make a reference cycle that only the garbage
    # collector can free
    E._cache["from_ideal"] = Ideal(ring, I.gens)
    E._cache["minimal_relations"] = True
    _remember(E, "relation_gb", basis)
    # E is isomorphic to I inside the domain R
    _remember(E, "is_torsionfree", True)
    return E


def cyclic_module(ring: PolyRing, K: Ideal) -> PresentedModule:
    """R/K as a presented module on one degree-zero generator."""
    return PresentedModule(ring, (0,), tuple((g,) for g in K.gens))


def free_module(ring: PolyRing, rank: int, twist: int = 0) -> PresentedModule:
    """R(-twist)^rank: free with all generators in degree `twist`, and no
    relations to take a basis of."""
    F = PresentedModule(ring, (twist,) * rank, ())
    _remember(F, "relation_gb", [])
    return F


def direct_sum(E1: PresentedModule, E2: PresentedModule, twist: int = 0) -> PresentedModule:
    """Block direct sum; the second summand's generators are shifted by
    `twist`.  The summands are recorded with it, an input like
    `module_from_ideal`'s ideal, and the sum's derived data are read off
    theirs: `relation_gb`, `is_torsionfree`, `fitting_ideal` and
    `first_nonzero_maximal_minor` (when neither summand is free, see
    `_block_summands`).  Minimal
    relations of the summands, flagged or none at all, are minimal for the
    sum, as N1 + N2 modulo m(N1 + N2) is N1/mN1 + N2/mN2, so the sum
    carries the flag `minimal_relations` then.

    The columns take no degree check.  Every PresentedModule's columns are
    homogeneous, checked when it was built or homogeneous by construction,
    and padding a column with zeros keeps its degree; a twist adds the
    same shift to every degree of E2, so each of its columns keeps one
    degree as well."""
    if E1.ring is not E2.ring:
        raise RingMismatchError("direct sum across rings")
    ring = E1.ring
    n1, n2 = E1.n, E2.n
    degrees = E1.gen_degrees + tuple(d + twist for d in E2.gen_degrees)
    z1 = (ring.zero(),) * n1
    z2 = (ring.zero(),) * n2
    cols = [tuple(c) + z2 for c in E1.relations]
    cols += [z1 + tuple(c) for c in E2.relations]
    E = PresentedModule(ring, degrees, cols, _validate=False)
    E._cache["summands"] = (E1, E2)
    if all(S._cache.get("minimal_relations") or not S.relations for S in (E1, E2)):
        E._cache["minimal_relations"] = True
    return E


def rank(E: PresentedModule) -> int:
    """Rank over the fraction field: sum_pos N_pos(1) over the Hilbert
    numerators of the relation basis.  Their sum at t = 1 is the alternating
    sum of the Betti numbers, which is rank E (Bruns-Herzog, Cohen-Macaulay
    Rings, 4.1)."""
    return sum(map(sum, E.hilbert_numerators()))


# -- minimal presentations and resolutions ---------------------------------------


@_memo
def minimal_presentation(E: PresentedModule) -> PresentedModule:
    """E on minimal generators and minimal relations.

    The pivots of the relations' constant echelon (`_relation_echelon`, as
    in `mu`) are the redundant generators, and the others span E.  Renumbered
    to the first positions, which position-over-term puts highest, the
    pivots are eliminated by one basis of the relations (`_eliminate_to`):
    what is left is the reduced basis of the relations among the kept
    generators.  With no pivot it is E's own relation basis.
    `_minimal_columns` keeps a minimal set of it, and the basis is the
    result's `relation_gb`.

    With no pivot and E's relations known to be minimal, the input flag
    `E._cache["minimal_relations"]` (`module_from_ideal`, `direct_sum`),
    the result is E itself, so that the two share one memo table."""
    ring = E.ring
    if E._cache.get("minimal_relations") and not _relation_echelon(E):
        return E
    pivots = sorted(-k for k in _relation_echelon(E))
    kept = [q for q in range(E.n) if q not in pivots]
    if pivots:
        at = {q: k for k, q in enumerate(pivots + kept)}
        moved = [{(at[pos], m): c for (pos, m), c in _vec_to_dict(col).items()} for col in E.relations]
        basis = _eliminate_to(buchberger(moved, ring), len(pivots))
    else:
        basis = E.relation_gb()
    degrees = tuple(E.gen_degrees[q] for q in kept)
    cols = [_ordered_to_vec(c, ring, len(kept)) for c in _minimal_columns(basis, degrees, ring)]
    M = PresentedModule(ring, degrees, cols, _validate=False)
    _remember(M, "relation_gb", basis)
    M._cache["minimal_relations"] = True
    return M


def mu(E: PresentedModule) -> int:
    """Minimal number of generators at the graded maximal ideal m.

    By graded Nakayama (Bruns-Herzog, Cohen-Macaulay Rings, 1.5.15) this is
    dim_k E/mE = n minus the GF(p) rank of the relations modulo m, which are
    their constant parts: the length of E's memoized echelon
    (`_relation_echelon`), which generation counts extend by their own rows
    (`_constant_rank`)."""
    return E.n - len(_relation_echelon(E))


class FreeResolution:
    """Minimal graded free resolution: degrees per step, maps as column lists."""

    __slots__ = ("ring", "degrees", "maps")

    def __init__(self, ring, degrees, maps):
        self.ring = ring
        self.degrees = degrees  # list of degree tuples, degrees[0] = F_0
        self.maps = maps  # maps[k]: columns of F_{k+1} -> F_k

    def length(self) -> int:
        return len(self.maps)


@_memo
def free_resolution(E: PresentedModule) -> FreeResolution:
    """Minimal resolution, built on term dicts: the first map is the minimal
    presentation's relations, and each next map is a minimal set of the
    syzygies of the last (`_minimal_columns`).  The kernel of a minimal
    map lies in m times its source, so each next map is minimal as well.

    A rank count ends it with no syzygy step of a zero kernel.  Map 1 has
    rank r_1 = mu - rank E, and map k + 1, whose image is the kernel of map
    k, has rank r_(k+1) = n_k - r_k, n_k the columns of map k.  Over the
    domain R a map R^c -> R^n has zero kernel exactly when its rank is c,
    so a map with r_k columns is the last one."""
    ring = E.ring
    M = minimal_presentation(E)
    degrees = [M.gen_degrees]
    maps = []
    cols = [_vec_to_dict(c) for c in M.relations]
    r = M.n - rank(M)
    while cols:
        prev = degrees[-1]
        maps.append(cols)
        degrees.append(tuple(mono_deg(m) + prev[pos] for pos, m in (next(iter(c)) for c in cols)))
        if len(cols) == r:
            break
        r = len(cols) - r
        cols = _minimal_columns(_syzygy_dicts(cols, len(prev), ring), degrees[-1], ring)
        if len(maps) > ring.nvars + 2:
            raise ModcoreError("resolution exceeded the syzygy-theorem bound; bug")
    vec_maps = [[_ordered_to_vec(c, ring, len(d)) for c in m] for m, d in zip(maps, degrees)]
    return FreeResolution(ring, degrees, vec_maps)


def projective_dimension(E: PresentedModule):
    """Length of the minimal free resolution; -inf sentinel for the zero module."""
    if E.is_zero_module():
        return -math.inf
    return free_resolution(E).length()


def depth(E: PresentedModule):
    """d - pd(E) by graded Auslander-Buchsbaum; +inf for the zero module, of pd -inf."""
    return E.ring.nvars - projective_dimension(E)


# -- Ext ---------------------------------------------------------------------------


def _transpose_cols(cols, nrows):
    """Columns of the transpose, given columns of a matrix with `nrows` rows."""
    ncols = len(cols)
    return [tuple(cols[j][i] for j in range(ncols)) for i in range(nrows)]


def ext_module(E: PresentedModule, i: int) -> bool:
    """Whether Ext^i_R(E, R) vanishes."""
    if i < 0:
        raise ModcoreError("Ext index must be nonnegative")
    ring = E.ring
    res = free_resolution(E)
    pd = res.length()
    if i >= pd:
        # Ext^pd is the cokernel of M_pd^T, whose entries lie in m, as the
        # resolution is minimal: by graded Nakayama it is zero only when
        # F_pd = 0, that is when E = 0
        return i > pd or not res.degrees[i]
    # Ext^i = (kernel of M_{i+1}^T) / (image of M_i^T) inside the dual of F_i:
    # it vanishes when every kernel generator is zero in D = F_i^* / image
    img = _transpose_cols(res.maps[i - 1], len(res.degrees[i - 1])) if i >= 1 else []
    D = PresentedModule(ring, tuple(-d for d in res.degrees[i]), img, _validate=False)
    kern = syzygies(_transpose_cols(res.maps[i], D.n), ring, len(res.degrees[i + 1]))
    nf = _reducer(D.relation_gb(), ring)
    return not any(nf(_vec_to_dict(v)) for v in kern)


# -- Fitting ideals ------------------------------------------------------------------


def _row_minors(E: PresentedModule):
    """The nonzero minors of E's presentation matrix, by row set: a function
    sending an ascending tuple of rows to {column set: term dict}.

    Expansion along the first row r of a row set: the minor on (r, rest)
    and a column set C is the sum over j in C of (-1)^k entry(r, j) times
    the minor on rest and C - {j}, j the k-th column of C.  So the minors on
    (r, rest) come from the nonzero minors on rest times the nonzero entries
    of row r: a zero row, and the zero minors of a block direct sum, cost
    nothing.  Each row set is expanded once.  Each row lists its nonzero
    entries as (column, terms, negated terms)."""
    p = E.ring.char
    entries = []
    for i in range(E.n):
        row = [(j, col[i].terms) for j, col in enumerate(E.relations) if col[i]]
        entries.append([(j, t, tuple((m, p - c) for m, c in t)) for j, t in row])
    memo = {(): {(): {(0,) * E.ring.nvars: 1}}}
    return partial(_minors_on, memo, entries, p)


def _minors_on(memo, entries, p, rset):
    """The minors on the row set `rset`, for `_row_minors`: looked up in
    `memo`, or expanded along the first row from those on the rest.  A
    module-level recursion, so that a module's minors hold no reference
    cycle."""
    table = memo.get(rset)
    if table is not None:
        return table
    below = _minors_on(memo, entries, p, rset[1:])
    table = {}
    for cset, d in below.items():
        for j, e, neg in entries[rset[0]]:
            k = bisect_left(cset, j)
            if k < len(cset) and cset[k] == j:
                continue
            acc = table.setdefault(cset[:k] + (j,) + cset[k:], {})
            _add_products(acc, neg if k % 2 else e, d.items(), p)
    table = memo[rset] = {cset: d for cset, d in table.items() if d}
    return table


def _nonzero_minors(E: PresentedModule, size: int):
    """The nonzero size-minors of E's presentation matrix, in lexicographic
    (rows, columns) subset order."""
    ring = E.ring
    minors = _row_minors(E)
    for rset in combinations(range(E.n), size):
        table = minors(rset)
        for cset in sorted(table):
            yield ring.from_dict(table[cset])


def _block_summands(E: PresentedModule):
    """E's summands (E1, E2) when E is a direct sum of two modules that both
    have relations, else None.  A free summand's rows are zero, which row
    expansion (`_row_minors`) already skips, so those sums keep the block
    matrix."""
    summands = E._cache.get("summands")
    if summands is None or not all(S.relations for S in summands):
        return None
    return summands


@_memo
def fitting_ideal(E: PresentedModule, t: int) -> Ideal:
    """Fitt_t(E): ideal of (n-t)-minors of the presentation matrix.

    For E = E1 + E2 with relations in both (`_block_summands`) it is the sum
    over i + j = t of Fitt_i(E1)*Fitt_j(E2), 0 <= i <= n1 and 0 <= j <= n2,
    products of the summands' memoized Fitting ideals.  A minor of the block
    matrix on r1 rows of block 1 and r2 of block 2 is zero unless it takes
    r1 columns of block 1 as well, and is then the product of the two block
    minors; an r1-minor of E1 lies in Fitt_(n1-r1)(E1), and r1 + r2 = n - t."""
    if t < 0:
        raise ModcoreError("Fitting index must be nonnegative")
    ring = E.ring
    size = E.n - t
    if size <= 0:
        return Ideal(ring, (ring.one(),))
    gens = {}
    summands = _block_summands(E)
    if summands is not None:
        E1, E2 = summands
        for i in range(max(0, t - E2.n), min(t, E1.n) + 1):
            A = fitting_ideal(E1, i)
            if A.is_zero():
                continue
            for f in A.gens:
                for g in fitting_ideal(E2, t - i).gens:
                    v = f * g  # monic, as both factors are
                    gens.setdefault(v.terms, v)
        return Ideal(ring, gens.values())
    for v in _nonzero_minors(E, size):
        vm = v.monic()
        gens.setdefault(vm.terms, vm)
    return Ideal(ring, gens.values())


@_memo
def first_nonzero_maximal_minor(E: PresentedModule) -> Polynomial:
    """The fixed inverting element of Fitt_e(E): first nonzero (n-e)-minor in
    lexicographic (rows, cols) subset order.

    For E = E1 + E2 with relations in both (`_block_summands`) it is the
    product of the summands' own: a nonzero (n-e)-minor of the block matrix
    takes n_i - e_i rows and columns from block i, as neither block has a
    nonzero minor of larger size, and is the product of those two minors.
    Block 1's rows and columns come first, so the first in lexicographic
    order takes block 1's first minor and then block 2's."""
    summands = _block_summands(E)
    if summands is not None:
        E1, E2 = summands
        return first_nonzero_maximal_minor(E1) * first_nonzero_maximal_minor(E2)
    size = E.n - rank(E)
    if size == 0:
        return E.ring.one()
    v = next(_nonzero_minors(E, size), None)
    if v is None:
        raise ModcoreError("presentation rank is lower than expected")
    return v


def _gs_heights(E: PresentedModule, s: int):
    """The G_s test on E's Fitting ideals: (t, heights), heights mapping each
    t = 1, 2, ... to (ht Fitt_(t+e-1)(E), t + 1), and t the first one whose
    height falls short of t + 1, where the test stops; t is None when none
    does, that is when E is G_s.  A unit ideal passes vacuously (no prime
    contains it).  Both the Fitting ideals and their heights are memoized,
    so the G_s verdicts of one module share them."""
    e = rank(E)
    heights = {}
    for t in range(1, s):
        F = fitting_ideal(E, t + e - 1)
        heights[t] = (height(F), t + 1)
        if not (F.is_unit() or heights[t][0] >= t + 1):
            return t, heights
    return None, heights


# -- annihilators and colons ---------------------------------------------------------


def _colon_by_free(basis, ring, n) -> Ideal:
    """(span(basis) :_R R^n) for a reduced basis `basis` of a submodule of
    R^n: one colon by the unit vectors."""
    unit = (0,) * ring.nvars
    return _colon([{(i, unit): 1} for i in range(n)], basis, ring, n)


class Submodule:
    """A submodule U of a presented module E, given by coordinate vectors."""

    __slots__ = ("parent", "gens", "_cache", "__weakref__")

    def __init__(self, parent: PresentedModule, gens):
        vecs = []
        for v in gens:
            v = tuple(v)
            if len(v) != parent.n:
                raise ModcoreError("submodule generator has wrong length")
            if not _vec_is_zero(v):
                vecs.append(v)
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "gens", tuple(vecs))
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, *a):
        raise AttributeError("Submodule is immutable")

    def __repr__(self):
        return f"Submodule({len(self.gens)} gens of {self.parent!r})"

    @_memo
    def coset_gb(self):
        """Module basis of U + relations; membership modulo the relations.
        `submodule_intersect` stores it with its result."""
        return module_gb(list(self.gens) + list(self.parent.relations), self.parent.ring)

    def __le__(self, other: "Submodule") -> bool:
        if self.parent is not other.parent and self.parent.relations != other.parent.relations:
            raise ModcoreError("submodules of different parents")
        # every generator reduces to 0, through one reducer: modulo other's
        # coset basis, or for a scalar other modulo its image in E/other
        quotient = _scalar_quotient(other)
        if quotient is None:
            nf = _reducer(other.coset_gb(), self.parent.ring)
            return not any(nf(_vec_to_dict(g)) for g in self.gens)
        # other + N is the kernel of R^n -> E/other = R^free / phi(N)
        phi = quotient[1]
        nf = _reducer(_quotient_basis(other), self.parent.ring)
        return not any(nf(phi(_vec_to_dict(g))) for g in self.gens)

    def __eq__(self, other):
        """Equal cosets modulo the relations: two scalar submodules of one
        parent compare by containment both ways, each through E/U (`__le__`)
        with no coset basis; any other pair compares coset bases."""
        if not isinstance(other, Submodule):
            return NotImplemented
        if self.parent is other.parent and _scalar_quotient(self) and _scalar_quotient(other):
            return self <= other and other <= self
        return self.coset_gb() == other.coset_gb()

    def __hash__(self):
        raise TypeError("unhashable")

    def reduced_gens(self):
        """Generators normal-formed against the parent relations (for display)."""
        ring = self.parent.ring
        nf = _reducer(self.parent.relation_gb(), ring)
        out = []
        seen = set()
        for v in self.gens:
            d = nf(_vec_to_dict(v))
            if d:
                w = _ordered_to_vec(d, ring, self.parent.n)
                key = tuple(f.terms for f in w)
                if key not in seen:
                    seen.add(key)
                    out.append(w)
        return out


def _ideal_images(E: PresentedModule, vectors):
    """The image in I of each coordinate vector, sum c_i*g_i over I's
    generators g_i, for E built from the ideal I; zero images included."""
    I = E._cache.get("from_ideal")
    if I is None:
        raise ModcoreError("parent module does not come from an ideal")
    ring = E.ring
    p = ring.char
    images = []
    for v in vectors:
        d = {}
        for c, g in zip(v, I.gens):
            _add_products(d, c.terms, g.terms, p)
        images.append(ring.from_dict(d))
    return images


def whole_module(E: PresentedModule) -> Submodule:
    """E as a submodule of itself, W.  W's memo table is kept on E, as
    `E._cache["whole_module"]`, so that the tasks of a session share W's
    colon and bases.  The table holds W's generators and a weak reference
    to W: W is one object for as long as anyone holds it, and a new one on
    the same table after that.  A strong reference from E to W would make a
    reference cycle with W's parent E, which only the garbage collector
    frees.  E's own relations present W on its generators, so its
    `submodule_presentation` is E, which the table's flag "whole" records."""
    shared = E._cache.get("whole_module")
    if shared is None:
        gens = tuple(E.basis_vector(i) for i in range(E.n))
        shared = E._cache["whole_module"] = {"whole": True, "gens": gens, "W": None}
    ref = shared["W"]
    W = ref() if ref is not None else None
    if W is None:
        W = _trusted_submodule(E, shared["gens"], shared)
        shared["W"] = weakref.ref(W)
    return W


def _trusted_submodule(E: PresentedModule, gens, cache) -> Submodule:
    """Submodule(E, gens) on the memo table `cache`, with no check of gens:
    nonzero vectors of length E.n, known to be so by construction."""
    U = object.__new__(Submodule)
    for slot, value in (("parent", E), ("gens", gens), ("_cache", cache)):
        object.__setattr__(U, slot, value)
    return U


def span(E: PresentedModule, vectors) -> Submodule:
    return Submodule(E, vectors)


def _row_span(E: PresentedModule, rows) -> Submodule:
    """span(E, consts) for the constant vectors whose entries are the GF(p)
    rows `rows`, lists of E.n ints in [0, p), as `rees.random_reduction`
    draws them.  Zero rows are left out of the generators, as
    `Submodule.__init__` leaves out zero vectors, and the rows are kept on
    U as `U._cache["draws"]`: `_change_of_generators` reads its echelon off
    them, and `_scalar_quotient` knows U to be scalar from them."""
    ring = E.ring
    zero = _poly(ring, ())
    unit = (0,) * ring.nvars
    gens = tuple(tuple(_poly(ring, ((unit, c),)) if c else zero for c in row) for row in rows if any(row))
    return _trusted_submodule(E, gens, {"draws": rows})


@_memo
def _change_of_generators(U: Submodule):
    """(free, images) for the span L of the constant parts of U's
    generators, rows in GF(p)^n: the positions that are no pivot of L's
    reduced echelon form (`_echelon_add` on `_constant_row`s, then
    `_back_substitute`), ascending, and for each position i the pairs (k, c)
    with e_i = sum c*e_free[k] modulo L.  A free position is itself, and a
    pivot is minus its echelon row at the free positions, so GF(p)^n / L has
    the basis e_free.  The rows of a random draw are the ints it drew,
    recorded on U as `U._cache["draws"]` (`_row_span`)."""
    E = U.parent
    p = E.ring.char
    rows = {}
    draws = U._cache.get("draws") or ((f.constant_coeff() for f in v) for v in U.gens)
    for coeffs in draws:
        _echelon_add(rows, _constant_row(coeffs), p)
    free = [i for i in range(E.n) if -i not in rows]
    if free:  # with none, every image is empty and no row needs reducing
        _back_substitute(rows, p)
    images = []
    for i in range(E.n):
        row = rows.get(-i, {-i: -1})  # a free position is itself
        images.append(tuple((k, -row[-f] % p) for k, f in enumerate(free) if -f in row))
    return free, images


@_memo
def _scalar_quotient(U: Submodule):
    """(free, phi) when every generator of U is a constant vector, else None.

    U is then spanned over R by GF(p)-combinations of E's generators, and
    their echelon form writes each pivot generator in the free ones modulo
    U: phi sends a term dict on R^n to one on R^free by that substitution
    (`_change_of_generators`), and E/U = R^free / phi(N), N the relations.
    A U built from GF(p) rows (`_row_span`) is scalar by construction, and
    only the generators of any other U are scanned."""
    if "draws" not in U._cache and any(f and not f.is_constant() for v in U.gens for f in v):
        return None
    free, images = _change_of_generators(U)
    return free, partial(_substitute_generators, images, U.parent.ring.char)


def _substitute_generators(images, p, d):
    """phi of `_scalar_quotient`: the term dict d on R^n with each position
    replaced by its image, a list of (free position, coefficient)."""
    return _add_terms({}, (((k, m), a * c) for (pos, m), c in d.items() for k, a in images[pos]), p)


@_memo
def _entry_ideal(E: PresentedModule) -> Ideal:
    """I_1(phi), the ideal of the entries of E's presentation matrix."""
    return Ideal(E.ring, dict.fromkeys(f for col in E.relations for f in col))


@_memo
def _entry_forms(E: PresentedModule):
    """The GF(p)-rank of the entries of E's presentation, as sparse rows
    {monomial: c} for `_echelon_add`, when every entry is a form of one
    degree; else None."""
    entries = _entry_ideal(E).gens
    if len({mono_deg(m) for f in entries for m, _ in f.terms}) != 1:
        return None
    p = E.ring.char
    rows = {}
    for f in entries:
        _echelon_add(rows, dict(f.terms), p)
    return len(rows)


@_memo
def _entry_basis(E: PresentedModule):
    """The reduced basis of I_1(phi), as term dicts in position 0."""
    entries = [_vec_to_dict((f,)) for f in _entry_ideal(E).gens]
    return buchberger(entries, E.ring)


@_memo
def _entry_colon(E: PresentedModule) -> Ideal:
    """I_1(phi) by its reduced basis (`_entry_basis`): the one colon
    (U : E) of every U that `_quotient_basis` reads off I_1(phi)."""
    return _basis_ideal(E.ring, _entry_basis(E))


@_memo
def _relation_dicts(E: PresentedModule):
    """E's relations as term dicts, once per E."""
    return [_vec_to_dict(col) for col in E.relations]


def _spans_entries(E: PresentedModule, forms) -> bool:
    """Whether the forms, term dicts in position 0 that are GF(p)-combinations
    of the entries of E's presentation, span the entries over GF(p).  Fewer
    forms than that rank cannot, and take no rank test."""
    rk = _entry_forms(E)
    if rk is None or len(forms) < rk:
        return False
    p = E.ring.char
    rows = {}
    for d in forms:
        _echelon_add(rows, {m: c for (_, m), c in d.items()}, p)
    return len(rows) == rk


@_memo
def _quotient_basis(U: Submodule):
    """The reduced basis of phi(N) in R^free for a scalar U
    (`_scalar_quotient`), N the relations, so that E/U = R^free / its span
    and v lies in U + N exactly when phi(v) reduces to 0 modulo it.

    With one free position, phi(N) is the ideal J_U = (U :_R E) of the
    forms a_U.N_j, a_U in GF(p)^n the images of the e_i
    (`_change_of_generators`).  Each a_U.N_j is a GF(p)-combination of
    entries of phi, so J_U <= I_1(phi).  When every entry is a form of one
    degree d, both ideals are generated in degree d, by the a_U.N_j and by
    the GF(p)-span V of the entries, so J_U = I_1(phi) exactly when the
    a_U.N_j span V (`_spans_entries`); then the basis is I_1(phi)'s, one
    per E, and no basis of phi(N) is taken."""
    E = U.parent
    free, phi = _scalar_quotient(U)
    forms = [phi(d) for d in _relation_dicts(E)]
    if len(free) == 1 and _spans_entries(E, forms):
        return _entry_basis(E)
    return buchberger(forms, E.ring)


def colon_into(U: Submodule, E: PresentedModule | None = None) -> Ideal:
    """(U :_R E) = ann(E/U), computed once per U.  Reads it off E/U when U is
    scalar and E/U has at most one generator, and else takes the colon by
    the unit vectors over U's coset basis."""
    if E is not None and E is not U.parent:
        raise ModcoreError("U is not a submodule of E")
    return _colon_into(U)


@_memo
def _colon_into(U: Submodule) -> Ideal:
    E = U.parent
    ring = E.ring
    quotient = _scalar_quotient(U)
    if quotient is not None and len(quotient[0]) <= 1:
        # E/U = R^free / phi(N): zero when nothing is free, and else R/J for
        # J the entries of phi(N), whose annihilator is J = Fitt_0(E/U)
        # (Eisenbud, Commutative Algebra, Prop 20.7); no colon is taken
        if not quotient[0]:
            return _basis_ideal(ring, [{(0, (0,) * ring.nvars): 1}])
        basis = _quotient_basis(U)
        # I_1(phi)'s basis, handed out by `_quotient_basis`, is one ideal per E
        if basis is _recall(E, "_entry_basis"):
            return _entry_colon(E)
        return _basis_ideal(ring, basis)
    return _colon_by_free(U.coset_gb(), ring, E.n)


def submodule_presentation(U: Submodule) -> PresentedModule:
    """U as an abstract module on its generators: the parent itself for
    `whole_module`, else `_presentation_by_syzygies`."""
    if U._cache.get("whole"):
        return U.parent
    return _presentation_by_syzygies(U)


@_memo
def _presentation_by_syzygies(U: Submodule) -> PresentedModule:
    """U's presentation, computed once per U: the relations are the heads
    of the syzygies of U's generators and the parent's relations."""
    E = U.parent
    ring = E.ring
    k = len(U.gens)
    cols = []
    for s in _syzygy_dicts([_vec_to_dict(v) for v in U.gens + E.relations], E.n, ring):
        head = {pm: c for pm, c in s.items() if pm[0] < k}
        if head:
            cols.append(_ordered_to_vec(head, ring, k))
    degrees = tuple(vector_degree(v, E.gen_degrees) for v in U.gens)
    return PresentedModule(ring, degrees, cols, _validate=False)


def submodule_intersect(U1: Submodule, U2: Submodule) -> Submodule:
    """U1 cap U2 inside their common parent (cosets modulo the relations):
    the reduced basis of (U1 + N) cap (U2 + N), N the relations, as the meet
    of the pairs (c, c), c in U1 and N, and (h, 0), h in U2 and N."""
    E = U1.parent
    if U2.parent is not E and U2.parent.relations != E.relations:
        raise ModcoreError("parent mismatch")
    relations = _relation_dicts(E)
    kill = [_vec_to_dict(w) for w in U2.gens] + relations
    keep = [_vec_to_dict(u) for u in U1.gens] + relations
    pairs = [(h, {}) for h in kill] + [(c, c) for c in keep]
    return _basis_submodule(E, _meet(pairs, E.n, E.ring))


def _basis_submodule(E: PresentedModule, basis) -> Submodule:
    """The submodule of E spanned by `basis`, the reduced basis of a module
    that contains the relations N: so it is also the reduced basis of the
    submodule's generators and N, its coset basis."""
    C = Submodule(E, [_ordered_to_vec(d, E.ring, E.n) for d in basis])
    _remember(C, "coset_gb", basis)
    return C


def ideal_times_submodule(K: Ideal, U: Submodule) -> Submodule:
    gens = []
    for f in K.gens:
        for v in U.gens:
            gens.append(tuple(f * a for a in v))
    return Submodule(U.parent, gens)


# -- torsion -------------------------------------------------------------------------


@_memo
def is_torsionfree(E: PresentedModule) -> bool:
    """True iff the kernel of E -> E_a vanishes, a the fixed maximal minor.

    A direct sum is torsion-free iff both summands are, since the torsion of
    E1 + E2 is the sum of theirs; a module built from an ideal is known to
    be (`module_from_ideal`).  Otherwise: E_a is free of rank e for any
    nonzero maximal minor a, so that kernel is exactly the torsion
    submodule.  It vanishes iff a*v in N forces v in N, N the relations:
    (N :_F a) is the meet of the pairs (a*e_i, e_i) and (col, 0), and every
    element of its basis must reduce to 0 modulo N.
    """
    summands = E._cache.get("summands")
    if summands is not None:
        return all(is_torsionfree(S) for S in summands)
    if E.n == 0 or not E.relations:
        return True
    a = first_nonzero_maximal_minor(E)
    if a.is_constant():
        return True
    ring = E.ring
    unit = (0,) * ring.nvars
    pairs = [({(i, m): c for m, c in a.terms}, {(i, unit): 1}) for i in range(E.n)]
    pairs += [(_vec_to_dict(col), {}) for col in E.relations]
    nf = _reducer(E.relation_gb(), ring)
    return not any(nf(v) for v in _meet(pairs, E.n, ring))
