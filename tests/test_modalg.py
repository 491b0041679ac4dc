"""Presented modules: syzygies, resolutions, Ext, Fitting ideals, colons."""

import ast
import math
from pathlib import Path

import pytest

from modcore import groebner, modalg
from modcore.errors import ModcoreError
from modcore.groebner import (
    Ideal,
    _memo,
    _ordered_to_vec,
    _syzygy_dicts,
    _vec_to_dict,
    height,
    intersect,
    normal_form,
    quotient_ideal,
)
from modcore.modalg import (
    PresentedModule,
    _colon_by_free,
    colon_into,
    cyclic_module,
    depth,
    direct_sum,
    ext_module,
    first_nonzero_maximal_minor,
    fitting_ideal,
    free_module,
    free_resolution,
    is_torsionfree,
    minimal_presentation,
    module_from_ideal,
    module_gb,
    mu,
    projective_dimension,
    rank,
    span,
    submodule_intersect,
    submodule_presentation,
    syzygies,
    vector_degree,
    whole_module,
)
from modcore.checks import _random_elements, build_ideal_module
from modcore.poly import PolyRing, mono_mul
from modcore.rees import graded_component, random_reduction, rees_ideal
from modcore.session import parse_session

from conftest import (
    P,
    generic_cokernel,
    image_ideal,
    ladder_with_squares,
    leibniz_minors,
    monomials_of_degree,
    random_poly,
    random_homogeneous_poly,
    random_presentation,
    resolution_betti,
    row_rank,
    seeded,
    submodule_degree_basis,
    two_block_intersect,
)


def annihilator(E):
    """ann(E) = (0 :_R E), the colon of E's zero submodule."""
    return colon_into(span(E, []), E)


def _matrix_apply(cols, vec_of_polys):
    """Multiply generators (row vector) by a relation column: must vanish."""
    out = []
    for col in cols:
        s = None
        for f, g in zip(col, vec_of_polys):
            t = f * g
            s = t if s is None else s + t
        out.append(s)
    return out


def test_module_from_msq_hilbert_burch(R2, msq, E_msq):
    assert E_msq.n == 3
    assert len(E_msq.relations) == 2
    assert rank(E_msq) == 1
    # oracle: the relation columns annihilate the generators of the ideal
    for r in _matrix_apply(E_msq.relations, list(msq.gens)):
        assert not r


def test_module_from_principal_is_free(R2):
    x, y = R2.gens()
    E = module_from_ideal(Ideal(R2, [x**2 - y**2]))
    assert E.n == 1 and not E.relations and rank(E) == 1


def test_module_from_edge_ideal(E_edge):
    assert E_edge.n == 4 and rank(E_edge) == 1


def test_direct_sum_examples(R2, E_msq):
    ED = direct_sum(E_msq, free_module(R2, 1), twist=2)
    assert ED.gen_degrees == (2, 2, 2, 2)
    assert rank(ED) == 2 and mu(ED) == 4
    # E + 0 = E
    Z = free_module(R2, 0)
    assert direct_sum(E_msq, Z).gen_degrees == E_msq.gen_degrees


def test_direct_sum_edge_plus_free(E_edge_plus):
    assert rank(E_edge_plus) == 2 and mu(E_edge_plus) == 5


def test_syzygies_koszul(R2):
    x, y = R2.gens()
    syz = module_gb([v for v in syzygies([(x,), (y,)], R2, 1)], R2)
    expected = module_gb([(y, -x)], R2)
    assert syz == expected


def test_module_gb_keeps_pairs_with_coprime_leading_monomials(R2):
    # leading terms x*e0 and y*e0 are coprime, but their S-pair gives (0, y^2),
    # which nothing else reduces: the product criterion holds for ideals only
    x, y = R2.gens()
    gb = module_gb([(x, y), (y, R2.zero())], R2)
    assert {(1, (0, 2)): 1} in gb  # the term dict of (0, y^2)


def test_syzygies_of_free_basis(R2):
    x, y = R2.gens()
    F_basis = [(R2.one(), R2.zero()), (R2.zero(), R2.one())]
    assert syzygies(F_basis, R2, 2) == []


def test_syzygies_msq_matches_hilbert_burch(R2, msq):
    x, y = R2.gens()
    syz = syzygies([(g,) for g in msq.gens], R2, 1)
    # composite is zero
    for s in syz:
        acc = R2.zero()
        for c, g in zip(s, msq.gens):
            acc = acc + c * g
        assert not acc
    # cokernel Hilbert function equals that of (x,y)^2 up to degree 6
    E = PresentedModule(R2, (2, 2, 2), syz)
    for d in range(7):
        # dim (m^2)_d = number of monomials of degree d when d >= 2
        expected = d + 1 if d >= 2 else 0
        assert E.hilbert_function(d) == expected


def test_resolution_msq(E_msq):
    res = free_resolution(E_msq)
    assert [len(d) for d in res.degrees] == [3, 2]
    assert res.degrees == [(2, 2, 2), (3, 3)]
    assert projective_dimension(E_msq) == 1
    # minimality: no scalar entries
    for mat in res.maps:
        for col in mat:
            for f in col:
                assert not f or not f.is_constant()


def test_resolution_composites_zero(R3, tri):
    Q = cyclic_module(R3, tri)
    res = free_resolution(Q)
    assert projective_dimension(Q) == 2
    for k in range(len(res.maps) - 1):
        # columns of maps[k+1] are syzygies of maps[k]'s columns
        for col in res.maps[k + 1]:
            acc = [R3.zero()] * len(res.degrees[k])
            for c, prev_col in zip(col, res.maps[k]):
                for i, e in enumerate(prev_col):
                    acc[i] = acc[i] + c * e
            assert not any(acc)


def test_resolution_free_module(R2):
    assert projective_dimension(free_module(R2, 3, twist=1)) == 0


def test_depth_examples(R2, R4, E_msq, edge):
    assert depth(free_module(R2, 1)) == 2
    assert depth(E_msq) == 1
    # R/edge in 4 variables: pd = 3, depth = 1 (not CM)
    Q = cyclic_module(R4, edge)
    assert projective_dimension(Q) == 3
    assert depth(Q) == 1


def test_depth_zero_module(R2):
    Z = cyclic_module(R2, Ideal(R2, [R2.one()]))
    assert depth(Z) == math.inf


def test_ext_examples(R2, E_msq):
    F = free_module(R2, 2)
    assert ext_module(F, 1)
    # Ext^i = 0 for i > pd
    assert ext_module(E_msq, 2)
    # Ext^1(m^2, R) != 0: depth(R/m^2) = 0 forces nonvanishing
    assert not ext_module(E_msq, 1)


def test_ext_detects_depth(R4, edge):
    # pd(edge module) = 2, so Ext^2(E, R) != 0 and Ext^3(E, R) = 0
    E = module_from_ideal(edge)
    assert not ext_module(E, 2) and ext_module(E, 3)


def test_ext_at_pd_takes_no_basis(R2, R4, edge, E_msq, monkeypatch):
    # Ext^pd(E, R) is the cokernel of the transposed last map of a minimal
    # resolution, whose entries lie in m: by graded Nakayama it is nonzero
    # unless E = 0, so ext_module reads it off F_pd with no Buchberger call
    cases = [
        (E_msq, False),
        (module_from_ideal(edge), False),
        (free_module(R2, 2), False),
        (cyclic_module(R2, Ideal(R2, [R2.one()])), True),  # the zero module
    ]
    pds = [free_resolution(M).length() for M, _ in cases]
    assert pds == [1, 2, 0, 0]
    calls = _counting(monkeypatch, modalg, "buchberger")
    assert [ext_module(M, pd) for (M, _), pd in zip(cases, pds)] == [zero for _, zero in cases]
    assert not calls


@pytest.mark.parametrize(
    "gens, zero",
    [
        (lambda x, y, z: [x, y], [True, True, False, True, True]),
        (lambda x, y, z: [x, y, z], [True, True, True, False, True]),
        (lambda x, y, z: [x * y, x * z, y * z], [True, True, False, True, True]),
        (lambda x, y, z: [x**2, y**2], [True, True, False, True, True]),
    ],
    ids=["xy", "xyz", "xy_xz_yz", "x2_y2"],
)
def test_ext_of_cyclic_module_vanishes_below_the_grade(R3, gens, zero):
    # grade I = min{i : Ext^i(R/I, R) != 0}, and R is Cohen-Macaulay, so the
    # grade is the height; below pd, Ext^i is read off the kernel of the dual
    # map, and at i = 0 that kernel is empty (Hom(R/I, R) = 0 for I != 0)
    I = Ideal(R3, gens(*R3.gens()))
    M = cyclic_module(R3, I)
    got = [ext_module(M, i) for i in range(5)]
    assert got == zero
    assert got.index(False) == height(I)


def test_fitting_examples(R2, E_msq, E_msq_plus):
    x, y = R2.gens()
    f = x**2 - y**2
    Q = cyclic_module(R2, Ideal(R2, [f]))
    assert fitting_ideal(Q, 0) == Ideal(R2, [f])
    assert fitting_ideal(E_msq, 2) == Ideal(R2, [x, y])
    assert fitting_ideal(E_msq_plus, 3) == Ideal(R2, [x, y])


def test_fitting_bounds(R2, E_msq):
    assert fitting_ideal(E_msq, 3).is_unit()
    assert fitting_ideal(E_msq, 0).is_zero()


def _random_matrix_module(ring, rng, kind):
    """E presented by a random n x m matrix of polynomials (not homogeneous,
    so unvalidated) of one kind: dense; sparse; with zero rows, as a free
    summand gives; with zero columns, which the presentation drops, or with
    none left at all; or block diagonal, a direct sum of two such."""
    if kind == "block_diagonal":
        A, B = (_random_matrix_module(ring, rng, rng.choice(["dense", "sparse"])) for _ in range(2))
        za, zb = (ring.zero(),) * A.n, (ring.zero(),) * B.n
        cols = [c + zb for c in A.relations] + [za + c for c in B.relations]
        return PresentedModule(ring, (0,) * (A.n + B.n), cols, _validate=False)
    n, m = rng.randrange(1, 5), rng.randrange(1, 5)
    density = 0.3 if kind == "sparse" else 1.0
    cols = [[random_poly(ring, rng) if rng.random() < density else ring.zero() for _ in range(n)] for _ in range(m)]
    if kind == "zero_rows":
        for i in rng.sample(range(n), rng.randrange(1, n + 1)):
            for col in cols:
                col[i] = ring.zero()
    if kind == "empty_columns":
        for col in rng.sample(cols, rng.randrange(1, m + 1)):
            col[:] = [ring.zero()] * n
    return PresentedModule(ring, (0,) * n, cols, _validate=False)


@pytest.mark.parametrize("p", [P, 7])
@pytest.mark.parametrize("kind", ["dense", "sparse", "zero_rows", "empty_columns", "block_diagonal"])
def test_row_expansion_minors_match_leibniz(p, kind):
    # oracle: the minors by row expansion are the Leibniz determinants of
    # every (rows, columns) pair, in value and in lexicographic order, with
    # the zero ones left out; over GF(7) more of them cancel to zero
    ring = PolyRing(p, ("x", "y", "z"))
    rng = seeded(p + len(kind))
    for _ in range(8):
        E = _random_matrix_module(ring, rng, kind)
        for size in range(1, E.n + 2):
            assert list(modalg._nonzero_minors(E, size)) == list(leibniz_minors(E, size)), (kind, E, size)


def test_first_nonzero_maximal_minor_matches_leibniz():
    # the fixed inverting minor of every corpus module, of each corpus ideal
    # as a module and as its power sum, of m^2 + m^2 + m^2 as a session's
    # power_sum, and of the generic 6 x 4 cokernel is the first nonzero
    # (n-e)-minor in lexicographic order
    modules = [generic_cokernel(4, 6, 4)]
    modules += parse_session(
        "ring R = GF(32003)[x,y];\nideal I = (x^2, x*y, y^2);\nmodule P = power_sum(I, 3);\n"
    ).modules.values()
    for path in sorted((Path(__file__).parent.parent / "corpus").glob("*.mc")):
        session = parse_session(path.read_text())
        modules += session.modules.values()
        for I in session.ideals.values():
            EI = module_from_ideal(I)
            modules += [EI, direct_sum(EI, EI)]
    for E in modules:
        assert first_nonzero_maximal_minor(E) == next(leibniz_minors(E, E.n - rank(E))), E


def test_annihilator_examples(R2, msq):
    Q = cyclic_module(R2, msq)
    assert annihilator(Q) == msq
    F = free_module(R2, 2)
    assert annihilator(F).is_zero()


def test_colon_examples(R2, E_msq, msq):
    x, y = R2.gens()
    W = whole_module(E_msq)
    assert colon_into(W).is_unit()
    U = span(E_msq, [E_msq.basis_vector(0), E_msq.basis_vector(2)])  # x^2, y^2
    K = colon_into(U)
    assert K == Ideal(R2, [x, y])
    # cross-check against the ideal quotient route
    assert K == quotient_ideal(Ideal(R2, [x**2, y**2]), msq)


def test_colon_general_module_route(R2, E_msq_plus):
    # m^2 + R(-2) with position 1 free: E/U = R/J, J the entries of phi(N)
    x, y = R2.gens()
    U = span(
        E_msq_plus,
        [
            (R2.one(), R2.zero(), R2.zero(), R2.zero()),
            (R2.zero(), R2.zero(), R2.one(), R2.zero()),
            (R2.zero(), R2.zero(), R2.zero(), R2.one()),
        ],
    )
    K = colon_into(U)
    # r*(xy-generator) must land in U: forces r in (x, y)
    assert K == Ideal(R2, [x, y])


def test_rank_examples(R2, E_msq, E_msq_plus):
    assert rank(free_module(R2, 3)) == 3
    assert rank(E_msq) == 1
    assert rank(E_msq_plus) == 2


def _rank_at_points(E, seed):
    """Oracle for rank(E): n minus the largest rank of the presentation
    matrix evaluated at 3 seeded points of GF(p)^nvars.  A point only lowers
    the rank over the fraction field, and a random one rarely does."""
    rng = seeded(seed)
    best = 0
    for _ in range(3):
        point = [rng.randrange(P) for _ in range(E.ring.nvars)]

        def at(f):
            return sum(c * math.prod(pow(a, k, P) for a, k in zip(point, m)) for m, c in f.terms) % P

        best = max(best, row_rank([[at(f) for f in col] for col in E.relations]))
    return E.n - best


def test_rank_additivity_random(R2):
    rng = seeded(17)
    from conftest import random_homogeneous_poly

    for i in range(10):
        I = Ideal(R2, [random_homogeneous_poly(R2, rng, 2) for _ in range(2)])
        if I.is_zero():
            continue
        E1 = module_from_ideal(I)
        E2 = free_module(R2, rng.randrange(1, 3))
        E = direct_sum(E1, E2, twist=2)
        assert rank(E) == rank(E1) + rank(E2)
        for M in (E1, E2, E):
            assert rank(M) == _rank_at_points(M, i)


@pytest.mark.parametrize("name", ["msq", "edge", "tri", "minors43", "H"])
def test_rank_of_ideal_plus_free_matches_evaluation(name, request):
    I = request.getfixturevalue(name)
    E = direct_sum(module_from_ideal(I), free_module(I.ring, 1), twist=2)
    assert rank(E) == _rank_at_points(E, 5) == 2


def test_rank_of_generic_cokernels_matches_evaluation(E_coker53):
    # n x (n - 2) linear matrices: rank 2
    for E in (E_coker53, generic_cokernel(4, 6, 4)):
        assert rank(E) == _rank_at_points(E, 6) == 2


def test_mu_examples(E_edge, E_msq_plus, R2):
    assert mu(E_edge) == 4
    assert mu(free_module(R2, 3)) == 3
    assert mu(E_msq_plus) == 4


def test_mu_prunes_redundant_generator(R2, msq):
    x, y = R2.gens()
    # present m^2 on four generators, the last = x^2 + y^2 (redundant)
    gens = [x**2, x * y, y**2, x**2 + y**2]
    E = module_from_ideal(Ideal(R2, gens))
    assert E.n == 4 and mu(E) == 3


def test_torsionfree_examples(R2, E_msq, E_msq_plus):
    assert is_torsionfree(E_msq)
    assert is_torsionfree(E_msq_plus)
    x, y = R2.gens()
    T = direct_sum(cyclic_module(R2, Ideal(R2, [x])), free_module(R2, 1))
    assert not is_torsionfree(T)


def test_general_containment_builds_one_reducer(R2, E_msq, monkeypatch):
    # U <= V for a V that is not scalar normal-forms every generator of U
    # through one reducer on V's coset basis, not one per generator
    x, y = R2.gens()
    zero = R2.zero()
    V = span(E_msq, [(x, zero, y), (zero, y, zero)])
    inside = span(E_msq, [(x * x, zero, x * y), (zero, x * y, zero), (x * y, y * y, y * y)])
    outside = span(E_msq, [(x * x, zero, x * y), (y, zero, zero)])
    assert modalg._scalar_quotient(V) is None
    builds = _counting(monkeypatch, modalg, "_reducer")
    assert inside <= V
    assert len(builds) == 1
    assert not outside <= V
    assert len(builds) == 2


def test_submodule_intersect_trivial(R2, E_msq):
    U = span(E_msq, [E_msq.basis_vector(0), E_msq.basis_vector(2)])
    W = whole_module(E_msq)
    assert submodule_intersect(U, U) == U
    assert submodule_intersect(U, W) == U


def test_submodule_intersect_graded_oracle(R2, E_msq):
    x, y = R2.gens()
    one, zero = R2.one(), R2.zero()
    U1 = span(E_msq, [(one, zero, zero), (zero, zero, one)])          # x^2, y^2
    U2 = span(E_msq, [(one, one, zero), (zero, zero, one)])           # x^2+xy, y^2
    C = submodule_intersect(U1, U2)
    # two-way containment of the computed result
    assert C <= U1 and C <= U2
    # graded-piece linear algebra oracle up to degree 5
    rel = list(E_msq.relations)
    for deg in range(2, 6):
        rows1, _ = submodule_degree_basis(list(U1.gens) + rel, E_msq.gen_degrees, R2, deg)
        rows2, _ = submodule_degree_basis(list(U2.gens) + rel, E_msq.gen_degrees, R2, deg)
        rowsC, _ = submodule_degree_basis(list(C.gens) + rel, E_msq.gen_degrees, R2, deg)
        d1, d2 = row_rank(rows1), row_rank(rows2)
        dsum = row_rank(rows1 + rows2)
        dC = row_rank(rowsC)
        assert dC == d1 + d2 - dsum  # dim of the intersection, by inclusion-exclusion
    # spec example query: is x^2 + xy in the intersection?
    v = span(E_msq, [(one, one, zero)])
    assert (v <= C) == (v <= U1)


def test_hilbert_function_alternating_sum(R2, E_msq):
    res = free_resolution(E_msq)

    def free_hf(degrees, d):
        n = R2.nvars
        return sum(math.comb(d - t + n - 1, n - 1) if d >= t else 0 for t in degrees)

    for d in range(9):
        expected = sum((-1) ** k * free_hf(res.degrees[k], d) for k in range(len(res.degrees)))
        assert E_msq.hilbert_function(d) == expected


def test_annihilator_kills_generators(R3, tri, R2, msq):
    # ann(E) * (each generator) reduces to zero modulo the relations
    for ring, I in ((R3, tri), (R2, msq)):
        Q = cyclic_module(ring, I)
        A = annihilator(Q)
        assert span(Q, [(f,) for f in A.gens]) <= span(Q, [])


def test_colon_soundness_random(R2, E_msq):
    # colon_into(U, E) * E <= U for random submodules
    rng = seeded(41)
    for _ in range(10):
        gens = []
        for _ in range(2):
            gens.append(tuple(R2.const(rng.randrange(P)) for _ in range(3)))
        U = span(E_msq, gens)
        K = colon_into(U)
        for f in K.gens:
            for i in range(E_msq.n):
                v = tuple(f if k == i else R2.zero() for k in range(3))
                assert span(E_msq, [v]) <= U


def _syzygy_colon(v, cols, ring, npos):
    """Reference (span(cols) : v): the first coordinates of the syzygies of
    [v] + cols."""
    gens = []
    for s in _syzygy_dicts([v] + cols, npos, ring):
        f = {m: c for (pos, m), c in s.items() if pos == 0}
        if f:
            gens.append(ring.from_dict(f))
    return Ideal(ring, gens)


def _syzygy_intersect(I, J):
    """Reference I cap J: each syzygy (a, b) of (I.gens, J.gens) gives the
    element sum a_i f_i."""
    ring = I.ring
    out = []
    for s in _syzygy_dicts([_vec_to_dict((f,)) for f in I.gens + J.gens], 1, ring):
        h = ring.zero()
        for i, f in enumerate(I.gens):
            h = h + ring.from_dict({m: c for (pos, m), c in s.items() if pos == i}) * f
        out.append(h)
    return Ideal(ring, out)


def _random_presented_module(ring, rng, least=2):
    """`least` to 3 generators in degrees 0 and 1; as many homogeneous
    relation columns with no constant entry, or one more, so that the module
    has rank 0 and a nonzero annihilator."""
    degrees = tuple(rng.randrange(2) for _ in range(rng.randrange(least, 4)))
    cols = []
    for _ in range(len(degrees) + rng.randrange(2)):
        d = max(degrees) + rng.randrange(1, 3)
        cols.append(tuple(random_homogeneous_poly(ring, rng, d - e, nterms=2) for e in degrees))
    return PresentedModule(ring, degrees, cols)


def _assert_reduced_basis(G, ring):
    """Monic, strictly ascending leading terms under the position-over-term
    order of `ring`'s order, and no term of any element divisible by another
    element's leading term in the same position."""
    keyf = ring.order.key

    def mkey(pm):
        return (-pm[0],) + keyf(pm[1])

    lms = [max(g, key=mkey) for g in G]
    assert all(g[lm] == 1 for g, lm in zip(G, lms))
    assert all(mkey(a) < mkey(b) for a, b in zip(lms, lms[1:]))
    for i, g in enumerate(G):
        for pos, m in g:
            for j, (lpos, lm) in enumerate(lms):
                if j != i and lpos == pos:
                    assert any(a < b for a, b in zip(m, lm)), (g, lm)


@pytest.mark.parametrize("seed", range(20))
def test_annihilator_matches_syzygy_route(R2, R3, seed, monkeypatch):
    # the colon and intersection by elimination against the syzygy route
    # they replaced; every basis the kernel returns on the way is reduced
    ring = (R2, R3)[seed % 2]
    E = _random_presented_module(ring, seeded(700 + seed))
    bases = []
    kernel = groebner.buchberger

    def recording(gens, ring, known=()):
        G = kernel(gens, ring, known)
        bases.append((G, ring))
        return G

    monkeypatch.setattr(groebner, "buchberger", recording)
    cols = [_vec_to_dict(c) for c in E.relations]
    basis = groebner.buchberger(cols, ring)
    unit = (0,) * ring.nvars
    reference = None
    for i in range(E.n):
        Qi = _syzygy_colon({(i, unit): 1}, cols, ring, E.n)
        assert groebner._colon([{(i, unit): 1}], basis, ring, E.n) == Qi
        reference = Qi if reference is None else _syzygy_intersect(reference, Qi)
    assert annihilator(E) == reference
    assert bases
    for G, kernel_ring in bases:
        _assert_reduced_basis(G, kernel_ring)


def _tagged_colon(v, cols, ring, npos):
    """Reference (span(cols) : v) by one-tag elimination: the basis elements
    of span((v, 1), (col, 0)) in R^npos + R with every term in position npos."""
    tagged = dict(v)
    tagged[(npos, (0,) * ring.nvars)] = 1
    basis = groebner.buchberger([tagged] + cols, ring)
    return Ideal(ring, [ring.from_dict({m: c for (_, m), c in g.items()})
                        for g in basis if all(pm[0] == npos for pm in g)])


def _loop_colon(vs, cols, ring, npos):
    """Reference (span(cols) : span(vs)): one tagged colon per v, intersected."""
    result = None
    for v in vs:
        Q = _tagged_colon(v, cols, ring, npos)
        result = Q if result is None else intersect(result, Q)
        if result.is_zero():
            break
    return result


def _loop_quotient(J, I):
    return _loop_colon([_vec_to_dict((g,)) for g in I.gens], [_vec_to_dict((h,)) for h in J.gens], J.ring, 1)


def _loop_annihilator(E):
    unit = (0,) * E.ring.nvars
    cols = [_vec_to_dict(c) for c in E.relations]
    return _loop_colon([{(i, unit): 1} for i in range(E.n)], cols, E.ring, E.n)


@pytest.mark.parametrize("seed", range(12))
def test_quotient_matches_loop_route(R2, R3, seed):
    # J holds multiples of I's generators, so (J : I) is more than J; the
    # one-call colon returns the same reduced basis as the per-generator loop
    ring = (R2, R3)[seed % 2]
    rng = seeded(900 + seed)
    I = Ideal(ring, [random_homogeneous_poly(ring, rng, rng.randrange(1, 3), nterms=2)
                     for _ in range(rng.randrange(1, 5))])
    J = Ideal(ring, [random_homogeneous_poly(ring, rng, 1, nterms=2) * rng.choice(I.gens)
                     if rng.randrange(3) else random_homogeneous_poly(ring, rng, 3)
                     for _ in range(rng.randrange(1, 5))])
    Q = quotient_ideal(J, I)
    assert Q.gens == _loop_quotient(J, I).gens
    assert J <= Q


@pytest.mark.parametrize("seed", range(12))
def test_annihilator_matches_loop_route(R2, R3, seed):
    ring = (R2, R3)[seed % 2]
    E = _random_presented_module(ring, seeded(1000 + seed), least=1)
    A = annihilator(E)
    assert not A.is_zero()
    assert A.gens == _loop_annihilator(E).gens


def test_colon_edge_cases_match_loop_route(R2, msq):
    x, y = R2.gens()
    zero = Ideal(R2, [])
    # (0 : I) = 0
    assert quotient_ideal(zero, msq).is_zero()
    assert quotient_ideal(zero, msq).gens == _loop_quotient(zero, msq).gens
    # a free module has annihilator 0
    F = free_module(R2, 2)
    assert annihilator(F).is_zero()
    assert annihilator(F).gens == _loop_annihilator(F).gens
    # a repeated generator of I changes nothing
    J = Ideal(R2, [x**3, x * y**2])
    twice = Ideal(R2, [x * y, x**2, x * y])
    assert quotient_ideal(J, twice).gens == _loop_quotient(J, twice).gens
    assert quotient_ideal(J, twice).gens == quotient_ideal(J, Ideal(R2, [x * y, x**2])).gens


def _record_known(monkeypatch):
    """Patch `groebner.buchberger` to record the length of each call's
    `known` basis: in a colon, the number of block copies times the length
    of the basis."""
    counts = []
    kernel = groebner.buchberger

    def recording(gens, ring, known=()):
        counts.append(len(known))
        return kernel(gens, ring, known)

    monkeypatch.setattr(groebner, "buchberger", recording)
    return counts


def _scalar_combinations(ring, gens, count, rng):
    return [sum((ring.const(rng.randrange(1, P)) * g for g in gens), ring.zero()) for _ in range(count)]


@pytest.mark.parametrize("name, copies", [("E_msq_plus", 1), ("E_H_plus", 0), ("tri_plus", 0), ("msq_plus_scalar_span", 2)])
def test_scalar_reduction_colon_takes_n_minus_ell_copies(name, copies, request, monkeypatch):
    # a scalar U of rank ell inside E with n generators leaves n - ell free
    # positions, and E/U = R^free / phi(N): m^2 plus R(-2) has n = 4 and
    # ell = 3, while H and (xy,xz,yz) plus R(-2) have ell = n.  With at most
    # one free position the colon is read off E/U with no kernel colon: the
    # unit ideal, or J = the entries of phi(N).  A span of 2 scalar vectors
    # in m^2 plus R(-2) leaves 2, and the colon by the unit vectors over U's
    # coset basis takes 2 copies
    if name == "msq_plus_scalar_span":
        E = request.getfixturevalue("E_msq_plus")
        rng = seeded(3)
        U = span(E, [tuple(E.ring.const(rng.randrange(1, P)) for _ in range(E.n)) for _ in range(2)])
    else:
        if name == "tri_plus":
            tri = request.getfixturevalue("tri")
            E = direct_sum(module_from_ideal(tri), free_module(tri.ring, 1), twist=2)
        else:
            E = request.getfixturevalue(name)
        U = random_reduction(E, rng=3)
    basis = U.coset_gb()
    assert len(modalg._scalar_quotient(U)[0]) == copies
    known = _record_known(monkeypatch)
    K = colon_into(U, E)
    assert known == ([copies * len(basis)] if copies >= 2 else [])
    assert K.is_unit() == (copies == 0)
    assert K.gens == _colon_by_free(basis, E.ring, E.n).gens


def _scalar_oracle_modules(p):
    """m^2, H and (xy,xz,yz) plus R(-2), the boundary cubics and the generic
    5 x 3 cokernel over GF(p), each generated in one degree."""
    x, y = PolyRing(p, ("x", "y")).gens()
    x0, x1, x2, x3 = PolyRing(p, ("x0", "x1", "x2", "x3")).gens()
    a, b, c = PolyRing(p, ("x", "y", "z")).gens()
    H = Ideal(x0.ring, [x1 * x3 - x2**2, x0 * x3 - x1 * x2, x0 * x2 - x1**2])
    tri = Ideal(a.ring, [a * b, a * c, b * c])
    cubics = Ideal(a.ring, [a**3, a**2 * b, a * b**2 - a**2 * c, b**3 - 2 * a * b * c])
    return [
        module_from_ideal(Ideal(x.ring, [x**2, x * y, y**2])),
        direct_sum(module_from_ideal(H), free_module(H.ring, 1), twist=2),
        direct_sum(module_from_ideal(tri), free_module(tri.ring, 1), twist=2),
        module_from_ideal(cubics),
        generic_cokernel(3, 5, 3, p),
    ]


@pytest.mark.parametrize("p", [P, 7])
def test_scalar_colon_and_intersection_match_the_general_routes(p):
    # oracle: for scalar spans U of every rank 0..n, (U :_R E) equals the
    # colon by the unit vectors over U's coset basis, and the meet with U
    # equals the two-block meet in R^n + R^n, basis for basis; the spans
    # leave 0, 1 and 2 or more free positions
    rng = seeded(p)
    free_counts = set()
    for E in _scalar_oracle_modules(p):
        ring = E.ring
        draw = lambda k: [tuple(ring.const(rng.randrange(p)) for _ in range(E.n)) for _ in range(k)]
        x = ring.gens()[0]
        for k in range(E.n + 1):
            U = span(E, draw(k))
            free = modalg._scalar_quotient(U)[0]
            free_counts.add(min(len(free), 2))
            assert colon_into(U, E).gens == _colon_by_free(U.coset_gb(), ring, E.n).gens, (E, k)
            # a scalar U1 and one with no scalar generator, each met with U
            for U1 in (span(E, draw(E.n - 1)), span(E, [tuple(x * f for f in v) for v in draw(2)])):
                C = submodule_intersect(U1, U)
                assert C.coset_gb() == two_block_intersect(U1, U), (E, k)
    assert free_counts == {0, 1, 2}


@pytest.mark.parametrize("p", [P, 7])
def test_core_containment_in_a_scalar_span_matches_the_references(p):
    # oracle: C <= U, read off E/U = R^free / phi(N) for a scalar U, agrees
    # with C cap U == C (by submodule_intersect and by the two-block meet)
    # and with membership of C's generators modulo U's coset basis.  The U
    # leave 0, 1 and 2 or more free positions; C runs over the intermediate
    # intersections of a core loop and x-multiples of scalar vectors, some
    # of them in U
    rng = seeded(p + 2)
    free_counts, outcomes = set(), set()
    for E in _scalar_oracle_modules(p):
        ring = E.ring
        draw = lambda k: [tuple(ring.const(rng.randrange(p)) for _ in range(E.n)) for _ in range(k)]
        x = ring.gens()[0]
        Cs = [whole_module(E)]
        for _ in range(3):
            Cs.append(submodule_intersect(Cs[-1], random_reduction(E, rng=rng)))
        for k in range(E.n + 1):
            U = span(E, draw(k))
            free_counts.add(min(len(modalg._scalar_quotient(U)[0]), 2))
            multiples = [span(E, [tuple(x * f for f in v) for v in vs]) for vs in (draw(2), U.gens[:2])]
            for C in Cs + multiples:
                inside = C <= U
                assert inside == (submodule_intersect(C, U) == C), (E, k)
                assert inside == (two_block_intersect(C, U) == C.coset_gb()), (E, k)
                assert inside == all(span(E, U.gens + (g,)).coset_gb() == U.coset_gb() for g in C.gens), (E, k)
                outcomes.add(inside)
    assert free_counts == {0, 1, 2} and outcomes == {False, True}


@pytest.mark.parametrize("s", [1, 2, 3])
def test_quotient_by_scalar_combinations_takes_mu_minus_s_copies(R2, msq, s, monkeypatch):
    # J spanned by s field combinations of I = (x^2, xy, y^2): the normal
    # forms of I's generators modulo J span a space of dimension 3 - s
    J = Ideal(R2, _scalar_combinations(R2, msq.gens, s, seeded(1500 + s)))
    basis = J.groebner_basis()
    known = _record_known(monkeypatch)
    Q = quotient_ideal(J, msq)
    assert known == ([(3 - s) * len(basis)] if s < 3 else [])
    assert Q.gens == _loop_quotient(J, msq).gens
    assert Q.is_unit() == (s == 3)
    if s == 3:
        assert Q.gens == (R2.one(),)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", ["msq", "tri", "H", "coker53"])
def test_scalar_reduction_colon_matches_loop_route(name, seed, request):
    # colon_into against the per-generator loop on I, on I plus R(-2) and
    # on the 5 x 3 generic cokernel, and on I against (J : I) for U's image
    # ideal J
    if name == "coker53":
        cases = [(request.getfixturevalue("E_coker53"), None)]
    else:
        I = request.getfixturevalue(name)
        cases = [(module_from_ideal(I), I), (direct_sum(module_from_ideal(I), free_module(I.ring, 1), twist=2), None)]
    for E, I in cases:
        U = random_reduction(E, rng=40 + seed)
        unit = (0,) * E.ring.nvars
        cols = [_vec_to_dict(v) for v in U.gens + E.relations]
        K = colon_into(U, E)
        assert K.gens == _loop_colon([{(i, unit): 1} for i in range(E.n)], cols, E.ring, E.n).gens
        if I is not None:
            assert K.gens == _loop_quotient(image_ideal(U, I), I).gens


def test_colon_keeps_normal_forms_independent_over_the_field(R2, monkeypatch):
    # x*f and y*f are dependent over R but not over GF(p), so both copies stay
    x, y = R2.gens()
    J = Ideal(R2, [x**3, y**3])
    f = x + y
    I = Ideal(R2, [x * f, y * f])
    basis = J.groebner_basis()
    known = _record_known(monkeypatch)
    Q = quotient_ideal(J, I)
    assert known == [2 * len(basis)]
    assert Q.gens == _loop_quotient(J, I).gens


def test_colon_by_repeated_zero_and_contained_divisors(R2, monkeypatch):
    x, y = R2.gens()
    J = Ideal(R2, [x**3, x * y**2])
    cols = [_vec_to_dict((h,)) for h in J.gens]
    basis = [_vec_to_dict((h,)) for h in J.groebner_basis()]

    def v(f):
        return _vec_to_dict((f,))

    cases = [
        ([v(x * y), v(x * y), v(R2.const(3) * x * y)], 1),  # repeated, and a scalar multiple
        ([{}, v(x**2), {}], 1),  # zero divisors
        ([v(x**3), v(x * y), v(x**2 * y**2)], 1),  # contained in J
        ([v(x * y + x**3), v(x * y), v(y**2)], 2),  # equal normal forms
        ([v(x**4), {}], 0),  # all in J: the unit ideal
    ]
    known = _record_known(monkeypatch)
    for vs, copies in cases:
        known.clear()
        Q = groebner._colon(vs, basis, R2, 1)
        assert known == ([copies * len(basis)] if copies else [])
        assert Q.gens == _loop_colon(vs, cols, R2, 1).gens


def test_annihilator_by_dependent_unit_vectors(R2, monkeypatch):
    # e_1 = e_2 modulo the relations, so ann(E) takes one copy
    x, y = R2.gens()
    E = PresentedModule(R2, (0, 0), [(R2.one(), -R2.one()), (x * y, R2.zero()), (R2.zero(), x**2)])
    basis = E.relation_gb()
    known = _record_known(monkeypatch)
    A = annihilator(E)
    assert known == [len(basis)]
    assert A.gens == _loop_annihilator(E).gens


@pytest.mark.parametrize("relations", [0, 1])
def test_annihilator_of_256_generators(R2, relations):
    # the colon works in n^2 + 1 positions, past what 16 bits of position hold
    x, y = R2.gens()
    cols = [(x,) + (R2.zero(),) * 255][:relations]
    assert annihilator(PresentedModule(R2, (0,) * 256, cols)).is_zero()


def _syzygy_submodule_intersect(U1, U2):
    """Reference U1 cap U2: each syzygy s of (U1 + N, U2 + N), N the
    relations, gives the element sum s_i w_i over the first block."""
    E = U1.parent
    ring = E.ring
    W1 = list(U1.gens) + list(E.relations)
    W2 = list(U2.gens) + list(E.relations)
    out = []
    for s in syzygies(W1 + W2, ring, E.n):
        v = (ring.zero(),) * E.n
        for c, w in zip(s[: len(W1)], W1):
            if c:
                v = tuple(a + c * b for a, b in zip(v, w))
        out.append(v)
    return span(E, out)


def _syzygy_is_torsionfree(E):
    """Reference torsion test: the tails w of the syzygies of
    (relations, a*e_1, ..., a*e_n) span (N :_F a), which must lie in N."""
    ring = E.ring
    if not E.n or not E.relations:
        return True
    a = first_nonzero_maximal_minor(E)
    if a.is_constant():
        return True
    cols = list(E.relations)
    scaled = [tuple(a if k == i else ring.zero() for k in range(E.n)) for i in range(E.n)]
    return span(E, [s[len(cols):] for s in syzygies(cols + scaled, ring, E.n)]) <= span(E, [])


def _random_vector(E, rng):
    """A homogeneous vector of E's free module, one or two degrees above its
    highest generator."""
    deg = max(E.gen_degrees) + rng.randrange(1, 3)
    return tuple(random_homogeneous_poly(E.ring, rng, deg - e, nterms=2) for e in E.gen_degrees)


def _reference_module(ring, rng, kind):
    """An ideal module, an ideal module plus R(-d), the cokernel of a random
    linear matrix, or one of those plus R/(f), which has torsion."""
    I = Ideal(ring, [random_homogeneous_poly(ring, rng, 2, nterms=2) for _ in range(rng.randrange(2, 4))])
    if kind == "ideal":
        return module_from_ideal(I)
    if kind == "ideal+free":
        return direct_sum(module_from_ideal(I), free_module(ring, 1), twist=rng.randrange(1, 3))
    n = rng.randrange(2, 4)
    linear = PresentedModule(ring, (0,) * n, [tuple(random_homogeneous_poly(ring, rng, 1, nterms=2)
                                                    for _ in range(n)) for _ in range(rng.randrange(1, n + 1))])
    if kind == "linear":
        return linear
    f = random_homogeneous_poly(ring, rng, rng.randrange(1, 3), nterms=2)
    return direct_sum(rng.choice([linear, module_from_ideal(I)]), cyclic_module(ring, Ideal(ring, [f])))


_KINDS = ("ideal", "ideal+free", "linear", "plus torsion")


@pytest.mark.parametrize("seed", range(16))
def test_intersection_and_torsion_match_syzygy_route(R2, R3, seed):
    # the two-block meets against the syzygy projections they replaced
    ring = (R2, R3)[seed % 2]
    rng = seeded(1100 + seed)
    kind = _KINDS[seed // 2 % 4]
    E = _reference_module(ring, rng, kind)
    U1 = span(E, [_random_vector(E, rng) for _ in range(rng.randrange(1, 3))])
    U2 = span(E, [_random_vector(E, rng) for _ in range(rng.randrange(1, 3))])
    C = submodule_intersect(U1, U2)
    assert C == _syzygy_submodule_intersect(U1, U2)
    assert C.gens == submodule_intersect(U2, U1).gens
    assert is_torsionfree(E) == _syzygy_is_torsionfree(E)
    if kind == "plus torsion":
        assert not is_torsionfree(E)


def _quotient_colon(U):
    """Reference (U :_R E) as the annihilator of E/U, presented on E's
    generators with U's generators as extra relations."""
    E = U.parent
    return annihilator(PresentedModule(E.ring, E.gen_degrees, tuple(E.relations) + U.gens))


@pytest.mark.parametrize("seed", range(16))
def test_results_carry_their_reduced_basis(R2, R3, seed):
    # colons and meets return their reduced basis as generators and cache it:
    # recomputing the basis from the generators gives them back, and a meet's
    # coset basis is what module_gb gives on its generators and relations;
    # the modules are built here, so no cache is warm from another test
    ring = (R2, R3)[seed % 2]
    rng = seeded(1300 + seed)
    E = _reference_module(ring, rng, _KINDS[seed // 2 % 4])
    U1 = span(E, [_random_vector(E, rng) for _ in range(rng.randrange(1, 3))])
    U2 = span(E, [_random_vector(E, rng) for _ in range(rng.randrange(1, 3))])
    I = Ideal(ring, [random_homogeneous_poly(ring, rng, rng.randrange(1, 3), nterms=2) for _ in range(2)])
    J = Ideal(ring, [random_homogeneous_poly(ring, rng, 3, nterms=2) for _ in range(rng.randrange(1, 4))])
    K = colon_into(U1)
    assert K.gens == _quotient_colon(U1).gens
    for Q in (quotient_ideal(J, I), intersect(I, J), K):
        assert Ideal(ring, Q.gens).groebner_basis() == Q.gens
        assert Q.groebner_basis() == Q.gens
    C = submodule_intersect(U1, U2)
    assert module_gb(list(C.gens) + list(E.relations), ring) == C.coset_gb()


@pytest.mark.parametrize("seed", range(10))
def test_module_sites_decode_in_order(R2, R3, seed):
    # the vectors built straight from kernel output equal the from_dict route
    # on the same terms; over a free module the normal form has no divisor
    # and sorts the terms itself
    ring = (R2, R3)[seed % 2]
    rng = seeded(1400 + seed)
    E = free_module(ring, 2) if seed % 5 == 4 else _reference_module(ring, rng, _KINDS[seed % 5])
    U1 = span(E, [_random_vector(E, rng) for _ in range(rng.randrange(2, 4))])
    U2 = span(E, [_random_vector(E, rng) for _ in range(rng.randrange(1, 3))])
    vectors = list(U1.reduced_gens()) + list(submodule_intersect(U1, U2).gens)
    vectors += list(submodule_presentation(U1).relations) + syzygies(list(U1.gens + U2.gens), ring, E.n)
    vectors += [_ordered_to_vec(d, ring, E.n) for d in U1.coset_gb()]
    vectors += [(f,) for f in colon_into(U1).gens]
    vectors += [(normal_form(_random_vector(E, rng)[0], colon_into(U2).groebner_basis()),)]
    assert any(len(f.terms) > 1 for v in vectors for f in v)
    for v in vectors:
        assert v == tuple(f.ring.from_dict(dict(f.terms)) for f in v)


def test_fitting_raw_vs_minimalized(R2, msq):
    x, y = R2.gens()
    # non-minimal presentation of m^2 (redundant generator), then minimalize
    E = module_from_ideal(Ideal(R2, [x**2, x * y, y**2, x**2 + y**2]))
    M = minimal_presentation(E)
    assert M.n == 3
    for t in range(E.n + 1):
        assert fitting_ideal(E, t) == fitting_ideal(M, t)


def test_exponent_overflow_guard(R2):
    x, y = R2.gens()
    f = R2.from_dict({(30000, 0): 1})
    with pytest.raises(OverflowError):
        g = f
        for _ in range(4):
            g = g * g


def test_presentation_validation(R2):
    x, y = R2.gens()
    with pytest.raises(Exception):
        PresentedModule(R2, (2, 3), [(x, y)])  # inhomogeneous column


def test_submodule_wrong_length(R2, E_msq):
    with pytest.raises(ModcoreError):
        span(E_msq, [(R2.one(), R2.zero())])


# -- the memo of derived module data ------------------------------------------------


def _counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that counts its calls."""
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_memo_returns_a_falsy_value_without_recomputing():
    class Owner:
        def __init__(self):
            self._cache = {}
            self.calls = 0

        @_memo
        def value(self, i):
            self.calls += 1
            return (False, 0, [], None)[i]

    for i, want in enumerate((False, 0, [], None)):
        owner = Owner()
        assert owner.value(i) == want and owner.value(i) == want
        assert owner.calls == 1


def test_memo_keeps_a_false_torsion_verdict(R2, monkeypatch):
    x, y = R2.gens()
    Q = cyclic_module(R2, Ideal(R2, [x]))  # R/(x) is all torsion
    meets = _counting(monkeypatch, modalg, "_meet")
    assert not is_torsionfree(Q) and not is_torsionfree(Q)
    assert len(meets) == 1


def test_memo_keys_on_the_arguments(R2, monkeypatch):
    x, y = R2.gens()
    E = module_from_ideal(Ideal(R2, [x**2, x * y, y**2]))
    minors = _counting(monkeypatch, modalg, "_nonzero_minors")
    F1, F2 = fitting_ideal(E, 1), fitting_ideal(E, 2)
    assert fitting_ideal(E, 1) is F1 and fitting_ideal(E, 2) is F2
    assert F1 != F2 and [size for _, size in minors] == [2, 1]


def test_memoized_functions_have_distinct_names():
    # the memo key is the function's name, so two memoized functions of one
    # name would return each other's values on a shared owner
    names = []
    for path in sorted(Path(modalg.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.FunctionDef) and any(
                isinstance(d, ast.Name) and d.id == "_memo" for d in node.decorator_list
            ):
                names.append(node.name)
    assert len(names) >= 20  # the Rees data, the module data and the ideal data
    assert len(names) == len(set(names)), sorted({n for n in names if names.count(n) > 1})


def test_modules_of_two_equal_ideal_objects_share_nothing(R2, monkeypatch):
    # memos belong to their owner: two Ideal objects with the same
    # generators give two modules, and each computes its own data
    x, y = R2.gens()
    I1, I2 = Ideal(R2, [x**2, x * y, y**2]), Ideal(R2, [x**2, x * y, y**2])
    assert I1 is not I2 and I1 == I2
    E1, E2 = module_from_ideal(I1), module_from_ideal(I2)
    assert E1 is not E2
    minors = _counting(monkeypatch, modalg, "_nonzero_minors")
    for fn in (minimal_presentation, free_resolution, whole_module, rees_ideal, lambda E: fitting_ideal(E, 1)):
        assert fn(E1) is fn(E1) and fn(E1) is not fn(E2)
    assert fitting_ideal(E1, 1) == fitting_ideal(E2, 1)
    # each module lists its own minors twice: for Fitt_1 and for the first
    # maximal minor of its Rees saturation
    owners = [id(E) for E, _ in minors]
    assert owners.count(id(E1)) == owners.count(id(E2)) == 2 == len(minors) / 2


def test_one_module_per_ideal(monkeypatch):
    # module_from_ideal is memoized on the ideal: in one session, the
    # declared module of I, I looked up as a module, the summands of
    # power_sum(I, 2) and the ideal module that ideal_module_verdicts builds
    # in either mode are one object
    from modcore import session as msession

    built = []
    build = msession.build_ideal_module

    def recording(I, e, mode):
        E, verdicts = build(I, e, mode)
        built.append(E)
        return E, verdicts

    monkeypatch.setattr(msession, "build_ideal_module", recording)
    session = parse_session(
        "ring R = GF(32003)[x,y];\n"
        "ideal I = (x^2, x*y, y^2);\n"
        "module X = ideal I;\n"
        "module P = power_sum(I, 2);\n"
        "task mu I;\n"
        "task ideal_module_verdicts I --rank 2 --mode plus_free;\n"
        "task ideal_module_verdicts I --rank 2 --mode power_sum;\n"
    )
    I = session.ideals["I"]
    X = session.modules["X"]
    assert module_from_ideal(I) is module_from_ideal(I) is X
    assert session.lookup("module", "I") is X
    # X records a new Ideal on I's generators, so that I's memo of X makes
    # no reference cycle
    assert X._cache["from_ideal"] is not I and X._cache["from_ideal"].gens == I.gens
    assert all(S is X for S in session.modules["P"]._cache["summands"])
    assert msession.run_session(session).exit_code() == 0
    plus_free, power_sum = built
    assert plus_free._cache["summands"][0] is X
    assert all(S is X for S in power_sum._cache["summands"])


def test_prefilled_memos_are_hits(R2, monkeypatch):
    x, y = R2.gens()
    E = module_from_ideal(Ideal(R2, [x**2, x * y, y**2, x**2 + y**2]))
    # the result is its own minimal presentation: one set of minimal columns
    # is taken, for E, and none for M
    minimal = _counting(monkeypatch, modalg, "_minimal_columns")
    M = minimal_presentation(E)
    assert minimal_presentation(M) is M and minimal_presentation(E) is M
    assert len(minimal) == 1
    # the meet of submodule_intersect is its result's coset basis
    U1 = span(E, [E.basis_vector(0), E.basis_vector(1)])
    U2 = span(E, [E.basis_vector(1), E.basis_vector(2)])
    C = submodule_intersect(U1, U2)
    bases = _counting(monkeypatch, modalg, "module_gb")
    assert C.coset_gb() == module_gb(list(C.gens) + list(E.relations), R2)
    assert bases == []  # the reference basis is built through this module's name


def _mu_oracle_modules(p):
    """Over GF(p): the corpus ideals as modules, each I + R(-2) and I + I,
    the generic cokernel rungs, and m*E for the ideal modules, whose
    presentation on the products x_i*e_j has constant relations."""
    x, y = PolyRing(p, ("x", "y")).gens()
    a, b, c = PolyRing(p, ("x", "y", "z")).gens()
    x0, x1, x2, x3 = PolyRing(p, ("x0", "x1", "x2", "x3")).gens()
    ideals = [
        Ideal(x.ring, [x**2, x * y, y**2]),
        Ideal(a.ring, [a * b, a * c, b * c]),
        Ideal(a.ring, [a**3, a**2 * b, a * b**2 - a**2 * c, b**3 - 2 * a * b * c]),
        Ideal(x0.ring, [x1 * x3 - x2**2, x0 * x3 - x1 * x2, x0 * x2 - x1**2]),
        Ideal(x0.ring, [x0 * x1, x1 * x2, x2 * x3, x0 * x3]),
    ]
    modules = []
    for I in ideals:
        E = module_from_ideal(I)
        modules.append(E)
        modules += [build_ideal_module(I, 2, mode)[0] for mode in ("plus_free", "power_sum")]
        gens = I.ring.gens()
        modules.append(submodule_presentation(span(E, [tuple(v * f for f in E.basis_vector(j))
                                                       for v in gens for j in range(E.n)])))
    modules += [generic_cokernel(3, 5, 3, p), generic_cokernel(4, 6, 4, p), generic_cokernel(4, 7, 5, p)]
    return modules


def _mu_drop_presentations(E, rng):
    """The presentations Q of W / (a_1..a_s) that the generator-drop check
    of residual_intersection counts, for W = E and s = 1..mu(E) + 1."""
    W = whole_module(E)
    P_W = submodule_presentation(W)
    out = [P_W]
    for s in range(1, E.n + 2):
        _, coords = _random_elements(W, s, rng)
        extra = [tuple(E.ring.const(c) for c in row) for row in coords]
        out.append(PresentedModule(E.ring, P_W.gen_degrees, list(P_W.relations) + extra))
    return out


@pytest.mark.parametrize("p", [P, 7])
def test_closed_form_mu_matches_the_minimal_presentation(p):
    # graded Nakayama: n minus the rank of the constant parts of the
    # relations is the size of the minimal presentation, on the corpus
    # modules, I + R(-2), power sums, the generic cokernels, m*E, the
    # generator-drop presentations and random presentations with constant
    # entries
    rng = seeded(p + 6)
    modules = _mu_oracle_modules(p)
    for E in modules[:4]:
        modules += _mu_drop_presentations(E, rng)
    R = PolyRing(p, ("x", "y", "z"))
    modules += [random_presentation(R, rng) for _ in range(60)]
    drops = 0
    for E in modules:
        mu_E = mu(E)
        assert mu_E == minimal_presentation(E).n, E
        drops += mu_E < E.n
    assert drops >= 20


def _tor1_oracle(E, d):
    """(minimal generators, minimal relations) of E in degree d, by dense
    GF(p) linear algebra on E's own presentation F -> E with relations N.
    The generators whose unit relations (N + mF)/mF cancel are redundant,
    and N splits as the minimal relations plus a free module on them, so
    the relations count dim (N/mN)_d minus dim ((N + mF)/mF)_d."""
    ring, p = E.ring, E.ring.char
    cols = [(vector_degree(c, E.gen_degrees), c) for c in E.relations]
    frame = [(pos, m) for pos, e in enumerate(E.gen_degrees) if e <= d
             for m in monomials_of_degree(ring.nvars, d - e)]
    index = {t: k for k, t in enumerate(frame)}

    def multiples(least):
        rows = []
        for c, col in cols:
            for q in monomials_of_degree(ring.nvars, d - c) if d - c >= least else ():
                row = [0] * len(frame)
                for pos, f in enumerate(col):
                    for m, a in f.terms:
                        row[index[(pos, mono_mul(q, m))]] = a
                rows.append(row)
        return rows

    units = row_rank([[f.constant_coeff() for f in col] for c, col in cols if c == d], p)
    relations = row_rank(multiples(0), p) - row_rank(multiples(1), p) - units
    return E.gen_degrees.count(d) - units, relations


@pytest.mark.parametrize("p", [P, 7])
def test_minimal_presentation_matches_the_degree_oracle(p):
    # in each degree d, the minimal presentation has dim_k (E/mE)_d
    # generators and dim_k (N/mN)_d relations, N its relation module, by
    # dense linear algebra on E's own presentation; it presents E (same
    # Hilbert function), and its remembered basis is its relations' basis
    rng = seeded(p + 30)
    R = PolyRing(p, ("x", "y", "z"))
    modules = _mu_oracle_modules(p) + [random_presentation(R, rng) for _ in range(60)]
    pruned = 0
    for E in modules:
        M = minimal_presentation(E)
        degrees = sorted({vector_degree(c, E.gen_degrees) for c in E.relations} | set(E.gen_degrees))
        want = {d: _tor1_oracle(E, d) for d in degrees}
        got = {d: (M.gen_degrees.count(d), [vector_degree(c, M.gen_degrees) for c in M.relations].count(d))
               for d in degrees}
        assert got == want, E
        assert len(M.relations) == sum(n for _, n in want.values())
        assert M.relation_gb() == module_gb(M.relations, M.ring)
        assert all(M.hilbert_function(d) == E.hilbert_function(d) for d in range(degrees[-1] + 2)), E
        pruned += len(M.relations) < len(E.relations)
    assert pruned >= 20


def test_resolution_syzygy_steps_take_minimal_columns(monkeypatch):
    # E^2 of the 5x3 rung is presented by 35 linear relations of which 15
    # are minimal: the syzygy step gets only the minimal columns of the
    # first map, 15, never the whole basis.  Its 3 syzygies are as many as
    # the rank 15 - (15 - rank E^2) = 3 of the second map, so the rank count
    # ends the resolution with no syzygy step on them
    E2 = graded_component(generic_cokernel(3, 5, 3), 2)
    columns = []
    kernel = modalg._syzygy_dicts
    monkeypatch.setattr(modalg, "_syzygy_dicts", lambda cols, *a: columns.append(len(cols)) or kernel(cols, *a))
    res = free_resolution(E2)
    assert [len(d) for d in res.degrees] == [15, 15, 3] and len(E2.relations) == 35
    assert columns == [15]


def _corpus_modules(p):
    """The modules of every corpus session, read over GF(p)."""
    modules = []
    for path in sorted((Path(__file__).parent.parent / "corpus").glob("*.mc")):
        modules += parse_session(path.read_text(), char_override=p).modules.values()
    return modules


@pytest.mark.parametrize("p", [P, 7])
def test_rank_count_resolution_matches_resolving_to_zero(p):
    # the rank count ends the resolution exactly where the syzygies become
    # zero: pd and the graded Betti numbers against a resolution that runs
    # until a syzygy step returns nothing, on the 5x3 and 6x4 rungs and
    # their squares, the corpus modules, I + R(-2) and I + I of the oracle
    # ideals, cyclic modules of pd 2 and 3, and seeded random presentations
    R = PolyRing(p, ("x", "y", "z"))
    x, y, z = R.gens()
    rng = seeded(p + 50)
    modules = list(ladder_with_squares(p)) + _corpus_modules(p) + _mu_oracle_modules(p)
    modules += [cyclic_module(R, Ideal(R, gens)) for gens in ([x, y], [x, y, z], [x * y, x * z, y * z])]
    modules += [random_presentation(R, rng) for _ in range(60)]
    pds = []
    for E in modules:
        betti = resolution_betti(E)
        assert [sorted(d) for d in free_resolution(E).degrees] == betti, E
        if not E.is_zero_module():
            pds.append(projective_dimension(E))
            assert pds[-1] == len(betti) - 1, E
    assert {0, 1, 2, 3} <= set(pds)


def test_pd1_resolution_takes_no_syzygy_step(RH, monkeypatch):
    # pd(E) of a pd-1 module takes no syzygy step: its first map has as
    # many columns as its rank mu - rank E, so the map is injective
    x0, x1, x2, x3 = RH.gens()
    H = module_from_ideal(Ideal(RH, [x1 * x3 - x2**2, x0 * x3 - x1 * x2, x0 * x2 - x1**2]))
    modules = [generic_cokernel(4, 6, 4), generic_cokernel(3, 5, 3), H, direct_sum(H, free_module(RH, 1), twist=2)]
    calls = []
    kernel = modalg._syzygy_dicts
    monkeypatch.setattr(modalg, "_syzygy_dicts", lambda *args: calls.append(args) or kernel(*args))
    assert [projective_dimension(E) for E in modules] == [1] * 4
    assert calls == []


@pytest.mark.parametrize("p", [P, 7])
def test_flagged_relations_match_the_minimal_presentation(p):
    # module_from_ideal flags its relations minimal, and direct_sum passes
    # the flag on when each summand carries it or has no relations; an
    # unflagged module never gets it.  A flagged E with minimal generators
    # is its own minimal presentation, and every flagged E has the
    # generator degrees and the relation span of the minimal presentation
    # of an unflagged copy of its presentation
    R = PolyRing(p, ("x", "y"))
    x, y = R.gens()
    EI = module_from_ideal(Ideal(R, [x**2, x * y, y**2]))
    redundant = module_from_ideal(Ideal(R, [x**2, x * y, y**2, x**2 + x * y]))
    C = PresentedModule(R, (0, 0), [(x, y)])
    built = {
        "ideal": EI, "redundant": redundant, "plus free": direct_sum(EI, free_module(R, 2), twist=2),
        "free plus": direct_sum(free_module(R, 1), redundant), "sum": direct_sum(EI, redundant),
        "plus coker": direct_sum(EI, C), "coker": C,
    }
    assert {name for name, E in built.items() if E._cache.get("minimal_relations")} == {
        "ideal", "redundant", "plus free", "free plus", "sum"}
    modules = list(built.values()) + _mu_oracle_modules(p) + _corpus_modules(p)
    own = 0
    for E in modules:
        if not E._cache.get("minimal_relations"):
            continue
        M = minimal_presentation(PresentedModule(E.ring, E.gen_degrees, E.relations))
        got = minimal_presentation(E)
        assert (got is E) == (mu(E) == E.n), E
        own += got is E
        assert got.gen_degrees == M.gen_degrees and len(got.relations) == len(M.relations), E
        assert module_gb(got.relations, E.ring) == module_gb(M.relations, E.ring), E
    assert own >= 20


@pytest.mark.parametrize("p", [P, 7])
def test_closed_form_scalar_equality_matches_coset_bases(p):
    # two scalar spans of one parent compare by containment both ways
    # through E/U, with no coset basis; the verdict against coset-basis
    # equality of fresh copies, on spans that leave 0, 1 and 2 or more free
    # positions: the same span on recombined generators, one generator
    # fewer, a fresh draw and E itself.  Spans of a second module with the
    # same relations, or of another module, compare by coset bases and
    # never raise
    rng = seeded(p + 7)
    free_counts, outcomes = set(), set()
    for E in _scalar_oracle_modules(p):
        ring = E.ring
        draw = lambda k: [tuple(ring.const(rng.randrange(p)) for _ in range(E.n)) for _ in range(k)]
        for k in range(E.n + 1):
            U = span(E, draw(k))
            free_counts.add(min(len(modalg._scalar_quotient(U)[0]), 2))
            mixes = [[ring.const(rng.randrange(1, p)) for _ in range(k)] for _ in range(k)]
            recombined = [tuple(sum((g[i] * c for g, c in zip(U.gens, row)), ring.zero()) for i in range(E.n))
                          for row in mixes]
            for gens in (recombined, U.gens[:-1], draw(k), whole_module(E).gens):
                V = span(E, gens)
                expected = span(E, U.gens).coset_gb() == span(E, gens).coset_gb()
                assert (U == V, V == U) == (expected, expected), (E, k)
                assert ("coset_gb", ()) not in U._cache and ("coset_gb", ()) not in V._cache
                outcomes.add(expected)
        twin = PresentedModule(ring, E.gen_degrees, E.relations)
        U = span(E, draw(2))
        assert U == span(twin, U.gens) and U != span(twin, draw(1))
        assert U != span(free_module(ring, E.n + 1), [v + (ring.zero(),) for v in U.gens])
    assert free_counts == {0, 1, 2} and outcomes == {False, True}


def test_closed_form_terms_only_fitting_basis_takes_no_normal_form(monkeypatch):
    # Fitt_2(I + I) for the edge ideal I of a square has 46 monomial
    # generators of degree 6, none dividing another; terms only, so they
    # are their own reduced basis and `buchberger` takes no normal form
    R = PolyRing(P, ("x1", "x2", "x3", "x4"))
    x1, x2, x3, x4 = R.gens()
    I = Ideal(R, [x1 * x2, x2 * x3, x3 * x4, x1 * x4])
    F = fitting_ideal(build_ideal_module(I, 2, "power_sum")[0], 2)
    assert len(F.gens) == 46 and all(len(g.terms) == 1 and g.degree() == 6 for g in F.gens)
    calls = []
    nf = groebner.nf_dict

    def counting(*args):
        calls.append(args)
        return nf(*args)

    monkeypatch.setattr(groebner, "nf_dict", counting)
    F = Ideal(R, F.gens)
    basis = F.groebner_basis()
    assert calls == []
    assert sorted(g.terms for g in basis) == sorted(g.monic().terms for g in F.gens)


def _torsion_oracle_modules(p):
    """(module, built from ideals and free modules only) over GF(p): ideal
    modules, sums of them with free modules, nested sums, and sums with the
    torsion module R/(x) as a summand, at any depth."""
    x, y, z = PolyRing(p, ("x", "y", "z")).gens()
    R = x.ring
    tri = module_from_ideal(Ideal(R, [x * y, x * z, y * z]))
    cubics = module_from_ideal(Ideal(R, [x**3, x**2 * y, x * y**2 - x**2 * z, y**3 - 2 * x * y * z]))
    msq = module_from_ideal(Ideal(R, [x**2, x * y, y**2]))
    torsion = cyclic_module(R, Ideal(R, [x]))
    plus = direct_sum(tri, free_module(R, 1), twist=2)
    clean = [tri, cubics, msq, plus, direct_sum(tri, msq), direct_sum(plus, cubics, twist=1),
             direct_sum(free_module(R, 2), direct_sum(msq, tri))]
    dirty = [direct_sum(tri, torsion), direct_sum(torsion, free_module(R, 1), twist=1),
             direct_sum(plus, direct_sum(msq, torsion)), direct_sum(direct_sum(torsion, tri), cubics, twist=1)]
    return [(E, True) for E in clean] + [(E, False) for E in dirty]


@pytest.mark.parametrize("p", [P, 7])
def test_closed_form_torsion_by_construction_matches_the_meet(p, monkeypatch):
    # a module built from an ideal is torsion-free, and a direct sum is
    # torsion-free iff both summands are: the verdict by construction
    # against the (N :_F a) meet on a copy of each presentation that does
    # not know how it was built; a sum of ideal modules and free modules
    # takes no meet, and a torsion summand R/(x) makes any sum False; its
    # own verdict is one meet, taken once for every sum that holds it
    cases = _torsion_oracle_modules(p)
    expected = [is_torsionfree(PresentedModule(E.ring, E.gen_degrees, E.relations)) for E, _ in cases]
    assert expected == [clean for _, clean in cases]
    meets = []
    meet = modalg._meet

    def recording(*args, **kwargs):
        meets.append(args)
        return meet(*args, **kwargs)

    monkeypatch.setattr(modalg, "_meet", recording)
    for (E, clean), verdict in zip(cases, expected):
        before = len(meets)
        assert is_torsionfree(E) == verdict
        assert not clean or len(meets) == before
    assert len(meets) == 1


def _quotient_basis_modules(p):
    """Over GF(p), by the route `_quotient_basis` takes on a scalar span with
    one free position.  Entries of one degree that the draws span: m^2, the
    square edge ideal (four linear relations) and the generic cokernels.
    Fewer relations than the rank of the entries: (xy,xz,yz) and H by its
    two linear Hilbert-Burch relations, 2 forms against I_1 = m.  Entries of
    mixed degrees: H presented by those two and the quadratic relation
    (0, x1^2 - x0*x2, x0*x3 - x1*x2), which they generate, and
    (x^2, xy, y^3), whose minimal syzygies are a linear and a quadratic one."""
    x, y = PolyRing(p, ("x", "y")).gens()
    a, b, c = PolyRing(p, ("x", "y", "z")).gens()
    x0, x1, x2, x3 = PolyRing(p, ("x0", "x1", "x2", "x3")).gens()
    H = module_from_ideal(Ideal(x0.ring, [x1 * x3 - x2**2, x0 * x3 - x1 * x2, x0 * x2 - x1**2]))
    zero = x0.ring.zero()
    return {
        "spans": [module_from_ideal(Ideal(x.ring, [x**2, x * y, y**2])),
                  module_from_ideal(Ideal(x0.ring, [x0 * x1, x1 * x2, x2 * x3, x0 * x3])),
                  generic_cokernel(3, 5, 3, p), generic_cokernel(4, 6, 4, p)],
        "count": [module_from_ideal(Ideal(a.ring, [a * b, a * c, b * c])), H],
        "mixed": [PresentedModule(H.ring, H.gen_degrees, [(zero, x1**2 - x0 * x2, x0 * x3 - x1 * x2),
                                                          (x1, -x2, x3), (x0, -x1, x2)]),
                  module_from_ideal(Ideal(x.ring, [x**2, x * y, y**3]))],
    }


@pytest.mark.parametrize("p", [P, 7])
def test_closed_form_quotient_basis_matches_buchberger(p):
    # with one free position, (U : E) is the ideal J_U of the forms a_U.N_j
    # inside I_1(phi); when E's entries are forms of one degree, J_U is
    # I_1(phi) exactly when those forms span the entries over GF(p), and its
    # basis is then I_1(phi)'s with no basis of phi(N).  Oracle: the basis of
    # phi(N) by buchberger, term for term, on random scalar spans of n - 1
    # vectors of each module (over GF(7) some draws of the spanning modules
    # fail the rank test) and on span(e_1, e_2, e_3) in m^2 plus R(-2),
    # where a_U = e_4 and a_U.N = 0 fails it
    R2 = PolyRing(p, ("x", "y"))
    x, y = R2.gens()
    plus = direct_sum(module_from_ideal(Ideal(R2, [x**2, x * y, y**2])), free_module(R2, 1), twist=2)
    rng = seeded(p + 8)
    cases = [(route, E, span(E, [tuple(E.ring.const(rng.randrange(p)) for _ in range(E.n)) for _ in range(E.n - 1)]))
             for route, modules in _quotient_basis_modules(p).items() for E in modules for _ in range(6)]
    cases.append(("rank", plus, span(plus, [plus.basis_vector(i) for i in range(3)])))
    fast = {route: set() for route, _, _ in cases}
    for route, E, U in cases:
        free, phi = modalg._scalar_quotient(U)
        if len(free) != 1:
            continue
        expected = groebner.buchberger([phi(_vec_to_dict(col)) for col in E.relations], E.ring)
        basis = modalg._quotient_basis(U)
        assert [list(d.items()) for d in basis] == [list(d.items()) for d in expected], (route, E)
        rk = modalg._entry_forms(E)
        assert (route == "mixed") == (rk is None)
        assert (route == "count") == (rk is not None and len(E.relations) < rk)
        if rk is not None:
            entries = modalg._entry_ideal(E).gens
            monos = sorted({m for f in entries for m, _ in f.terms})
            assert rk == row_rank([[dict(f.terms).get(m, 0) for m in monos] for f in entries], p)
        # the route returns I_1(phi)'s basis itself, taken once for E
        taken = basis is modalg._entry_basis(E)
        assert taken == (rk is not None and expected == modalg._entry_basis(E))
        fast[route].add(taken)
    assert True in fast.pop("spans") and fast == {"count": {False}, "mixed": {False}, "rank": {False}}
    assert modalg._quotient_basis(cases[-1][2]) == []
