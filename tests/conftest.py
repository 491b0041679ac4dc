"""Shared fixtures: corpus rings/ideals/modules and small exact-linear-algebra
helpers used as independent oracles (never the engine under test)."""

from __future__ import annotations

import random
from functools import cache
from itertools import combinations

import pytest

from modcore.groebner import Ideal, _ideal_basis, _meet, _monomials_of_degree, _syzygy_dicts, _vec_to_dict
from modcore.modalg import PresentedModule, direct_sum, free_module, module_from_ideal
from modcore.orders import elimination_order
from modcore.poly import PolyRing

P = 32003


@pytest.fixture(scope="session")
def R2():
    return PolyRing(P, ("x", "y"))


@pytest.fixture(scope="session")
def R3():
    return PolyRing(P, ("x", "y", "z"))


@pytest.fixture(scope="session")
def R4():
    return PolyRing(P, ("x1", "x2", "x3", "x4"))


@pytest.fixture(scope="session")
def RH():
    return PolyRing(P, ("x0", "x1", "x2", "x3"))


@pytest.fixture(scope="session")
def msq(R2):
    x, y = R2.gens()
    return Ideal(R2, [x**2, x * y, y**2])


@pytest.fixture(scope="session")
def E_msq(msq):
    return module_from_ideal(msq)


@pytest.fixture(scope="session")
def E_msq_plus(E_msq, R2):
    return direct_sum(E_msq, free_module(R2, 1), twist=2)


@pytest.fixture(scope="session")
def edge(R4):
    x1, x2, x3, x4 = R4.gens()
    return Ideal(R4, [x1 * x2, x2 * x3, x3 * x4, x1 * x4])


@pytest.fixture(scope="session")
def E_edge(edge):
    return module_from_ideal(edge)


@pytest.fixture(scope="session")
def E_edge_plus(E_edge, R4):
    return direct_sum(E_edge, free_module(R4, 1), twist=2)


@pytest.fixture(scope="session")
def tri(R3):
    x, y, z = R3.gens()
    return Ideal(R3, [x * y, x * z, y * z])


@pytest.fixture(scope="session")
def E_tri(tri):
    return module_from_ideal(tri)


@pytest.fixture(scope="session")
def minors43(R3):
    """3x3 minors of a structured 4x3 linear matrix: perfect height-2 ideal
    with mu = 4 > ell = 3 and reduction number 2, the boundary case of the
    pd-1 core formula."""
    from itertools import combinations

    x, y, z = R3.gens()
    zero = R3.zero()
    phi = [[x, zero, zero], [y, x, zero], [z, y, x], [zero, z, y]]

    def det3(rs):
        (a, b, c), (d, e, f), (g, h, i) = [phi[r] for r in rs]
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)

    return Ideal(R3, [det3(rs) for rs in combinations(range(4), 3)])


@pytest.fixture(scope="session")
def E_minors43(minors43):
    return module_from_ideal(minors43)


@pytest.fixture(scope="session")
def H(RH):
    x0, x1, x2, x3 = RH.gens()
    return Ideal(RH, [x1 * x3 - x2**2, x0 * x3 - x1 * x2, x0 * x2 - x1**2])


@pytest.fixture(scope="session")
def E_H(H):
    return module_from_ideal(H)


@pytest.fixture(scope="session")
def E_H_plus(E_H, RH):
    return direct_sum(E_H, free_module(RH, 1), twist=2)


def generic_cokernel(nvars, n, m, p=P):
    """Cokernel of an n x m matrix of linear forms in nvars variables over
    GF(p), with coefficients drawn by random.Random(1).  For m = n - 2 it is
    a pd-1 module of rank 2 with r = ell - e, the paper's example class."""
    ring = PolyRing(p, tuple(f"x{i + 1}" for i in range(nvars)))
    rng = random.Random(1)

    def form():
        f = ring.zero()
        for x in ring.gens():
            f = f + ring.const(rng.randrange(p)) * x
        return f

    return PresentedModule(ring, (0,) * n, [tuple(form() for _ in range(n)) for _ in range(m)])


@pytest.fixture(scope="session")
def E_coker53():
    return generic_cokernel(3, 5, 3)


@cache
def ladder_with_squares(p=P):
    """The 5x3 and 6x4 rungs over GF(p) and their squares E^2 = [R(E)]_2,
    built once per characteristic for the tests that share them."""
    from modcore.rees import graded_component

    rungs = [generic_cokernel(3, 5, 3, p), generic_cokernel(4, 6, 4, p)]
    return rungs + [graded_component(E, 2) for E in rungs]


def resolution_betti(E):
    """Oracle: the graded Betti numbers of E, each step's degrees sorted,
    from a minimal resolution of an unflagged copy of E's presentation that
    takes syzygy steps until one returns nothing, with no rank count."""
    from modcore.groebner import _minimal_columns
    from modcore.modalg import minimal_presentation

    ring = E.ring
    M = minimal_presentation(PresentedModule(ring, E.gen_degrees, E.relations))
    degrees = [M.gen_degrees]
    cols = [_vec_to_dict(c) for c in M.relations]
    while cols:
        prev = degrees[-1]
        degrees.append(tuple(sum(m) + prev[pos] for pos, m in (next(iter(c)) for c in cols)))
        cols = _minimal_columns(_syzygy_dicts(cols, len(prev), ring), degrees[-1], ring)
    return [sorted(d) for d in degrees]


# -- oracle-side linear algebra over GF(p) -------------------------------------


def rref(rows, p=P):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    rows = [list(r) for r in rows if any(v % p for v in r)]
    pivots = []
    r = 0
    width = len(rows[0]) if rows else 0
    for c in range(width):
        piv = None
        for k in range(r, len(rows)):
            if rows[k][c] % p:
                piv = k
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [(v * inv) % p for v in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][c] % p:
                f = rows[k][c]
                rows[k] = [(a - f * b) % p for a, b in zip(rows[k], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def row_rank(rows, p=P):
    return len(rref(rows, p)[0])


def in_row_space(vec, rows, p=P):
    base = row_rank(rows, p)
    return row_rank(list(rows) + [list(vec)], p) == base


def monomials_of_degree(nvars, deg):
    return list(_monomials_of_degree(nvars, deg))


def poly_coeff_vector(f, monos):
    d = dict(f.terms)
    return [d.get(m, 0) for m in monos]


def ideal_degree_basis(I, deg):
    """Row space of the degree-`deg` piece of I, over the monomial basis."""
    ring = I.ring
    monos = monomials_of_degree(ring.nvars, deg)
    rows = []
    for g in I.gens:
        gd = g.degree()
        if gd > deg:
            continue
        for m in monomials_of_degree(ring.nvars, deg - gd):
            shifted = ring.from_dict({m: 1}) * g
            rows.append(poly_coeff_vector(shifted, monos))
    return rows, monos


def submodule_degree_basis(vectors, gen_degrees, ring, deg):
    """Row space of the degree-`deg` piece of an R-span of vectors in R^n."""
    n = len(gen_degrees)
    cells = []
    for pos in range(n):
        for m in monomials_of_degree(ring.nvars, deg - gen_degrees[pos]) if deg >= gen_degrees[pos] else []:
            cells.append((pos, m))
    index = {c: i for i, c in enumerate(cells)}
    rows = []
    for v in vectors:
        from modcore.modalg import vector_degree

        vd = vector_degree(v, gen_degrees)
        if vd is None or vd > deg:
            continue
        for m in monomials_of_degree(ring.nvars, deg - vd):
            shift = ring.from_dict({m: 1})
            row = [0] * len(cells)
            for pos, f in enumerate(v):
                if f:
                    for mono, c in (shift * f).terms:
                        row[index[(pos, mono)]] = c
            rows.append(row)
    return rows, cells


def random_poly(ring, rng, maxdeg=2, nterms=3):
    d = {}
    for _ in range(nterms):
        deg = rng.randrange(maxdeg + 1)
        m = [0] * ring.nvars
        for _ in range(deg):
            m[rng.randrange(ring.nvars)] += 1
        d[tuple(m)] = rng.randrange(1, ring.char)
    return ring.from_dict(d)


def random_homogeneous_poly(ring, rng, deg, nterms=3):
    d = {}
    for _ in range(nterms):
        m = [0] * ring.nvars
        for _ in range(deg):
            m[rng.randrange(ring.nvars)] += 1
        d[tuple(m)] = rng.randrange(1, ring.char)
    return ring.from_dict(d)


def random_presentation(ring, rng):
    """A homogeneous presentation on generators of degree 0 and 1, whose
    columns of degree 1 and 2 may carry constants (often not minimal)."""
    p = ring.char
    degrees = [rng.randrange(2) for _ in range(rng.randrange(1, 5))]
    cols = []
    for _ in range(rng.randrange(0, 5)):
        deg = rng.randrange(1, 3)
        col = []
        for d in degrees:
            k = deg - d
            roll = rng.random()
            col.append(ring.zero() if roll < 0.3 else
                       ring.const(rng.randrange(p)) if k == 0 else
                       random_homogeneous_poly(ring, rng, k, nterms=2))
        cols.append(col)
    return PresentedModule(ring, degrees, cols)


def seeded(seed):
    return random.Random(seed)


def eliminate(I, keep):
    """Oracle: I cap GF(p)[kept variables], an ideal of the same ring, read
    off the reduced basis under an order that eliminates the other variables."""
    ring = I.ring
    keep_idx = {ring.var_index(v) for v in keep}
    drop = tuple(i for i in range(ring.nvars) if i not in keep_idx)
    if not drop:
        return Ideal(ring, I.gens)
    eliminating = PolyRing(ring.char, ring.vars, elimination_order(ring.nvars, drop))
    basis = _ideal_basis(I.gens, eliminating)
    return Ideal(ring, [ring.from_dict(dict(g.terms)) for g in basis if all(m[i] == 0 for m, _ in g.terms for i in drop)])


def two_block_intersect(U1, U2):
    """Oracle: the reduced basis of (U1 + N) cap (U2 + N), N the relations,
    as the meet in R^n + R^n of the pairs (u, u), u in U1 and N, and (w, 0),
    w in U2 and N, with no change of generators."""
    E = U1.parent
    pairs = [(_vec_to_dict(u),) * 2 for u in U1.gens + E.relations]
    pairs += [(_vec_to_dict(w), {}) for w in U2.gens + E.relations]
    return _meet(pairs, E.n, E.ring)


def image_ideal(U, I):
    """Oracle: the image ideal of a span U of the module built from I, the
    sums sum c_i*g_i of each generator's coordinates c_i times I's
    generators g_i, by polynomial arithmetic."""
    ring = I.ring
    return Ideal(ring, [sum((c * g for c, g in zip(v, I.gens)), ring.zero()) for v in U.gens])


def leibniz_det(rows, ring):
    """Oracle: the determinant of a square matrix of polynomials, given by
    rows, as the signed sum over permutations of the products of entries
    (Leibniz); a permutation is dropped at its first zero entry."""
    k = len(rows)
    terms = []

    def walk(i, used, sign, term):
        if i == k:
            terms.append(term if sign > 0 else -term)
            return
        for j in range(k):
            if j not in used and rows[i][j]:
                # j comes after the used columns above it: one inversion each
                flips = sum(u > j for u in used)
                walk(i + 1, used + (j,), -sign if flips % 2 else sign, term * rows[i][j])

    walk(0, (), 1, ring.one())
    total = ring.zero()
    for t in terms:
        total = total + t
    return total


def leibniz_minors(E, size):
    """Oracle: the nonzero size-minors of E's presentation matrix by the
    Leibniz formula, in lexicographic (rows, columns) subset order."""
    cols = E.relations
    for rset in combinations(range(E.n), size):
        for cset in combinations(range(len(cols)), size):
            v = leibniz_det([[cols[j][i] for j in cset] for i in rset], E.ring)
            if v:
                yield v
