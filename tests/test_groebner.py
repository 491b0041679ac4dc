"""Buchberger engine and ideal operations, with independent oracles."""

from dataclasses import dataclass
from itertools import combinations

import pytest

from modcore import groebner, modalg
from modcore.errors import ModcoreError, OrderError
from modcore.groebner import (
    Ideal,
    _add_divisor,
    _codec,
    _ideal_basis,
    _ordered_to_vec,
    _reducer,
    _vec_to_dict,
    buchberger,
    height,
    hilbert_function,
    ideal_membership,
    intersect,
    krull_dimension,
    normal_form,
    quotient_ideal,
    saturate,
)
from modcore.orders import GrevLex, MonomialOrder, elimination_order
from modcore.poly import _EXP_LIMIT, PolyRing, mono_div, parse_poly

from conftest import (
    P,
    eliminate,
    ideal_degree_basis,
    in_row_space,
    monomials_of_degree,
    poly_coeff_vector,
    random_homogeneous_poly,
    random_poly,
    rref,
    seeded,
)


def spoly_reference(f, g):
    """Independent S-polynomial built from public polynomial operations."""
    ring = f.ring
    L = tuple(map(max, f.lm(), g.lm()))
    mf = ring.from_dict({mono_div(L, f.lm()): pow(f.lc(), -1, ring.char)})
    mg = ring.from_dict({mono_div(L, g.lm()): pow(g.lc(), -1, ring.char)})
    return mf * f - mg * g


def test_gb_monomial_ideal_is_itself(R2):
    x, y = R2.gens()
    I = Ideal(R2, [x**2, x * y, y**2])
    assert set(I.groebner_basis()) == {x**2, x * y, y**2}


def test_gb_linear_elimination(R2):
    x, y = R2.gens()
    I = Ideal(R2, [x + y, x - y])
    assert set(I.groebner_basis()) == {x, y}


def test_gb_is_groebner_and_generates(R3):
    rng = seeded(5)
    x, y, z = R3.gens()
    I = Ideal(R3, [x * y - z**2, y**2 - x * z, random_poly(R3, rng)])
    gb = I.groebner_basis()
    for i in range(len(gb)):
        for j in range(i + 1, len(gb)):
            assert not normal_form(spoly_reference(gb[i], gb[j]), gb)
    for g in I.gens:
        assert not normal_form(g, gb)
    for g in gb:
        assert ideal_membership(g, Ideal(R3, I.gens))


def test_nf_examples(R2):
    x, y = R2.gens()
    assert not normal_form(x**2, [x])
    f = parse_poly("x^2 + y", R2)
    assert normal_form(f, []) == f
    # membership with explicit cofactors: x^2*y = y*x^2, y^3 = y*y^2
    I = Ideal(R2, [x**2, y**2])
    assert not normal_form(x**2 * y + y**3, I.groebner_basis())


def test_membership_examples(R2):
    x, y = R2.gens()
    assert ideal_membership(x, Ideal(R2, [x + y, x - y]))
    assert not ideal_membership(R2.one(), Ideal(R2, [x**2, x * y, y**2]))


def test_xy_not_in_x2_y2_oracle(R2):
    # oracle: degree-2 linear algebra over the field
    x, y = R2.gens()
    I = Ideal(R2, [x**2, y**2])
    rows, monos = ideal_degree_basis(I, 2)
    assert not in_row_space(poly_coeff_vector(x * y, monos), rows)
    assert not ideal_membership(x * y, I)


def test_intersect_principal(R2):
    x, y = R2.gens()
    assert intersect(Ideal(R2, [x]), Ideal(R2, [y])) == Ideal(R2, [x * y])


def test_intersect_self(R2):
    x, y = R2.gens()
    I = Ideal(R2, [x**2 + y**2, x * y])
    assert intersect(I, I) == I


def test_intersect_gives_edge_ideal(R4, edge):
    x1, x2, x3, x4 = R4.gens()
    J = intersect(Ideal(R4, [x1, x3]), Ideal(R4, [x2, x4]))
    # two-way membership cross-check
    for g in J.gens:
        assert ideal_membership(g, edge)
    for g in edge.gens:
        assert ideal_membership(g, J)
    assert J == edge


def test_intersect_soundness_random(R2):
    rng = seeded(31)
    for _ in range(30):
        I = Ideal(R2, [random_poly(R2, rng), random_poly(R2, rng)])
        J = Ideal(R2, [random_poly(R2, rng)])
        C = intersect(I, J)
        for g in C.gens:
            assert ideal_membership(g, I) and ideal_membership(g, J)
        for f in I.gens:
            for g in J.gens:
                assert ideal_membership(f * g, C)


def _quotient_oracle_degreewise(J, I, maxdeg):
    """{f homogeneous of degree <= maxdeg : f*I <= J} via linear algebra."""
    ring = J.ring
    out = []
    for deg in range(maxdeg + 1):
        monos = monomials_of_degree(ring.nvars, deg)
        for m in monos:
            f = ring.from_dict({m: 1})
            if all(ideal_membership(f * g, J) for g in I.gens):
                out.append(f)
    return out


def test_quotient_msq_oracle(R2, msq):
    x, y = R2.gens()
    J = Ideal(R2, [x**2, y**2])
    Q = quotient_ideal(J, msq)
    assert Q == Ideal(R2, [x, y])
    # degree-by-degree oracle up to degree 4: monomial members of (J : I)
    members = _quotient_oracle_degreewise(J, msq, 4)
    for f in members:
        assert ideal_membership(f, Q)
    assert x in [m for m in members] or any(f == x for f in members)


def test_quotient_by_whole_ring(R2, msq):
    R_unit = Ideal(R2, [R2.one()])
    assert quotient_ideal(msq, R_unit) == msq


def test_quotient_self_is_unit(R2, msq):
    assert quotient_ideal(msq, msq).is_unit()


def test_quotient_by_zero_warns(R2, msq):
    with pytest.warns(UserWarning):
        Q = quotient_ideal(msq, Ideal(R2, []))
    assert Q.is_unit()


def test_quotient_containment_random(R2):
    rng = seeded(77)
    for _ in range(30):
        J = Ideal(R2, [random_poly(R2, rng), random_poly(R2, rng)])
        I = Ideal(R2, [random_poly(R2, rng)])
        if I.is_zero():
            continue
        Q = quotient_ideal(J, I)
        for q in Q.gens:
            for g in I.gens:
                assert ideal_membership(q * g, J)


def test_saturate_examples(R2):
    x, y = R2.gens()
    assert saturate(Ideal(R2, [x * y]), y) == Ideal(R2, [x])
    J = Ideal(R2, [x**2 + y])
    assert saturate(J, R2.one()) == J


def test_saturate_bilinear_example():
    # ((x^2*T1 - x*y*T2) : x^inf) = (x*T1 - y*T2); oracle: iterated quotient
    R = PolyRing(P, ("x", "y", "T1", "T2"))
    x, y, T1, T2 = R.gens()
    J = Ideal(R, [x**2 * T1 - x * y * T2])
    S = saturate(J, x)
    assert S == Ideal(R, [x * T1 - y * T2])
    # oracle route: two steps of quotient_ideal until stable
    Q1 = quotient_ideal(J, Ideal(R, [x]))
    Q2 = quotient_ideal(Q1, Ideal(R, [x]))
    assert Q1 == Q2 == S


def test_saturate_variable_trick_matches_rabinowitsch():
    # the divided grevlex basis with x_i moved last against the extra
    # variable, for every variable x_i, over GF(32003) and GF(7); every
    # other ideal has its first quadric times a variable, so that some
    # saturations grow the ideal
    from modcore.groebner import _saturate_rabinowitsch, _saturate_variable_graded

    for p in (P, 7):
        R = PolyRing(p, ("x", "y", "z"))
        rng = seeded(13)
        grown = set()
        for k in range(20):
            gens = []
            for _ in range(2):
                d = {}
                for _ in range(3):
                    deg = 2
                    m = [0, 0, 0]
                    for _ in range(deg):
                        m[rng.randrange(3)] += 1
                    d[tuple(m)] = rng.randrange(1, p)
                gens.append(R.from_dict(d))
            if k % 2:
                gens[0] = gens[0] * R.var(rng.randrange(3))
            J = Ideal(R, gens)
            for i, v in enumerate(R.gens()):
                S = _saturate_variable_graded(J, i)
                assert S == _saturate_rabinowitsch(J, v), (p, i, gens)
                if S != J:
                    grown.add(i)
        assert grown == {0, 1, 2}, p


def test_eliminate_examples(R2):
    # t*x - 1 with t eliminated: generically invertible, nothing survives
    R = PolyRing(P, ("t", "x"))
    t, x = R.gens()
    assert eliminate(Ideal(R, [t * x - R.one()]), ["x"]).is_zero()
    # keeping all variables returns the same ideal
    I = Ideal(R, [t - x**2])
    assert eliminate(I, ["t", "x"]) == I


def test_eliminate_veronese_kernel():
    R = PolyRing(P, ("x", "y", "T1", "T2", "T3"))
    x, y, T1, T2, T3 = R.gens()
    I = Ideal(R, [T1 - x**2, T2 - x * y, T3 - y**2])
    K = eliminate(I, ["T1", "T2", "T3"])
    expected = T1 * T3 - T2**2
    assert ideal_membership(expected, K)
    for g in K.gens:
        assert ideal_membership(g, I)
    # Hilbert function of the Veronese fiber ring k[T]/(T1*T3-T2^2): 2j+1
    RT = PolyRing(P, ("T1", "T2", "T3"))
    KT = Ideal(RT, [parse_poly("T1*T3 - T2^2", RT)])
    for j in range(6):
        assert hilbert_function(KT, j) == 2 * j + 1


def test_dimension_examples(R3, R4, edge, tri):
    assert krull_dimension(Ideal(R3, [])) == 3
    assert krull_dimension(edge) == 2
    # oracle: minimal primes (x,y), (x,z), (y,z) each of dimension 1
    assert krull_dimension(tri) == 1
    assert krull_dimension(Ideal(R3, [R3.one()])) == -1


def test_dimension_is_memoized(R3, monkeypatch):
    # the dimension is kept in the ideal's memo next to its basis: a second
    # question about the same ideal runs no subset search.  The redundant
    # third generator keeps the first question on the subset search: two
    # forms alone take the rank test of _coprime_forms
    x, y, z = R3.gens()
    I = Ideal(R3, [x * y, x * z, x * y + x * z])
    assert (krull_dimension(I), height(I)) == (2, 1)
    assert I._cache[("krull_dimension", ())] == 2

    def refuse(I):
        raise AssertionError("the dimension was computed again")

    monkeypatch.setattr(groebner, "_leading_supports", refuse)
    assert (krull_dimension(I), height(I)) == (2, 1)


def test_height_examples(R3, edge):
    x, y, z = R3.gens()
    assert height(edge) == 2
    assert height(Ideal(R3, [])) == 0
    assert height(Ideal(R3, [x, y])) == 2


def test_dimension_height_consistency(R3):
    rng = seeded(3)
    for _ in range(20):
        I = Ideal(R3, [random_poly(R3, rng), random_poly(R3, rng)])
        assert height(I) + krull_dimension(I) == 3


def test_gb_deterministic(R3):
    x, y, z = R3.gens()
    gens = [x * y - z**2, y**2 - x * z, x**3 - y * z**2]
    a = Ideal(R3, gens).groebner_basis()
    b = Ideal(R3, gens).groebner_basis()
    assert a == b


def test_hilbert_function_msq(R2, msq):
    assert [hilbert_function(msq, d) for d in range(4)] == [1, 2, 0, 0]


# -- term codes ------------------------------------------------------------------------


# Two orders the library does not build.  The codec takes any order whose key
# digits are linear forms; these give it a key with no degree digit, and
# digits with coefficients above 1, which widen the digit base.
@dataclass(frozen=True)
class Lex(MonomialOrder):
    def key(self, m):
        return tuple(m)


@dataclass(frozen=True)
class WeightedGrevLex(MonomialOrder):
    weights: tuple

    def key(self, m):
        return (sum(w * e for w, e in zip(self.weights, m)), *(-e for e in reversed(m)))


CODE_ORDERS = [GrevLex(), Lex(), WeightedGrevLex((1, 2, 3)), elimination_order(3, (0, 1))]


@pytest.mark.parametrize("order", CODE_ORDERS, ids=lambda o: type(o).__name__)
def test_term_codes_follow_the_order(order):
    # int order is the position-over-term order, a product is one addition,
    # and decoding gives the term back, with exponents up to the guard bound
    codec = _codec(order, 3)
    rng = seeded(17)
    top = _EXP_LIMIT - 1

    def exponent():
        return rng.choice((0, 1, top - 1, top, rng.randrange(_EXP_LIMIT)))

    terms = {(rng.randrange(41), tuple(exponent() for _ in range(3))) for _ in range(400)}
    terms |= {(pos, m) for pos in (0, 1, 40) for m in ((0, 0, 0), (top, top, top), (top, 0, 0), (0, 0, top))}
    code = {pm: codec.code(*pm) for pm in terms}
    assert sorted(terms, key=lambda pm: (-pm[0],) + order.key(pm[1])) == sorted(terms, key=code.__getitem__)
    for (pos, m), c in code.items():
        assert codec.term(c) == (pos, m)
        q = tuple(rng.randrange(top - e + 1) for e in m)
        mq = tuple(a + b for a, b in zip(m, q))
        assert c + codec.code(0, q) == codec.code(pos, mq)
        if any(m):
            # one more of a variable m has breaks the bound: the guard bit shows it
            over = tuple(top - e + (i == m.index(max(m))) for i, e in enumerate(m))
            assert (c + codec.code(0, over)) & codec.guard


def test_term_codes_refuse_a_nonlinear_key():
    class Squares(MonomialOrder):
        def key(self, m):
            return tuple(e * e for e in m)

    with pytest.raises(OrderError, match="linear"):
        _codec(Squares(), 2)


def test_term_code_position_out_of_range():
    with pytest.raises(ModcoreError, match="position"):
        _codec(GrevLex(), 2).code(1 << 32, (0, 0))


def test_kernel_overflow_in_s_polynomial(R2):
    # y^17001 * y^16999 = y^34000 arises while building the S-polynomial
    x, y = R2.gens()
    I = Ideal(R2, [x**17000 * y + y**17001, x * y**17000])
    with pytest.raises(OverflowError):
        I.groebner_basis()
    assert ("groebner_basis", ()) not in I._cache


def test_kernel_overflow_in_reduction(R2):
    # each step trades x^2 for y: y passes 2^15 - 1 long before x runs out
    x, y = R2.gens()
    with pytest.raises(OverflowError):
        normal_form(x**2000 * y**32000, [x**2 - y])


# -- a known reduced basis -----------------------------------------------------------


def _random_module_dicts(ring, rng, count, npos=2):
    """`count` random term dicts in R^npos, up to three terms of degree up to 2."""
    out = []
    for _ in range(count):
        d = {}
        for pos in rng.sample(range(npos), rng.randrange(1, npos + 1)):
            d.update({(pos, m): c for m, c in random_poly(ring, rng, nterms=rng.randrange(1, 3)).terms})
        out.append(d)
    return out


def _encoded(basis, ring):
    """The reduced basis `basis` of term dicts as `buchberger` takes it known:
    (code dict, divisor) pairs."""
    codec = _codec(ring.order, ring.nvars)
    return [(d, _add_divisor({}, d, codec, ring.char)) for d in map(codec.encode, basis)]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("order", CODE_ORDERS, ids=lambda o: type(o).__name__)
def test_known_reduced_basis_is_taken_as_is(order, seed):
    # a reduced basis B, or k block-shifted copies of it, passed as known
    # gives the same reduced basis as the full run
    ring = PolyRing(P, ("x", "y", "z"), order)
    rng = seeded(300 + seed)
    B = buchberger(_random_module_dicts(ring, rng, 4), ring)
    blocks = [{(pos + 2 * i, m): c for (pos, m), c in b.items()} for i in range(1 + seed % 3) for b in B]
    for known in (B, blocks):
        extra = _random_module_dicts(ring, rng, rng.randrange(1, 3), npos=2 * (1 + seed % 3) + 1)
        assert buchberger(extra, ring, _encoded(known, ring)) == buchberger(known + extra, ring)


# -- ordered decode ---------------------------------------------------------------------


def _sorted_again(f):
    """f rebuilt by from_dict, which sorts its terms by the ring's order."""
    return f.ring.from_dict(dict(f.terms))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("order", CODE_ORDERS, ids=lambda o: type(o).__name__)
def test_ordered_decode_matches_from_dict(order, seed):
    # the bases, colons, meets and normal forms built straight from kernel
    # output equal the from_dict route on the same terms, under every ring
    # order
    ring = PolyRing(P, ("x", "y", "z"), order)
    rng = seeded(1200 + seed)
    I = Ideal(ring, [random_poly(ring, rng, maxdeg=3) for _ in range(rng.randrange(1, 4))])
    J = Ideal(ring, [random_poly(ring, rng, maxdeg=3) for _ in range(rng.randrange(1, 4))])
    polys = list(I.groebner_basis())
    polys += list(quotient_ideal(J, I).gens) + list(intersect(I, J).gens)
    polys += [normal_form(random_poly(ring, rng, maxdeg=4, nterms=6), I.groebner_basis()),
              normal_form(random_poly(ring, rng, maxdeg=4, nterms=6), [])]
    assert any(len(f.terms) > 1 for f in polys)
    for f in polys:
        assert f == _sorted_again(f)
    # kernel input in any term order comes out sorted, with or without divisors
    shuffled = [dict(reversed(_vec_to_dict((f,)).items())) for f in I.gens]
    for d in buchberger(shuffled, ring) + [_reducer([], ring)(shuffled[0])]:
        assert _ordered_to_vec(d, ring, 1) == (ring.from_dict({m: c for (_, m), c in d.items()}),)


@pytest.mark.parametrize("p", [P, 7])
def test_closed_form_principal_basis_matches_buchberger(p, monkeypatch):
    # a single generator f is its own reduced basis once monic, and the
    # zero ideal has the empty basis: the closed form against a Buchberger
    # run, under the default order and an elimination order, on random
    # polynomials (homogeneous or not), monomials, constants and no
    # generator; the closed form makes no Buchberger call
    rng = seeded(p + 5)
    rings = [PolyRing(p, ("x", "y", "z")), PolyRing(p, ("t", "x", "y"), elimination_order(3, (0,)))]
    cases = []
    for R in rings:
        x = R.var(1)
        polys = [random_poly(R, rng, maxdeg=3, nterms=k) for k in range(1, 6) for _ in range(5)]
        polys += [R.const(3), R.const(p - 1), R.one(), x**2 * R.var(2), x.scale(5) - R.one()]
        cases += [(R, [f], tuple(_ideal_basis([f], R))) for f in polys if f]
        cases.append((R, [], tuple(_ideal_basis([], R))))

    def refuse(*args, **kwargs):
        raise AssertionError("buchberger ran on a principal ideal")

    monkeypatch.setattr(groebner, "buchberger", refuse)
    for R, gens, expected in cases:
        gb = Ideal(R, gens).groebner_basis()
        assert gb == expected and [g.terms for g in gb] == [g.terms for g in expected], gens
    assert sum(f.is_constant() for _, gens, _ in cases for f in gens) >= 6
    assert sum(not gens for _, gens, _ in cases) == 2


def _loop_basis(gens, ring, known=()):
    """The Buchberger loop on the term dicts `gens` and the reduced basis
    `known`: a binomial alone in a fresh last position keeps the input from
    being terms only, and its basis element, the only one there, is dropped
    again."""
    last = 1 + max(pos for g in list(known) + gens for pos, _ in g)
    units = [tuple(int(i == j) for j in range(ring.nvars)) for i in range(2)]
    pad = {(last, units[0]): 1, (last, units[1]): 1}
    return [g for g in buchberger(gens + [pad], ring, _encoded(known, ring)) if next(iter(g))[0] != last]


@pytest.mark.parametrize("p", [P, 7])
def test_closed_form_terms_only_basis_matches_sympy_and_the_loop(p, monkeypatch):
    # when every input is a single term, every S-polynomial is 0, so the
    # reduced basis is the minimal terms, monic and ascending; divisibility
    # counts within one position only.  The closed form against sympy's
    # groebner on monomial ideals, and against the loop on the same terms on
    # monomial ideals and submodules of R^2 and R^3, with repeated terms,
    # coefficients other than 1, zero inputs and a known prefix; the closed
    # form takes no normal form
    sympy = pytest.importorskip("sympy")
    rng = seeded(p + 8)
    ring = PolyRing(p, ("x", "y", "z"))
    syms = sympy.symbols("x y z")
    cases = []
    for npos in (1, 1, 2, 3):
        for _ in range(12):
            gens = [{(rng.randrange(npos), tuple(rng.randrange(4) for _ in range(3))): rng.randrange(1, p)}
                    for _ in range(rng.randrange(1, 9))]
            gens += [dict(g) for g in rng.sample(gens, rng.randrange(len(gens) + 1))] + [{}]
            rng.shuffle(gens)
            cases.append((gens, []))
            cases.append((gens[3:], _loop_basis(gens[:3], ring)))
    expected = [_loop_basis(gens, ring, known) for gens, known in cases]
    ideals = []
    for gens, known in cases[::2]:
        if all(pos == 0 for g in gens for pos, _ in g):
            exprs = [sympy.Poly.from_dict({m: c}, *syms, modulus=p).as_expr() for g in gens for (_, m), c in g.items()]
            G = sympy.groebner(exprs, *syms, order="grevlex", modulus=p)
            ideals.append((gens, {(0, m): int(c) % p for g in G.polys for m, c in g.terms()}))

    def refuse(*args):
        raise AssertionError("a normal form was taken of terms only")

    monkeypatch.setattr(groebner, "nf_dict", refuse)
    for (gens, known), exp in zip(cases, expected):
        assert buchberger(gens, ring, _encoded(known, ring)) == exp, gens
    for gens, terms in ideals:
        assert {pm: c for g in buchberger(gens, ring) for pm, c in g.items()} == terms, gens
    assert len(ideals) >= 24
    assert any(len({pos for d in exp for pos, _ in d}) == 3 for exp in expected)
    assert any(len(exp) < len({pm for g in known + gens for pm in g}) for exp, (gens, known) in zip(expected, cases))


@pytest.mark.parametrize("p", [P, 7])
def test_closed_form_rabinowitsch_saturation_keeps_its_basis(p, monkeypatch):
    # the elimination order is grevlex on R's variables, so the basis
    # elements free of t are the reduced basis of (J : f^infinity) under
    # R's default order: the kept basis against a Buchberger run on the
    # result's generators, for random homogeneous J and non-monomial f;
    # asking for it runs no Buchberger call.  Under another order of R no
    # basis is kept
    rng = seeded(p + 9)
    cases = []
    for nvars in (2, 3, 4):
        R = PolyRing(p, tuple(f"x{i}" for i in range(nvars)))
        while len([c for c in cases if c[0].ring == R]) < 12:
            J = Ideal(R, [random_homogeneous_poly(R, rng, rng.randrange(1, 3)) * random_homogeneous_poly(R, rng, 1)
                          for _ in range(rng.randrange(1, 4))])
            f = random_homogeneous_poly(R, rng, rng.randrange(1, 3))
            if len(f.terms) > 1:
                S = saturate(J, f)
                cases.append((S, tuple(_ideal_basis(S.gens, R))))

    other = PolyRing(p, ("x0", "x1", "x2"), elimination_order(3, (0,)))
    x0, x1, x2 = other.gens()
    assert ("groebner_basis", ()) not in saturate(Ideal(other, [x0 * x1 * (x1 + x2), x2**3]), x1 + x2)._cache

    def refuse(*args, **kwargs):
        raise AssertionError("buchberger ran on a Rabinowitsch result")

    monkeypatch.setattr(groebner, "buchberger", refuse)
    for S, expected in cases:
        gb = S.groebner_basis()
        assert gb == expected and [g.terms for g in gb] == [g.terms for g in expected], S
    assert sum(len(S.gens) > 1 for S, _ in cases) >= 12


def _sympy_dimension(gens, syms, p):
    """dim R/I from sympy's modular reduced grevlex basis of I: the largest
    variable set that contains the support of no leading monomial."""
    sympy = pytest.importorskip("sympy")
    exprs = [sympy.Poly.from_dict(dict(f.terms), *syms, modulus=p).as_expr() for f in gens]
    G = sympy.groebner(exprs, *syms, order="grevlex", modulus=p)
    supports = [{i for i, e in enumerate(g.monoms(order="grevlex")[0]) if e} for g in G.polys]
    n = len(syms)
    for size in range(n, -1, -1):
        if any(all(not s <= set(S) for s in supports) for S in combinations(range(n), size)):
            return size
    return -1


@pytest.mark.parametrize("p", [P, 7])
def test_closed_form_two_forms_dimension_matches_the_basis_and_sympy(p, monkeypatch):
    # two forms f, g of positive degree have height 2 exactly when the
    # products m*f (deg m = deg g - 1) and m*g (deg m = deg f - 1) are
    # GF(p)-independent, and one form has height 1: the rank test against
    # the same ideal with the redundant third generator f + g, which takes
    # the basis route, and against sympy's modular groebner, on random
    # pairs of degrees (1,1), (1,3), (2,2), (2,3), pairs h*f', h*g' with a
    # common factor h of degree 1 or 2, scalar multiples and single forms,
    # in 1 to 4 variables; the rank test takes no basis
    sympy = pytest.importorskip("sympy")
    rng = seeded(p + 11)
    cases = []
    for nvars in (1, 2, 3, 4):
        R = PolyRing(p, tuple(f"x{i}" for i in range(nvars)))
        syms = sympy.symbols(" ".join(R.vars) + ",")

        def form(deg):
            return random_homogeneous_poly(R, rng, deg, nterms=rng.randrange(1, 5))

        pairs = [(form(a), form(b)) for a, b in ((1, 1), (1, 3), (2, 2), (2, 3), (3, 2)) for _ in range(3)]
        for k in (1, 2):
            h = form(k)
            pairs += [(h * form(a), h * form(b)) for a, b in ((0, 1), (1, 1), (1, 2))]
        f = form(2)
        pairs += [(f, f.scale(rng.randrange(1, p - 1))), (f, f)]
        for f, g in pairs:
            cases.append((R, [f, g], krull_dimension(Ideal(R, [f, g, f + g])), _sympy_dimension([f, g], syms, p)))
        for f in (form(1), form(3)):
            cases.append((R, [f], krull_dimension(Ideal(R, [f, f.scale(2), f.scale(3)])), _sympy_dimension([f], syms, p)))

    def refuse(*args, **kwargs):
        raise AssertionError("a basis was taken of at most two forms")

    monkeypatch.setattr(groebner, "buchberger", refuse)
    verdicts = set()
    for R, gens, by_basis, by_sympy in cases:
        dim = krull_dimension(Ideal(R, gens))
        assert dim == by_basis == by_sympy, (gens, dim, by_basis, by_sympy)
        verdicts.add((R.nvars, R.nvars - dim))
    assert verdicts == {(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2)}


def _random_gfp_rows(rng, p):
    """(rows, width): a random GF(p) matrix with sparse, repeated, scaled,
    dependent and zero rows, possibly none."""
    width = rng.randrange(1, 7)
    rows = []
    for _ in range(rng.randrange(0, 8)):
        kind = rng.random()
        if rows and kind < 0.15:
            c = rng.randrange(1, p)
            rows.append([c * a % p for a in rng.choice(rows)])
        elif len(rows) > 1 and kind < 0.35:
            a, b = rng.sample(rows, 2)
            c, d = rng.randrange(p), rng.randrange(p)
            rows.append([(c * u + d * v) % p for u, v in zip(a, b)])
        elif kind < 0.45:
            rows.append([0] * width)
        else:
            rows.append([rng.randrange(1, p) if rng.random() < 0.6 else 0 for _ in range(width)])
    return rows, width


@pytest.mark.parametrize("p", [P, 7])
def test_back_substituted_echelon_is_the_dense_rref(p):
    # oracle: the dense conftest.rref.  Random matrices go through
    # _echelon_add and _back_substitute on sparse rows keyed -i (the leading
    # key is the first nonzero position, as modalg._constant_row keys them)
    # and +i (the last, as the core rows of rees.core_monte_carlo); with the
    # columns read in the matching order, the pivots and the reduced rows
    # are rref's, and _echelon_add says True exactly rank-many times
    rng = seeded(p + 32)
    for _ in range(300):
        rows, width = _random_gfp_rows(rng, p)
        for sign in (-1, 1):
            order = list(range(width))[::-sign]
            want_rows, want_pivots = rref([[r[i] for i in order] for r in rows], p)
            echelon = {}
            grew = [groebner._echelon_add(echelon, {sign * i: c for i, c in enumerate(r) if c}, p) for r in rows]
            assert groebner._back_substitute(echelon, p) is echelon
            leads = sorted(echelon, reverse=True)
            assert [order.index(sign * k) for k in leads] == want_pivots, (rows, sign)
            assert [[echelon[k].get(sign * i, 0) for i in order] for k in leads] == want_rows, (rows, sign)
            assert all(c for row in echelon.values() for c in row.values())
            assert sum(grew) == len(want_rows)


@pytest.mark.parametrize("p", [P, 7])
def test_change_of_generators_matches_the_dense_rref(p):
    # oracle: conftest.rref and in_row_space.  On random scalar spans L of
    # R^n, the free positions are the non-pivot columns of L's rref, a free
    # position is itself, and e_i - sum c*e_free[k] over images[i] lies in L
    R = PolyRing(p, ("x", "y"))
    rng = seeded(p + 33)
    for _ in range(200):
        rows, n = _random_gfp_rows(rng, p)
        U = modalg.span(modalg.free_module(R, n), [tuple(R.const(c) for c in r) for r in rows])
        free, images = modalg._change_of_generators(U)
        _, pivots = rref(rows, p)
        assert free == [i for i in range(n) if i not in pivots], rows
        for i in range(n):
            if i in free:
                assert images[i] == ((free.index(i), 1),)
            v = [0] * n
            v[i] = 1
            for k, c in images[i]:
                v[free[k]] = (v[free[k]] - c) % p
            assert in_row_space(v, rows, p), (rows, i)
