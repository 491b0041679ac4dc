"""Rees data: symmetric vs Rees ideals, fibers, spreads, components,
reductions, reduction numbers, Monte Carlo cores."""

import random
from itertools import cycle
from math import prod
from pathlib import Path

import pytest

from modcore import checks, groebner, modalg, rees
from modcore.errors import DegreeMixError, ModcoreError, RetryExhaustedError, TorsionError
from modcore.groebner import (
    Ideal,
    _ideal_basis,
    _monomials_of_degree,
    _ordered_to_vec,
    hilbert_function,
    ideal_membership,
    krull_dimension,
    quotient_ideal,
)
from modcore.modalg import (
    cyclic_module,
    direct_sum,
    free_module,
    first_nonzero_maximal_minor,
    ideal_times_submodule,
    module_from_ideal,
    mu,
    rank,
    span,
    submodule_intersect,
    whole_module,
)
from modcore.poly import Polynomial, PolyRing, map_poly
from modcore.rees import (
    DEFAULT_T_CAP,
    _t_monomials,
    analytic_spread,
    core_monte_carlo,
    fiber_ideal,
    fiber_quotient,
    graded_component,
    is_reduction,
    random_reduction,
    reduction_number,
    rees_ideal,
    sym_ideal,
)
from modcore.session import parse_session, run_session

from conftest import P, eliminate, generic_cokernel, image_ideal, row_rank, two_block_intersect



def rees_ideal_by_elimination(I):
    """Oracle for ideals: kernel of k[x, T] -> k[x, s], T_i -> f_i * s."""
    ring = I.ring
    n = len(I.gens)
    tnames = tuple(f"T{i + 1}" for i in range(n))
    big = PolyRing(ring.char, ring.vars + tnames + ("s",))
    s = big.var(big.nvars - 1)
    gens = []
    for i, f in enumerate(I.gens):
        gens.append(big.var(ring.nvars + i) - map_poly(f, big) * s)
    K = eliminate(Ideal(big, gens), list(ring.vars) + list(tnames))
    target = PolyRing(ring.char, ring.vars + tnames)
    return Ideal(target, [map_poly(g, target) for g in K.gens])


def test_sym_ideal_free(R2):
    assert sym_ideal(free_module(R2, 2)).is_zero()


def test_sym_ideal_koszul(R2):
    x, y = R2.gens()
    E = module_from_ideal(Ideal(R2, [x, y]))
    S = sym_ideal(E)
    big = S.ring
    T1, T2 = big.var(2), big.var(3)
    xb, yb = big.var(0), big.var(1)
    assert S == Ideal(big, [xb * T2 - yb * T1])


def test_rees_ideal_expands_the_maximal_minors_once(R2, msq, monkeypatch):
    # the torsion check and the saturation take the same first nonzero
    # maximal minor: the minors of a module are expanded once
    built = []
    row_minors = modalg._row_minors

    def counting(E):
        built.append(len(E.relations))
        return row_minors(E)

    monkeypatch.setattr(modalg, "_row_minors", counting)
    E = module_from_ideal(Ideal(R2, msq.gens))
    assert not rees_ideal(E).is_zero()
    assert built == [2]


def test_sym_ideal_msq_rows(E_msq):
    big = sym_ideal(E_msq).ring
    x, y = big.var(0), big.var(1)
    T1, T2, T3 = big.var(2), big.var(3), big.var(4)
    assert sym_ideal(E_msq) == Ideal(big, [y * T1 - x * T2, y * T2 - x * T3])


def test_rees_free_module_is_zero(R2):
    assert rees_ideal(free_module(R2, 3)).is_zero()


def test_rees_koszul_linear_type(R2):
    x, y = R2.gens()
    E = module_from_ideal(Ideal(R2, [x, y]))
    assert rees_ideal(E) == sym_ideal(E)


def test_rees_msq_adds_one_quadric(E_msq):
    R = rees_ideal(E_msq)
    big = R.ring
    x, y = big.var(0), big.var(1)
    T1, T2, T3 = big.var(2), big.var(3), big.var(4)
    expected_extra = T1 * T3 - T2**2
    S = sym_ideal(E_msq) + Ideal(big, [expected_extra])
    assert R == S
    # two-way membership, spelled out
    assert ideal_membership(expected_extra, R)
    for g in R.groebner_basis():
        assert ideal_membership(g, S)


def test_rees_msq_matches_elimination_oracle(msq, E_msq):
    oracle = rees_ideal_by_elimination(msq)
    ours = rees_ideal(E_msq)
    # same ring layout (x, y, T1..T3), so compare directly
    assert Ideal(oracle.ring, [map_poly(g, oracle.ring) for g in ours.groebner_basis()]) == oracle


def test_rees_edge_matches_elimination_oracle(edge, E_edge):
    oracle = rees_ideal_by_elimination(edge)
    ours = rees_ideal(E_edge)
    assert Ideal(oracle.ring, [map_poly(g, oracle.ring) for g in ours.groebner_basis()]) == oracle


def test_rees_block_order_gb_statement(E_msq):
    # the three binomials form a reduced basis of the Rees ideal; verified by
    # membership plus Hilbert-function agreement with the saturation up to 6
    R = rees_ideal(E_msq)
    big = R.ring
    x, y = big.var(0), big.var(1)
    T1, T2, T3 = big.var(2), big.var(3), big.var(4)
    claimed = Ideal(big, [y * T1 - x * T2, y * T2 - x * T3, T1 * T3 - T2**2])
    for g in claimed.gens:
        assert ideal_membership(g, R)
    for d in range(7):
        assert hilbert_function(claimed, d) == hilbert_function(R, d)


def test_rees_msq_reduced_gb_under_block_order(E_msq):
    # under the T-block-first elimination order, the reduced basis is exactly
    # the two symmetric relations plus the fiber quadric (up to monic scaling)
    from modcore.orders import BlockOrder

    R = rees_ideal(E_msq)
    order = BlockOrder(((2, 3, 4), (0, 1)))
    big = PolyRing(R.ring.char, R.ring.vars, order)
    x, y = big.var(0), big.var(1)
    T1, T2, T3 = big.var(2), big.var(3), big.var(4)
    gb = set(_ideal_basis(R.gens, big))
    keyf = order.key
    expected = set()
    for f in (y * T1 - x * T2, y * T2 - x * T3, T1 * T3 - T2**2):
        lead = max((m for m, _ in f.terms), key=keyf)
        lc = dict(f.terms)[lead]
        expected.add(f.scale(pow(lc, -1, big.char)))
    assert gb == expected


def test_sym_contained_in_rees(E_msq, E_edge):
    for E in (E_msq, E_edge):
        R = rees_ideal(E)
        for g in sym_ideal(E).gens:
            assert ideal_membership(g, R)


def test_fiber_and_spread_examples(E_msq, E_edge, R2):
    assert analytic_spread(E_edge) == 4 - 1  # edge ideal of the square: 3
    assert analytic_spread(free_module(R2, 2)) == 2
    assert analytic_spread(E_msq) == 2
    fi = fiber_ideal(E_msq)
    T = fi.ring
    assert fi == Ideal(T, [T.var(0) * T.var(2) - T.var(1) ** 2])


def test_fiber_requires_common_degree(R2, msq):
    x, y = R2.gens()
    mixed = module_from_ideal(Ideal(R2, [x, y**2]))
    with pytest.raises(DegreeMixError):
        rees_ideal(mixed)


_REES_ENTRY_POINTS = {
    "sym_ideal": sym_ideal,
    "rees_ideal": rees_ideal,
    "fiber_ideal": fiber_ideal,
    "analytic_spread": analytic_spread,
    "graded_component": lambda E: graded_component(E, 0),
    "is_reduction": lambda E: is_reduction(span(free_module(E.ring, E.n), []), E),
    "reduction_number": lambda E: reduction_number(span(E, []), E),
    "random_reduction": lambda E: random_reduction(E, count=1, rng=1),
}


@pytest.mark.parametrize("entry", sorted(_REES_ENTRY_POINTS))
def test_rees_preconditions_come_first_in_a_fixed_order(R2, entry):
    # every Rees datum checks E first: nonzero, then rank > 0, then
    # torsion-free, then one generator degree; a module that breaks two
    # conditions reports the earlier one, before any check of j or of U
    x, y = R2.gens()
    torsion = cyclic_module(R2, Ideal(R2, [x]))
    cases = [
        (free_module(R2, 0), ModcoreError, "^Rees data of the zero module is not defined$"),
        (direct_sum(torsion, torsion, twist=1), ModcoreError, r"^Rees machinery needs rank\(E\) > 0$"),
        (direct_sum(torsion, free_module(R2, 1), twist=1), TorsionError,
         "^module has torsion; quotient the torsion submodule first$"),
        (module_from_ideal(Ideal(R2, [x, y**2])), DegreeMixError, "^generators must sit in one common degree$"),
    ]
    for E, error, message in cases:
        with pytest.raises(error, match=message):
            _REES_ENTRY_POINTS[entry](E)


def test_spread_bounds_on_corpus(E_msq, E_edge, E_H, E_msq_plus, E_edge_plus, E_H_plus):
    for E in (E_msq, E_edge, E_H, E_msq_plus, E_edge_plus, E_H_plus):
        e = rank(E)
        ell = analytic_spread(E)
        d = E.ring.nvars
        assert e <= ell <= mu(E)
        assert ell <= d + e - 1


def test_direct_sum_spread(E_msq, E_edge, E_H, R2):
    # ell(I + R(-D)^(e-1)) = ell(I) + e - 1 on the corpus
    for E, free_rank in ((E_msq, 1), (E_edge, 1), (E_H, 1)):
        D = E.common_degree()
        ED = direct_sum(E, free_module(E.ring, free_rank), twist=D)
        assert analytic_spread(ED) == analytic_spread(E) + free_rank


def test_graded_component_free(R2):
    F = free_module(R2, 2, twist=1)
    for j in (1, 2, 3):
        Fj = graded_component(F, j)
        assert mu(Fj) == j + 1  # binomial(2+j-1, j)
        assert not Fj.relations


def test_graded_component_matches_ideal_powers(R2, E_msq, msq):
    # E^j of an ideal is I^j: equal Hilbert functions and minimal generators
    x, y = R2.gens()
    for j in (2, 3):
        Ej = graded_component(E_msq, j)
        power = msq
        for _ in range(j - 1):
            power = power * msq
        Pj = module_from_ideal(Ideal(R2, sorted(set(power.gens), key=str)))
        for d in range(2 * j, 2 * j + 4):
            assert Ej.hilbert_function(d) == Pj.hilbert_function(d)
        assert mu(Ej) == mu(Pj) == 2 * j + 1


def test_graded_component_msq_square_is_m4(R2, E_msq):
    x, y = R2.gens()
    E2 = graded_component(E_msq, 2)
    m4 = module_from_ideal(Ideal(R2, [x**4, x**3 * y, x**2 * y**2, x * y**3, y**4]))
    for d in range(4, 9):
        assert E2.hilbert_function(d) == m4.hilbert_function(d)
    # isomorphic minimal presentations: identical graded Betti data
    from modcore.modalg import free_resolution

    r2 = free_resolution(E2)
    r4 = free_resolution(m4)
    assert [sorted(d) for d in r2.degrees] == [sorted(d) for d in r4.degrees]


def test_graded_component_cap(E_msq):
    from modcore.errors import CapExceededError

    with pytest.raises(CapExceededError):
        graded_component(E_msq, 9, t_cap=6)


def test_is_reduction_examples(R2, E_msq):
    one, zero = R2.one(), R2.zero()
    assert is_reduction(whole_module(E_msq), E_msq)
    assert not is_reduction(span(E_msq, [(one, zero, zero)]), E_msq)
    U = span(E_msq, [(one, zero, zero), (zero, zero, one)])
    assert is_reduction(U, E_msq)
    # oracle: fiber mod (T1, T3) is k[T2]/(T2^2), dimension 0
    from modcore.groebner import krull_dimension

    fi = fiber_ideal(E_msq)
    T = fi.ring
    quot = fi + Ideal(T, [T.var(0), T.var(2)])
    assert krull_dimension(quot) == 0


def test_reduction_monotonicity(R2, E_msq):
    one, zero = R2.one(), R2.zero()
    U = span(E_msq, [(one, zero, zero), (zero, zero, one)])
    V = span(E_msq, list(U.gens) + [(zero, one, zero)])
    assert is_reduction(U, E_msq)
    assert is_reduction(V, E_msq)  # U <= V <= E forces V to reduce as well


def test_reduction_monotonicity_random(E_msq):
    import random

    rng = random.Random(77)
    p = E_msq.ring.char
    for _ in range(10):
        U = random_reduction(E_msq, rng=rng)
        extra = tuple(E_msq.ring.const(rng.randrange(p)) for _ in range(E_msq.n))
        V = span(E_msq, list(U.gens) + [extra])
        assert is_reduction(V, E_msq)


def test_random_reduction_small_characteristic():
    # GF(5): draws fail the fiber test more often; retries must still land
    from modcore.poly import PolyRing
    from modcore.modalg import module_from_ideal

    R = PolyRing(5, ("x", "y"))
    x, y = R.gens()
    E = module_from_ideal(Ideal(R, [x**2, x * y, y**2]))
    U = random_reduction(E, rng=0)
    assert is_reduction(U, E)


def test_random_reduction_exhausts_below_spread(E_msq):
    from modcore.errors import RetryExhaustedError

    with pytest.raises(RetryExhaustedError):
        random_reduction(E_msq, count=1, rng=3)  # one element never reduces


@pytest.mark.parametrize("count", [0, -1])
def test_random_reduction_rejects_count_below_one_before_drawing(E_msq, count):
    rng = random.Random(1)
    state = rng.getstate()
    with pytest.raises(ModcoreError, match=f"count >= 1, got {count}"):
        random_reduction(E_msq, count=count, rng=rng)
    assert rng.getstate() == state  # no draw was made


def test_random_reduction_no_proper_reductions(E_H, E_H_plus):
    # mu = ell (3 for H, 4 for H + R(-2)): the only reduction is E itself,
    # returned with no draw; the seed is still required
    for E in (E_H, E_H_plus):
        rng = random.Random(3)
        state = rng.getstate()
        U = random_reduction(E, rng=rng)
        assert U is whole_module(E) and random_reduction(E, count=E.n, rng=rng) is U
        assert rng.getstate() == state
        with pytest.raises(ModcoreError, match="require a seed"):
            random_reduction(E)


def test_random_reduction_msq(E_msq):
    U = random_reduction(E_msq, rng=5)
    assert len(U.gens) == 2
    assert is_reduction(U, E_msq)


def test_random_reduction_needs_seed(E_msq):
    with pytest.raises(ModcoreError):
        random_reduction(E_msq)


def test_random_reduction_edge_plus_free(E_edge_plus):
    U = random_reduction(E_edge_plus, rng=11)
    assert len(U.gens) == 4
    assert is_reduction(U, E_edge_plus)


class _ScriptedRandom(random.Random):
    """A seeded generator whose `randrange` returns the scripted values
    first, then the seeded stream."""

    def __init__(self, script, seed):
        super().__init__(seed)
        self.script = list(script)

    def randrange(self, *args):
        return self.script.pop(0) if self.script else super().randrange(*args)


def _draw_oracle_modules(p):
    """{name: module} over GF(p): m^2, (xy,xz,yz) and H plus R(-2), with one
    free position left by a minimal reduction of the first and none by the
    others (ell = mu); (xy,xz,yz) + (xy,xz,yz), with two; and the generic
    5 x 3 cokernel, with one."""
    x, y = PolyRing(p, ("x", "y")).gens()
    a, b, c = PolyRing(p, ("x", "y", "z")).gens()
    x0, x1, x2, x3 = PolyRing(p, ("x0", "x1", "x2", "x3")).gens()
    msq = module_from_ideal(Ideal(x.ring, [x**2, x * y, y**2]))
    tri = module_from_ideal(Ideal(a.ring, [a * b, a * c, b * c]))
    H = module_from_ideal(Ideal(x0.ring, [x1 * x3 - x2**2, x0 * x3 - x1 * x2, x0 * x2 - x1**2]))
    return {
        "m^2+R(-2)": direct_sum(msq, free_module(x.ring, 1), twist=2),
        "tri+R(-2)": direct_sum(tri, free_module(a.ring, 1), twist=2),
        "H+R(-2)": direct_sum(H, free_module(x0.ring, 1), twist=2),
        "tri+tri": direct_sum(tri, tri),
        "coker": generic_cokernel(3, 5, 3, p),
    }


def _assert_row_span_matches(E, U, rows):
    """U, built from the GF(p) rows `rows`, against span(E, consts) on the
    same rows: generators, change of generators, quotient basis, the colon
    by its reduced basis (also against the colon by the unit vectors over
    the coset basis), the fiber test and the reduction number."""
    ring = E.ring
    V = span(E, [tuple(map(ring.const, row)) for row in rows])
    assert U.gens == V.gens
    assert modalg._change_of_generators(U) == modalg._change_of_generators(V)
    assert modalg._scalar_quotient(U)[0] == modalg._scalar_quotient(V)[0]
    as_items = lambda basis: [list(d.items()) for d in basis]
    assert as_items(modalg._quotient_basis(U)) == as_items(modalg._quotient_basis(V))
    K = modalg.colon_into(U, E)
    assert K.gens == modalg.colon_into(V, E).gens
    reference = modalg._colon_by_free(span(E, V.gens).coset_gb(), ring, E.n)
    assert K.groebner_basis() == reference.groebner_basis()
    verdict = is_reduction(U, E)
    assert verdict == is_reduction(V, E)
    assert reduction_number(U, E) == reduction_number(V, E)
    return verdict


@pytest.mark.parametrize("p", [P, 7, 3])
def test_row_built_draws_match_spans_of_constants(p):
    # a draw carries its GF(p) rows from the draw on (`modalg._row_span`),
    # with no constant polynomials checked on the way: the result against
    # span(E, consts) on the same rows.  Draws of `random_reduction` at
    # ell = count (ell + 1 where ell = mu, which draws nothing at ell), and
    # spans of ell - 1 and ell + 1 rows with a zero row among them; then a
    # scripted draw whose first attempt, ell + 1 copies of one row, is no
    # reduction and is retried, and whose second holds a zero row
    free_counts, verdicts = set(), set()
    for name, E in _draw_oracle_modules(p).items():
        ell, n = analytic_spread(E), E.n
        count = ell + 1 if ell == mu(E) else ell
        rng = random.Random(f"rows:{name}:{p}")
        for seed in range(3):
            U = random_reduction(E, count=count, rng=rng)
            assert _assert_row_span_matches(E, U, U._cache["draws"]), (name, p)
            free_counts.add(len(modalg._scalar_quotient(U)[0]))
        for k in (ell - 1, ell + 1):
            rows = [[rng.randrange(p) for _ in range(n)] for _ in range(k)]
            rows[rng.randrange(k)] = [0] * n
            U = modalg._row_span(E, rows)
            assert len(U.gens) == sum(map(any, rows)) < k and U._cache["draws"] is rows
            verdicts.add(_assert_row_span_matches(E, U, rows))
        # the reduction the script ends on: a zero row and ell rows that
        # span(E, consts) certifies
        while True:
            good = [[0] * n] + [[rng.randrange(p) for _ in range(n)] for _ in range(ell)]
            if is_reduction(span(E, [tuple(map(E.ring.const, row)) for row in good]), E):
                break
        bad = [[1] * n] * (ell + 1)
        script = [c for row in bad + good for c in row]
        stub = _ScriptedRandom(script, 0)
        U = random_reduction(E, count=ell + 1, rng=stub)
        assert stub.script == [] and U._cache["draws"] == good, (name, p)
        assert not _assert_row_span_matches(E, modalg._row_span(E, bad), bad)
        assert _assert_row_span_matches(E, U, good)
    # one free position at points of the fiber variety of m^2 + R(-2), once
    # a reduction has taken the closed form: no reduction, and a colon
    # below I_1(phi)
    x, y = PolyRing(p, ("x", "y")).gens()
    E, spans = _fiber_point_spans(Ideal(x.ring, [x**2, x * y, y**2]), 1, random.Random(f"fiber:{p}"), 4)
    U = random_reduction(E, rng=p)
    assert _assert_row_span_matches(E, U, U._cache["draws"])
    for V in spans:
        rows = [[f.constant_coeff() for f in v] for v in V.gens]
        U = modalg._row_span(E, rows)
        assert not _assert_row_span_matches(E, U, rows)
        assert len(modalg._scalar_quotient(U)[0]) == 1 and modalg.colon_into(U, E) != modalg._entry_colon(E)
    assert free_counts == {0, 1, 2} and verdicts == {False, True}


def test_row_built_draws_take_no_constants_and_no_scan(monkeypatch):
    # a draw builds its constant coordinates without `PolyRing.const` and is
    # known to be scalar without an `is_constant` scan, which a span of the
    # same vectors still takes
    E = _draw_oracle_modules(P)["m^2+R(-2)"]
    consts, scans = [], []
    const, is_constant = PolyRing.const, Polynomial.is_constant
    monkeypatch.setattr(PolyRing, "const", lambda *args: consts.append(args) or const(*args))
    monkeypatch.setattr(Polynomial, "is_constant", lambda f: scans.append(f) or is_constant(f))
    for seed in range(5):
        U = random_reduction(E, rng=seed)
        assert consts == []
        scans.clear()
        assert modalg._scalar_quotient(U) is not None and scans == []
    assert modalg._scalar_quotient(span(E, U.gens)) is not None and scans


def test_one_free_position_draws_share_the_colon_of_their_module():
    # with one free position and the closed form of `_quotient_basis`, the
    # colon (U : E) is I_1(phi): one Ideal for every draw of E.  A draw of
    # (xy,xz,yz) + (xy,xz,yz) leaves two free positions and takes its own
    modules = _draw_oracle_modules(P)
    E = modules["m^2+R(-2)"]
    U1, U2 = random_reduction(E, rng=1), random_reduction(E, rng=2)
    K = modalg.colon_into(U1, E)
    assert modalg.colon_into(U2, E) is K is modalg._entry_colon(E)
    assert K.groebner_basis() == modalg._entry_ideal(E).groebner_basis()
    E = modules["tri+tri"]
    U1, U2 = random_reduction(E, rng=1), random_reduction(E, rng=2)
    assert len(modalg._scalar_quotient(U1)[0]) == 2
    K1, K2 = modalg.colon_into(U1, E), modalg.colon_into(U2, E)
    assert K1 is not K2 and modalg.colon_into(U1, E) is K1
    assert ("_entry_colon", ()) not in E._cache


def test_reduction_number_trivial(E_msq):
    assert reduction_number(whole_module(E_msq), E_msq) == 0


def test_reduction_number_msq_oracle(R2, E_msq, msq):
    x, y = R2.gens()
    one, zero = R2.one(), R2.zero()
    U = span(E_msq, [(one, zero, zero), (zero, zero, one)])
    assert reduction_number(U, E_msq) == 1
    # oracle: m^4 = (x^2, y^2) * m^2 but m^2 != (x^2, y^2), as ideal identities
    J = Ideal(R2, [x**2, y**2])
    assert J * msq == msq * msq
    assert J != msq


def test_reduction_number_twisted_cubic(H, E_H):
    # mu(H) = ell(H) forces U = H, whence r_U(H) = 0; the stated oracle
    # H^2 = U*H holds (trivially) for every seeded draw
    for seed in range(5):
        U = random_reduction(E_H, rng=100 + seed)
        UJ = image_ideal(U, H)
        assert UJ * H == H * H
        assert reduction_number(U, E_H) == 0


def test_reduction_number_inconclusive_flag(R2, E_msq):
    one, zero = R2.one(), R2.zero()
    U = span(E_msq, [(one, zero, zero)])  # not a reduction: never covers
    assert reduction_number(U, E_msq, max_degree=2) is None


def test_reduction_tests_reject_a_submodule_of_another_module(R2, E_msq):
    # U inside F = (x, y) against E = m^2, and the other way round: the
    # coordinates of U mean nothing over the other module's generators
    x, y = R2.gens()
    one, zero = R2.one(), R2.zero()
    F = module_from_ideal(Ideal(R2, [x, y]))
    for U, E in ((span(F, [(one, zero)]), E_msq), (span(E_msq, [(one, zero, zero)]), F)):
        with pytest.raises(ModcoreError, match="^U is not a submodule of E$"):
            reduction_number(U, E)
        with pytest.raises(ModcoreError, match="^U is not a submodule of E$"):
            is_reduction(U, E)


def test_core_monte_carlo_msq(R2, E_msq, msq):
    x, y = R2.gens()
    C, used = core_monte_carlo(E_msq, samples=12, rng=42)
    m = Ideal(R2, [x, y])
    # classical value: core(m^2) = m^3
    assert C == ideal_times_submodule(m, whole_module(E_msq))
    m3 = Ideal(R2, [x**3, x**2 * y, x * y**2, y**3])
    assert image_ideal(C, msq) == m3
    # oracle: Theorem-1.1-style products (J : I) * J over 8 seeded reductions
    for seed in range(8):
        U = random_reduction(E_msq, rng=500 + seed)
        J = image_ideal(U, msq)
        K = quotient_ideal(J, msq)
        assert K == m
        assert K * J == m3
        assert K * msq == m3


def test_core_no_proper_reductions(E_H):
    C, used = core_monte_carlo(E_H, samples=6, rng=1)
    assert C == whole_module(E_H)


def test_core_contained_in_sampled_reductions(E_msq):
    C, _ = core_monte_carlo(E_msq, samples=12, rng=9)
    for seed in (21, 22, 23):
        assert C <= random_reduction(E_msq, rng=seed)


def test_core_msq_plus_free(R2, E_msq_plus):
    x, y = R2.gens()
    C, _ = core_monte_carlo(E_msq_plus, samples=8, rng=7)
    assert C == ideal_times_submodule(Ideal(R2, [x, y]), whole_module(E_msq_plus))


def _record_core(E, seed, monkeypatch):
    """core_monte_carlo(E) with its draws and, for each call of the meet,
    the number of draws made before it; and the draws that change the
    intersection, replayed with the two-block meet, which changes no state
    of the loop."""
    draws, meets = [], []
    draw, meet = rees.random_reduction, modalg._meet

    def recording_draw(*args, **kwargs):
        draws.append(draw(*args, **kwargs))
        return draws[-1]

    def recording_meet(*args, **kwargs):
        meets.append(len(draws))
        return meet(*args, **kwargs)

    monkeypatch.setattr(rees, "random_reduction", recording_draw)
    monkeypatch.setattr(modalg, "_meet", recording_meet)
    C, used = core_monte_carlo(E, samples=12, rng=seed)
    monkeypatch.undo()
    changing, current = [], whole_module(E)
    for k, U in enumerate(draws, 1):
        basis = two_block_intersect(current, U)
        if basis != current.coset_gb():
            changing.append(k)
            current = span(E, [_ordered_to_vec(d, E.ring, E.n) for d in basis])
    assert used == len(draws) and C == current
    return used, changing, meets


@pytest.mark.parametrize("p", [32003, 7])
def test_core_meets_only_on_draws_that_change_it(p, monkeypatch):
    # on m^2 plus R(-2), a draw U leaves the intersection C as it is exactly
    # when C <= U + N, N the relations.  Every draw has one free position
    # and the colon (x, y), so the loop keeps C as the GF(p) rows of its
    # draws, tests each draw by a rank, and takes no meet; it makes the 7
    # draws of a loop that meets on every draw: 4 that change C, then 3
    # stable ones.  On (xy,xz,yz) plus itself every draw leaves two free
    # positions, so the loop meets: the first draw meets E itself, so C
    # becomes U + N and U stands for it with no meet, and each later draw
    # that changes C takes one meet, a stable draw none
    R2 = PolyRing(p, ("x", "y"))
    x, y = R2.gens()
    E = direct_sum(module_from_ideal(Ideal(R2, [x**2, x * y, y**2])), free_module(R2, 1), twist=2)
    assert _record_core(E, 5, monkeypatch) == (7, [1, 2, 3, 4], [])
    R3 = PolyRing(p, ("x", "y", "z"))
    x, y, z = R3.gens()
    I = module_from_ideal(Ideal(R3, [x * y, x * z, y * z]))
    used, changing, meets = _record_core(direct_sum(I, I), 2, monkeypatch)
    assert used == 10 and changing[0] == 1 and meets == changing[1:] == [2, 3, 4, 5, 6, 7]


def test_core_prints_the_same_generators_for_every_seed(E_msq):
    # the intersection is a reduced basis, so seeds that reach the same core
    # print the same generators, not those of their own random reductions
    gens = [core_monte_carlo(E_msq, samples=8, rng=s)[0].reduced_gens() for s in (42, 7, 3)]
    assert gens[0] == gens[1] == gens[2]


def test_reduction_number_edge_ideal_cross_route(edge, E_edge):
    # the graded Nakayama route against the ideal-power oracle: for proper
    # minimal reductions J of the edge ideal, J*I = I^2 with J != I, so r = 1
    for seed in (1, 2, 3):
        U = random_reduction(E_edge, rng=seed)
        assert reduction_number(U, E_edge) == 1
        J = image_ideal(U, edge)
        assert J * edge == edge * edge
        assert J != edge


def test_rees_independent_of_inverting_element(E_msq, msq):
    # saturate at a different nonzero element of Fitt_e(E): same Rees ideal
    from modcore.groebner import saturate
    from modcore.modalg import fitting_ideal

    other = None
    for g in fitting_ideal(E_msq, rank(E_msq)).gens:
        if g != first_nonzero_maximal_minor(E_msq):
            other = g
            break
    assert other is not None
    S = sym_ideal(E_msq)
    assert saturate(S, map_poly(other, S.ring)) == rees_ideal(E_msq)


def test_ideal_product_keeps_each_distinct_product_once(minors43, E_minors43):
    # J^3 for a minimal reduction J of the boundary cubics: 27 products of
    # the three generators, 10 of them distinct
    J = image_ideal(random_reduction(E_minors43, rng=5), minors43)
    products = [f * g * h for f in J.gens for g in J.gens for h in J.gens]
    first_seen = []
    for f in products:
        if f not in first_seen:
            first_seen.append(f)
    cube = J * J * J
    assert list(cube.gens) == first_seen
    assert len(cube.gens) == 10
    assert cube.groebner_basis() == Ideal(J.ring, products).groebner_basis()


@pytest.mark.parametrize("seed", [3, 17, 29])
def test_polini_ulrich_core_msq(R2, msq, E_msq, seed):
    # core(I) = J^(r+1) : I^r (Polini-Ulrich, Math. Ann. 331) with r = 1:
    # (J^2 : m^2) = m^3, the core that the msq_core golden pins
    U = random_reduction(E_msq, rng=seed)
    assert reduction_number(U, E_msq) == 1
    J = image_ideal(U, msq)
    assert quotient_ideal(J * J, msq) == Ideal(R2, list(R2.gens())) * msq


def test_polini_ulrich_core_boundary_cubics(R3, minors43, E_minors43):
    # r = 2: (J^3 : I^2) = (x, y, z) * I, the boundary_cubics core
    U = random_reduction(E_minors43, rng=5)
    assert reduction_number(U, E_minors43) == 2
    J = image_ideal(U, minors43)
    assert quotient_ideal(J * J * J, minors43 * minors43) == Ideal(R3, list(R3.gens())) * minors43


def test_big_colon_is_one_kernel_call(R3, minors43, E_minors43, monkeypatch):
    # (J^3 : I^2) on the boundary cubics takes two Buchberger calls, the
    # basis of J^3 and one colon over block copies of it, and 343 normal
    # forms; a colon per generator of I^2 and their intersections took 19
    # calls and 2024 normal forms
    J = image_ideal(random_reduction(E_minors43, rng=5), minors43)
    counts = {"buchberger": 0, "nf_dict": 0}
    for name in counts:
        kernel = getattr(groebner, name)

        def counting(*args, kernel=kernel, name=name, **kwargs):
            counts[name] += 1
            return kernel(*args, **kwargs)

        monkeypatch.setattr(groebner, name, counting)
    quotient_ideal(J * J * J, minors43 * minors43)
    assert counts["buchberger"] == 2
    assert counts["nf_dict"] <= 400


def _gb_is_reduction(E, U):
    """Reference fiber criterion: a Groebner basis of Fib + L in all of k[T],
    L the linear forms with the constant parts of U's generators."""
    fib = fiber_ideal(E)
    units = [g.lm() for g in fib.ring.gens()]
    images = [fib.ring.from_dict({u: f.constant_coeff() for u, f in zip(units, v) if f}) for v in U.gens]
    return krull_dimension(fib + Ideal(fib.ring, images)) <= 0


def _fiber_draws(E, rng, count):
    """`count` submodules of E: fewer than ell vectors, ell vectors with
    coefficients in {0, 1, -1} (often dependent), mu vectors, a repeated
    vector, a zero vector, and entries with non-constant terms."""
    ring = E.ring
    p = ring.char
    ell = analytic_spread(E)
    x = ring.gens()[0]

    def vec(coeffs=None):
        return tuple(ring.const(rng.choice(coeffs) if coeffs else rng.randrange(p)) for _ in range(E.n))

    for k in range(count):
        kind = k % 6
        if kind == 0:
            gens = [vec() for _ in range(rng.randrange(ell))]
        elif kind == 1:
            gens = [vec((0, 1, p - 1)) for _ in range(ell)]
        elif kind == 2:
            gens = [vec() for _ in range(mu(E))]
        elif kind == 3:
            gens = [vec() for _ in range(max(ell - 1, 1))]
            gens.append(rng.choice(gens))
        elif kind == 4:
            gens = [vec() for _ in range(ell - 1)] + [(ring.zero(),) * E.n]
        else:
            gens = [tuple(f + x * ring.const(rng.randrange(p)) for f in vec((0, 1, 2))) for _ in range(ell)]
        yield span(E, gens)


@pytest.mark.parametrize("name", ["E_msq", "E_msq_plus", "E_edge", "E_tri", "E_H", "E_minors43"])
def test_linear_fiber_test_matches_groebner_route(name, request):
    # row reduction plus a basis in the free variables only gives the verdict
    # of a basis of Fib + L in all of k[T], on every draw
    E = request.getfixturevalue(name)
    verdicts = []
    for U in _fiber_draws(E, random.Random(f"fiber:{name}"), 216):
        verdicts.append(is_reduction(U, E))
        assert verdicts[-1] == _gb_is_reduction(E, U), U.gens
    assert True in verdicts and False in verdicts


def _t_degree(g, nx):
    """T-degree of the leading monomial of g in R[T], R on nx variables."""
    return sum(g.lm()[nx:])


def _rank_reduction_number(E, U, max_degree=DEFAULT_T_CAP):
    """Reference reduction number by dense rank tests over GF(p): U * E^r =
    E^(r+1) iff the scalar parts of the Rees relations of T-degree r + 1 and
    of U * T^beta, |beta| = r, span all T-monomials of degree r + 1 (graded
    Nakayama).  The next piece must then be covered too."""
    p = E.ring.char
    nx = E.ring.nvars
    lams = [[f.constant_coeff() if f else 0 for f in v] for v in U.gens]
    nT = E.n

    def piece_is_covered(r):
        basis = {m: i for i, m in enumerate(_t_monomials(E, r + 1))}
        cols = []
        for g in rees_ideal(E).groebner_basis():
            if any(g.lm()[:nx]):
                continue  # positive x-degree: no scalar part
            t = _t_degree(g, nx)
            if t > r + 1:
                continue
            tonly = {m[nx:]: c for m, c in g.terms}
            for beta in _monomials_of_degree(nT, r + 1 - t):
                col = [0] * len(basis)
                for tm, c in tonly.items():
                    col[basis[tuple(a + b for a, b in zip(tm, beta))]] = c
                cols.append(col)
        for lam in lams:
            for beta in _monomials_of_degree(nT, r):
                col = [0] * len(basis)
                for i, c in enumerate(lam):
                    if c:
                        shifted = list(beta)
                        shifted[i] += 1
                        col[basis[tuple(shifted)]] = (col[basis[tuple(shifted)]] + c) % p
                cols.append(col)
        return row_rank(cols, p) == len(basis)

    for r in range(max_degree + 1):
        if piece_is_covered(r):
            assert piece_is_covered(r + 1)
            return r
    return None


@pytest.mark.parametrize("name", ["E_msq", "E_msq_plus", "E_edge", "E_tri", "E_H", "E_minors43", "E_coker53"])
def test_reduction_number_matches_rank_route(name, request):
    # the Hilbert function of F(E)/U*F(E) against dense rank tests of each
    # graded piece, on 30 draws per module: every kind of `_fiber_draws` but
    # the one with non-constant entries.  No reduction here has r > 2, and
    # the dense pieces of T-degree 5 to 7 would take a minute on the cokernel.
    E = request.getfixturevalue(name)
    values = set()
    for k, U in enumerate(_fiber_draws(E, random.Random(f"rank:{name}"), 36)):
        if k % 6 == 5:
            continue
        r = reduction_number(U, E, max_degree=3)
        assert r == _rank_reduction_number(E, U, max_degree=3), U.gens
        values.add(r)
    assert None in values and len(values) > 1


@pytest.mark.parametrize("nvars,n,r", [(3, 5, 2), (4, 6, 3)])
def test_reduction_number_is_ell_minus_e_on_generic_cokernels(nvars, n, r):
    # the pd-1 core formula needs r(E) <= ell - e; on generic linear
    # n x (n - 2) cokernels it holds with equality, for every minimal reduction
    E = generic_cokernel(nvars, n, n - 2)
    assert analytic_spread(E) - rank(E) == r
    for seed in range(3):
        U = random_reduction(E, rng=seed)
        assert reduction_number(U, E) == r


def _at(f, point, p):
    """f at `point` over GF(p)."""
    return sum(c * prod(pow(a, e, p) for a, e in zip(point, m)) for m, c in f.terms) % p


def _fiber_point_spans(I, free_rank, rng, count):
    """Spans of E = I + R(-D)^free_rank that leave only the last position
    free and write e_i as c_i*e_last, for points c on the fiber variety:
    F(E) = k[I_D][T'] for I generated in degree D, so c = (g(a), b) for the
    generators g of I, a point a of the base and any b; c_last = 1."""
    E = module_from_ideal(I)
    if free_rank:
        E = direct_sum(E, free_module(I.ring, free_rank), twist=E.common_degree())
    ring = I.ring
    p = ring.char
    spans = []
    while len(spans) < count:
        a = [rng.randrange(p) for _ in range(ring.nvars)]
        c = [_at(g, a, p) for g in I.gens] + [rng.randrange(p) for _ in range(free_rank)]
        if free_rank:
            c[-1] = 1
        if not c[-1]:
            continue
        inv = pow(c[-1], -1, p)
        vecs = [tuple(ring.const(int(j == i) - (c[i] * inv if j == E.n - 1 else 0)) for j in range(E.n))
                for i in range(E.n - 1)]
        spans.append(span(E, vecs))
    return E, spans


@pytest.mark.parametrize("p", [32003, 7])
def test_closed_form_one_variable_fiber_test_matches_dimension(p, monkeypatch):
    # with one free position each e_i is c_i*e_free modulo U, and
    # is_reduction asks whether some element of the fiber basis is nonzero
    # at the point c: the verdict against krull_dimension(fiber_quotient(U,
    # E)) <= 0 and the basis of Fib + L, on random spans of mu - 1 scalar
    # vectors, on spans of all basis vectors but one, which m^2 (x^2, xy)
    # and every module with ell = mu reject, and on spans at points of the
    # fiber variety, which every module rejects; no dimension is taken and
    # no fiber quotient is built
    x, y = PolyRing(p, ("x", "y")).gens()
    a, b, c = PolyRing(p, ("x", "y", "z")).gens()
    x0, x1, x2, x3 = PolyRing(p, ("x0", "x1", "x2", "x3")).gens()
    msq = Ideal(x.ring, [x**2, x * y, y**2])
    ideals = [
        msq,
        Ideal(a.ring, [a * b, a * c, b * c]),
        Ideal(a.ring, [a**3, a**2 * b, a * b**2 - a**2 * c, b**3 - 2 * a * b * c]),
        Ideal(x0.ring, [x1 * x3 - x2**2, x0 * x3 - x1 * x2, x0 * x2 - x1**2]),
    ]
    rng = random.Random(f"one free:{p}")
    families = [_fiber_point_spans(I, 0, rng, 3) for I in ideals] + [_fiber_point_spans(msq, 1, rng, 3)]
    cases = []
    for E, on_variety in families:
        ring = E.ring
        spans = [span(E, [E.basis_vector(i) for i in range(E.n) if i != j]) for j in range(E.n)]
        spans += [span(E, [tuple(ring.const(rng.randrange(p)) for _ in range(E.n)) for _ in range(E.n - 1)])
                  for _ in range(6)]
        for U in spans + on_variety:
            quotient = fiber_quotient(U, E)
            if quotient is not None and quotient.ring.nvars == 1:
                expected = krull_dimension(quotient) <= 0
                assert expected == _gb_is_reduction(E, U), U.gens
                cases.append((E, U, expected))
        assert [case[2] for case in cases[-len(on_variety):]] == [False] * len(on_variety)

    def refuse(*args):
        raise AssertionError("a dimension or a fiber quotient was taken in one variable")

    monkeypatch.setattr(rees, "krull_dimension", refuse)
    monkeypatch.setattr(rees, "fiber_quotient", refuse)
    verdicts = set()
    for E, U, expected in cases:
        assert is_reduction(U, E) == expected, U.gens
        verdicts.add(expected)
    assert verdicts == {False, True} and len(cases) >= 55


def _fiber_oracle_modules(p):
    """Over GF(p): the corpus ideals as modules, each I + R(-D) and I + I,
    D the degree of I's generators, and the generic 5 x 3 cokernel."""
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
        modules += [E, direct_sum(E, free_module(I.ring, 1), twist=E.common_degree()), direct_sum(E, E)]
    return modules + [generic_cokernel(3, 5, 3, p)]


@pytest.mark.parametrize("p", [32003, 7])
def test_closed_form_fiber_from_generators_matches_the_rees_basis(p):
    # x -> 0 maps R[T] onto k[T], so the images of the Rees ideal's
    # generators generate the fiber ideal: against the images of the Rees
    # basis, on fresh modules
    for E in _fiber_oracle_modules(p):
        F = fiber_ideal(E)
        big, fiber = rees._rees_rings(E)
        nx = E.ring.nvars
        images = [map_poly(big.from_dict({m: c for m, c in g.terms if not any(m[:nx])}), fiber)
                  for g in rees_ideal(E).groebner_basis()]
        expected = Ideal(fiber, images)
        assert F == expected and F.groebner_basis() == expected.groebner_basis(), E


@pytest.mark.parametrize("p", [32003, 7])
def test_closed_form_first_core_draw_matches_the_meet(p, monkeypatch):
    # while C is all of E, E cap (U + N) is U + N, N the relations, so the
    # core's first draw U stands for the first approximant with no meet:
    # U + N against submodule_intersect(whole_module(E), U) and the
    # two-block meet, and the core against a replay that meets on every
    # draw.  A core that stops at its first draw, here one that draws the
    # same U every time, returns U + N by its reduced basis, the generators
    # of that meet
    R2 = PolyRing(p, ("x", "y"))
    x, y = R2.gens()
    msq = module_from_ideal(Ideal(R2, [x**2, x * y, y**2]))
    for E in (msq, direct_sum(msq, free_module(R2, 1), twist=2), generic_cokernel(3, 5, 3, p)):
        whole = whole_module(E)
        for seed in range(3):
            draws, meets = [], []
            draw, meet = rees.random_reduction, modalg._meet

            def recording_draw(*args, **kwargs):
                draws.append(draw(*args, **kwargs))
                return draws[-1]

            def recording_meet(*args, **kwargs):
                meets.append(len(draws))
                return meet(*args, **kwargs)

            monkeypatch.setattr(rees, "random_reduction", recording_draw)
            monkeypatch.setattr(modalg, "_meet", recording_meet)
            C, used = core_monte_carlo(E, samples=12, rng=seed)
            monkeypatch.undo()
            assert used == len(draws) and 1 not in meets
            U = draws[0]
            met = submodule_intersect(whole, U)
            assert U == met and U.coset_gb() == met.coset_gb() == two_block_intersect(whole, U)
            current = whole
            for V in draws:
                current = submodule_intersect(current, V)
            assert C.gens == current.gens
            monkeypatch.setattr(rees, "random_reduction", lambda *args, **kwargs: U)
            C, used = core_monte_carlo(E, samples=12, rng=seed)
            monkeypatch.undo()
            assert used == 4 and C.gens == met.gens and C.coset_gb() == met.coset_gb()


def _core_route_modules(p):
    """Over GF(p): m^2, (xy,xz,yz), (x^2,y^2,z^2), the square edge ideal and
    H, each as I, I + R(-2) and I + I, and the generic 5 x 3 and 6 x 4
    cokernels."""
    x, y = PolyRing(p, ("x", "y")).gens()
    a, b, c = PolyRing(p, ("x", "y", "z")).gens()
    x0, x1, x2, x3 = PolyRing(p, ("x0", "x1", "x2", "x3")).gens()
    ideals = {
        "m^2": Ideal(x.ring, [x**2, x * y, y**2]),
        "(xy,xz,yz)": Ideal(a.ring, [a * b, a * c, b * c]),
        "(x^2,y^2,z^2)": Ideal(a.ring, [a**2, b**2, c**2]),
        "square edge": Ideal(x0.ring, [x0 * x1, x1 * x2, x2 * x3, x0 * x3]),
        "H": Ideal(x0.ring, [x1 * x3 - x2**2, x0 * x3 - x1 * x2, x0 * x2 - x1**2]),
    }
    modules = {}
    for name, I in ideals.items():
        E = module_from_ideal(I)
        modules[name] = E
        modules[name + " + R(-2)"] = direct_sum(E, free_module(I.ring, 1), twist=2)
        modules[name + " + itself"] = direct_sum(E, E)
    modules["coker 5x3"] = generic_cokernel(3, 5, 3, p)
    modules["coker 6x4"] = generic_cokernel(4, 6, 4, p)
    return modules


def _meet_loop_core(E, draw, samples=12):
    """Oracle: (reduced basis, samples_used) of a core loop on the draws
    `draw()` that meets every draw by the two-block meet and tests stability
    by comparing bases; None when it does not stabilize."""
    current, stable = whole_module(E), 0
    for k in range(1, samples + 1):
        basis = two_block_intersect(current, draw())
        if basis == current.coset_gb():
            stable += 1
        else:
            stable, current = 0, span(E, [_ordered_to_vec(d, E.ring, E.n) for d in basis])
        if stable >= 3:
            return basis, k
    return None


@pytest.mark.parametrize("p", [32003, 7, 3])
def test_closed_form_core_rows_match_the_meet_loop(p, monkeypatch):
    # oracle: while every draw has one free position and one colon J, the
    # core loop keeps the intersection C as GF(p) rows, tests a draw by a
    # rank and returns C + N = {v : A.v in J^r} by its closed-form reduced
    # basis.  Against a loop that meets every draw: the same samples_used,
    # the same reduced basis term for term, or the same failure to
    # stabilize.  Seeded draws stop with A of full rank, where the basis is
    # J*e_q for every q; draws that alternate between the first two stop
    # with A of rank 2, where the vectors k_f = e_f - sum A_qf*e_q join it.
    # Draws that alternate between the first and span(e_1, ..., e_(n-1))
    # change the colon on m^2 plus R(-2), whose last row is 0: there the
    # second draw turns the rows into C and meets.  m^2 plus R(-2) takes
    # no meet on its own draws; I + I leaves two or more free positions and
    # meets wherever it draws
    meets, rows = [], []
    meet, row_basis, draw = modalg._meet, rees._row_basis, rees.random_reduction
    monkeypatch.setattr(modalg, "_meet", lambda *args: meets.append(1) or meet(*args))
    monkeypatch.setattr(rees, "_row_basis", lambda *args: rows.append(1) or row_basis(*args))
    routes = {}
    for name, E in _core_route_modules(p).items():
        if analytic_spread(E) == mu(E):
            assert core_monte_carlo(E, rng=1) == (whole_module(E), 0)
            continue
        rng = random.Random(1)
        first = [draw(E, rng=rng) for _ in range(2)]
        alternations = {"first two": first,
                        "unit span": [first[0], span(E, [E.basis_vector(i) for i in range(E.n - 1)])]}

        def draws(kind):
            """A fresh run of the draws: seeded, or alternating over two."""
            if kind == "seeded":
                rng = random.Random(1)
                return lambda: draw(E, rng=rng)
            return cycle(alternations[kind]).__next__

        for kind in ("seeded", *alternations):
            meets.clear()
            rows.clear()
            with monkeypatch.context() as m:
                fresh = draws(kind)
                m.setattr(rees, "random_reduction", lambda *args, **kwargs: fresh())
                try:
                    C, used = core_monte_carlo(E, samples=12, rng=1)
                    got = [list(d.items()) for d in C.coset_gb()], used
                except RetryExhaustedError:
                    got = None
            routes[name, kind] = (bool(meets), bool(rows))
            expected = _meet_loop_core(E, draws(kind))
            if expected is not None:
                expected = [list(d.items()) for d in expected[0]], expected[1]
            assert got == expected, (name, p, kind)
    assert routes["m^2 + R(-2)", "seeded"] == routes["m^2 + R(-2)", "first two"] == (False, True)
    assert routes["m^2 + R(-2)", "unit span"] == (True, True)
    assert all(routes[key][0] for key in routes if key[0].endswith("itself"))



# -- the Jacobian-dual route to the Rees ideal ----------------------------------------


CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def _saturated(E):
    """The Rees ideal by its definition: Sym(E) saturated at the fixed minor."""
    sym = sym_ideal(E)
    return groebner.saturate(sym, map_poly(first_nonzero_maximal_minor(E), sym.ring))


_IDEALS = {
    "H": (("x0", "x1", "x2", "x3"), lambda x0, x1, x2, x3: [x1 * x3 - x2**2, x0 * x3 - x1 * x2, x0 * x2 - x1**2]),
    "(xy,xz,yz)": (("x", "y", "z"), lambda x, y, z: [x * y, x * z, y * z]),
    "boundary cubics": (("x", "y", "z"), lambda x, y, z: [x**3, x**2 * y, x * y**2 - x**2 * z, y**3 - 2 * x * y * z]),
    "square edge": (("x1", "x2", "x3", "x4"), lambda x1, x2, x3, x4: [x1 * x2, x2 * x3, x3 * x4, x1 * x4]),
}


def _ideal_module(name, p):
    names, gens = _IDEALS[name]
    R = PolyRing(p, names)
    return module_from_ideal(Ideal(R, gens(*R.gens())))


def _plus_free(name, k, p):
    EI = _ideal_module(name, p)
    return direct_sum(EI, free_module(EI.ring, k), twist=2)


# fresh modules (no memo yet) over GF(p): the 5x3 and 6x4 rungs, H,
# H + R(-2)^k, the module of corpus/generic_pd1.mc, and the modules whose
# Jacobian dual the certificate must refuse
_MODULES = {
    "5x3": lambda p: generic_cokernel(3, 5, 3, p),
    "6x4": lambda p: generic_cokernel(4, 6, 4, p),
    "H": lambda p: _ideal_module("H", p),
    "H + R(-2)": lambda p: _plus_free("H", 1, p),
    "H + R(-2)^2": lambda p: _plus_free("H", 2, p),
    "generic_pd1": lambda p: parse_session((CORPUS / "generic_pd1.mc").read_text(), char_override=p).modules["E"],
    "square edge": lambda p: _ideal_module("square edge", p),
    "H + itself": lambda p: direct_sum(*[_ideal_module("H", p)] * 2),
    "(xy,xz,yz) + itself": lambda p: direct_sum(*[_ideal_module("(xy,xz,yz)", p)] * 2),
    "boundary cubics + itself": lambda p: direct_sum(*[_ideal_module("boundary cubics", p)] * 2),
}


_CERTIFIED = ["5x3", "6x4", "H", "H + R(-2)", "H + R(-2)^2", "generic_pd1"]


@pytest.mark.parametrize("p", [P, 7])
@pytest.mark.parametrize("name", _CERTIFIED)
def test_jacobian_dual_certificate_matches_the_saturation(name, p):
    # oracle: on every certified module J = L + I_d(B) has the reduced basis
    # of Sym(E) saturated at the fixed minor.  rees_ideal takes J, and with
    # it the fiber ideal and its dimension, ell, are known: the
    # certificate's (c) computed them.  ell agrees with the saturation's
    # fiber, and the route is the only one taken
    E = _MODULES[name](p)
    J = rees._jacobian_dual_ideal(E)
    assert rees._certifies_rees_ideal(E, J), (name, p)
    oracle = _saturated(E)
    assert J.groebner_basis() == oracle.groebner_basis(), (name, p)
    E = _MODULES[name](p)
    K = rees_ideal(E)
    assert K.gens == J.gens, (name, p)
    assert ("krull_dimension", ()) in fiber_ideal(E)._cache, (name, p)
    assert analytic_spread(E) == krull_dimension(rees._fiber_image(oracle, fiber_ideal(E).ring)), (name, p)


@pytest.mark.parametrize("p", [P, 7])
def test_jacobian_dual_certificate_refuses_where_it_must(p):
    # the square edge ideal fails (a): its J = L + I_4(B) is not CM of
    # dimension d + e.  H + H, (xy,xz,yz) + itself and the boundary cubics +
    # themselves fail (b), G_d.  On each of them J is not the Rees ideal,
    # so the certificate is what keeps the saturation
    for name, fails in (("square edge", "a"), ("H + itself", "b"), ("(xy,xz,yz) + itself", "b"),
                        ("boundary cubics + itself", "b")):
        E = _MODULES[name](p)
        J = rees._jacobian_dual_ideal(E)
        top = E.ring.nvars + rank(E)
        assert rees._certifies_rees_ideal(E, J) is False, (name, p)
        if fails == "a":
            assert not (krull_dimension(J) == top and groebner._certified_cm(J, top)), (name, p)
        else:
            assert modalg._gs_heights(E, E.ring.nvars)[0] is not None, (name, p)
        assert J.groebner_basis() != _saturated(E).groebner_basis(), (name, p)
        assert rees_ideal(E).groebner_basis() == _saturated(E).groebner_basis(), (name, p)


def test_jacobian_dual_certificate_refuses_a_mutant():
    # mutation: J on the 5x3 rung without its I_d(B) generators is L itself,
    # which is not the Rees ideal; the certificate must refuse it
    E = generic_cokernel(3, 5, 3)
    J = rees._jacobian_dual_ideal(E)
    mutant = Ideal(J.ring, [g for g in J.gens if g in sym_ideal(E).gens])
    assert len(mutant.gens) < len(J.gens)
    assert mutant.groebner_basis() != _saturated(E).groebner_basis()
    assert rees._certifies_rees_ideal(E, mutant) is False


def test_certificate_corpus_sessions_take_no_rabinowitsch_saturation(monkeypatch):
    # count pin: no corpus session saturates with Rabinowitsch's extra
    # variable; every Rees ideal that would need one is certified
    calls = []
    rabinowitsch = groebner._saturate_rabinowitsch
    monkeypatch.setattr(groebner, "_saturate_rabinowitsch", lambda *a: calls.append(a) or rabinowitsch(*a))
    for path in sorted(CORPUS.glob("*.mc")):
        run_session(parse_session(path.read_text()))
        assert calls == [], path.name


@pytest.mark.parametrize("name", ["5x3", "generic_pd1"])
def test_certificate_cm_verdict_is_drawn_once(name, monkeypatch):
    # count pin: check_cm_rees reads the CM verdict that the certificate
    # drew on the Rees ideal, with no draw of its own
    calls = []
    regular_forms = groebner._regular_forms
    monkeypatch.setattr(groebner, "_regular_forms", lambda *a, **k: calls.append(a) or regular_forms(*a, **k))
    E = _MODULES[name](P)
    rees_ideal(E)
    route = len(calls)
    assert route >= 1, name
    assert checks.check_cm_rees(E).cm
    assert len(calls) == route, name
