"""Kernel property suites: >= 200 seeded randomized cases per property,
exact assertions only.  These are the acceptance criterion 9 suites; the
acceptance module re-runs them by calling the suite functions directly."""

import math

from modcore.groebner import (
    Ideal,
    ideal_membership,
    intersect,
    normal_form,
    quotient_ideal,
    saturate,
)
from modcore.modalg import (
    PresentedModule,
    cyclic_module,
    depth,
    direct_sum,
    fitting_ideal,
    free_module,
    free_resolution,
    module_from_ideal,
    projective_dimension,
    vector_degree,
)
from modcore.poly import PolyRing, mono_div

from conftest import P, random_homogeneous_poly, random_poly, seeded

N_CASES = 220  # margin over the required 200 for the rare degenerate skip

R2 = PolyRing(P, ("x", "y"))
R3 = PolyRing(P, ("x", "y", "z"))


def _random_ideal(ring, rng, k=2, maxdeg=2):
    gens = [random_poly(ring, rng, maxdeg=maxdeg, nterms=3) for _ in range(k)]
    return Ideal(ring, gens)


def _random_graded_module(rng):
    """Small graded module: an equigenerated ideal module, a cyclic quotient,
    or a direct sum with a free summand."""
    ring = R2 if rng.random() < 0.6 else R3
    deg = rng.randrange(1, 3)
    kind = rng.randrange(3)
    gens = [random_homogeneous_poly(ring, rng, deg, nterms=2) for _ in range(rng.randrange(2, 4))]
    I = Ideal(ring, gens)
    if I.is_zero():
        return free_module(ring, 1)
    if kind == 0:
        return module_from_ideal(I)
    if kind == 1:
        return cyclic_module(ring, I)
    return direct_sum(module_from_ideal(I), free_module(ring, 1), twist=deg)


def _spoly(f, g):
    ring = f.ring
    L = tuple(map(max, f.lm(), g.lm()))
    mf = ring.from_dict({mono_div(L, f.lm()): pow(f.lc(), -1, ring.char)})
    mg = ring.from_dict({mono_div(L, g.lm()): pow(g.lc(), -1, ring.char)})
    return mf * f - mg * g


def suite_gb_spolys(n_cases=N_CASES):
    rng = seeded(101)
    for _ in range(n_cases):
        ring = R2 if rng.random() < 0.7 else R3
        I = _random_ideal(ring, rng, k=rng.randrange(2, 4))
        gb = I.groebner_basis()
        for i in range(len(gb)):
            for j in range(i + 1, len(gb)):
                assert not normal_form(_spoly(gb[i], gb[j]), gb)
        for g in I.gens:
            assert not normal_form(g, gb)


def suite_nf_idempotent(n_cases=N_CASES):
    rng = seeded(102)
    for _ in range(n_cases):
        ring = R2
        I = _random_ideal(ring, rng)
        gb = I.groebner_basis()
        f = random_poly(ring, rng, maxdeg=3, nterms=4)
        r = normal_form(f, gb)
        assert normal_form(r, gb) == r
        assert ideal_membership(f - r, I)


def suite_quotient_containment(n_cases=N_CASES):
    rng = seeded(103)
    for _ in range(n_cases):
        ring = R2
        J = _random_ideal(ring, rng)
        I = _random_ideal(ring, rng, k=1)
        if I.is_zero():
            continue
        Q = quotient_ideal(J, I)
        for q in Q.gens:
            for g in I.gens:
                assert ideal_membership(q * g, J)


def suite_intersect_sandwich(n_cases=N_CASES):
    rng = seeded(104)
    for _ in range(n_cases):
        ring = R2
        I = _random_ideal(ring, rng)
        J = _random_ideal(ring, rng, k=1)
        C = intersect(I, J)
        for g in C.gens:
            assert ideal_membership(g, I) and ideal_membership(g, J)
        for f in I.gens:
            for g in J.gens:
                assert ideal_membership(f * g, C)


def suite_saturation_stability(n_cases=N_CASES):
    rng = seeded(105)
    for _ in range(n_cases):
        ring = R2
        J = _random_ideal(ring, rng)
        f = random_homogeneous_poly(ring, rng, 1, nterms=rng.randrange(1, 3))
        S = saturate(J, f)
        # closed under one more quotient: the chain has stabilized
        assert quotient_ideal(S, Ideal(ring, [f])) == S
        # and the iterated-quotient oracle reaches the same ideal at its fixed point
        chain, step = J, quotient_ideal(J, Ideal(ring, [f]))
        while step != chain:
            chain, step = step, quotient_ideal(step, Ideal(ring, [f]))
        assert chain == S


def _dim_graded_piece(ring, d):
    n = ring.nvars
    return math.comb(d + n - 1, n - 1) if d >= 0 else 0


def suite_resolution_identities(n_cases=N_CASES):
    rng = seeded(106)
    for _ in range(n_cases):
        E = _random_graded_module(rng)
        res = free_resolution(E)
        ring = E.ring
        for k, cols in enumerate(res.maps):
            assert len(cols) == len(res.degrees[k + 1])
            for col, deg in zip(cols, res.degrees[k + 1]):
                # minimal: no entry is a nonzero constant
                assert not any(f and f.is_constant() for f in col)
                # homogeneous of its recorded degree
                assert vector_degree(col, res.degrees[k]) == deg
        # consecutive composites vanish
        for k in range(len(res.maps) - 1):
            for col in res.maps[k + 1]:
                acc = [ring.zero()] * len(res.degrees[k])
                for c, prev_col in zip(col, res.maps[k]):
                    for i, e in enumerate(prev_col):
                        acc[i] = acc[i] + c * e
                assert not any(acc)
        # Hilbert function equals the alternating Betti sum through degree 8
        for d in range(9):
            expected = sum(
                (-1) ** k * sum(_dim_graded_piece(ring, d - t) for t in res.degrees[k])
                for k in range(len(res.degrees))
            )
            assert E.hilbert_function(d) == expected


def suite_depth_pd(n_cases=N_CASES):
    rng = seeded(107)
    for _ in range(n_cases):
        E = _random_graded_module(rng)
        if E.is_zero_module():
            continue
        assert depth(E) + projective_dimension(E) == E.ring.nvars


def _pad_presentation(E, rng):
    """Same module, one redundant generator: g_new = sum c_i g_i."""
    ring = E.ring
    coeffs = [ring.const(rng.randrange(ring.char)) for _ in range(E.n)]
    deg = E.gen_degrees[0] if E.n else 0
    if any(d != deg for d in E.gen_degrees):
        coeffs = [c if E.gen_degrees[i] == deg else ring.zero() for i, c in enumerate(coeffs)]
    new_col = tuple(coeffs) + (-ring.one(),)
    cols = [tuple(c) + (ring.zero(),) for c in E.relations]
    cols.append(new_col)
    return PresentedModule(ring, E.gen_degrees + (deg,), cols, _validate=False)


def suite_fitting_invariance(n_cases=N_CASES):
    rng = seeded(108)
    for _ in range(n_cases):
        E = _random_graded_module(rng)
        F = _pad_presentation(E, rng)
        for t in range(F.n + 1):
            assert fitting_ideal(E, t) == fitting_ideal(F, t)


def suite_fitting_chain(n_cases=N_CASES):
    rng = seeded(109)
    for _ in range(n_cases):
        E = _random_graded_module(rng)
        prev = fitting_ideal(E, 0)
        for t in range(1, E.n + 1):
            cur = fitting_ideal(E, t)
            for g in prev.gens:
                assert ideal_membership(g, cur)
            prev = cur
        assert fitting_ideal(E, E.n).is_unit()


ALL_SUITES = (
    suite_gb_spolys,
    suite_nf_idempotent,
    suite_quotient_containment,
    suite_intersect_sandwich,
    suite_saturation_stability,
    suite_resolution_identities,
    suite_depth_pd,
    suite_fitting_invariance,
    suite_fitting_chain,
)


def test_suite_gb_spolys():
    suite_gb_spolys()


def test_suite_nf_idempotent():
    suite_nf_idempotent()


def test_suite_quotient_containment():
    suite_quotient_containment()


def test_suite_intersect_sandwich():
    suite_intersect_sandwich()


def test_suite_saturation_stability():
    suite_saturation_stability()


def test_suite_resolution_identities():
    suite_resolution_identities()


def test_suite_depth_pd():
    suite_depth_pd()


def test_suite_fitting_invariance():
    suite_fitting_invariance()


def test_suite_fitting_chain():
    suite_fitting_chain()
