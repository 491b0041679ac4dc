"""Theorem checkers: G_s, residual intersections, AN_s, Ext vanishing,
CM Rees rings, free quotients, balanced equivalences, ideal modules."""

from itertools import combinations
from math import comb

import pytest

from modcore import checks, groebner, modalg, rees
from modcore.errors import ModcoreError, RetryExhaustedError
from modcore.groebner import (
    Ideal,
    _vec_to_dict,
    height,
    intersect,
    krull_dimension,
    quotient_ideal,
)
from modcore.modalg import (
    colon_into,
    cyclic_module,
    direct_sum,
    fitting_ideal,
    free_module,
    ideal_times_submodule,
    module_from_ideal,
    projective_dimension,
    rank,
    span,
    whole_module,
)
from modcore.poly import Polynomial, PolyRing, substitute
from modcore.rees import analytic_spread, core_monte_carlo, random_reduction, rees_ideal
from modcore.session import _report_value, parse_session, run_session
from modcore.checks import (
    build_ideal_module,
    check_an,
    check_cm_rees,
    check_ext_vanishing,
    check_gs,
    hypothesis_report,
    residual_intersection,
    verify_balanced,
    verify_free_quotient,
    verify_pd1_core,
)

from conftest import (
    P,
    generic_cokernel,
    image_ideal,
    ladder_with_squares,
    random_homogeneous_poly,
    random_presentation,
    resolution_betti,
    row_rank,
    seeded,
)


def test_check_gs_free(R2):
    assert check_gs(free_module(R2, 2), 5).ok


def test_check_gs_msq(E_msq):
    # Fitt_2 = (x, y) has height 2 >= 2
    assert check_gs(E_msq, 2).ok


def test_check_gs_edge(E_edge):
    # oracle (by-hand localization): mu(I_p) <= 2 at all height-<=2 primes
    assert check_gs(E_edge, 3).ok


def test_check_gs_monotone(E_msq, E_edge, E_H_plus):
    for E, smax in ((E_msq, 2), (E_edge, 3), (E_H_plus, 3)):
        if check_gs(E, smax).ok:
            for s in range(1, smax + 1):
                assert check_gs(E, s).ok


def test_residual_intersection_msq(E_msq):
    cert = residual_intersection(E_msq, whole_module(E_msq), 2, rng=11)
    assert cert.proper
    assert cert.height_K >= 2
    assert cert.cm is True
    assert len(cert.prefix_heights) == 3
    for i, h in enumerate(cert.prefix_heights):
        assert h >= i - rank(E_msq) + 1


def test_residual_intersection_explicit_x2_y2(R2, E_msq, msq):
    # explicit draws x^2, y^2: K = ((x^2,y^2) : m^2) = (x, y) of height 2
    from modcore.groebner import quotient_ideal

    x, y = R2.gens()
    K = quotient_ideal(Ideal(R2, [x**2, y**2]), msq)
    assert K == Ideal(R2, [x, y]) and height(K) == 2


def test_residual_intersection_free_trivial_bound(R2):
    F = free_module(R2, 2, twist=1)
    cert = residual_intersection(F, whole_module(F), 2, rng=4)
    # i - e + 1 <= 1 for i <= e: bounds hold trivially; K may be improper
    for i, h in enumerate(cert.prefix_heights):
        assert h >= i - 2 + 1


def test_residual_intersection_free_with_proper_w(R2):
    # W = m*F is a proper equigenerated submodule with ht(W:F) = 2 = e = s
    x, y = R2.gens()
    zero, one = R2.zero(), R2.one()
    F = free_module(R2, 2, twist=1)
    W = span(F, [(x, zero), (y, zero), (zero, x), (zero, y)])
    assert colon_into(W, F) == Ideal(R2, [x, y])
    cert = residual_intersection(F, W, 2, rng=4)
    for i, h in enumerate(cert.prefix_heights):
        assert h >= i - 2 + 1
    assert cert.proper  # two elements of mF never generate F


def test_residual_intersection_twisted_cubic_improper(E_H):
    # mu(H) = s = 3: three general elements generate H, so K = R is improper
    # and is reported, not raised; the sentinel height clears the bound
    cert = residual_intersection(E_H, whole_module(E_H), 3, rng=7)
    assert not cert.proper
    assert cert.height_K >= 3


def test_residual_intersection_needs_s_at_least_the_rank(R2):
    # s < e elements cannot cut a rank-e module to a residual intersection
    F = free_module(R2, 2)
    with pytest.raises(ModcoreError, match=r"s >= rank\(E\) = 2, got s = 1"):
        residual_intersection(F, whole_module(F), 1, rng=1)


def test_residual_intersection_requires_height(E_msq):
    U = span(E_msq, [E_msq.basis_vector(0)])
    with pytest.raises(ModcoreError, match="ht"):
        residual_intersection(E_msq, U, 2, rng=1)


def test_residual_intersection_retries_failed_draws(monkeypatch):
    # over GF(3) two random elements of m^2 are often too special: seed 0
    # fails at the second prefix twice, seed 2 at the first prefix once
    R = PolyRing(3, ("x", "y"))
    x, y = R.gens()
    E = module_from_ideal(Ideal(R, [x**2, x * y, y**2]))
    W = whole_module(E)
    cert = residual_intersection(E, W, 2, rng=0)
    assert cert.retries == 2
    assert cert.failures == [(0, "prefix 2"), (1, "prefix 2")]
    assert residual_intersection(E, W, 2, rng=2).failures == [(0, "prefix 1")]
    # the accepted draw is a verified one: its prefixes meet i - e + 1, and
    # its K is that of a draw accepted at once, (x, y): proper, CM, height 2
    assert all(h >= i - rank(E) + 1 for i, h in enumerate(cert.prefix_heights))
    first = residual_intersection(E, W, 2, rng=1)
    assert first.retries == 0 and not first.failures
    assert cert.K == first.K == Ideal(R, [x, y]) and cert.proper
    assert (cert.cm, cert.height_K) == (first.cm, first.height_K) == (True, 2)
    monkeypatch.setattr(checks, "RETRY_CAP", 2)
    with pytest.raises(RetryExhaustedError, match="failed 2 times"):
        residual_intersection(E, W, 2, rng=0)


@pytest.mark.parametrize(
    "call",
    [
        lambda E: check_an(E, trials=2),
        lambda E: verify_balanced(E, 2),
        verify_pd1_core,
        lambda E: residual_intersection(E, whole_module(E), 2, None),
        random_reduction,
        core_monte_carlo,
    ],
    ids=["check_an", "verify_balanced", "verify_pd1_core", "residual_intersection",
         "random_reduction", "core_monte_carlo"],
)
def test_randomized_entry_points_require_a_seed(E_msq, call):
    with pytest.raises(ModcoreError, match="require a seed"):
        call(E_msq)


def test_check_an_msq(E_msq):
    rows = check_an(E_msq, trials=10, rng=3)
    assert [r.i for r in rows] == [1, 2]
    for r in rows:
        assert r.proper + r.improper == 10
        assert r.cm_passes == r.proper
        assert r.tight_heights == r.proper


def test_check_an_free_vacuous(R2):
    rows = check_an(free_module(R2, 2, twist=1), trials=4, rng=5)
    for r in rows:
        assert r.cm_passes == r.proper  # no proper K arises in the free case


def test_check_an_tri(E_tri):
    rows = check_an(E_tri, trials=10, rng=17)
    for r in rows:
        assert r.cm_passes == r.proper
        assert r.tight_heights == r.proper


def test_check_an_reports_gs_failure_as_note(R3, tri):
    # tri + tri fails G_3 (mu jumps to 4 at the height-2 minimal primes), so
    # the i = 3 row must carry the reason instead of raising
    from modcore.modalg import direct_sum, module_from_ideal

    M = direct_sum(module_from_ideal(tri), module_from_ideal(tri))
    rows = check_an(M, trials=2, rng=5)
    by_i = {r.i: r for r in rows}
    assert by_i[2].note == ""
    assert "G_3" in by_i[3].note


def test_check_an_detects_non_cm_residuals(E_edge_plus):
    # edge + R(-2) has projective dimension 2, outside the CM guarantee for
    # pd-1 modules, and its 3-residual intersections really are non-CM: the
    # checker must report the failures, not rubber-stamp them
    rows = check_an(E_edge_plus, trials=2, rng=5)
    by_i = {r.i: r for r in rows}
    assert by_i[3].proper == 2 and by_i[3].cm_passes == 0
    assert by_i[2].cm_passes == by_i[2].proper  # low codimension still CM


def test_depth_of_rees_powers(E_H_plus, E_minors43):
    # depth(E^j) >= d - j across the hypothesis range, tight on both corpora
    from modcore.modalg import depth as depth_of
    from modcore.rees import graded_component

    for E in (E_H_plus, E_minors43):
        d = E.ring.nvars
        for j in (1, 2):
            Ej = graded_component(E, j)
            assert depth_of(Ej) == d - j


def _depth_and_dim(K):
    # (depth, dim) of R/K: dim when the certificate says CM, else resolved
    d = krull_dimension(K)
    if checks._certified_cm(K, d):
        return d, d
    return modalg.depth(cyclic_module(K.ring, Ideal(K.ring, K.groebner_basis()))), d


def _resolution_depth_and_dim(K):
    ring = K.ring
    return ring.nvars - projective_dimension(cyclic_module(ring, K)), krull_dimension(K)


def _random_homogeneous_ideal(rng, p=P):
    """A proper homogeneous ideal of k[x,y], k[x,y,z] or k[x1..x4] over
    GF(p): random forms (a monomial when nterms is 1), or the intersection of
    two ideals of random linear forms, which is often not Cohen-Macaulay."""
    n = rng.choice((2, 3, 4))
    ring = PolyRing(p, ("x1", "x2", "x3", "x4")[:n])
    if rng.random() < 0.3:
        I, J = (
            Ideal(ring, [random_homogeneous_poly(ring, rng, 1, nterms=rng.randrange(1, 3)) for _ in range(k)])
            for k in (rng.randrange(1, 3), rng.randrange(1, 3))
        )
        return intersect(I, J)
    gens = [
        random_homogeneous_poly(ring, rng, rng.randrange(1, 4), nterms=rng.randrange(1, 4))
        for _ in range(rng.randrange(1, 4))
    ]
    return Ideal(ring, gens)


def test_depth_and_dim_matches_resolution():
    # the Hilbert-numerator certificate against depth from the minimal
    # resolution; both verdicts must occur among the seeded cases
    rng = seeded(211)
    verdicts = {True: 0, False: 0}
    for _ in range(150):
        K = _random_homogeneous_ideal(rng)
        if K.is_zero() or K.is_unit():
            continue
        dep, dim = _resolution_depth_and_dim(K)
        assert _depth_and_dim(K) == (dep, dim)
        verdicts[dep == dim] += 1
    assert verdicts[True] >= 20 and verdicts[False] >= 10


def test_depth_and_dim_non_cm_cases(R2, R4):
    x, y = R2.gens()
    x1, x2, x3, x4 = R4.gens()
    # two planes meeting in a point: dim 2, depth 1
    planes = intersect(Ideal(R4, [x1, x2]), Ideal(R4, [x3, x4]))
    # a line with an embedded point: dim 1, depth 0
    embedded = Ideal(R2, [x**2, x * y])
    for K, expected in ((planes, (1, 2)), (embedded, (0, 1))):
        assert _depth_and_dim(K) == expected == _resolution_depth_and_dim(K)


def _count_draws(monkeypatch):
    """The certificate's substitutions, one per generator per draw."""
    draws = []
    monkeypatch.setattr(groebner, "substitute", lambda *a: draws.append(a) or substitute(*a))
    return draws


def test_certificate_complete_intersection_takes_no_draw(R3, monkeypatch):
    # complete intersections of degrees a, b in k[x,y,z]: two generators,
    # dim 1, so the certificate says CM with no substituted ideal; the
    # resolution agrees
    rng = seeded(212)
    draws = _count_draws(monkeypatch)
    for a, b in ((1, 1), (1, 3), (2, 2), (2, 3), (3, 3)):
        K = Ideal(R3, [random_homogeneous_poly(R3, rng, deg, nterms=6) for deg in (a, b)])
        assert krull_dimension(K) == 1
        assert checks._certified_cm(K, 1) is True
        assert _resolution_depth_and_dim(K) == (1, 1)
    assert draws == []


def _no_resolution(E):
    raise AssertionError("the resolution ran on a Cohen-Macaulay input")


def test_cm_certificate_needs_no_resolution(monkeypatch, H, E_H, E_minors43):
    monkeypatch.setattr(modalg, "projective_dimension", _no_resolution)
    for K in (H, rees_ideal(E_H), rees_ideal(E_minors43)):
        d = krull_dimension(K)
        assert _depth_and_dim(K) == (d, d)


def test_depth_and_dim_falls_back_without_system_of_parameters(monkeypatch):
    # over GF(2) every linear form divides f = xy(x+y), so no draw is a system
    # of parameters of R/K for K = f*(x, y), which is no complete
    # intersection: the certificate is undecided (None, not False) and the
    # depth must come from the resolution; m is associated to R/K, so
    # depth 0 < dim 1.  The complete intersection (f) is CM with no draw
    R = PolyRing(2, ("x", "y"))
    x, y = R.gens()
    f = x * y * (x + y)
    K = Ideal(R, [f * x, f * y])
    draws = _count_draws(monkeypatch)
    assert checks._certified_cm(Ideal(R, [f]), 1) is True and draws == []
    assert checks._certified_cm(K, 1) is None
    calls = []

    def counted(E):
        calls.append(E)
        return projective_dimension(E)

    monkeypatch.setattr(modalg, "projective_dimension", counted)
    assert _depth_and_dim(K) == (0, 1)
    assert len(calls) == 1


@pytest.mark.parametrize("p", [P, 7])
def test_certificate_verdict_matches_the_resolution(p):
    # the three-valued certificate against depth R/K = n - pd from the
    # minimal resolution: True exactly on CM quotients, False exactly on the
    # others, on fixed CM and non-CM ideals and seeded random ones; every
    # case here has a system of parameters, so None never comes up
    R4 = PolyRing(p, ("x1", "x2", "x3", "x4"))
    R3 = PolyRing(p, ("x", "y", "z"))
    x1, x2, x3, x4 = R4.gens()
    x, y, z = R3.gens()
    cases = [
        intersect(Ideal(R4, [x1, x2]), Ideal(R4, [x3, x4])),  # two planes meeting in a point
        intersect(Ideal(R4, [x1, x2]), Ideal(R4, [x1, x3])),  # (x1, x2*x3), a complete intersection
        Ideal(R4, [x2 * x4 - x3**2, x1 * x4 - x2 * x3, x1 * x3 - x2**2]),  # the twisted cubic
        Ideal(R4, [x1 * x2, x2 * x3, x3 * x4, x1 * x4]),  # the square edge ideal
        Ideal(R3, [x**2, x * y]),  # a line with an embedded point
        Ideal(R3, [x * y, x * z, y * z]),
    ]
    rng = seeded(p + 8)
    cases += [_random_homogeneous_ideal(rng, p) for _ in range(60)]
    verdicts = set()
    for K in cases:
        if K.is_zero() or K.is_unit():
            continue
        dep, dim = _resolution_depth_and_dim(K)
        verdict = checks._certified_cm(K, dim)
        assert verdict is (dep == dim), K
        verdicts.add(verdict)
    assert verdicts == {False, True}


def test_certificate_decides_a_residual_intersection_without_resolution(monkeypatch):
    # the square edge ideal (pd 2) with W = m*E and s = 3: K has dim 1 and
    # is not CM.  The certificate finds a system of parameters and says so;
    # only the verdict is reported, so R/K is never resolved.  The oracle:
    # K : m != K puts m among the associated primes of R/K, so
    # depth R/K = 0 < dim R/K = 1
    R = PolyRing(P, ("x1", "x2", "x3", "x4"))
    x1, x2, x3, x4 = R.gens()
    E = module_from_ideal(Ideal(R, [x1 * x2, x2 * x3, x3 * x4, x1 * x4]))
    W = span(E, [tuple(v * f for f in E.basis_vector(j)) for v in R.gens() for j in range(E.n)])

    def refuse(M):
        raise AssertionError("a free resolution ran")

    monkeypatch.setattr(modalg, "free_resolution", refuse)
    cert = residual_intersection(E, W, 3, 1)
    assert (cert.proper, cert.cm, cert.height_K, cert.retries) == (True, False, 3, 0)
    assert krull_dimension(cert.K) == 1
    assert quotient_ideal(cert.K, Ideal(R, R.gens())) != cert.K


def test_ext_vanishing_vacuous(E_msq):
    rep = check_ext_vanishing(E_msq)
    assert rep.vacuous and rep.ok


def test_ext_vanishing_H_plus_free(E_H_plus):
    rep = check_ext_vanishing(E_H_plus)
    assert rep.jrange == [1]
    assert rep.verdicts[1] is True and rep.ok


def test_ext_vanishing_negative_control(E_edge_plus):
    rep = check_ext_vanishing(E_edge_plus)
    assert rep.jrange == [1]
    assert rep.verdicts[1] is False and not rep.ok


def test_ext_vanishing_resolves_only_E(R3, monkeypatch):
    # [R(E)]_1 = E for a torsion-free E, so Ext^2(E^1, R) at j = 1 is read
    # off the resolution that projective_dimension(E) takes: on
    # (xy,xz,yz) + R(-2), with j = 1 alone, the hypothesis report resolves
    # E and nothing else.  A T-degree cap below 1 still leaves j = 1
    # inconclusive
    x, y, z = R3.gens()
    E = direct_sum(module_from_ideal(Ideal(R3, [x * y, x * z, y * z])), free_module(R3, 1), twist=2)
    resolved = []
    resolve = modalg.free_resolution

    def counting(M):
        resolved.append(M)
        return resolve(M)

    monkeypatch.setattr(modalg, "free_resolution", counting)
    hyp = hypothesis_report(E)
    assert hyp.ext_vanishing.jrange == [1] and hyp.ext_vanishing.verdicts[1] is True
    assert hyp.ok
    assert resolved and all(M is E for M in resolved)
    assert check_ext_vanishing(E, t_cap=0).verdicts == {1: "inconclusive"}


@pytest.mark.parametrize("p", [P, 7])
def test_pd_certificate_never_claims_more_than_the_resolution(p):
    # the depth certificate says pd M <= j only where the resolution
    # agrees, for every 1 <= j <= d: on the 5x3 and 6x4 rungs and their
    # squares (pd 1 and 2), and on the square edge ideal, its sums
    # I + R(-2) and I + I, and their squares and cubes, all of pd 2, so
    # that j = 1 must say False.  Over GF(32003) its one draw is regular
    # wherever pd M <= j, so it says True exactly there
    R = PolyRing(p, ("x1", "x2", "x3", "x4"))
    x1, x2, x3, x4 = R.gens()
    EI = module_from_ideal(Ideal(R, [x1 * x2, x2 * x3, x3 * x4, x1 * x4]))
    edges = [EI, direct_sum(EI, free_module(R, 1), twist=2), direct_sum(EI, EI)]
    modules = list(ladder_with_squares(p)) + edges
    modules += [rees.graded_component(E, j) for E in edges for j in (2, 3)]
    verdicts = []
    for M in modules:
        pd = len(resolution_betti(M)) - 1
        for j in range(1, M.ring.nvars + 1):
            verdict = checks._pd_at_most(M, j)
            assert not verdict or pd <= j, (M, j)
            if p == P:
                assert verdict == (pd <= j), (M, j)
            verdicts.append((verdict, pd > j))
    assert (False, True) in verdicts and (True, False) in verdicts


def test_ext_vanishing_certifies_the_square_without_resolving_it(monkeypatch):
    # on the 6x4 rung, Ext^3(E^2, R) = 0 comes from the depth certificate:
    # the only module resolved is E itself, for pd(E) at j = 1
    E = generic_cokernel(4, 6, 4)
    resolved = []
    resolve = modalg.free_resolution
    monkeypatch.setattr(modalg, "free_resolution", lambda M: resolved.append(M) or resolve(M))
    rep = check_ext_vanishing(E)
    assert rep.verdicts == {1: True, 2: True} and rep.ok
    assert resolved and all(M is E for M in resolved)


def test_cm_rees_free(R2):
    v = check_cm_rees(free_module(R2, 2, twist=1))
    assert v.cm  # polynomial ring


def test_cm_rees_msq(E_msq):
    v = check_cm_rees(E_msq)
    assert v.cm and v.depth == 3 and v.dim == 3


def test_cm_rees_twisted_cubic(E_H):
    v = check_cm_rees(E_H)
    assert v.cm and v.dim == 5  # dim R(E) = d + e


def test_verify_free_quotient_msq(R2, E_msq):
    one, zero = R2.one(), R2.zero()
    U = span(E_msq, [(one, zero, zero), (zero, zero, one)])
    v = verify_free_quotient(E_msq, U)
    assert v.ok and v.mu_U == 2
    assert v.K == Ideal(R2, [R2.var(0), R2.var(1)])


def test_verify_free_quotient_no_proper_reduction(E_H):
    v = verify_free_quotient(E_H, whole_module(E_H))
    assert v.ok  # (E:E) = R: vacuous pass over the zero ring


def test_verify_free_quotient_random_H_plus(E_H_plus):
    U = random_reduction(E_H_plus, rng=23)
    assert verify_free_quotient(E_H_plus, U).ok


def test_free_quotient_hilbert_oracle(R2, E_msq):
    # independent check that U/KU really is (R/K)^ell: Hilbert functions
    from modcore.modalg import PresentedModule, cyclic_module, submodule_presentation

    one, zero = R2.one(), R2.zero()
    U = span(E_msq, [(one, zero, zero), (zero, zero, one)])
    K = colon_into(U, E_msq)
    ell = analytic_spread(E_msq)
    P_U = submodule_presentation(U)
    KU_cols = [
        tuple(f if k == i else zero for k in range(P_U.n))
        for f in K.gens
        for i in range(P_U.n)
    ]
    Q = PresentedModule(R2, P_U.gen_degrees, list(P_U.relations) + KU_cols, _validate=False)
    RK = cyclic_module(R2, K)
    D = E_msq.common_degree()
    for d in range(8):
        assert Q.hilbert_function(d) == ell * RK.hilbert_function(d - D)


def test_hypothesis_report_fields(E_H_plus):
    rep = hypothesis_report(E_H_plus)
    assert rep.ok and rep.e == 2 and rep.ell == 4 and rep.d == 4
    assert "finite projective dimension" in rep.orientability
    d = _report_value(rep)
    assert d["gs"]["ok"] and d["cm_rees"]["cm"]


def test_verify_balanced_msq(R2, E_msq):
    rep = verify_balanced(E_msq, reductions=8, rng=42)
    assert rep.status == "ok"
    assert rep.independent and rep.products_equal and rep.equals_core
    x, y = R2.gens()
    assert all(K == Ideal(R2, [x, y]) for K in rep.K_values)


def test_verify_balanced_trivial(E_H_plus):
    rep = verify_balanced(E_H_plus, reductions=6, rng=7)
    assert rep.status == "ok"
    assert rep.independent and rep.products_equal and rep.equals_core


def test_verify_balanced_failed_hypothesis(E_edge_plus):
    rep = verify_balanced(E_edge_plus, reductions=6, rng=9)
    assert rep.status == "failed-hypothesis"
    assert rep.independent is None and rep.equals_core is None


def test_verify_balanced_partial_on_inconclusive(E_msq):
    # an inconclusive sub-computation (here: an Ext verdict lost to a cap)
    # must mark the report partial, not failed-hypothesis
    from modcore.checks import BalancedReport, ExtVanishingReport, hypothesis_report
    import modcore.checks as checks

    hyp = hypothesis_report(E_msq)
    forced = ExtVanishingReport(
        ell=hyp.ext_vanishing.ell, e=hyp.ext_vanishing.e, jrange=[1], verdicts={1: "inconclusive"},
        ok=False, vacuous=False,
    )
    assert forced.inconclusive() and not forced.refuted()
    original = checks.check_ext_vanishing
    checks.check_ext_vanishing = lambda E, t_cap=6: forced
    try:
        rep = verify_balanced(E_msq, reductions=3, rng=1)
    finally:
        checks.check_ext_vanishing = original
    assert rep.status == "partial"
    assert rep.independent is None


def test_build_ideal_module_rejects_mixed_degrees(R2):
    from modcore.errors import DegreeMixError

    x, y = R2.gens()
    with pytest.raises(DegreeMixError):
        build_ideal_module(Ideal(R2, [x, y**2]), 2, "plus_free")


def test_lemma41_consequence_on_sampled_reductions(E_msq, E_msq_plus, E_H_plus):
    # ht(U:E) >= ell - e + 1 for sampled minimal reductions
    for E in (E_msq, E_msq_plus, E_H_plus):
        ell, e = analytic_spread(E), rank(E)
        for seed in (31, 32):
            U = random_reduction(E, rng=seed)
            assert height(colon_into(U, E)) >= ell - e + 1


def test_verify_pd1_core_msq(R2, E_msq):
    v = verify_pd1_core(E_msq, rng=5)
    assert v.status == "ok"
    assert v.r_value == 1 and v.r_bound == 1
    assert v.fitting_equals_core and v.colons_equal_fitting
    x, y = R2.gens()
    assert v.fitting_ideal == Ideal(R2, [x, y])


def test_verify_pd1_core_msq_plus(R2, E_msq_plus):
    v = verify_pd1_core(E_msq_plus, rng=8)
    assert v.status == "ok"
    assert v.fitting_equals_core and v.colons_equal_fitting


def test_verify_pd1_core_free(R2):
    # free module: Fitt_e = R, core = E; pd = 0 != 1, so hypotheses unmet
    v = verify_pd1_core(free_module(R2, 2, twist=1), rng=2)
    assert v.status == "hypotheses-unmet"
    assert v.pd == 0


def test_verify_pd1_core_fitting_of_free(R2):
    F = free_module(R2, 2, twist=1)
    assert fitting_ideal(F, rank(F)).is_unit()
    C, _ = core_monte_carlo(F, rng=3)
    assert C == whole_module(F)


def test_build_ideal_module_verdicts(edge):
    E, v = build_ideal_module(edge, 2, "plus_free")
    assert v.ell_E == 4 and v.spread_additive
    assert v.nonfree_codim == 2 and v.nonfree_matches_height
    assert v.mu_E == 5 and v.mu_exceeds_spread
    M, vm = build_ideal_module(edge, 2, "power_sum")
    assert vm.ell_E == 4 and vm.mu_E == 8 and vm.mu_exceeds_spread
    assert vm.nonfree_codim == 2


def test_build_ideal_module_rank_one(edge):
    E, v = build_ideal_module(edge, 1, "plus_free")
    assert E.n == 4 and rank(E) == 1 and v.ell_E == v.ell_I


def test_balanced_internal_consistency(E_msq, E_msq_plus):
    # the (iii) => (i) implication is machine-visible: whenever the sampled
    # colons agree, (U:E)E lands inside every sampled reduction
    for E, seed in ((E_msq, 71), (E_msq_plus, 72)):
        rep = verify_balanced(E, reductions=5, rng=seed)
        if rep.status == "ok" and rep.independent:
            KE = ideal_times_submodule(rep.K_values[0], whole_module(E))
            for s in range(3):
                assert KE <= random_reduction(E, rng=900 + seed + s)
            assert rep.equals_core


def test_theorem32_prediction_msq(E_msq):
    # pd-1 module: every proper residual intersection is CM with tight height
    for seed in range(5):
        cert = residual_intersection(E_msq, whole_module(E_msq), 2, rng=200 + seed)
        if cert.proper:
            assert cert.cm and cert.height_K == 2


def test_balanced_nontrivial_boundary_case(R3, minors43, E_minors43):
    # four structured cubics: mu = 4 > ell = 3 = e + 2, reduction number
    # exactly ell - e = 2, so the core is proper and the balanced
    # equivalences are non-vacuous: K = (x,y,z) and core = (x,y,z)*I
    x, y, z = R3.gens()
    m = Ideal(R3, [x, y, z])
    assert height(minors43) == 2
    from modcore.modalg import mu, projective_dimension

    assert mu(E_minors43) == 4
    assert projective_dimension(E_minors43) == 1
    assert analytic_spread(E_minors43) == 3
    assert check_gs(E_minors43, 3).ok
    ext = check_ext_vanishing(E_minors43)
    assert ext.jrange == [1] and ext.ok
    assert check_cm_rees(E_minors43).cm
    bal = verify_balanced(E_minors43, reductions=5, rng=11)
    assert bal.status == "ok"
    assert bal.independent and bal.products_equal and bal.equals_core
    assert bal.K_values[0] == m
    pd1 = verify_pd1_core(E_minors43, rng=13)
    assert pd1.status == "ok"
    assert pd1.r_value == 2 and pd1.r_bound == 2
    assert pd1.fitting_equals_core and pd1.colons_equal_fitting
    assert pd1.fitting_ideal == m
    core, _ = core_monte_carlo(E_minors43, rng=17)
    assert core == ideal_times_submodule(m, whole_module(E_minors43))


def _count_colons(monkeypatch):
    calls = []
    colon = checks.colon_into

    def counting(*args):
        calls.append(args)
        return colon(*args)

    monkeypatch.setattr(checks, "colon_into", counting)
    return calls


def test_residual_intersection_reuses_the_last_prefix_colon(E_msq, monkeypatch):
    # an ideal module takes two colons: (W : E), and K = (a_1..a_s : E), the
    # last prefix; every other prefix and subset of the draw is a complete
    # intersection whose colon height is read without computing it
    calls = _count_colons(monkeypatch)
    cert = residual_intersection(E_msq, whole_module(E_msq), 2, rng=11)
    assert cert.retries == 0 and cert.prefix_heights == [0, 1, 2]
    assert len(calls) == 2
    assert cert.K == colon_into(span(E_msq, cert.elements), E_msq)


def test_residual_intersection_of_a_direct_sum_takes_every_colon(E_msq_plus, monkeypatch):
    # m^2 + R(-2) is no ideal: one colon for (W : E), one per prefix
    # a_1..a_i (i = 0..s), one per non-prefix subset; K is the last prefix
    # colon, not a second computation
    calls = _count_colons(monkeypatch)
    s = 2
    cert = residual_intersection(E_msq_plus, whole_module(E_msq_plus), s, rng=11)
    assert cert.retries == 0
    e = rank(E_msq_plus)
    assert s == e == 2
    subsets = sum(comb(s, m) - 1 for m in range(1, s + 1) if m - e + 1 > 0)
    assert len(calls) == 1 + (s + 1) + subsets
    assert cert.K == colon_into(span(E_msq_plus, cert.elements), E_msq_plus)


_ORACLE_IDEALS = {
    "m^2": (("x", "y"), lambda x, y: [x**2, x * y, y**2]),
    "(xy,xz,yz)": (("x", "y", "z"), lambda x, y, z: [x * y, x * z, y * z]),
    "H": (("x0", "x1", "x2", "x3"), lambda x0, x1, x2, x3: [x1 * x3 - x2**2, x0 * x3 - x1 * x2, x0 * x2 - x1**2]),
    "boundary cubics": (("x", "y", "z"), lambda x, y, z: [x**3, x**2 * y, x * y**2 - x**2 * z, y**3 - 2 * x * y * z]),
    "square edge": (("x1", "x2", "x3", "x4"), lambda x1, x2, x3, x4: [x1 * x2, x2 * x3, x3 * x4, x1 * x4]),
    "(x^2,y^2,z^2)": (("x", "y", "z"), lambda x, y, z: [x**2, y**2, z**2]),
}


@pytest.mark.parametrize("p", [P, 3])
@pytest.mark.parametrize("name", list(_ORACLE_IDEALS))
def test_residual_colon_heights_match_the_colons(name, p, monkeypatch):
    # oracle: on every prefix and subset of a draw of s = 1..d+1 elements,
    # the (height, unit) that _colon_height reads off a complete
    # intersection J is that of the colon J : I itself
    names, gens = _ORACLE_IDEALS[name]
    R = PolyRing(p, names)
    E = module_from_ideal(Ideal(R, gens(*R.gens())))
    calls = _count_colons(monkeypatch)
    routes = set()
    rng = seeded(p + len(names))
    for s in range(1, R.nvars + 2):
        elems, _ = checks._random_elements(whole_module(E), s, rng)
        images = modalg._ideal_images(E, elems)
        for m in range(s + 1):
            for S in combinations(range(s), m):
                before = len(calls)
                h, unit = checks._colon_height(E, elems, images, S)
                routes.add("colon" if len(calls) > before else "shortcut")
                K = colon_into(span(E, [elems[j] for j in S]), E)
                assert (h, unit) == (height(K), K.is_unit()), (name, p, s, m)
    assert routes == {"shortcut", "colon"}


@pytest.mark.parametrize("p", [P, 7])
@pytest.mark.parametrize("name", list(_ORACLE_IDEALS))
def test_ideal_module_colons_and_meets_match_the_ideal_routes(name, p):
    # oracle: on E = I, U corresponds to its image ideal J, so
    # (U :_R E) = (J :_R I) and the image of U1 cap U2 is J1 cap J2.  The
    # spans are seeded scalar ones with two or more free positions, which
    # take the colon by the unit vectors, and draws from m*E
    names, gens = _ORACLE_IDEALS[name]
    R = PolyRing(p, names)
    I = Ideal(R, gens(*R.gens()))
    E = module_from_ideal(I)
    rng = seeded(p + E.n)
    mE = ideal_times_submodule(Ideal(R, R.gens()), whole_module(E))
    spans = []
    for k in range(1, E.n - 1):
        for _ in range(2):
            U = span(E, [tuple(R.const(rng.randrange(p)) for _ in range(E.n)) for _ in range(k)])
            assert len(modalg._scalar_quotient(U)[0]) >= 2
            spans.append(U)
    spans += [span(E, checks._random_elements(mE, k, rng)[0]) for k in (1, 2)]
    for U in spans:
        assert colon_into(U, E) == quotient_ideal(image_ideal(U, I), I), (name, p)
    for U1, U2 in combinations(spans, 2):
        C = modalg.submodule_intersect(U1, U2)
        assert image_ideal(C, I) == intersect(image_ideal(U1, I), image_ideal(U2, I)), (name, p)


# the oracle ideals and (x^2, xy, y^3), whose minimal syzygies mix degrees 3 and 4
_PRESENTED_IDEALS = {**_ORACLE_IDEALS, "(x^2,xy,y^3)": (("x", "y"), lambda x, y: [x**2, x * y, y**3])}


def _terms(basis):
    return [list(d.items()) for d in basis]


@pytest.mark.parametrize("p", [P, 7])
@pytest.mark.parametrize("name", list(_PRESENTED_IDEALS))
def test_ideal_modules_are_minimally_presented(name, p):
    # oracle: module_from_ideal(I) has one relation per first Betti number
    # of E's minimal resolution, in its degree, and its relations span all
    # syzygies of I's generators, whose reduced basis is the syzygy basis
    # (H keeps 2 of its 3, the boundary cubics 3 of 5).  The relation basis
    # known at construction is module_gb of the relations, term for term,
    # on E, E + R(-2), E + E and a generic cokernel plus R
    names, gens = _PRESENTED_IDEALS[name]
    R = PolyRing(p, names)
    I = Ideal(R, gens(*R.gens()))
    E = module_from_ideal(I)
    degrees = sorted(modalg.vector_degree(c, E.gen_degrees) for c in E.relations)
    assert degrees == sorted(modalg.free_resolution(E).degrees[1]), (name, p)
    full = [_vec_to_dict(v) for v in modalg.syzygies([(g,) for g in I.gens], R, 1)]
    assert _terms(modalg.module_gb(E.relations, R)) == _terms(full), (name, p)
    C = generic_cokernel(3, 5, 3, p)
    sums = [E, direct_sum(E, free_module(R, 1), twist=2), direct_sum(E, E), direct_sum(C, free_module(C.ring, 1))]
    for M in sums:
        assert _terms(M.relation_gb()) == _terms(modalg.module_gb(M.relations, M.ring)), (name, p, M)


@pytest.mark.parametrize("name", list(_PRESENTED_IDEALS))
def test_rank_of_an_ideal_plus_free_takes_one_basis(name, monkeypatch):
    # the ideal module's relation basis is the syzygy basis of I's
    # generators, the free module has none, and the direct sum's is read
    # off theirs: the rank of I + R(-2) takes one Buchberger call, for the
    # syzygies
    names, gens = _PRESENTED_IDEALS[name]
    R = PolyRing(P, names)
    I = Ideal(R, gens(*R.gens()))
    count = [0]
    kernel = groebner.buchberger

    def counting(*args, **kwargs):
        count[0] += 1
        return kernel(*args, **kwargs)

    monkeypatch.setattr(groebner, "buchberger", counting)
    monkeypatch.setattr(modalg, "buchberger", counting)
    assert rank(direct_sum(module_from_ideal(I), free_module(R, 1), twist=2)) == 2
    assert count[0] == 1


def test_residual_session_takes_one_colon_of_its_module(monkeypatch):
    # the 20 residual tasks of one session share W = E (cached on E) and so
    # its colon (cached on W): W is the scalar span of E's generators, so
    # (W : E) = R is read off E/W = 0 once for the session, with no (I : I)
    src = "ring R = GF(32003)[x,y];\nideal I = (x^2, x*y, y^2);\nmodule E = ideal I;\n"
    src += "".join(f"task residual_intersection E 2 --seed {seed};\n" for seed in range(1, 21))
    session = parse_session(src)
    I = session.ideals["I"]
    of_I = ([_vec_to_dict((g,)) for g in I.gens], [_vec_to_dict((g,)) for g in I.groebner_basis()])
    calls = []
    kernel = groebner._colon

    def recording(vs, basis, ring, npos):
        calls.append((vs, basis))
        return kernel(vs, basis, ring, npos)

    added = []
    echelon_add = modalg._echelon_add

    def recording_add(rows, r, p):
        added.append(dict(r))
        return echelon_add(rows, r, p)

    monkeypatch.setattr(groebner, "_colon", recording)
    monkeypatch.setattr(modalg, "_echelon_add", recording_add)
    report = run_session(session)
    assert [t["status"] for t in report.payload["tasks"]] == ["ok"] * 20
    assert calls.count(of_I) == 0
    # the change of generators of W, the identity echelon of the constant
    # rows {-i: 1}, is taken once
    assert [added.count({-i: 1}) for i in range(3)] == [1, 1, 1]


# the ideals of the residual_an benchmark workload: m^2, (xy,xz,yz) and H
_SESSION_IDEALS = {
    "x,y": "x^2, x*y, y^2",
    "x,y,z": "x*y, x*z, y*z",
    "x0,x1,x2,x3": "x1*x3 - x2^2, x0*x3 - x1*x2, x0*x2 - x1^2",
}


def test_residual_draws_expand_their_images_once(monkeypatch):
    # residual_intersection expands each draw's elements in I once, for
    # every J it is in: one expansion per draw, of the drawn elements.  The
    # square edge ideal at s = 2 = ht(I) also takes the colon of K, with two
    # of its four positions free
    drawn, expanded = [], []
    draw, images = checks._random_elements, checks._ideal_images

    def drawing(W, count, rng):
        out = draw(W, count, rng)
        drawn.append(out[0])
        return out

    def expanding(E, vectors):
        expanded.append(vectors)
        return images(E, vectors)

    monkeypatch.setattr(checks, "_random_elements", drawing)
    monkeypatch.setattr(checks, "_ideal_images", expanding)
    sessions = [
        (names, gens, s) for names, gens in _SESSION_IDEALS.items() for s in range(1, min(3, len(names.split(","))) + 1)]
    sessions.append(("x1,x2,x3,x4", "x1*x2, x2*x3, x3*x4, x1*x4", 2))
    for names, gens, s in sessions:
        src = f"ring R = GF(32003)[{names}];\nideal I = ({gens});\nmodule E = ideal I;\n"
        src += "".join(f"task residual_intersection E {s} --seed {seed};\n" for seed in range(1, 6))
        report = run_session(parse_session(src))
        assert [t["status"] for t in report.payload["tasks"]] == ["ok"] * 5
    assert len(drawn) >= 40 and expanded == drawn


def test_residual_session_presents_W_by_E(monkeypatch):
    # W = E is presented by E's own relations (`whole_module` remembers
    # them), so after parsing a residual session takes no syzygies
    calls = []
    kernel = modalg._syzygy_dicts
    monkeypatch.setattr(modalg, "_syzygy_dicts", lambda *args: calls.append(args) or kernel(*args))
    for names, gens in _SESSION_IDEALS.items():
        src = f"ring R = GF(32003)[{names}];\nideal I = ({gens});\nmodule E = ideal I;\n"
        src += "".join(f"task residual_intersection E 2 --seed {seed};\n" for seed in range(1, 6))
        session = parse_session(src)
        parsed = len(calls)
        report = run_session(session)
        assert [t["status"] for t in report.payload["tasks"]] == ["ok"] * 5
        assert len(calls) == parsed, names


@pytest.mark.parametrize("names", list(_SESSION_IDEALS))
def test_whole_module_drop_check_matches_a_fresh_span(names):
    # oracle: on the residual draws at s = 1..3, the generator-drop check on
    # W = whole_module(E), presented by E, agrees with the same check on a
    # fresh span of E's basis vectors, presented by its syzygies; a repeated
    # draw makes the drop fail
    session = parse_session(f"ring R = GF(32003)[{names}];\nideal I = ({_SESSION_IDEALS[names]});\nmodule E = ideal I;\n")
    E = session.modules["E"]
    W = whole_module(E)
    fresh = span(E, [E.basis_vector(i) for i in range(E.n)])
    assert modalg.submodule_presentation(W) is E
    assert modalg.submodule_presentation(fresh) is not E
    rng = seeded(len(names))
    verdicts = set()
    for s in range(1, 4):
        for _ in range(8):
            _, coords = checks._random_elements(W, s, rng)
            if s > 1 and rng.random() < 0.4:
                coords[-1] = list(coords[0])
            got = checks._mu_drop_holds(W, coords, s)
            assert got == checks._mu_drop_holds(fresh, coords, s), coords
            verdicts.add(got)
    assert verdicts == {True, False}


def test_residual_session_takes_each_fitting_ideal_once(monkeypatch):
    # check_gs(E, s) reads Fitt_1 .. Fitt_(s-1); over 20 residual tasks on two
    # modules the minors of each (E, size) are listed once, not once per task
    src = "ring R = GF(32003)[x,y,z];\nideal J = (x*y, x*z, y*z);\nideal C = (x^2, y^2, z^2);\n"
    src += "module E = ideal J;\nmodule F = ideal C;\n"
    src += "".join(
        f"task residual_intersection {name} {s} --seed {seed};\n"
        for name in "EF" for s in (2, 3) for seed in range(1, 6)
    )
    session = parse_session(src)
    calls = []
    minors = modalg._nonzero_minors

    def recording(E, size):
        calls.append((id(E), size))
        return minors(E, size)

    monkeypatch.setattr(modalg, "_nonzero_minors", recording)
    report = run_session(session)
    assert [t["status"] for t in report.payload["tasks"]] == ["ok"] * 20
    assert sorted(calls) == sorted(set(calls)) and len(calls) == 4


def test_verify_balanced_kernel_calls(R2, monkeypatch):
    # on a module built here (cold caches): K*E is built once per distinct
    # K, its coset basis taken once, for the core comparison.  No coset
    # basis of K*U is taken: the entries of E's presentation lie in K, so
    # K*U = K*E for each scalar draw U.  Every draw, the 6 reductions and
    # the 7 core draws, has one free position, and its forms a_U.N span the
    # linear entries x, y of E's presentation, so its colon is I_1(phi) =
    # (x, y), whose basis is taken once for E: no basis of phi(N).  The
    # core keeps its intersection as the GF(p) rows of its 7 draws, 4 that
    # change it and 3 stable ones, tests each draw by a rank and writes the
    # reduced basis at the stop in closed form: no meet.  So 15 calls give
    # way to one: the 6 colons' and 6 core draws' bases of phi(N) and the 3
    # meets, to the basis of I_1(phi).  E is an ideal module plus a free one,
    # torsion-free by construction, so the torsion test takes no meet.  No
    # basis is taken of a principal ideal: the fiber ideal
    # (T1*T3 - T2^2), read off the Rees ideal's generators, is its own
    # basis for ell, and the Rees basis is taken once, by the CM test.  Each
    # of the 13 fiber tests has one free position, so it evaluates the fiber
    # basis at a point and takes no basis.  E's relation basis is read off
    # its summands': the ideal module keeps its syzygy basis, the free one
    # has none.  pd(E) takes no syzygy step: E is its own minimal
    # presentation (its relations are flagged minimal), and its 2 relations
    # are as many as the rank mu - rank E = 4 - 2 of the first map, which is
    # therefore injective.  What is left: the Rees saturation, two bases for
    # dimensions, one for the CM certificate, the basis of I_1(phi) and the
    # coset basis of K*E
    x, y = R2.gens()
    E = direct_sum(module_from_ideal(Ideal(R2, [x**2, x * y, y**2])), free_module(R2, 1), twist=2)
    count = [0]
    kernel = groebner.buchberger

    def counting(*args, **kwargs):
        count[0] += 1
        return kernel(*args, **kwargs)

    monkeypatch.setattr(groebner, "buchberger", counting)
    monkeypatch.setattr(modalg, "buchberger", counting)
    rep = verify_balanced(E, 6, rng=5)
    assert (rep.status, rep.independent, rep.products_equal, rep.equals_core) == ("ok", True, True, True)
    assert count[0] == 6


@pytest.mark.parametrize("p", [P, 7])
def test_balanced_products_certificate_agrees_with_coset_bases(p, monkeypatch):
    # K*U = K*E for a scalar U when the entries of E's presentation lie in
    # K = (U : E).  The oracle compares the coset bases of K*U and K*E on 4
    # seeded reductions of each oracle ideal I (the corpus ideals among
    # them), I + R(-deg I), I + I and two generic pd-1 cokernels.  Wherever
    # the entries lie in K the products agree.  I + I has them there only
    # for the complete intersection (x^2,y^2,z^2), whose Koszul relations
    # have their entries in I; every other I + I takes the coset bases on
    # each draw, and there the products differ for the square edge ideal
    # and H
    built = []
    times = checks.ideal_times_submodule

    def counting(K, U):
        built.append(U)
        return times(K, U)

    monkeypatch.setattr(checks, "ideal_times_submodule", counting)
    modules = []
    for name, (names, gens) in _ORACLE_IDEALS.items():
        R = PolyRing(p, names)
        I = Ideal(R, gens(*R.gens()))
        EI = module_from_ideal(I)
        twist = I.gens[0].degree()
        modules += [(EI, True), (direct_sum(EI, free_module(R, 1), twist=twist), True)]
        modules.append((direct_sum(EI, EI), name == "(x^2,y^2,z^2)"))
    modules += [(generic_cokernel(3, 5, 3, p), True), (generic_cokernel(4, 6, 4, p), True)]
    unequal = 0
    for E, fires in modules:
        Us = [random_reduction(E, rng=seeded(s)) for s in range(4)]
        Ks = [colon_into(U, E) for U in Us]
        built.clear()
        products, _ = checks._balanced_products(E, Us, Ks)
        assert len([U for U in built if U is not whole_module(E)]) == (0 if fires else 4)
        oracle = []
        for U, K in zip(Us, Ks):
            assert all(K.contains(f) for col in E.relations for f in col) == fires
            KE = ideal_times_submodule(K, whole_module(E))
            oracle.append(KE.coset_gb() == ideal_times_submodule(K, U).coset_gb())
        assert products == oracle
        unequal += oracle.count(False)
    assert unequal > 0


def test_closed_form_residual_session_counts(monkeypatch):
    # a seed-1 session of 20 residual draws for each s = 1..3 on (xy,xz,yz):
    # mu comes from graded Nakayama, so no minimal presentation is built, and
    # every principal ideal (the colon heights with |S| = 1, one-variable
    # fiber and certificate rings) is its own basis, so no Buchberger call
    # gets a single generator in one position
    src = "ring R = GF(32003)[x,y,z];\nideal I = (x*y, x*z, y*z);\nmodule E = ideal I;\n"
    src += "task check_an E --trials 20 --seed 1;\n"
    session = parse_session(src)
    presentations, principal, calls = [], [], []
    kernel, presentation = groebner.buchberger, modalg.minimal_presentation

    def counting(gens, *args, **kwargs):
        nonzero = [g for g in gens if g]
        calls.append(len(nonzero))
        if len(nonzero) == 1 and all(pos == 0 for pos, _ in nonzero[0]):
            principal.append(nonzero[0])
        return kernel(gens, *args, **kwargs)

    def presenting(E):
        presentations.append(E)
        return presentation(E)

    monkeypatch.setattr(groebner, "buchberger", counting)
    monkeypatch.setattr(modalg, "buchberger", counting)
    monkeypatch.setattr(modalg, "minimal_presentation", presenting)
    monkeypatch.setattr(checks, "minimal_presentation", presenting)
    report = run_session(session)
    rows = report.payload["tasks"][0]["value"]["rows"]
    assert [(r["i"], r["proper"] + r["improper"], r["proper"] == r["cm_passes"]) for r in rows] == [
        (1, 20, True), (2, 20, True), (3, 20, True)]
    assert presentations == [] and principal == [] and calls


# (ideal, s): s < ht(I) reads K = J; s = ht(I) is the boundary, where the
# colon J : I is the residual, not J, and the draw takes it
_BELOW_HEIGHT = [
    ("m^2", 1), ("m^2", 2),
    ("(xy,xz,yz)", 1), ("(xy,xz,yz)", 2),
    ("H", 1), ("H", 2),
    ("(x^2,y^2,z^2)", 1), ("(x^2,y^2,z^2)", 2), ("(x^2,y^2,z^2)", 3),
    ("square edge", 1), ("square edge", 2),
]


@pytest.mark.parametrize("p", [P, 7])
@pytest.mark.parametrize("name,s", _BELOW_HEIGHT)
def test_closed_form_residual_below_height_is_the_complete_intersection(name, s, p, monkeypatch):
    # oracle: K against the colon J : I, and its CM verdict against the
    # resolution of R/K (CM iff pd = ht, by Auslander-Buchsbaum); below
    # ht(I) the draw takes no colon and no substituted ideal: the
    # certificate reads CM off the complete intersection
    names, gens = _ORACLE_IDEALS[name]
    R = PolyRing(p, names)
    I = Ideal(R, gens(*R.gens()))
    E = module_from_ideal(I)
    below = s < height(I)
    W = whole_module(E)
    calls = _count_colons(monkeypatch)

    def draw_colons():
        # colons of the draws' spans, not (W : E)
        return sum(U is not W for U, *_ in calls)

    draws = _count_draws(monkeypatch)
    for seed in range(1, 4):
        before = draw_colons(), len(draws)
        cert = residual_intersection(E, W, s, rng=seed)
        J = Ideal(R, modalg._ideal_images(E, cert.elements))
        assert cert.K == quotient_ideal(J, I), (name, s, p, seed)
        assert (cert.K == J) == below or not cert.proper
        assert cert.height_K == height(cert.K)
        if cert.proper:
            assert cert.cm == (projective_dimension(cyclic_module(R, cert.K)) == cert.height_K)
        if below:
            assert cert.proper and cert.cm and cert.height_K == s
            assert (draw_colons(), len(draws)) == before
    assert below or draw_colons()


_GENERATION_IDEALS = {
    **{name: _ORACLE_IDEALS[name] for name in ("m^2", "(xy,xz,yz)", "H", "square edge")},
    # x^2 + xy - x^2 - xy = 0 is a constant relation: three elements generate
    # the four-generator E only with it
    "constant relation": (("x", "y"), lambda x, y: [x**2, x * y, y**2, x**2 + x * y]),
}


@pytest.mark.parametrize("p", [P, 7])
@pytest.mark.parametrize("name", list(_GENERATION_IDEALS))
def test_closed_form_nakayama_generation_matches_membership(name, p):
    # oracle: on every subset S of random draws of 1..mu+1 elements of E,
    # the rank test of graded Nakayama against I <= J by normal forms, for
    # the image ideal J = (a_j : j in S)
    names, gens = _GENERATION_IDEALS[name]
    R = PolyRing(p, names)
    I = Ideal(R, gens(*R.gens()))
    E = module_from_ideal(I)
    m = modalg.mu(E)
    rng = seeded(p + E.n)
    verdicts = set()
    for s in range(1, m + 2):
        for _ in range(2):
            elems, _ = checks._random_elements(whole_module(E), s, rng)
            images = modalg._ideal_images(E, elems)
            for k in range(s + 1):
                for S in combinations(range(s), k):
                    v = checks._generates(E, [elems[j] for j in S])
                    assert v == (I <= Ideal(R, [images[j] for j in S])), (name, p, S)
                    verdicts.add((v, k))
    assert {v for v, _ in verdicts} == {True, False}
    # fewer than n elements generate E only through constant relations
    assert any(v and k < E.n for v, k in verdicts) == (m < E.n)


def _combination_draws(W, count, rng):
    """Oracle: draws as polynomial combinations of W's generators, one
    coefficient per generator per draw."""
    ring = W.parent.ring
    out, coords = [], []
    for _ in range(count):
        row = [rng.randrange(ring.char) for _ in W.gens]
        out.append(tuple(sum((g[i] * c for c, g in zip(row, W.gens)), ring.zero()) for i in range(W.parent.n)))
        coords.append(row)
    return out, coords


@pytest.mark.parametrize("p", [P, 7])
def test_closed_form_scalar_draws_match_the_polynomial_combination(p, monkeypatch):
    # a scalar W draws its elements as GF(p) combinations of constants, with
    # no polynomial arithmetic; the draws, their coordinates and the rng state
    # after them equal the polynomial combination's.  W = m*E is not scalar
    # and takes the polynomial path
    R = PolyRing(p, ("x", "y"))
    x, y = R.gens()
    E = module_from_ideal(Ideal(R, [x**2, x * y, y**2]))
    F = direct_sum(E, free_module(R, 1), twist=2)
    c = R.const
    cases = [
        (whole_module(E), True),
        (whole_module(F), True),
        (span(E, [(c(1), c(2), c(0)), (c(0), c(0), c(p - 1))]), True),
        (span(F, [(c(3), c(0), c(1), c(5))]), True),
        (ideal_times_submodule(Ideal(R, [x, y]), whole_module(E)), False),
    ]
    scalings = []
    scale = Polynomial.scale
    monkeypatch.setattr(Polynomial, "scale", lambda f, k: scalings.append(k) or scale(f, k))
    for seed, (W, scalar) in enumerate(cases):
        rng, oracle = seeded(seed), seeded(seed)
        before = len(scalings)
        got = checks._random_elements(W, 4, rng)
        assert (len(scalings) == before) == scalar
        assert got == _combination_draws(W, 4, oracle)
        assert rng.getstate() == oracle.getstate()


def test_closed_form_residual_session_below_height_counts(monkeypatch):
    # sessions of 20 draws (seeds 1..20) at s = 1 on m^2, (xy,xz,yz) and H:
    # s is below ht(I), so K = J takes no kernel colon, its CM certificate no
    # substituted ideal (J is a complete intersection), and the colon
    # heights read I <= J by Nakayama, with no membership test
    colons, memberships = [], []
    inside = [False]
    colon, member, colon_height = groebner._colon, groebner.ideal_membership, checks._colon_height

    def in_colon_height(*args):
        inside[0] = True
        try:
            return colon_height(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(modalg, "_colon", lambda *a: colons.append(a) or colon(*a))
    monkeypatch.setattr(groebner, "_colon", lambda *a: colons.append(a) or colon(*a))
    draws = _count_draws(monkeypatch)
    monkeypatch.setattr(groebner, "ideal_membership", lambda *a: (inside[0] and memberships.append(a)) or member(*a))
    monkeypatch.setattr(checks, "_colon_height", in_colon_height)
    for names, gens in _SESSION_IDEALS.items():
        src = f"ring R = GF(32003)[{names}];\nideal I = ({gens});\nmodule E = ideal I;\n"
        src += "".join(f"task residual_intersection E 1 --seed {seed};\n" for seed in range(1, 21))
        report = run_session(parse_session(src))
        values = [t["value"] for t in report.payload["tasks"]]
        assert [(v["proper"], v["cm"], v["height_K"]) for v in values] == [(True, True, 1)] * 20
    assert (len(colons), len(draws), len(memberships)) == (0, 0, 0)


def test_closed_form_pair_heights_take_no_basis(monkeypatch):
    # sessions of 20 draws (seeds 1..20) at s = 3 on (xy,xz,yz) and H: the
    # height of each pair J = (a_i, a_j) is read off the rank test of two
    # forms, so the colon heights take no Buchberger call (one per pair, 60
    # a session, before that test)
    calls, sizes = [], []
    inside = [False]
    kernel, colon_height = groebner.buchberger, checks._colon_height

    def counting(*args, **kwargs):
        if inside[0]:
            calls.append(args)
        return kernel(*args, **kwargs)

    def in_colon_height(E, elems, images, S):
        inside[0] = True
        sizes.append(len(S))
        try:
            return colon_height(E, elems, images, S)
        finally:
            inside[0] = False

    monkeypatch.setattr(groebner, "buchberger", counting)
    monkeypatch.setattr(modalg, "buchberger", counting)
    monkeypatch.setattr(checks, "_colon_height", in_colon_height)
    for names in ("x,y,z", "x0,x1,x2,x3"):
        src = f"ring R = GF(32003)[{names}];\nideal I = ({_SESSION_IDEALS[names]});\nmodule E = ideal I;\n"
        src += "".join(f"task residual_intersection E 3 --seed {seed};\n" for seed in range(1, 21))
        report = run_session(parse_session(src))
        assert [t["status"] for t in report.payload["tasks"]] == ["ok"] * 20
    assert sizes.count(2) >= 120 and calls == []


def _mu_drop_oracle(W, coords, s):
    """The generator-drop check on a presented module: W's presentation with
    the draws' coordinate rows as further constant relations, whose
    generator count, n minus the rank of one constant echelon, must be
    max(0, mu(W) - s)."""
    ring = W.parent.ring
    P_W = modalg.submodule_presentation(W)
    extra = [tuple(ring.const(c) for c in row) for row in coords]
    Q = modalg.PresentedModule(ring, P_W.gen_degrees, list(P_W.relations) + extra, _validate=False)

    def count(M):
        return M.n - row_rank([[f.constant_coeff() for f in col] for col in M.relations], ring.char)

    return count(Q) == max(0, count(P_W) - s)


@pytest.mark.parametrize("p", [P, 7])
def test_closed_form_generation_counts_extend_the_relation_echelon(p, monkeypatch):
    # oracle: _generates against the dense rank (`conftest.row_rank`) of the
    # constant parts of the vectors and the relations, and _mu_drop_holds
    # against the enlarged presentation (`_mu_drop_oracle`), on the ideal
    # modules (one with a constant relation), I + R(-2) and random
    # presentations with constant entries; W is E or a span of constant
    # vectors, and _mu_drop_holds builds no presented module
    rng = seeded(p + 12)
    modules = []
    for names, gens in _GENERATION_IDEALS.values():
        R = PolyRing(p, names)
        E = module_from_ideal(Ideal(R, gens(*R.gens())))
        modules += [E, direct_sum(E, free_module(R, 1), twist=2)]
    R3 = PolyRing(p, ("x", "y", "z"))
    modules += [random_presentation(R3, rng) for _ in range(40)]
    built = []
    init = modalg.PresentedModule.__init__

    def building(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(modalg.PresentedModule, "__init__", building)
    verdicts = set()
    for E in modules:
        ring, n = E.ring, E.n

        def entry():
            c = ring.const(rng.randrange(p) if rng.random() < 0.7 else 0)
            return c + ring.var(0) if rng.random() < 0.3 else c

        for k in range(n + 2):
            vectors = [tuple(entry() for _ in range(n)) for _ in range(k)]
            got = checks._generates(E, vectors)
            assert got == (row_rank([[f.constant_coeff() for f in v] for v in vectors + list(E.relations)], p) == n), E
            verdicts.add(("generates", got))
        Ws = [whole_module(E)]
        if E.common_degree() is not None:
            Ws.append(span(E, [tuple(ring.const(rng.randrange(p)) for _ in range(n)) for _ in range(rng.randrange(1, 4))]))
        for W in Ws:
            k = len(W.gens)
            for s in range(1, k + 2):
                coords = [[rng.randrange(p) for _ in range(k)] for _ in range(s)]
                if s > 1 and rng.random() < 0.3:
                    coords[-1] = list(coords[0])
                want = _mu_drop_oracle(W, coords, s)
                before = len(built)
                assert checks._mu_drop_holds(W, coords, s) == want, (E, coords)
                assert len(built) == before
                verdicts.add(("drop", want))
    assert verdicts == {("generates", True), ("generates", False), ("drop", True), ("drop", False)}


def _oracle_sums(p):
    """Over GF(p): A + B for each ordered pair of the oracle ideal modules in
    one ring, (A + B) + A, and (A + R(-D)) + B, D the degree of A."""
    rings = {}
    for names, gens in _ORACLE_IDEALS.values():
        R = rings.setdefault(names, (PolyRing(p, names), []))
        R[1].append(module_from_ideal(Ideal(R[0], gens(*R[0].gens()))))
    sums = []
    for R, modules in rings.values():
        for A, B in [(A, B) for A in modules for B in modules]:
            AF = direct_sum(A, free_module(R, 1), twist=A.common_degree())
            sums += [direct_sum(A, B), direct_sum(direct_sum(A, B), A), direct_sum(AF, B)]
    return sums


@pytest.mark.parametrize("p", [P, 7])
def test_closed_form_sum_fitting_ideals_and_minor_match_the_block_minors(p):
    # oracle: on 36 sums of two modules with relations, the Fitting ideals
    # of the summands multiplied out are the ideals of the minors of the
    # block matrix, for every t, and the product of the summands' first
    # maximal minors is the block matrix's first nonzero (n-e)-minor, as a
    # polynomial
    sums = _oracle_sums(p)
    assert len(sums) == 36
    for E in sums:
        assert modalg._block_summands(E) is not None
        for t in range(E.n + 1):
            assert fitting_ideal(E, t) == Ideal(E.ring, modalg._nonzero_minors(E, E.n - t)), (E, t)
        assert modalg.first_nonzero_maximal_minor(E) == next(modalg._nonzero_minors(E, E.n - rank(E))), E


@pytest.mark.parametrize("p", [P, 7])
@pytest.mark.parametrize("warm", ["cold", "rees", "basis"])
def test_closed_form_rees_ideal_of_a_free_sum_matches_the_saturation(warm, p, monkeypatch):
    # oracle: for each oracle ideal module EI and k = 1, 2, the Rees ideal of
    # E = EI + R(-D)^k is the saturation of Sym(E) at the fixed minor, and
    # it has the closed form R(EI + F) = R(EI)[S]: its reduced basis is EI's
    # with k zero exponents appended (grevlex on R[T, S] restricted to
    # S-free monomials is grevlex on R[T]).  Cold or with EI's Rees ideal
    # (and, for "basis", its reduced basis) already known, E's is taken by
    # exactly one route: the saturation, or the certified Jacobian dual
    # (H + R(-2)^k).  ell(E) = ell(EI) + k either way
    routes = []
    saturate, certifies = rees.saturate, rees._certifies_rees_ideal

    def counting(J, f):
        routes.append(J)
        return saturate(J, f)

    def certified(E, J):
        verdict = certifies(E, J)
        if verdict:
            routes.append(J)
        return verdict

    for name, (names, gens) in _ORACLE_IDEALS.items():
        R = PolyRing(p, names)
        for k in (1, 2):
            EI = module_from_ideal(Ideal(R, gens(*R.gens())))
            E = direct_sum(EI, free_module(R, k), twist=EI.common_degree())
            if warm != "cold":
                K = rees_ideal(EI)
                if warm == "basis":
                    K.groebner_basis()
            monkeypatch.setattr(rees, "saturate", counting)
            monkeypatch.setattr(rees, "_certifies_rees_ideal", certified)
            routes.clear()
            got = rees_ideal(E)
            monkeypatch.undo()
            assert len(routes) == 1, (name, k, warm)
            minor = rees.map_poly(modalg.first_nonzero_maximal_minor(E), got.ring)
            oracle = saturate(rees.sym_ideal(E), minor)
            assert got.groebner_basis() == oracle.groebner_basis(), (name, k, warm)
            pad = (0,) * k
            closed = [[(m + pad, c) for m, c in g.terms] for g in rees_ideal(EI).groebner_basis()]
            assert [list(g.terms) for g in got.groebner_basis()] == closed, (name, k, warm)
            assert analytic_spread(E) == analytic_spread(EI) + k, (name, k, warm)
