"""Hypothesis checkers and theorem verdicts: G_s, residual intersections,
Artin-Nagata, Ext vanishing, Cohen-Macaulay Rees rings, free-quotient
criterion, balanced-core equivalences, and the ideal-module builder.

Randomized constructions replace prime avoidance by field-coefficient draws;
every required conclusion is verified a posteriori, so a bad draw is detected
and redrawn, never silently accepted.
"""

from __future__ import annotations

from itertools import combinations

from .errors import (
    CapExceededError,
    DegreeMixError,
    ModcoreError,
    RetryExhaustedError,
)
from .groebner import (
    RETRY_CAP,
    Ideal,
    _add_series,
    _certified_cm,
    _memo,
    _regular_forms,
    height,
    krull_dimension,
)
from .modalg import (
    PresentedModule,
    Submodule,
    _constant_rank,
    _constant_row,
    _entry_ideal,
    _gs_heights,
    _ideal_images,
    _scalar_quotient,
    colon_into,
    cyclic_module,
    depth,
    direct_sum,
    ext_module,
    fitting_ideal,
    free_module,
    ideal_times_submodule,
    is_torsionfree,
    minimal_presentation,
    module_from_ideal,
    mu,
    projective_dimension,
    rank,
    span,
    submodule_presentation,
    vector_degree,
    whole_module,
)
from .record import Record
from .rees import (
    DEFAULT_T_CAP,
    analytic_spread,
    core_monte_carlo,
    graded_component,
    random_reduction,
    reduction_number,
    rees_ideal,
    _rng,
)

SUBSET_LIMIT = 5  # residual_intersection checks every index subset up to this s
COLON_SAMPLES = 5  # further reductions whose colon verify_pd1_core compares with the Fitting ideal


def _generates(E: PresentedModule, vectors) -> bool:
    """Whether `vectors` generate E = R^n / N.  By graded Nakayama they do
    iff their constant parts and those of the relations N span GF(p)^n:
    the vectors' rows added to E's echelon (`modalg._constant_rank`), with
    no normal form."""
    return _constant_rank(E, (_constant_row(f.constant_coeff() for f in v) for v in vectors)) == E.n


def _colon_height(E: PresentedModule, elems, images, S) -> tuple:
    """(height, is unit) of (span(a_j : j in S) :_R E) for the elements a_j
    in `elems`, without the colon when E is an ideal I and J = (a_j : j in
    S) has height |S|.  Then J is a complete intersection, hence unmixed
    (Bruns-Herzog, Cohen-Macaulay Rings, Thm 2.1.6), so J : I is R when
    I <= J and has height exactly |S| otherwise (the linkage setting of
    Huneke-Ulrich, Residual intersections, 1988).  I <= J says that the
    span of the a_j is all of E, which graded Nakayama decides
    (`_generates`).  The height of J takes no basis when |S| <= 2
    (`krull_dimension` of at most two forms).  `images` are the elements'
    images in I (`modalg._ideal_images`), None when E is not an ideal.  Any
    other E or J takes the colon."""
    vectors = [elems[j] for j in S]
    if images is not None and height(Ideal(E.ring, [images[j] for j in S])) == len(S):
        if _generates(E, vectors):
            return E.ring.nvars + 1, True
        return len(S), False
    K = colon_into(span(E, vectors), E)
    return height(K), K.is_unit()


# -- G_s ---------------------------------------------------------------------------


class GsVerdict(Record):
    s: int
    ok: bool
    failing_t: int | None
    heights: dict  # t -> (height of Fitt_{t+e-1}, required t+1)


@_memo
def check_gs(E: PresentedModule, s: int) -> GsVerdict:
    """G_s via Fitting ideals: ht(Fitt_{t+e-1}(E)) >= t+1 for 1 <= t <= s-1.
    The verdict is computed once per (E, s), so the residual draws of a
    session share it."""
    if s < 1:
        raise ModcoreError("G_s needs s >= 1")
    failing_t, heights = _gs_heights(E, s)
    return GsVerdict(s, failing_t is None, failing_t, heights)


# -- residual intersections -----------------------------------------------------------


class ResidualCertificate(Record):
    s: int
    elements: list  # coordinate vectors drawn from W
    prefix_heights: list  # ht((a_1..a_i):E) for i = 0..s
    subset_checked: bool
    K: Ideal
    proper: bool
    height_K: int
    cm: bool | None  # Cohen-Macaulay verdict of R/K; None when improper
    mu_drop_ok: bool  # mu(W / sum Ra_j) = max(0, mu(W) - s) at the maximal ideal
    retries: int
    failures: list  # (attempt, failing prefix or subset) log


def _random_elements(W: Submodule, count: int, rng):
    """Random field combinations of W's generators (they share one degree).

    Returns (ambient vectors, W-coordinate rows); the rows express each draw
    in W's generators, which the generator-drop check needs.  When every
    generator of W is a constant vector (W = E, or any scalar span), a draw
    is the GF(p) combination of those constants, with no polynomial
    arithmetic; the rng is read the same way on both paths, once per
    generator per draw."""
    E = W.parent
    degs = {vector_degree(v, E.gen_degrees) for v in W.gens}
    if len(degs) > 1:
        raise DegreeMixError("W has generators in mixed degrees; cannot draw homogeneous elements")
    ring = E.ring
    p = ring.char
    scalars = None
    if all(f.is_constant() for g in W.gens for f in g):
        scalars = [[f.constant_coeff() for f in g] for g in W.gens]
    out = []
    coords = []
    for _ in range(count):
        row = [rng.randrange(p) for _ in W.gens]
        if scalars is not None:
            v = [ring.const(sum(c * g[i] for c, g in zip(row, scalars))) for i in range(E.n)]
        else:
            v = [ring.zero()] * E.n
            for c, g in zip(row, W.gens):
                if c:
                    for i, a in enumerate(g):
                        if a:
                            v[i] = v[i] + a.scale(c)
        out.append(tuple(v))
        coords.append(row)
    return out, coords


def _mu_drop_holds(W: Submodule, coords, s: int) -> bool:
    """Theorem-2.2 statement (1) at the maximal ideal: the drawn elements cut
    the minimal generator count of W by exactly s (to a floor of zero).
    W/(a_1..a_s) is W's presentation P with the draws' coordinate rows as
    further constant relations, so by graded Nakayama its count is n minus
    the rank of those rows added to P's echelon (`modalg._constant_rank`)."""
    P = submodule_presentation(W)
    return P.n - _constant_rank(P, map(_constant_row, coords)) == max(0, mu(P) - s)


def _total_numerator(M: PresentedModule):
    """N(t) with HS(M) = t^g N(t) / (1-t)^n, g the lowest generator degree:
    the sum of t^(g_pos - g) N_pos(t) over M's positions
    (`PresentedModule.hilbert_numerators`)."""
    low = min(M.gen_degrees, default=0)
    total = []
    for numer, g in zip(M.hilbert_numerators(), M.gen_degrees):
        total = _add_series(total, [0] * (g - low) + numer)
    return total


def _pd_at_most(M: PresentedModule, j: int) -> bool:
    """A certificate of pd M <= j, for j >= 1: one seeded draw of d - j
    linear forms that is M-regular (`_regular_forms`), so that
    depth M >= d - j, and pd M = d - depth M by graded Auslander-Buchsbaum.
    M/lM is presented over R' by the cut relations on M's generators.
    Every M has pd M <= d; otherwise False proves nothing."""
    d = M.ring.nvars
    if j >= d:
        return True

    def section(small, cut):
        cols = [tuple(cut(f) for f in col) for col in M.relations]
        return _total_numerator(PresentedModule(small, M.gen_degrees, cols, _validate=False))

    return _regular_forms(M.ring, d - j, _total_numerator(M), section, draws=1) is True


def residual_intersection(
    E: PresentedModule,
    W: Submodule,
    s: int,
    rng,
) -> ResidualCertificate:
    """Draw s random elements of W and certify Theorem-style height bounds.

    Verifies ht((a_1..a_i) :_R E) >= i-e+1 along the prefix chain, and over
    every index subset when s <= SUBSET_LIMIT (2^s colons; prefixes only
    beyond that).  Failed draws are logged and retried, RETRY_CAP draws in
    all.
    """
    rng = _rng(rng)
    e = rank(E)
    if s < e:
        raise ModcoreError(f"residual_intersection needs s >= rank(E) = {e}, got s = {s}")
    KW = colon_into(W, E)
    htW = height(KW)
    if htW < s:
        raise ModcoreError(f"ht(W:E) = {htW} < s = {s}; Theorem hypotheses unmet")
    gs = check_gs(E, s)
    if not gs.ok:
        raise ModcoreError(f"E is not G_{s} (fails at t = {gs.failing_t})")

    I = E._cache.get("from_ideal")
    # K = J below the height of I (see K below)
    below_height = I is not None and s < height(I)
    # the prefixes a_1..a_i (i = 0..s, the last one K), then, when s is
    # small, every other index subset of size m with m - e + 1 > 0
    prefixes = [tuple(range(i)) for i in range(s + 1)]
    index_sets = [(S, f"prefix {len(S)}") for S in prefixes]
    if s <= SUBSET_LIMIT:
        index_sets += [(S, f"subset {list(S)}") for m in range(max(e, 1), s + 1)
                       for S in combinations(range(s), m) if S != prefixes[m]]
    failures = []
    for attempt in range(RETRY_CAP):
        elems, coords = _random_elements(W, s, rng)
        # each element's image in I, expanded once for every J it is in
        images = _ideal_images(E, elems) if I is not None else None
        heights = []
        for S, label in index_sets:
            if len(S) < s:
                h, unit = _colon_height(E, elems, images, S)
            else:
                # K = (a_1..a_s :_R E), with no colon when E is an ideal I
                # and J = (a_1..a_s) has height s < ht(I): J is a complete
                # intersection, so its associated primes all have height s
                # (Bruns-Herzog, Thm 2.1.6), none contains I, and J : I = J
                J = Ideal(E.ring, images) if below_height else None
                K = J if J is not None and height(J) == s else colon_into(span(E, elems), E)
                h, unit = height(K), K.is_unit()
            heights.append(h)
            # a unit colon passes vacuously, as in modalg._gs_heights
            if not (unit or h >= len(S) - e + 1):
                failures.append((attempt, label))
                break
        else:
            if not _mu_drop_holds(W, coords, s):
                failures.append((attempt, "generator drop"))
                continue
            proper = not K.is_unit()
            if proper:
                # only the verdict is reported: R/K is resolved only when
                # the certificate is undecided
                dim = krull_dimension(K)
                cm = _certified_cm(K, dim)
                if cm is None:
                    cm = depth(cyclic_module(K.ring, Ideal(K.ring, K.groebner_basis()))) == dim
                height_K = E.ring.nvars - dim
            else:
                cm, height_K = None, height(K)
            return ResidualCertificate(
                s=s,
                elements=elems,
                prefix_heights=heights[: s + 1],
                subset_checked=s <= SUBSET_LIMIT,
                K=K,
                proper=proper,
                height_K=height_K,
                cm=cm,
                mu_drop_ok=True,
                retries=attempt,
                failures=failures,
            )
    raise RetryExhaustedError(
        f"height verification failed {RETRY_CAP} times; last failures: {failures[-3:]}"
    )


# -- Artin-Nagata ---------------------------------------------------------------------


class AnRow(Record):
    i: int
    trials: int
    proper: int
    improper: int
    cm_passes: int
    tight_heights: int  # trials with ht(K) == i-e+1 exactly
    failures: list
    note: str = ""


def check_an(E: PresentedModule, s: int | None = None, trials: int = 10, rng=None):
    """AN_s evidence: for each e <= i <= min(s, d+e-1), `trials` random
    i-residual intersections; proper K must give Cohen-Macaulay R/K.

    An i whose construction preconditions fail (e.g. E is not G_i) gets a
    zero-trial row carrying the reason, not an exception."""
    if trials < 1:
        raise ModcoreError(f"check_an needs trials >= 1, got {trials}")
    rng = _rng(rng)
    e = rank(E)
    d = E.ring.nvars
    if s is None:
        s = d + e - 1
    if s < e:
        raise ModcoreError(f"check_an needs s >= rank(E) = {e}, got s = {s}")
    W = whole_module(E)
    rows = []
    for i in range(e, min(s, d + e - 1) + 1):
        proper = improper = cm_passes = tight = 0
        fails = []
        note = ""
        for t in range(trials):
            try:
                cert = residual_intersection(E, W, i, rng)
            except ModcoreError as exc:
                note = str(exc)
                break
            if not cert.proper:
                improper += 1
                continue
            proper += 1
            if cert.cm:
                cm_passes += 1
            else:
                fails.append(t)
            if cert.height_K == i - e + 1:
                tight += 1
        rows.append(AnRow(i, trials, proper, improper, cm_passes, tight, fails, note))
    return rows


# -- Ext vanishing ----------------------------------------------------------------------


class ExtVanishingReport(Record):
    ell: int
    e: int
    jrange: list
    verdicts: dict  # j -> True/False/"inconclusive"
    ok: bool
    vacuous: bool

    def refuted(self) -> bool:
        """Some verdict is a definite False (inconclusive does not refute)."""
        return any(v is False for v in self.verdicts.values())

    def inconclusive(self) -> bool:
        return any(v == "inconclusive" for v in self.verdicts.values())


def check_ext_vanishing(E: PresentedModule, t_cap: int = DEFAULT_T_CAP) -> ExtVanishingReport:
    """Ext^{j+1}(E^j, R) = 0 for 1 <= j <= ell-e-1 (vacuous when the range is empty).

    This reading checks one index per j, j + 1.  It is not the condition
    Polini-Ulrich put on ideals, depth R/I^j >= d - g - j + 1, which asks
    for Ext^i(R/I^j, R) = 0 at every i above g + j - 1; that condition is
    not checked here.

    For j >= 2 a depth certificate of pd E^j <= j (`_pd_at_most`) decides
    it first; E^j is resolved (`modalg.ext_module`) only when the
    certificate does not say so."""
    ell = analytic_spread(E)
    e = rank(E)
    js = list(range(1, ell - e))
    verdicts = {}
    ok = True
    for j in js:
        try:
            # [R(E)]_1 = E, E being torsion-free (analytic_spread's Rees
            # checks ask it), so j = 1 reuses the resolution of E itself
            Ej = E if 1 == j <= t_cap else graded_component(E, j, t_cap)
        except CapExceededError:
            verdicts[j] = "inconclusive"
            ok = False
            continue
        # for j >= 2, pd E^j <= j gives Ext^(j+1)(E^j, R) = 0 with no
        # resolution; without that certificate E^j is resolved
        verdicts[j] = (j > 1 and _pd_at_most(Ej, j)) or ext_module(Ej, j + 1)
        if not verdicts[j]:
            ok = False
    return ExtVanishingReport(ell, e, js, verdicts, ok, vacuous=not js)


# -- Cohen-Macaulayness of the Rees ring ---------------------------------------------------


class CmReesVerdict(Record):
    cm: bool
    depth: int
    dim: int
    note: str = "CM implies (S_2); a non-CM verdict does not refute (S_2)"


@_memo
def check_cm_rees(E: PresentedModule) -> CmReesVerdict:
    """Depth = dim test for R(E) over the ambient polynomial ring on x's and T's:
    the CM certificate on the Rees ideal, which is resolved for the reported
    depth only when the certificate does not say CM.  The verdict is computed
    once per module, next to the Rees data it is read from."""
    K = rees_ideal(E)
    dim = krull_dimension(K)
    dep = dim if _certified_cm(K, dim) else depth(cyclic_module(K.ring, Ideal(K.ring, K.groebner_basis())))
    return CmReesVerdict(cm=dep == dim, depth=dep, dim=dim)


# -- hypothesis report ------------------------------------------------------------------


class HypothesisReport(Record):
    module: str  # the module's name in the session; "E" from a library call
    e: int
    ell: int
    d: int
    mu: int
    gs: GsVerdict
    ext_vanishing: ExtVanishingReport
    cm_rees: CmReesVerdict
    orientability: str
    torsionfree: bool
    ok: bool


def hypothesis_report(E: PresentedModule) -> HypothesisReport:
    """The Theorem-4.2-style hypothesis suite for the balanced-core check."""
    e = rank(E)
    ell = analytic_spread(E)
    gs = check_gs(E, ell - e + 1)
    ext = check_ext_vanishing(E)
    cm = check_cm_rees(E)
    pd = projective_dimension(E)
    tf = is_torsionfree(E)
    ok = gs.ok and ext.ok and cm.cm and tf
    return HypothesisReport(
        module="E",
        e=e,
        ell=ell,
        d=E.ring.nvars,
        mu=mu(E),
        gs=gs,
        ext_vanishing=ext,
        cm_rees=cm,
        orientability=f"finite projective dimension (pd = {pd})",
        torsionfree=tf,
        ok=ok,
    )


# -- free quotient criterion (Prop-4.3 style) ------------------------------------------------


class FreeQuotientVerdict(Record):
    ok: bool
    mu_U: int
    ell: int
    K: Ideal
    entries_in_K: bool


def verify_free_quotient(E: PresentedModule, U: Submodule) -> FreeQuotientVerdict:
    """U/(U:E)U free of rank ell over R/(U:E): checked as I_1(phi_U) <= (U:E)
    on a minimal ell-generator presentation of U."""
    ell = analytic_spread(E)
    P = minimal_presentation(submodule_presentation(U))
    mu_U = P.n
    K = colon_into(U, E)
    # over the zero quotient ring (K = R) the criterion is vacuous
    entries_ok = K.is_unit() or (mu_U == ell and _entry_ideal(P) <= K)
    return FreeQuotientVerdict(ok=entries_ok, mu_U=mu_U, ell=ell, K=K, entries_in_K=entries_ok)


# -- balanced-core equivalences ------------------------------------------------------------


class BalancedReport(Record):
    """The defaults are those of a report whose hypotheses fail: no draw is
    made and no equivalence is tested."""

    status: str  # ok | failed-hypothesis | partial
    hypothesis: HypothesisReport
    reductions: int
    seed: object
    K_values: list = ()  # the ideals (U_i : E)
    independent: bool | None = None  # (iii): (U:E) same for all sampled U
    products_equal: bool | None = None  # (ii): (U:E)U = (U:E)E for each sample
    equals_core: bool | None = None  # (ii): these equal the Monte Carlo core
    core_samples: int | None = None
    core_label: str | None = None


def _balanced_products(E: PresentedModule, Us, Ks):
    """Whether K*U = K*E for each draw U and its colon K, with the pairs
    (K, K*E), one per distinct K.

    A scalar U passes with no coset basis when I_1(phi) <= K, phi E's
    presentation matrix and N its columns.  Write R^n in the basis of the
    echelon rows r_i of U's constants (`_change_of_generators`) and the free
    e_f: r_i is 1 at pivot i and 0 at the other pivots, so a vector's
    U-coordinates are its pivot coordinates.  For k in K, k*e_f = u + n with
    u in U and n in N; e_f has no pivot coordinate, so u = -(sum of
    n_i*r_i), n_i the pivot coordinates of n.  These are R-combinations of
    entries of phi, in K, so u lies in K*U; k*r_i lies there too, and r_i
    minus its pivot's e_i is a combination of the e_f.  Hence
    K*E <= K*U + N <= K*E.  The certificate only says True; without it the
    coset bases of K*U and K*E are compared."""
    entries = _entry_ideal(E)
    products = []
    KEs = []  # (K, K*E, I_1(phi) <= K) once per distinct K
    for U, K in zip(Us, Ks):
        known = next((x for x in KEs if x[0] == K), None)
        if known is None:
            known = (K, ideal_times_submodule(K, whole_module(E)), entries <= K)
            KEs.append(known)
        _, KE, certified = known
        products.append((certified and _scalar_quotient(U) is not None) or KE == ideal_times_submodule(K, U))
    return products, [(K, KE) for K, KE, _ in KEs]


def verify_balanced(E: PresentedModule, reductions: int, rng=None) -> BalancedReport:
    """Machine form of the balanced-core equivalences.

    Samples minimal reductions U_i, sets K_i = (U_i : E), and reports whether
    (a) all K_i agree, (b) K_i*U_i = K_i*E as submodules, (c) these equal the
    Monte Carlo core.  A refuted hypothesis gives status failed-hypothesis
    and no equivalence is asserted; an inconclusive sub-computation (a degree
    cap, a non-stabilizing core) marks the report partial instead.
    """
    if reductions < 1:
        raise ModcoreError(f"verify_balanced needs reductions >= 1, got {reductions}")
    seed = rng
    rng = _rng(rng)
    hyp = hypothesis_report(E)
    if not hyp.ok:
        ext = hyp.ext_vanishing
        status = "partial" if (ext.inconclusive() and not ext.refuted()
                               and hyp.gs.ok and hyp.cm_rees.cm and hyp.torsionfree) else "failed-hypothesis"
        return BalancedReport(status=status, hypothesis=hyp, reductions=reductions, seed=seed)
    Us = [random_reduction(E, rng=rng) for _ in range(reductions)]
    Ks = [colon_into(U, E) for U in Us]
    independent = all(K == Ks[0] for K in Ks[1:])
    products, KEs = _balanced_products(E, Us, Ks)
    products_equal = all(products)
    try:
        core, used = core_monte_carlo(E, rng=rng)
        equals_core = all(KE == core for _, KE in KEs)
        status = "ok"
    except RetryExhaustedError:
        used = None
        equals_core = None
        status = "partial"
    core_label = (
        "confirmed by balanced equivalences"
        if independent and products_equal and equals_core
        else "Monte Carlo upper approximation"
    )
    return BalancedReport(
        status=status,
        hypothesis=hyp,
        reductions=reductions,
        seed=seed,
        K_values=Ks,
        independent=independent,
        products_equal=products_equal,
        equals_core=equals_core,
        core_samples=used,
        core_label=core_label,
    )


# -- projective-dimension-one core formula ----------------------------------------------------


class Pd1CoreVerdict(Record):
    """The defaults are those of a verdict whose hypotheses are unmet."""

    status: str  # ok | hypotheses-unmet | partial (the core did not stabilize)
    pd: int
    torsionfree: bool
    gs_ok: bool
    r_value: int | None
    r_bound: int
    fitting_equals_core: bool | None = None
    colons_equal_fitting: bool | None = None
    fitting_ideal: Ideal | None = None  # Fitt_ell(E), once the hypotheses hold


def verify_pd1_core(E: PresentedModule, rng=None) -> Pd1CoreVerdict:
    """core(E) = Fitt_ell(E)*E and (U:E) = Fitt_ell(E), gated on pd = 1,
    torsionfreeness, G_{ell-e+1}, and the confirmed bound r(E) <= ell-e;
    the colon equality is tested on COLON_SAMPLES further reductions."""
    rng = _rng(rng)
    e = rank(E)
    ell = analytic_spread(E)
    pd = projective_dimension(E)
    tf = is_torsionfree(E)
    gs = check_gs(E, ell - e + 1)
    bound = ell - e
    U = random_reduction(E, rng=rng)
    r = reduction_number(U, E)
    if pd != 1 or not tf or not gs.ok or r is None or r > bound:
        return Pd1CoreVerdict(status="hypotheses-unmet", pd=pd, torsionfree=tf, gs_ok=gs.ok, r_value=r, r_bound=bound)
    F = fitting_ideal(E, ell)
    status, fit_core, colons_ok = "ok", None, None
    try:
        core, _ = core_monte_carlo(E, rng=rng)
    except RetryExhaustedError:
        # a core that does not stabilize within its cap decides neither
        # equality: the verdict is partial, as in verify_balanced
        status = "partial"
    else:
        fit_core = ideal_times_submodule(F, whole_module(E)) == core
        colons_ok = all(colon_into(random_reduction(E, rng=rng), E) == F for _ in range(COLON_SAMPLES))
    return Pd1CoreVerdict(
        status=status,
        pd=pd,
        torsionfree=tf,
        gs_ok=gs.ok,
        r_value=r,
        r_bound=bound,
        fitting_equals_core=fit_core,
        colons_equal_fitting=colons_ok,
        fitting_ideal=F,
    )


# -- ideal modules (Prop-2.7 style) ------------------------------------------------------------


class IdealModuleVerdicts(Record):
    mode: str
    e: int
    ell_I: int
    ell_E: int
    spread_additive: bool
    nonfree_codim: int
    height_I: int
    nonfree_matches_height: bool
    mu_I: int
    mu_E: int
    mu_expected: int
    mu_exceeds_spread: bool


def build_ideal_module(I: Ideal, e: int, mode: str = "plus_free"):
    """I + R(-D)^{e-1} or I + ... + I (e times), with the spread/codim verdicts."""
    if e < 1:
        raise ModcoreError("rank must be at least 1")
    if mode not in ("plus_free", "power_sum"):
        raise ModcoreError(f"unknown mode {mode!r}")
    EI = module_from_ideal(I)
    D = EI.common_degree()
    if D is None:
        raise DegreeMixError("ideal generators must share one degree")
    if mode == "plus_free":
        E = direct_sum(EI, free_module(I.ring, e - 1), twist=D) if e > 1 else EI
        mu_expected = mu(EI) + e - 1
    else:
        E = EI
        for _ in range(e - 1):
            E = direct_sum(E, EI)
        mu_expected = e * mu(EI)
    ell_I = analytic_spread(EI)
    ell_E = analytic_spread(E)
    ht_I = height(I)
    codim = height(fitting_ideal(E, e))
    verdicts = IdealModuleVerdicts(
        mode=mode,
        e=e,
        ell_I=ell_I,
        ell_E=ell_E,
        spread_additive=ell_E == ell_I + e - 1,
        nonfree_codim=codim,
        height_I=ht_I,
        nonfree_matches_height=codim == ht_I,
        mu_I=mu(EI),
        mu_E=mu(E),
        mu_expected=mu_expected,
        mu_exceeds_spread=mu(E) > ell_E,
    )
    return E, verdicts
