"""Rees-algebra layer: symmetric/Rees/fiber ideals, analytic spread, graded
components, reduction tests, reduction numbers, Monte Carlo cores.

The Rees ideal is the saturation of the symmetric-algebra ideal at one fixed
nonzero maximal minor of the presentation: inverting such a minor frees the
module, so that saturation removes exactly the torsion of S(E).  Where that
saturation would need an extra variable, the Jacobian-dual ideal is taken
instead whenever a certificate proves it equal (`_certifies_rees_ideal`).

Every Rees datum is a function of E, computed once and kept on E by
`groebner._memo`.
"""

from __future__ import annotations

import random
from math import prod

from .errors import (
    CapExceededError,
    DegreeMixError,
    ModcoreError,
    RetryExhaustedError,
    TorsionError,
)
from .groebner import (
    RETRY_CAP,
    Ideal,
    _back_substitute,
    _certified_cm,
    _echelon_add,
    _memo,
    _monomials_of_degree,
    hilbert_function,
    krull_dimension,
    saturate,
)
from .modalg import (
    PresentedModule,
    Submodule,
    _basis_submodule,
    _change_of_generators,
    _gs_heights,
    _nonzero_minors,
    _quotient_basis,
    _scalar_quotient,
    first_nonzero_maximal_minor,
    is_torsionfree,
    mu,
    rank,
    span,
    submodule_intersect,
    whole_module,
)
from .poly import PolyRing, map_poly, substitute

DEFAULT_T_CAP = 6
STABILIZATION_WINDOW = 3  # unchanged draws in a row that end core_monte_carlo


def _rng(seed):
    """`seed` itself when it is a generator, else one seeded by it; no seed
    is an error, so that every randomized result can be reproduced."""
    if seed is None:
        raise ModcoreError("randomized operations require a seed")
    return seed if isinstance(seed, random.Random) else random.Random(seed)


@_memo
def _rees_rings(E: PresentedModule):
    """(R[T], k[T]), one T_i per generator of E, once E passes the checks
    that every Rees datum needs."""
    if E.n == 0:
        raise ModcoreError("Rees data of the zero module is not defined")
    if rank(E) <= 0:
        raise ModcoreError("Rees machinery needs rank(E) > 0")
    if not is_torsionfree(E):
        raise TorsionError("module has torsion; quotient the torsion submodule first")
    if E.common_degree() is None:
        raise DegreeMixError("generators must sit in one common degree")
    ring = E.ring
    base = "T"
    while any(v.startswith(base) and v[len(base):].isdigit() for v in ring.vars):
        base += "T"
    tvars = tuple(f"{base}{i + 1}" for i in range(E.n))
    return PolyRing(ring.char, ring.vars + tvars), PolyRing(ring.char, tvars)


# -- ideals -------------------------------------------------------------------


@_memo
def sym_ideal(E: PresentedModule) -> Ideal:
    big, _ = _rees_rings(E)
    nx = E.ring.nvars
    gens = []
    for col in E.relations:
        g = big.zero()
        for i, f in enumerate(col):
            if f:
                g = g + map_poly(f, big) * big.var(nx + i)
        if g:
            gens.append(g)
    return Ideal(big, gens)


@_memo
def rees_ideal(E: PresentedModule) -> Ideal:
    """The saturation of `sym_ideal(E)` at the fixed maximal minor f, or,
    where f is no monomial, so that the saturation would take Rabinowitsch's
    extra variable, the Jacobian-dual ideal whenever its certificate holds
    (`_certifies_rees_ideal`)."""
    big, _ = _rees_rings(E)
    sym = sym_ideal(E)
    if sym.is_zero():
        return sym
    f = map_poly(first_nonzero_maximal_minor(E), big)
    # sym is homogeneous, so a monomial f takes the graded divide-out
    if len(f.terms) > 1:
        J = _jacobian_dual_ideal(E)
        if _certifies_rees_ideal(E, J):
            return J
    return saturate(sym, f)


def _jacobian_dual_ideal(E: PresentedModule) -> Ideal:
    """J = L + I_d(B), L = `sym_ideal(E)` and d = dim R, for the Jacobian
    dual B of E's presentation phi: [T]*phi = [x]*B, a d x m matrix over
    R[T] (Vasconcelos, J. reine angew. Math. 418, 1991).  Each term of a
    generator of L, from a column of positive degree, goes to the row of
    the first variable x_k it contains, divided by x_k; a column of
    constants has no such row and stays out of B.  J is L when B has fewer
    than d columns.

    J lies in the Rees ideal A by Cramer's rule: for a d x d submatrix B'
    of B, [x]*B' lies in L, so x_k*det(B') lies in L <= A for every k; A is
    prime and meets R in 0, so det(B') lies in A."""
    big, _ = _rees_rings(E)
    nx = E.ring.nvars
    L = sym_ideal(E)
    cols = []
    for g in L.gens:
        col = [{} for _ in range(nx)]
        for m, c in g.terms:
            k = next((k for k in range(nx) if m[k]), None)
            if k is None:
                break
            col[k][m[:k] + (m[k] - 1,) + m[k + 1:]] = c
        else:
            cols.append(tuple(map(big.from_dict, col)))
    if len(cols) < nx:
        return L
    B = PresentedModule(big, (0,) * nx, cols, _validate=False)
    return L + Ideal(big, _nonzero_minors(B, nx))


def _certifies_rees_ideal(E: PresentedModule, J: Ideal) -> bool:
    """Whether J, an ideal of R[T] between L = `sym_ideal(E)` and the Rees
    ideal A (as `_jacobian_dual_ideal(E)` is), equals A.  With d = dim R and
    e = rank E, it does when
      (a) dim R[T]/J = d + e and R[T]/J is Cohen-Macaulay (`_certified_cm`),
      (b) E satisfies G_d (`modalg._gs_heights`), and
      (c) dim k[T]/(J mod m) < d + e, m = (x).
    By (a) J is unmixed: every associated prime P of J has dim d + e.  Let
    q = P meet R, with mu(E_q) = t + e.  R[T]/P, a quotient of S(E), has
    dim d + e <= dim R/q + mu(E_q), so t >= ht q.  If P contains
    Fitt_e(E), then t >= 1 and q contains Fitt_(t+e-1)(E), of height
    >= t + 1 for t <= d - 1 by (b); so t >= d, and q = m (q contains the
    m-primary Fitt_(d+e-2)(E) when d >= 2, and is a nonzero homogeneous
    prime of k[x] when d = 1).  Then dim R[T]/P <= dim k[T]/(J mod m)
    < d + e by (c), which is absurd.  So no associated prime of J contains
    the fixed minor f, J = J : f^inf, and J contains L : f^inf = A.

    The fiber image is memoized on J (`_fiber_image`): when J is A it is
    the fiber ideal, with its dimension, the analytic spread, known."""
    _, fiber = _rees_rings(E)
    d = E.ring.nvars
    top = d + rank(E)
    return (krull_dimension(_fiber_image(J, fiber)) < top
            and _gs_heights(E, d)[0] is None
            and krull_dimension(J) == top
            and _certified_cm(J, top) is True)


@_memo
def _fiber_image(K: Ideal, fiber: PolyRing) -> Ideal:
    """Image of K, an ideal of R[T], in k[T] = `fiber` under x -> 0.  That
    map is onto, so the images of any generators of K generate it: no
    basis of K is taken."""
    nx = K.ring.nvars - fiber.nvars
    gens = []
    for g in K.gens:
        kept = {m[nx:]: c for m, c in g.terms if not any(m[:nx])}
        if kept:
            gens.append(fiber.from_dict(kept))
    return Ideal(fiber, gens)


@_memo
def fiber_ideal(E: PresentedModule) -> Ideal:
    """Image of the Rees ideal in k[T] under x -> 0 (`_fiber_image`)."""
    return _fiber_image(rees_ideal(E), _rees_rings(E)[1])


@_memo
def analytic_spread(E: PresentedModule) -> int:
    return krull_dimension(fiber_ideal(E))


# -- T-graded structure ---------------------------------------------------------


def _t_monomials(E: PresentedModule, j: int):
    """T-monomials of degree j, sorted descending in the fiber order."""
    monos = list(_monomials_of_degree(E.n, j))
    monos.sort(key=_rees_rings(E)[1].order.key, reverse=True)
    return monos


def component_relations(E: PresentedModule, j: int):
    """Columns over the degree-j T-monomial basis generating [rees]_j."""
    ring = E.ring
    nx = ring.nvars
    basis = {m: i for i, m in enumerate(_t_monomials(E, j))}
    cols = []
    for g in rees_ideal(E).groebner_basis():
        t = sum(g.lm()[nx:])
        if t > j:
            continue
        pieces = {}  # T-monomial -> its R-coefficient as a term dict
        for m, c in g.terms:
            pieces.setdefault(m[nx:], {})[m[:nx]] = c
        for beta in _monomials_of_degree(E.n, j - t):
            col = [ring.zero()] * len(basis)
            for tm, xd in pieces.items():
                shifted = tuple(a + b for a, b in zip(tm, beta))
                col[basis[shifted]] = ring.from_dict(xd)
            cols.append(tuple(col))
    return cols


def graded_component(E: PresentedModule, j: int, t_cap: int = DEFAULT_T_CAP) -> PresentedModule:
    """E^j = [R(E)]_j, presented over R on the degree-j T-monomials."""
    _rees_rings(E)  # E's checks come before those of j
    if j < 1:
        raise ModcoreError("graded components are defined for j >= 1")
    if j > t_cap:
        raise CapExceededError(f"T-degree {j} exceeds the cap {t_cap}")
    return _component(E, j)


@_memo
def _component(E: PresentedModule, j: int) -> PresentedModule:
    degrees = (E.common_degree() * j,) * len(_t_monomials(E, j))
    return PresentedModule(E.ring, degrees, component_relations(E, j))


# -- reductions -------------------------------------------------------------------


def _fiber_positions(U: Submodule, E: PresentedModule):
    """`_change_of_generators(U)`, once E passes the Rees checks and U is a
    submodule of E, in that order."""
    _rees_rings(E)
    if U.parent is not E:
        raise ModcoreError("U is not a submodule of E")
    return _change_of_generators(U)


def fiber_quotient(U: Submodule, E: PresentedModule):
    """F(E)/U*F(E) = k[T]/(Fib + L) as phi(Fib) in k[T_free], L the linear
    forms with the constant parts of U's generators as coefficients; None
    when L spans k[T]_1, that is when U covers F(E)_1.

    Row reduction of L over GF(p) writes each pivot variable as a linear
    form in the free ones (`modalg._change_of_generators`, the echelon that
    also takes colons by a scalar U); phi is that
    substitution, so the quotient keeps its grading."""
    free, images = _fiber_positions(U, E)
    _, fiber = _rees_rings(E)
    p = E.ring.char
    if not free:
        return None
    target = PolyRing(p, [fiber.vars[i] for i in free])
    units = [g.lm() for g in target.gens()]
    kept = set(free)
    forms = [target.from_dict({units[k]: c for k, c in images[i]}) for i in range(E.n) if i not in kept]
    cache = {}
    phi = [substitute(g, target, free, forms, cache) for g in fiber_ideal(E).groebner_basis()]
    return Ideal(target, phi)


def is_reduction(U: Submodule, E: PresentedModule) -> bool:
    """Fiber criterion: U reduces E iff its image in F(E)_1, the linear
    forms with the constant parts of U's generators as coefficients, is a
    homogeneous system of parameters of F(E), that is
    dim F(E)/U*F(E) <= 0.

    With one free position each e_i is c_i*e_free modulo L, and the quotient
    is k[T]/J in one variable, J the image of Fib under T_i -> c_i*T: of
    dimension <= 0 exactly when J is nonzero.  That map sends a form g of
    degree k to g(c)*T^k, and the fiber basis is homogeneous, so U reduces E
    iff some element of it does not vanish at the point c = a_U
    (`_core_row`)."""
    free, _ = _fiber_positions(U, E)
    if len(free) == 1:
        point = _core_row(U, None)
        return any(_value_at(g, point, E.ring.char) for g in fiber_ideal(E).groebner_basis())
    quotient = fiber_quotient(U, E)
    return quotient is None or krull_dimension(quotient) <= 0


def _value_at(f, point, p):
    """f(point) in GF(p)."""
    return sum(c * prod(pow(a, e, p) for a, e in zip(point, m)) for m, c in f.terms) % p


def random_reduction(E: PresentedModule, count: int | None = None, rng=None) -> Submodule:
    """`count` random field combinations of the generators, retried until the
    fiber criterion certifies a reduction.

    When count = ell(E) = mu(E), F(E) is a polynomial ring in mu variables,
    so every reduction U has U + mE = E, hence U = E: that is returned as
    `whole_module(E)`, with no draw (as in `core_monte_carlo`)."""
    if count is not None and count < 1:
        raise ModcoreError(f"random_reduction needs count >= 1, got {count}")
    rng = _rng(rng)
    if count is None:
        count = analytic_spread(E)
    if count == analytic_spread(E) == mu(E):
        return whole_module(E)
    ring = E.ring
    p = ring.char
    for _ in range(RETRY_CAP):
        draws = [[rng.randrange(p) for _ in range(E.n)] for _ in range(count)]
        U = span(E, [tuple(map(ring.const, row)) for row in draws])
        U._cache["draws"] = draws  # its GF(p) rows, for `_change_of_generators`
        if is_reduction(U, E):
            return U
    raise RetryExhaustedError(
        f"no reduction with {count} elements after {RETRY_CAP} draws; "
        "analytic spread may be wrong or the field too small"
    )


def reduction_number(U: Submodule, E: PresentedModule, max_degree: int = DEFAULT_T_CAP) -> int | None:
    """Least r <= max_degree with U * E^r = E^(r+1); None when no r up to
    max_degree has it.

    By graded Nakayama that equality holds iff F(E)/U*F(E) vanishes in
    degree r + 1, read off the Hilbert function of `fiber_quotient`; a
    standard graded algebra that vanishes in one degree vanishes in every
    higher one.  U's generators must be field combinations of E's.
    """
    if max_degree < 0:
        raise ModcoreError(f"reduction_number needs max_degree >= 0, got {max_degree}")
    quotient = fiber_quotient(U, E)
    if _scalar_quotient(U) is None:
        raise DegreeMixError("reduction elements must be field combinations of the generators")
    for r in range(max_degree + 1):
        if quotient is None or hilbert_function(quotient, r + 1) == 0:
            return r
    return None


def _core_row(U: Submodule, J):
    """a_U in GF(p)^n when U has one free position and (U : E) has the
    reduced basis J, or any colon when J is None: the images of the e_i in
    R^free (`modalg._change_of_generators`), so that v lies in U + N, N the
    relations, exactly when a_U.v lies in (U : E).  Else None."""
    free, images = _change_of_generators(U)
    if len(free) != 1 or J is not None and _quotient_basis(U) != J:
        return None
    return [coeffs[0][1] if coeffs else 0 for coeffs in images]


def _row_basis(E: PresentedModule, rows, J):
    """The reduced basis of {v in R^n : A.v in J^r}, for A the GF(p) rows
    `rows` of rank r, an `_echelon_add` echelon {q: row} on sparse rows
    {i: c} (so q is the last nonzero position of its row), and J a proper
    ideal by its reduced basis.

    In the reduced form of that echelon (`_back_substitute`), each row is 1
    at its pivot q, 0 at the other pivots and 0 after q.  The
    module is spanned by J*e_q, q a pivot, and by k_f = e_f - sum A_qf*e_q,
    f no pivot and A_qf the entry at f of the row with pivot q, which A
    sends to 0: subtracting sum v_f*k_f leaves a vector
    on the pivots, whose coordinates are its values under A.  Position 0
    is the largest, so k_f leads at e_f and its tail lies on later pivots.
    Leading terms at different positions make no S-pair, J's basis is one
    at each pivot, and 1 is no leading term of J: this is the reduced
    basis, listed by ascending leading term as `buchberger` lists it."""
    n = E.n
    p = E.ring.char
    unit = (0,) * E.ring.nvars
    pivots = _back_substitute(rows, p)
    basis = []
    for pos in reversed(range(n)):
        if pos in pivots:
            basis += [{(pos, m): c for (_, m), c in g.items()} for g in J]
        else:
            tail = {(q, unit): -row[pos] % p for q, row in sorted(pivots.items()) if pos in row}
            basis.append({(pos, unit): 1, **tail})
    return basis


def core_monte_carlo(E: PresentedModule, samples: int = 12, rng=None):
    """Intersection of successive random minimal reductions, stopped once
    STABILIZATION_WINDOW draws in a row leave it unchanged.

    Returns (submodule, samples_used).  The value is a Monte Carlo upper
    approximation of core(E) unless a theorem route confirms it, or unless
    samples_used is 0: when ell(E) = mu(E), F(E) is a polynomial ring in mu
    variables, so every reduction U has U + mE = E, hence U = E and
    core(E) = E over any field.

    Otherwise no draw U is E, as it has ell < mu generators, so its colon
    J = (U : E) is proper.  While every draw has one free position and the
    same J, the intersection is kept as GF(p) rows: U + N, N the relations,
    is {v : a_U.v in J} (`_core_row`), so the intersection C of the draws
    has C + N = {v : A.v in J^r}, A an echelon of their rows a_U to which
    each draw adds its own (`_echelon_add`).  A draw leaves C unchanged
    exactly when its row a lies in A's row space, that is when it adds none:
    if a = l.A, then a.v = l.A.v lies in J; if not, a constant c in the
    kernel of A has a.c != 0, and c lies in C while the nonzero constant a.c
    does not lie in J.  So the draws and the stop are those of the meet
    loop, and C is returned by its reduced basis (`_row_basis`).  The first
    draw that leaves this route turns the rows into C, and the meets take
    over from there.
    """
    if samples < STABILIZATION_WINDOW:
        raise ModcoreError(f"core_monte_carlo needs samples >= {STABILIZATION_WINDOW}, got {samples}")
    rng = _rng(rng)
    if analytic_spread(E) == mu(E):
        return whole_module(E), 0
    p = E.ring.char
    rows, J = {}, None  # the route's A, an `_echelon_add` echelon, and J
    current = None  # C once a draw leaves the route
    stable = 0
    for k in range(1, samples + 1):
        U = random_reduction(E, rng=rng)
        row = _core_row(U, J) if current is None else None
        if row is not None:
            J = _quotient_basis(U)
            stable = 0 if _echelon_add(rows, {i: c for i, c in enumerate(row) if c}, p) else stable + 1
        elif current is None and not rows:
            # E meets U + N in U + N, so U itself stands for it
            current = U
        else:
            if current is None:
                current = _basis_submodule(E, _row_basis(E, rows, J))
            # the draw leaves current as it is exactly when current <= U + N
            if current <= U:
                stable += 1
            else:
                stable = 0
                current = submodule_intersect(current, U)
        if stable >= STABILIZATION_WINDOW:
            # by its reduced basis: in closed form on the route, and already
            # known to a meet result
            return _basis_submodule(E, _row_basis(E, rows, J) if current is None else current.coset_gb()), k
    raise RetryExhaustedError(f"core failed to stabilize within {samples} samples")
