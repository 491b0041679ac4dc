"""Rees-algebra layer: symmetric/Rees/fiber ideals, analytic spread, graded
components, reduction tests, reduction numbers, Monte Carlo cores.

The Rees ideal is the saturation of the symmetric-algebra ideal at one fixed
nonzero maximal minor of the presentation: inverting such a minor frees the
module, so that saturation removes exactly the torsion of S(E).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import (
    CapExceededError,
    DegreeMixError,
    ModcoreError,
    RetryExhaustedError,
    TorsionError,
)
from .groebner import Ideal, hilbert_function, krull_dimension, saturate, _monomials_of_degree
from .modalg import (
    PresentedModule,
    Submodule,
    _memo,
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
RETRY_CAP = 32
STABILIZATION_WINDOW = 3  # unchanged draws in a row that end core_monte_carlo


def _rng(seed):
    """`seed` itself when it is a generator, else one seeded by it; no seed
    is an error, so that every randomized result can be reproduced."""
    if seed is None:
        raise ModcoreError("randomized operations require a seed")
    return seed if isinstance(seed, random.Random) else random.Random(seed)


def _tvar_base(ring: PolyRing) -> str:
    base = "T"
    while any(v.startswith(base) and v[len(base):].isdigit() for v in ring.vars):
        base += "T"
    return base


class ReesPackage:
    """Rees data of a module generated in a single common degree."""

    def __init__(self, E: PresentedModule):
        if E.n == 0:
            raise ModcoreError("Rees data of the zero module is not defined")
        if rank(E) <= 0:
            raise ModcoreError("Rees machinery needs rank(E) > 0")
        if not is_torsionfree(E):
            raise TorsionError("module has torsion; quotient the torsion submodule first")
        D = E.common_degree()
        if D is None:
            raise DegreeMixError("generators must sit in one common degree")
        self.E = E
        self.ring = E.ring
        self.gen_degree = D
        base = _tvar_base(self.ring)
        self.tvars = tuple(f"{base}{i + 1}" for i in range(E.n))
        self.big_ring = PolyRing(self.ring.char, self.ring.vars + self.tvars)
        self.fiber_ring = PolyRing(self.ring.char, self.tvars)
        self.nx = self.ring.nvars
        self._cache = {}

    # -- ideals -------------------------------------------------------------

    @_memo
    def sym_ideal(self) -> Ideal:
        big = self.big_ring
        gens = []
        for col in self.E.relations:
            g = big.zero()
            for i, f in enumerate(col):
                if f:
                    g = g + map_poly(f, big) * big.var(self.nx + i)
            if g:
                gens.append(g)
        return Ideal(big, gens)

    def inverting_element(self):
        return map_poly(first_nonzero_maximal_minor(self.E), self.big_ring)

    @_memo
    def rees_ideal(self) -> Ideal:
        sym = self.sym_ideal()
        return sym if sym.is_zero() else saturate(sym, self.inverting_element())

    @_memo
    def fiber_ideal(self) -> Ideal:
        """Image of the Rees ideal in k[T] under x -> 0."""
        gens = []
        for g in self.rees_ideal().groebner_basis():
            kept = {m: c for m, c in g.terms if not any(m[: self.nx])}
            if kept:
                gens.append(map_poly(self.big_ring.from_dict(kept), self.fiber_ring))
        return Ideal(self.fiber_ring, gens)

    @_memo
    def analytic_spread(self) -> int:
        return krull_dimension(self.fiber_ideal())

    # -- T-graded structure ---------------------------------------------------

    def _split_t(self, g):
        """Big-ring polynomial -> {T-monomial: R-coefficient dict}."""
        nx = self.nx
        out = {}
        for m, c in g.terms:
            tm = m[nx:]
            out.setdefault(tm, {})[m[:nx]] = c
        return out

    def _tdeg(self, g) -> int:
        m = g.lm()
        return sum(m[self.nx:])

    def t_monomials(self, j: int):
        """T-monomials of degree j, sorted descending in the fiber order."""
        monos = list(_monomials_of_degree(len(self.tvars), j))
        monos.sort(key=self.fiber_ring.order.key, reverse=True)
        return monos

    def component_relations(self, j: int):
        """Columns over the degree-j T-monomial basis generating [rees]_j."""
        ring = self.ring
        basis = {m: i for i, m in enumerate(self.t_monomials(j))}
        cols = []
        for g in self.rees_ideal().groebner_basis():
            t = self._tdeg(g)
            if t > j:
                continue
            pieces = self._split_t(g)
            for beta in _monomials_of_degree(len(self.tvars), j - t):
                col = [ring.zero()] * len(basis)
                for tm, xd in pieces.items():
                    shifted = tuple(a + b for a, b in zip(tm, beta))
                    col[basis[shifted]] = ring.from_dict(xd)
                cols.append(tuple(col))
        return cols

    def graded_component(self, j: int, t_cap: int = DEFAULT_T_CAP) -> PresentedModule:
        """E^j = [R(E)]_j, presented over R on the degree-j T-monomials."""
        if j < 1:
            raise ModcoreError("graded components are defined for j >= 1")
        if j > t_cap:
            raise CapExceededError(f"T-degree {j} exceeds the cap {t_cap}")
        return self._component(j)

    @_memo
    def _component(self, j: int) -> PresentedModule:
        degrees = (self.gen_degree * j,) * len(self.t_monomials(j))
        return PresentedModule(self.ring, degrees, self.component_relations(j))

    # -- reductions -------------------------------------------------------------

    def _scalar_coords(self, vec):
        """Scalar coordinate vector of a degree-D element (constant parts)."""
        out = []
        for f in vec:
            if f and not f.is_constant():
                raise DegreeMixError(
                    "reduction elements must be field combinations of the generators"
                )
            out.append(f.constant_coeff() if f else 0)
        return out

    def fiber_quotient(self, U: Submodule, coords):
        """F(E)/U*F(E) = k[T]/(Fib + L) as phi(Fib) in k[T_free], L the linear
        forms with the rows coords(v) of U's generators v as coefficients;
        None when L spans k[T]_1, that is when U covers F(E)_1.

        Row reduction of L over GF(p) writes each pivot variable as a linear
        form in the free ones; phi is that substitution, so the quotient
        keeps its grading."""
        if U.parent is not self.E:
            raise ModcoreError("U is not a submodule of E")
        p = self.ring.char
        n = len(self.tvars)
        echelon = _row_echelon([coords(v) for v in U.gens], n, p)
        pivots = {col for col, _ in echelon}
        free = [i for i in range(n) if i not in pivots]
        if not free:
            return None
        target = PolyRing(p, [self.tvars[i] for i in free])
        units = [g.lm() for g in target.gens()]
        forms = [target.from_dict({u: -row[i] for u, i in zip(units, free)}) for _, row in echelon]
        cache = {}
        phi = [substitute(g, target, free, forms, cache) for g in self.fiber_ideal().groebner_basis()]
        return Ideal(target, phi)

    def is_reduction(self, U: Submodule) -> bool:
        """Fiber criterion: U reduces E iff its image in F(E)_1, the linear
        forms with the constant parts of U's generators as coefficients, is a
        homogeneous system of parameters of F(E), that is
        dim F(E)/U*F(E) <= 0."""
        quotient = self.fiber_quotient(U, lambda v: [f.constant_coeff() if f else 0 for f in v])
        return quotient is None or krull_dimension(quotient) <= 0


@_memo
def rees_package(E: PresentedModule) -> ReesPackage:
    return ReesPackage(E)


def sym_ideal(E: PresentedModule) -> Ideal:
    return rees_package(E).sym_ideal()


def rees_ideal(E: PresentedModule) -> Ideal:
    return rees_package(E).rees_ideal()


def fiber_ideal(E: PresentedModule) -> Ideal:
    return rees_package(E).fiber_ideal()


def analytic_spread(E: PresentedModule) -> int:
    return rees_package(E).analytic_spread()


def graded_component(E: PresentedModule, j: int, t_cap: int = DEFAULT_T_CAP) -> PresentedModule:
    return rees_package(E).graded_component(j, t_cap)


def is_reduction(U: Submodule, E: PresentedModule) -> bool:
    return rees_package(E).is_reduction(U)


def random_reduction(E: PresentedModule, count: int | None = None, rng=None) -> Submodule:
    """`count` random field combinations of the generators, retried until the
    fiber criterion certifies a reduction."""
    if count is not None and count < 1:
        raise ModcoreError(f"random_reduction needs count >= 1, got {count}")
    rng = _rng(rng)
    rp = rees_package(E)
    if count is None:
        count = rp.analytic_spread()
    ring = E.ring
    p = ring.char
    for _ in range(RETRY_CAP):
        gens = []
        for _ in range(count):
            gens.append(tuple(ring.const(rng.randrange(p)) for _ in range(E.n)))
        U = span(E, gens)
        if rp.is_reduction(U):
            return U
    raise RetryExhaustedError(
        f"no reduction with {count} elements after {RETRY_CAP} draws; "
        "analytic spread may be wrong or the field too small"
    )


@dataclass
class ReductionNumber:
    value: int | None
    exact: bool
    max_degree: int

    def __repr__(self):
        return f"r = {self.value}" if self.exact else f"r >= {self.max_degree}"


def reduction_number(U: Submodule, E: PresentedModule, max_degree: int = DEFAULT_T_CAP) -> ReductionNumber:
    """Least r <= max_degree with U * E^r = E^(r+1).

    By graded Nakayama that equality holds iff F(E)/U*F(E) vanishes in
    degree r + 1, read off the Hilbert function of `fiber_quotient`; a
    standard graded algebra that vanishes in one degree vanishes in every
    higher one.  U's generators must be field combinations of E's.
    """
    if max_degree < 0:
        raise ModcoreError(f"reduction_number needs max_degree >= 0, got {max_degree}")
    rp = rees_package(E)
    quotient = rp.fiber_quotient(U, rp._scalar_coords)
    for r in range(max_degree + 1):
        if quotient is None or hilbert_function(quotient, r + 1) == 0:
            return ReductionNumber(r, True, max_degree)
    return ReductionNumber(None, False, max_degree)


def _row_echelon(rows, width, p):
    """Reduced row echelon form over GF(p) of `rows` (each of length
    `width`), as (pivot column, row) for its nonzero rows, pivots ascending:
    each row is 1 at its pivot and 0 at every other pivot.  Its length is
    the rank."""
    rows = [list(r) for r in rows]
    rk = 0
    pivots = []
    for col in range(width):
        piv = None
        for k in range(rk, len(rows)):
            if rows[k][col] % p:
                piv = k
                break
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        inv = pow(rows[rk][col], -1, p)
        rows[rk] = [(v * inv) % p for v in rows[rk]]
        for k in range(len(rows)):
            if k != rk and rows[k][col] % p:
                f = rows[k][col]
                rows[k] = [(a - f * b) % p for a, b in zip(rows[k], rows[rk])]
        pivots.append(col)
        rk += 1
        if rk == len(rows):
            break
    return list(zip(pivots, rows))


def core_monte_carlo(E: PresentedModule, samples: int = 12, rng=None):
    """Intersection of successive random minimal reductions, stopped once
    STABILIZATION_WINDOW draws in a row leave it unchanged.

    Returns (submodule, samples_used).  The value is a Monte Carlo upper
    approximation of core(E) unless a theorem route confirms it.
    """
    if samples < STABILIZATION_WINDOW:
        raise ModcoreError(f"core_monte_carlo needs samples >= {STABILIZATION_WINDOW}, got {samples}")
    rng = _rng(rng)
    rp = rees_package(E)
    if rp.analytic_spread() == mu(E):
        # no proper reductions: core(E) = E, and every draw returns E
        return whole_module(E), 0
    current = whole_module(E)
    stable = 0
    for k in range(1, samples + 1):
        U = random_reduction(E, rng=rng)
        nxt = submodule_intersect(current, U)
        if nxt == current:
            stable += 1
        else:
            stable = 0
            current = nxt
        if stable >= STABILIZATION_WINDOW:
            return current, k
    raise RetryExhaustedError(f"core failed to stabilize within {samples} samples")
