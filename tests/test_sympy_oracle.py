"""Differential oracle for the kernel: reduced Groebner bases, intersections
and colons on seeded random small homogeneous ideals over GF(32003), compared
with sympy's modular `groebner`, and the primality test behind every ring's
characteristic, compared with `sympy.isprime`.  sympy is used by this test
only, so the runtime stays free of dependencies.

The soundness tests elsewhere (C <= I cap J, IJ <= C, Q*I <= J) would still
pass for a route that lost generators; equal reduced bases would not.
"""

import pytest

sympy = pytest.importorskip("sympy")

from modcore.groebner import Ideal, intersect, quotient_ideal
from modcore.poly import PolyRing, _is_prime

from conftest import P, random_homogeneous_poly, seeded

CASES = 12


def _to_sympy(f, syms):
    return sympy.Poly.from_dict(dict(f.terms), *syms, modulus=P).as_expr()


def _canon_ours(I):
    return frozenset(frozenset(g.terms) for g in I.groebner_basis())


def _canon_sympy(exprs, syms):
    """Reduced grevlex basis of the ideal spanned by `exprs`, in the form of
    `_canon_ours`."""
    G = sympy.groebner(exprs, *syms, order="grevlex", modulus=P)
    return frozenset(
        frozenset((m, int(c) % P) for m, c in g.terms()) for g in G.polys
    )


def _sympy_intersect(F, G, syms):
    """F cap G: eliminate t from t*F + (1-t)*G under lex with t first."""
    t = sympy.Symbol("t")
    B = sympy.groebner([t * f for f in F] + [(1 - t) * g for g in G], t, *syms, order="lex", modulus=P)
    return [g for g in B.exprs if not g.has(t)]


def _sympy_quotient(J, I, syms):
    """(J : I) as the intersection over g in I of (J cap (g)) / g."""
    result = None
    for g in I:
        Qg = []
        for h in _sympy_intersect(J, [g], syms):
            q, r = sympy.div(h, g, *syms, modulus=P)
            assert r == 0
            Qg.append(q)
        result = Qg if result is None else _sympy_intersect(result, Qg, syms)
    return result


def _random_ideals(seed):
    ring = PolyRing(P, ("x", "y", "z"))
    syms = sympy.symbols("x y z")
    rng = seeded(seed)
    I = Ideal(ring, [random_homogeneous_poly(ring, rng, rng.randrange(1, 3)) for _ in range(rng.randrange(1, 4))])
    J = Ideal(ring, [random_homogeneous_poly(ring, rng, rng.randrange(1, 3)) for _ in range(rng.randrange(1, 4))])
    return I, J, syms


@pytest.mark.parametrize("seed", range(CASES))
def test_reduced_groebner_basis_matches_sympy(seed):
    I, J, syms = _random_ideals(900 + seed)
    for K in (I, J, I + J):
        assert _canon_ours(K) == _canon_sympy([_to_sympy(g, syms) for g in K.gens], syms)


@pytest.mark.parametrize("seed", range(CASES))
def test_intersect_matches_sympy_elimination(seed):
    I, J, syms = _random_ideals(900 + seed)
    F = [_to_sympy(g, syms) for g in I.gens]
    G = [_to_sympy(g, syms) for g in J.gens]
    assert _canon_ours(intersect(I, J)) == _canon_sympy(_sympy_intersect(F, G, syms), syms)


@pytest.mark.parametrize("seed", range(CASES))
def test_quotient_matches_sympy(seed):
    I, J, syms = _random_ideals(900 + seed)
    # (J*I + (l*g) : I) contains J + (l) * (g : I), for g in I and a linear
    # form l, so the colon is neither J nor the unit ideal in general
    l = random_homogeneous_poly(I.ring, seeded(seed), 1)
    J = J * I + Ideal(I.ring, [l * I.gens[0]])
    F = [_to_sympy(g, syms) for g in I.gens]
    G = [_to_sympy(g, syms) for g in J.gens]
    assert _canon_ours(quotient_ideal(J, I)) == _canon_sympy(_sympy_quotient(G, F, syms), syms)


def test_primality_matches_sympy():
    # every n up to 10^5, then the strong pseudoprimes to the first bases
    # (2047 to base 2, 1373653 to 2 and 3, 3215031751 to 2, 3, 5 and 7,
    # 3825123056546413051 to every base up to 23), the Carmichael number 561,
    # and primes near 2^64
    assert [n for n in range(10**5 + 1) if _is_prime(n)] == list(sympy.primerange(0, 10**5 + 1))
    for n in (561, 2047, 1373653, 3215031751, 3825123056546413051, 1000000000000000003,
              2**61 - 1, 2**64 - 59, 2**64 - 1):
        assert _is_prime(n) == sympy.isprime(n), n
