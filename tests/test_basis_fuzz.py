"""Property test: a colon or an intersection of small homogeneous ideals
returns its reduced basis as its generators, so a Groebner basis computed
again from those generators gives them back."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from modcore.groebner import Ideal, intersect, quotient_ideal  # noqa: E402
from modcore.modalg import colon_into, free_module, module_from_ideal, span  # noqa: E402
from modcore.poly import PolyRing  # noqa: E402

RINGS = (PolyRing(32003, ("x", "y")), PolyRing(32003, ("x", "y", "z")))


def _homogeneous(draw, ring, deg):
    """One to three terms of degree `deg` with nonzero coefficients."""
    d = {}
    for _ in range(draw(st.integers(1, 3))):
        m = [0] * ring.nvars
        for i in draw(st.lists(st.integers(0, ring.nvars - 1), min_size=deg, max_size=deg)):
            m[i] += 1
        d[tuple(m)] = draw(st.integers(1, ring.char - 1))
    return ring.from_dict(d)


@st.composite
def ideal_pairs(draw):
    ring = draw(st.sampled_from(RINGS))
    I = Ideal(ring, [_homogeneous(draw, ring, draw(st.integers(1, 2))) for _ in range(draw(st.integers(1, 3)))])
    J = Ideal(ring, [_homogeneous(draw, ring, draw(st.integers(1, 3))) for _ in range(draw(st.integers(1, 3)))])
    coeffs = [draw(st.integers(0, 2)) for _ in J.gens]
    return I, J, coeffs


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(ideal_pairs())
def test_colons_and_intersections_carry_their_basis(case):
    # (J : I), I cap J, (U :_R J) for a scalar U in J's ideal module (read
    # off E/U, or the colon by the unit vectors when two or more positions
    # stay free) and (U :_R R^2) for U spanned by (f, g), f in I, g in J
    I, J, coeffs = case
    ring = I.ring
    EJ = module_from_ideal(J)
    U = span(EJ, [tuple(ring.const(c) for c in coeffs)])
    pairs = span(free_module(ring, 2), [(f, g) for f in I.gens for g in J.gens])
    for K in (quotient_ideal(J, I), intersect(I, J), colon_into(U), colon_into(pairs)):
        assert Ideal(ring, K.gens).groebner_basis() == K.gens
