"""Polynomial arithmetic, parsing, and monomial orders."""

import math

import pytest

from modcore.errors import OrderError, ParseError, RingMismatchError
from modcore.orders import BlockOrder, GrevLex, elimination_order
from modcore.poly import PolyRing, parse_poly, render_poly

from conftest import monomials_of_degree, random_poly, seeded


def test_parse_basic(R2):
    f = parse_poly("x^2 + 2*x*y", R2)
    assert dict(f.terms) == {(2, 0): 1, (1, 1): 2}


def test_parse_cancellation(R2):
    assert not parse_poly("x - x", R2)


def test_parse_edge_ideal_sum(R4):
    f = parse_poly("x1*x2 + x2*x3 + x3*x4 + x1*x4", R4)
    assert dict(f.terms) == {
        (1, 1, 0, 0): 1,
        (0, 1, 1, 0): 1,
        (0, 0, 1, 1): 1,
        (1, 0, 0, 1): 1,
    }


def test_parse_parens_and_coeffs(R2):
    f = parse_poly("(x + y)*(x - y) + y^2", R2)
    assert dict(f.terms) == {(2, 0): 1}


def test_parse_unknown_variable(R2):
    with pytest.raises(ParseError, match="unknown variable"):
        parse_poly("x + z", R2)


def test_parse_syntax_error_reports_position(R2):
    with pytest.raises(ParseError, match="col"):
        parse_poly("x + * y", R2)


def test_parse_trailing_garbage(R2):
    with pytest.raises(ParseError):
        parse_poly("x y", R2)


def test_mul_difference_of_squares(R2):
    x, y = R2.gens()
    assert (x + y) * (x - y) == x**2 - y**2


def test_add_zero_identity(R2):
    f = parse_poly("3*x^2 - y", R2)
    assert f + R2.zero() == f


def test_frobenius_small_char():
    # (x+y)^p = x^p + y^p over GF(p); oracle: binomial coefficients mod p
    R = PolyRing(5, ("x", "y"))
    x, y = R.gens()
    f = (x + y) ** 5
    expected = {}
    for k in range(6):
        c = math.comb(5, k) % 5
        if c:
            expected[(5 - k, k)] = c
    assert dict(f.terms) == expected == {(5, 0): 1, (0, 5): 1}


def test_ring_mismatch(R2, R3):
    with pytest.raises(RingMismatchError):
        R2.var(0) + R3.var(0)


def test_exponents_stay_below_the_limit(R2):
    # the int sort key orders exponents below 2^15 only, so a polynomial
    # with a larger one is refused, whether built or multiplied
    x, y = R2.gens()
    assert R2.from_dict({(0, 2**15 - 1): 1, (2**15 - 1, 0): 1}).lm() == (2**15 - 1, 0)
    for d in ({(2**15, 0): 1}, {(1, 0): 1, (0, 2**15 + 5): 3}):
        with pytest.raises(OverflowError):
            R2.from_dict(d)
    with pytest.raises(OverflowError):
        x**(2**14) * (x * y)**(2**14)


def test_char_must_be_prime():
    with pytest.raises(Exception, match="not prime"):
        PolyRing(32004, ("x",))


# -- orders -----------------------------------------------------------------


def _grevlex_reference(a, b):
    """Textbook comparison: degree first, then last nonzero of a-b negative."""
    if sum(a) != sum(b):
        return -1 if sum(a) < sum(b) else 1
    diff = [x - y for x, y in zip(a, b)]
    for d in reversed(diff):
        if d:
            return 1 if d < 0 else -1
    return 0


def _cmp(a, b, order):
    """-1, 0 or 1 as a <, =, > b: an order compares its keys as tuples."""
    ka, kb = order.key(a), order.key(b)
    return (ka > kb) - (ka < kb)


def test_grevlex_matches_reference_on_all_degree2_monomials():
    monos = monomials_of_degree(3, 2)
    order = GrevLex()
    for a in monos:
        for b in monos:
            assert _cmp(a, b, order) == _grevlex_reference(a, b)


def test_grevlex_xz_less_than_ysq():
    # x*z vs y^2 in [x, y, z]
    assert _cmp((1, 0, 1), (0, 2, 0), GrevLex()) == -1


def test_cmp_equal():
    assert _cmp((2, 1), (2, 1), GrevLex()) == 0


def test_elimination_order_needs_a_proper_block():
    for drop in ((), (0, 1)):
        with pytest.raises(OrderError, match="proper nonempty block"):
            elimination_order(2, drop)


def test_block_order_eliminates_first_block():
    order = BlockOrder(((0,), (1, 2)))
    # any monomial with the first variable beats any without it
    assert _cmp((1, 0, 0), (0, 5, 5), order) == 1


def test_orders_are_immutable_values():
    # equal orders hash alike, so rings and the term codecs key on them
    for a, b in ((GrevLex(), GrevLex()), (BlockOrder(((1,), (0,))), BlockOrder(((1,), (0,)))),
                 (elimination_order(3, (0,)), BlockOrder(((0,), (1, 2))))):
        assert a == b and a is not b and hash(a) == hash(b)
    assert elimination_order(2, (0,)) != elimination_order(2, (1,))
    assert GrevLex() != BlockOrder(((0, 1),)) and BlockOrder(((0, 1),)) != BlockOrder(((1, 0),))
    assert PolyRing(7, ("x", "y"), elimination_order(2, (0,))) != PolyRing(7, ("x", "y"), elimination_order(2, (1,)))
    assert repr(BlockOrder(((1,), (0,)))) == "BlockOrder(((1,), (0,)))" and repr(GrevLex()) == "GrevLex()"
    with pytest.raises(AttributeError, match="immutable"):
        BlockOrder(((1,), (0,))).blocks = ((0,), (1,))


@pytest.mark.parametrize(
    "order", [GrevLex(), elimination_order(3, (2,)), BlockOrder(((0, 1), (2,)))]
)
def test_order_axioms(order):
    rng = seeded(7)
    monos = [tuple(rng.randrange(5) for _ in range(3)) for _ in range(60)]
    one = (0, 0, 0)
    for i in range(0, 60, 3):
        a, b, c = monos[i], monos[i + 1], monos[i + 2]
        # totality
        assert _cmp(a, b, order) in (-1, 0, 1)
        assert _cmp(a, b, order) == -_cmp(b, a, order)
        # multiplicativity: a < b implies a*c < b*c
        if _cmp(a, b, order) == -1:
            ac = tuple(x + y for x, y in zip(a, c))
            bc = tuple(x + y for x, y in zip(b, c))
            assert _cmp(ac, bc, order) == -1
        # 1 <= m
        assert _cmp(one, a, order) in (-1, 0)


# -- round trip and ring axioms ------------------------------------------------


def test_render_parse_round_trip(R3):
    rng = seeded(11)
    for _ in range(200):
        f = random_poly(R3, rng, maxdeg=4, nterms=4)
        assert parse_poly(render_poly(f), R3) == f


def test_render_examples(R2):
    x, y = R2.gens()
    assert render_poly(x**2 - y) == "x^2 - y"
    assert render_poly(R2.zero()) == "0"
    assert render_poly(-x) == "-x"


def test_ring_axioms_random(R2):
    rng = seeded(23)
    for _ in range(200):
        a = random_poly(R2, rng)
        b = random_poly(R2, rng)
        c = random_poly(R2, rng)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == R2.zero()
        assert a * R2.one() == a


def test_pow_matches_repeated_mul(R2):
    x, y = R2.gens()
    f = x + 2 * y
    g = R2.one()
    for _ in range(5):
        g = g * f
    assert f**5 == g


# -- the parser against Polynomial arithmetic ----------------------------------------


def _random_factor(rng, ring, depth):
    """(text, value) of a random factor: a coefficient, p and above among
    them, a variable or a power of one, or an expression in parentheses."""
    r = rng.random()
    if r < 0.25:
        p = ring.char
        c = rng.choice([0, 1, 2, p - 1, p, p + 3, 3 * p, rng.randrange(10 * p)])
        return str(c), ring.const(c)
    if r < 0.7 or depth >= 3:
        i = rng.randrange(ring.nvars)
        e = rng.choice([None, 0, 1, 2, 3, 7])
        if e is None:
            return ring.vars[i], ring.var(i)
        return f"{ring.vars[i]}^{e}", ring.var(i) ** e
    text, value = _random_expression(rng, ring, depth + 1)
    return f"({text})", value


def _random_term(rng, ring, depth):
    text, value = _random_factor(rng, ring, depth)
    for _ in range(rng.randrange(3)):
        t, v = _random_factor(rng, ring, depth)
        text, value = text + rng.choice(["*", " * "]) + t, value * v
    return text, value


def _random_expression(rng, ring, depth=0):
    """(text, value): a random expression in the parser's grammar, unary
    minus included, and its value by Polynomial arithmetic."""
    text, value = _random_term(rng, ring, depth)
    if rng.random() < 0.3:
        text, value = "-" + text, -value
    for _ in range(rng.randrange(4)):
        t, v = _random_term(rng, ring, depth)
        if rng.random() < 0.5:
            text, value = f"{text} + {t}", value + v
        else:
            text, value = f"{text} - {t}", value - v
    return text, value


@pytest.mark.parametrize("p", [32003, 7])
def test_parser_matches_polynomial_arithmetic(p):
    # the parser sums and multiplies term dicts and sorts once; Polynomial
    # arithmetic sorts after every step
    ring = PolyRing(p, ("x", "y", "z"))
    rng = seeded(p)
    for _ in range(400):
        text, value = _random_expression(rng, ring)
        assert parse_poly(text, ring) == value, text


def test_parser_errors_keep_their_columns(R2):
    cases = [
        ("(" * 101 + "x" + ")" * 101, "parentheses nested deeper than 100 at col 101"),
        ("x + (y - (z))", "unknown variable 'z' at col 11"),
        ("x^", "exponent must be an integer at col 3"),
        ("x + (y", "expected ')', found 'end of input' at col 7"),
        ("2^3", "trailing input starting with '^' at col 2"),
        ("x^32768", "exponent too large"),
        ("x^20000 * y * x^20000", "exponent too large"),
    ]
    for text, message in cases:
        with pytest.raises(ParseError) as exc:
            parse_poly(text, R2)
        assert str(exc.value).startswith(message), (text, str(exc.value))
    x, y = R2.gens()
    # a zero factor or a cancelled sum multiplies no term, so no exponent
    # overflows, as in Polynomial arithmetic
    assert parse_poly("x^32767", R2) == x**32767
    assert not parse_poly("0 * x^20000 * x^20000", R2)
    assert not parse_poly("32003 * x^20000 * x^20000", R2)
    assert parse_poly("(x^20000 - x^20000) * x^20000 + y", R2) == y
    assert parse_poly("(" * 100 + "x" + ")" * 100, R2) == x
