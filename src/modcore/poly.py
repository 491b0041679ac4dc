"""Multivariate polynomials over a prime field GF(p), with a fixed monomial order.

Coefficients are plain ints normalized into [0, p); exponent vectors are
tuples of small ints.  Polynomial values are immutable: terms are stored as a
tuple of (monomial, coefficient) pairs sorted descending in the ring's order,
so the leading term is terms[0].
"""

from __future__ import annotations

import re
from operator import add, mul

from .errors import ModcoreError, ParseError, RingMismatchError
from .orders import _EXP_LIMIT, GrevLex, MonomialOrder, linear_key

_NEST_LIMIT = 100  # parentheses a polynomial may nest; each level costs the parser 3 frames
_CHAR_LIMIT = 1 << 64  # below it, Miller-Rabin to the bases _MR_BASES decides primality exactly
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin to the bases 2..37, exact for n < 2^64."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def mono_mul(a, b):
    m = tuple(map(add, a, b))
    if m and max(m) >= _EXP_LIMIT:
        raise OverflowError("monomial exponent overflow")
    return m


def _add_terms(d, terms, p):
    """Add the (monomial, coefficient) pairs `terms` into the term dict d,
    mod p, and drop each monomial whose coefficient becomes 0.  Returns d."""
    for m, c in terms:
        v = (d.get(m, 0) + c) % p
        if v:
            d[m] = v
        elif m in d:
            del d[m]
    return d


def _add_products(d, a, b, p):
    """Add the product of the term sequences a and b into d, as
    `_add_terms` does.  Each monomial product goes through `mono_mul`, so an
    exponent of _EXP_LIMIT or more raises OverflowError.  Returns d."""
    for m1, c1 in a:
        for m2, c2 in b:
            m = mono_mul(m1, m2)
            v = (d.get(m, 0) + c1 * c2) % p
            if v:
                d[m] = v
            elif m in d:
                del d[m]
    return d


def mono_div(a, b):
    """a / b as an exponent vector, or None if b does not divide a."""
    out = []
    for x, y in zip(a, b):
        if x < y:
            return None
        out.append(x - y)
    return tuple(out)


def mono_deg(m):
    return sum(m)


_GREVLEX = GrevLex()
_RINGS = {}  # (char, vars, order) -> its one PolyRing


class PolyRing:
    """GF(char)[vars] with a monomial order.  Immutable and interned: each
    (char, vars, order) has one PolyRing, so rings are equal exactly when
    they are the same object.  The hash is that of (char, vars, order), so
    set and dict orders do not depend on addresses.  The ring keeps its
    order's int sort key (`orders.linear_key`) in `_units`."""

    __slots__ = ("char", "vars", "order", "nvars", "_var_index", "_units", "_hash")

    def __new__(cls, char: int = 32003, vars=("x", "y"), order: MonomialOrder | None = None):
        vars = tuple(vars)
        if order is None:
            order = _GREVLEX
        key = (char, vars, order)
        ring = _RINGS.get(key)
        if ring is not None:
            return ring
        if char >= _CHAR_LIMIT:
            raise ModcoreError(f"characteristic {char} is too large: it must be below 2^64")
        if not _is_prime(char):
            raise ModcoreError(f"characteristic {char} is not prime")
        if not vars or len(set(vars)) != len(vars):
            raise ModcoreError("variable names must be nonempty and distinct")
        units = linear_key(order, len(vars))[0]
        ring = _RINGS[key] = object.__new__(cls)
        for name, value in (("char", char), ("vars", vars), ("order", order), ("nvars", len(vars)),
                            ("_var_index", {v: i for i, v in enumerate(vars)}), ("_units", units),
                            ("_hash", hash(key))):
            object.__setattr__(ring, name, value)
        return ring

    def __setattr__(self, *a):
        raise AttributeError("PolyRing is immutable")

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"GF({self.char})[{','.join(self.vars)}]"

    # -- element construction ------------------------------------------------

    def zero(self) -> Polynomial:
        return _poly(self, ())

    def one(self) -> Polynomial:
        return self.const(1)

    def const(self, c: int) -> Polynomial:
        c %= self.char
        if c == 0:
            return _poly(self, ())
        return _poly(self, (((0,) * self.nvars, c),))

    def var(self, i) -> Polynomial:
        if isinstance(i, str):
            i = self.var_index(i)
        m = [0] * self.nvars
        m[i] = 1
        return _poly(self, ((tuple(m), 1),))

    def gens(self):
        return [self.var(i) for i in range(self.nvars)]

    def from_dict(self, d: dict) -> Polynomial:
        """The polynomial with the terms {monomial: coefficient} of d, sorted
        by the ring's int key.  An exponent of _EXP_LIMIT or more raises
        OverflowError, as in `mono_mul`: the int key orders no such term."""
        p = self.char
        n = self.nvars
        items = []
        for m, c in d.items():
            c %= p
            if c:
                if len(m) != n:
                    raise ModcoreError("exponent vector length mismatch")
                if max(m) >= _EXP_LIMIT:
                    raise OverflowError("monomial exponent overflow")
                items.append((m, c))
        if len(items) > 1:
            units = self._units
            items.sort(key=lambda t: sum(map(mul, t[0], units)), reverse=True)
        return _poly(self, tuple(items))

    def var_index(self, name: str) -> int:
        try:
            return self._var_index[name]
        except KeyError:
            raise ParseError(f"unknown variable {name!r} in {self!r}") from None


class Polynomial:
    """An element of `ring`, its terms sorted descending in the ring's
    order.  `Polynomial(ring, terms)` takes `terms` as they are."""

    __slots__ = ("ring", "terms")

    def __new__(cls, ring: PolyRing, terms: tuple):
        return _poly(ring, terms)

    def __setattr__(self, *a):
        raise AttributeError("Polynomial is immutable")

    # -- structure -----------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def lm(self):
        """Leading monomial in the ring's order."""
        if not self.terms:
            raise ModcoreError("zero polynomial has no leading monomial")
        return self.terms[0][0]

    def lc(self) -> int:
        if not self.terms:
            raise ModcoreError("zero polynomial has no leading coefficient")
        return self.terms[0][1]

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max([sum(m) for m, _ in self.terms])

    def is_homogeneous(self) -> bool:
        return len({sum(m) for m, _ in self.terms}) <= 1

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and not any(self.terms[0][0]))

    def constant_coeff(self) -> int:
        # 1 is the least monomial in every monomial order: a constant term comes last
        if self.terms and not any(self.terms[-1][0]):
            return self.terms[-1][1]
        return 0

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other):
        if self.ring is not other.ring:
            raise RingMismatchError(f"{self.ring!r} vs {other.ring!r}")

    def __add__(self, other):
        self._check(other)
        return self.ring.from_dict(_add_terms(dict(self.terms), other.terms, self.ring.char))

    def __sub__(self, other):
        self._check(other)
        p = self.ring.char
        return self.ring.from_dict(_add_terms(dict(self.terms), ((m, p - c) for m, c in other.terms), p))

    def __neg__(self):
        p = self.ring.char
        return _poly(self.ring, tuple((m, p - c) for m, c in self.terms))

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check(other)
        if not self.terms or not other.terms:
            return self.ring.zero()
        # a constant factor keeps the other's terms in order: no re-sort
        if len(other.terms) == 1 and not any(other.terms[0][0]):
            return self.scale(other.terms[0][1])
        if len(self.terms) == 1 and not any(self.terms[0][0]):
            return other.scale(self.terms[0][1])
        return self.ring.from_dict(_add_products({}, self.terms, other.terms, self.ring.char))

    __rmul__ = __mul__

    def scale(self, c: int):
        c %= self.ring.char
        if c == 0:
            return self.ring.zero()
        p = self.ring.char
        return _poly(self.ring, tuple((m, (k * c) % p) for m, k in self.terms))

    def __pow__(self, n: int):
        if n < 0:
            raise ModcoreError("negative powers are not defined here")
        out = self.ring.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n >>= 1
        return out

    def monic(self):
        if not self.terms:
            return self
        inv = pow(self.lc(), -1, self.ring.char)
        return self.scale(inv)

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring is other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, self.terms))

    # -- rendering -----------------------------------------------------------

    def __repr__(self):
        return f"<{render_poly(self)}>"

    def __str__(self):
        return render_poly(self)


_new_object = object.__new__
_set_ring = Polynomial.ring.__set__
_set_terms = Polynomial.terms.__set__


def _poly(ring, terms):
    """The polynomial of `ring` with the (monomial, coefficient) pairs
    `terms`, already sorted descending with coefficients in [1, p): set
    through the slots' descriptors, past the blocked `__setattr__`."""
    f = _new_object(Polynomial)
    _set_ring(f, ring)
    _set_terms(f, terms)
    return f


def render_poly(f: Polynomial) -> str:
    """Canonical text form: terms descending, balanced coefficients, '*' products."""
    terms = f.terms
    if not terms:
        return "0"
    p = f.ring.char
    half = p // 2
    if len(terms) == 1 and not any(terms[0][0]):  # a constant
        c = terms[0][1]
        return str(c - p if c > half else c)
    parts = []
    for i, (m, c) in enumerate(terms):
        cc = c - p if c > half else c
        neg = cc < 0
        cc = abs(cc)
        factors = []
        for v, e in zip(f.ring.vars, m):
            if e == 1:
                factors.append(v)
            elif e > 1:
                factors.append(f"{v}^{e}")
        if not factors:
            body = str(cc)
        elif cc == 1:
            body = "*".join(factors)
        else:
            body = str(cc) + "*" + "*".join(factors)
        if i == 0:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts)


# -- parser -------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<INT>\d+)|(?P<NAME>[A-Za-z_][A-Za-z0-9_]*)|(?P<OP>[-+*^()]))"
)


class _Tok:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(src: str):
    pos = 0
    out = []
    n = len(src)
    while pos < n:
        m = _TOKEN_RE.match(src, pos)
        if m is None or m.end() == pos:
            if src[pos:].strip() == "":
                break
            bad = src[pos:].lstrip()
            raise ParseError(f"unexpected character {bad[0]!r}", col=pos + 1)
        kind = m.lastgroup
        out.append(_Tok(kind, m.group(kind), m.start(kind)))
        pos = m.end()
    out.append(_Tok("END", "", n))
    return out


class _PolyParser:
    """Recursive descent for:  expr := ['-'] term (('+'|'-') term)*
    term := factor ('*' factor)* ;  factor := INT | VAR | VAR '^' INT | '(' expr ')'.

    Each rule returns a term dict {monomial: coefficient}, its coefficients
    in [1, p), so that every intermediate value is a polynomial's term set;
    `parse` sorts the result once.  Sums and products go through
    `_add_terms` and `_add_products`, as Polynomial arithmetic does, so a
    product with an exponent of _EXP_LIMIT or more raises OverflowError
    where Polynomial arithmetic would; so does a power x^e with e that
    large.
    """

    def __init__(self, src: str, ring: PolyRing):
        self.toks = _tokenize(src)
        self.i = 0
        self.ring = ring
        self.depth = 0

    def peek(self):
        return self.toks[self.i]

    def take(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect_op(self, op):
        t = self.take()
        if t.kind != "OP" or t.text != op:
            raise ParseError(f"expected {op!r}, found {t.text or 'end of input'!r}", col=t.pos + 1)

    def parse(self) -> Polynomial:
        f = self.expr()
        t = self.peek()
        if t.kind != "END":
            raise ParseError(f"trailing input starting with {t.text!r}", col=t.pos + 1)
        return self.ring.from_dict(f)

    def expr(self) -> dict:
        p = self.ring.char
        t = self.peek()
        negate = False
        if t.kind == "OP" and t.text == "-":
            self.take()
            negate = True
        f = self.term()
        if negate:
            f = {m: p - c for m, c in f.items()}
        while True:
            t = self.peek()
            if t.kind != "OP" or t.text not in "+-":
                return f
            self.take()
            g = self.term().items()
            _add_terms(f, g if t.text == "+" else ((m, p - c) for m, c in g), p)

    def term(self) -> dict:
        f = self.factor()
        while True:
            t = self.peek()
            if t.kind != "OP" or t.text != "*":
                return f
            self.take()
            f = _add_products({}, f.items(), self.factor().items(), self.ring.char)

    def factor(self) -> dict:
        ring = self.ring
        t = self.take()
        if t.kind == "INT":
            c = int(t.text) % ring.char
            return {(0,) * ring.nvars: c} if c else {}
        if t.kind == "NAME":
            try:
                idx = ring.var_index(t.text)
            except ParseError:
                raise ParseError(f"unknown variable {t.text!r}", col=t.pos + 1) from None
            e = 1
            nxt = self.peek()
            if nxt.kind == "OP" and nxt.text == "^":
                self.take()
                et = self.take()
                if et.kind != "INT":
                    raise ParseError("exponent must be an integer", col=et.pos + 1)
                e = int(et.text)
                if e >= _EXP_LIMIT:
                    raise OverflowError("monomial exponent overflow")
            m = [0] * ring.nvars
            m[idx] = e
            return {tuple(m): 1}
        if t.kind == "OP" and t.text == "(":
            if self.depth == _NEST_LIMIT:
                raise ParseError(f"parentheses nested deeper than {_NEST_LIMIT}", col=t.pos + 1)
            self.depth += 1
            f = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return f
        raise ParseError(f"expected a factor, found {t.text or 'end of input'!r}", col=t.pos + 1)


def parse_poly(src: str, ring: PolyRing) -> Polynomial:
    """Parse `src` into a normal-form polynomial of `ring`."""
    try:
        return _PolyParser(src, ring).parse()
    except OverflowError:
        raise ParseError(f"exponent too large (every exponent must stay below {_EXP_LIMIT})") from None


# -- ring maps ----------------------------------------------------------------

def map_poly(f: Polynomial, target: PolyRing) -> Polynomial:
    """The image of f in `target` under the ring map that sends each variable
    to the variable of `target` with the same name; every variable that f
    uses must exist there."""
    idx = [target._var_index.get(v, -1) for v in f.ring.vars]
    d = {}
    for m, c in f.terms:
        mm = [0] * target.nvars
        for i, e in enumerate(m):
            if e:
                if idx[i] < 0:
                    raise ModcoreError(f"polynomial involves {f.ring.vars[i]}, not a target variable")
                mm[idx[i]] = e
        d[tuple(mm)] = c
    return target.from_dict(d)


def substitute(f: Polynomial, target: PolyRing, keep, forms, cache: dict) -> Polynomial:
    """The image of f in `target` under the ring map that sends variable
    keep[j] of f to variable j of target and the other variables of f, in
    ascending order, to the polynomials `forms` of target.  `cache` holds the
    images of the replaced monomials across calls with one map."""
    kept = set(keep)
    rest = [i for i in range(f.ring.nvars) if i not in kept]
    out = {}
    for m, c in f.terms:
        tail = tuple(m[i] for i in rest)
        img = cache.get(tail)
        if img is None:
            img = target.one()
            for l, e in zip(forms, tail):
                if e:
                    img = img * l**e
            cache[tail] = img
        _add_products(out, ((tuple(m[i] for i in keep), c),), img.terms, target.char)
    return target.from_dict(out)
