"""Exact arithmetic for finite fields and their extension towers.

A field is described by a :class:`FieldCtx`, which is either the prime
field GF(p) or an extension of another context by a monic irreducible
modulus.  ``make_field(p, e)`` builds GF(p**e) in one step and marks it
as the *base* level: its cardinality q is the one that drives every
Frobenius computation (x -> x**q), regardless of how much further the
tower is extended.  ``extend(ctx, m)`` returns the level of degree m
on top of any context; ``x.embed_to(level)`` lifts an element into it.

Every context ranks its elements 0 .. order-1 by flattening an
element's coordinates, little-endian in the residue generator, to
base-p digits; modulus searches and exhaustive sweeps enumerate
elements in rank order, and root searches sort by rank, which is what
makes runs reproducible across machines.  Embedding a lower level
keeps ranks.  ``_digits`` and ``_from_digits`` are the one codec
between a number and its little-endian digits, so the coordinates of
x over a level L below are the base-|L| digits of x's rank
(``as_vector``).

A raw payload takes one of two forms, known only to this module:

* packed: an element of the prime field, of any extension level of
  order <= PACKED_MAX_ORDER (2**16), or of a level of any degree
  directly over GF(2), is its rank, a plain int.  For p = 2 addition is
  ``a ^ b``; embedding is the identity and projecting down is a range
  check.
* tuple: on any other level an element is a tuple of parent payloads,
  so a tuple level over a packed parent holds ints as coordinates.

A packed level up to the cap multiplies through log/exp tables of the
powers of its smallest-rank primitive element g: a*b = exp[log a +
log b], with inverse and power read off log a as well; log 0 is
2(order-1) and exp is zero from there on, so a zero needs no branch.
For odd p, addition uses Zech logarithms, zech[k] = log(1 + g**k) (K.
Huber, "Some comments on Zech's logarithms", IEEE Trans. IT 36, 1990).
The tables are built in one pass x -> g*x off two half-rank tables
(``_times``), on demand: when the level's dot op is first asked for,
else after ``order`` operations on the slow path (the level's product
``_mul_coords``, on ranks over GF(2), else on coordinates over the
parent and back to a rank), so a level that a search touches a few
hundred times never pays for its tables.  Tables stop at the cap; the
rank form does not.

A level of degree d directly over GF(p) multiplies through the slot
codec of its modulus (``_slots``, Kronecker substitution), one per
characteristic: a polynomial becomes an int with one slot of w bytes
per coefficient, one bigint product multiplies, and the part above
x**(d-1), times -tail where x**d = -tail, is folded back into the low
slots until nothing is left above.  Over GF(2) the codec takes ranks
(``_gf2_slots``), and one AND with the slots' low bits keeps each
coefficient's parity.  Over odd p it takes coordinate tuples, and
``bytes.translate`` reads each slot mod p, byte by byte.  Operands take
w bytes, w the least with terms*d*(p-1)**2 < 256**w for a sum of
`terms` products, so no slot carries into the next; odd-p folds take
wf bytes, wf the least with (p-1) + (d-1)*(p-1)**2 < 256**wf.  The
translate tables read a slot of w bytes only when w*(p-1) < 256, so a
level with max(w, wf)*(p-1) >= 256 (p >= 128, or wide slots at large
d) has no codec and multiplies by ``_mul_generic``, as a tower level
does; no other bound on d applies.  A level's product is the one-term
codec.  Above the cap its sums of products (``FieldCtx.dot_ops``) take
the codec for their term count and are reduced once per sum, and
odd-p add and sub are one int add and one translate.  The Frobenius
map h -> h**p mod f over GF(p) (``_frobenius_map``) runs on the same
codec.  Payloads are ints or tuples, so equality and hashing are
structural and every value is immutable.  The public wrapper is
:class:`FieldElement`; ``element_of_rank`` and the nested-array form
(``element_from_json``, lists or tuples) are the ways in from outside.

Levels memoize nothing but their log tables: ``frobenius(a, k)`` is
``power(a, q**(k mod m))``, and inverses are computed per call.
``_ext_cache`` keeps found moduli and levels, bounded by the distinct
degrees asked for; it makes ``extend`` return the identical level.

These algorithms live here once, on payloads, for the whole package.
``_power`` is the one square-and-multiply, ``_prime_factors`` the one
trial division, and ``_span`` the one digit-span builder (``_times``'
half-rank tables, ``core.fq_span``).  The ``_p*`` helpers on
little-endian payload lists (``_pcombine``, ``_pmul``, ``_pdivmod``,
``_pgcd``, ``_pxgcd``, ``_ppow_mod``) are its univariate polynomial
arithmetic; ``polynomials.UniPoly`` wraps them.  Over GF(2), division
and both gcds run by shift-XOR on ints, bit i the coefficient of x**i
(``_gf2_*``), as does ``inv`` on a level directly over GF(2), on ranks.
``_frobenius_map`` is the one h -> h**Q mod f, and the lazy
``_pdistinct_degree`` the one distinct-degree loop over it, for any
monic f: the irreducibility test reads its first yield,
``polynomials.splitting_level`` all of them.  The Gauss-Jordan
``_row_reduce`` is its only elimination; ``kernel``, ``solve`` and
``determinant`` are edges over it that read their entries off its rows.
Over GF(p) with w*(p-1) < 256, w the slot width of (p-1) + (p-1)**2, a
row is one int: a bit per entry over GF(2), a row update one XOR, else
a w-byte slot per entry, an update one multiply-add and one translate
to residues.  Other levels reduce payload lists.  ``common_level`` is
the one rule for mixed levels: lift to the higher of two comparable
levels, else LevelMismatch.

Their matrix contract, checked once by ``_payload_rows``: a matrix is
at least one row, all rows of one nonzero length (else ValueError), of
FieldElements of one level (else LevelMismatch); ``solve`` also needs
one right-hand side per row and ``determinant`` a square matrix.
``require_int`` is the one check of an integer from outside.
"""

from __future__ import annotations

from array import array
from functools import lru_cache, partial
from itertools import accumulate
from operator import and_, getitem, xor

from .errors import (
    DivisionByZero,
    InvalidDegree,
    LevelMismatch,
    MalformedInput,
    NonPrimeCharacteristic,
    NotInSubfield,
    ReducibleModulus,
    WrongLength,
)

# ---------------------------------------------------------------------------
# univariate arithmetic on raw payload lists (coefficients live in `ctx`)
# ---------------------------------------------------------------------------


def _pstrip(ctx, coeffs):
    zero = ctx.zero()
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == zero:
        coeffs.pop()
    return coeffs


def _pcombine(ctx, op, f, g):
    """f op g coefficientwise for op = ctx.add or ctx.sub; the shorter
    list counts as padded with zeros."""
    zero = ctx.zero()
    n, m = len(f), len(g)
    if n < m:
        f = list(f) + [zero] * (m - n)
    elif m < n:
        g = list(g) + [zero] * (n - m)
    return _pstrip(ctx, list(map(op, f, g)))


def _pmul(ctx, f, g):
    if not f or not g:
        return []
    zero = ctx.zero()
    add, mul = ctx.add, ctx.mul
    out = [zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == zero:
            continue
        for j, b in enumerate(g):
            if b != zero:
                out[i + j] = add(out[i + j], mul(a, b))
    return _pstrip(ctx, out)


def _pdivmod(ctx, num, den):
    den = _pstrip(ctx, den)
    if not den:
        raise DivisionByZero("polynomial division by zero")
    if ctx.order == 2:
        return tuple(map(_gf2_list, _gf2_divmod(_gf2_int(num), _gf2_int(den))))
    num = list(num)
    dd = len(den) - 1
    zero = ctx.zero()
    sub, mul = ctx.sub, ctx.mul
    inv_lead = ctx.inv(den[-1])
    quo = [zero] * max(0, len(num) - dd)
    for k in range(len(num) - 1, dd - 1, -1):
        c = num[k]
        if c == zero:
            continue
        factor = mul(c, inv_lead)
        quo[k - dd] = factor
        off = k - dd
        for j, d in enumerate(den):
            num[off + j] = sub(num[off + j], mul(factor, d))
    return _pstrip(ctx, quo), _pstrip(ctx, num[:dd])


def _pmod(ctx, num, den):
    return _pdivmod(ctx, num, den)[1]


def _pmonic(ctx, f):
    f = _pstrip(ctx, f)
    if not f:
        return f
    inv = ctx.inv(f[-1])
    return [ctx.mul(c, inv) for c in f]


def _pgcd(ctx, f, g):
    if ctx.order == 2:
        f, g = _gf2_int(f), _gf2_int(g)
        while g:
            f, g = g, _gf2_divmod(f, g)[1]
        return _gf2_list(f)
    f, g = _pstrip(ctx, f), _pstrip(ctx, g)
    while g:
        f, g = g, _pmod(ctx, f, g)
    return _pmonic(ctx, f)


def _pxgcd(ctx, f, g):
    """Extended gcd: returns (d, u, v) with u*f + v*g = d, d monic."""
    if ctx.order == 2:
        return tuple(map(_gf2_list, _gf2_xgcd(_gf2_int(f), _gf2_int(g))))
    r0, r1 = _pstrip(ctx, f), _pstrip(ctx, g)
    u0, u1, v0, v1 = [ctx.one()], [], [], [ctx.one()]
    while r1:
        q, r = _pdivmod(ctx, r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, _pcombine(ctx, ctx.sub, u0, _pmul(ctx, q, u1))
        v0, v1 = v1, _pcombine(ctx, ctx.sub, v0, _pmul(ctx, q, v1))
    if r0:
        scale = [ctx.inv(r0[-1])]
        r0, u0, v0 = (_pmul(ctx, h, scale) for h in (r0, u0, v0))
    return r0, u0, v0


# GF(2)[x] on ints: bit i is the coefficient of x**i
_TO_ASCII, _FROM_ASCII = bytes.maketrans(b"\0\1", b"01"), bytes.maketrans(b"01", b"\0\1")


def _gf2_int(f):
    """The int of a little-endian list of GF(2) payloads."""
    return int(bytes(f)[::-1].translate(_TO_ASCII) or b"0", 2)


def _gf2_list(n):
    """The stripped list of an int: the inverse of ``_gf2_int``."""
    return list(format(n, "b").encode()[::-1].translate(_FROM_ASCII)) if n else []


def _gf2_divmod(a, b):
    """Quotient and remainder in GF(2)[x] on ints, b nonzero, by shift-XOR."""
    q, db = 0, b.bit_length()
    while (s := a.bit_length() - db) >= 0:
        q, a = q ^ 1 << s, a ^ b << s
    return q, a


def _gf2_xgcd(a, b):
    """``_pxgcd`` on ints: x**s * b comes off a, u and v alike, so u*a + v*b = d."""
    u0, u1, v0, v1 = 1, 0, 0, 1
    while b:
        while (s := a.bit_length() - b.bit_length()) >= 0:
            a, u0, v0 = a ^ b << s, u0 ^ u1 << s, v0 ^ v1 << s
        a, b, u0, u1, v0, v1 = b, a, u1, u0, v1, v0
    return a, u0, v0


def _power(mul, x, e, one):
    """x**e under the product `mul`, for an int e >= 0, by left-to-right
    square-and-multiply: floor(log2 e) squares and popcount(e) - 1
    products by x, so nothing is multiplied by `one` (the value at e = 0)
    and nothing is squared past the top bit."""
    acc = x if e else one
    for bit in bin(e)[3:]:
        acc = mul(acc, acc)
        if bit == "1":
            acc = mul(acc, x)
    return acc


def _ppow_mod(ctx, f, exponent, mod):
    def mulmod(a, b):
        return _pmod(ctx, _pmul(ctx, a, b), mod)

    return _power(mulmod, _pmod(ctx, f, mod), exponent, [ctx.one()])


def _digits(n, base, count):
    """The `count` lowest base-`base` digits of n, little-endian."""
    out = []
    for _ in range(count):
        n, c = divmod(n, base)
        out.append(c)
    return out


def _from_digits(digits, base):
    """The number whose base-`base` digits, little-endian, are the
    sequence `digits`: the inverse of ``_digits``."""
    n = 0
    for c in reversed(digits):
        n = n * base + c
    return n


# ---------------------------------------------------------------------------
# slot codecs of GF(p)[x] mod a monic polynomial: a polynomial is an int, one
# slot of bytes per coefficient, little-endian (Kronecker substitution)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=128)  # codecs need p < 128, ``_times`` p <= 36: a few factors per p
def _byte_table(p, factor=1):
    """The translate table that maps a byte b to b * factor mod p."""
    return bytes(b * factor % p for b in range(256))


def _slot_width(bound):
    """The least w >= 1 with bound < 256**w: bytes per slot for values up to `bound`."""
    return (bound.bit_length() + 7) // 8 or 1


def _byte_slots(p, w, count):
    """``(widen, residues)`` for ints of `count` w-byte slots, w*(p-1) < 256:
    widen puts bytes into slots, one each, and residues reads each slot
    mod p into a byte: byte i of every slot, translated by
    b -> b * 256**i mod p, summed over i and translated mod p."""
    pack = int.from_bytes
    mod_p = _byte_table(p)
    if w == 1:
        return lambda b: pack(b, "little"), lambda s: s.to_bytes(count, "little").translate(mod_p)
    size = count * w
    high = [(i, _byte_table(p, pow(256, i, p))) for i in range(1, w)]

    def widen(b):
        buf = bytearray(len(b) * w)
        buf[::w] = b
        return pack(buf, "little")

    def residues(s):
        s = s.to_bytes(size, "little")
        acc = pack(s[::w].translate(mod_p), "little")
        for i, table in high:
            acc += pack(s[i::w].translate(table), "little")
        return acc.to_bytes(count, "little").translate(mod_p)

    return widen, residues


def _slots(p, mod, terms):
    """The codec of GF(p)[x] modulo the monic `mod` (ints in range(p),
    little-endian) of degree d for sums of up to `terms` products, with
    the slot widths w and wf of the module docstring:
    ``(spread, reduce, compact)``, or None when max(w, wf)*(p-1) >= 256.
    spread takes an operand (a rank over GF(2), else at most d
    coordinates) to slots, reduce a sum of products of operands to its
    residue, again an operand, and compact an operand back.  Each fold
    lowers the top degree, so reduce ends for every monic `mod`, in at
    most two folds when the tail has degree at most (d+1)/2, as the
    modulus search's picks usually do."""
    d = len(mod) - 1
    w = _slot_width(terms * d * (p - 1) ** 2)
    if p == 2:
        return _gf2_slots(d, _from_digits(mod, 2), w)
    wf = _slot_width((p - 1) + (d - 1) * (p - 1) ** 2)
    if max(w, wf) * (p - 1) >= 256:
        return None
    widen, residues = _byte_slots(p, w, 2 * d - 1)
    fold_widen, fold_residues = _byte_slots(p, wf, 2 * d - 1)
    tail = fold_widen(bytes(-c % p for c in mod[:d]))

    def reduce(s):
        s = residues(s)
        while high := fold_widen(s[d:]):
            s = fold_residues(fold_widen(s[:d]) + high * tail)
        return widen(s[:d])

    def compact(x):
        return tuple(x.to_bytes(d * w, "little")[::w])

    return widen, reduce, compact


def _gf2_slots(d, mod, w):
    """``_slots`` over GF(2), on ranks, with w-byte slots; `mod` holds
    the bits of the degree-d modulus, and bit i of a rank goes to slot i."""
    ones = int.from_bytes(b"\x01".rjust(w, b"\x00") * (2 * d - 1), "big")
    shift = 8 * w * d
    low = (1 << shift) - 1
    digits = (ones & low) * 0x30  # b"0" in the low byte of each of d slots

    def spread(a):
        bits = format(a, "b").encode()  # b"0" and b"1": the low bit is the digit
        if w > 1:
            buf = bytearray(w * len(bits))
            buf[w - 1::w] = bits
            bits = buf
        return int.from_bytes(bits, "big") & ones

    tail = spread(mod ^ 1 << d)  # x**d = tail

    def reduce(s):
        s &= ones
        while high := s >> shift:
            s = ((s & low) + high * tail) & ones
        return s

    def compact(s):
        return int((s | digits).to_bytes(w * d, "big")[w - 1::w], 2)

    return spread, reduce, compact


def _slot_product(spread, reduce, compact):
    """The product of a one-term codec; a square spreads once."""
    return lambda a, b: compact(reduce((x := spread(a)) * (x if a is b else spread(b))))


def _span(multiples, add, zero):
    """Every `add`-sum of one entry from each list of `multiples`, the
    first list's entry varying fastest: entry i picks multiples[k][c_k]
    for i's digits c_k, base len(multiples[k]), little-endian."""
    table = [zero]
    for ms in multiples:
        table = [add(v, m) for m in ms for v in table]
    return table


def _frobenius_map(ctx, f):
    """h -> h**|ctx| mod the monic f on payload lists: through f's slot
    codec when ctx is GF(p) and f has one, else by ``_ppow_mod``.  Build
    it once per modulus."""
    order, d = ctx.order, len(f) - 1
    codec = _slots(ctx.p, f, 1) if ctx.parent is None else None
    if codec is None:
        return lambda h: _ppow_mod(ctx, h, order, f)
    spread, reduce, compact = codec
    # the codec of GF(2) takes ranks
    encode, decode = (_gf2_int, _gf2_list) if order == 2 else (_same, _same)
    one = spread(encode([1]))

    def frob(h):
        if len(h) > d:  # one slot per coefficient below x**d
            h = _pmod(ctx, h, f)
        x = _power(lambda u, v: reduce(u * v), spread(encode(h)), order, one)
        return _pstrip(ctx, decode(compact(x)))

    return frob


def _pdistinct_degree(ctx, f):
    """Distinct-degree loop on any monic f over GF(Q), Q = |ctx|, lazily:
    yields (i, g) for g = gcd(x**(Q**i) - x, f) whenever g is not 1,
    then divides every power of g's factors out of f; once 2i > deg f,
    what is left is irreducible and yielded whole.  So the yields are
    the distinct degrees of f's irreducible factors, each once with the
    product of the distinct factors of that degree, and the first yield
    has degree deg f iff f is irreducible."""
    x = [ctx.zero(), ctx.one()]
    h, i, frob = x, 0, _frobenius_map(ctx, f)
    while 2 * (i + 1) < len(f):
        i += 1
        h = frob(h)
        g = _pgcd(ctx, _pcombine(ctx, ctx.sub, h, x), f)
        if len(g) > 1:
            yield i, g
            while len(c := _pgcd(ctx, f, g)) > 1:
                f = _pdivmod(ctx, f, c)[0]
            frob = _frobenius_map(ctx, f)
    if len(f) > 1:
        yield len(f) - 1, f


def _is_irreducible(ctx, f):
    """Criterion: monic f of degree d is irreducible over GF(Q) iff
    gcd(x**(Q**i) - x, f) = 1 for every i up to d // 2, that is iff the
    distinct-degree loop's first yield has degree d."""
    d = len(f) - 1
    if d > 1 and f[0] == ctx.zero():  # divisible by x
        return False
    return d > 0 and next(_pdistinct_degree(ctx, f))[0] == d


def _no_irreducible_binomial(order, degree):
    """True when no x**degree + c is irreducible over GF(order): some
    prime factor of the degree does not divide order - 1, or 4 divides
    the degree and order != 1 mod 4 (Lidl and Niederreiter, Finite
    Fields, Thm 3.75)."""
    return any((order - 1) % ell for ell in _prime_factors(degree)) or (
        degree % 4 == 0 and order % 4 != 1
    )


def _find_irreducible(ctx, degree):
    """Deterministic search, run once per level and degree: smallest
    coefficient sequence wins, where lower coefficients are ranked first
    (counting order in base |ctx|).  The block of binomials
    x**degree + c0 comes first and is skipped whole when none of them
    can be irreducible."""
    found = ctx._ext_cache.get(("found", degree))
    if found is not None:
        return found
    order = ctx.order
    one = ctx.one()
    start = order if _no_irreducible_binomial(order, degree) else 0
    for n in range(start, order**degree):
        candidate = list(map(ctx.payload_of_rank, _digits(n, order, degree))) + [one]
        if _is_irreducible(ctx, candidate):
            found = ctx._ext_cache[("found", degree)] = tuple(candidate)
            return found
    raise ReducibleModulus(f"no irreducible of degree {degree}")  # pragma: no cover


def _prime_factors(n):
    """n's distinct prime factors by trial division: [] below 2, [n] for a prime n."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# contexts
# ---------------------------------------------------------------------------

# extension levels up to this order store an element as its rank
PACKED_MAX_ORDER = 2**16


def _same(a):
    return a


class FieldCtx:
    """One level of a tower of finite fields.

    Do not instantiate directly; use :func:`make_field` and
    :func:`extend`, which validate inputs and cache levels so that
    identical constructions return the identical context object.

    ``add``, ``sub``, ``neg`` and ``mul`` are per-level callables on
    payloads; a level up to the cap swaps them for table lookups once it
    has built its tables.  ``dot_ops(terms)``, the trie contraction's op,
    gives ``(spread, dot, payload)``: payload to operand form, the
    operand sums of row[j] * vals[i] over each node's (j, i) pairs (at
    most `terms` of them), and back.  Up to the cap it is the log op,
    whose first request builds the tables: an operand is a log, a
    product one exp lookup, summed by XOR or Zech.  Above it a level
    directly over GF(p) takes its slot codec's op (``_slot_dot_ops``):
    operands are spread, and a node's products are summed unreduced and
    reduced once.  Where the codec has no slots for `terms` products,
    and on every other level, the plain op's operands are payloads and
    dot is the mul/add loop.  ``_mul_coords``, chosen once per extension
    level, is its product: the one-term codec directly over GF(p), on
    ranks over GF(2) and on coordinate tuples over odd p, else
    ``_mul_generic`` on coordinate tuples over the parent.
    """

    __slots__ = (
        "p",
        "parent",
        "degree",
        "modulus",
        "q",
        "base",
        "order",
        "dim_over_prime",
        "packed",
        "add",
        "sub",
        "neg",
        "mul",
        "dot_ops",
        "_mod",
        "_zero",
        "_one",
        "_mul_coords",
        "_slow_ops",
        "_log",
        "_exp",
        "_zech",
        "_ext_cache",
        "_zero_el",
        "_one_el",
    )

    def __init__(self, p, parent=None, degree=1, modulus=None):
        self.p = p
        self.parent = parent
        self.degree = degree
        self._mod = modulus  # parent payloads, little-endian
        self._mul_coords = None  # an extension level's product (see the class docstring)
        if parent is None:
            self.order = p
            self.dim_over_prime = 1
            self.q = p
            self.base = self
            self.packed = True
            self.modulus = None
        else:
            self.order = parent.order**degree
            self.dim_over_prime = parent.dim_over_prime * degree
            self.q = parent.q
            self.base = parent.base
            self.packed = self.order <= PACKED_MAX_ORDER or p == 2 and parent.parent is None
            self.modulus = tuple(parent._coordinate_tuple(c) for c in modulus)
        if self.packed:
            self._zero, self._one = 0, 1
        else:
            self._zero = (parent._zero,) * degree
            self._one = (parent._one,) + self._zero[1:]
        self._slow_ops = 0
        self._log = self._exp = self._zech = None
        self._ext_cache = {}
        self._zero_el = None
        self._one_el = None
        self._install_ops()

    def _install_ops(self):
        p, par = self.p, self.parent
        self.dot_ops = self._plain_dot_ops
        if p == 2:
            # characteristic 2: -a = a at every level, and on ranks a + b is a ^ b
            self.neg = _same
            if self.packed:
                self.add = self.sub = xor
        if par is None:
            if p == 2:
                self.mul = and_
            else:
                self.add = lambda a, b: (a + b) % p
                self.sub = lambda a, b: (a - b) % p
                self.neg = lambda a: -a % p
                self.mul = lambda a, b: a * b % p
            return
        codec = _slots(p, self._mod, 1) if par.parent is None else None
        self._mul_coords = self._mul_generic if codec is None else _slot_product(*codec)
        if self.order <= PACKED_MAX_ORDER:
            if p != 2:
                self.add, self.sub, self.neg = self._add_slow, self._sub_slow, self._neg_slow
            self.mul = self._mul_slow
            self.dot_ops = self._log_dot_ops
        elif codec is not None:
            # above the cap a level over GF(p) builds no tables: it multiplies
            # through its codec, and over odd p adds one byte per coordinate
            # (a codec has 2(p-1) < 256) by one int add and one translate
            self.mul, self.dot_ops = self._mul_coords, self._slot_dot_ops
            if p != 2:
                d, mod_p, neg_p = self.degree, _byte_table(p), _byte_table(p, -1)
                pack = int.from_bytes

                def add(a, b):
                    s = pack(bytes(a), "little") + pack(bytes(b), "little")
                    return tuple(s.to_bytes(d, "little").translate(mod_p))

                def sub(a, b):
                    s = pack(bytes(a), "little") + pack(bytes(b).translate(neg_p), "little")
                    return tuple(s.to_bytes(d, "little").translate(mod_p))

                self.add, self.sub = add, sub
                self.neg = lambda a: tuple(bytes(a).translate(neg_p))
        else:
            # look the parent's ops up per call: a packed parent may switch to tables
            self.add = self.sub = lambda a, b: tuple(map(par.add, a, b))
            if p != 2:
                self.sub = lambda a, b: tuple(map(par.sub, a, b))
                self.neg = lambda a: tuple(map(par.neg, a))
            self.mul = self._mul_coords

    # -- payload arithmetic -------------------------------------------------

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def _plain_dot_ops(self, terms):
        # bound once: only a packed extension level switches its ops, and
        # it takes `_log_dot_ops`
        zero, mul, add = self._zero, self.mul, self.add

        def dot(row, vals, nodes):
            out = []
            for node in nodes:
                acc = zero
                for j, i in node:
                    v = vals[i]
                    if v != zero:
                        acc = add(acc, mul(row[j], v))
                out.append(acc)
            return out

        return _same, dot, _same

    def _log_dot_ops(self, terms):
        if self._log is None:
            self._build_tables()
        log, exp, add = self._log, self._exp, self.add

        def dot(row, vals, nodes):
            out = []
            for node in nodes:
                acc = 0
                for j, i in node:
                    acc = add(acc, exp[row[j] + vals[i]])
                out.append(log[acc])
            return out

        return log.__getitem__, dot, exp.__getitem__

    def _slot_dot_ops(self, terms):
        # above the cap on a level over GF(p): one codec reduce per node
        codec = _slots(self.p, self._mod, terms)
        if codec is None:
            return self._plain_dot_ops(terms)
        spread, reduce, compact = codec

        def dot(row, vals, nodes):
            return [reduce(sum([row[j] * vals[i] for j, i in node])) for node in nodes]

        return spread, dot, compact

    def _mul_generic(self, a, b):
        par = self.parent
        padd, psub, pmul = par.add, par.sub, par.mul
        d = self.degree
        zero = par._zero
        prod = [zero] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai == zero:
                continue
            for j, bj in enumerate(b):
                if bj == zero:
                    continue
                prod[i + j] = padd(prod[i + j], pmul(ai, bj))
        mod = self._mod
        for k in range(2 * d - 2, d - 1, -1):
            c = prod[k]
            if c == zero:
                continue
            off = k - d
            for j in range(d):
                mj = mod[j]
                if mj != zero:
                    prod[off + j] = psub(prod[off + j], pmul(c, mj))
        return tuple(prod[:d])

    # The slow digit path of a packed level, used until its tables exist.

    def _coords(self, a):
        """Parent payloads of `a`, little-endian: the digits of a rank on
        a packed level, the tuple itself on a tuple level."""
        return _digits(a, self.parent.order, self.degree) if self.packed else a

    def _from_coords(self, coords):
        return _from_digits(coords, self.parent.order) if self.packed else tuple(coords)

    def _tick(self):
        # a held slow op may tick after the switch or a dot op's build: build once
        self._slow_ops += 1
        if self._slow_ops == self.order and self._log is None:
            self._build_tables()

    def _mul_raw(self, a, b):
        if self.p == 2 and self.parent.parent is None:  # the codec of GF(2) takes ranks
            return self._mul_coords(a, b)
        return self._from_coords(self._mul_coords(self._coords(a), self._coords(b)))

    def _mul_slow(self, a, b):
        self._tick()
        return self._mul_raw(a, b)

    def _coordwise(self, op, *payloads):
        self._tick()
        return self._from_coords(list(map(op, *map(self._coords, payloads))))

    def _add_slow(self, a, b):
        return self._coordwise(self.parent.add, a, b)

    def _sub_slow(self, a, b):
        return self._coordwise(self.parent.sub, a, b)

    def _neg_slow(self, a):
        return self._coordwise(self.parent.neg, a)

    def _build_tables(self):
        """Log/exp tables (and Zech logarithms for odd p) of a packed
        level, from the powers of its smallest-rank primitive element g,
        in one pass x -> g*x.  log 0 is the sentinel 2(order-1), and exp
        is zero from there to twice that: an index sum with it reads 0."""
        n = self.order - 1
        factors = _prime_factors(n)
        # powers on coordinates, one digit split per candidate; the codec of GF(2) takes ranks
        mul, lift = self._mul_coords, lambda x: tuple(self._coords(x))
        if self.p == 2 and self.parent.parent is None:
            lift = _same
        one = lift(1)
        g = 2
        while any(_power(mul, lift(g), n // f, one) == one for f in factors):
            g += 1
        step = self._times(g)
        log = array("I", [2 * n]) * self.order
        exp = array("H", [0]) * (4 * n + 1)  # exp[i + j] needs no reduction
        x = 1
        for k in range(n):
            exp[k] = exp[k + n] = x
            log[x] = k
            x = step(x)
        if self.p != 2:
            # zech[k] = log(1 + g**k), n marking 1 + g**k = 0 (1 + x changes x's lowest
            # base-p digit); stored thrice, so sub's log(-b) - log(a) + n needs no reduction
            p = self.p
            plus_one = [x + 1 if (x + 1) % p else x + 1 - p for x in exp[:n]]
            self._zech = array("H", [log[y] if y else n for y in plus_one]) * 3
        self._log, self._exp = log, exp
        self._install_table_ops()

    def _times(self, g):
        """x -> g*x on ranks.  It is GF(p)-linear in the base-p digits of
        x, so for p <= 36 it is the sum of two half-rank tables: of ranks
        by XOR for p = 2, else of coordinates packed one byte each, read
        back by one translate and ``int(..., p)``.  Else ``_mul_raw``."""
        p, d = self.p, self.dim_over_prime
        if p > 36:  # int() reads no base above 36
            return partial(self._mul_raw, g)
        h, size = d // 2, p ** (d // 2)
        if p == 2:
            add, images = xor, [self._mul_raw(g, 1 << k) for k in range(d)]
        else:
            mod_p = _byte_table(p)

            def add(u, v):
                return int.from_bytes((u + v).to_bytes(d, "little").translate(mod_p), "little")

            images = [int.from_bytes(bytes(_digits(self._mul_raw(g, p**k), p, d)), "little")
                      for k in range(d)]
        multiples = [list(accumulate([b] * (p - 1), add, initial=0)) for b in images]
        low, high = _span(multiples[:h], add, 0), _span(multiples[h:], add, 0)
        if p == 2:
            return lambda x: low[x & (size - 1)] ^ high[x >> h]
        digit = bytes(b"0123456789abcdefghijklmnopqrstuvwxyz"[b % p] for b in range(256))
        return lambda x: int((low[x % size] + high[x // size]).to_bytes(d, "big")
                             .translate(digit), p)

    def _install_table_ops(self):
        log, exp, zech = self._log, self._exp, self._zech
        n = self.order - 1

        def mul(a, b):
            return exp[log[a] + log[b]]

        self.mul = mul
        if self.p == 2:
            return  # add, sub and neg stay xor and the identity
        half = n // 2  # g**half = -1

        def add(a, b):
            if not a:
                return b
            if not b:
                return a
            la = log[a]
            z = zech[log[b] - la + n]
            return 0 if z == n else exp[la + z]

        def sub(a, b):
            if not b:
                return a
            lb = log[b] + half  # log of -b
            if not a:
                return exp[lb]
            la = log[a]
            z = zech[lb - la + n]
            return 0 if z == n else exp[la + z]

        def neg(a):
            return exp[log[a] + half] if a else 0

        self.add, self.sub, self.neg = add, sub, neg

    def inv(self, a):
        if a == self._zero:
            raise DivisionByZero(f"inverse of zero in {self!r}")
        if self._log is not None:
            return self._exp[self.order - 1 - self._log[a]]
        if self.parent is None:
            return pow(a, self.p - 2, self.p)
        if self.order <= PACKED_MAX_ORDER:
            self._tick()
        par = self.parent
        if par.order == 2:  # a rank is its GF(2)[x] int
            return _gf2_xgcd(a, _gf2_int(self._mod))[1]
        mod = list(self._mod)
        d, u, _ = _pxgcd(par, list(self._coords(a)), mod)
        if len(d) != 1:  # pragma: no cover - modulus is irreducible
            raise DivisionByZero("element not invertible")
        u = _pmod(par, u, mod)
        return self._from_coords(u + [par._zero] * (self.degree - len(u)))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def power(self, a, e):
        log = self._log
        if log is not None:
            if a:
                return self._exp[log[a] * e % (self.order - 1)]
            if e < 0:
                raise DivisionByZero(f"inverse of zero in {self!r}")
            return 0 if e else 1
        if e < 0:
            return self.power(self.inv(a), -e)
        if self.parent is None:
            return pow(a, e, self.p)
        return _power(self.mul, a, e, self._one)

    def frobenius(self, a, k=1):
        """Payload of a**(q**k) for q the tower's base cardinality; k is
        taken modulo m, the level's degree over GF(q), so it may be negative."""
        k %= self.dim_over_prime // self.base.dim_over_prime
        # a**(q**m) = a; m = 1 at or below the base level
        return self.power(a, self.q**k) if k else a

    # -- ranking and enumeration --------------------------------------------

    def rank_of(self, a):
        if self.packed:
            return a
        par = self.parent
        return _from_digits(list(map(par.rank_of, a)), par.order)

    def payload_of_rank(self, n):
        if not 0 <= require_int(n, "rank") < self.order:
            raise MalformedInput(f"rank {n} out of range for {self!r}")
        if self.packed:
            return n
        par = self.parent
        return tuple(map(par.payload_of_rank, _digits(n, par.order, self.degree)))

    def iter_payloads(self):
        if self.packed:
            return iter(range(self.order))
        return map(self.payload_of_rank, range(self.order))

    def elements(self):
        """All elements of this level, in rank order."""
        for payload in self.iter_payloads():
            yield FieldElement(self, payload)

    # -- element construction -----------------------------------------------

    @property
    def zero_element(self):
        if self._zero_el is None:
            self._zero_el = FieldElement(self, self._zero)
        return self._zero_el

    @property
    def one_element(self):
        if self._one_el is None:
            self._one_el = FieldElement(self, self._one)
        return self._one_el

    def element_of_rank(self, n):
        return FieldElement(self, self.payload_of_rank(n))

    def element_from_json(self, obj):
        """Parse the nested coefficient array form of an element, as lists
        or as the tuples ``.modulus`` uses for its entries.  Every
        prime-level entry must be an int in range(p); nothing is reduced."""
        return FieldElement(self, self._parse(obj))

    def _parse(self, obj):
        if self.parent is None:
            if type(obj) is not int or not 0 <= obj < self.p:
                raise MalformedInput(f"{obj!r} is not an element of {self!r}")
            return obj
        if not isinstance(obj, (list, tuple)) or len(obj) != self.degree:
            raise WrongLength(f"element of {self!r} needs {self.degree} entries, got {obj!r}")
        par = self.parent
        return self._from_coords([par._parse(c) for c in obj])

    def _coordinate_tuple(self, payload):
        """Nested coordinate tuple of a payload: an int at the prime
        level, else one entry per coordinate over the parent level."""
        if self.parent is None:
            return payload
        par = self.parent
        return tuple(par._coordinate_tuple(c) for c in self._coords(payload))

    # -- tower relations ----------------------------------------------------

    def is_above(self, other):
        """True when `other` equals this level or an ancestor of it."""
        ctx = self
        while ctx is not None:
            if ctx is other:
                return True
            ctx = ctx.parent
        return False

    def embed_payload(self, a, from_ctx):
        if from_ctx is self:
            return a
        if self.parent is None or not self.is_above(from_ctx):
            raise LevelMismatch(f"{from_ctx!r} does not embed into {self!r}")
        if self.packed:
            return a  # embedding keeps ranks
        lifted = self.parent.embed_payload(a, from_ctx)
        return (lifted,) + self._zero[1:]

    def project_payload(self, a, to_ctx):
        if to_ctx is self:
            return a
        if self.parent is None or not self.is_above(to_ctx):
            raise LevelMismatch(f"{self!r} does not project onto {to_ctx!r}")
        rank = self.rank_of(a)  # embedding keeps ranks: the image is ranks < |to_ctx|
        if rank >= to_ctx.order:
            raise NotInSubfield(f"element is not in the image of {to_ctx!r}")
        return to_ctx.payload_of_rank(rank)

    # -- serialization ------------------------------------------------------

    def descriptor(self):
        """JSON form: characteristic, base degree and the tower moduli."""
        levels = []
        ctx = self
        while ctx.parent is not None:
            below = ctx.parent
            levels.append(
                {
                    "degree": ctx.degree,
                    "modulus": [below.element_to_json(c) for c in ctx._mod],
                }
            )
            ctx = below
        levels.reverse()
        e = self.base.dim_over_prime
        return {"p": self.p, "e": e, "tower": levels}

    def element_to_json(self, payload):
        if self.parent is None:
            return payload
        par = self.parent
        return [par.element_to_json(c) for c in self._coords(payload)]

    def __repr__(self):
        if self.dim_over_prime == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.dim_over_prime})"


_PRIME_FIELDS = {}
_BASE_FIELDS = {}


def make_field(p, e=1, modulus=None):
    """Context for GF(p**e); this level becomes the tower's base.

    When no modulus is supplied, the lexicographically smallest monic
    irreducible of degree e over GF(p) is found by counting-order
    search, so repeated runs agree on the representation.  A given
    modulus lists e + 1 ints in range(p), little-endian; nothing is
    reduced mod p.
    """
    # a prime seen before skips the trial division
    if not isinstance(p, int) or p not in _PRIME_FIELDS and _prime_factors(p) != [p]:
        raise NonPrimeCharacteristic(f"{p} is not prime")
    if require_int(e, "extension degree") < 1:
        raise InvalidDegree(f"extension degree {e} < 1")
    prime = _PRIME_FIELDS.get(p)
    if prime is None:
        prime = _PRIME_FIELDS[p] = FieldCtx(p)
    if e == 1:
        if modulus is not None:
            raise MalformedInput("a modulus only makes sense for e >= 2")
        return prime
    if modulus is not None:
        mod = tuple(modulus)
        if any(type(c) is not int or not 0 <= c < p for c in mod):
            raise MalformedInput(f"modulus {list(mod)} needs ints in range({p})")
        if len(mod) != e + 1 or mod[-1] != 1:
            raise MalformedInput(f"modulus must be monic of degree {e}")
        if not _is_irreducible(prime, list(mod)):
            raise ReducibleModulus(f"modulus {list(mod)} factors over GF({p})")
    else:
        mod = _find_irreducible(prime, e)
    key = (p, e, mod)
    ctx = _BASE_FIELDS.get(key)
    if ctx is None:
        ctx = FieldCtx(p, parent=prime, degree=e, modulus=mod)
        # this level is the designated base: q = p**e lives here
        ctx.q = p**e
        ctx.base = ctx
        _BASE_FIELDS[key] = ctx
    return ctx


def extend(ctx, m, modulus=None):
    """The tower level of degree m over `ctx`.

    Levels are cached, so extending the same context by the same degree
    twice hands back the identical object; ``x.embed_to(level)`` brings
    an element of `ctx` (or anything below it) up.  A given modulus
    lists its coefficients as elements of `ctx` or in their nested
    coordinate form.
    """
    if require_int(m, "extension degree") < 1:
        raise InvalidDegree(f"extension degree {m} < 1")
    if modulus is not None:
        mod = tuple(c.val if isinstance(c, FieldElement) else ctx._parse(c) for c in modulus)
        if len(mod) != m + 1 or mod[-1] != ctx.one():
            raise MalformedInput(f"modulus must be monic of degree {m}")
        if not _is_irreducible(ctx, list(mod)):
            raise ReducibleModulus(f"modulus factors over {ctx!r}")
    else:
        mod = _find_irreducible(ctx, m)
    new = ctx._ext_cache.get((m, mod))
    if new is None:
        new = FieldCtx(ctx.p, parent=ctx, degree=m, modulus=mod)
        ctx._ext_cache[(m, mod)] = new
    return new


def field_from_descriptor(desc):
    """Rebuild the context a descriptor came from (levels are cached,
    so this returns the identical object for identical descriptors).
    "p", "e" and every "degree" must be ints; nothing is coerced."""
    if not isinstance(desc, dict):
        raise MalformedInput("a field descriptor is an object")
    p, e = (require_int(desc.get(key), f"descriptor {key!r}") for key in ("p", "e"))
    tower = desc.get("tower", [])
    if not isinstance(tower, (list, tuple)) or not all(
        isinstance(t, dict) and isinstance(t.get("modulus"), (list, tuple)) for t in tower
    ):
        raise MalformedInput('descriptor "tower" must list objects with a "modulus" list')
    degrees = [require_int(level.get("degree"), "descriptor 'degree'") for level in tower]
    if e > 1:
        if not tower or degrees[0] != e:
            raise MalformedInput("descriptor base degree disagrees with its tower")
        ctx = make_field(p, e, modulus=tower[0]["modulus"])
        tower, degrees = tower[1:], degrees[1:]
    else:
        ctx = make_field(p, e)
    for level, degree in zip(tower, degrees):
        mod = [ctx.element_from_json(c) for c in level["modulus"]]
        ctx = extend(ctx, degree, modulus=mod)
    return ctx


def require_int(value, what, low=None):
    """`value` if it is an int, not a bool, and at least `low` (when
    given), else MalformedInput naming `what`."""
    if type(value) is not int or low is not None and value < low:
        bound = "an int" if low is None else f"an int >= {low}"
        raise MalformedInput(f"{what} must be {bound}, got {value!r}")
    return value


def common_level(a, b):
    """The higher of two levels when one lies above the other, the level
    that mixed operands are lifted to; LevelMismatch otherwise."""
    if a.is_above(b):
        return a
    if b.is_above(a):
        return b
    raise LevelMismatch(f"{a!r} and {b!r} are incomparable")


def dim_between(upper, lower):
    """Dimension of `upper` as a vector space over `lower`."""
    dim = 1
    ctx = upper
    while ctx is not lower:
        if ctx.parent is None:
            raise LevelMismatch(f"{lower!r} is not below {upper!r}")
        dim *= ctx.degree
        ctx = ctx.parent
    return dim


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------


class FieldElement:
    """Immutable element of one tower level; arithmetic embeds operands
    upward automatically when one level sits above the other."""

    __slots__ = ("ctx", "val")

    def __init__(self, ctx, val):
        self.ctx = ctx
        self.val = val

    def _pair(self, other):
        if not isinstance(other, FieldElement):
            raise TypeError(f"cannot combine FieldElement with {type(other).__name__}")
        ctx = common_level(self.ctx, other.ctx)
        return ctx, ctx.embed_payload(self.val, self.ctx), ctx.embed_payload(other.val, other.ctx)

    def __add__(self, other):
        ctx = self.ctx
        if other.__class__ is FieldElement and other.ctx is ctx:
            return FieldElement(ctx, ctx.add(self.val, other.val))
        ctx, a, b = self._pair(other)
        return FieldElement(ctx, ctx.add(a, b))

    def __sub__(self, other):
        ctx = self.ctx
        if other.__class__ is FieldElement and other.ctx is ctx:
            return FieldElement(ctx, ctx.sub(self.val, other.val))
        ctx, a, b = self._pair(other)
        return FieldElement(ctx, ctx.sub(a, b))

    def __neg__(self):
        return FieldElement(self.ctx, self.ctx.neg(self.val))

    def __mul__(self, other):
        ctx = self.ctx
        if other.__class__ is FieldElement and other.ctx is ctx:
            return FieldElement(ctx, ctx.mul(self.val, other.val))
        ctx, a, b = self._pair(other)
        return FieldElement(ctx, ctx.mul(a, b))

    def __truediv__(self, other):
        ctx, a, b = self._pair(other)
        if b == ctx._zero:
            raise DivisionByZero("division by zero")
        return FieldElement(ctx, ctx.div(a, b))

    def __pow__(self, e):
        return FieldElement(self.ctx, self.ctx.power(self.val, require_int(e, "exponent")))

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and self.ctx is other.ctx
            and self.val == other.val
        )

    def __hash__(self):
        # equal elements share a payload; the level is left to __eq__
        return hash(self.val)

    def is_zero(self):
        return self.val == self.ctx._zero

    def is_one(self):
        return self.val == self.ctx._one

    def inverse(self):
        return FieldElement(self.ctx, self.ctx.inv(self.val))

    def frobenius(self, k=1):
        """self ** (q**k) for q the cardinality of the tower's base."""
        k = require_int(k, "Frobenius exponent")
        return FieldElement(self.ctx, self.ctx.frobenius(self.val, k))

    def embed_to(self, level):
        if level is self.ctx:
            return self
        return FieldElement(level, level.embed_payload(self.val, self.ctx))

    def project_to(self, level):
        if level is self.ctx:
            return self
        return FieldElement(level, self.ctx.project_payload(self.val, level))

    def rank(self):
        return self.ctx.rank_of(self.val)

    def to_json(self):
        return self.ctx.element_to_json(self.val)

    def __repr__(self):
        return f"FieldElement({self.ctx!r}, {self.to_json()!r})"


# ---------------------------------------------------------------------------
# linear algebra over one level
# ---------------------------------------------------------------------------


def _row_reduce(ctx, rows, ncols):
    """Gauss-Jordan elimination, in place, of payload rows over `ctx` on
    their first `ncols` columns; later columns follow the row operations.
    Rows of `rows` are replaced, never written into, so callers may share them.

    Afterwards rows[:rank] are the reduced pivot rows, as ints or lists
    (module docstring).  Returns the pivot columns, the product of the
    pivots negated once per row swap (the determinant when the matrix is
    square of full rank), and entry(row, col), a payload off a row."""
    p = ctx.p
    if ctx.parent is None and (w := _slot_width((p - 1) + (p - 1) ** 2)) * (p - 1) < 256:
        return _int_row_reduce(p, w, rows, ncols)
    zero = ctx.zero()
    mul, sub, inv = ctx.mul, ctx.sub, ctx.inv
    pivots, det = [], ctx.one()
    for col in range(ncols):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != zero), None)
        if pivot is None:
            continue
        if pivot != rank:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            det = ctx.neg(det)
        lead = rows[rank][col]
        det, scale = mul(det, lead), inv(lead)
        top = rows[rank] = [mul(x, scale) for x in rows[rank]]
        for r, row in enumerate(rows):
            c = row[col]
            if r != rank and c != zero:
                rows[r] = [sub(x, mul(c, y)) for x, y in zip(row, top)]
        pivots.append(col)
    return pivots, det, getitem


def _int_row_reduce(p, w, rows, ncols):
    """``_row_reduce`` on int rows over GF(p): entry j is bit j for p = 2,
    else the low byte of w-byte slot j (``_byte_slots``)."""
    if p == 2:
        rows[:] = map(_gf2_int, rows)
        bits, mask, reduce, add = 1, 1, _same, xor
    else:
        widen, residues = _byte_slots(p, w, len(rows[0]))
        rows[:] = [widen(bytes(row)) for row in rows]
        bits, mask, reduce = 8 * w, 255, lambda s: widen(residues(s))
        add = lambda a, b: widen(residues(a + b))
    pivots, det = [], 1
    for col in range(ncols):
        shift, rank = col * bits, len(pivots)
        pivot = next((r for r in range(rank, len(rows)) if rows[r] >> shift & mask), None)
        if pivot is None:
            continue
        if pivot != rank:
            rows[rank], rows[pivot], det = rows[pivot], rows[rank], -det
        lead = rows[rank] >> shift & mask
        det, top = det * lead % p, reduce(rows[rank] * pow(lead, p - 2, p))
        rows[:] = [add(row, (p - c) * top) if (c := row >> shift & mask) else row for row in rows]
        rows[rank] = top
        pivots.append(col)
    return pivots, det, lambda row, col: row >> col * bits & mask


def _payload_rows(rows):
    """The one level of a matrix of FieldElements and its rows as
    payload lists, after the one check of the matrix contract."""
    if not rows or not rows[0] or any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("a matrix needs at least one row, all of one nonzero length")
    ctx, width = rows[0][0].ctx, len(rows[0])
    out = [[x.val for x in row if x.ctx is ctx] for row in rows]  # short where a level differs
    if any(len(row) != width for row in out):
        raise LevelMismatch("matrix entries live in different levels")
    return ctx, out


def kernel(matrix):
    """Basis of the right null space, via reduced row echelon form.

    The returned vectors are independent, each is annihilated by the
    matrix, and their count is ``ncols - rank``.
    """
    ctx, rows = _payload_rows(matrix)
    ncols = len(rows[0])
    pivots, _, entry = _row_reduce(ctx, rows, ncols)
    zero, one = ctx.zero(), ctx.one()
    basis = []
    for free in sorted(set(range(ncols)) - set(pivots)):
        vec = [zero] * ncols
        vec[free] = one
        for row, pc in zip(rows, pivots):
            vec[pc] = ctx.neg(entry(row, free))
        basis.append(tuple(FieldElement(ctx, v) for v in vec))
    return basis


def solve(rows, rhs):
    """One solution of rows * x = rhs, or None when inconsistent; rhs
    has one entry per row, else ValueError."""
    if len(rhs) != len(rows):
        raise ValueError(f"{len(rhs)} right-hand sides for {len(rows)} rows")
    ctx, aug = _payload_rows([list(r) + [b] for r, b in zip(rows, rhs)])
    ncols = len(aug[0]) - 1
    pivots, _, entry = _row_reduce(ctx, aug, ncols)
    if any(entry(row, ncols) != ctx.zero() for row in aug[len(pivots):]):
        return None
    sol = [ctx.zero()] * ncols
    for row, pc in zip(aug, pivots):
        sol[pc] = entry(row, ncols)
    return [FieldElement(ctx, v) for v in sol]


def determinant(rows):
    """Determinant by Gaussian elimination over the entries' field; a
    matrix that is not square raises ValueError."""
    ctx, mat = _payload_rows(rows)
    if len(mat) != len(mat[0]):
        raise ValueError(f"determinant of a {len(mat)}x{len(mat[0])} matrix")
    pivots, det, _ = _row_reduce(ctx, mat, len(mat))
    return FieldElement(ctx, det if len(pivots) == len(mat) else ctx.zero())


def as_vector(x, over):
    """Coordinates of x with respect to the tower basis over `over`: the
    base-|over| digits of x's rank, which on a packed `over` are already
    the payloads."""
    digits = _digits(x.rank(), over.order, dim_between(x.ctx, over))
    if not over.packed:
        digits = map(over.payload_of_rank, digits)
    return [FieldElement(over, c) for c in digits]


def from_vector(coeffs, level):
    """Inverse of :func:`as_vector`: rebuild an element of `level` from
    its coordinates over the level the coefficients live in."""
    coeffs = list(coeffs)
    if not coeffs:
        raise WrongLength("empty coordinate vector")
    low = coeffs[0].ctx
    if any(c.ctx is not low for c in coeffs):
        raise LevelMismatch("coordinates live in different levels")
    expected = dim_between(level, low)
    if len(coeffs) != expected:
        raise WrongLength(f"expected {expected} coordinates, got {len(coeffs)}")
    return level.element_of_rank(_from_digits([c.rank() for c in coeffs], low.order))
