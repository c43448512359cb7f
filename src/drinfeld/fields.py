"""Exact arithmetic for finite fields and their extension towers.

A field is described by a :class:`FieldCtx`, which is either the prime
field GF(p) or an extension of another context by a monic irreducible
modulus.  ``make_field(p, e)`` builds GF(p**e) in one step and marks it
as the *base* level: its cardinality q is the one that drives every
Frobenius computation (x -> x**q), regardless of how much further the
tower is extended.  ``extend(ctx, m)`` stacks one more level of degree
m on top of any context.

Every context ranks its elements 0 .. order-1 by flattening an
element's coordinates, little-endian in the residue generator, to
base-p digits; modulus searches, root scans and exhaustive sweeps all
enumerate elements in rank order, which is what makes runs
reproducible across machines.  Embedding a lower level keeps ranks.

A raw payload takes one of two forms, known only to this module:

* packed: an element of the prime field, or of any extension level of
  order <= PACKED_MAX_ORDER (2**16), is its rank, a plain int.  For
  p = 2 addition is ``a ^ b``; embedding is the identity and projecting
  down is a range check.
* tuple: above the cap an element is a tuple of parent payloads, so a
  tuple level over a packed parent holds ints as coordinates.

A packed level multiplies through log/exp tables of the powers of its
smallest-rank primitive element g: a*b = exp[log a + log b], with
inverse, power and Frobenius read off log a as well.  For odd p,
addition uses Zech logarithms, zech[k] = log(1 + g**k) (K. Huber,
"Some comments on Zech's logarithms", IEEE Trans. IT 36, 1990).  The
tables are ``array('H')`` and are built on demand: until a level has
done ``order`` operations it runs the slow digit path (coordinates over
the parent, the tuple-level multiply, back to a rank; over GF(2), a
carry-less multiply of the rank bits), so a level that a search
touches a few hundred times never pays for its tables.

A level of degree d directly over GF(p) multiplies coordinate tuples by
Kronecker substitution whenever d*(p-1)**2 + (p-1) < 256: each tuple
becomes an int with one byte per coefficient, one bigint product gives
every slot below 256, and one ``bytes.translate`` reduces every slot
mod p.  The modulus is then folded in: x**d = -tail, so the part above
x**(d-1) times the packed -tail is added back into the low half, again
with every slot below 256, until the high half is zero.  Each fold
lowers the top degree, so this ends for every monic modulus; one whose
tail has degree at most (d+1)/2, as the modulus search's picks usually
do, needs at most two folds.  The same bound lets odd-p add and sub on
such a tuple level be one int add and one translate, and the x**(Q**i)
powering of the irreducibility test over GF(p) run on packed ints.
Above the bound (large p times d, say GF(1009^2)) the schoolbook
multiply stays.  Payloads are ints or tuples, so equality and hashing
are structural and every value is immutable.  The public wrapper is
:class:`FieldElement`; ``elem``, ``element_of_rank`` and the
nested-array JSON form are the ways in from outside.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from operator import and_, xor

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
# polynomial helpers on raw payload lists (coefficients live in `ctx`)
# ---------------------------------------------------------------------------


def _pstrip(ctx, coeffs):
    zero = ctx.zero()
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == zero:
        coeffs.pop()
    return coeffs


def _pdeg(coeffs):
    return len(coeffs) - 1


def _psub(ctx, f, g):
    n = max(len(f), len(g))
    zero = ctx.zero()
    out = []
    for i in range(n):
        a = f[i] if i < len(f) else zero
        b = g[i] if i < len(g) else zero
        out.append(ctx.sub(a, b))
    return _pstrip(ctx, out)


def _pmul(ctx, f, g):
    if not f or not g:
        return []
    zero = ctx.zero()
    out = [zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == zero:
            continue
        for j, b in enumerate(g):
            if b == zero:
                continue
            out[i + j] = ctx.add(out[i + j], ctx.mul(a, b))
    return _pstrip(ctx, out)


def _pdivmod(ctx, num, den):
    den = _pstrip(ctx, den)
    if not den:
        raise DivisionByZero("polynomial division by zero")
    num = list(num)
    dd = _pdeg(den)
    zero = ctx.zero()
    inv_lead = ctx.inv(den[-1])
    quo = [zero] * max(0, len(num) - dd)
    for k in range(len(num) - 1, dd - 1, -1):
        c = num[k]
        if c == zero:
            continue
        factor = ctx.mul(c, inv_lead)
        quo[k - dd] = factor
        for j in range(dd + 1):
            num[k - dd + j] = ctx.sub(num[k - dd + j], ctx.mul(factor, den[j]))
    return _pstrip(ctx, quo), _pstrip(ctx, num[:dd] if dd > 0 else [])


def _pmod(ctx, num, den):
    return _pdivmod(ctx, num, den)[1]


def _pmonic(ctx, f):
    f = _pstrip(ctx, f)
    if not f:
        return f
    inv = ctx.inv(f[-1])
    return [ctx.mul(c, inv) for c in f]


def _pgcd(ctx, f, g):
    f, g = _pstrip(ctx, f), _pstrip(ctx, g)
    while g:
        f, g = g, _pmod(ctx, f, g)
    return _pmonic(ctx, f)


def _pxgcd(ctx, f, g):
    """Extended gcd: returns (d, u, v) with u*f + v*g = d, d monic."""
    zero, one = ctx.zero(), ctx.one()
    r0, r1 = _pstrip(ctx, f), _pstrip(ctx, g)
    u0, u1 = [one], []
    v0, v1 = [], [one]
    while r1:
        q, r = _pdivmod(ctx, r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, _psub(ctx, u0, _pmul(ctx, q, u1))
        v0, v1 = v1, _psub(ctx, v0, _pmul(ctx, q, v1))
    if r0:
        inv = ctx.inv(r0[-1])
        scale = [inv]
        r0 = _pmul(ctx, r0, scale)
        u0 = _pmul(ctx, u0, scale)
        v0 = _pmul(ctx, v0, scale)
    return r0, u0, v0


def _ppow_mod(ctx, f, exponent, mod):
    result = [ctx.one()]
    acc = _pmod(ctx, f, mod)
    while exponent > 0:
        if exponent & 1:
            result = _pmod(ctx, _pmul(ctx, result, acc), mod)
        acc = _pmod(ctx, _pmul(ctx, acc, acc), mod)
        exponent >>= 1
    return result


# ---------------------------------------------------------------------------
# Kronecker substitution over GF(p): a polynomial is an int, one byte per
# coefficient, little-endian
# ---------------------------------------------------------------------------


def _kron_modulus(p, mod):
    """Reduction data ``(d, tail, mod_p, neg_p)`` for multiplying modulo
    the monic `mod` (ints in range(p), little-endian) of degree d, or
    None when a byte slot could overflow: a product slot sums up to d
    terms below (p-1)**2, and a fold adds one more coefficient."""
    d = len(mod) - 1
    if d * (p - 1) ** 2 + (p - 1) >= 256:
        return None
    tail = int.from_bytes(bytes(-c % p for c in mod[:d]), "little")  # x**d = -tail
    return (d, tail) + _byte_tables(p)


@lru_cache(maxsize=8)  # only p <= 13 passes the byte bound
def _byte_tables(p):
    """Translate tables that map a byte to itself mod p and to its
    negative mod p."""
    return bytes(i % p for i in range(256)), bytes(-i % p for i in range(256))


def _kron_mulmod(a, b, kron):
    """Bytes of a * b mod f, for packed polynomials a, b of degree < d.

    One bigint product, every slot reduced mod p by a translate, then
    folds: the part above x**(d-1) times the packed -tail goes back into
    the low half.  Each fold lowers the top degree, so the loop ends for
    every monic f; two folds suffice when the tail has degree at most
    (d+1)/2."""
    d, tail, mod_p, _ = kron
    size = 2 * d - 1
    s = (a * b).to_bytes(size, "little").translate(mod_p)
    high = int.from_bytes(s[d:], "little")
    while high:
        s = (int.from_bytes(s[:d], "little") + high * tail).to_bytes(size, "little")
        s = s.translate(mod_p)
        high = int.from_bytes(s[d:], "little")
    return s[:d]


def _kron_powmod(h, e, kron):
    """Coefficient bytes of h**e mod f, for a coefficient list h of
    degree < d."""
    acc = int.from_bytes(bytes(h), "little")
    r = 1
    while e:
        if e & 1:
            r = int.from_bytes(_kron_mulmod(r, acc, kron), "little")
        e >>= 1
        if e:
            acc = int.from_bytes(_kron_mulmod(acc, acc, kron), "little")
    return r.to_bytes(kron[0], "little")


def _is_irreducible(ctx, f):
    """Criterion: monic f of degree d is irreducible over GF(Q) iff
    gcd(x**(Q**i) - x, f) = 1 for every i up to d // 2."""
    f = _pstrip(ctx, f)
    d = _pdeg(f)
    if d < 1:
        return False
    if d == 1:
        return True
    zero, one = ctx.zero(), ctx.one()
    x = [zero, one]
    if f[0] == zero:  # divisible by x
        return False
    order = ctx.order
    kron = _kron_modulus(ctx.p, f) if ctx.parent is None and f[-1] == 1 else None
    h = x
    for _ in range(d // 2):
        if kron is None:
            h = _ppow_mod(ctx, h, order, f)
        else:
            h = list(_kron_powmod(h, order, kron))
        if _pdeg(_pgcd(ctx, _psub(ctx, h, x), f)) > 0:
            return False
    return True


def _no_irreducible_binomial(order, degree):
    """True when no x**degree + c is irreducible over GF(order): some
    prime factor of the degree does not divide order - 1, or 4 divides
    the degree and order != 1 mod 4 (Lidl and Niederreiter, Finite
    Fields, Thm 3.75)."""
    return any((order - 1) % ell for ell in _prime_factors(degree)) or (
        degree % 4 == 0 and order % 4 != 1
    )


def _find_irreducible(ctx, degree):
    """Deterministic search: smallest coefficient sequence wins, where
    lower coefficients are ranked first (counting order in base |ctx|).
    The block of binomials x**degree + c0 comes first and is skipped
    whole when none of them can be irreducible."""
    order = ctx.order
    one = ctx.one()
    start = order if _no_irreducible_binomial(order, degree) else 0
    for n in range(start, order**degree):
        coeffs = []
        k = n
        for _ in range(degree):
            coeffs.append(ctx.payload_of_rank(k % order))
            k //= order
        candidate = coeffs + [one]
        if _is_irreducible(ctx, candidate):
            return tuple(candidate)
    raise ReducibleModulus(f"no irreducible of degree {degree}")  # pragma: no cover


def _is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


def _prime_factors(n):
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
    payloads; a packed level swaps them for table lookups once it has
    built its tables.
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
        "_mod",
        "_zero",
        "_one",
        "_mask",
        "_kron",
        "_slow_ops",
        "_log",
        "_exp",
        "_zech",
        "_ext_cache",
        "_zero_el",
        "_one_el",
        "_inv_cache",
        "_frob_cache",
    )

    def __init__(self, p, parent=None, degree=1, modulus=None):
        self.p = p
        self.parent = parent
        self.degree = degree
        self._mod = modulus  # parent payloads, little-endian
        self._mask = None  # modulus bits, for GF(2^d) over GF(2) only
        self._kron = None  # Kronecker reduction data, for levels over GF(p) only
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
            self.packed = self.order <= PACKED_MAX_ORDER
            self.modulus = tuple(parent._coordinate_tuple(c) for c in modulus)
            if parent.parent is None:
                self._kron = _kron_modulus(p, modulus)
                if self.packed and p == 2:
                    self._mask = self._from_coords(modulus)
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
        self._inv_cache = {}
        self._frob_cache = {}
        self._install_ops()

    def _install_ops(self):
        p, par = self.p, self.parent
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
        elif self.packed:
            if p != 2:
                self.add, self.sub, self.neg = self._add_slow, self._sub_slow, self._neg_slow
            self.mul = self._mul_slow
        elif p != 2 and self._kron is not None:
            # one int add of the packed coordinates, one translate reduces every slot
            d, _, mod_p, neg_p = self._kron
            pack = int.from_bytes

            def add(a, b):
                s = pack(bytes(a), "little") + pack(bytes(b), "little")
                return tuple(s.to_bytes(d, "little").translate(mod_p))

            def sub(a, b):
                s = pack(bytes(a), "little") + pack(bytes(b).translate(neg_p), "little")
                return tuple(s.to_bytes(d, "little").translate(mod_p))

            self.add, self.sub = add, sub
            self.neg = lambda a: tuple(bytes(a).translate(neg_p))
            self.mul = self._mul_over_prime
        else:
            # look the parent's ops up per call: a packed parent may switch to tables
            self.add = self.sub = lambda a, b: tuple(map(par.add, a, b))
            if p != 2:
                self.sub = lambda a, b: tuple(map(par.sub, a, b))
                self.neg = lambda a: tuple(map(par.neg, a))
            self.mul = self._mul_over_prime if par.parent is None else self._mul_generic

    # -- payload arithmetic -------------------------------------------------

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def _mul_over_prime(self, a, b):
        # coefficients are plain ints mod p: one Kronecker product unless
        # a byte slot could overflow
        kron = self._kron
        if kron is None:
            return self._mul_schoolbook(a, b)
        pack = int.from_bytes
        return tuple(_kron_mulmod(pack(bytes(a), "little"), pack(bytes(b), "little"), kron))

    def _mul_schoolbook(self, a, b):
        p = self.p
        d = self.degree
        prod = [0] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
        mod = self._mod
        for k in range(2 * d - 2, d - 1, -1):
            c = prod[k] % p
            if c:
                off = k - d
                for j in range(d):
                    mj = mod[j]
                    if mj:
                        prod[off + j] -= c * mj
        return tuple(c % p for c in prod[:d])

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

    def _mul_gf2(self, a, b):
        # packed GF(2^d) over GF(2): carry-less product, reduced by the modulus
        if a < b:
            a, b = b, a
        r = 0
        while b:
            if b & 1:
                r ^= a
            a <<= 1
            b >>= 1
        d, mask = self.degree, self._mask
        top = r.bit_length() - 1
        while top >= d:
            r ^= mask << (top - d)
            top = r.bit_length() - 1
        return r

    # The slow digit path of a packed level, used until its tables exist.

    def _coords(self, a):
        """Parent payloads of `a`, little-endian: the digits of a rank on
        a packed level, the tuple itself above the cap."""
        if not self.packed:
            return a
        size = self.parent.order
        out = []
        for _ in range(self.degree):
            a, c = divmod(a, size)
            out.append(c)
        return out

    def _from_coords(self, coords):
        if not self.packed:
            return tuple(coords)
        size = self.parent.order
        r = 0
        for c in reversed(coords):
            r = r * size + c
        return r

    def _tick(self):
        # a caller may still hold a slow op after the switch: build only once
        self._slow_ops += 1
        if self._slow_ops == self.order:
            self._build_tables()

    def _mul_raw(self, a, b):
        if self._mask is not None:
            return self._mul_gf2(a, b)
        mul = self._mul_over_prime if self.parent.parent is None else self._mul_generic
        return self._from_coords(mul(self._coords(a), self._coords(b)))

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

    def _pow_raw(self, a, e):
        result, acc = 1, a
        while e > 0:
            if e & 1:
                result = self._mul_raw(result, acc)
            acc = self._mul_raw(acc, acc)
            e >>= 1
        return result

    def _build_tables(self):
        """Log/exp tables (and Zech logarithms for odd p) of a packed
        level, from the powers of its smallest-rank primitive element."""
        n = self.order - 1
        factors = _prime_factors(n)
        g = 2
        while any(self._pow_raw(g, n // f) == 1 for f in factors):
            g += 1
        log = array("H", bytes(2 * self.order))
        exp = array("H", bytes(4 * n))  # doubled: exp[i + j] needs no reduction
        x = 1
        for k in range(n):
            exp[k] = exp[k + n] = x
            log[x] = k
            x = self._mul_raw(g, x)  # g first: the product loop skips its zero digits
        if self.p != 2:
            # zech[k] = log(1 + g**k), with n marking 1 + g**k = 0; stored three
            # times over so that sub's index log(-b) - log(a) + n needs no reduction
            size, padd = self.parent.order, self.parent.add
            zech = array("H", bytes(6 * n))
            for k in range(n):
                x = exp[k]
                low = x % size
                y = x - low + padd(low, 1)
                zech[k] = zech[k + n] = zech[k + 2 * n] = log[y] if y else n
            self._zech = zech
        self._log, self._exp = log, exp
        self._inv_cache.clear()
        self._frob_cache.clear()
        self._install_table_ops()

    def _install_table_ops(self):
        log, exp, zech = self._log, self._exp, self._zech
        n = self.order - 1

        def mul(a, b):
            if a and b:
                return exp[log[a] + log[b]]
            return 0

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
        cached = self._inv_cache.get(a)
        if cached is not None:
            return cached
        if self.parent is None:
            result = pow(a, self.p - 2, self.p)
        else:
            if self.packed:
                self._tick()
            par = self.parent
            mod = list(self._mod)
            d, u, _ = _pxgcd(par, list(self._coords(a)), mod)
            if _pdeg(d) != 0:  # pragma: no cover - modulus is irreducible
                raise DivisionByZero("element not invertible")
            u = _pmod(par, u, mod)
            result = self._from_coords(u + [par._zero] * (self.degree - len(u)))
        self._inv_cache[a] = result
        return result

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
        result = self._one
        acc = a
        while e > 0:
            if e & 1:
                result = self.mul(result, acc)
            acc = self.mul(acc, acc)
            e >>= 1
        return result

    def frobenius(self, a, k=1):
        """Payload of a**(q**k) for q the tower's base cardinality."""
        if k == 0 or self.order <= self.q:
            return a  # fixed by x -> x**q at or below the base level
        log = self._log
        if log is not None:
            if not a:
                return 0
            n = self.order - 1
            return self._exp[log[a] * pow(self.q, k, n) % n]
        cache = self._frob_cache
        for _ in range(k):
            nxt = cache.get(a)
            if nxt is None:
                nxt = self.power(a, self.q)
                cache[a] = nxt
            a = nxt
        return a

    # -- ranking and enumeration --------------------------------------------

    def rank_of(self, a):
        if self.packed:
            return a
        par = self.parent
        r = 0
        for c in reversed(a):
            r = r * par.order + par.rank_of(c)
        return r

    def payload_of_rank(self, n):
        if not 0 <= n < self.order:
            raise ValueError(f"rank {n} out of range for {self!r}")
        if self.packed:
            return n
        par = self.parent
        coeffs = []
        for _ in range(self.degree):
            coeffs.append(par.payload_of_rank(n % par.order))
            n //= par.order
        return tuple(coeffs)

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

    def elem(self, coords):
        """Element from its nested coordinate tuple (an int in range(p)
        at the prime level), the form ``.modulus`` uses for its entries."""
        return FieldElement(self, self._parse(coords, tuple))

    def element_from_json(self, obj):
        """Parse the nested coefficient array form of an element.  Every
        prime-level entry must be an int in range(p); nothing is reduced."""
        return FieldElement(self, self._parse(obj, (list, tuple)))

    def _parse(self, obj, sequence_types):
        if self.parent is None:
            if type(obj) is not int or not 0 <= obj < self.p:
                raise MalformedInput(f"{obj!r} is not an element of {self!r}")
            return obj
        if not isinstance(obj, sequence_types) or len(obj) != self.degree:
            raise WrongLength(f"element of {self!r} needs {self.degree} entries")
        par = self.parent
        return self._from_coords([par._parse(c, sequence_types) for c in obj])

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
        if self.packed:
            if a >= to_ctx.order:
                raise NotInSubfield(f"element is not in the image of {to_ctx!r}")
            return a
        par = self.parent
        if any(c != par._zero for c in a[1:]):
            raise NotInSubfield(f"element is not in the image of {to_ctx!r}")
        return par.project_payload(a[0], to_ctx)

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
    if not isinstance(p, int) or not _is_prime(p):
        raise NonPrimeCharacteristic(f"{p} is not prime")
    if e < 1:
        raise InvalidDegree(f"extension degree {e} < 1")
    prime = _PRIME_FIELDS.get(p)
    if prime is None:
        prime = FieldCtx(p)
        _PRIME_FIELDS[p] = prime
    if e == 1:
        if modulus is not None:
            raise ValueError("a modulus only makes sense for e >= 2")
        return prime
    if modulus is not None:
        mod = tuple(modulus)
        if any(type(c) is not int or not 0 <= c < p for c in mod):
            raise MalformedInput(f"modulus {list(mod)} needs ints in range({p})")
        if len(mod) != e + 1 or mod[-1] != 1:
            raise ValueError(f"modulus must be monic of degree {e}")
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
    """One more tower level of degree m over `ctx`.

    Returns ``(new_ctx, embed)`` where `embed` maps elements of `ctx`
    (or anything below it) into the new level.  Levels are cached, so
    extending the same context by the same degree twice hands back the
    identical object.  A given modulus lists its coefficients as
    elements of `ctx` or in their nested coordinate form.
    """
    if m < 1:
        raise InvalidDegree(f"extension degree {m} < 1")
    if modulus is not None:
        mod = tuple(
            c.val if isinstance(c, FieldElement) else ctx._parse(c, (tuple, list))
            for c in modulus
        )
        if len(mod) != m + 1 or mod[-1] != ctx.one():
            raise ValueError(f"modulus must be monic of degree {m}")
        if not _is_irreducible(ctx, list(mod)):
            raise ReducibleModulus(f"modulus factors over {ctx!r}")
    else:
        mod = ctx._ext_cache.get(("found", m))
        if mod is None:
            mod = _find_irreducible(ctx, m)
            ctx._ext_cache[("found", m)] = mod
    new = ctx._ext_cache.get((m, mod))
    if new is None:
        new = FieldCtx(ctx.p, parent=ctx, degree=m, modulus=mod)
        ctx._ext_cache[(m, mod)] = new

    def embed(x):
        return x.embed_to(new)

    return new, embed


def field_from_descriptor(desc):
    """Rebuild the context a descriptor came from (levels are cached,
    so this returns the identical object for identical descriptors)."""
    p = int(desc["p"])
    e = int(desc["e"])
    tower = list(desc.get("tower", ()))
    if e > 1:
        if not tower or int(tower[0]["degree"]) != e:
            raise ValueError("descriptor base degree disagrees with its tower")
        ctx = make_field(p, e, modulus=tower[0]["modulus"])
        tower = tower[1:]
    else:
        ctx = make_field(p)
    for level in tower:
        mod = [ctx.element_from_json(c) for c in level["modulus"]]
        ctx, _ = extend(ctx, int(level["degree"]), modulus=mod)
    return ctx


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
        if self.ctx is other.ctx:
            return self.ctx, self.val, other.val
        if self.ctx.is_above(other.ctx):
            return self.ctx, self.val, self.ctx.embed_payload(other.val, other.ctx)
        if other.ctx.is_above(self.ctx):
            return other.ctx, other.ctx.embed_payload(self.val, self.ctx), other.val
        raise LevelMismatch(f"{self.ctx!r} and {other.ctx!r} are incomparable")

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
        return FieldElement(self.ctx, self.ctx.power(self.val, e))

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and self.ctx is other.ctx
            and self.val == other.val
        )

    def __hash__(self):
        return hash((id(self.ctx), self.val))

    def is_zero(self):
        return self.val == self.ctx._zero

    def is_one(self):
        return self.val == self.ctx._one

    def inverse(self):
        return FieldElement(self.ctx, self.ctx.inv(self.val))

    def frobenius(self, k=1):
        """self ** (q**k) for q the cardinality of the tower's base."""
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


def frobenius_pow(x, k):
    """x ** (q**k); the identity when x already sits in the base level."""
    return x.frobenius(k)


# ---------------------------------------------------------------------------
# linear algebra over one level
# ---------------------------------------------------------------------------


class MatrixFq:
    """Dense matrix of FieldElements sharing one level."""

    __slots__ = ("ctx", "nrows", "ncols", "rows")

    def __init__(self, rows):
        rows = [list(r) for r in rows]
        if not rows or not rows[0]:
            raise ValueError("matrix dimensions must be positive")
        ctx = rows[0][0].ctx
        ncols = len(rows[0])
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged matrix")
            for x in r:
                if x.ctx is not ctx:
                    raise LevelMismatch("matrix entries live in different levels")
        self.ctx = ctx
        self.nrows = len(rows)
        self.ncols = ncols
        self.rows = rows


def kernel(matrix):
    """Basis of the right null space, via reduced row echelon form.

    The returned vectors are independent, each is annihilated by the
    matrix, and their count is ``ncols - rank``.
    """
    if isinstance(matrix, MatrixFq):
        ctx, rows, nrows, ncols = (
            matrix.ctx,
            [list(r) for r in matrix.rows],
            matrix.nrows,
            matrix.ncols,
        )
    else:
        rows = [list(r) for r in matrix]
        nrows, ncols = len(rows), len(rows[0])
        ctx = rows[0][0].ctx
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, nrows):
            if not rows[r][col].is_zero():
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col].inverse()
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(nrows):
            if r != rank and not rows[r][col].is_zero():
                c = rows[r][col]
                rows[r] = [x - c * y for x, y in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
    pivot_set = set(pivots)
    zero, one = ctx.zero_element, ctx.one_element
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [zero] * ncols
        vec[free] = one
        for i, pc in enumerate(pivots):
            vec[pc] = -rows[i][free]
        basis.append(tuple(vec))
    return basis


def solve(rows, rhs):
    """One solution of rows * x = rhs, or None when inconsistent."""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    ncols = len(rows[0])
    ctx = rhs[0].ctx
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(aug)):
            if not aug[r][col].is_zero():
                pivot = r
                break
        if pivot is None:
            continue
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        inv = aug[rank][col].inverse()
        aug[rank] = [x * inv for x in aug[rank]]
        for r in range(len(aug)):
            if r != rank and not aug[r][col].is_zero():
                c = aug[r][col]
                aug[r] = [x - c * y for x, y in zip(aug[r], aug[rank])]
        pivots.append(col)
        rank += 1
    for r in range(rank, len(aug)):
        if not aug[r][-1].is_zero():
            return None
    sol = [ctx.zero_element] * ncols
    for i, pc in enumerate(pivots):
        sol[pc] = aug[i][-1]
    return sol


def determinant(rows):
    """Determinant by Gaussian elimination over the entries' field."""
    n = len(rows)
    mat = [list(r) for r in rows]
    ctx = mat[0][0].ctx
    det = ctx.one_element
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if not mat[r][col].is_zero():
                pivot = r
                break
        if pivot is None:
            return ctx.zero_element
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        det = det * mat[col][col]
        inv = mat[col][col].inverse()
        mat[col] = [x * inv for x in mat[col]]
        for r in range(col + 1, n):
            if not mat[r][col].is_zero():
                c = mat[r][col]
                mat[r] = [x - c * y for x, y in zip(mat[r], mat[col])]
    return det


def as_vector(x, over):
    """Coordinates of x with respect to the tower basis over `over`."""
    if x.ctx is over:
        return [x]
    if x.ctx.parent is None:
        raise LevelMismatch(f"{over!r} is not below {x.ctx!r}")
    parent = x.ctx.parent
    out = []
    for c in x.ctx._coords(x.val):
        out.extend(as_vector(FieldElement(parent, c), over))
    return out


def from_vector(coeffs, level):
    """Inverse of :func:`as_vector`: rebuild an element of `level` from
    its coordinates over the level the coefficients live in."""
    coeffs = list(coeffs)
    if not coeffs:
        raise WrongLength("empty coordinate vector")
    low = coeffs[0].ctx
    for c in coeffs:
        if c.ctx is not low:
            raise LevelMismatch("coordinates live in different levels")
    if level is low:
        if len(coeffs) != 1:
            raise WrongLength(f"expected 1 coordinate, got {len(coeffs)}")
        return coeffs[0]
    expected = dim_between(level, low)
    if len(coeffs) != expected:
        raise WrongLength(f"expected {expected} coordinates, got {len(coeffs)}")
    chunk = expected // level.degree
    parts = []
    for i in range(level.degree):
        parts.append(from_vector(coeffs[i * chunk : (i + 1) * chunk], level.parent).val)
    return FieldElement(level, level._from_coords(parts))
