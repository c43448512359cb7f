"""Univariate and sparse multivariate polynomials over a tower level.

UniPoly is the workhorse for the operator ring GF(q)[T]: dense
little-endian coefficients, Euclidean division, gcds, root searches and
splitting-field degrees.  It wraps the payload arithmetic of
``fields``: each operation unwraps its operands to payload lists, calls
the core once and wraps the result, so ``coeffs`` stays a tuple of
FieldElements.  MultiPoly is a sparse exponent-tuple ->
coefficient map used for the symmetric coefficient polynomials of the
pairing, together with normal-form reduction modulo the ideal
generated by a(T_1), ..., a(T_r).

The ideal's generators are univariate in distinct variables, so they
form a Groebner basis for any monomial order and the normal form is
just iterated univariate division, one variable at a time.
"""

from __future__ import annotations

import itertools
import math
import random

from .errors import ArityMismatch
from .fields import (
    FieldElement,
    _pcombine,
    _pdivmod,
    _pgcd,
    _pmod,
    _pmonic,
    _pmul,
    _ppow_mod,
    _pstrip,
    _pxgcd,
    common_level,
    extend,
)


class UniPoly:
    """Dense univariate polynomial; little-endian, no trailing zeros."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx, coeffs=()):
        cleaned = []
        for c in coeffs:
            if not isinstance(c, FieldElement):
                raise TypeError("UniPoly coefficients must be FieldElements")
            cleaned.append(c if c.ctx is ctx else c.embed_to(ctx))
        while cleaned and cleaned[-1].is_zero():
            cleaned.pop()
        self.ctx = ctx
        self.coeffs = tuple(cleaned)

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, ctx):
        return cls(ctx, ())

    @classmethod
    def one(cls, ctx):
        return cls(ctx, (ctx.one_element,))

    @classmethod
    def gen(cls, ctx):
        """The polynomial T."""
        return cls(ctx, (ctx.zero_element, ctx.one_element))

    @classmethod
    def constant(cls, value):
        return cls(value.ctx, (value,))

    @classmethod
    def from_ranks(cls, ctx, ranks):
        """Coefficients given as element ranks, each an int (not a bool)
        in [0, order); anything else raises ValueError (MalformedInput
        for a rank that is not an int)."""
        return cls(ctx, tuple(ctx.element_of_rank(r) for r in ranks))

    # -- structure -----------------------------------------------------------

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1].is_one()

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.ctx.zero_element

    def __eq__(self, other):
        return (
            isinstance(other, UniPoly)
            and self.ctx is other.ctx
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((id(self.ctx), self.coeffs))

    # -- arithmetic ----------------------------------------------------------

    @classmethod
    def _wrap(cls, ctx, payloads):
        """Polynomial from stripped payloads of `ctx`, built by the core;
        nothing is revalidated."""
        poly = object.__new__(cls)
        poly.ctx = ctx
        poly.coeffs = tuple(FieldElement(ctx, v) for v in payloads)
        return poly

    def _payloads(self, ctx):
        if ctx is self.ctx:
            return [c.val for c in self.coeffs]
        return [ctx.embed_payload(c.val, self.ctx) for c in self.coeffs]

    def _common(self, other):
        """The joined level and both operands' payload lists on it."""
        if not isinstance(other, UniPoly):
            raise TypeError(f"cannot combine UniPoly with {type(other).__name__}")
        ctx = common_level(self.ctx, other.ctx)
        return ctx, self._payloads(ctx), other._payloads(ctx)

    def __add__(self, other):
        ctx, f, g = self._common(other)
        return UniPoly._wrap(ctx, _pcombine(ctx, ctx.add, f, g))

    def __sub__(self, other):
        ctx, f, g = self._common(other)
        return UniPoly._wrap(ctx, _pcombine(ctx, ctx.sub, f, g))

    def __neg__(self):
        neg = self.ctx.neg
        return UniPoly._wrap(self.ctx, [neg(c.val) for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            other = UniPoly.constant(other)
        ctx, f, g = self._common(other)
        return UniPoly._wrap(ctx, _pmul(ctx, f, g))

    def __divmod__(self, other):
        ctx, f, g = self._common(other)
        quo, rem = _pdivmod(ctx, f, g)
        return UniPoly._wrap(ctx, quo), UniPoly._wrap(ctx, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, e):
        result = UniPoly.one(self.ctx)
        acc = self
        while e > 0:
            if e & 1:
                result = result * acc
            acc = acc * acc
            e >>= 1
        return result

    def __call__(self, x):
        """Evaluate by Horner at whichever level is the higher of the
        coefficient level and the point's level."""
        if not isinstance(x, FieldElement):
            raise TypeError("evaluation point must be a FieldElement")
        target = common_level(self.ctx, x.ctx)
        add, mul = target.add, target.mul
        point = target.embed_payload(x.val, x.ctx)
        acc = target.zero()
        for c in reversed(self._payloads(target)):
            acc = add(mul(acc, point), c)
        return FieldElement(target, acc)

    def derivative(self):
        """Formal derivative: coefficient i times i, as i additions mod p."""
        ctx = self.ctx
        add = ctx.add
        out = []
        for i, c in enumerate(self._payloads(ctx)[1:], 1):
            term = ctx.zero()
            for _ in range(i % ctx.p):
                term = add(term, c)
            out.append(term)
        return UniPoly._wrap(ctx, _pstrip(ctx, out))

    def monic(self):
        return UniPoly._wrap(self.ctx, _pmonic(self.ctx, self._payloads(self.ctx)))

    def embed_to(self, level):
        if level is self.ctx:
            return self
        return UniPoly._wrap(level, self._payloads(level))

    # -- serialization -------------------------------------------------------

    def to_json(self):
        return {
            "level": self.ctx.descriptor(),
            "coeffs": [c.to_json() for c in self.coeffs],
        }

    @classmethod
    def from_json(cls, obj, ctx=None):
        from .fields import field_from_descriptor

        level = ctx if ctx is not None else field_from_descriptor(obj["level"])
        return cls(level, (level.element_from_json(c) for c in obj["coeffs"]))

    def render(self, var="T"):
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self[i]
            if c.is_zero():
                continue
            if i == 0:
                parts.append(str(c.rank()))
            else:
                head = "" if c.is_one() else f"{c.rank()}*"
                parts.append(f"{head}{var}" + (f"^{i}" if i > 1 else ""))
        return " + ".join(parts)

    def __repr__(self):
        return f"UniPoly({self.render()!r} over {self.ctx!r})"


def poly_gcd(f, g):
    """Monic gcd by the Euclidean algorithm."""
    ctx, f, g = f._common(g)
    return UniPoly._wrap(ctx, _pgcd(ctx, f, g))


def poly_xgcd(f, g):
    """(d, u, v) with u*f + v*g = d and d monic."""
    ctx, f, g = f._common(g)
    return tuple(UniPoly._wrap(ctx, h) for h in _pxgcd(ctx, f, g))


def pow_mod(f, exponent, mod):
    """f**exponent reduced modulo `mod`, by repeated squaring."""
    ctx, f, mod = f._common(mod)
    return UniPoly._wrap(ctx, _ppow_mod(ctx, f, exponent, mod))


# seed of the splitting elements delta drawn by `roots_in_field`
_SPLIT_SEED = 2010_05283


def roots_in_field(f, level):
    """All roots of f in `level`, with multiplicity, in rank order.

    No element is tried.  With Q = |level|, g = gcd(f, x**Q - x) is the
    product of the distinct linear factors of f over the level.
    Equal-degree splitting (von zur Gathen and Gerhard, *Modern
    Computer Algebra*, ch. 14) takes g apart: for odd p,
    gcd((x + delta)**((Q-1)/2) - 1, h) keeps the roots alpha with
    alpha + delta a nonzero square; for p = 2, gcd(Tr(delta*x) mod h, h)
    keeps those with trace Tr(delta*alpha) = 0, where
    Tr(y) = y + y**2 + ... + y**(Q/2).  Each delta splits h with
    probability about 1/2, so a split takes about two tries.  Repeated
    division by x - alpha then counts each root's multiplicity.

    delta is drawn from a private generator with a fixed seed, made
    afresh per call, so every search runs the same way on every machine
    and never touches the `random` module's state.  It is not walked in
    rank order: the lowest ranks are the prime subfield, and a shift by
    a subfield element never separates two roots conjugate over that
    subfield, since their shifts have equal norms (at q = 1009, rank
    order took 1,013 tries on one split).  The roots are sorted by rank
    at the end, so the output does not depend on the deltas drawn.
    """
    if f.is_zero():
        raise ValueError("root search of the zero polynomial")
    g = _pmonic(level, f._payloads(level))
    if len(g) < 2:
        return []
    x = [level.zero(), level.one()]
    frob_x = _ppow_mod(level, x, level.order, g)
    pending = [_pgcd(level, g, _pcombine(level, level.sub, frob_x, x))]
    rng = random.Random(_SPLIT_SEED)
    distinct = []
    while pending:
        h = pending.pop()
        if len(h) == 2:
            distinct.append(level.neg(h[0]))
        elif len(h) > 2:
            d = _equal_degree_split(level, h, rng)
            pending += [d, _pdivmod(level, h, d)[0]]
    roots = []
    for alpha in distinct:
        linear = [level.neg(alpha), level.one()]
        while True:
            quo, rem = _pdivmod(level, g, linear)
            if rem:
                break
            roots.append(alpha)
            g = quo
    roots.sort(key=level.rank_of)
    return [FieldElement(level, alpha) for alpha in roots]


def _equal_degree_split(ctx, h, rng):
    """A monic factor of h of degree strictly between 0 and deg h, for h
    monic, squarefree and a product of at least two linear factors over
    ctx."""
    zero, one = ctx.zero(), ctx.one()
    while True:
        delta = ctx.payload_of_rank(rng.randrange(ctx.order))
        if ctx.p == 2:
            power = [zero, delta]
            w = power
            for _ in range(ctx.dim_over_prime - 1):
                power = _pmod(ctx, _pmul(ctx, power, power), h)
                w = _pcombine(ctx, ctx.add, w, power)
        else:
            w = _ppow_mod(ctx, [delta, one], (ctx.order - 1) // 2, h)
            w = _pcombine(ctx, ctx.sub, w, [one])
        d = _pgcd(ctx, h, w)
        if 1 < len(d) < len(h):
            return d


def _pth_root_poly(f):
    # f with zero derivative is a polynomial in T**p; take p-th roots of
    # the surviving coefficients (c -> c**(order/p) inverts x -> x**p).
    ctx = f.ctx
    p = ctx.p
    root_exp = ctx.order // p
    out = []
    for i in range(0, f.degree + 1, p):
        out.append(f[i] ** root_exp)
    return UniPoly(ctx, out)


def _distinct_degree_degrees(f):
    """Degrees (with repetition allowed) of the irreducible factors of a
    squarefree f, by gcds with x**(Q**i) - x."""
    ctx = f.ctx
    order = ctx.order
    degrees = []
    x_poly = UniPoly.gen(ctx)
    h = x_poly % f
    i = 0
    while f.degree > 0:
        i += 1
        if i > f.degree:  # pragma: no cover - loop always terminates earlier
            break
        if 2 * i > f.degree:
            degrees.append(f.degree)
            break
        h = pow_mod(h, order, f)
        g = poly_gcd(h - x_poly, f)
        if g.degree > 0:
            degrees.extend([i] * (g.degree // i))
            f = f // g
            h = h % f
    return degrees


def splitting_level(f):
    """Smallest tower level containing every root of f.

    Returns GF(Q**d) over f's level, where d is the lcm of the degrees
    of f's irreducible factors (found by distinct-degree gcds, never a
    full factorization).
    """
    if f.degree < 1:
        raise ValueError("splitting level of a constant polynomial")
    ctx = f.ctx
    g = f.monic()
    degrees = []
    while g.degree > 0:
        d = g.derivative()
        if d.is_zero():
            g = _pth_root_poly(g)
            continue
        w = g // poly_gcd(g, d)  # product of the factors with exponent prime to p
        degrees.extend(_distinct_degree_degrees(w))
        rest = g
        while True:
            c = poly_gcd(rest, w)
            if c.degree == 0:
                break
            rest = rest // c
        g = rest
    d = math.lcm(*degrees)
    if d == 1:
        return ctx
    return extend(ctx, d)[0]


# ---------------------------------------------------------------------------
# sparse multivariate polynomials
# ---------------------------------------------------------------------------


def _grlex_key(exps):
    # graded lexicographic with T_1 > T_2 > ... ; negated for descending sort
    return (-sum(exps),) + tuple(-e for e in exps)


class MultiPoly:
    """Sparse polynomial in T_1 .. T_r: exponent tuple -> coefficient."""

    __slots__ = ("ctx", "nvars", "terms")

    def __init__(self, ctx, nvars, terms=None):
        self.ctx = ctx
        self.nvars = nvars
        cleaned = {}
        for exps, c in (terms or {}).items():
            if len(exps) != nvars:
                raise ArityMismatch(f"exponent tuple {exps} is not length {nvars}")
            if not c.is_zero():
                cleaned[tuple(int(e) for e in exps)] = (
                    c if c.ctx is ctx else c.embed_to(ctx)
                )
        self.terms = cleaned

    @classmethod
    def zero(cls, ctx, nvars):
        return cls(ctx, nvars, {})

    @classmethod
    def constant(cls, ctx, nvars, value):
        return cls(ctx, nvars, {(0,) * nvars: value})

    @classmethod
    def one(cls, ctx, nvars):
        return cls.constant(ctx, nvars, ctx.one_element)

    @classmethod
    def variable(cls, ctx, nvars, j):
        """The polynomial T_{j+1} (0-indexed slot j)."""
        exps = [0] * nvars
        exps[j] = 1
        return cls(ctx, nvars, {tuple(exps): ctx.one_element})

    def is_zero(self):
        return not self.terms

    def _common(self, other):
        if not isinstance(other, MultiPoly):
            raise TypeError(f"cannot combine MultiPoly with {type(other).__name__}")
        if self.nvars != other.nvars:
            raise ArityMismatch(f"{self.nvars} variables vs {other.nvars}")
        ctx = common_level(self.ctx, other.ctx)
        return ctx, self.embed_to(ctx), other.embed_to(ctx)

    def __add__(self, other):
        ctx, f, g = self._common(other)
        terms = dict(f.terms)
        zero = ctx.zero_element
        for exps, c in g.terms.items():
            terms[exps] = terms.get(exps, zero) + c
        return MultiPoly(ctx, f.nvars, terms)

    def __sub__(self, other):
        ctx, f, g = self._common(other)
        terms = dict(f.terms)
        zero = ctx.zero_element
        for exps, c in g.terms.items():
            terms[exps] = terms.get(exps, zero) - c
        return MultiPoly(ctx, f.nvars, terms)

    def __neg__(self):
        return MultiPoly(self.ctx, self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            return self.scale(other)
        ctx, f, g = self._common(other)
        terms = {}
        zero = ctx.zero_element
        for e1, c1 in f.terms.items():
            for e2, c2 in g.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                terms[key] = terms.get(key, zero) + c1 * c2
        return MultiPoly(ctx, f.nvars, terms)

    def scale(self, value):
        value = value if value.ctx is self.ctx else value.embed_to(self.ctx)
        return MultiPoly(
            self.ctx, self.nvars, {e: c * value for e, c in self.terms.items()}
        )

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and self.ctx is other.ctx
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((id(self.ctx), self.nvars, frozenset(self.terms.items())))

    def degree_in(self, j):
        """Degree in variable slot j (0-indexed); -1 for the zero poly."""
        if not self.terms:
            return -1
        return max(e[j] for e in self.terms)

    def permute(self, sigma):
        """Substitute T_j -> T_{sigma(j)}; sigma is a 0-indexed bijection.

        Composition satisfies p.permute(s).permute(r) == p.permute(r o s).
        """
        sigma = tuple(sigma)
        if sorted(sigma) != list(range(self.nvars)):
            raise ArityMismatch(f"{sigma} is not a permutation of {self.nvars} slots")
        terms = {}
        for exps, c in self.terms.items():
            new = [0] * self.nvars
            for j, e in enumerate(exps):
                new[sigma[j]] = e
            terms[tuple(new)] = c
        return MultiPoly(self.ctx, self.nvars, terms)

    def embed_to(self, level):
        if level is self.ctx:
            return self
        return MultiPoly(
            level, self.nvars, {e: c.embed_to(level) for e, c in self.terms.items()}
        )

    def __call__(self, points):
        """Evaluate at a tuple of FieldElements (above the coefficient level)."""
        if len(points) != self.nvars:
            raise ArityMismatch(f"need {self.nvars} points")
        level = points[0].ctx
        acc = level.zero_element
        for exps, c in self.terms.items():
            term = c.embed_to(level)
            for x, e in zip(points, exps):
                if e:
                    term = term * x**e
            acc = acc + term
        return acc

    def sorted_terms(self):
        """Terms in canonical order: graded lex with T_1 > ... > T_r,
        largest monomial first."""
        return sorted(self.terms.items(), key=lambda item: _grlex_key(item[0]))

    def to_json(self):
        return {
            "vars": self.nvars,
            "level": self.ctx.descriptor(),
            "terms": [
                {"exps": list(e), "coeff": c.to_json()} for e, c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json(cls, obj, ctx=None):
        from .fields import field_from_descriptor

        level = ctx if ctx is not None else field_from_descriptor(obj["level"])
        terms = {}
        for t in obj["terms"]:
            terms[tuple(t["exps"])] = level.element_from_json(t["coeff"])
        return cls(level, int(obj["vars"]), terms)

    def render(self, var="T"):
        if not self.terms:
            return "0"
        parts = []
        for exps, c in self.sorted_terms():
            factors = []
            for j, e in enumerate(exps):
                if e == 1:
                    factors.append(f"{var}{j + 1}")
                elif e > 1:
                    factors.append(f"{var}{j + 1}^{e}")
            if not factors:
                parts.append(str(c.rank()))
            elif c.is_one():
                parts.append("*".join(factors))
            else:
                parts.append(f"{c.rank()}*" + "*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"MultiPoly({self.render()!r} over {self.ctx!r})"


class IdealI:
    """The ideal generated by a(T_1), ..., a(T_r)."""

    __slots__ = ("a", "nvars")

    def __init__(self, a, nvars):
        if a.degree < 1:
            raise ValueError("ideal generator must have degree >= 1")
        self.a = a
        self.nvars = nvars

    def __repr__(self):
        return f"IdealI(a={self.a.render()!r}, r={self.nvars})"


def normal_form(p, ideal):
    """Reduce p modulo the ideal; the result has degree < deg(a) in
    every variable, the map is linear and idempotent, and p minus the
    result lies in the ideal."""
    ctx = p.ctx
    if p.nvars != ideal.nvars:
        raise ArityMismatch(f"{p.nvars} variables vs ideal arity {ideal.nvars}")
    max_exp = max((max(exps) for exps in p.terms), default=0)
    # residues of T**k mod a, as payload lists
    a_vals = ideal.a._payloads(ctx)
    zero = ctx.zero()
    add, mul = ctx.add, ctx.mul
    residues = [[ctx.one()]]
    for _ in range(max_exp):
        residues.append(_pmod(ctx, [zero] + residues[-1], a_vals))
    out = {}
    for exps, coeff in p.terms.items():
        partial = {(): coeff.val}
        for j in range(p.nvars):
            res = residues[exps[j]]
            nxt = {}
            for prefix, c in partial.items():
                for k, rc in enumerate(res):
                    if rc != zero:
                        key = prefix + (k,)
                        nxt[key] = add(nxt.get(key, zero), mul(c, rc))
            partial = nxt
        for key, c in partial.items():
            out[key] = add(out.get(key, zero), c)
    return MultiPoly(ctx, p.nvars, {key: FieldElement(ctx, c) for key, c in out.items()})


def rank_vectors(order, length):
    """Every tuple of `length` ranks below `order`, in the package's
    enumeration order: lexicographic, the first entry varying slowest.
    Monic polynomials, residue classes mod a, torsion points and module
    coordinates are all listed this way."""
    return itertools.product(range(order), repeat=length)


def all_monic(ctx, degree):
    """Every monic polynomial of exactly this degree, in rank order."""
    one = ctx.one_element
    return [
        UniPoly(ctx, [ctx.element_of_rank(r) for r in ranks] + [one])
        for ranks in rank_vectors(ctx.order, degree)
    ]
