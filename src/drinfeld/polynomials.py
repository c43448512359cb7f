"""Dense and sparse polynomials over a tower level: one base class per shape.

- ``DensePoly``, little-endian coefficients without trailing zeros:
  ``UniPoly`` (the operator ring GF(q)[T], with Euclidean division,
  gcds, root searches and splitting-field degrees) and
  ``core.SkewPoly`` (the twisted ring K{tau}).
- ``SparsePoly``, an exponent tuple -> coefficient map over a fixed
  number of slots: ``MultiPoly`` (the symmetric coefficient
  polynomials, reduced modulo the ideal of a(T_1), ..., a(T_r) by
  ``normal_form(p, a)``) and ``pairing.QPowerPoly`` (Frobenius exponents).

Each shape has one validating constructor, ``__init__``, for terms
from outside (user code, JSON, the closed forms).  Every internal
result is computed on raw payloads and wrapped once by ``_wrap``, which
checks nothing: it takes a stripped payload list (dense) or a payload
dict, whose zero entries it drops (sparse).  ``coeffs`` holds
FieldElements of ``ctx`` with no trailing zero.  A sparse polynomial
keeps one {exponent tuple: nonzero payload} dict, which the package
reads as it stands; ``terms`` wraps it read-only, as FieldElements of ``ctx``.

The ideal's generators are univariate in distinct variables, so they
form a Groebner basis for any monomial order and the normal form is
just iterated univariate division, one variable at a time.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from types import MappingProxyType

from .errors import ArityMismatch, MalformedInput, NonMonic
from .fields import (
    FieldElement,
    _frobenius_map,
    _pcombine,
    _pdistinct_degree,
    _pdivmod,
    _pgcd,
    _pmod,
    _pmonic,
    _pmul,
    _power,
    _ppow_mod,
    _pstrip,
    _pxgcd,
    common_level,
    extend,
    field_from_descriptor,
    require_int,
)


class DensePoly:
    """Dense polynomial: little-endian FieldElement coefficients of
    `ctx`, no trailing zeros.  Subclasses set the rendered variable
    name and whether terms render from the top degree down."""

    __slots__ = ("ctx", "coeffs")

    _var = "T"
    _descending = True

    def __init__(self, ctx, coeffs=()):
        cleaned = []
        for c in coeffs:
            if not isinstance(c, FieldElement):
                raise TypeError(f"{type(self).__name__} coefficients must be FieldElements")
            cleaned.append(c if c.ctx is ctx else c.embed_to(ctx))
        while cleaned and cleaned[-1].is_zero():
            cleaned.pop()
        self.ctx = ctx
        self.coeffs = tuple(cleaned)

    @classmethod
    def zero(cls, ctx):
        return cls(ctx, ())

    @classmethod
    def one(cls, ctx):
        return cls(ctx, (ctx.one_element,))

    @classmethod
    def constant(cls, value):
        return cls(value.ctx, (value,))

    @classmethod
    def _wrap(cls, ctx, payloads):
        """Polynomial from stripped payloads of `ctx`, built by the core;
        nothing is revalidated."""
        poly = object.__new__(cls)
        poly.ctx = ctx
        poly.coeffs = tuple(FieldElement(ctx, v) for v in payloads)
        return poly

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __getitem__(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.ctx.zero_element

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.ctx is other.ctx
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((id(self.ctx), self.coeffs))

    def _payloads(self, ctx):
        if ctx is self.ctx:
            return [c.val for c in self.coeffs]
        return [ctx.embed_payload(c.val, self.ctx) for c in self.coeffs]

    def _common(self, other):
        """The joined level and both operands' payload lists on it; only
        polynomials of the same class combine."""
        if type(other) is not type(self):
            raise TypeError(
                f"cannot combine {type(self).__name__} with {type(other).__name__}"
            )
        ctx = common_level(self.ctx, other.ctx)
        return ctx, self._payloads(ctx), other._payloads(ctx)

    def __add__(self, other):
        ctx, f, g = self._common(other)
        return self._wrap(ctx, _pcombine(ctx, ctx.add, f, g))

    def __sub__(self, other):
        ctx, f, g = self._common(other)
        return self._wrap(ctx, _pcombine(ctx, ctx.sub, f, g))

    def __neg__(self):
        neg = self.ctx.neg
        return self._wrap(self.ctx, [neg(c.val) for c in self.coeffs])

    def render(self):
        if self.is_zero():
            return "0"
        order = range(self.degree, -1, -1) if self._descending else range(self.degree + 1)
        parts = []
        for i in order:
            c = self.coeffs[i]
            if c.is_zero():
                continue
            if i == 0:
                parts.append(str(c.rank()))
            else:
                head = "" if c.is_one() else f"{c.rank()}*"
                parts.append(f"{head}{self._var}" + (f"^{i}" if i > 1 else ""))
        return " + ".join(parts)

    def __repr__(self):
        return f"{type(self).__name__}({self.render()!r} over {self.ctx!r})"


class UniPoly(DensePoly):
    """Univariate polynomial in T, rendered from the top degree down."""

    __slots__ = ()

    # the perfbench tracer wraps these from this class's own __dict__
    __add__ = DensePoly.__add__
    __sub__ = DensePoly.__sub__

    @classmethod
    def gen(cls, ctx):
        """The polynomial T."""
        return cls(ctx, (ctx.zero_element, ctx.one_element))

    @classmethod
    def from_ranks(cls, ctx, ranks):
        """Coefficients given as element ranks, each an int (not a bool)
        in [0, order); anything else raises ValueError (MalformedInput
        for a rank that is not an int)."""
        return cls(ctx, tuple(ctx.element_of_rank(r) for r in ranks))

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1].is_one()

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
        if require_int(e, "exponent") < 0:
            raise ValueError(f"negative exponent {e} of a polynomial")
        return _power(operator.mul, self, e, UniPoly.one(self.ctx))

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

    def to_json(self):
        return {
            "level": self.ctx.descriptor(),
            "coeffs": [c.to_json() for c in self.coeffs],
        }

    @classmethod
    def from_json(cls, obj):
        """The polynomial `to_json` wrote, on the level obj["level"] describes."""
        level = _json_level(obj, "coeffs")
        return cls(level, (level.element_from_json(c) for c in obj["coeffs"]))


def _json_level(obj, list_key, *keys):
    """The level obj["level"] describes.  MalformedInput unless obj is an
    object with a list `list_key`, every key, and "level"."""
    keys += ("level",)
    if not (isinstance(obj, dict) and isinstance(obj.get(list_key), list)
            and all(k in obj for k in keys)):
        raise MalformedInput(f'a polynomial is an object with a list "{list_key}" and {keys}')
    return field_from_descriptor(obj["level"])


def require_monic(a):
    """NonMonic unless a is monic of degree >= 1: the one check of the
    operator polynomial that f_a, the pairing, torsion and A/aA take."""
    if not a.is_monic():
        raise NonMonic(f"{a.render()} is not monic")
    if a.degree < 1:
        raise NonMonic("need deg(a) >= 1")


def poly_gcd(f, g):
    """Monic gcd by the Euclidean algorithm."""
    ctx, f, g = f._common(g)
    return UniPoly._wrap(ctx, _pgcd(ctx, f, g))


def poly_xgcd(f, g):
    """(d, u, v) with u*f + v*g = d and d monic."""
    ctx, f, g = f._common(g)
    return tuple(UniPoly._wrap(ctx, h) for h in _pxgcd(ctx, f, g))


# seed of the splitting elements delta drawn by `roots_in_field`
_SPLIT_SEED = 2010_05283


def roots_in_field(f, level):
    """All roots of f in `level`, with multiplicity, in rank order.

    No element is tried.  With Q = |level|, g = gcd(f, x**Q - x) is the
    product of the distinct linear factors of f over the level; x**Q mod
    f is one step of ``fields._frobenius_map``, through f's slot codec
    when the level is GF(p) and the codec has slots for f.
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
    frob_x = _frobenius_map(level, g)(x)
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


def splitting_level(f):
    """Smallest tower level containing every root of f.

    Returns GF(Q**d) over f's level, where d is the lcm of the distinct
    degrees of f's irreducible factors, the yields of the distinct-degree
    loop on monic f (``fields._pdistinct_degree``, never a full
    factorization; its x**(Q**i) steps run through f's slot codec when
    f's level is GF(p) and the codec has slots for f).
    """
    if f.degree < 1:
        raise ValueError("splitting level of a constant polynomial")
    ctx = f.ctx
    d = math.lcm(*(i for i, _ in _pdistinct_degree(ctx, _pmonic(ctx, f._payloads(ctx)))))
    return ctx if d == 1 else extend(ctx, d)


# ---------------------------------------------------------------------------
# sparse polynomials
# ---------------------------------------------------------------------------


class SparsePoly:
    """Sparse polynomial in `nvars` slots: exponent tuple -> nonzero
    payload of `ctx`.  Subclasses set the JSON key of a term's exponent
    tuple and the canonical term order, `_sorted_payloads`."""

    __slots__ = ("ctx", "nvars", "_vals")

    _json_key = "exps"

    def __init__(self, ctx, nvars, terms=None):
        """nvars and every exponent must be an int (not a bool) >= 0,
        else MalformedInput; a tuple of another length is ArityMismatch."""
        require_int(nvars, "the number of variables", low=0)
        cleaned = {}
        for exps, c in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != nvars:
                raise ArityMismatch(f"exponent tuple {exps} is not length {nvars}")
            for e in exps:
                require_int(e, f"every exponent of {exps}", low=0)
            if not isinstance(c, FieldElement):
                raise TypeError(f"{type(self).__name__} coefficients must be FieldElements")
            if not c.is_zero():
                cleaned[exps] = c.val if c.ctx is ctx else ctx.embed_payload(c.val, c.ctx)
        self.ctx = ctx
        self.nvars = nvars
        self._vals = cleaned

    @classmethod
    def _wrap(cls, ctx, nvars, terms):
        """Polynomial from {exponent tuple: payload of ctx}; zero
        payloads are dropped and nothing else is revalidated."""
        zero = ctx.zero()
        poly = object.__new__(cls)
        poly.ctx = ctx
        poly.nvars = nvars
        poly._vals = {e: v for e, v in terms.items() if v != zero}
        return poly

    @property
    def terms(self):
        """A read-only {exponent tuple: nonzero FieldElement of ctx}."""
        return MappingProxyType({e: FieldElement(self.ctx, v) for e, v in self._vals.items()})

    def _payloads(self, ctx):
        """The {exponent tuple: payload} dict on `ctx`: on the own level
        the stored dict itself, which the caller must not change."""
        if ctx is self.ctx:
            return self._vals
        embed, own = ctx.embed_payload, self.ctx
        return {e: embed(v, own) for e, v in self._vals.items()}

    def is_zero(self):
        return not self._vals

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.ctx is other.ctx
            and self.nvars == other.nvars
            and self._vals == other._vals
        )

    def __hash__(self):
        return hash((id(self.ctx), self.nvars, frozenset(self._vals.items())))

    def _top_exponent(self, j):
        """Largest exponent in slot j (0-indexed); -1 for the zero polynomial."""
        return max((e[j] for e in self._vals), default=-1)

    def scale(self, value):
        value = value if value.ctx is self.ctx else value.embed_to(self.ctx)
        mul, v = self.ctx.mul, value.val
        return self._wrap(self.ctx, self.nvars, {e: mul(c, v) for e, c in self._vals.items()})

    def sorted_terms(self):
        """(exponent tuple, FieldElement) pairs in the canonical order."""
        return [(e, FieldElement(self.ctx, v)) for e, v in self._sorted_payloads()]

    def json_head(self, terms):
        """`to_json`'s object with `terms` in place of its term records."""
        return {"vars": self.nvars, "level": self.ctx.descriptor(), "terms": terms}

    def json_term(self, exps, coeff):
        """One of `to_json`'s term records, from its exponents and coefficient JSON."""
        return {self._json_key: exps, "coeff": coeff}

    def to_json(self):
        term, coeff = self.json_term, self.ctx.element_to_json
        return self.json_head([term(list(e), coeff(v)) for e, v in self._sorted_payloads()])

    @classmethod
    def from_json(cls, obj):
        """The polynomial `to_json` wrote, on the level obj["level"]
        describes; "terms" and each term's exponents must be lists, each
        term needs a "coeff" and no exponent tuple may repeat, else
        MalformedInput."""
        level = _json_level(obj, "terms", "vars")
        key, terms = cls._json_key, {}
        for t in obj["terms"]:
            exps = t.get(key) if isinstance(t, dict) and "coeff" in t else None
            if not isinstance(exps, list) or not all(type(e) is int for e in exps):
                raise MalformedInput(f'each of "terms" needs a "coeff" and a list of int "{key}"')
            if tuple(exps) in terms:
                raise MalformedInput(f"exponent tuple {exps} repeats")
            terms[tuple(exps)] = level.element_from_json(t["coeff"])
        return cls(level, obj["vars"], terms)

    def __repr__(self):
        return f"{type(self).__name__}({self.render()!r} over {self.ctx!r})"


class MultiPoly(SparsePoly):
    """Sparse polynomial in T_1 .. T_r: exponent tuple -> coefficient."""

    __slots__ = ()

    degree_in = SparsePoly._top_exponent
    # the perfbench tracer wraps scale from this class's own __dict__
    scale = SparsePoly.scale

    @classmethod
    def zero(cls, ctx, nvars):
        return cls(ctx, nvars, {})

    @classmethod
    def constant(cls, ctx, nvars, value):
        return cls(ctx, nvars, {(0,) * nvars: value})

    @classmethod
    def one(cls, ctx, nvars):
        return cls._wrap(ctx, nvars, {(0,) * nvars: ctx.one()})

    @classmethod
    def variable(cls, ctx, nvars, j):
        """The polynomial T_{j+1} (0-indexed slot j)."""
        exps = [0] * nvars
        exps[j] = 1
        return cls._wrap(ctx, nvars, {tuple(exps): ctx.one()})

    def _common(self, other):
        """The joined level and both operands' payload dicts on it."""
        if not isinstance(other, MultiPoly):
            raise TypeError(f"cannot combine MultiPoly with {type(other).__name__}")
        if self.nvars != other.nvars:
            raise ArityMismatch(f"{self.nvars} variables vs {other.nvars}")
        ctx = common_level(self.ctx, other.ctx)
        return ctx, self._payloads(ctx), other._payloads(ctx)

    def _combine(self, other, name):
        ctx, f, g = self._common(other)
        op, zero, f = getattr(ctx, name), ctx.zero(), dict(f)
        for e, v in g.items():
            f[e] = op(f.get(e, zero), v)
        return MultiPoly._wrap(ctx, self.nvars, f)

    def __add__(self, other):
        return self._combine(other, "add")

    def __sub__(self, other):
        return self._combine(other, "sub")

    def __neg__(self):
        neg = self.ctx.neg
        return MultiPoly._wrap(self.ctx, self.nvars, {e: neg(c) for e, c in self._vals.items()})

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            return self.scale(other)
        ctx, f, g = self._common(other)
        zero = ctx.zero()
        add, mul = ctx.add, ctx.mul
        terms = {}
        for e1, c1 in f.items():
            for e2, c2 in g.items():
                key = tuple(map(int.__add__, e1, e2))
                terms[key] = add(terms.get(key, zero), mul(c1, c2))
        return MultiPoly._wrap(ctx, self.nvars, terms)

    def permute(self, sigma):
        """Substitute T_j -> T_{sigma(j)}; sigma is a 0-indexed bijection.

        Composition satisfies p.permute(s).permute(r) == p.permute(r o s).
        """
        sigma = tuple(sigma)
        if sorted(sigma) != list(range(self.nvars)):
            raise ArityMismatch(f"{sigma} is not a permutation of {self.nvars} slots")
        terms = {}
        for exps, c in self._vals.items():
            new = [0] * self.nvars
            for j, e in enumerate(exps):
                new[sigma[j]] = e
            terms[tuple(new)] = c
        return MultiPoly._wrap(self.ctx, self.nvars, terms)

    def embed_to(self, level):
        if level is self.ctx:
            return self
        return MultiPoly._wrap(level, self.nvars, self._payloads(level))

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

    def _sorted_payloads(self):
        """(exponent tuple, payload) pairs in canonical order: graded lex
        with T_1 > ... > T_r, largest monomial first: by tuple, then
        stably by degree (tuples are unique, so no coefficient is ever
        compared).  One sort on nested (degree, exponents) keys took
        1.7x as long at r = 16."""
        by_exps = sorted(self._vals.items(), reverse=True)
        return sorted(by_exps, key=lambda item: sum(item[0]), reverse=True)

    def render(self):
        if not self._vals:
            return "0"
        parts = []
        for exps, c in self.sorted_terms():
            factors = []
            for j, e in enumerate(exps):
                if e == 1:
                    factors.append(f"T{j + 1}")
                elif e > 1:
                    factors.append(f"T{j + 1}^{e}")
            if not factors:
                parts.append(str(c.rank()))
            elif c.is_one():
                parts.append("*".join(factors))
            else:
                parts.append(f"{c.rank()}*" + "*".join(factors))
        return " + ".join(parts)


def normal_form(p, a):
    """Reduce p modulo the ideal (a(T_1), ..., a(T_r)), r = p.nvars, for a
    UniPoly a of degree n >= 1 (else ValueError); the result has degree
    < n in every variable, the map is linear and idempotent, and p
    minus the result lies in the ideal.  Exponents below n pass as they
    stand; T^e mod a for e >= n is T^(e-1) mod a shifted, less its top
    coefficient times a's low coefficients over a's lead (a need not be monic)."""
    n = a.degree
    if n < 1:
        raise ValueError("ideal generator must have degree >= 1")
    ctx = p.ctx
    zero, add, sub, mul = ctx.zero(), ctx.add, ctx.sub, ctx.mul
    a_vals = a._payloads(ctx)
    inv_lead = ctx.inv(a_vals[n])
    low = [mul(c, inv_lead) for c in a_vals[:n]]  # T^n = -sum low[k] T^k mod a
    residues, res = [], [zero] * (n - 1) + [ctx.one()]  # residues[e - n]: T^e mod a
    for _ in range(n, max((max(exps) + 1 for exps in p._vals), default=0)):
        top, res = res[-1], [zero] + res[:-1]
        if top != zero:
            res = [sub(c, mul(top, x)) for c, x in zip(res, low)]
        residues.append([(k, c) for k, c in enumerate(res) if c != zero])
    out = {}
    for exps, coeff in p._vals.items():
        if max(exps) < n:
            out[exps] = add(out.get(exps, zero), coeff)
            continue
        partial = {(): coeff}
        for e in exps:  # keys stay distinct: one new exponent per key
            if e < n:
                partial = {prefix + (e,): c for prefix, c in partial.items()}
            else:
                partial = {prefix + (k,): mul(c, rc) for prefix, c in partial.items()
                           for k, rc in residues[e - n]}
        for key, c in partial.items():
            out[key] = add(out.get(key, zero), c)
    return MultiPoly._wrap(ctx, p.nvars, out)


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
