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
dict, whose zero entries it drops (sparse).  ``coeffs`` and ``terms``
hold FieldElements of ``ctx``, with no trailing or zero term.

The ideal's generators are univariate in distinct variables, so they
form a Groebner basis for any monomial order and the normal form is
just iterated univariate division, one variable at a time.
"""

from __future__ import annotations

import itertools
import math
import operator
import random

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

    def render(self, var=None):
        if self.is_zero():
            return "0"
        var = self._var if var is None else var
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
                parts.append(f"{head}{var}" + (f"^{i}" if i > 1 else ""))
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

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

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
    def from_json(cls, obj, ctx=None):
        level = _json_level(obj, ctx, "coeffs")
        return cls(level, (level.element_from_json(c) for c in obj["coeffs"]))


def _json_level(obj, ctx, list_key, *keys):
    """`ctx`, else the level obj["level"] describes.  MalformedInput unless
    obj is an object with a list `list_key`, every key, and "level" if no ctx."""
    keys += () if ctx is not None else ("level",)
    if not (isinstance(obj, dict) and isinstance(obj.get(list_key), list)
            and all(k in obj for k in keys)):
        raise MalformedInput(f'a polynomial is an object with a list "{list_key}" and {keys}')
    return ctx if ctx is not None else field_from_descriptor(obj["level"])


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


def pow_mod(f, exponent, mod):
    """f**exponent reduced modulo `mod`, by repeated squaring."""
    ctx, f, mod = f._common(mod)
    return UniPoly._wrap(ctx, _ppow_mod(ctx, f, exponent, mod))


# seed of the splitting elements delta drawn by `roots_in_field`
_SPLIT_SEED = 2010_05283


def roots_in_field(f, level):
    """All roots of f in `level`, with multiplicity, in rank order.

    No element is tried.  With Q = |level|, g = gcd(f, x**Q - x) is the
    product of the distinct linear factors of f over the level; x**Q mod
    f is one step of ``fields._frobenius_map``, by Kronecker products
    when the level is GF(p) and f fits its byte slots.
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
    factorization; its x**(Q**i) steps run on Kronecker products when
    f's level is GF(p) and f fits their byte slots).
    """
    if f.degree < 1:
        raise ValueError("splitting level of a constant polynomial")
    ctx = f.ctx
    d = math.lcm(*(i for i, _ in _pdistinct_degree(ctx, _pmonic(ctx, f._payloads(ctx)))))
    return ctx if d == 1 else extend(ctx, d)[0]


# ---------------------------------------------------------------------------
# sparse polynomials
# ---------------------------------------------------------------------------


class SparsePoly:
    """Sparse polynomial in `nvars` slots: exponent tuple -> nonzero
    FieldElement of `ctx`.  Subclasses set the JSON key of a term's
    exponent tuple."""

    __slots__ = ("ctx", "nvars", "terms")

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
                cleaned[exps] = c if c.ctx is ctx else c.embed_to(ctx)
        self.ctx = ctx
        self.nvars = nvars
        self.terms = cleaned

    @classmethod
    def _wrap(cls, ctx, nvars, terms):
        """Polynomial from {exponent tuple: payload of ctx}; zero
        payloads are dropped and nothing else is revalidated."""
        zero = ctx.zero()
        poly = object.__new__(cls)
        poly.ctx = ctx
        poly.nvars = nvars
        poly.terms = {e: FieldElement(ctx, v) for e, v in terms.items() if v != zero}
        return poly

    def _payloads(self, ctx):
        """A fresh {exponent tuple: payload} dict on `ctx`."""
        if ctx is self.ctx:
            return {e: c.val for e, c in self.terms.items()}
        return {e: ctx.embed_payload(c.val, self.ctx) for e, c in self.terms.items()}

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.ctx is other.ctx
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((id(self.ctx), self.nvars, frozenset(self.terms.items())))

    def _top_exponent(self, j):
        """Largest exponent in slot j (0-indexed); -1 for the zero polynomial."""
        return max((e[j] for e in self.terms), default=-1)

    def scale(self, value):
        value = value if value.ctx is self.ctx else value.embed_to(self.ctx)
        mul, v = self.ctx.mul, value.val
        return self._wrap(
            self.ctx, self.nvars, {e: mul(c.val, v) for e, c in self.terms.items()}
        )

    def json_head(self, terms):
        """`to_json`'s object with `terms` in place of its term records."""
        return {"vars": self.nvars, "level": self.ctx.descriptor(), "terms": terms}

    def json_term(self, exps, coeff):
        """One of `to_json`'s term records, from its exponents and coefficient JSON."""
        return {self._json_key: exps, "coeff": coeff}

    def to_json(self):
        term, coeff = self.json_term, self.ctx.element_to_json
        return self.json_head([term(list(e), coeff(c.val)) for e, c in self.sorted_terms()])

    @classmethod
    def from_json(cls, obj, ctx=None):
        """The polynomial `to_json` wrote; "terms" and each term's exponents
        must be lists, each term needs a "coeff" and no exponent tuple may
        repeat, else MalformedInput."""
        level = _json_level(obj, ctx, "terms", "vars")
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
        op, zero = getattr(ctx, name), ctx.zero()
        for e, v in g.items():
            f[e] = op(f.get(e, zero), v)
        return MultiPoly._wrap(ctx, self.nvars, f)

    def __add__(self, other):
        return self._combine(other, "add")

    def __sub__(self, other):
        return self._combine(other, "sub")

    def __neg__(self):
        neg = self.ctx.neg
        return MultiPoly._wrap(
            self.ctx, self.nvars, {e: neg(c.val) for e, c in self.terms.items()}
        )

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
        for exps, c in self.terms.items():
            new = [0] * self.nvars
            for j, e in enumerate(exps):
                new[sigma[j]] = e
            terms[tuple(new)] = c.val
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

    def sorted_terms(self):
        """Terms in canonical order: graded lex with T_1 > ... > T_r,
        largest monomial first: by tuple, then stably by degree (tuples
        are unique, so no coefficient is ever compared).  One sort on
        nested (degree, exponents) keys took 1.7x as long at r = 16."""
        by_exps = sorted(self.terms.items(), reverse=True)
        return sorted(by_exps, key=lambda item: sum(item[0]), reverse=True)

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


def normal_form(p, a):
    """Reduce p modulo the ideal (a(T_1), ..., a(T_r)), r = p.nvars, for a
    UniPoly a of degree >= 1 (else ValueError); the result has degree
    < deg(a) in every variable, the map is linear and idempotent, and p
    minus the result lies in the ideal."""
    if a.degree < 1:
        raise ValueError("ideal generator must have degree >= 1")
    ctx = p.ctx
    max_exp = max((max(exps) for exps in p.terms), default=0)
    # residues of T**k mod a, as payload lists
    a_vals = a._payloads(ctx)
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
