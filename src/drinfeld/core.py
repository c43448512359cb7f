"""Twisted polynomials, Drinfeld modules and their torsion modules.

The twisted ring K{tau} is the algebra of GF(q)-linear operators on
extensions of K generated by the base-field Frobenius tau: x -> x**q,
with the commutation rule tau * c = c**q * tau.  A Drinfeld module is
determined by the single operator image of T,

    phi_T = theta + g_1 tau + ... + g_r tau**r,   g_r != 0,

and extends multiplicatively/additively to all of GF(q)[T].

Torsion is found without factoring the degree-q**(rn) operator
polynomial.  For a(theta) != 0, phi_a is separable with q**(rn) kernel
points, n = deg(a), and right division in K{tau} decides where they
live: for K = GF(q**s), the kernel lies in GF(q**(s*m)) exactly when
tau**(s*m) = 1 modulo phi_a on the right (a remainder of tau-degree
below rn vanishing on q**(rn) points is zero).  The smallest such m is
the order of tau**s modulo phi_a; only that one level is built, and
its kernel comes from one matrix kernel over GF(q).

An operator polynomial is checked once per property, by helpers that
``pairing`` shares: ``polynomials.require_monic``,
``DrinfeldModule._require_over_base``, and the torsion gate
``DrinfeldModule._require_torsion_operator`` that runs both and then
checks separability.
"""

from __future__ import annotations

import math
import random

from .errors import (
    InseparableTorsion,
    LevelMismatch,
    MalformedInput,
    PointNotInModule,
    SearchBudget,
    SearchCapExceeded,
    ZeroLeadingCoefficient,
)
from .fields import (
    FieldElement,
    _pstrip,
    as_vector,
    dim_between,
    extend,
    field_from_descriptor,
    from_vector,
    kernel,
    require_int,
    solve,
)
from .polynomials import DensePoly, UniPoly, poly_gcd, poly_xgcd, require_monic


class SkewPoly(DensePoly):
    """Twisted polynomial sum(c_i tau**i); little-endian coefficients,
    rendered from tau**0 up.

    A dense polynomial (``polynomials.DensePoly``): the constructor
    validates coefficients from outside, and every internal result (sum,
    difference, negation, composition) is computed on the level's
    payloads and wrapped once, unvalidated, by ``_wrap``.  Only
    SkewPolys combine with each other; a UniPoly with the same
    coefficients is never equal to one.
    """

    __slots__ = ()

    _var = "tau"
    _descending = False

    def __mul__(self, other):
        """Composition product under tau * c = c**q * tau."""
        ctx, f, g = self._common(other)
        zero = ctx.zero()
        add, mul, frobenius = ctx.add, ctx.mul, ctx.frobenius
        out = [zero] * (len(f) + len(g) - 1)
        twisted = g
        for i, a in enumerate(f):
            if i > 0:
                twisted = [frobenius(b) for b in twisted]
            if a == zero:
                continue
            for j, b in enumerate(twisted):
                if b != zero:
                    out[i + j] = add(out[i + j], mul(a, b))
        return SkewPoly._wrap(ctx, _pstrip(ctx, out))

    def __call__(self, beta):
        """Apply as an operator: sum(c_i * beta**(q**i))."""
        if not isinstance(beta, FieldElement):
            raise TypeError("operator argument must be a FieldElement")
        if not beta.ctx.is_above(self.ctx):
            raise LevelMismatch("argument lives below the coefficient level")
        target = beta.ctx
        acc = zero = target.zero()
        add, mul, frobenius = target.add, target.mul, target.frobenius
        y = beta.val
        for i, c in enumerate(self._payloads(target)):
            if i > 0:
                y = frobenius(y)
            if c != zero:
                acc = add(acc, mul(c, y))
        return FieldElement(target, acc)


class DrinfeldModule:
    """Rank-r module over K, given by theta = gamma(T) and the twist
    coefficients g_1 .. g_r of phi_T."""

    __slots__ = ("K", "theta", "g", "_phi_t", "_tpows")

    def __init__(self, K, theta, g):
        theta = theta if theta.ctx is K else theta.embed_to(K)
        g = tuple(c if c.ctx is K else c.embed_to(K) for c in g)
        if not g:
            raise ZeroLeadingCoefficient("a Drinfeld module needs rank >= 1")
        if g[-1].is_zero():
            raise ZeroLeadingCoefficient("top twist coefficient g_r must be nonzero")
        self.K = K
        self.theta = theta
        self.g = g
        self._phi_t = SkewPoly(K, (theta,) + g)
        self._tpows = [SkewPoly.one(K), self._phi_t]

    @property
    def rank(self):
        return len(self.g)

    @property
    def base(self):
        """The coefficient field GF(q) of the operator ring."""
        return self.K.base

    @property
    def phi_T(self):
        return self._phi_t

    def phi_tpow(self, i):
        """phi applied to T**i, cached."""
        while len(self._tpows) <= i:
            self._tpows.append(self._tpows[-1] * self._phi_t)
        return self._tpows[i]

    def _require_over_base(self, a):
        """TypeError unless a is a UniPoly, LevelMismatch unless over GF(q)."""
        if not isinstance(a, UniPoly):
            raise TypeError("operator polynomial must be a UniPoly")
        if a.ctx is not self.base:
            raise LevelMismatch("operator coefficients must live in the base field")

    def _require_torsion_operator(self, a):
        """The gate of torsion and the pairing: `_require_over_base`,
        `require_monic`, then InseparableTorsion when a(theta) = 0, naming
        the A-characteristic."""
        self._require_over_base(a)
        require_monic(a)
        if self.gamma(a).is_zero():
            raise InseparableTorsion(
                f"a({self.theta.to_json()}) = 0: a is divisible by the "
                f"A-characteristic generated by {self.char_poly().render()}"
            )

    def phi(self, a):
        """Image of a in K{tau}; a ring homomorphism on GF(q)[T]."""
        self._require_over_base(a)
        acc = SkewPoly.zero(self.K)
        for i, c in enumerate(a.coeffs):
            if not c.is_zero():
                acc = acc + self.phi_tpow(i) * SkewPoly.constant(c.embed_to(self.K))
        return acc

    def gamma(self, a):
        """a(theta), the structure morphism applied to a."""
        return a(self.theta)

    def char_poly(self):
        """Monic generator of the A-characteristic: the minimal
        polynomial of theta over the base field, the product of T - c
        over theta's Frobenius orbit c = theta, theta**q, theta**(q**2),
        ..., whose coefficients lie in GF(q)."""
        acc, conj = UniPoly.one(self.K), self.theta
        while True:
            acc = acc * UniPoly(self.K, (-conj, self.K.one_element))
            if (conj := conj.frobenius()) == self.theta:
                return UniPoly(self.base, [c.project_to(self.base) for c in acc.coeffs])

    def det_module(self):
        """The rank-1 module whose T-image is theta + (-1)**(r-1) g_r tau."""
        lead = self.g[-1]
        if self.rank % 2 == 0:
            lead = -lead
        return DrinfeldModule(self.K, self.theta, (lead,))

    def __eq__(self, other):
        return (
            isinstance(other, DrinfeldModule)
            and self.K is other.K
            and self.theta == other.theta
            and self.g == other.g
        )

    def __hash__(self):
        return hash((id(self.K), self.theta, self.g))

    def to_json(self):
        return {
            "K": self.K.descriptor(),
            "theta": self.theta.to_json(),
            "g": [c.to_json() for c in self.g],
        }

    @classmethod
    def from_json(cls, obj):
        """The module `to_json` wrote, over the level obj["K"] describes."""
        if not (
            isinstance(obj, dict)
            and {"K", "theta", "g"} <= obj.keys()
            and isinstance(obj["g"], list)
        ):
            raise MalformedInput(
                'a Drinfeld module is an object with "K", "theta" and a list "g"'
            )
        level = field_from_descriptor(obj["K"])
        theta = level.element_from_json(obj["theta"])
        g = tuple(level.element_from_json(c) for c in obj["g"])
        return cls(level, theta, g)

    def __repr__(self):
        return f"DrinfeldModule(rank={self.rank}, phi_T={self._phi_t.render()!r})"


def operator_kernel(op, level, base):
    """GF(q)-basis of the kernel of a twisted-polynomial operator acting
    on one tower level, via a matrix kernel over the base field."""
    dim = dim_between(level, base)
    # ranks flatten coordinates, so unit vector j over GF(q) has rank q**j
    std = [level.element_of_rank(base.order**j) for j in range(dim)]
    columns = [as_vector(op(b), base) for b in std]
    rows = [[columns[j][i] for j in range(dim)] for i in range(dim)]
    return [from_vector(v, level) for v in kernel(rows)]


def fq_span(basis, level, base):
    """All base-field combinations of the given points, in `rank_vectors`
    order of their coefficients (the first varying slowest).  Built one
    basis point at a time: each of its q scalar multiples is added to
    every combination of the points before it."""
    scalars = [level.embed_payload(s, base) for s in base.iter_payloads()]
    add, mul = level.add, level.mul
    points = [level.zero()]
    for b in basis:
        b = level.embed_payload(b.val, b.ctx)
        multiples = [mul(s, b) for s in scalars]
        points = [add(p, m) for p in points for m in multiples]
    return [FieldElement(level, v) for v in points]


def _tau_s_order(phi_a, s, cap):
    """Least m <= cap with tau**(s*m) = 1 modulo phi_a on the right, or
    None.  R_m = (tau**s * R_(m-1)) mod phi_a; tau**s fixes K, so the
    product is a shift by s and the reduction clears s top terms."""
    n = phi_a.degree
    lead_inv = phi_a.coeffs[-1].inverse()
    monic = [c * lead_inv for c in phi_a.coeffs[:-1]]
    # tau**k * monic = sum(c**(q**k) tau**(i+k)) clears the term tau**(n+k)
    twisted = [[c.frobenius(k) for c in monic] for k in range(s)]
    zero = phi_a.ctx.zero_element
    unit = [phi_a.ctx.one_element] + [zero] * (n - 1)
    rem = unit
    for m in range(1, cap + 1):
        rem = [zero] * s + rem
        for k in range(s - 1, -1, -1):
            top = rem.pop()
            if not top.is_zero():
                for i, c in enumerate(twisted[k]):
                    rem[i + k] = rem[i + k] - top * c
        if rem == unit:
            return m
    return None


# the largest extension degree m over K that torsion searches by default
DEFAULT_EXTENSION_CAP = 64


def torsion_level(phi, a, cap=DEFAULT_EXTENSION_CAP):
    """(phi_a, m, level): phi_a for a monic a over GF(q) separable for
    phi, m the order of tau**s modulo phi_a on the right (see the module
    docstring), and the level of degree m over K = GF(q**s) that carries
    the kernel of phi_a.  No m <= cap raises SearchCapExceeded."""
    require_int(cap, "extension-degree cap", low=1)
    phi._require_torsion_operator(a)
    phi_a = phi.phi(a)
    m = _tau_s_order(phi_a, dim_between(phi.K, phi.base), cap)
    if m is None:
        raise SearchCapExceeded(f"no extension of degree <= {cap} splits phi_a")
    return phi_a, m, phi.K if m == 1 else extend(phi.K, m)


def torsion(phi, a, cap=DEFAULT_EXTENSION_CAP):
    """The a-torsion of phi, realized in the smallest extension
    GF(q**(s*m)) of K = GF(q**s) that carries the full kernel of phi_a.

    The level comes from `torsion_level`, and the kernel of phi_a on
    it, a GF(q)-space of dimension r*deg(a), is the torsion.
    """
    phi_a, m, level = torsion_level(phi, a, cap)
    null = operator_kernel(phi_a, level, phi.base)
    want = phi.rank * a.degree
    if len(null) != want:
        raise AssertionError(
            f"kernel of phi_a on {level!r} has dimension {len(null)}, not {want}"
        )
    return TorsionModule(phi, a, level, m, tuple(null))


# random candidates TorsionModule.a_basis tries before raising SearchBudget
_A_BASIS_ATTEMPTS = 200
# seed of the private generator TorsionModule.a_basis draws candidates from
_A_BASIS_SEED = 0


class TorsionModule:
    """The kernel of phi_a inside an explicit extension level.

    Carries a GF(q)-basis always, and on request its one module basis over
    the residue ring A/aA, which exhibits the torsion as free of rank r.
    No table of points is kept: `coordinates` solves one linear system.
    """

    __slots__ = ("phi", "a", "level", "m", "fq_basis", "_points", "_abasis", "_coords")

    def __init__(self, phi, a, level, m, fq_basis):
        self.phi = phi
        self.a = a
        self.level = level
        self.m = m
        self.fq_basis = tuple(fq_basis)
        self._points = None
        self._abasis = self._coords = None

    @property
    def rank(self):
        return self.phi.rank

    def count(self):
        return self.phi.base.order ** len(self.fq_basis)

    def points(self):
        """Every torsion point, in deterministic coefficient order."""
        if self._points is None:
            self._points = tuple(fq_span(self.fq_basis, self.level, self.phi.base))
        return self._points

    def point(self, index):
        """points()[index], from the index's base-q digits, first slowest;
        IndexError outside range(count())."""
        if not 0 <= index < self.count():
            raise IndexError(f"torsion point index {index} outside range({self.count()})")
        base, point = self.phi.base, self.level.zero_element
        for b in reversed(self.fq_basis):
            index, digit = divmod(index, base.order)
            point = point + base.element_of_rank(digit).embed_to(self.level) * b
        return point

    def a_basis(self):
        """Points beta_1 .. beta_r through which (A/aA)**r sweeps out the
        whole torsion module: its one A/a-basis, cached, found by random
        search with a fixed seed.  A candidate (r nonzero points, drawn
        by index into `points()`) is accepted when the n*r points
        phi_(T**i)(beta_j), i < n = deg(a), are GF(q)-independent.  They
        are the images of a GF(q)-basis under the GF(q)-linear map
        (A/aA)**r -> phi[a] between spaces of dimension n*r, so
        independence is exactly bijectivity."""
        if self._abasis is not None:
            return self._abasis
        base, total = self.phi.base, self.count()
        ops = [self.phi.phi_tpow(i) for i in range(self.a.degree)]
        rng = random.Random(_A_BASIS_SEED)
        for _ in range(_A_BASIS_ATTEMPTS):
            candidate = tuple(self.point(rng.randrange(1, total)) for _ in range(self.rank))
            columns = [as_vector(op(beta), base) for beta in candidate for op in ops]
            rows = [list(row) for row in zip(*columns)]
            if not kernel(rows):
                self._abasis, self._coords = candidate, rows
                return candidate
        raise SearchBudget(f"no module basis found in {_A_BASIS_ATTEMPTS} attempts")

    def coordinates(self, beta):
        """A/aA-coordinates of beta over the module's basis `a_basis()`,
        by one solve against the columns `a_basis` stored: the entry for
        phi_(T**i)(beta_j) is the T**i coefficient of coordinate j."""
        if self._coords is None:
            self.a_basis()
        on_level = getattr(beta, "ctx", None) is self.level
        sol = on_level and solve(self._coords, as_vector(beta, self.phi.base))
        if not sol:
            raise PointNotInModule(f"{beta!r} is outside the torsion module")
        n = self.a.degree
        return tuple(UniPoly(self.phi.base, sol[j * n : (j + 1) * n]) for j in range(self.rank))

    def to_json(self):
        return {
            "a": self.a.to_json(),
            "extension_degree_over_K": self.m,
            "fq_basis": [b.to_json() for b in self.fq_basis],
            "a_basis": None if self._abasis is None else [b.to_json() for b in self._abasis],
        }

    def __repr__(self):
        return (
            f"TorsionModule(a={self.a.render()!r}, points={self.count()}, "
            f"level={self.level!r})"
        )


def galois_action_matrix(tm, k):
    """Matrix over A/aA of the k-th power sigma**k of the arithmetic
    Frobenius x -> x**|K| on the torsion module: column j holds the
    coordinates of sigma**k(beta_j) over the module basis `tm.a_basis()`."""
    require_int(k, "Frobenius exponent")
    s = dim_between(tm.phi.K, tm.phi.base)
    cols = [tm.coordinates(beta.frobenius(k * s)) for beta in tm.a_basis()]
    return [list(row) for row in zip(*cols)]


def galois_det_table(phi, psi, a, cap=DEFAULT_EXTENSION_CAP):
    """(k, det, scalar) for every power sigma**k over one period of the
    Frobenius action on both torsion modules: det is the determinant
    over A/aA of sigma**k acting on phi[a], scalar the residue by which
    sigma**k acts on the rank-1 psi[a].  Neither depends on a basis (a
    change of basis conjugates the matrix, and sigma**k acts on psi[a]
    by one scalar), so each module's one `a_basis()` serves.  psi is the
    determinant module of phi, or a deliberately wrong one when the
    comparison is tested for teeth."""
    tm = torsion(phi, a, cap=cap)
    tpsi = torsion(psi, a, cap=cap)
    gen = tpsi.a_basis()[0]
    s = dim_between(psi.K, psi.base)
    ring = ResidueRing(a)
    return [(k, ring.det(galois_action_matrix(tm, k)), tpsi.coordinates(gen.frobenius(k * s))[0])
            for k in range(math.lcm(tm.m, tpsi.m))]


class ResidueRing:
    """Arithmetic in A/aA for a monic modulus a over the base field."""

    __slots__ = ("a", "ctx")

    def __init__(self, a):
        require_monic(a)
        self.a = a
        self.ctx = a.ctx

    def reduce(self, u):
        return u % self.a

    def zero(self):
        return UniPoly.zero(self.ctx)

    def one(self):
        return UniPoly.one(self.ctx)

    def add(self, u, v):
        return self.reduce(u + v)

    def sub(self, u, v):
        return self.reduce(u - v)

    def mul(self, u, v):
        return self.reduce(u * v)

    def is_unit(self, u):
        return poly_gcd(self.reduce(u), self.a).degree == 0

    def inv(self, u):
        d, s, _ = poly_xgcd(self.reduce(u), self.a)
        if d.degree != 0:
            raise ZeroDivisionError(f"{u.render()} is not a unit mod {self.a.render()}")
        return self.reduce(s)

    def det(self, matrix):
        """Determinant by cofactor expansion; matrices here are tiny.
        A/aA has zero divisors when a is reducible, so the field
        elimination of ``fields.determinant`` does not apply here."""
        n = len(matrix)
        if n == 1:
            return self.reduce(matrix[0][0])
        acc = self.zero()
        for j in range(n):
            minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
            term = self.mul(matrix[0][j], self.det(minor))
            acc = self.sub(acc, term) if j % 2 else self.add(acc, term)
        return acc
