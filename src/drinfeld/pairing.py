"""The symmetric coefficient family f_a, Moore determinants, and the
pairing on torsion tuples.

For monic a with roots alpha_1 .. alpha_n (over the splitting level,
with multiplicity), f_a in r variables is the sum over nondecreasing
index chains 1 = i_0 <= i_1 <= ... <= i_r = n of

    prod_j  prod_{i not in [i_{j-1}, i_j]} (T_j - alpha_i),

a symmetric polynomial of degree <= n-1 in every variable whose
coefficients always land back in GF(q).

The production construction (`f_rootfree`) never finds a root.  With
Delta_a(x, y) = (a(x) - a(y)) / (x - y) and I = (a(T_1), ..., a(T_r)),

    f_a = NF_I( prod_{j=1}^{r-1} Delta_a(T_j, T_{j+1}) ).

It holds because, for squarefree a, the quotient ring is the ring of
functions on roots^r: the exchange congruence makes f_a vanish off the
diagonal, and on the diagonal both sides equal a'(alpha)^(r-1).  Both
sides are polynomials in a's coefficients, so the identity extends to
every monic a, inseparable ones included.

`f_rootfree` expands it from site matrices over GF(q), indices below
n = deg a: D[k][l] = a_{k+l+1} (Delta_a = sum D[k][l] x^k y^l), R[e] =
T^e mod a (e <= 2n-2) and one matrix per digit m, M_m[l'][l] = sum_k
R[l'+k][m] D[k][l].  NF_I reduces each variable on its own, and slot j's
exponent l' + k is final once its left bond l' and its right pair (k, l)
are chosen, so M_m reduces it there to m.  Slot 1 opens with bond 0; a
vector over the open bond per prefix of digits goes through M_m for each
next digit m; the last slot's exponent is the bond l' < n it closes.
R[e] for e < n is the unit vector of T^e; the residues above stay on
`UniPoly`, the polynomial-layer calls that perfbench counts for `fa`.
At n = 1 there is one site and f_a = 1 in every r.  Every route to a
pairing value reads f_a through `f_rootfree`, and the site rows are
built once per (field, a); f_a itself is expanded on every call.

The chain sum above (`f_chain_sum`, `f_root_order_variant`) and a
peel-one-root recursion (`f_recursive`) are kept as its independent
oracles; only the verification suites, the tests and the CLI's
`--route chain|recursive|both` use them.  The oracles find the roots
of a once per (field, a): `roots_in_field` splits gcd(a, x^Q - x) by
equal-degree splitting, with no element scan, and the splitting level
and the rank-ordered roots go into a memo.  The module's memos are
`_ROOTS_CACHE` (field, a), `_F_CACHE` of finished chain sums (field, a,
r) and `_SITE_CACHE` of site rows (field, a); each keeps at most
`_MEMO_SIZE` entries, written only by `_remember`, and drops the oldest
first.  A recursion's result is not kept, since each (a, r) asks for it
once.  `chain_sum_over_roots` builds each chain term as an outer product
of r univariate factors, one per segment of the root list, each the next
wider segment's times one (x - alpha);
`linear_factors` multiplies the recursion's and root-peel's products likewise.

The pairing itself contracts f_a against Moore determinants of
operator images,

    W_a(x_1..x_r) = sum_i  a_i * M(phi_{T^{i_1}}(x_1), ..., phi_{T^{i_r}}(x_r)),

which is a polynomial with q-power exponents: GF(q)-linear in every
slot, alternating, and valued in the torsion of the rank-1 determinant
module.  `weil_polynomial` builds it by Horner contraction over the trie
of f_a's exponents, from the last slot up: a node keeps one polynomial
per set of Moore rows taken by the slots of its prefix, so a node at
depth d has at most C(r, d) states, where expanding the determinant
would take r! products per f_a term.  Over GF(p) each is one int, a box
of slots stepped by shift and add, or a dict if a slot or box is too big.
`PairingEvaluator` evaluates it on many tuples: it groups the terms
into a trie over their Frobenius exponents, contracts one slot at a
time, and memoizes per point its Frobenius row, in the dot op's operand
form only, and the last slot's contraction, for at most `_MEMO_SIZE`
points; each trie node is one sum of the level's dot op.  No other
code contracts the trie.  Its `values` streams every tuple of a point
list, each slot contracted once per point and tuple of later points.  `weil_values` contracts f_a against Moore
determinants directly, the independent oracle, and checks no value;
`weil_evaluate` runs it on one tuple and trips unless the value lies
in the determinant module's torsion.

Inputs go through shared checks: `_check_inputs` for a and the arity
on every f_a route and in `weil_polynomial`, and in the torsion guard
the module's `_require_torsion_operator`, as in `core.torsion`.
"""

from __future__ import annotations

import itertools
import re
from math import comb

from .errors import (
    ArityMismatch,
    LevelMismatch,
    NotInSubfield,
    NotTorsionPoint,
    RationalityFailure,
)
from .fields import FieldElement, _byte_slots, _pmul, _row_reduce, _slot_width, determinant
from .polynomials import (
    MultiPoly,
    SparsePoly,
    UniPoly,
    require_monic,
    roots_in_field,
    splitting_level,
)


class FaPoly:
    """A computed f_a together with how it was produced."""

    __slots__ = ("poly", "a", "r", "route", "roots")

    def __init__(self, poly, a, r, route, roots):
        self.poly = poly
        self.a = a
        self.r = r
        self.route = route
        self.roots = tuple(roots)

    def __eq__(self, other):
        return isinstance(other, FaPoly) and self.poly == other.poly

    def __hash__(self):
        return hash(self.poly)

    def json_head(self, terms):
        """`to_json`'s object with `terms` in place of its term records."""
        head = self.poly.json_head(terms)
        head["provenance"] = {"a": self.a.to_json(), "r": self.r, "route": self.route}
        return head

    def to_json(self):
        return self.json_head(self.poly.to_json()["terms"])

    def render(self):
        return self.poly.render()

    def __repr__(self):
        return f"FaPoly({self.render()!r}, route={self.route!r})"


# entries each memo keeps (the module's three memos, and the point memo of
# each PairingEvaluator); past this the oldest entry goes
_MEMO_SIZE = 512


def _remember(memo, key, value):
    """Store value under key in a memo of at most _MEMO_SIZE entries,
    dropping the oldest entry first; returns value."""
    if len(memo) >= _MEMO_SIZE:
        del memo[next(iter(memo))]
    memo[key] = value
    return value


# (field, a) -> (splitting level, roots of a in rank order), for the oracles
_ROOTS_CACHE = {}


def _sorted_roots(a):
    key = (a.ctx, a.coeffs)
    got = _ROOTS_CACHE.get(key)
    if got is not None:
        return got
    level = splitting_level(a)
    roots = tuple(roots_in_field(a, level))
    if len(roots) != a.degree:  # pragma: no cover - splitting level is exact
        raise AssertionError("splitting level did not yield all roots")
    return _remember(_ROOTS_CACHE, key, (level, roots))


def linear_factors(level, nvars, factors, start=None):
    """start (none: 1) times prod (T_{j+1} - alpha) over the (j, alpha)
    pairs, multiplied out one factor at a time on start's payload dict
    over `level` and wrapped once as a MultiPoly."""
    zero, add, mul = level.zero(), level.add, level.mul
    acc = {(0,) * nvars: level.one()} if start is None else start._payloads(level)
    for j, alpha in factors:
        minus, out = level.neg(alpha.embed_to(level).val), {}
        for e, c in acc.items():
            up = e[:j] + (e[j] + 1,) + e[j + 1 :]
            out[up] = add(out.get(up, zero), c)
            out[e] = add(out.get(e, zero), mul(c, minus))
        acc = out
    return MultiPoly._wrap(level, nvars, acc)


def chain_sum_over_roots(level, roots, r):
    """The chain-sum construction from an explicit root list (with
    multiplicity), over whatever level the roots live in.  An empty
    root list gives the zero polynomial, matching the empty chain sum,
    and a single root gives 1, every segment's product being empty.

    The factor of T_j in a chain term omits the roots inside segment
    [i_(j-1), i_j]: segment (lo, n) is the product of (x - alpha) over
    the roots before lo, and (lo, hi) is (lo, hi + 1) times root hi + 1's
    linear factor.  Each chain term is then the outer product of its r
    univariate factors, added coefficient by coefficient into one payload dict.
    """
    n = len(roots)
    if n <= 1:
        return MultiPoly.one(level, r) if n else MultiPoly.zero(level, r)
    zero, one = level.zero(), level.one()
    add, mul, neg = level.add, level.mul, level.neg
    linear = [[neg(alpha.embed_to(level).val), one] for alpha in roots]
    segments, prefix = {}, [one]
    for lo in range(1, n + 1):
        poly = prefix
        for hi in range(n, lo - 1, -1):
            if hi < n:
                poly = _pmul(level, poly, linear[hi])
            segments[lo, hi] = [(k, c) for k, c in enumerate(poly) if c != zero]
        prefix = _pmul(level, prefix, linear[lo - 1])
    acc = {}
    count = 0
    for mid in itertools.combinations_with_replacement(range(1, n + 1), r - 1):
        chain = (1,) + mid + (n,)
        count += 1
        term = {(): one}
        for j in range(1, r + 1):
            factor = segments[chain[j - 1], chain[j]]
            term = {e + (k,): mul(c, ck) for e, c in term.items() for k, ck in factor}
        for e, c in term.items():
            acc[e] = add(acc.get(e, zero), c)
    if count != comb(n + r - 2, r - 1):  # pragma: no cover - enumeration is exact
        raise AssertionError("chain enumeration miscounted")
    return MultiPoly._wrap(level, r, acc)


def _coerce_to_base(poly, base):
    """Push coefficients down to the base field; the symmetric family
    is guaranteed rational, so failure here means a bug upstream."""
    if poly.ctx is base:
        return poly
    terms = {}
    for exps, c in poly._vals.items():
        try:
            terms[exps] = poly.ctx.project_payload(c, base)
        except NotInSubfield:
            raise RationalityFailure(
                f"coefficient {poly.ctx.element_to_json(c)} of {list(exps)} is not rational"
            ) from None
    return MultiPoly._wrap(base, poly.nvars, terms)


def _check_inputs(a, r, top=None):
    """NonMonic unless a is monic of degree >= 1, ArityMismatch unless r
    is an int, not a bool, in 1..top (no top: any r >= 1)."""
    require_monic(a)
    if type(r) is not int or r < 1 or top is not None and r > top:
        span = "an int >= 1" if top is None else f"an int in 1..{top}"
        raise ArityMismatch(f"arity must be {span}, got {r!r}")


# (field, a) -> _site_rows(a)
_SITE_CACHE = {}


def _site_rows(a):
    """(D, rows): row l' of every M_m side by side, per open bond l', the
    nonzero (m*n + l, M_m[l'][l]).  Block l' + k of row l' is D[k] as it
    stands.  Memoized per (field, a), as tuples no caller can change."""
    key = (a.ctx, a.coeffs)
    if (got := _SITE_CACHE.get(key)) is not None:
        return got
    ctx, n, coeffs = a.ctx, a.degree, a._payloads(a.ctx)
    zero, add, mul = ctx.zero(), ctx.add, ctx.mul
    D = [coeffs[k + 1 : n + 1] + [zero] * k for k in range(n)]  # D[k][l] = a_(k+l+1)
    R, t = [], UniPoly.gen(ctx)
    top = UniPoly(ctx, [ctx.zero_element] * (n - 1) + [ctx.one_element])  # T^(n-1)
    for _ in range(n - 1):  # R[e - n] = T^e mod a, n <= e <= 2n - 2
        top = t * top % a
        R.append([(m, x.val) for m, x in enumerate(top.coeffs) if x.val != zero])
    acc = [sum(D[: n - lb], [zero] * (n * lb)) for lb in range(n)]  # e < n: no arithmetic
    for lb in range(n):
        for k in range(n - lb, n):
            for m, x in R[lb + k - n]:
                for l in range(n - k):
                    acc[lb][m * n + l] = add(acc[lb][m * n + l], mul(x, D[k][l]))
    rows = tuple([tuple([(i, c) for i, c in enumerate(row) if c != zero]) for row in acc])
    return _remember(_SITE_CACHE, key, (tuple(map(tuple, D)), rows))


def f_rootfree(a, r):
    """f_a from its site matrices (module docstring), no roots.  Only the
    rows are memoized: over a run of distinct `fa` queries a memo of f_a
    itself keeps entries no query hits (0.26 MB over 113 queries)."""
    _check_inputs(a, r)
    if a.degree == 1:  # one site: f_a = 1, built in time linear in r
        return FaPoly(MultiPoly.one(a.ctx, r), a, r, "rootfree", ())
    ctx, n, (D, rows) = a.ctx, a.degree, _site_rows(a)
    zero, add, mul = ctx.zero(), ctx.add, ctx.mul
    zeros = [zero] * n  # slot 1 opens with bond 0, and row 0 of M_m is D[m]
    vectors = {(m,): row for m, row in enumerate(D)} if r > 1 else {(): [ctx.one()] + zeros[1:]}
    for _ in range(r - 2):
        last, vectors = vectors, {}
        for prefix, v in last.items():
            w = zeros * n  # w[m*n + l]: v times M_m, at bond l
            for lb, c in enumerate(v):
                if c != zero:
                    for i, entry in rows[lb]:
                        w[i] = add(w[i], mul(c, entry))
            for m in range(n):
                if (u := w[m * n : m * n + n]) != zeros:
                    vectors[prefix + (m,)] = u
    terms = {prefix + (l,): c for prefix, v in vectors.items() for l, c in enumerate(v)}
    return FaPoly(MultiPoly._wrap(ctx, r, terms), a, r, "rootfree", ())


# (field, a, r) -> FaPoly, the chain sums only
_F_CACHE = {}


def f_chain_sum(a, r):
    """f_a by direct summation over index chains through the roots.

    Results are memoized per (field, a, r); the returned value must be
    treated as immutable, which every polynomial operation respects.
    """
    _check_inputs(a, r)
    key = (a.ctx, a.coeffs, r)
    got = _F_CACHE.get(key)
    if got is not None:
        return got
    level, roots = _sorted_roots(a)
    poly = chain_sum_over_roots(level, roots, r)
    result = FaPoly(_coerce_to_base(poly, a.ctx), a, r, "chain", roots)
    return _remember(_F_CACHE, key, result)


def f_recursive(a, r):
    """f_a by the peel-one-root recursion; equals f_chain_sum exactly.

    Always eliminates the last variable and peels the smallest root, so
    runs are reproducible; any other choice would give the same result.
    """
    _check_inputs(a, r)
    level, roots = _sorted_roots(a)
    memo = {}

    def build(roots_left, arity):
        key = (roots_left, arity)
        got = memo.get(key)
        if got is not None:
            return got
        n = len(roots_left)
        if arity == 1 or n == 1:
            result = MultiPoly.one(level, arity)
        else:
            alpha = roots_left[0]
            peeled = linear_factors(level, arity, [(j, alpha) for j in range(arity - 1)],
                                    build(roots_left[1:], arity))
            lowered = build(roots_left, arity - 1)
            lifted = MultiPoly._wrap(
                level, arity, {exps + (0,): c for exps, c in lowered._vals.items()}
            )
            result = peeled + linear_factors(
                level, arity, [(arity - 1, b) for b in roots_left[1:]], lifted)
        memo[key] = result
        return result

    poly = build(roots, r)
    return FaPoly(_coerce_to_base(poly, a.ctx), a, r, "recursive", roots)


def f_root_order_variant(a, r, order):
    """f_a computed with the root list permuted; root order never
    changes the result."""
    _check_inputs(a, r)
    level, roots = _sorted_roots(a)
    order = tuple(order)
    if sorted(order) != list(range(len(roots))):
        raise ArityMismatch(f"{order} is not a permutation of the {len(roots)} roots")
    shuffled = [roots[i] for i in order]
    poly = chain_sum_over_roots(level, shuffled, r)
    return FaPoly(_coerce_to_base(poly, a.ctx), a, r, "chain", shuffled)


# ---------------------------------------------------------------------------
# q-power-exponent polynomials
# ---------------------------------------------------------------------------


def _frobenius_row(x, level, top):
    """Payloads of x, x**q, ..., x**(q**top) in `level`."""
    powers = [x.embed_to(level)]
    for _ in range(top):
        powers.append(powers[-1].frobenius(1))
    return [y.val for y in powers]


def _contract_last(dot, leaves, row):
    """The last slot contracted against its Frobenius row (operand
    form): one operand per depth r-1 node of the trie."""
    cs, nodes = leaves
    return dot(row, cs, nodes)


class QPowerPoly(SparsePoly):
    """Sparse polynomial whose monomials are x_1**(q**j_1) ... x_r**(q**j_r),
    keyed by the Frobenius-exponent tuple (j_1 .. j_r), GF(q)-linear in
    every argument.  It has no evaluation of its own: `PairingEvaluator`
    contracts its terms one slot at a time over a trie of the exponents.

    A sparse polynomial (``polynomials.SparsePoly``): the constructor
    validates terms from outside (user code, JSON), and every internal
    result (`weil_polynomial`, `moore_poly`, `top_slice`, `scale`, the
    evaluator's lift) is built as a payload dict and wrapped once,
    unvalidated, by ``_wrap``.
    """

    __slots__ = ()

    _json_key = "frob_exps"

    max_frob_exp = SparsePoly._top_exponent

    def top_slice(self, j, frob_exp):
        """Coefficient of x_{j+1}**(q**frob_exp) as a polynomial in the
        remaining variables (slot j removed)."""
        terms = {}
        for key, c in self._vals.items():
            if key[j] == frob_exp:
                terms[key[:j] + key[j + 1 :]] = c
        return QPowerPoly._wrap(self.ctx, self.nvars - 1, terms)

    def _sorted_payloads(self):
        return sorted(self._vals.items(), key=lambda item: item[0])

    def render(self):
        if not self._vals:
            return "0"
        q = self.ctx.q
        parts = []
        for key, c in self.sorted_terms():
            factors = []
            for slot, j in enumerate(key):
                e = q**j
                factors.append(f"x{slot + 1}" + (f"^{e}" if e > 1 else ""))
            body = "*".join(factors)
            parts.append(body if c.is_one() else f"{c.rank()}*{body}")
        return " + ".join(parts)


def _signed_permutations(r):
    out = []
    for perm in itertools.permutations(range(r)):
        inversions = sum(
            1 for i in range(r) for j in range(i + 1, r) if perm[i] > perm[j]
        )
        out.append((perm, -1 if inversions % 2 else 1))
    return out


def moore_poly(r, ctx):
    """The Moore determinant det(x_i**(q**(j-1))) as a QPowerPoly with
    +-1 coefficients and r! terms."""
    one = ctx.one()
    terms = {perm: one if sign == 1 else ctx.neg(one) for perm, sign in _signed_permutations(r)}
    return QPowerPoly._wrap(ctx, r, terms)


def moore_eval(betas):
    """Moore determinant of the arguments, by Gaussian elimination on
    the evaluated matrix, each row built in its point's own level."""
    top = len(betas) - 1
    return determinant([[FieldElement(x.ctx, v) for v in _frobenius_row(x, x.ctx, top)]
                        for x in betas])


# ---------------------------------------------------------------------------
# the pairing
# ---------------------------------------------------------------------------


def weil_polynomial(phi, a, arity=None):
    """The pairing as an explicit q-power-exponent polynomial over K.

    `arity` (an int in 1..rank) defaults to the rank of phi; arity r-1
    gives the lower formula that Moore cofactor expansion recovers from
    the top coefficient in the last variable.

    Built by Horner contraction over the trie of f_a's exponents, from
    the last slot up.  A node at depth d holds one polynomial in
    x_{d+1..r} per set `used` of Moore rows taken by slots 1..d; a
    parent's entry sums, over children e and rows t not in used,
    +-(phi_{T^e} twisted by q**t) times the child's entry for used+{t},
    the sign the parity of used rows above t.  The leaves hold f_a's
    coefficients under the full set, the root W_a under the empty one.

    Over GF(p) `_horner` keeps an entry as one int, a box: after s
    slots, base**s slots, base = 1 + the largest twisted exponent, key
    (j_1, .., j_s) at slot sum_i j_i * base**(s-i), so prepending j with
    coefficient c is `acc += c * entry << j * stride`, an XOR of bits
    over GF(2).  Over odd p a slot has w bytes for the n*r products
    (n = deg a) it takes a round, reduced once a round by `_byte_slots`.
    A tower, w*(p-1) >= 256 or a box over 2**24 bytes keeps dicts.
    """
    r = phi.rank if arity is None else arity
    phi._require_over_base(a)
    _check_inputs(a, r, phi.rank)
    return QPowerPoly._wrap(phi.K, r, _horner(*_horner_inputs(phi, a, r)))


def _horner_inputs(phi, a, r):
    """`_horner`'s (K, twisted, f_a's terms on K, r): twisted[i][t][odd]
    lists (k + t, +-c_k**(q**t)) over the nonzero c_k of phi_{T^i}."""
    K, twisted = phi.K, []
    for i in range(a.degree):
        coeffs = [(k, c.embed_to(K).val) for k, c in enumerate(phi.phi_tpow(i).coeffs)
                  if not c.is_zero()]
        plus = [[(k + t, K.frobenius(v, t)) for k, v in coeffs] for t in range(r)]
        twisted.append([(row, [(j, K.neg(v)) for j, v in row]) for row in plus])
    return K, twisted, f_rootfree(a, r).poly._payloads(K), r


def _horner(K, twisted, leaves, r, packed=True):
    """`weil_polynomial`'s contraction of the f_a terms `leaves`: W_a's
    {exponent key: payload} terms, on boxes if `packed` and K allow."""
    p, n, mul, add, zero = K.p, len(twisted), K.mul, K.add, K.zero()
    base = 1 + max(j for rows in twisted for row, _ in rows for j, _ in row)
    w = _slot_width(n * r * (p - 1) ** 2)
    bits = 1 if p == 2 else 8 * w
    packed &= K.parent is None and w * (p - 1) < 256 and base**r * bits <= 8 << 24
    # node prefix -> {used rows as a bit mask: entry}
    nodes = {e: {(1 << r) - 1: c if packed else {(): c}} for e, c in leaves.items()}
    for s in range(r):
        stride, parents = bits * base**s, {}
        for prefix, states in nodes.items():
            rows, parent = twisted[prefix[-1]], parents.setdefault(prefix[:-1], {})
            # the child's entry for `used` feeds the parent's for used - {t}
            for used, poly in states.items():
                for t in range(r):
                    if used >> t & 1:
                        acc = parent.get(used ^ 1 << t, 0 if packed else {})
                        for j, c in rows[t][(used >> t + 1).bit_count() & 1]:
                            if not packed:
                                for key, v in poly.items():
                                    key = (j,) + key
                                    acc[key] = add(acc.get(key, zero), mul(c, v))
                            elif p == 2:
                                acc ^= poly << j * stride
                            else:
                                acc += c * poly << j * stride
                        parent[used ^ 1 << t] = acc
        if packed and p > 2:
            widen, residues = _byte_slots(p, w, base ** (s + 1))
            parents = {e: {u: widen(residues(x)) for u, x in st.items()}
                       for e, st in parents.items()}
        nodes = parents
    if not packed:
        return nodes.get((), {}).get(0, {})
    size, data = base ** (r // 2), nodes[()][0].to_bytes(base**r * bits // 8 + 1, "little")
    lo, hi = (list(itertools.product(range(base), repeat=m)) for m in (r // 2, r - r // 2))
    at = [m.start() for m in re.finditer(rb"[^\x00]", data)]
    found = (((8 * i + k, 1) for i in at for k in range(8) if data[i] >> k & 1) if p == 2
             else ((i // w, data[i]) for i in at))
    return {hi[k // size] + lo[k % size]: c for k, c in found}


def _torsion_guard(phi, a, betas):
    """The one level of betas, all a-torsion for a monic a over GF(q)
    separable for phi."""
    phi._require_torsion_operator(a)
    level = betas[0].ctx
    for b in betas:
        if b.ctx is not level:
            raise LevelMismatch("torsion points live in different levels")
    phi_a = phi.phi(a)
    for b in betas:
        if not phi_a(b).is_zero():
            raise NotTorsionPoint(f"{b!r} is not annihilated by phi_a")
    return level


def moore_contraction(f_poly, images, level):
    """sum over the terms c*T^e of f_poly of c * det(images[0][e_1], ...,
    images[r-1][e_r]) in `level`, where images[s][i] is the Moore row
    (x, x**q, ..., x**(q**(r-1))) of x = phi_{T^i}(beta_s) as payloads,
    shared by every term: one `_row_reduce` per term."""
    acc, add, mul, r = level.zero(), level.add, level.mul, f_poly.nvars
    for exps, c in f_poly._payloads(level).items():
        pivots, det, _ = _row_reduce(level, [images[slot][e] for slot, e in enumerate(exps)], r)
        if len(pivots) == r:
            acc = add(acc, mul(c, det))
    return FieldElement(level, acc)


def weil_values(phi, a, points, tuples):
    """The direct contraction on each of `tuples` (rank-tuples of
    `points`), yielded in order: the guard, the images phi_{T^i}(beta) and
    their Moore rows run once per point.  No value is checked to land in
    the determinant module's torsion; `pairing.poly_agreement` checks it."""
    level = _torsion_guard(phi, a, points)
    f_poly = f_rootfree(a, phi.rank).poly.embed_to(level)
    ops = [phi.phi_tpow(i) for i in range(a.degree)]
    images = {b: [_frobenius_row(op(b), level, phi.rank - 1) for op in ops] for b in points}
    for tup in tuples:
        yield moore_contraction(f_poly, [images[b] for b in tup], level)


def weil_evaluate(phi, a, betas):
    """Pairing value on a torsion tuple, by the direct contraction
    sum_i a_i * MooreDet(phi_{T^{i_1}}(beta_1), ..., phi_{T^{i_r}}(beta_r)).

    Each argument must be a-torsion, the oracle core `moore_contraction`
    does the sum, and the value must land in the determinant module's torsion.
    """
    if len(betas) != phi.rank:
        raise ArityMismatch(f"need {phi.rank} torsion points")
    (value,) = weil_values(phi, a, betas, [betas])
    if not phi.det_module().phi(a)(value).is_zero():  # pragma: no cover - tripwire
        raise AssertionError("pairing value escaped the determinant torsion")
    return value


class PairingEvaluator:
    """Evaluates one pairing on many tuples from a fixed level.

    The pairing polynomial's terms are grouped once into a trie over
    their Frobenius exponents (j_1, ..., j_r), and a tuple is evaluated
    by contracting one slot at a time, Horner style, from the last slot
    up: a node's value is the sum over its children j of x_s**(q**j)
    times the child's value, one sum of the level's dot op
    (``FieldCtx.dot_ops``).  Above the table cap a level directly over
    GF(p) (GF(2^31), GF(3^40), GF(2^28), ...) takes its slot codec's op:
    a node adds its bigint products unreduced and reduces once.  On a
    packed level up to the cap (GF(2^15), GF(3^8), ...) asking for the
    dot op builds the tables; operands are logs and a product is one exp
    lookup.  Tuple towers and levels without a codec for the node's term
    count run the plain mul/add loop, skipping zeros.  The trie's
    coefficients take operand form once, at build.

    The last slot's contraction, a vector over the trie nodes at depth
    r-1, depends only on that slot's point.  A per-point memo holds the
    point's Frobenius row, beta, beta**q, ..., in operand form only,
    converted when `powers_of`, a call or a sweep first sees the point
    (`powers_of` maps it back by the dot op's `payload`), and that
    vector, filled on the point's first use in the last slot.  The memo
    keeps at most `_MEMO_SIZE` points and drops the oldest first; a
    point evicted and seen again costs about one uncached contraction.

    `values(points)` is the exhaustive sweep: it yields W's payload at
    every tuple of product(points, repeat=r), in that order, with no
    call per tuple.  It holds one vector per tuple of slots 1 .. r-1,
    never a list of the values; `__call__` keeps its own per-tuple loop.

    The loop runs on the level's raw payloads and wraps only the result.
    Points from a level below `level` are embedded first; a point from
    any other level raises LevelMismatch.  `weil_evaluate` is the direct
    contraction, and the verification suites compare the two.
    """

    __slots__ = ("phi", "a", "level", "poly", "_top", "_trie", "_memo")

    def __init__(self, phi, a, level):
        self.phi = phi
        self.a = a
        self.level = level
        poly = weil_polynomial(phi, a)
        terms = poly._payloads(level)
        self.poly = QPowerPoly._wrap(level, poly.nvars, terms)
        self._top = max((max(k) for k in terms), default=0)
        # the trie, (leaves, inner, ops): leaves is (cs, nodes), the
        # coefficients in operand form and each depth r-1 node's (j_r, index
        # into cs) pairs; inner[d] lists each node's (j, child index) pairs
        # for slot r-2-d, its last level the root alone; ops is the level's
        # dot op for the node with the most children
        nodes, cs = {}, []
        for key, c in terms.items():
            nodes.setdefault(key[:-1], []).append((key[-1], len(cs)))
            cs.append(c)
        levels = [list(nodes.values())]
        for _ in range(poly.nvars - 1):
            parents = {}
            for i, prefix in enumerate(nodes):
                parents.setdefault(prefix[:-1], []).append((prefix[-1], i))
            levels.append(list(parents.values()))
            nodes = parents
        spread, _, _ = ops = level.dot_ops(max(map(len, itertools.chain(*levels)), default=1))
        self._trie = (list(map(spread, cs)), levels[0]), levels[1:], ops
        # point -> [Frobenius row in operand form, last-slot values or None]
        self._memo = {}

    def _entry(self, beta):
        entry = self._memo.get(beta)
        if entry is None:
            spread = self._trie[2][0]
            row = list(map(spread, _frobenius_row(beta, self.level, self._top)))
            entry = _remember(self._memo, beta, [row, None])
        return entry

    def powers_of(self, beta):
        """beta, beta**q, ..., up to the largest Frobenius exponent of
        the pairing polynomial, as elements of `level`."""
        payload = self._trie[2][2]
        return [FieldElement(self.level, payload(v)) for v in self._entry(beta)[0]]

    def __call__(self, betas):
        if len(betas) != self.poly.nvars:
            raise ArityMismatch(f"need {self.poly.nvars} arguments")
        leaves, inner, (_, dot, payload) = self._trie
        rows = []
        for beta in betas:
            entry = self._entry(beta)
            rows.append(entry[0])
        vals = entry[1]
        if vals is None:
            vals = entry[1] = _contract_last(dot, leaves, rows[-1])
        # slots r-2 .. 0 in turn, Horner style
        for row, nodes in zip(reversed(rows[:-1]), inner):
            vals = dot(row, vals, nodes)
        return FieldElement(self.level, payload(vals[0] if vals else dot((), (), [()])[0]))

    def values(self, points):
        """W's payload in `level` at every tuple of product(points,
        repeat=r), yielded in that order.  Each point's row and last-slot
        vector come from the memo, once per point; slots r-2 .. 1 each
        make one vector per tuple of the slots from there on, one dot per
        (point, vector of the later slots), and the root's dots stream."""
        leaves, inner, (_, dot, payload) = self._trie
        rows, vecs = [], []
        for beta in points:
            entry = self._entry(beta)
            if entry[1] is None:
                entry[1] = _contract_last(dot, leaves, entry[0])
            rows.append(entry[0])
            vecs.append(entry[1])
        for nodes in inner[:-1]:
            vecs = [dot(row, v, nodes) for row in rows for v in vecs]
        roots = (dot(row, v, inner[-1]) for row in rows for v in vecs) if inner else vecs
        for vals in roots:  # at r = 1 the last slot's node is the root
            yield payload(vals[0] if vals else dot((), (), [()])[0])
