"""The elimination over GF(p) on rows stored as ints (``fields._row_reduce``
for a prime level whose slot fits: one bit per entry over GF(2), else a
w-byte slot): pivots, reduced rows, determinant, kernel basis and solve
result against sympy's ``DomainMatrix`` over GF(p), on random matrices,
fixed large ones and augmented systems; the levels that keep payload
lists; and the rule that the int path calls no field operation."""

import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from drinfeld import fields
from drinfeld.fields import _row_reduce, determinant, kernel, make_field, solve

# GF(17) and GF(127) take two-byte slots; GF(127) is the widest that fits
INT_ROW_PRIMES = (2, 3, 5, 17, 127)


def _ints(p, nrows, ncols, rank, zeros, rng):
    """A random nrows x ncols matrix over GF(p) of rank at most `rank`
    (a product through `rank` inner columns when that is below both
    sizes), with about a `zeros` share of zero factors."""

    def entry():
        return 0 if rng.random() < zeros else rng.randrange(p)

    if rank >= min(nrows, ncols):
        return [[entry() for _ in range(ncols)] for _ in range(nrows)]
    left = [[entry() for _ in range(rank)] for _ in range(nrows)]
    right = [[entry() for _ in range(ncols)] for _ in range(rank)]
    cols = list(zip(*right)) if rank else [()] * ncols
    return [[sum(map(operator.mul, row, col)) % p for col in cols] for row in left]


@st.composite
def int_matrices(draw, p, square=False):
    nrows = draw(st.integers(1, 40))
    ncols = nrows if square else draw(st.integers(1, 40))
    rank = draw(st.integers(0, max(nrows, ncols)))
    zeros = draw(st.sampled_from((0.0, 0.5, 0.9)))
    return _ints(p, nrows, ncols, rank, zeros, random.Random(draw(st.integers(0, 2**32))))


def _elements(F, ints):
    return [[F.element_of_rank(x) for x in row] for row in ints]


def _sympy(p, ints):
    K = GF(p)
    return K, DomainMatrix([[K(x) for x in row] for row in ints], (len(ints), len(ints[0])), K)


def _as_ints(K, p, dm):
    return [[K.to_int(x) % p for x in row] for row in dm.to_list()]


def _check_against_sympy(p, ints, rhs):
    """`_row_reduce`, determinant, kernel and solve on `ints` and `rhs`
    against one sympy rref of the augmented matrix: its left block's
    pivot rows are the rref of `ints`, and its last column the solution
    unless it holds a pivot."""
    F, ncols = make_field(p), len(ints[0])
    K, aug = _sympy(p, [row + [b] for row, b in zip(ints, rhs)])
    aug_rref, aug_pivots = aug.rref()
    pivots = [c for c in aug_pivots if c < ncols]
    reduced = _as_ints(K, p, aug_rref)[: len(pivots)]
    rows = [list(row) for row in ints]
    got_pivots, det, entry = _row_reduce(F, rows, ncols)
    assert all(type(row) is int for row in rows)
    assert got_pivots == pivots
    assert [[entry(row, j) for j in range(ncols)] for row in rows[: len(pivots)]] == [
        row[:ncols] for row in reduced
    ]
    matrix = _elements(F, ints)
    if len(ints) == ncols:
        # over GF(2) the determinant is 1 exactly at full rank, and
        # sympy's own is slow at n = 255
        want = int(len(pivots) == ncols) if p == 2 else K.to_int(_sympy(p, ints)[1].det()) % p
        assert determinant(matrix).rank() == want
        assert (det if len(pivots) == ncols else 0) == want
    # the basis read off the reduced form: free entry 1, pivot entries
    # minus the free column's (sympy's nullspace scales its vectors)
    basis = []
    for free in sorted(set(range(ncols)) - set(pivots)):
        vec = [0] * ncols
        vec[free] = 1
        for row, pc in zip(reduced, pivots):
            vec[pc] = -row[free] % p
        basis.append(vec)
    assert [[x.rank() for x in v] for v in kernel(matrix)] == basis
    got = solve(matrix, [F.element_of_rank(b) for b in rhs])
    if ncols in aug_pivots:
        assert got is None
    else:
        sol = [0] * ncols
        for row, pc in zip(reduced, pivots):
            sol[pc] = row[-1]
        assert [x.rank() for x in got] == sol


@pytest.mark.parametrize("p", INT_ROW_PRIMES)
@settings(max_examples=30)
@given(data=st.data())
def test_int_rows_match_sympy(p, data):
    ints = data.draw(int_matrices(p, square=data.draw(st.booleans())))
    # a right-hand side in the column space half the time, else any
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    if data.draw(st.booleans()):
        x = [rng.randrange(p) for _ in ints[0]]
        rhs = [sum(map(operator.mul, row, x)) % p for row in ints]
    else:
        rhs = [rng.randrange(p) for _ in ints]
    _check_against_sympy(p, ints, rhs)


@pytest.mark.parametrize("p, n, rank", [(2, 255, 240), (3, 60, 60), (3, 60, 45)])
def test_large_square_matrices_match_sympy(p, n, rank):
    rng = random.Random(n + rank)
    ints = _ints(p, n, n, rank, 0.0, rng)
    _check_against_sympy(p, ints, [rng.randrange(p) for _ in range(n)])


@pytest.mark.parametrize("p", (2, 5, 17))
def test_augmented_systems_match_sympy(p):
    # a tall rank-deficient system: consistent for b = A x, not for a
    # b off the column space
    rng = random.Random(p)
    ints = _ints(p, 50, 30, 20, 0.3, rng)
    x = [rng.randrange(p) for _ in range(30)]
    inside = [sum(map(operator.mul, row, x)) % p for row in ints]
    _check_against_sympy(p, ints, inside)
    outside = list(inside)
    outside[0] = (outside[0] + 1) % p
    _check_against_sympy(p, ints, outside)
    F = make_field(p)  # and the inconsistent branch did run
    assert solve(_elements(F, ints), [F.element_of_rank(b) for b in outside]) is None


@pytest.mark.parametrize("ctx", [make_field(2, 2), make_field(131)], ids=repr)
def test_list_path_levels(ctx):
    # GF(4) is an extension level; over GF(131) a two-byte slot has
    # 2*130 >= 256, so no translate reads it: both keep payload lists
    rows = [[1, 0, 1], [1, 1, 0]]
    pivots, det, entry = _row_reduce(ctx, rows, 3)
    assert entry is operator.getitem and all(type(row) is list for row in rows)
    assert pivots == [0, 1] and rows[1][:2] == [0, 1]


def test_int_path_calls_no_field_operation(monkeypatch):
    # a kernel and a solve over GF(2) and GF(3), and a GF(2) division, gcd
    # and inverse on GF(2^31), never reach mul or sub of any level: no
    # row update on payload lists and no list loop of _pdivmod runs
    F2, F3, level = make_field(2), make_field(3), make_field(2, 31)
    rng = random.Random(7)
    systems = []
    for F, p in ((F2, 2), (F3, 3)):
        ints = _ints(p, 30, 30, 20, 0.2, rng)
        x = [rng.randrange(p) for _ in range(30)]
        rhs = [sum(map(operator.mul, row, x)) % p for row in ints]
        systems.append((F, _elements(F, ints), [F.element_of_rank(b) for b in rhs]))
    f, g = [1, 1, 0, 1, 1, 0, 1], [1, 0, 1, 1]
    ranks = (1, 2, 12345, level.order - 1)
    before = ([kernel(m) for _, m, _ in systems], [solve(m, b) for _, m, b in systems],
              fields._pdivmod(F2, f, g), fields._pgcd(F2, f, g), fields._pxgcd(F2, f, g),
              [level.inv(a) for a in ranks])

    def forbidden(*args):
        raise AssertionError("a field operation on the int path")

    for ctx in (F2, F3, level):
        monkeypatch.setattr(ctx, "mul", forbidden)
        monkeypatch.setattr(ctx, "sub", forbidden)
    after = ([kernel(m) for _, m, _ in systems], [solve(m, b) for _, m, b in systems],
             fields._pdivmod(F2, f, g), fields._pgcd(F2, f, g), fields._pxgcd(F2, f, g),
             [level.inv(a) for a in ranks])
    assert after == before and all(len(basis) >= 10 for basis in after[0])
    # the list loop itself does call them
    with pytest.raises(AssertionError, match="int path"):
        fields._pdivmod(F3, [1, 1, 0, 1], [1, 0, 1])
