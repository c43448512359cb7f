"""The memo of f_a's site rows (`pairing._SITE_CACHE`, per (field, a)):
bounded like the root-oracle memos, f_a's inputs checked whether or not
the rows are cached, f_a from cached rows equal to a build from an empty
memo, no entry changed by the routes that read it, and `fa` output in
one process equal to a fresh process's."""

import contextlib
import copy
import io
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import drinfeld
from drinfeld import cli, pairing
from drinfeld.core import DrinfeldModule
from drinfeld.errors import ArityMismatch, NonMonic
from drinfeld.fields import make_field
from drinfeld.pairing import _MEMO_SIZE, PairingEvaluator, f_rootfree, weil_polynomial
from drinfeld.polynomials import UniPoly

FIELDS = [make_field(p, e) for p, e in ((2, 1), (3, 1), (2, 2), (5, 1), (3, 2))]


@contextlib.contextmanager
def empty_memo():
    """The site memo empty inside the block, the outer one back after it."""
    saved = pairing._SITE_CACHE
    pairing._SITE_CACHE = {}
    try:
        yield
    finally:
        pairing._SITE_CACHE = saved


def quiet_main(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def test_memo_stays_bounded(monkeypatch):
    monkeypatch.setattr(pairing, "_SITE_CACHE", {})
    ctx = make_field(23)
    polys = [UniPoly.from_ranks(ctx, [c0, c1, 1]) for c0 in range(23) for c1 in range(23)]
    polys = polys[: _MEMO_SIZE + 1]
    built = [f_rootfree(a, 2) for a in polys]
    assert len(pairing._SITE_CACHE) == _MEMO_SIZE
    # the oldest entry went first and comes back equal when asked again
    first, last = polys[0], polys[-1]
    assert (ctx, first.coeffs) not in pairing._SITE_CACHE
    assert (ctx, last.coeffs) in pairing._SITE_CACHE
    with empty_memo():
        fresh_rows = pairing._site_rows(first)
    assert f_rootfree(first, 2) == built[0] and pairing._site_rows(first) == fresh_rows
    assert len(pairing._SITE_CACHE) == _MEMO_SIZE


def test_inputs_are_checked_with_the_rows_cached():
    ctx = make_field(3)
    a = UniPoly.from_ranks(ctx, [1, 2, 1])
    f_rootfree(a, 2)
    f_rootfree(a, 1)
    assert (ctx, a.coeffs) in pairing._SITE_CACHE
    for r in (2.0, True, 0):
        with pytest.raises(ArityMismatch):
            f_rootfree(a, r)
    with pytest.raises(NonMonic):
        f_rootfree(UniPoly.from_ranks(ctx, [1, 2, 2]), 2)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_cached_rows_give_fresh_f_a_and_readers_change_no_entry(data):
    ctx = data.draw(st.sampled_from(FIELDS), label="field")
    n = data.draw(st.integers(1, 4), label="deg a")
    r = data.draw(st.integers(1, 4), label="r")
    low = data.draw(st.lists(st.integers(0, ctx.order - 1), min_size=n, max_size=n), label="a")
    a = UniPoly.from_ranks(ctx, low + [1])
    f_rootfree(a, r)
    cached = f_rootfree(UniPoly.from_ranks(ctx, low + [1]), r)
    with empty_memo():
        fresh = f_rootfree(a, r)
        fresh_rows = pairing._site_rows(a) if n > 1 else None
    assert fresh == cached and fresh.to_json() == cached.to_json()
    if n > 1:  # f_a at n = 1 reads no sites
        assert pairing._site_rows(a) is pairing._SITE_CACHE[(ctx, a.coeffs)]
        assert pairing._site_rows(a) == fresh_rows

    before = {key: (rows, copy.deepcopy(rows)) for key, rows in pairing._SITE_CACHE.items()}
    phi = DrinfeldModule(ctx, ctx.element_of_rank(1), (ctx.element_of_rank(1),) * r)
    weil_polynomial(phi, a)
    PairingEvaluator(phi, a, ctx)
    argv = ["fa", "--q", str(ctx.p), "--q-deg", str(ctx.degree), "--a",
            ",".join(map(str, low + [1])), "--r", str(r), "--json"]
    assert quiet_main(argv)[0] == 0
    for key, (rows, held) in before.items():
        assert pairing._SITE_CACHE[key] is rows and rows == held


def test_fa_output_in_one_process_matches_a_fresh_process(monkeypatch):
    monkeypatch.setattr(pairing, "_SITE_CACHE", {})
    head = ["fa", "--q", "3", "--a", "2,0,1,1", "--json", "--r"]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(drinfeld.__file__)))
    fresh = {}
    for r in ("3", "2"):
        proc = subprocess.run([sys.executable, "-m", "drinfeld.cli", *head, r],
                              capture_output=True, text=True, env=env, check=True, timeout=60)
        fresh[r] = proc.stdout
    for r in ("3", "3", "2"):
        assert quiet_main(head + [r]) == (0, fresh[r])
    assert len(pairing._SITE_CACHE) == 1
