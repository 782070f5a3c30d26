import multiprocessing

import numpy as np
import pytest
from hypothesis import strategies as st

from cosetcodes import compute_cosets, make_field
from cosetcodes.fixtures import load_known_answers
from cosetcodes.galois import SubfieldBasis, subfield_power_basis
from cosetcodes.linalg import GFMatrix, rank

# published coset tables by (q, n), transcribed set for set in known_answers.json
COSET_TABLES = {(t["q"], t["n"]): t["cosets"] for t in load_known_answers()["coset_tables"]}


@pytest.fixture(autouse=True)
def no_child_left_running():
    """Fail a test that leaves a multiprocessing child alive, after ending it."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.terminate()
        child.join(10)
    assert not left, f"child processes left running: {left}"


def random_subfield_basis(ctx, q, s, rng):
    """A random basis of F_(q^s) over F_q: invertible mix of the power basis."""
    base = subfield_power_basis(ctx, q, s)
    view = ctx.subfield_view(q)
    while True:
        mix = rng.integers(0, q, size=(s, s))
        if rank(GFMatrix(view.field, mix.astype(np.uint16))) == s:
            break
    elems = []
    for row in mix:
        acc = 0
        for sym, el in zip(row, base.values):
            if sym:
                acc = ctx.add(acc, ctx.mul(int(view.embed[sym]), el))
        elems.append(acc)
    return SubfieldBasis(ctx=ctx, q=q, s=s, values=tuple(elems))


def coset_families(table, with_zero=False):
    """Hypothesis strategy: nonempty families of the table, with {0} if asked."""
    zero = {table.coset_of(0)} if with_zero else set()
    ids = st.sets(st.integers(0, len(table) - 1), min_size=0 if zero else 1, max_size=8)
    return ids.map(lambda c: table.family(table.cosets[i].min_rep for i in c | zero))


@pytest.fixture(scope="session")
def t21():
    return compute_cosets(4, 21)


@pytest.fixture(scope="session")
def t51():
    return compute_cosets(4, 51)


@pytest.fixture(scope="session")
def t63():
    return compute_cosets(4, 63)


@pytest.fixture(scope="session")
def t51q16():
    return compute_cosets(16, 51)


@pytest.fixture(scope="session")
def t585():
    return compute_cosets(64, 585)


@pytest.fixture(scope="session")
def t26q3():
    return compute_cosets(3, 26)


@pytest.fixture(scope="session")
def t24q5():
    return compute_cosets(5, 24)


@pytest.fixture(scope="session")
def t80q9():
    return compute_cosets(9, 80)


@pytest.fixture(scope="session")
def t8q9():
    return compute_cosets(9, 8)


@pytest.fixture(scope="session")
def t26q9():
    return compute_cosets(9, 26)


@pytest.fixture(scope="session")
def t24q25():
    return compute_cosets(25, 24)


@pytest.fixture(scope="session")
def f4():
    return make_field(2, 2)


@pytest.fixture(scope="session")
def f16():
    return make_field(2, 4)


@pytest.fixture(scope="session")
def f256():
    return make_field(2, 8)


@pytest.fixture(scope="session")
def f4096():
    return make_field(2, 12)
