import numpy as np
import pytest

from cosetcodes import (GFMatrix, SubfieldBasis, compute_cosets, make_field,
                        rank, subfield_power_basis)


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
