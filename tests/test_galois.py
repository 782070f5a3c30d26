import itertools

import numpy as np
import pytest

from cosetcodes import make_field
from cosetcodes.galois import (MR_BOUND, SubfieldBasis, _int_to_digits, _poly_mulmod,
                               _poly_powmod, is_prime, nth_root_of_unity, prime_factors,
                               prime_power_base, subfield_power_basis)

SMALL_FIELDS = [(p, e) for p in (2, 3, 5, 7) for e in range(1, 11) if p**e <= 1024]
IMPRIMITIVE_X = (1, 1, 0, 1, 1, 0, 0, 0, 1)  # x^8+x^4+x^3+x+1: x has order 51
PRIMITIVE_NOT_CANONICAL = (1, 0, 1, 1, 0, 1, 0, 0, 1)  # x^8+x^5+x^3+x^2+1


def test_f4_has_the_unique_irreducible_quadratic(f4):
    assert f4.modulus == (1, 1, 1)
    assert f4.order == 4


def test_f256_canonical_modulus_is_deterministic(f256):
    # pinned so exported field descriptions stay bit-exact across runs
    assert f256.modulus == (1, 0, 1, 1, 1, 0, 0, 0, 1)
    assert f256.generator == 2


def test_f256_generator_has_order_255(f256):
    g = f256.generator
    assert f256.pow(g, 255) == 1
    for d in (3, 5, 17):
        assert f256.pow(g, 255 // d) != 1


def test_f4096_generator_order_checks(f4096):
    g = f4096.generator
    assert f4096.pow(g, 4095) == 1
    for d in (3, 5, 7, 13):
        assert f4096.pow(g, 4095 // d) != 1


def test_make_field_rejects_bad_inputs():
    for p in (-3, 0, 1, 4, 9, 15):  # not prime
        with pytest.raises(ValueError, match="is not prime"):
            make_field(p, 2)
    with pytest.raises(ValueError):
        make_field(2, 21)  # 2^21 > 2^20
    with pytest.raises(ValueError):
        make_field(2, 3, (1, 1, 1, 1))  # x^3+x^2+x+1 = (x+1)(x^2+1): reducible
    with pytest.raises(ValueError):
        make_field(2, 3, (1, 1, 1))  # wrong degree
    for modulus in ((1.5, 1, 1), (True, 1, 1), ("1", 1, 1), (None, 1, 1)):
        with pytest.raises(ValueError, match="must be ints"):
            make_field(2, 2, modulus)  # int(c) would build GF(4) from x^2+x+1


def test_prime_power_base_agrees_with_trial_division():
    for q in range(-3, 1 << 12):
        factors = prime_factors(q)
        assert prime_power_base(q) == (factors[0] if len(factors) == 1 else None), q


def test_is_prime_refuses_strong_pseudoprimes():
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2, 3, 5, 7
    assert not is_prime(3825123056546413051)  # ... to the 9 prime bases up to 23
    with pytest.raises(ValueError, match="too large for the exact primality test"):
        is_prime(MR_BOUND)  # strong pseudoprime to all 12 bases


def assert_order(f, a, order):
    """a^order = 1 and a^(order/r) != 1 for every prime r dividing order."""
    assert f.pow(a, order) == 1
    for r in prime_factors(order):
        assert f.pow(a, order // r) != 1


def test_irreducible_but_imprimitive_modulus_is_rejected():
    # x^8+x^4+x^3+x+1 is irreducible (x^256 = x and x^16 != x mod f), but x
    # has order 51 only
    mod, x = list(IMPRIMITIVE_X), [0, 1] + [0] * 6
    assert _poly_powmod(x, 256, mod, 2) == x
    assert _poly_powmod(x, 16, mod, 2) != x
    assert _poly_powmod(x, 51, mod, 2) == [1] + [0] * 7
    with pytest.raises(ValueError, match="not primitive"):
        make_field(2, 8, IMPRIMITIVE_X)


def test_field_laws_small():
    f4 = make_field(2, 2)
    omega = 2  # a generator of GF(4)*, order 3
    assert f4.mul(omega, f4.mul(omega, omega)) == 1
    assert f4.mul(omega, f4.pow(omega, 2)) == 1
    for x in range(4):
        assert f4.add(x, x) == 0  # characteristic 2
    f16 = make_field(2, 4)
    for x, y in itertools.product(range(16), repeat=2):
        assert f16.add(x, y) == f16.add(y, x)
        assert f16.mul(x, y) == f16.mul(y, x)
    for x, y, z in itertools.product(range(1, 16, 3), repeat=3):
        assert f16.mul(x, f16.add(y, z)) == f16.add(f16.mul(x, y), f16.mul(x, z))
        assert f16.mul(x, f16.mul(y, z)) == f16.mul(f16.mul(x, y), z)


def test_inverse_and_division():
    f16 = make_field(2, 4)
    for x in range(1, 16):
        assert f16.mul(x, f16.inv(x)) == 1
    with pytest.raises(ZeroDivisionError):
        f16.inv(0)


def test_odd_characteristic_field_laws():
    f9 = make_field(3, 2)
    for x, y in itertools.product(range(9), repeat=2):
        assert f9.pow(f9.add(x, y), 3) == f9.add(f9.pow(x, 3), f9.pow(y, 3))
    for x in range(1, 9):
        assert f9.mul(x, f9.inv(x)) == 1
    assert f9.neg(f9.neg(5)) == 5


@pytest.mark.parametrize("p,e", [(2, 4), (2, 6), (3, 2), (5, 2)])
def test_frobenius_additivity_exhaustive(p, e):
    f = make_field(p, e)
    for x, y in itertools.product(range(f.order), repeat=2):
        assert f.pow(f.add(x, y), p) == f.add(f.pow(x, p), f.pow(y, p))


def test_frobenius_additivity_exhaustive_f1024():
    # vectorized so the full 2^20 pair space stays cheap
    f = make_field(2, 10)
    xs = np.arange(1024, dtype=np.int64)
    sq = np.asarray([f.pow(int(x), 2) for x in xs], dtype=np.int64)
    pair_sum = xs[:, None] ^ xs[None, :]
    assert np.array_equal(sq[pair_sum], sq[xs][:, None] ^ sq[xs][None, :])


def test_frobenius_fixed_points_are_the_subfield(f256):
    fixed = [x for x in range(256) if f256.frobenius(x, 4) == x]
    assert len(fixed) == 4


def test_frobenius_is_linear_and_has_order_m(f256):
    # F_256 over F_4: applying x -> x^4 four times is the identity
    for x in (0, 1, 7, 133, 200):
        v = x
        for _ in range(4):
            v = f256.frobenius(v, 4)
        assert v == x
    for x, y in itertools.product((3, 91, 250), repeat=2):
        assert (f256.frobenius(f256.add(x, y), 4)
                == f256.add(f256.frobenius(x, 4), f256.frobenius(y, 4)))
    with pytest.raises(ValueError):
        f256.frobenius(5, 6)  # not a power of the characteristic


def test_nth_root_of_unity_examples(f256, f4096):
    a = nth_root_of_unity(f256, 51)
    assert a == f256.pow(f256.generator, 5)
    assert f256.pow(a, 51) == 1
    assert f256.pow(a, 17) != 1 and f256.pow(a, 3) != 1
    a2 = nth_root_of_unity(f4096, 585)
    assert a2 == f4096.pow(f4096.generator, 7)
    assert_order(f4096, a2, 585)
    assert nth_root_of_unity(f256, 255) == f256.generator
    with pytest.raises(ValueError):
        nth_root_of_unity(f256, 7)  # 7 does not divide 255


def test_geometric_sum_identity(f256):
    alpha = nth_root_of_unity(f256, 51)
    for k in (1, 2, 25, 50):
        s = 0
        for i in range(51):
            s = f256.add(s, f256.pow(alpha, k * i))
        assert s == 0
    # k divisible by n: the sum is n mod p
    s = 0
    for i in range(51):
        s = f256.add(s, f256.pow(alpha, 51 * i))
    assert s == 1


def test_subfield_power_basis_examples(f256):
    b1 = subfield_power_basis(f256, 4, 1)
    assert b1.values == (1,)
    b2 = subfield_power_basis(f256, 4, 2)
    w = b2.values[1]
    assert w == f256.pow(f256.generator, 17)
    assert f256.frobenius(w, 16) == w
    b4 = subfield_power_basis(f256, 4, 4)
    assert b4.values == tuple(f256.pow(f256.generator, i) for i in range(4))
    with pytest.raises(ValueError):
        subfield_power_basis(f256, 4, 3)  # 3 does not divide m=4


@pytest.mark.parametrize("q,s", [(4, 2), (4, 4), (16, 2), (2, 8)])
def test_power_basis_spans_the_whole_subfield(f256, q, s):
    basis = subfield_power_basis(f256, q, s)
    view = f256.subfield_view(q)
    span = set()
    for combo in itertools.product(range(q), repeat=s):
        acc = 0
        for sym, el in zip(combo, basis.values):
            acc = f256.add(acc, f256.mul(int(view.embed[sym]), el))
        span.add(acc)
    assert len(span) == q**s


def test_subfield_basis_rejects_dependence_and_nonmembers(f256):
    with pytest.raises(ValueError):
        SubfieldBasis(ctx=f256, q=4, s=2, values=(1, 1))
    gamma = f256.generator  # not fixed by x -> x^16
    with pytest.raises(ValueError):
        SubfieldBasis(ctx=f256, q=4, s=2, values=(1, gamma))
    with pytest.raises(ValueError):
        SubfieldBasis(ctx=f256, q=4, s=2, values=(1, 256))  # outside the field
    with pytest.raises(ValueError):
        SubfieldBasis(ctx=f256, q=3, s=1, values=(1,))  # 3 is not a power of 2


def test_subfield_view_is_a_field_isomorphism(f256):
    for q in (4, 16):
        view = f256.subfield_view(q)
        for s1, s2 in itertools.product(range(q), repeat=2):
            a, b = int(view.embed[s1]), int(view.embed[s2])
            assert view.project[f256.mul(a, b)] == view.field.mul(s1, s2)
            assert view.project[f256.add(a, b)] == view.field.add(s1, s2)


def test_field_description_round_trip(f4096):
    desc = f4096.describe()
    rebuilt = make_field(desc["p"], desc["e"], tuple(desc["modulus"]))
    assert rebuilt is f4096  # cached, identical context
    assert rebuilt.generator == desc["generator"]


def _from_digits(digits, p):
    return sum(d * p**i for i, d in enumerate(digits))


@pytest.mark.parametrize("p,e,modulus", [(p, e, None) for p, e in SMALL_FIELDS] + [
    (2, 8, PRIMITIVE_NOT_CANONICAL), (2, 16, None),
    # float32 digit products are not exact here, (p-1)^2 > 2^24
    (65537, 1, None),
])
def test_tables_match_scalar_oracle(p, e, modulus):
    f = make_field(p, e, modulus)
    q, q1, mod = f.order, f.order - 1, list(f.modulus)
    if e == 1:
        exp = [pow(f.generator, i, p) for i in range(q1)]
    else:
        g, v, exp = _int_to_digits(f.generator, p, e), [1] + [0] * (e - 1), []
        for _ in range(q1):
            exp.append(_from_digits(v, p))
            v = _poly_mulmod(g, v, mod, p)
    assert f.exp_np.tolist() == exp + exp
    assert f.log_np[0] == -1
    assert np.array_equal(f.log_np[exp], np.arange(q1))

    rng = np.random.default_rng(q)
    a, b = rng.integers(0, q, size=(2, 200))
    digits_a = np.asarray([_int_to_digits(int(x), p, e) for x in a])
    digits_b = np.asarray([_int_to_digits(int(x), p, e) for x in b])
    place = p ** np.arange(e)
    assert np.array_equal(f.add(a, b), (digits_a + digits_b) % p @ place)
    assert np.array_equal(f.neg(a), -digits_a % p @ place)
    assert [f.add(int(x), int(y)) for x, y in zip(a, b)] == f.add(a, b).tolist()
    assert [f.neg(int(x)) for x in a] == f.neg(a).tolist()
    if q > 1024:
        return

    digits = np.asarray([_int_to_digits(x, p, e) for x in range(q)])
    add = sum((digits[:, None, i] + digits[None, :, i]) % p * p**i for i in range(e))
    assert np.array_equal(f.add_table, add)
    assert np.array_equal(f.neg_table, -digits % p @ place)
    sample = [0, 1] + rng.integers(2, q, size=30).tolist() if q > 32 else range(q)
    for k in (0, 1, 2, 3, q1 - 1):
        table = f.pow_table(k)
        for x in sample:
            want = _from_digits(_poly_powmod(_int_to_digits(x, p, e), k, mod, p), p)
            assert table[x] == want, (x, k)


@pytest.mark.parametrize("p,modulus", [
    (2, IMPRIMITIVE_X),  # x^255 = 1, but x has order 51
    (2, (1, 0, 1)),      # x^2 + 1 = (x + 1)^2 over F_2
    (2, (0, 1, 1)),      # x^2 + x: x is a zero divisor
    (2, (0, 1)),         # x over F_2: 1 gets a log, but x^1 = 0
    (7, (6, 1)),         # x - 1 over F_7: x = 1 has order 1
], ids=["x-order-51", "x2+1", "x2+x", "x-over-F2", "x-1-over-F7"])
def test_imprimitive_modulus_is_rejected(p, modulus):
    with pytest.raises(ValueError, match="not primitive"):
        make_field(p, len(modulus) - 1, modulus)


def _multiplicative_order(c, p, e, mod):
    """Order of c by walking its powers with the schoolbook product."""
    one, c = [1] + [0] * (e - 1), _int_to_digits(c, p, e)
    v, k = c, 1
    while v != one:
        v, k = _poly_mulmod(v, c, mod, p), k + 1
    return k


@pytest.mark.parametrize("p,e,modulus", [(p, e, None) for p, e in SMALL_FIELDS]
                         + [(2, 8, PRIMITIVE_NOT_CANONICAL)])
def test_generator_is_the_smallest_element_of_full_order(p, e, modulus):
    f = make_field(p, e, modulus)
    orders = [_multiplicative_order(c, p, e, list(f.modulus))
              for c in range(1, f.generator + 1)]
    assert orders[-1] == f.order - 1
    assert all(k < f.order - 1 for k in orders[:-1])


@pytest.mark.parametrize("p,e", [(2, 1), (2, 8), (7, 1), (5, 3), (65537, 1)])
def test_scalar_arithmetic_returns_python_ints(p, e):
    f = make_field(p, e)
    a, b = np.int64(f.order - 1), np.uint16(1)  # numpy operands, as from tables
    for v in (f.mul(a, b), f.mul(1, 1), f.inv(a), f.inv(1), f.pow(a, 3),
              f.pow(b, -1), f.pow(0, 2), f.pow(0, 0)):
        assert type(v) is int
