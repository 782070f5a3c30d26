import random
from math import gcd

import pytest

from cosetcodes import compute_cosets, euclidean_dual_family, galois, hermitian_dual_family
from cosetcodes.cosets import CosetFamily, order_mod
from conftest import COSET_TABLES


@pytest.mark.parametrize("q,n,expected", [(4, 51, 4), (16, 51, 2), (64, 585, 2),
                                          (4, 21, 3), (4, 63, 3)])
def test_order_mod(q, n, expected):
    assert order_mod(q, n) == expected


def test_order_mod_rejects_non_coprime():
    with pytest.raises(ValueError):
        order_mod(4, 6)
    with pytest.raises(ValueError):
        order_mod(4, 1)


@pytest.mark.parametrize("q,n", [(6, 7), (36, 35), (12, 5), (1, 5), (0, 5), (-3, 8)])
def test_compute_cosets_refuses_q_that_is_not_a_prime_power(q, n):
    # a table for such q describes no code, and check_dualizable reads
    # gcd(q, n+1) as "p divides n+1", which needs a single prime p
    with pytest.raises(ValueError, match=f"q={q} is not a prime power"):
        compute_cosets(q, n)


def test_compute_cosets_tests_large_q_without_trial_division(monkeypatch):
    def trial_division(n):
        raise AssertionError("trial division up to sqrt(q)")

    monkeypatch.setattr(galois, "prime_factors", trial_division)
    assert galois.is_prime(10**16 + 61)  # Miller-Rabin at the 12 prime bases up to 37
    assert compute_cosets(10**16 + 61, 5).m == 1
    with pytest.raises(ValueError, match="q=10000004400000259 is not a prime power"):
        compute_cosets((10**8 + 7) * (10**8 + 37), 5)


def test_coset_table_4_51(t51):
    assert sorted([list(c.elements) for c in t51.cosets]) == sorted(COSET_TABLES[4, 51])
    assert len(t51) == 15


def test_coset_table_4_21(t21):
    assert sorted([list(c.elements) for c in t21.cosets]) == sorted(COSET_TABLES[4, 21])


def test_coset_table_4_63(t63):
    assert sorted([list(c.elements) for c in t63.cosets]) == sorted(COSET_TABLES[4, 63])
    assert sum(c.size for c in t63.cosets) == 63


def test_tables_are_ordered_by_min_rep(t51):
    reps = [c.min_rep for c in t51.cosets]
    assert reps == sorted(reps)


def test_partition_and_size_divisibility_random():
    rng = random.Random(1234)
    for _ in range(50):
        q = rng.choice([2, 3, 4, 5, 8, 9, 16])
        n = rng.randrange(3, 200)
        if gcd(q, n) != 1:
            continue
        m = order_mod(q, n)
        if q**m > 1 << 20:
            continue
        t = compute_cosets(q, n)
        assert sum(c.size for c in t.cosets) == n
        seen = set()
        for c in t.cosets:
            assert not (seen & set(c.elements))
            seen |= set(c.elements)
            assert m % c.size == 0
        assert seen == set(range(n))
        for r in range(n):
            assert r in t.cosets[t.coset_of(r)]


def test_dual_coset_examples(t51, t21):
    d = t51.dual_coset(t51.coset_of(1))
    assert list(t51.cosets[d].elements) == [35, 38, 47, 50]
    assert t51.dual_coset(t51.coset_of(0)) == t51.coset_of(0)
    d21 = t21.dual_coset(t21.coset_of(1))
    assert list(t21.cosets[d21].elements) == [5, 17, 20]


def test_dual_coset_negation_and_size(t51, t63):
    for t in (t51, t63):
        for cid, c in enumerate(t.cosets):
            d = t.cosets[t.dual_coset(cid)]
            assert d.size == c.size
            assert sorted((-x) % t.n for x in c.elements) == list(d.elements)


def test_dual_family_is_an_involution(t51):
    fam = t51.family([0, 1, 5, 7])
    assert fam.dual().dual() == fam


def test_scaling_by_q_fixes_every_family(t51, t21):
    for t in (t51, t21):
        fam = t.family(range(0, t.n, 5))
        assert fam.scale(t.q) == fam


def test_scale_family_examples(t51q16, t21):
    s = t51q16.family([0, 12, 8, 4])
    s4 = s.scale(4)
    assert [list(c.elements) for c in s4.cosets()] == [[0], [1, 16], [2, 32], [3, 48]]
    assert [list(c.elements) for c in s4.dual().cosets()] == \
        [[0], [3, 48], [19, 49], [35, 50]]
    s21 = t21.family([0, 1, 2, 3])
    assert s21.scale(2) == s21
    assert s21.scale(1) == s21


def test_dual_family_examples(t585, t51):
    s8 = t585.family([0, 8, 16]).scale(8)
    assert [list(c.elements) for c in s8.cosets()] == [[0], [1, 64], [2, 128]]
    assert [list(c.elements) for c in s8.dual().cosets()] == \
        [[0], [457, 583], [521, 584]]
    single = CosetFamily(t51, (t51.coset_of(1),))
    assert [list(c.elements) for c in single.dual().cosets()] == [[35, 38, 47, 50]]
    zero_only = t51.family([0])
    assert zero_only.dual() == zero_only


def test_euclidean_dual_family_examples(t51, t21):
    s = t51.family([0, 1])
    r = euclidean_dual_family(s)
    excluded = sorted(set(range(len(t51))) - set(r.members))
    assert [list(t51.cosets[i].elements) for i in excluded] == [[35, 38, 47, 50]]
    assert s.dim() + r.dim() == 52
    # S = {{0}}: complement restores everything
    assert euclidean_dual_family(t51.family([0])).members == tuple(range(len(t51)))
    # derived case: dual of {7} mod 21 is {14}
    r21 = euclidean_dual_family(t21.family([0, 7]))
    excluded = sorted(set(range(len(t21))) - set(r21.members))
    assert [list(t21.cosets[i].elements) for i in excluded] == [[14]]


def test_hermitian_dual_family_examples(t51, t21):
    s = t51.family([0, 1])
    tfam = hermitian_dual_family(s, 2)
    excluded = sorted(set(range(len(t51))) - set(tfam.members))
    assert [list(t51.cosets[i].elements) for i in excluded] == [[19, 25, 43, 49]]
    # the worked n=21 dual family and its degree
    t_ex = hermitian_dual_family(t21.family([0, 1, 2, 3]), 2)
    assert [list(c.elements) for c in t_ex.cosets()] == \
        [[0], [1, 4, 16], [2, 8, 11], [3, 6, 12], [7], [14]]
    assert t_ex.max_degree() == 16
    assert t_ex.dim() == 12


def test_hermitian_dual_family_degree_n51(t51):
    # family with reps {0,1,2,6}: complement degree drops to 46
    tfam = hermitian_dual_family(t51.family([0, 1, 2, 6]), 2)
    assert tfam.max_degree() == 46
    assert 52 - tfam.max_degree() == 6


def test_complement_families_require_zero(t51, t21, t26q3):
    with pytest.raises(ValueError):
        euclidean_dual_family(t51.family([1]))
    with pytest.raises(ValueError):
        hermitian_dual_family(t51.family([1]), 2)
    # 3 * 7 = 0 mod 21 would scale {7} onto {0}, but ell = 3 is refused at
    # q = 4 first: ell^2 = q with gcd(q, n) = 1 makes ell a unit mod n
    with pytest.raises(ValueError):
        hermitian_dual_family(t21.family([7]), 3)
    # families that hold {0} get the refusal duality.hermitian_dual gives
    for family, ell in ((t21.family([0, 1]), 3), (t26q3.family([0, 1]), 5)):
        with pytest.raises(ValueError, match=r"need q = ell\^2"):
            hermitian_dual_family(family, ell)


@pytest.mark.parametrize("q,ell,n", [(9, 3, 10), (25, 5, 12)])
def test_family_duals_need_the_characteristic_to_divide_n_plus_1(q, ell, n):
    # the zero coset's row has self-product (n+1)*c^2, nonzero when p does not divide n+1
    family = compute_cosets(q, n).family([0, 1])
    with pytest.raises(ValueError, match="does not divide n\\+1"):
        euclidean_dual_family(family)
    with pytest.raises(ValueError, match="does not divide n\\+1"):
        hermitian_dual_family(family, ell)


def test_max_degree_trivial_and_empty(t51):
    assert t51.family([0]).max_degree() == 0
    with pytest.raises(ValueError):
        CosetFamily(t51, ()).max_degree()


def test_family_reps_and_dim(t51):
    fam = t51.family([16, 0])  # 16 lives in the coset of 1
    assert fam.reps() == (0, 1)
    assert fam.dim() == 5


def test_text_layout_has_three_columns(t51):
    lines = t51.to_text().splitlines()
    assert len(lines) == 5
    assert lines[0].split() == ["{0}", "{1,4,13,16}", "{2,8,26,32}"]


def test_json_export_shape(t21):
    obj = t21.to_json_obj()
    assert obj["q"] == 4 and obj["n"] == 21 and obj["m"] == 3
    assert obj["cosets"] == COSET_TABLES[4, 21]
