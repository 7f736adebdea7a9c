import pytest

from fk3hh.cohomology import coreduce, transpose_images
from fk3hh.exactmath import QQ, PrimeField
from fk3hh.fk3core import WORD_INDEX, DualGen, dgen, dual_basis
from fk3hh.homology import reduce_image
from fk3hh.resolution import (
    BimoduleResolution,
    f_reduced_on_gen,
    fb_elem,
    fb_on_gen,
    i_left,
    i_right,
    koszul_diff_elem,
)

W = WORD_INDEX
ONE = W[""]
EPS = DualGen(0, "eps")


def kb(word_l, tag, n, word_r, coeff=1):
    g = dgen(tag, n) if tag != "eps" else EPS
    assert g is not None
    return {(0, W[word_l], g, W[word_r]): coeff}


@pytest.fixture(scope="module")
def res():
    return BimoduleResolution(QQ, max_n=12)


def test_i_left_basics():
    # 1|alpha|1 -> a|eps|1        (single surviving term)
    assert i_left(kb("", "a", 1, "")) == {(0, W["a"], EPS, ONE): 1}
    # 1|beta_n|1 -> b|beta_{n-1}|1
    n = 5
    assert i_left(kb("", "b", n, "")) == {(0, W["b"], dgen("b", n - 1), ONE): 1}


def test_i_left_ab2_even():
    # 1|alpha_{n-2}beta_2|1, n even >= 4:
    #   a|alpha_{n-3}beta_2|1 + b|alpha_{n-2}beta|1 + c|alpha_{n-2}gamma|1
    n = 6
    got = i_left(kb("", "ab2", n, ""))
    assert got == {
        (0, W["a"], dgen("ab2", n - 1), ONE): 1,
        (0, W["b"], dgen("ab", n - 1), ONE): 1,
        (0, W["c"], dgen("ag", n - 1), ONE): 1,
    }


def test_i_right_basics():
    assert i_right(kb("", "a", 1, "")) == {(0, ONE, EPS, W["a"]): 1}
    n = 7
    assert i_right(kb("", "g", n, "")) == {(0, ONE, dgen("g", n - 1), W["c"]): 1}


def test_i_left_i_right_square_zero_and_commute():
    for n in range(1, 13):
        for g in dual_basis(n):
            for x in (ONE, W["b"], W["ac"]):
                e = {(0, x, g, ONE): 1}
                assert i_left(i_left(e)) == {}
                assert i_right(i_right(e)) == {}
                if n >= 2:
                    assert i_left(i_right(e)) == i_right(i_left(e))


def test_koszul_diff_sign():
    # d^b_1(1|alpha|1) = -a|eps|1 + 1|eps|a
    got = koszul_diff_elem(1, kb("", "a", 1, ""))
    assert got == {(0, W["a"], EPS, ONE): -1, (0, ONE, EPS, W["a"]): 1}


def test_koszul_diff_squares_to_zero():
    for n in range(2, 13):
        for g in dual_basis(n):
            for x, y in ((ONE, ONE), (W["a"], W["bc"]), (W["abac"], ONE)):
                e = {(0, x, g, y): 1}
                assert koszul_diff_elem(n - 1, koszul_diff_elem(n, e)) == {}


def test_fb0_on_eps_value():
    # 36 displayed terms; 8 of them group two words, so 44 basis terms
    v = fb_on_gen(0, EPS)
    assert len(v) == 44
    # leading block: 2|a3|bac + 2|b3|abc - 2|g3|aba - 1|a2b|abc + ...
    assert v[(0, ONE, dgen("a", 3), W["bac"])] == 2
    assert v[(0, ONE, dgen("ab", 3), W["abc"])] == -1
    assert v[(0, ONE, dgen("ab2", 3), W["bac"])] == -1
    assert v[(0, W["ab"], dgen("ag", 3), W["b"])] == 1
    assert v[(0, W["bac"], dgen("a", 3), ONE)] == 2
    assert v[(0, W["ba"], dgen("g", 3), W["a"])] == -2


def test_fb_internal_degree_six():
    for n in range(0, 9):
        for g in dual_basis(n):
            for key, c in fb_on_gen(n, g).items():
                assert BimoduleResolution.intdeg(key) == g.n + 6


def test_fb_anticommutation():
    # d^b_{n+4} f^b_{n+1} + f^b_n d^b_{n+1} = 0 for n <= 8
    for n in range(0, 9):
        for g in dual_basis(n + 1):
            e = {(0, ONE, g, ONE): 1}
            lhs = koszul_diff_elem(n + 4, fb_elem(n + 1, e))
            rhs = fb_elem(n, koszul_diff_elem(n + 1, e))
            total = dict(lhs)
            for k, c in rhs.items():
                total[k] = total.get(k, 0) + c
                if total[k] == 0:
                    del total[k]
            assert total == {}, (n, g)
    # and d^b_3 f^b_0 = 0
    assert koszul_diff_elem(3, fb_elem(0, {(0, ONE, EPS, ONE): 1})) == {}


def test_f_reduced_matches_trivial_module_values():
    # f_0(eps|1) = 2a3|bac + 2b3|abc - 2g3|aba - a2b|abc + a2g|aba - ab2|bac
    v = f_reduced_on_gen(0, EPS)
    assert v == {
        (dgen("a", 3), W["bac"]): 2,
        (dgen("b", 3), W["abc"]): 2,
        (dgen("g", 3), W["aba"]): -2,
        (dgen("ab", 3), W["abc"]): -1,
        (dgen("ag", 3), W["aba"]): 1,
        (dgen("ab2", 3), W["bac"]): -1,
    }
    # f_n(alpha_n|1) = (2 alpha_{n+3} - alpha_{n+1}beta_2)|bac
    #                  + chi_n beta_{n+3}|abc - chi_n gamma_{n+3}|aba
    for n in (2, 3, 4, 5):
        v = f_reduced_on_gen(n, dgen("a", n))
        expect = {(dgen("a", n + 3), W["bac"]): 2,
                  (dgen("ab2", n + 3), W["bac"]): -1}
        if n % 2 == 0:
            expect[(dgen("b", n + 3), W["abc"])] = 2 if False else 1
            expect[(dgen("b", n + 3), W["abc"])] = 1
            expect[(dgen("g", n + 3), W["aba"])] = -1
        assert v == expect, n
    # f_n(alpha_{n-1}beta|1) = (n-1) chi_{n+1} beta_{n+3}|abc
    for n in (3, 5):
        v = f_reduced_on_gen(n, dgen("ab", n))
        assert v == {(dgen("b", n + 3), W["abc"]): n - 1}
    for n in (2, 4):
        assert f_reduced_on_gen(n, dgen("ab", n)) == {}


def test_resolution_dims(res):
    # dim P^b_n = 144 * sum_i dual_dim(n-4i)
    assert res.pb_dim(0) == 144
    assert res.pb_dim(1) == 3 * 144
    assert res.pb_dim(2) == 5 * 144
    assert res.pb_dim(4) == (6 + 1) * 144
    assert res.pb_dim(8) == (6 + 6 + 1) * 144


def test_delta_on_omega_block(res):
    # n = 4, omega_1 1|eps|1 -> omega_0 f^b_0(1|eps|1)  (d^b_0 = 0 branch)
    img = res.delta_elem(4, {(1, ONE, EPS, ONE): 1})
    expect = fb_on_gen(0, EPS)
    assert img == expect


def test_delta_squared_zero_on_generators(res):
    for n in range(2, 13):
        for i, g in res.pb_gens(n):
            e = {(i, ONE, g, ONE): 1}
            assert res.delta_elem(n - 1, res.delta_elem(n, e)) == {}, (n, i, g)


def test_minimality(res):
    for n in range(1, 13):
        assert res.minimality_violations(n) == []


def test_exactness_by_rank_low_degrees(res):
    # rank(delta_n) + rank(delta_{n+1}) = dim P^b_n for n = 1..4;
    # degree 0: exactness against the augmentation: rank(eps) = 12
    for n in range(1, 5):
        assert res.exactness_defect(n) == 0, n


def test_augmentation_exact_at_zero(res):
    # ker(eps^b) = im(delta_1): rank(delta_1) = dim P^b_0 - dim A
    assert res.delta_rank(1) == res.pb_dim(0) - 12


def test_delta_rank_beyond_range_raises():
    res3 = BimoduleResolution(QQ, max_n=3)
    assert res3.delta_rank(4) >= 0
    with pytest.raises(ValueError):
        res3.delta_rank(5)
    with pytest.raises(ValueError):
        res3.exactness_defect(6)


def test_higher_strata_vanish_under_both_reductions():
    # the induced complexes use only f^(0) = d and f^(1) = f; every higher
    # stratum of the tower must reduce to zero on both sides
    resq = BimoduleResolution(QQ, max_n=21)
    for k, top in ((2, 17), (3, 13), (4, 9)):
        for n in range(top + 1):
            images = {g: resq.stratum_on_gen(k, n, g) for g in dual_basis(n)}
            for g, image in images.items():
                for x in range(12):
                    assert reduce_image(image, x) == {}, (k, n, g, x)
            for g, terms in transpose_images(images).items():
                for x in range(12):
                    assert coreduce(terms, x) == {}, (k, n, g, x)


def test_delta_blocks_prime_field_ranks_match(res):
    resp = BimoduleResolution(PrimeField(10007), max_n=6)
    for n in range(1, 6):
        assert resp.delta_rank(n) == res.delta_rank(n), n
