import random

import pytest

from fk3hh import resolution
from fk3hh.exactmath import QQ, PrimeField, SparseMat, add_term
from fk3hh.fk3core import (
    WORD_DEGREE,
    WORD_INDEX,
    DualGen,
    dgen,
    dual_basis,
    mul_table,
)
from fk3hh import cli
from fk3hh.homology import HomologyComplex, exactness_defects
from fk3hh.resolution import (
    BimoduleResolution,
    comp_basis,
    fb_on_gen,
    kb_comp_basis,
    koszul_on_gen,
    layer_starts,
)
from induced_reference import coreduce, reduce_image, transpose_images
from resolution_reference import (
    bimodule_defect,
    delta_rank,
    i_left,
    i_right,
    intdegs,
    koszul_diff_elem,
    pb_dim,
)

W = WORD_INDEX
ONE = W[""]
EPS = DualGen(0, "eps")


def f_reduced_on_gen(n, gen):
    """id_k (x)_A f^b_n: the right-module comparison map value on gen|1.

    Keys are (DualGen, word_idx) pairs of the trivial-module Koszul complex.
    """
    out = {}
    for (_, l, v, r), c in fb_on_gen(n, gen).items():
        if l == W[""]:
            add_term(out, (v, r), c)
    return out


def kb(word_l, tag, n, word_r, coeff=1):
    g = dgen(tag, n) if tag != "eps" else EPS
    assert g is not None
    return {(0, W[word_l], g, W[word_r]): coeff}


@pytest.fixture(scope="module")
def res():
    return BimoduleResolution(QQ)


def reference_extend(out, i, x, image, y, c=1):
    """Add c * x.image.y, in layer i, to out, one column x|u|y at a time and
    term by term over the plain multiplication table: the reference for
    resolution.extend_into, which works one generator u at a time."""
    table = mul_table()
    for (_, l, v, r), s in image.items():
        for x2, cx in table[(x, l)].items():
            for y2, cy in table[(r, y)].items():
                key = (i, x2, v, y2)
                out[key] = out.get(key, 0) + c * s * cx * cy
                if not out[key]:
                    del out[key]


def reference_piece(resf, k, m, e):
    """Piece (k, m, e) as sorted triplets, built column by column."""
    row_of = {t: r for r, t in
              enumerate(kb_comp_basis(m + 4 * k - 1, e + 6 * k))}
    trips = []
    for col, (_, x, u, y) in enumerate(kb_comp_basis(m, e)):
        img = {}
        reference_extend(img, 0, x, resf.stratum_on_gen(k, m, u), y)
        trips.extend((row_of[t], col, c) for t, c in img.items())
    return sorted(trips)


def reference_delta(resf, n, elem):
    """delta_n by the reference extension, stratum by stratum."""
    out = {}
    for (i, x, u, y), c in elem.items():
        for k in range(i + 1):
            reference_extend(out, i - k, x,
                             resf.stratum_on_gen(k, n - 4 * i, u), y, c)
    return out


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


def test_koszul_on_gen_equals_the_term_by_term_reference():
    # the engine's one d, on each generator 1|u|1, is the reference's
    # (-1)^n i_l + i_r, term for term and in the same order
    for n in range(41):
        for u in dual_basis(n):
            want = koszul_diff_elem(n, {(0, ONE, u, ONE): 1})
            assert list(koszul_on_gen(n, u).items()) == list(want.items()), \
                (n, u)


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["q", "f7"])
def test_stratum_elem_applies_d_as_the_reference(field):
    # d on any element is the bimodule extension of its value on the
    # generators; elements over every tag, with outer words of all degrees
    # and terms spread over three layers
    resf = BimoduleResolution(field)
    rng = random.Random(23)
    for n in range(17):
        gens = dual_basis(n)
        for u in gens:
            for _ in range(4):
                elem = {(rng.randrange(3), rng.randrange(12), u,
                         rng.randrange(12)): 1}
                for _ in range(rng.randrange(20)):
                    key = (rng.randrange(3), rng.randrange(12),
                           rng.choice(gens), rng.randrange(12))
                    elem[key] = rng.choice((-3, -1, 1, 2, 5))
                assert resf.stratum_elem(0, n, elem) == \
                    koszul_diff_elem(n, elem), (n, u)


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
            where = comp_basis(n + 3, g.n + 6)[1]
            for key, c in fb_on_gen(n, g).items():
                assert key in where, (n, g, key)


def test_fb_anticommutation(res):
    # d^b_{n+4} f^b_{n+1} + f^b_n d^b_{n+1} = 0 for n <= 8
    for n in range(0, 9):
        for g in dual_basis(n + 1):
            e = {(0, ONE, g, ONE): 1}
            lhs = koszul_diff_elem(n + 4, res.stratum_elem(1, n + 1, e))
            rhs = res.stratum_elem(1, n, koszul_diff_elem(n + 1, e))
            total = dict(lhs)
            for k, c in rhs.items():
                total[k] = total.get(k, 0) + c
                if total[k] == 0:
                    del total[k]
            assert total == {}, (n, g)
    # and d^b_3 f^b_0 = 0
    f0 = res.stratum_elem(1, 0, {(0, ONE, EPS, ONE): 1})
    assert koszul_diff_elem(3, f0) == {}


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
            expect[(dgen("b", n + 3), W["abc"])] = 1
            expect[(dgen("g", n + 3), W["aba"])] = -1
        assert v == expect, n
    # f_n(alpha_{n-1}beta|1) = (n-1) chi_{n+1} beta_{n+3}|abc
    for n in (3, 5):
        v = f_reduced_on_gen(n, dgen("ab", n))
        assert v == {(dgen("b", n + 3), W["abc"]): n - 1}
    for n in (2, 4):
        assert f_reduced_on_gen(n, dgen("ab", n)) == {}


def test_resolution_dims():
    # dim P^b_n = 144 * sum_i dual_dim(n-4i)
    assert pb_dim(0) == 144
    assert pb_dim(1) == 3 * 144
    assert pb_dim(2) == 5 * 144
    assert pb_dim(4) == (6 + 1) * 144
    assert pb_dim(8) == (6 + 6 + 1) * 144


def test_comp_basis_is_the_full_basis_split_by_internal_degree(res):
    # the full basis of P^b_n, ordered (layer, tag, left word, right word),
    # split by internal degree in that order, is comp_basis component by
    # component; intdegs lists exactly the degrees that occur
    for n in range(10):
        full = [(i, x, g, y) for i in range(n // 4 + 1)
                for g in dual_basis(n - 4 * i)
                for x in range(12) for y in range(12)]
        by_deg = {}
        for key in full:
            i, x, g, y = key
            d = WORD_DEGREE[x] + g.n + WORD_DEGREE[y] + 6 * i
            by_deg.setdefault(d, []).append(key)
        assert sorted(by_deg) == list(intdegs(n)), n
        assert pb_dim(n) == len(full), n
        for d, keys in by_deg.items():
            got, pos = comp_basis(n, d)
            assert got == tuple(keys), (n, d)
            assert pos == {key: r for r, key in enumerate(keys)}
            starts = layer_starts(n, d)
            assert starts[-1] == len(keys)
            for i in range(n // 4 + 1):
                assert [k[0] for k in keys[starts[i]:starts[i + 1]]] == \
                    [i] * (starts[i + 1] - starts[i]), (n, d, i)


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


def eps_rank(field, n):
    """Rank of delta_n (x)_A k: the sum over m of the ranks of the induced
    complex with coefficients eps A."""
    eps = HomologyComplex(field, "eps A")
    return sum(eps.rank(n, m) for m in eps.m_range(n))


def test_exactness_by_rank_low_degrees(res):
    # rank(delta_n) + rank(delta_{n+1}) = dim P^b_n for n = 1..4, and the
    # same on P (x)_A k; degree 0 is measured against the augmentation
    assert exactness_defects(QQ, 4) == [0] * 5
    for n in range(5):
        assert bimodule_defect(res, n) == 0, n


def test_augmentation_exact_at_zero(res):
    # ker(eps^b) = im(delta_1): rank(delta_1) = dim P^b_0 - dim A; on
    # P (x)_A k, ker(A -> k) = im(delta_1 (x) k) has dimension 12 - 1
    assert delta_rank(res, 1) == pb_dim(0) - 12
    assert eps_rank(QQ, 1) == 11


def test_higher_strata_vanish_under_both_reductions():
    # the induced complexes use only f^(0) = d and f^(1) = f; every higher
    # stratum of the tower must reduce to zero on both sides
    resq = BimoduleResolution(QQ)
    for k, top in ((2, 40), (3, 36), (4, 25)):
        for n in range(top + 1):
            images = {g: resq.stratum_on_gen(k, n, g) for g in dual_basis(n)}
            for g, image in images.items():
                for x in range(12):
                    assert reduce_image(image, x) == {}, (k, n, g, x)
            for g, terms in transpose_images(images).items():
                for x in range(12):
                    assert coreduce(terms, x) == {}, (k, n, g, x)


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["q", "f7"])
def test_the_tower_by_degree(field):
    # every term l|v|r of f^(k)_n(1|u|1) lies over a generator v of degree
    # n + 4k - 1 with outer degree |l| + |r| = 2k + 1; so from k = 4 on the
    # stratum's component is empty and stratum_on_gen returns it unsolved
    resf = BimoduleResolution(field)
    terms = 0
    for k in (2, 3):
        for n in range(31):
            for g in dual_basis(n):
                for (_, l, v, r), c in resf.stratum_on_gen(k, n, g).items():
                    assert c and v.n == n + 4 * k - 1, (k, n, g)
                    assert WORD_DEGREE[l] + WORD_DEGREE[r] == 2 * k + 1
                    terms += 1
    assert terms > 1000, terms
    for k in range(4, 9):
        for n in range(61):
            assert kb_comp_basis(n + 4 * k - 1, n + 6 * k) == (), (k, n)
            assert all(resf.stratum_on_gen(k, n, g) == {}
                       for g in dual_basis(n))
    assert not any(k >= 4 for k, _ in resf._homotopy)


def test_delta_blocks_prime_field_ranks_match(res):
    resp = BimoduleResolution(PrimeField(10007))
    for n in range(1, 6):
        assert delta_rank(resp, n) == delta_rank(res, n), n
        assert eps_rank(PrimeField(10007), n) == eps_rank(QQ, n), n


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["q", "f7"])
def test_layer_assembled_delta_blocks_equal_column_images(field):
    # delta_block shifts layer-free pieces into place by layer offsets;
    # here each block is built column by column from delta_elem instead,
    # and each column also by the reference extension
    resf = BimoduleResolution(field)
    for n in range(1, 17):
        for d in intdegs(n):
            src, (tgt, row_of) = comp_basis(n, d)[0], comp_basis(n - 1, d)
            entries = {}
            for col, key in enumerate(src):
                column = resf.delta_elem(n, {key: 1})
                assert column == reference_delta(resf, n, {key: 1}), (n, key)
                for key2, c in column.items():
                    entries[(row_of[key2], col)] = c
            expect = SparseMat(len(tgt), len(src), entries, field)
            assert resf.delta_block(n, d) == expect, (n, d)


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["q", "f7"])
def test_one_sided_blocks_equal_the_reduced_column_images(field):
    # the column omega_i x|u|1 of delta_n (x)_A k is delta_n(omega_i x|u|1)
    # with every term whose right word is not 1 dropped; the induced complex
    # with coefficients eps A must have these columns, component by
    # component (internal degree n + m), in its own basis order
    eps = HomologyComplex(field, "eps A")
    resf = BimoduleResolution(field)
    compared = 0
    for n in range(1, 14):
        for m in eps.m_range(n):
            src = eps.basis(n, m)
            row_of = {key: r for r, key in enumerate(eps.basis(n - 1, m + 1))}
            entries = {}
            for col, (i, x, u) in enumerate(src):
                column = resf.delta_elem(n, {(i, x, u, ONE): 1})
                for (i2, x2, v, y2), c in column.items():
                    if y2 == ONE:
                        entries[(row_of[(i2, x2, v)], col)] = c
            expect = SparseMat(len(row_of), len(src), entries, field)
            assert eps.matrix(n, m) == expect, (n, m)
            compared += bool(src)
    assert compared == 101, compared


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["q", "f7"])
def test_eps_class_ranks_equal_direct_ranks(field):
    # rank() ranks one matrix per omega-layer class; with coefficients
    # eps A every component's own matrix must have that rank, from one
    # below to one above the support in m
    eps = HomologyComplex(field, "eps A")
    for n in range(42):
        for m in range(-1, eps.m_range(n).stop + 1):
            assert eps.dim(n, m) == len(eps.basis(n, m)), (n, m)
            assert eps.rank(n, m) == eps.matrix(n, m).rank(), (n, m)


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["q", "f7"])
def test_one_sided_and_bimodule_defects_vanish_together(field):
    resf = BimoduleResolution(field)
    one_sided = exactness_defects(field, 12)
    bimodule = [bimodule_defect(resf, n) for n in range(13)]
    assert one_sided == bimodule == [0] * 13


def test_exactness_to_degree_40_over_f7():
    # over Q, test_report_cli.py runs the same check through hh resolution
    assert exactness_defects(PrimeField(7), 40) == [0] * 41


def test_both_checks_fail_at_degree_3_without_the_comparison_maps(
        monkeypatch, tmp_path, capsys):
    # with f^(1) zeroed every solved stratum is zero too, so delta is d on
    # each layer omega_i K^b.  FK(3) is not Koszul: its Koszul complex is
    # exact only up to degree 2, and each layer repeats its homology four
    # degrees up.  The bimodule homology is twelve times as large
    monkeypatch.setattr(resolution, "fb_on_gen", lambda n, gen: {})
    bare = BimoduleResolution(QQ)
    one_sided = exactness_defects(QQ, 9)
    assert one_sided == [0, 0, 0, 1, 1, 0, 0, 1, 1, 0]
    assert [bimodule_defect(bare, n) for n in range(10)] == \
        [12 * e for e in one_sided]
    rc = cli.main(["resolution", "--max-n", "5", "--out", str(tmp_path)])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 1
    assert [line for line in lines if "exactness" in line] == [
        "[pass] exactness by rank at degree 1",
        "[pass] exactness by rank at degree 2",
        "[FAIL] exactness by rank at degree 3: P (x)_A k is not exact at "
        "degrees [3]",
        "[FAIL] exactness by rank at degree 4: P (x)_A k is not exact at "
        "degrees [3, 4]",
        "[FAIL] exactness by rank at degree 5: P (x)_A k is not exact at "
        "degrees [3, 4]"]


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["q", "f7"])
def test_pieces_equal_the_column_reference(field):
    # each piece is built one generator at a time over the nonzero products
    # only; the reference builds it one column at a time over the whole table
    resf = BimoduleResolution(field)
    built = 0
    for k in range(4):
        for m in range(14):
            for e in range(m, m + 9):
                assert sorted(resf._piece(k, m, e)) == \
                    reference_piece(resf, k, m, e), (k, m, e)
                built += 1
    assert built == 4 * 14 * 9


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["q", "f7"])
def test_stratum_elem_equals_the_reference_on_mixed_layers(field):
    # elements spread over several layers, generators and outer words, with
    # repeated (x, u, y) in different layers
    resf = BimoduleResolution(field)
    rng = random.Random(5)
    for k in range(4):
        for n in (0, 1, 2, 5, 8, 11):
            gens = dual_basis(n)
            for _ in range(6):
                elem = {}
                for _ in range(rng.randrange(1, 30)):
                    key = (rng.randrange(3), rng.randrange(12),
                           rng.choice(gens), rng.randrange(12))
                    elem[key] = rng.choice((-3, -1, 1, 2, 5))
                expect = {}
                for (i, x, u, y), c in elem.items():
                    reference_extend(expect, i, x,
                                     resf.stratum_on_gen(k, n, u), y, c)
                assert resf.stratum_elem(k, n, elem) == expect, (k, n)


def test_square_zero_defects_find_a_perturbed_coefficient(monkeypatch):
    assert BimoduleResolution(QQ).square_zero_defects(13) == []
    published = resolution._fb_terms

    def perturbed(n, tag):
        terms = list(published(n, tag))
        if (n, tag) == (6, "g"):
            c, *rest = terms[0]
            terms[0] = (c + 1, *rest)
        return terms

    try:
        with monkeypatch.context() as mp:
            mp.setattr(resolution, "_fb_terms", perturbed)
            fb_on_gen.cache_clear()
            # f_6 enters d f + f d = 0 at degrees 6 (d f_6) and 7 (f_6 d_7)
            assert BimoduleResolution(QQ).square_zero_defects(13) \
                == [6, 7]
            assert BimoduleResolution(QQ).square_zero_defects(5) \
                == []
    finally:
        fb_on_gen.cache_clear()


def test_square_zero_defects_find_a_perturbed_koszul_coefficient(monkeypatch):
    published = resolution.koszul_on_gen

    def perturbed(n, gen):
        image = published(n, gen)
        if (n, gen.tag) == (6, "g"):
            key = next(iter(image))  # c|g_5|1
            image = {**image, key: -image[key]}
        return image

    try:
        with monkeypatch.context() as mp:
            mp.setattr(resolution, "koszul_on_gen", perturbed)
            koszul_on_gen.cache_clear()
            # d_6 enters d_6 f_3 at degree 3, d_5 d_6 and f_5 d_6 at 6, and
            # d_6 d_7 at 7
            assert BimoduleResolution(QQ).square_zero_defects(13) \
                == [3, 6, 7]
            assert BimoduleResolution(QQ).square_zero_defects(5) \
                == [3]
    finally:
        koszul_on_gen.cache_clear()
    assert BimoduleResolution(QQ).square_zero_defects(13) == []
