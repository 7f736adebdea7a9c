import pytest

from fk3hh.exactmath import QQ, PrimeField
from fk3hh.fk3core import WORD_INDEX, DualGen, dgen, dual_basis, mul_words
from fk3hh.cohomology import (
    CohomologyComplex,
    hilbert_series_formula,
    total_dim_formula,
)
from fk3hh.resolution import fb_on_gen, koszul_diff_elem
from fk3hh.tables import tables_agree_with_maps

W = WORD_INDEX
EPS = DualGen(0, "eps")


@pytest.fixture(scope="module")
def cx():
    return CohomologyComplex(QQ, max_n=20)


def dual_word(k, n, gen, x):
    """(f^(k)_n)^* on gen|x, gen of degree n + 4k - 1, as the engine's
    codifferential computes it: the omega_k part of its value on gen|x."""
    img = CohomologyComplex().diff_key(n + 4 * k - 1, (0, gen, x))
    return {(u, w): c for (i, u, w), c in img.items() if i == k}


def test_co_diff_examples():
    # the codifferential d^n on degree-n cochains is (d^b_{n+1})^*
    # d^0(eps|1) = 0: 1 is central
    assert dual_word(0, 1, EPS, W[""]) == {}
    # n odd: d^n(alpha_n|abac) = 0
    assert dual_word(0, 6, dgen("a", 5), W["abac"]) == {}
    # n even: d^n(beta_n|bac) = -2 alpha_{n-1}beta_2|abac
    got = dual_word(0, 7, dgen("b", 6), W["bac"])
    assert got == {(dgen("ab2", 7), W["abac"]): -2}


def test_co_f_examples():
    # f^0(alpha_3|1) = 4eps|(bac - aba + abc)
    got = dual_word(1, 0, dgen("a", 3), W[""])
    assert got == {(EPS, W["bac"]): 4, (EPS, W["aba"]): -4, (EPS, W["abc"]): 4}
    # n odd: f^n(alpha_{n+2}beta|x) = 0 for all x in {1,a,b,c}
    for x in ("", "a", "b", "c"):
        assert dual_word(1, 3, dgen("ab", 6), W[x]) == {}
    # n even: f^n(alpha_{n+2}beta|1) = -2a_n|bac - 2b_n|abc + 2g_n|aba
    got = dual_word(1, 4, dgen("ab", 7), W[""])
    assert got == {(dgen("a", 4), W["bac"]): -2, (dgen("b", 4), W["abc"]): -2,
                   (dgen("g", 4), W["aba"]): 2}


def test_co_tables_equal_formulas():
    bad = [b for b in tables_agree_with_maps(max_n=12)
           if b[0].startswith("cohomology")]
    assert bad == []


def _dualize_d(n, gen, x):
    """(d^b_{n+1})^* on gen|x, computed from the Koszul differential."""
    out = {}
    for u2 in dual_basis(n + 1):
        img = koszul_diff_elem(n + 1, {(0, W[""], u2, W[""]): 1})
        acc = {}
        for (_, lw, v, rw), c in img.items():
            if v != gen:
                continue
            for m1, c1 in mul_words(lw, x).items():
                for m2, c2 in mul_words(m1, rw).items():
                    acc[m2] = acc.get(m2, 0) + c * c1 * c2
        for w2, c in acc.items():
            if c:
                out[(u2, w2)] = c
    return out


def _dualize_f(j, gen, x):
    """(f^b_j)^* on gen|x, gen of degree j + 3."""
    out = {}
    for u2 in dual_basis(j):
        img = fb_on_gen(j, u2)
        acc = {}
        for (_, lw, v, rw), c in img.items():
            if v != gen:
                continue
            for m1, c1 in mul_words(lw, x).items():
                for m2, c2 in mul_words(m1, rw).items():
                    acc[m2] = acc.get(m2, 0) + c * c1 * c2
        for w2, c in acc.items():
            if c:
                out[(u2, w2)] = c
    return out


def test_codifferential_matches_dualized_resolution():
    for n in range(0, 8):
        for gen in dual_basis(n):
            for x in range(12):
                assert dual_word(0, n + 1, gen, x) == _dualize_d(n, gen, x), (n, gen, x)


def test_co_f_matches_dualized_resolution():
    for j in range(0, 7):
        for gen in dual_basis(j + 3):
            for x in range(12):
                want = _dualize_f(j, gen, x)
                got = dual_word(1, j, gen, x)
                assert got == want, (j, gen, x)


def test_diff_squares_to_zero(cx):
    for n in range(0, 20):
        for m in range(cx.min_m(n), 5):
            if not cx.basis(n, m):
                continue
            prod = cx.matrix(n + 1, m + 1).matmul(cx.matrix(n, m))
            assert prod.is_zero(), (n, m)


def test_coboundary_dims_match_paper(cx):
    # frozen from the published case formulas
    assert cx.dim_coboundaries(5, 1) == 3
    assert cx.dim_coboundaries(2, 1) == 3
    assert cx.dim_coboundaries(3, 1) == 1
    assert cx.dim_coboundaries(6, 1) == 15
    assert cx.dim_coboundaries(8, 1) == 18
    assert cx.dim_cocycles(6, 0) == 15
    assert cx.dim_cocycles(9, 0) == 15
    assert cx.dim_cocycles(7, 1) == 23
    assert cx.dim_coboundaries(7, 2) == 18


def test_cohomology_grid_matches_paper(cx):
    # the published per-(n, m) case formulas for m in [0, 4]
    def h4(n):
        if n == 0:
            return 1
        if n % 2 == 1:
            return 0
        return 4 if n == 2 else 5

    def h3(n):
        if n % 2 == 0:
            return 0
        return {1: 6, 3: 7}.get(n, 5)

    def h2(n):
        if n in (0, 2):
            return 2
        if n % 2 == 1:
            return 0
        return {4: 1, 6: 4}.get(n, 5)

    def h1(n):
        if n % 2 == 0:
            return 0
        return {1: 1, 3: 5, 5: 11, 7: 12}.get(n, 10)

    def h0(n):
        if n % 2 == 1:
            return 0
        return {0: 1, 2: 4, 4: 7, 6: 7, 8: 6, 10: 9}.get(n, 10)

    for n in range(0, 15):
        assert cx.dim_cohomology(n, 4) == h4(n), n
        assert cx.dim_cohomology(n, 3) == h3(n), n
        assert cx.dim_cohomology(n, 2) == h2(n), n
        assert cx.dim_cohomology(n, 1) == h1(n), n
        assert cx.dim_cohomology(n, 0) == h0(n), n


def test_totals_match_formula(cx):
    _, totals = cx.cohomology_dims(20)
    for n in range(21):
        assert totals[n] == total_dim_formula(n), n
    assert totals[0] == 4 and totals[1] == 7 and totals[20] == 54


def test_recursion_in_m(cx):
    # B^n_m and D^n_m shift to m = 1 (odd) / m = 0 (even) columns
    for n in range(0, 13):
        for m in range(cx.min_m(n), 2):
            if m % 2 != 0:
                assert cx.dim_coboundaries(n, m) == \
                    cx.dim_coboundaries(n + 2 * m - 2, 1), (n, m)
                assert cx.dim_cocycles(n, m) == \
                    cx.dim_cocycles(n + 2 * m - 2, 1), (n, m)
            else:
                assert cx.dim_coboundaries(n, m) == \
                    cx.dim_coboundaries(n + 2 * m, 0), (n, m)
                assert cx.dim_cocycles(n, m) == \
                    cx.dim_cocycles(n + 2 * m, 0), (n, m)


def test_support_range(cx):
    # Q^n = sum over m in [-2 floor(n/4), 4]
    for n in range(0, 16):
        assert not cx.basis(n, cx.min_m(n) - 1)
        assert not cx.basis(n, 5)
        if n % 4 == 0:
            assert cx.basis(n, cx.min_m(n))


def test_hilbert_series(cx):
    assert cx.hilbert_series(2) == {2: 4, 0: 2, -2: 4}
    assert cx.hilbert_series(7) == {-4: 5, -6: 12, -8: 5}
    for n in range(0, 8):
        assert cx.hilbert_series(n) == hilbert_series_formula(n), n
    for n in range(8, 16):
        assert cx.hilbert_series(n) == hilbert_series_formula(n), n


def test_h4_minus2_class(cx):
    # dim H^4_{-2} = 1: the omega*-shift class
    assert cx.dim_cohomology(4, -2) == 1
    classes = cx.cocycle_basis(4)
    m_vals = sorted(m for m, _ in classes)
    assert m_vals.count(-2) == 1


def test_cocycle_basis_counts(cx):
    for n in range(0, 9):
        assert len(cx.cocycle_basis(n)) == total_dim_formula(n), n


def test_published_representatives_are_cocycles(cx):
    # degree 0: eps|1, eps|(ab+ba), eps|(ab+bc-ac), eps|abac
    vec = {(0, EPS, W[""]): 1}
    assert cx.is_cocycle(0, vec)
    vec = {(0, EPS, W["ab"]): 1, (0, EPS, W["ba"]): 1}
    assert cx.is_cocycle(0, vec)
    vec = {(0, EPS, W["ab"]): 1, (0, EPS, W["bc"]): 1, (0, EPS, W["ac"]): -1}
    assert cx.is_cocycle(0, vec)
    assert cx.is_cocycle(0, {(0, EPS, W["abac"]): 1})
    # degree 1: alpha|a + beta|b + gamma|c and the seven H^1 classes exist
    vec = {(0, dgen("a", 1), W["a"]): 1, (0, dgen("b", 1), W["b"]): 1,
           (0, dgen("g", 1), W["c"]): 1}
    assert cx.is_cocycle(1, vec)
    coords = cx.class_coordinates(1, vec)
    assert coords  # nonzero class
    # degree 4: omega*_1 eps|1
    vec = {(1, EPS, W[""]): 1}
    assert cx.is_cocycle(4, vec)
    assert cx.class_coordinates(4, vec)


def test_class_coordinates_of_coboundary_vanish(cx):
    # a coboundary reduces to the zero class
    src = {(0, dgen("a", 1), W["a"]): 1}  # arbitrary degree-1 cochain
    db = cx.diff_elem(1, src)
    assert db  # nonzero coboundary
    assert cx.class_coordinates(2, db) == {}


def test_prime_field_dims_agree(cx):
    cxp = CohomologyComplex(PrimeField(10007), max_n=8)
    _, tq = cx.cohomology_dims(8)
    _, tp = cxp.cohomology_dims(8)
    assert tq == tp


def test_image_of_degree_zero_differential(cx):
    # the (0, 3) column maps onto a 3-dimensional coboundary space at (1, 4)
    assert cx.matrix(0, 3).image().dim == 3
    assert cx.dim_coboundaries(1, 4) == 3
