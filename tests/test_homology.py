import pytest

from fk3hh.exactmath import QQ, PrimeField
from fk3hh.fk3core import WORD_INDEX, DualGen, dgen, dual_basis
from fk3hh.homology import (
    HomologyComplex,
    NotTranscribed,
    cyclic_series_formula,
    hilbert_series_formula,
    homology_representatives,
    total_dim_formula,
    verify_representatives,
)
from fk3hh.resolution import fb_on_gen
from fk3hh.tables import tables_agree_with_maps
from fk3hh.fk3core import mul_words

W = WORD_INDEX

# the published dimension table: H_{n,m} for n = 0..19 (rows m = 0..12)
PAPER_GRID = {
    0: [1, 3, 1, 4, 1, 4, 1, 4, 1, 4, 1, 4, 1, 4, 1, 4, 1, 4, 1, 4],
    1: [3, 3, 6, 3, 4, 1, 4, 1, 4, 1, 4, 1, 4, 1, 4, 1, 4, 1, 4, 1],
    2: [2, 2, 2, 0, 0, 3, 1, 4, 1, 4, 1, 4, 1, 4, 1, 4, 1, 4, 1, 4],
    3: [0, 0, 1, 1, 7, 4, 10, 4, 8, 2, 8, 2, 8, 2, 8, 2, 8, 2, 8, 2],
    4: [0, 1, 1, 4, 3, 6, 3, 4, 1, 7, 2, 8, 2, 8, 2, 8, 2, 8, 2, 8],
    5: [None, None, None, None, 0, 0, 1, 1, 7, 4, 10, 4, 8, 2, 8, 2, 8, 2, 8, 2],
    6: [None, None, None, None, 0, 1, 1, 4, 3, 6, 3, 4, 1, 7, 2, 8, 2, 8, 2, 8],
    7: [None] * 8 + [0, 0, 1, 1, 7, 4, 10, 4, 8, 2, 8, 2],
    8: [None] * 8 + [0, 1, 1, 4, 3, 6, 3, 4, 1, 7, 2, 8],
    9: [None] * 12 + [0, 0, 1, 1, 7, 4, 10, 4],
    10: [None] * 12 + [0, 1, 1, 4, 3, 6, 3, 4],
    11: [None] * 16 + [0, 0, 1, 1],
    12: [None] * 16 + [0, 1, 1, 4],
}
PAPER_TOTALS = [6, 9, 11, 12, 15, 19, 21, 22, 25, 29,
                31, 32, 35, 39, 41, 42, 45, 49, 51, 52]


@pytest.fixture(scope="module")
def cx():
    return HomologyComplex(QQ, max_n=19)


def induced_word(k, n, x, gen):
    """id_A (x) f^(k)_n on x|gen as the engine's differential computes it:
    the omega_0 part of the differential on omega_k x|gen."""
    img = HomologyComplex().diff_key(n + 4 * k, (k, x, gen))
    return {(w, v): c for (i, w, v), c in img.items() if i == 0}


def test_tilde_diff_examples():
    # d1(a|beta) = (ba-ab)|eps
    got = induced_word(0, 1, W["a"], dgen("b", 1))
    eps = DualGen(0, "eps")
    assert got == {(W["ba"], eps): 1, (W["ab"], eps): -1}
    # even n: 1|alpha_n -> 2a|alpha_{n-1}
    got = induced_word(0, 6, W[""], dgen("a", 6))
    assert got == {(W["a"], dgen("a", 5)): 2}
    # even n: abac row is zero
    for g in dual_basis(6):
        assert induced_word(0, 6, W["abac"], g) == {}


def test_tables_equal_formulas():
    bad = [b for b in tables_agree_with_maps(max_n=12) if b[0] == "homology d"]
    assert bad == []


def test_tilde_f_examples():
    # f0(a|eps) = 0 and the 12/6 value on 1|eps
    assert induced_word(1, 0, W["a"], DualGen(0, "eps")) == {}
    v = induced_word(1, 0, W[""], DualGen(0, "eps"))
    assert v[(W["bac"], dgen("a", 3))] == 12
    assert v[(W["bac"], dgen("ab2", 3))] == -6
    # odd n: b|alpha_{n-1}beta -> -2(n-1) abac|(a+b+g)
    n = 7
    v = induced_word(1, n, W["b"], dgen("ab", n))
    assert v == {(W["abac"], dgen("a", n + 3)): -12,
                 (W["abac"], dgen("b", n + 3)): -12,
                 (W["abac"], dgen("g", n + 3)): -12}
    # even n: 1|alpha_{n-1}beta -> 0
    assert induced_word(1, 6, W[""], dgen("ab", 6)) == {}


def test_tilde_f_consistency_with_bimodule_maps():
    # tilde f == id_A (x)_{A^e} f^b on every generator and word, n <= 9
    for n in range(0, 10):
        for g in dual_basis(n):
            for x in range(12):
                derived = {}
                for (_, l, v, r), c in fb_on_gen(n, g).items():
                    for m1, c1 in mul_words(r, x).items():
                        for m2, c2 in mul_words(m1, l).items():
                            k = (m2, v)
                            derived[k] = derived.get(k, 0) + c * c1 * c2
                            if derived[k] == 0:
                                del derived[k]
                assert derived == induced_word(1, n, x, g), (n, g, x)


def test_diff_squares_to_zero(cx):
    for n in range(2, 20):
        for m in range(cx.max_m(n) + 1):
            if not cx.basis(n, m):
                continue
            prod = cx.matrix(n - 1, m + 1).matmul(cx.matrix(n, m))
            assert prod.is_zero(), (n, m)


def test_boundary_dims_match_paper(cx):
    # frozen from the published case formulas
    assert cx.dim_boundaries(3, 3) == 13
    assert cx.dim_boundaries(5, 3) == 16
    assert cx.dim_boundaries(7, 3) == 17
    assert cx.dim_boundaries(6, 3) == 14
    assert cx.dim_boundaries(5, 4) == 9
    assert cx.dim_boundaries(8, 4) == 17
    assert cx.dim_cycles(5, 4) == 15
    assert cx.dim_cycles(9, 4) == 21
    assert cx.dim_cycles(5, 2) == 15
    assert cx.dim_cycles(7, 2) == 16


def test_homology_grid_matches_paper(cx):
    grid, totals = cx.homology_dims(19)
    for m, row in PAPER_GRID.items():
        for n, want in enumerate(row):
            if want is None:
                continue
            assert grid.get((n, m), 0) == want, (n, m)
    for n in range(20):
        assert totals[n] == PAPER_TOTALS[n], n
        assert totals[n] == total_dim_formula(n), n


def test_recursion_in_m(cx):
    # boundaries and cycles repeat under (n, m) -> (n-2m+6, 3) / (n-2m+8, 4)
    for n in range(0, 16):
        for m in range(5, cx.max_m(n) + 1):
            if m % 2 == 1:
                assert cx.dim_boundaries(n, m) == cx.dim_boundaries(n - 2 * m + 6, 3)
                assert cx.dim_cycles(n, m) == cx.dim_cycles(n - 2 * m + 6, 3)
            else:
                assert cx.dim_boundaries(n, m) == cx.dim_boundaries(n - 2 * m + 8, 4)
                assert cx.dim_cycles(n, m) == cx.dim_cycles(n - 2 * m + 8, 4)


def test_cycles_decompose_at_m4(cx):
    # dim D_{n,4} = dim K~_{n,4} + dim D_{n-4,2}
    for n in range(0, 16):
        kt4 = len([k for k in cx.basis(n, 4) if k[0] == 0])
        assert cx.dim_cycles(n, 4) == kt4 + cx.dim_cycles(n - 4, 2), n


def test_total_decomposes_into_one_stratum_pieces(cx):
    # dim HH_n = sum over shifted copies of the one-stratum homology, with
    # the m = 0 piece dropped from the deepest copy when 4 divides n.  The
    # catalogued complement at bidegree (3, 3) is the one spot where the
    # one-stratum cycles do not split as chosen-complement plus boundaries:
    # there D~ - B~ = 2 while the surviving homology is 1 (the incoming
    # omega-stratum image accounts for the difference), so that copy
    # contributes 1.
    assert cx.dim_one_stratum_homology(3, 3) == 2
    assert cx.dim_homology(3, 3) == 1
    _, totals = cx.homology_dims(14)
    for n in range(0, 15):
        total = 0
        for i in range(n // 4 + 1):
            for m in range(0, 5):
                if n % 4 == 0 and n > 0 and i == n // 4 and m == 0:
                    continue
                piece = cx.dim_one_stratum_homology(n - 4 * i, m)
                if (n - 4 * i, m) == (3, 3):
                    piece = 1
                total += piece
        assert total == totals[n], n


def test_euler_characteristic_consistency(cx):
    # per internal degree, alternating sums of dims equal those of homology
    for d in range(0, 14):
        chain = hom = 0
        for n in range(0, 20):
            m = d - n
            if m < 0:
                continue
            sign = 1 if n % 2 == 0 else -1
            chain += sign * cx.dim(n, m)
            hom += sign * cx.dim_homology(n, m)
        if d <= 7:  # beyond that the window n <= 19 truncates the complex
            assert chain == hom, d


def test_hilbert_series_explicit(cx):
    assert cx.hilbert_series(0) == {0: 1, 1: 3, 2: 2}
    assert cx.hilbert_series(5) == {5: 4, 6: 1, 7: 3, 8: 4, 9: 6, 11: 1}
    for n in range(6):
        assert cx.hilbert_series(n) == hilbert_series_formula(n), n


def test_hilbert_series_general_formula(cx):
    for n in range(6, 20):
        assert cx.hilbert_series(n) == hilbert_series_formula(n), n


def test_cyclic_series(cx):
    gs = cx.cyclic_series(12)
    assert gs[0] == {1: 3, 2: 2}
    assert gs[1] == {2: 1, 3: 2, 5: 1}
    assert gs[2] == {3: 4, 4: 2, 6: 1}
    assert gs[3] == {4: 1, 7: 4}
    for n in range(13):
        assert gs[n] == cyclic_series_formula(n), n


def test_cyclic_refuses_prime_field():
    cxp = HomologyComplex(PrimeField(10007), max_n=4)
    with pytest.raises(ValueError):
        cxp.cyclic_series(2)


def test_prime_field_dims_agree(cx):
    cxp = HomologyComplex(PrimeField(10007), max_n=8)
    _, totals_p = cxp.homology_dims(8)
    _, totals_q = cx.homology_dims(8)
    assert totals_p == totals_q


def test_representatives_homology(cx):
    for n in range(0, 14):
        for m in range(0, 5):
            rep = verify_representatives(cx, "H", n, m)
            assert rep["ok"], rep


def test_representatives_boundaries(cx):
    for n in range(0, 12):
        for m in (0, 1, 4):
            rep = verify_representatives(cx, "B", n, m)
            assert rep["ok"], rep
    with pytest.raises(NotTranscribed):
        verify_representatives(cx, "B", 3, 2)


def test_representatives_cycles_m0(cx):
    for n in range(0, 12):
        rep = verify_representatives(cx, "D", n, 0)
        assert rep["ok"], rep


def test_specific_paper_examples(cx):
    # H_{4,2} = 0, H_{2,3} one class bac|alpha_2, H_{0,2} two classes
    assert cx.dim_homology(4, 2) == 0
    assert homology_representatives(4, 2) == []
    assert cx.dim_homology(2, 3) == 1
    assert cx.dim_homology(0, 2) == 2
    assert cx.dim_homology(4, 3) == 7 and cx.dim_homology(6, 3) == 10


def test_rank_kernel_image_spec_values(cx):
    # one-stratum matrices: image of the (2,0) column has dim 4 and the
    # kernel picks up the remaining 1 of the 5-dim domain
    m20 = cx.kt_matrix(2, 0)
    assert m20.cols == 5 and m20.rank() == 4
    assert m20.kernel().dim == 1
    # kernel at (3, 0) has dim 4 out of the 6-dim domain
    m30 = cx.kt_matrix(3, 0)
    assert m30.cols == 6 and m30.kernel().dim == 4
    # image of the (1,1) column equals the boundary space of dim 2
    m11 = cx.kt_matrix(1, 1)
    assert m11.cols == 9 and m11.image().dim == 2
    # restricting the degree-1 differential to the 12-dim A (x) alpha block
    # gives rank 5 (by row-reducing the first table column)
    from fk3hh.exactmath import SparseMat, QQ
    eps_basis = {}
    cols = []
    for x in range(12):
        img = induced_word(0, 1, x, dgen("a", 1))
        col = {}
        for (w, g), c in img.items():
            eps_basis.setdefault((w, g), len(eps_basis))
            col[eps_basis[(w, g)]] = QQ.of(c)
        cols.append(col)
    mat = SparseMat.from_cols(cols, max(len(eps_basis), 1))
    assert mat.rank() == 5
