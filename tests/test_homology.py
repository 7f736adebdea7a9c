import functools

import pytest

from fk3hh.cohomology import CohomologyComplex
from fk3hh.exactmath import QQ, PrimeField, SparseMat, affine_at
from fk3hh.fk3core import WORD_INDEX, DualGen, dgen, dual_basis
from fk3hh import cli, exactmath, resolution
from fk3hh.homology import STABLE_N, HomologyComplex
from fk3hh.paperdata import (
    cyclic_series_formula,
    homology_representatives,
    homology_series_formula,
    homology_total_formula,
)
from fk3hh.resolution import fb_on_gen, gen_image
from fk3hh.fk3core import mul_table
from homology_reference import (
    NotTranscribed,
    dim_one_stratum_homology,
    kt_matrix,
    verify_representatives,
)
from image_tables import tables_agree_with_maps
from induced_reference import cochain_columns, reduce_image
from matrix_helpers import from_cols, is_zero, matmul
from paper_data import HOMOLOGY_GRID, HOMOLOGY_TOTALS

W = WORD_INDEX


@pytest.fixture(scope="module")
def cx():
    return HomologyComplex(QQ)


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
                    for m1, c1 in mul_table()[(r, x)].items():
                        for m2, c2 in mul_table()[(m1, l)].items():
                            k = (m2, v)
                            derived[k] = derived.get(k, 0) + c * c1 * c2
                            if derived[k] == 0:
                                del derived[k]
                assert derived == induced_word(1, n, x, g), (n, g, x)


def test_diff_squares_to_zero(cx):
    for n in range(2, 20):
        for m in cx.m_range(n):
            if not cx.basis(n, m):
                continue
            prod = matmul(cx.matrix(n - 1, m + 1), cx.matrix(n, m))
            assert is_zero(prod), (n, m)


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
    grid, totals = cx.dims(19)
    for m, row in HOMOLOGY_GRID.items():
        for n, want in enumerate(row):
            if want is None:
                continue
            assert grid.get((n, m), 0) == want, (n, m)
    for n in range(20):
        assert totals[n] == HOMOLOGY_TOTALS[n], n
        assert totals[n] == homology_total_formula(n), n


def test_recursion_in_m(cx):
    # boundaries and cycles repeat under (n, m) -> (n-2m+6, 3) / (n-2m+8, 4)
    for n in range(0, 16):
        for m in cx.m_range(n)[5:]:
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
    assert dim_one_stratum_homology(cx, 3, 3) == 2
    assert cx.dim_homology(3, 3) == 1
    _, totals = cx.dims(14)
    for n in range(0, 15):
        total = 0
        for i in range(n // 4 + 1):
            for m in range(0, 5):
                if n % 4 == 0 and n > 0 and i == n // 4 and m == 0:
                    continue
                piece = dim_one_stratum_homology(cx, n - 4 * i, m)
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
        assert cx.hilbert_series(n) == homology_series_formula(n), n


def test_hilbert_series_general_formula(cx):
    for n in range(6, 20):
        assert cx.hilbert_series(n) == homology_series_formula(n), n


def test_cyclic_series(cx):
    gs = cx.cyclic_series(12)
    assert gs[0] == {1: 3, 2: 2}
    assert gs[1] == {2: 1, 3: 2, 5: 1}
    assert gs[2] == {3: 4, 4: 2, 6: 1}
    assert gs[3] == {4: 1, 7: 4}
    for n in range(13):
        assert gs[n] == cyclic_series_formula(n), n


def test_cyclic_refuses_prime_field():
    cxp = HomologyComplex(PrimeField(10007))
    with pytest.raises(ValueError):
        cxp.cyclic_series(2)


def test_prime_field_dims_agree(cx):
    cxp = HomologyComplex(PrimeField(10007))
    _, totals_p = cxp.dims(8)
    _, totals_q = cx.dims(8)
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
    m20 = kt_matrix(cx, 2, 0)
    assert m20.cols == 5 and m20.rank() == 4
    assert m20.kernel().dim == 1
    # kernel at (3, 0) has dim 4 out of the 6-dim domain
    m30 = kt_matrix(cx, 3, 0)
    assert m30.cols == 6 and m30.kernel().dim == 4
    # image of the (1,1) column equals the boundary space of dim 2
    m11 = kt_matrix(cx, 1, 1)
    assert m11.cols == 9 and m11.image().dim == 2
    # restricting the degree-1 differential to the 12-dim A (x) alpha block
    # gives rank 5 (by row-reducing the first table column)
    eps_basis = {}
    cols = []
    for x in range(12):
        img = induced_word(0, 1, x, dgen("a", 1))
        col = {}
        for (w, g), c in img.items():
            eps_basis.setdefault((w, g), len(eps_basis))
            col[eps_basis[(w, g)]] = QQ.of(c)
        cols.append(col)
    mat = from_cols(cols, max(len(eps_basis), 1))
    assert mat.rank() == 5


@functools.cache
def _gen_image(k, n, g):
    return gen_image(k, n, g)


def _direct_homology_column(n, key):
    """omega_i x|g at degree n, reduced from the generator images of degree
    n - 4i: d stays in layer i, f goes to layer i - 1 when i >= 1."""
    i, x, g = key
    deg = n - 4 * i
    out = {(i, y, v): c for (y, v), c in
           reduce_image(_gen_image(0, deg, g), x).items()}
    if i >= 1:
        out.update({(i - 1, y, v): c for (y, v), c in
                    reduce_image(_gen_image(1, deg, g), x).items()})
    return out


def _direct_cohomology_column(n, key):
    """omega*_i g*|x at degree n, pulled back along d_{deg+1} into layer i
    and along f_{deg-3} into layer i + 1, with deg = n - 4i."""
    i, g, x = key
    return {(i + o, u, y): c for (o, u, y), c in
            cochain_columns(n - 4 * i)[(g, x)].items()}


def _direct_matrix(src, tgt, column, field):
    pos = {k: r for r, k in enumerate(tgt)}
    ent = {(pos[k2], col): c for col, key in enumerate(src)
           for k2, c in column(key).items()}
    return SparseMat(len(tgt), len(src), ent, field)


def test_layer_assembled_matrices_equal_direct_reduction():
    for field in (QQ, PrimeField(7)):
        hom, co = HomologyComplex(field), CohomologyComplex(field)
        for n in range(41):
            for m in hom.m_range(n):
                ref = _direct_matrix(
                    hom.basis(n, m), hom.basis(n - 1, m + 1),
                    lambda key: _direct_homology_column(n, key), field)
                assert hom.matrix(n, m) == ref, (field, "homology", n, m)
            for m in co.m_range(n):
                ref = _direct_matrix(
                    co.basis(n, m), co.basis(n + 1, m + 1),
                    lambda key: _direct_cohomology_column(n, key), field)
                assert co.matrix(n, m) == ref, (field, "cohomology", n, m)


@pytest.mark.parametrize("field, top", [(PrimeField(7), 60), (QQ, 32)],
                         ids=["f7", "q"])
def test_layer_class_ranks_equal_direct_ranks(field, top):
    """rank() ranks one matrix per omega-layer class and dim() counts without
    building a basis: both agree with each component's own matrix and basis,
    from one below to one above the support in m."""
    hom, co = HomologyComplex(field), CohomologyComplex(field)
    for n in range(top + 1):
        for m in range(-1, hom.m_range(n).stop + 1):
            assert hom.dim(n, m) == len(hom.basis(n, m)), ("homology", n, m)
            assert hom.rank(n, m) == hom.matrix(n, m).rank(), \
                ("homology", n, m)
        for m in range(co.m_range(n).start - 1, 6):
            assert co.dim(n, m) == len(co.basis(n, m)), ("cohomology", n, m)
            assert co.rank(n, m) == co.matrix(n, m).rank(), \
                ("cohomology", n, m)


@pytest.mark.parametrize("coefficients", ["A", "A_nu", "eps A"])
@pytest.mark.parametrize("field", [PrimeField(7), QQ], ids=["f7", "q"])
def test_template_rows_equal_assembled_rows(field, coefficients):
    """From STABLE_N on, the fitted affine template gives the raw integer
    rows that rows() assembles, entry for entry, to degree 100, and rank()
    equals the rank of those rows."""
    hom = HomologyComplex(field, coefficients)
    templates = {(parity, m): hom._fit_template(parity, m)
                 for parity in (0, 1) for m in range(4)}
    for n in range(STABLE_N, 101):
        for m in range(4):
            template, ncols = templates[(n % 2, m)]
            rows = hom.rows(n, m)
            assert (affine_at(template, n), ncols) == rows, (n, m)
            assert hom.rank(n, m) == SparseMat.from_rows(*rows, field).rank(), \
                (n, m)


@pytest.mark.parametrize("field", [PrimeField(7), QQ], ids=["f7", "q"])
def test_ranks_above_the_samples_eliminate_only_the_affine_rows(field,
                                                                monkeypatch):
    """From STABLE_N + 6 on, rank() eliminates each template's constant rows
    once per (parity, m) and at each degree only the residuals of its few
    affine rows; it assembles no rows and derives no columns there."""
    top = STABLE_N + 6
    hom = HomologyComplex(field)
    affine = max(sum(any(b for _, b in row.values()) for row in template)
                 for template, _ in (hom._fit_template(parity, m)
                                     for parity in (0, 1) for m in range(4)))
    for n in range(top):
        for m in hom.m_range(n):
            hom.rank(n, m)
    sizes, degrees = [], []
    echelon, rows, derive = exactmath._echelon, hom.rows, hom.derive_columns

    def spy_echelon(rows_in, *args, **kwargs):
        rows_in = list(rows_in)
        sizes.append(len(rows_in))
        return echelon(rows_in, *args, **kwargs)

    def spy_rows(n, m):
        degrees.append(n)
        return rows(n, m)

    def spy_derive(deg):
        degrees.append(deg)
        return derive(deg)

    monkeypatch.setattr(exactmath, "_echelon", spy_echelon)
    monkeypatch.setattr(hom, "rows", spy_rows)
    monkeypatch.setattr(hom, "derive_columns", spy_derive)
    for n in range(top, 61):
        for m in hom.m_range(n):
            hom.rank(n, m)
    assert 0 < affine <= 3
    assert len([s for s in sizes if s > affine]) <= 2 * 4, sizes
    assert sizes and max(degrees) < top


@pytest.fixture
def squared_fb_coefficient(monkeypatch):
    """f_n on the tag ab with (n - 1)^2 in place of its first coefficient
    n - 1: a differential that is not affine in n."""
    fb_terms = resolution._fb_terms

    def skewed(n, tag):
        terms = fb_terms(n, tag)
        if tag == "ab" and terms:
            terms = [((n - 1) ** 2,) + terms[0][1:]] + terms[1:]
        return terms

    monkeypatch.setattr(resolution, "_fb_terms", skewed)
    resolution.fb_on_gen.cache_clear()
    resolution.koszul_on_gen.cache_clear()
    yield
    monkeypatch.undo()
    resolution.fb_on_gen.cache_clear()
    resolution.koszul_on_gen.cache_clear()


def test_template_fit_that_misses_raises(squared_fb_coefficient, tmp_path,
                                         capsys):
    # the (n, 2) rows of odd n carry the tag ab of f at degree n - 4: the
    # fit through n = 13, 15 misses n = 17, so the first odd rank above the
    # samples raises, and the even ones do not
    hom = HomologyComplex(QQ)
    assert hom.rank(STABLE_N + 6, 2) == hom.matrix(STABLE_N + 6, 2).rank()
    with pytest.raises(ArithmeticError):
        hom.rank(STABLE_N + 7, 2)
    rc = cli.main(["homology", "--max-n", "30", "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert rc == 3
    assert "internal error" in captured.err and "[pass]" not in captured.out


@pytest.mark.parametrize("field", [PrimeField(7), QQ], ids=["f7", "q"])
def test_diff_elem_equals_matrix_column(field):
    """diff_elem of a basis key is its matrix column in field scalars: over
    F_7 the integer sums are reduced and the multiples of 7 dropped."""
    hom = HomologyComplex(field)
    for n in range(25):
        for m in hom.m_range(n):
            src, tgt = hom.basis(n, m), hom.basis(n - 1, m + 1)
            cols = [{} for _ in src]
            for i, j, v in hom.matrix(n, m).triplets():
                cols[j][tgt[i]] = v
            for key, col in zip(src, cols):
                assert hom.diff_elem(n, {key: 1}) == col, (n, m, key)
