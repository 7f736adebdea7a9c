import random

import pytest

from fk3hh.exactmath import QQ, PrimeField, SparseMat, Subspace
from fk3hh.fk3core import (
    WORD_DEGREE,
    WORD_INDEX,
    DualGen,
    dgen,
    dual_basis,
    mul_table,
)
from fk3hh.cohomology import CohomologyComplex
from fk3hh.paperdata import cohomology_series_formula, cohomology_total_formula
from fk3hh.resolution import fb_on_gen
from image_tables import tables_agree_with_maps
from induced_reference import cochain_columns
from matrix_helpers import from_cols, is_zero, matmul
from resolution_reference import koszul_diff_elem

W = WORD_INDEX
EPS = DualGen(0, "eps")


@pytest.fixture(scope="module")
def cx():
    return CohomologyComplex(QQ)


def is_cocycle(cx, n, elem):
    return not cx.diff_elem(n, elem)


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
            for m1, c1 in mul_table()[(lw, x)].items():
                for m2, c2 in mul_table()[(m1, rw)].items():
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
            for m1, c1 in mul_table()[(lw, x)].items():
                for m2, c2 in mul_table()[(m1, rw)].items():
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
        for m in cx.m_range(n):
            if not cx.basis(n, m):
                continue
            prod = matmul(cx.matrix(n + 1, m + 1), cx.matrix(n, m))
            assert is_zero(prod), (n, m)


def test_coboundary_dims_match_paper(cx):
    # frozen from the published case formulas
    assert cx.dim_boundaries(5, 1) == 3
    assert cx.dim_boundaries(2, 1) == 3
    assert cx.dim_boundaries(3, 1) == 1
    assert cx.dim_boundaries(6, 1) == 15
    assert cx.dim_boundaries(8, 1) == 18
    assert cx.dim_cycles(6, 0) == 15
    assert cx.dim_cycles(9, 0) == 15
    assert cx.dim_cycles(7, 1) == 23
    assert cx.dim_boundaries(7, 2) == 18


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
        assert cx.dim_homology(n, 4) == h4(n), n
        assert cx.dim_homology(n, 3) == h3(n), n
        assert cx.dim_homology(n, 2) == h2(n), n
        assert cx.dim_homology(n, 1) == h1(n), n
        assert cx.dim_homology(n, 0) == h0(n), n


def test_totals_match_formula(cx):
    _, totals = cx.dims(20)
    for n in range(21):
        assert totals[n] == cohomology_total_formula(n), n
    assert totals[0] == 4 and totals[1] == 7 and totals[20] == 54


def test_recursion_in_m(cx):
    # B^n_m and D^n_m shift to m = 1 (odd) / m = 0 (even) columns
    for n in range(0, 13):
        for m in range(cx.m_range(n).start, 2):
            if m % 2 != 0:
                assert cx.dim_boundaries(n, m) == \
                    cx.dim_boundaries(n + 2 * m - 2, 1), (n, m)
                assert cx.dim_cycles(n, m) == \
                    cx.dim_cycles(n + 2 * m - 2, 1), (n, m)
            else:
                assert cx.dim_boundaries(n, m) == \
                    cx.dim_boundaries(n + 2 * m, 0), (n, m)
                assert cx.dim_cycles(n, m) == \
                    cx.dim_cycles(n + 2 * m, 0), (n, m)


def test_support_range(cx):
    # Q^n = sum over m in [-2 floor(n/4), 4]
    for n in range(0, 16):
        assert not cx.basis(n, cx.m_range(n).start - 1)
        assert not cx.basis(n, 5)
        if n % 4 == 0:
            assert cx.basis(n, cx.m_range(n).start)


def test_hilbert_series(cx):
    assert cx.hilbert_series(2) == {2: 4, 0: 2, -2: 4}
    assert cx.hilbert_series(7) == {-4: 5, -6: 12, -8: 5}
    for n in range(0, 8):
        assert cx.hilbert_series(n) == cohomology_series_formula(n), n
    for n in range(8, 16):
        assert cx.hilbert_series(n) == cohomology_series_formula(n), n


def test_h4_minus2_class(cx):
    # dim H^4_{-2} = 1: the omega*-shift class
    assert cx.dim_homology(4, -2) == 1
    classes = cx.cocycle_basis(4)
    m_vals = sorted(m for m, _ in classes)
    assert m_vals.count(-2) == 1


def test_cocycle_basis_counts(cx):
    for n in range(0, 9):
        assert len(cx.cocycle_basis(n)) == cohomology_total_formula(n), n


def test_published_representatives_are_cocycles(cx):
    # degree 0: eps|1, eps|(ab+ba), eps|(ab+bc-ac), eps|abac
    vec = {(0, EPS, W[""]): 1}
    assert is_cocycle(cx, 0, vec)
    vec = {(0, EPS, W["ab"]): 1, (0, EPS, W["ba"]): 1}
    assert is_cocycle(cx, 0, vec)
    vec = {(0, EPS, W["ab"]): 1, (0, EPS, W["bc"]): 1, (0, EPS, W["ac"]): -1}
    assert is_cocycle(cx, 0, vec)
    assert is_cocycle(cx, 0, {(0, EPS, W["abac"]): 1})
    # degree 1: alpha|a + beta|b + gamma|c and the seven H^1 classes exist
    vec = {(0, dgen("a", 1), W["a"]): 1, (0, dgen("b", 1), W["b"]): 1,
           (0, dgen("g", 1), W["c"]): 1}
    assert is_cocycle(cx, 1, vec)
    coords = cx.class_coordinates(1, vec)
    assert coords  # nonzero class
    # degree 4: omega*_1 eps|1
    vec = {(1, EPS, W[""]): 1}
    assert is_cocycle(cx, 4, vec)
    assert cx.class_coordinates(4, vec)


def test_class_coordinates_of_coboundary_vanish(cx):
    # a coboundary reduces to the zero class
    src = {(0, dgen("a", 1), W["a"]): 1}  # arbitrary degree-1 cochain
    db = cx.diff_elem(1, src)
    assert db  # nonzero coboundary
    assert cx.class_coordinates(2, db) == {}


def reference_class_coordinates(cx, n, elem):
    """Class coordinates in two steps: reduce each m-part of elem by the
    RREF of the coboundaries at (n, m), then solve the residual against the
    class vectors at m."""
    F = cx.field
    by_m = {}
    for (i, g, x), c in elem.items():
        by_m.setdefault(WORD_DEGREE[x] - 2 * i, {})[(i, g, x)] = c
    coords = {}
    for m, part in by_m.items():
        basis = cx.basis(n, m)
        pos = {k: p for p, k in enumerate(basis)}
        img = (cx.matrix(n - 1, m - 1).image() if cx.basis(n - 1, m - 1)
               else Subspace(len(basis), [], F))
        resid = img.reduce({pos[k]: F.of(c) for k, c in part.items()})
        cls = [(idx, cv) for idx, (mm, cv) in enumerate(cx.cocycle_basis(n))
               if mm == m]
        mat = from_cols([{pos[k]: c for k, c in cv.items()}
                                   for _, cv in cls], len(basis), F)
        sol = mat.solve_many([resid])[0]
        if sol is None:
            raise ValueError("element is not a cocycle modulo coboundaries")
        for j, (idx, _) in enumerate(cls):
            if sol.get(j, F.zero) != F.zero:
                coords[idx] = sol[j]
    return coords


def random_cochain(rng, cx, n, m, terms=3):
    basis = cx.basis(n, m)
    return {k: cx.field.of(rng.randint(-3, 3))
            for k in rng.sample(basis, min(terms, len(basis)))}


def add_into(out, elem, F):
    for k, c in elem.items():
        out[k] = F.add(out.get(k, F.zero), F.of(c))
    return {k: c for k, c in out.items() if c != F.zero}


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["q", "f7"])
def test_class_solver_equals_reduce_then_solve(field):
    # class_coordinates solves [coboundaries | classes] once and reads the
    # class part; the reference reduces by the coboundaries first
    cxf = CohomologyComplex(field)
    F = field
    rng = random.Random(12)
    seen = {"classes": 0, "coboundaries": 0, "non-cocycles": 0}
    for n in range(9):
        classes = cxf.cocycle_basis(n)
        seen["classes"] += len(classes)
        for idx, (_, cv) in enumerate(classes):
            assert cxf.class_coordinates(n, cv) == {idx: F.one}
            assert reference_class_coordinates(cxf, n, cv) == {idx: F.one}
            assert not cxf.is_zero_class(n, cv)
        ms = cxf.m_range(n)
        for _ in range(6):
            combo = {}
            for idx in rng.sample(range(len(classes)),
                                  min(3, len(classes))):
                c = F.of(rng.randint(1, 5))
                combo = add_into(combo, {k: F.mul(c, v) for k, v in
                                         classes[idx][1].items()}, F)
            want = reference_class_coordinates(cxf, n, combo)
            assert cxf.class_coordinates(n, combo) == want, n
            cob = {}
            for m in ms:
                cob = add_into(cob, cxf.diff_elem(
                    n - 1, random_cochain(rng, cxf, n - 1, m - 1)), F)
            seen["coboundaries"] += bool(cob)
            assert cxf.is_zero_class(n, cob), n
            assert cxf.class_coordinates(n, cob) == {}
            both = add_into(dict(combo), cob, F)
            assert cxf.class_coordinates(n, both) == want, n
            assert reference_class_coordinates(cxf, n, both) == want
            assert cxf.is_zero_class(n, both) == (not want)
        for m in ms:
            y = random_cochain(rng, cxf, n, m)
            if cxf.diff_elem(n, y):
                seen["non-cocycles"] += 1
                assert not cxf.is_zero_class(n, y)
                with pytest.raises(ValueError):
                    cxf.class_coordinates(n, y)
    assert min(seen.values()) >= 40, seen


def test_prime_field_dims_agree(cx):
    cxp = CohomologyComplex(PrimeField(10007))
    _, tq = cx.dims(8)
    _, tp = cxp.dims(8)
    assert tq == tp


def test_image_of_degree_zero_differential(cx):
    # the (0, 3) column maps onto a 3-dimensional coboundary space at (1, 4)
    assert cx.matrix(0, 3).image().dim == 3
    assert cx.dim_boundaries(1, 4) == 3


# ----- the duality with the nu-twisted chain complex -----

def pairing_matrix(co, n, m):
    """P_n on Q^n_m: omega*_i g*|x against the chain key omega_i x'|g of the
    component (n, 4 - m) is B(x, x') = the coefficient of abac in x x'."""
    pos = {key: j for j, key in enumerate(co.chain.basis(n, 4 - m))}
    src = co.basis(n, m)
    ent = {}
    for r, (i, g, x) in enumerate(src):
        for x2 in range(12):
            b = mul_table()[(x, x2)].get(W["abac"])
            if b:
                ent[(r, pos[(i, x2, g)])] = b
    return SparseMat(len(src), len(pos), ent, co.field)


def reference_codifferential(co, n, m):
    """Q^n_m -> Q^{n+1}_{m+1} pulled back along the generator images by
    the reference pass, independently of the chain complex."""
    src, tgt = co.basis(n, m), co.basis(n + 1, m + 1)
    pos = {key: r for r, key in enumerate(tgt)}
    ent = {}
    for j, (i, g, x) in enumerate(src):
        for (o, u, y), c in cochain_columns(n - 4 * i)[(g, x)].items():
            ent[(pos[(i + o, u, y)], j)] = c
    return SparseMat(len(tgt), len(src), ent, co.field)


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["q", "f7"])
def test_codifferential_is_dual_to_the_twisted_differential(field):
    # D^T P_{n+1} = P_n d_nu on every component: D pulled back along the
    # images, d_nu the A_nu chain differential of (n + 1, 3 - m); without
    # the sign (-1)^{|l|} the chain side differs
    co = CohomologyComplex(field)
    checked = 0
    for n in range(15):
        for m in co.m_range(n):
            if not co.dim(n, m):
                continue
            p_n = pairing_matrix(co, n, m)
            p_n1 = pairing_matrix(co, n + 1, m + 1)
            assert p_n.rows == p_n.cols == p_n.rank(), (n, m)
            lhs = matmul(reference_codifferential(co, n, m).transpose(), p_n1)
            rhs = matmul(p_n, co.chain.matrix(n + 1, 3 - m))
            assert lhs == rhs, (field, n, m)
            checked += not is_zero(lhs)
    assert checked >= 40, checked


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["q", "f7"])
def test_derived_columns_equal_the_reference_pass(field):
    # the columns read off the chain complex are the ones the images give,
    # so every row, diff_key and class solver reads the same entries (the
    # rows to n = 40 are checked against a per-word reduction in
    # test_homology)
    co = CohomologyComplex(field)
    for deg in range(41):
        got = {gx: {(o, u, y): c for o, u, y, c in col}
               for gx, col in co.columns(deg).items()}
        assert got == cochain_columns(deg), (field, deg)
