import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fk3hh.exactmath import (
    QQ,
    AffineRank,
    EchelonBasis,
    FieldError,
    LinearSolver,
    PrimeField,
    SparseMat,
    Subspace,
    affine_at,
    field_from_name,
    to_integers,
)
import matrix_helpers as mh
from matrix_helpers import apply, col_dict, dense, gauss_jordan, matmul


def random_sparse(rng, rows, cols, density=0.2, field=QQ):
    ent = {}
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                ent[(i, j)] = field.of(rng.randint(-5, 5))
    return SparseMat(rows, cols, ent, field)


def naive_rank(mat):
    # plain dense fraction-based elimination, no pivot strategy
    rows = [[Fraction(x) if mat.field is QQ else x for x in row]
            for row in dense(mat)]
    F = mat.field
    rank = 0
    col = 0
    r = 0
    while r < len(rows) and col < mat.cols:
        piv = None
        for i in range(r, len(rows)):
            if rows[i][col] != F.zero:
                piv = i
                break
        if piv is None:
            col += 1
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][col]
        for i in range(len(rows)):
            if i != r and rows[i][col] != F.zero:
                coef = F.mul(rows[i][col], F.inv(pv))
                rows[i] = [F.sub(x, F.mul(coef, y)) for x, y in zip(rows[i], rows[r])]
        rank += 1
        r += 1
        col += 1
    return rank


def test_field_parsing():
    assert field_from_name("q") is QQ
    assert field_from_name("prime:10007").p == 10007
    with pytest.raises(FieldError):
        field_from_name("prime:4")
    with pytest.raises(FieldError):
        PrimeField(3)
    with pytest.raises(FieldError):
        field_from_name("float")


def test_prime_field_ops():
    F = PrimeField(7)
    assert F.of(Fraction(1, 3)) == 5  # 3*5 = 15 = 1 mod 7
    assert F.mul(3, 5) == 1
    assert F.inv(2) == 4
    with pytest.raises(FieldError):
        F.of(Fraction(1, 7))


def test_rank_trivial():
    assert mh.zero(0, 0).rank() == 0
    assert mh.identity(12).rank() == 12
    assert mh.zero(5, 7).rank() == 0


def test_kernel_trivial():
    assert mh.identity(4).kernel().dim == 0
    ker = mh.zero(3, 3).kernel()
    assert ker.dim == 3


def test_image_trivial():
    assert mh.zero(3, 3).image().dim == 0
    m = SparseMat(2, 2, {(0, 0): 1, (1, 0): 2})
    img = m.image()
    assert img.dim == 1
    assert not img.reduce({0: Fraction(1), 1: Fraction(2)})
    assert img.reduce({0: Fraction(1)})


def test_solve_trivial():
    ident = mh.identity(3)
    rhs = {0: Fraction(2), 2: Fraction(-1)}
    assert ident.solve_many([rhs])[0] == rhs
    zero = mh.zero(2, 2)
    assert zero.solve_many([{0: Fraction(1)}])[0] is None
    assert zero.solve_many([{}])[0] == {}


def test_solve_exact_property():
    rng = random.Random(7)
    for _ in range(25):
        m = random_sparse(rng, rng.randint(1, 12), rng.randint(1, 12))
        x0 = {j: Fraction(rng.randint(-3, 3)) for j in range(m.cols) if rng.random() < 0.5}
        rhs = apply(m, x0)
        sol = m.solve_many([rhs])[0]
        assert sol is not None
        assert apply(m, sol) == rhs


def test_solve_many_mixed_consistency():
    # first rhs inconsistent, second consistent: no cross-contamination
    m = SparseMat(2, 1, {(0, 0): 1})  # x |-> (x, 0)
    bad = {1: Fraction(1)}
    good = {0: Fraction(3)}
    sols = m.solve_many([bad, good, bad])
    assert sols[0] is None and sols[2] is None
    assert sols[1] == {0: Fraction(3)}


def test_rank_transpose_agreement():
    rng = random.Random(1234)
    for _ in range(10):
        m = random_sparse(rng, rng.randint(1, 40), rng.randint(1, 40), 0.15)
        assert m.rank() == m.transpose().rank()
    # one larger sparse instance
    big = random_sparse(rng, 200, 200, 0.02)
    assert big.rank() == big.transpose().rank()


def test_rank_matches_naive_and_modp():
    rng = random.Random(99)
    Fp = PrimeField(10007)
    for _ in range(10):
        rows, cols = rng.randint(1, 25), rng.randint(1, 25)
        m = random_sparse(rng, rows, cols, 0.25)
        r = m.rank()
        assert r == naive_rank(m)
        # over a big prime the ranks of these small-entry matrices agree
        mp = SparseMat(rows, cols, {k: v for (k, v) in
                                    ((t[:2], t[2]) for t in m.triplets())}, Fp)
        assert mp.rank() == r


def test_rank_nullity():
    rng = random.Random(5)
    for _ in range(15):
        m = random_sparse(rng, rng.randint(1, 20), rng.randint(1, 20), 0.3)
        assert m.kernel().dim + m.rank() == m.cols
        assert m.image().dim == m.rank()


def test_kernel_vectors_annihilate():
    rng = random.Random(21)
    for _ in range(10):
        m = random_sparse(rng, 8, 10, 0.3)
        for vec in m.kernel().basis_dicts():
            assert apply(m, vec) == {}


def test_subspace_canonical_equality():
    # same plane presented by different spanning sets
    s1 = Subspace.span(3, [{0: Fraction(1), 1: Fraction(1)}, {1: Fraction(1), 2: Fraction(1)}])
    s2 = Subspace.span(3, [{0: Fraction(2), 1: Fraction(2)},
                           {0: Fraction(1), 2: Fraction(-1)}])
    assert s1 == s2
    assert s1.dim == 2


def test_matmul_and_apply_agree():
    rng = random.Random(3)
    a = random_sparse(rng, 6, 5, 0.4)
    b = random_sparse(rng, 5, 4, 0.4)
    ab = matmul(a, b)
    for j in range(4):
        col = col_dict(b, j)
        assert apply(a, col) == col_dict(ab, j)


def test_triplets_canonical():
    m = SparseMat(2, 2, [(1, 1, 3), (0, 0, 1), (1, 1, -3)])
    assert m.triplets() == [(0, 0, Fraction(1))]
    assert m == SparseMat(2, 2, {(0, 0): 1})


def test_factorized_solver_matches_the_dense_oracle():
    # the particular solution with free variables at zero is unique, so the
    # solver's must be the one dense Gauss-Jordan reads off [M | b]
    rng = random.Random(17)
    for _ in range(15):
        m = random_sparse(rng, rng.randint(1, 12), rng.randint(1, 12), 0.3)
        solver = LinearSolver(m)
        for _ in range(4):
            if rng.random() < 0.5:
                x0 = {j: Fraction(rng.randint(-3, 3)) for j in range(m.cols)
                      if rng.random() < 0.5}
                rhs = apply(m, x0)
            else:
                rhs = {i: Fraction(rng.randint(-3, 3)) for i in range(m.rows)
                       if rng.random() < 0.5}
            aug = [row + [rhs.get(i, QQ.zero)]
                   for i, row in enumerate(dense(m))]
            rows, pivots = gauss_jordan(aug, m.cols, QQ)
            got = solver.solve(rhs)
            if any(row[-1] for row in rows[len(pivots):]):
                assert got is None
            else:
                assert got == {p: row[-1] for row, p in zip(rows, pivots)
                               if row[-1]}
                assert apply(m, got) == {k: v for k, v in rhs.items() if v}


def general_to_integers(vec, field):
    """to_integers without its all-int shortcut over Q: every entry made a
    field scalar, scaled by the lcm of the denominators."""
    vec = {i: field.of(x) for i, x in vec.items()}
    if field.characteristic:
        return {i: v for i, v in vec.items() if v}, 1
    e = lcm(1, *(v.denominator for v in vec.values()))
    return {i: int(v * e) for i, v in vec.items() if v}, e


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["q", "f7"])
@pytest.mark.parametrize("vec", [
    {}, {0: 3, 4: -14, 9: 1}, {0: 0, 2: 7, 5: 0}, {1: 0},
    {0: Fraction(1, 2), 3: Fraction(-4, 3)}, {2: Fraction(6), 7: Fraction(0)},
    {0: 2, 1: Fraction(5, 6), 2: 0, 3: -21}, {0: 10 ** 30, 1: Fraction(1, 5)},
], ids=["empty", "ints", "ints-with-zeros", "zero", "fractions",
        "integral-fractions", "mixed", "large-and-fifth"])
def test_to_integers_equals_the_general_path(field, vec):
    ints, e = to_integers(dict(vec), field)
    want = general_to_integers(vec, field)
    assert (ints, e) == want
    assert all(type(v) is int for v in ints.values())


# ----- property tests: the elimination kernel against a dense oracle -----

FIELDS = (QQ, PrimeField(7))


def entries(field):
    """Scalars of a field, zero about half the time; over Q signed fractions."""
    if field.characteristic:
        nonzero = st.integers(1, field.p - 1)
    else:
        nonzero = st.fractions(-3, 3, max_denominator=4)
    return st.one_of(st.just(field.zero), nonzero).map(field.of)


def dense_rows(field, rows, cols):
    return st.lists(st.lists(entries(field), min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@st.composite
def matrices(draw, max_dim=7):
    """(field, SparseMat) with 0..max_dim rows and columns."""
    field = draw(st.sampled_from(FIELDS))
    rows, cols = draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim))
    dense = draw(dense_rows(field, rows, cols))
    ent = {(i, j): v for i, row in enumerate(dense) for j, v in enumerate(row)}
    return field, SparseMat(rows, cols, ent, field)


def sparse(row, F):
    return {j: v for j, v in enumerate(row) if v != F.zero}


@given(matrices())
def test_rank_and_rref_equal_dense_oracle(fm):
    F, m = fm
    rows, pivots = gauss_jordan(dense(m), m.cols, F)
    assert m.rank() == len(pivots)
    assert m.rref() == ([sparse(r, F) for r in rows[:len(pivots)]], pivots)


@given(matrices())
def test_kernel_and_image_membership(fm):
    F, m = fm
    rows, pivots = gauss_jordan(dense(m), m.cols, F)
    ker, img = m.kernel(), m.image()
    assert ker.dim == m.cols - len(pivots) and img.dim == len(pivots)
    null = []
    for free in sorted(set(range(m.cols)) - set(pivots)):
        vec = {free: F.one}
        for row, pcol in zip(rows, pivots):
            if row[free] != F.zero:
                vec[pcol] = F.neg(row[free])
        null.append(vec)
    assert all(not ker.reduce(v) and apply(m, v) == {} for v in null)
    assert all(apply(m, v) == {} for v in ker.basis_dicts())
    assert ker == Subspace.span(m.cols, null, F)
    for j in range(m.cols):  # a unit vector is in the kernel iff its column is 0
        assert (not ker.reduce({j: F.one})) == (not col_dict(m, j))
        assert not img.reduce(col_dict(m, j))
    trows, tpivots = gauss_jordan(dense(m.transpose()), m.rows, F)
    assert img.basis_dicts() == [sparse(r, F) for r in trows[:len(tpivots)]]
    for i in range(m.rows):  # e_i is in the image iff it adds no pivot
        _, more = gauss_jordan(dense(m.transpose()) +
                               [[F.one if k == i else F.zero
                                 for k in range(m.rows)]], m.rows, F)
        assert (not img.reduce({i: F.one})) == (len(more) == len(tpivots))


def raw_scalar(v, form):
    """v as F.of's input: the scalar itself, an int when v is integral, or
    a string such as '-3/4'."""
    if form == "int" and Fraction(v).denominator == 1:
        return int(v)
    if form == "str":
        return str(v)
    return v


@given(st.data())
def test_solve_many_and_solver_equal_dense_oracle(data):
    F, m = data.draw(matrices())
    rhs = []
    for consistent in data.draw(st.lists(st.booleans(), max_size=4)):
        if consistent:
            x0 = data.draw(dense_rows(F, 1, m.cols))[0]
            rhs.append(apply(m, sparse(x0, F)))
        else:  # arbitrary, explicit zeros included: usually inconsistent
            rhs.append(dict(enumerate(data.draw(dense_rows(F, 1, m.rows))[0])))
    aug = [row + [b.get(i, F.zero) for b in rhs]
           for i, row in enumerate(dense(m))]
    rows, pivots = gauss_jordan(aug, m.cols, F)
    want = []
    for t in range(m.cols, m.cols + len(rhs)):
        if any(row[t] != F.zero for row in rows[len(pivots):]):
            want.append(None)
        else:
            want.append({p: row[t] for row, p in zip(rows, pivots)
                         if row[t] != F.zero})
    # right-hand sides may also carry raw ints and strings, as F.of accepts
    forms = data.draw(st.lists(st.sampled_from(["scalar", "int", "str"]),
                               min_size=len(rhs), max_size=len(rhs)))
    given_rhs = [{i: raw_scalar(v, form) for i, v in b.items()}
                 for b, form in zip(rhs, forms)]
    assert m.solve_many(given_rhs) == want
    solver = LinearSolver(m)
    for b, given_b, sol in zip(rhs, given_rhs, want):
        assert solver.solve(given_b) == m.solve_many([given_b])[0] == sol
        # the support query: None with solve, else its nonzero columns
        cols = solver.support(given_b)
        assert cols is None if sol is None else sorted(cols) == sorted(sol)
        if sol is not None:
            assert apply(m, sol) == {i: v for i, v in b.items() if v != F.zero}


@given(matrices())
def test_echelon_basis_grows_with_the_dense_rank(fm):
    # add() says whether a row enlarges the span of the rows before it
    F, m = fm
    rows = dense(m)
    span = EchelonBasis(F)
    for k, row in enumerate(rows):
        _, before = gauss_jordan(rows[:k], m.cols, F)
        _, after = gauss_jordan(rows[:k + 1], m.cols, F)
        assert span.add(dict(enumerate(row))) == (len(after) > len(before))
        assert len(span) == len(after)
    assert not any(span.add(sparse(row, F)) for row in rows)


@pytest.mark.parametrize("field, drops", [
    (QQ, lambda n: n == 3),
    (PrimeField(7), lambda n: n % 7 == 3),
], ids=["q", "f7"])
def test_affine_rank_drops_where_the_residual_vanishes(field, drops):
    # the rows 1 and n x0 + (n - 3) x1: modulo the constant row the second
    # leaves (n - 3) x1, so the rank is 1 where n - 3 vanishes, else 2
    ar = AffineRank([{0: (1, 0)}, {0: (0, 1), 1: (-3, 1)}], 2, field)
    assert (ar.rank_c, len(ar.residuals)) == (1, 1)
    for n in range(-20, 40):
        assert ar.at(n) == (1 if drops(n) else 2), n


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["q", "f7"])
def test_affine_rank_equals_the_rank_at_each_n(field):
    # random affine rows, some constant, against the rank of their values
    rng = random.Random(5)
    for _ in range(60):
        nrows, cols = rng.randint(0, 7), rng.randint(1, 6)
        rows = []
        for _ in range(nrows):
            affine = rng.random() < 0.4
            row = {j: (rng.randint(-4, 4), rng.randint(-3, 3) if affine else 0)
                   for j in range(cols) if rng.random() < 0.5}
            rows.append({j: ab for j, ab in row.items() if any(ab)})
        ar = AffineRank(rows, cols, field)
        for n in range(-8, 9):
            want = SparseMat.from_rows(affine_at(rows, n), cols, field).rank()
            assert ar.at(n) == want, (rows, n)
