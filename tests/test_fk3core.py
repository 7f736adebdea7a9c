"""Core-algebra tests, checked against a tensor-algebra linear oracle.

The oracle builds the graded pieces of T(V)/(R) (and of the dual algebra) as
quotients of tensor powers by the two-sided ideal slices, using only the
sparse linear algebra layer; no rewriting is involved, so it is independent
of the completion that builds the multiplication table.
"""

import itertools

import pytest

from fk3hh.exactmath import QQ, SparseMat
from fk3hh.fk3core import (
    BASIS_WORDS,
    DIM,
    DIM_BY_DEGREE,
    WORD_DEGREE,
    WORD_INDEX,
    DualGen,
    chi,
    dgen,
    dual_basis,
    dual_dim,
    dual_left_action,
    dual_right_action,
    mul_table,
    triple_products,
)
from fk3_reference import (
    AlgElem,
    dual_left_action_elem,
    dual_right_action_elem,
    dual_word_left_action,
    dual_word_right_action,
    mul_elems,
)
from matrix_helpers import from_cols

# ----------------------------------------------------------------------------
# tensor oracle
# ----------------------------------------------------------------------------

LET = {"a": 0, "b": 1, "c": 2}


def tindex(word):
    """Index of a tensor word over a 3-letter alphabet."""
    i = 0
    for ch in word:
        i = 3 * i + (LET[ch] if isinstance(ch, str) else ch)
    return i


def tensor_vec(terms, m):
    return {tindex(w): QQ.of(c) for w, c in terms.items() if c}


# FK(3) relations as degree-2 tensors
FK_RELS = [
    {"aa": 1}, {"bb": 1}, {"cc": 1},
    {"ab": 1, "bc": 1, "ca": 1},
    {"ba": 1, "ac": 1, "cb": 1},
]
# dual relations: BA-AC, CA-AB, AB-BC, CB-BA  on letters A,B,C ~ a,b,c
DUAL_RELS = [
    {"ba": 1, "ac": -1},
    {"ca": 1, "ab": -1},
    {"ab": 1, "bc": -1},
    {"cb": 1, "ba": -1},
]


def ideal_slice(rels, m):
    """Spanning vectors of sum_i V^i (x) R (x) V^(m-2-i) inside V^(x m)."""
    vecs = []
    for i in range(m - 1):
        for left in itertools.product("abc", repeat=i):
            for right in itertools.product("abc", repeat=m - 2 - i):
                for r in rels:
                    vec = {}
                    for w, c in r.items():
                        full = "".join(left) + w + "".join(right)
                        vec[tindex(full)] = QQ.of(c)
                    vecs.append(vec)
    return vecs


class QuotientOracle:
    """Graded quotient of the free algebra by quadratic relations."""

    def __init__(self, rels, max_deg):
        self.rels = rels
        self.max_deg = max_deg
        self.slices = {m: ideal_slice(rels, m) for m in range(max_deg + 1)}
        self.dims = {
            m: 3**m - SparseMat.from_rows(self.slices[m], 3**m).rank()
            if self.slices[m] else 3**m
            for m in range(max_deg + 1)
        }

    def express(self, vec, m, basis_words):
        """Coordinates of [vec] in the classes of basis_words, or None."""
        cols = [ {tindex(w): QQ.one} for w in basis_words ]
        cols += self.slices[m]
        mat = from_cols(cols, 3**m)
        sol = mat.solve_many([vec])[0]
        if sol is None:
            return None
        return {j: sol.get(j, QQ.zero) for j in range(len(basis_words))}


@pytest.fixture(scope="module")
def fk_oracle():
    return QuotientOracle(FK_RELS, 6)


@pytest.fixture(scope="module")
def dual_oracle():
    return QuotientOracle(DUAL_RELS, 6)


def test_oracle_dims_of_fk3(fk_oracle):
    assert [fk_oracle.dims[m] for m in range(7)] == [1, 3, 4, 3, 1, 0, 0]


def test_paper_words_are_a_basis(fk_oracle):
    for m in range(5):
        words = [w for w in BASIS_WORDS if len(w) == m]
        assert len(words) == fk_oracle.dims[m]
        cols = [{tindex(w): QQ.one} for w in words] + fk_oracle.slices[m]
        assert from_cols(cols, 3**m).rank() == 3**m - (0 if m < 2 else 0) \
            or True
        # independence mod the ideal slice: total rank = dim slice + #words
        slice_rank = SparseMat.from_rows(fk_oracle.slices[m], 3**m).rank() \
            if fk_oracle.slices[m] else 0
        assert from_cols(cols, 3**m).rank() == slice_rank + len(words)


def test_mul_table_against_oracle(fk_oracle):
    for i, wi in enumerate(BASIS_WORDS):
        for j, wj in enumerate(BASIS_WORDS):
            m = len(wi) + len(wj)
            got = mul_table()[(i, j)]
            if m > 4:
                assert got == {}
                continue
            concat = {tindex(wi + wj): QQ.one}
            words_m = [w for w in BASIS_WORDS if len(w) == m]
            coords = fk_oracle.express(concat, m, words_m)
            assert coords is not None
            expect = {WORD_INDEX[words_m[k]]: int(v)
                      for k, v in coords.items() if v != 0}
            assert got == expect, (wi, wj)


def test_frozen_products():
    # values computed by the tensor oracle, frozen
    a, b, c = (WORD_INDEX[w] for w in "abc")
    ab, ba = WORD_INDEX["ab"], WORD_INDEX["ba"]
    bc, ac = WORD_INDEX["bc"], WORD_INDEX["ac"]
    assert mul_table()[(a, b)] == {ab: 1}
    # c*a = -ab - bc (forced by ab+bc+ca = 0)
    assert mul_table()[(c, a)] == {ab: -1, bc: -1}
    # c*b = -ba - ac
    assert mul_table()[(c, b)] == {ba: -1, ac: -1}
    # degree-4 products, as computed by the tensor oracle
    top = WORD_INDEX["abac"]
    assert mul_table()[(ab, ab)] == {}
    assert mul_table()[(ab, ac)] == {top: 1}
    assert mul_table()[(bc, ba)] == {top: 1}
    assert mul_table()[(bc, ac)] == {top: -1}
    assert mul_table()[(ac, ab)] == {top: 1}
    assert mul_table()[(c, WORD_INDEX["aba"])] == {top: -1}


def test_mul_table_entries_ascend():
    # each entry is stored by basis index, whatever order the reducer
    # visits the words of a normal form in
    table = mul_table()
    assert len(table) == DIM * DIM
    for (i, j), entry in table.items():
        assert list(entry) == sorted(entry), (i, j)


def test_triple_products_are_the_nonzero_products_a_x_b():
    triples = triple_products()
    assert len(triples) == DIM * DIM
    for (a, b), prods in triples.items():
        got = {}
        for x, y, c in prods:
            assert c, (a, x, b, y)
            got.setdefault(x, {})[y] = QQ.of(c)
        for x in range(DIM):
            want = mul_elems(mul_table()[(a, x)], {b: 1})
            assert got.get(x, {}) == want, (a, x, b)
            assert want == mul_elems({a: 1}, mul_table()[(x, b)]), (a, x, b)


def test_defining_relations_vanish():
    z = AlgElem({}, QQ)
    a, b, c = AlgElem.word("a"), AlgElem.word("b"), AlgElem.word("c")
    assert a * a == z and b * b == z and c * c == z
    assert a * b + b * c + c * a == z
    assert b * a + a * c + c * b == z


def test_unit_and_associativity_full_sweep():
    one = AlgElem.word("")
    words = [AlgElem({i: QQ.one}) for i in range(DIM)]
    for x in words:
        assert one * x == x and x * one == x
    for i in range(DIM):
        x = words[i]
        for j in range(DIM):
            y = words[j]
            xy = x * y
            for k in range(DIM):
                z = words[k]
                assert (xy) * z == x * (y * z)


def test_adams_degree_additive():
    for i in range(DIM):
        for j in range(DIM):
            m = WORD_DEGREE[i] + WORD_DEGREE[j]
            for k in mul_table()[(i, j)]:
                assert WORD_DEGREE[k] == m


def test_dual_dims():
    assert [dual_dim(n) for n in range(6)] == [1, 3, 5, 6, 6, 6]
    assert dgen("ab2", 2) is None  # zero symbol at n = 2
    assert dgen("ab", 1) is None
    assert dgen("a", 0) is None


def test_dual_oracle_relations_are_orthogonal(fk_oracle):
    # <R_perp, R> = 0 under gamma(f1 (x) f2, v1 (x) v2) = f1(v1) f2(v2)
    for rp in DUAL_RELS:
        for r in FK_RELS:
            s = QQ.zero
            for w1, c1 in rp.items():
                for w2, c2 in r.items():
                    if w1 == w2:
                        s += QQ.of(c1) * QQ.of(c2)
            assert s == 0
    # dims 4 + 5 = 9 and independence
    assert SparseMat.from_rows(
        [tensor_vec(r, 2) for r in DUAL_RELS], 9).rank() == 4
    assert SparseMat.from_rows(
        [tensor_vec(r, 2) for r in FK_RELS], 9).rank() == 5


def test_dual_oracle_dims(dual_oracle):
    assert [dual_oracle.dims[n] for n in range(7)] == [1, 3, 5, 6, 6, 6, 6]


def dual_basis_words(n):
    """B^!_n as tensor words: A^n, B^n, C^n, A^(n-1)B, A^(n-1)C, A^(n-2)B^2."""
    if n == 0:
        return [""]
    if n == 1:
        return ["a", "b", "c"]
    words = ["a" * n, "b" * n, "c" * n, "a" * (n - 1) + "b", "a" * (n - 1) + "c"]
    if n >= 3:
        words.append("a" * (n - 2) + "bb")
    return words


def test_dual_basis_words_are_a_basis(dual_oracle):
    for n in range(6):
        words = dual_basis_words(n)
        assert len(words) == dual_oracle.dims[n]
        slice_rank = (SparseMat.from_rows(dual_oracle.slices[n], 3**n).rank()
                      if dual_oracle.slices[n] else 0)
        cols = [{tindex(w): QQ.one} for w in words] + dual_oracle.slices[n]
        assert from_cols(cols, 3**n).rank() == slice_rank + len(words)


def test_dual_actions_against_oracle(dual_oracle):
    # (X f)(w) = f(wX) and (f X)(w) = f(Xw) for f a dual-basis functional
    for n in range(1, 6):
        words_n = dual_basis_words(n)
        gens_n = dual_basis(n)
        words_prev = dual_basis_words(n - 1)
        gens_prev = dual_basis(n - 1)
        assert len(words_n) == len(gens_n)
        for letter in "abc":
            for pos, f in enumerate(gens_n):
                left = dual_left_action(letter, f)
                right = dual_right_action(f, letter)
                for wpos, w in enumerate(words_prev):
                    # left: coefficient of words_n[pos] in w * X
                    coords = dual_oracle.express(
                        {tindex(w + letter): QQ.one}, n, words_n)
                    expect_left = int(coords[pos])
                    assert left.get(gens_prev[wpos], 0) == expect_left, (
                        letter, f, w)
                    coords = dual_oracle.express(
                        {tindex(letter + w): QQ.one}, n, words_n)
                    expect_right = int(coords[pos])
                    assert right.get(gens_prev[wpos], 0) == expect_right, (
                        letter, f, w)


def test_dual_action_paper_values():
    eps = DualGen(0, "eps")
    assert dual_left_action("a", dgen("a", 1)) == {eps: 1}
    assert dual_left_action("a", dgen("b", 1)) == {}
    # B . alpha_{n-1}beta, n even: alpha_{n-1} + alpha_{n-3}beta_2
    n = 6
    got = dual_left_action("b", dgen("ab", n))
    assert got == {dgen("a", n - 1): 1, dgen("ab2", n - 1): 1}
    # alpha_{n-2}beta_2 . B, n even: alpha_{n-2}beta
    got = dual_right_action(dgen("ab2", n), "b")
    assert got == {dgen("ab", n - 1): 1}
    # gamma_n . C = gamma_{n-1}
    assert dual_right_action(dgen("g", n), "c") == {dgen("g", n - 1): 1}
    assert dual_right_action(dgen("a", 1), "a") == {eps: 1}


def test_power_identities_as_actions():
    # X Y^n = A^n X and X A^n = A^n X (n even) / A^n Y (n odd), {X,Y} = {B,C}
    for n in range(1, 13):
        for deg in range(n + 1, n + 3):
            for f in dual_basis(deg):
                start = {f: 1}
                for X, Y in (("b", "c"), ("c", "b")):
                    lhs = dual_word_left_action(X + Y * n, start)
                    rhs = dual_word_left_action("a" * n + X, start)
                    assert lhs == rhs, (n, X, f)
                    lhs2 = dual_word_left_action(X + "a" * n, start)
                    tail = "a" * n + (X if n % 2 == 0 else Y)
                    assert lhs2 == dual_word_left_action(tail, start), (n, X, f)


def test_left_right_actions_commute():
    # (X f) Y == X (f Y) for all letters and tags up to degree 12
    for n in range(2, 13):
        for f in dual_basis(n):
            for x in "abc":
                for y in "abc":
                    lhs = dual_right_action_elem(
                        dual_left_action_elem(x, {f: 1}), y)
                    rhs = dual_left_action_elem(
                        x, dual_right_action_elem({f: 1}, y))
                    assert lhs == rhs, (n, f, x, y)


def test_chi():
    assert chi(0) == 1 and chi(2) == 1 and chi(1) == 0 and chi(7) == 0
