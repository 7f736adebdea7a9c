"""Verification of the cohomology-ring presentation data and its completion."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fk3hh.cohomology import CohomologyComplex
from fk3hh.exactmath import QQ, PrimeField
from fk3hh.ncgroebner import (
    GBasis,
    buchberger_complete,
    lead_word,
    load_commutation_relations,
    load_ideal_relations,
    load_published_basis,
    normal_form,
    ring_algebra,
    standard_words,
    RING_BIDEGREES,
)
from nc_reference import (format_poly, poly_bidegree, reference_normal_form,
                          standard_word_counts)

# the published standard-word lists (token sequences as printed; the
# length-4 list prints x9^3*x12 twice, giving 89 tokens but 88 distinct)
PRINTED_LEN2 = """
x1*x8 x1*x9 x1*x10 x1*x13 x1*x14
x2*x8 x2*x13 x2*x14
x3*x9 x3*x10 x3*x11 x3*x12 x3*x14
x4*x9 x4*x10 x4*x12 x4*x13 x4*x14
x5*x10 x5*x13 x5*x14
x6*x11 x6*x13 x6*x14
x7*x13 x7*x14
x8*x9 x8*x10 x8*x11 x8*x12 x8*x14
x9^2 x9*x10 x9*x12 x9*x13 x9*x14
x10^2 x10*x13 x10*x14
x11^2 x11*x13 x11*x14
x12*x13 x12*x14
x13*x14
x14^2
""".split()

PRINTED_LEN3 = """
x1*x8*x14 x1*x9*x14 x1*x10*x14 x1*x13*x14 x1*x14^2
x2*x8*x14 x2*x13*x14 x2*x14^2
x3*x9*x10 x3*x9*x14 x3*x10*x14 x3*x11*x14 x3*x12*x14 x3*x14^2
x4*x9^2 x4*x9*x10 x4*x9*x12 x4*x9*x13 x4*x9*x14 x4*x10*x13 x4*x10*x14
x4*x12*x13 x4*x12*x14 x4*x13*x14 x4*x14^2
x5*x10^2 x5*x10*x13 x5*x10*x14 x5*x13*x14 x5*x14^2
x6*x11^2 x6*x11*x13 x6*x11*x14 x6*x13*x14 x6*x14^2
x7*x13*x14 x7*x14^2
x8*x9*x10 x8*x9*x14 x8*x10*x14 x8*x11*x14 x8*x12*x14 x8*x14^2
x9^3 x9^2*x10 x9^2*x12 x9^2*x13 x9^2*x14 x9*x10*x13 x9*x10*x14
x9*x12*x13 x9*x12*x14 x9*x13*x14 x9*x14^2
x10^3 x10^2*x13 x10^2*x14 x10*x13*x14 x10*x14^2
x11^3 x11^2*x13 x11^2*x14 x11*x13*x14 x11*x14^2
x12*x13*x14 x12*x14^2
x13*x14^2
x14^3
""".split()

PRINTED_LEN4 = """
x1*x8*x14^2 x1*x9*x14^2 x1*x10*x14^2 x1*x13*x14^2 x1*x14^3
x2*x8*x14^2 x2*x13*x14^2 x2*x14^3
x3*x9*x10*x14 x3*x9*x14^2 x3*x10*x14^2 x3*x11*x14^2 x3*x12*x14^2 x3*x14^3
x4*x9^3 x4*x9^2*x10 x4*x9^2*x12 x4*x9^2*x13 x4*x9^2*x14 x4*x9*x10*x13
x4*x9*x10*x14 x4*x9*x12*x13 x4*x9*x12*x14 x4*x9*x13*x14 x4*x9*x14^2
x4*x10*x13*x14 x4*x10*x14^2 x4*x12*x13*x14 x4*x12*x14^2 x4*x13*x14^2 x4*x14^3
x5*x10^3 x5*x10^2*x13 x5*x10^2*x14 x5*x10*x13*x14 x5*x10*x14^2 x5*x13*x14^2
x5*x14^3
x6*x11^3 x6*x11^2*x13 x6*x11^2*x14 x6*x11*x13*x14 x6*x11*x14^2 x6*x13*x14^2
x6*x14^3
x7*x13*x14^2 x7*x14^3
x8*x9*x10*x14 x8*x9*x14^2 x8*x10*x14^2 x8*x11*x14^2 x8*x12*x14^2 x8*x14^3
x9^4 x9^3*x10 x9^3*x12 x9^3*x12 x9^3*x13 x9^3*x14 x9^2*x10*x13 x9^2*x10*x14
x9^2*x12*x13 x9^2*x12*x14 x9^2*x13*x14 x9^2*x14^2
x9*x10*x13*x14 x9*x10*x14^2 x9*x12*x13*x14 x9*x12*x14^2 x9*x13*x14^2 x9*x14^3
x10^4 x10^3*x13 x10^3*x14 x10^2*x13*x14 x10^2*x14^2 x10*x13*x14^2 x10*x14^3
x11^4 x11^3*x13 x11^3*x14 x11^2*x13*x14 x11^2*x14^2 x11*x13*x14^2 x11*x14^3
x12*x13*x14^2 x12*x14^3
x13*x14^3
x14^4
""".split()


@pytest.fixture(scope="module")
def alg():
    return ring_algebra()


@pytest.fixture(scope="module")
def gb(alg):
    rels = load_commutation_relations(alg) + load_ideal_relations(alg)
    return buchberger_complete(alg, rels, degree_bound=6)


def _words(alg, tokens):
    out = []
    for t in tokens:
        poly = alg.parse_poly(t)
        (w, c), = poly.items()
        assert c == 1
        out.append(w)
    return out


def test_relation_counts(alg):
    assert len(load_commutation_relations(alg)) == 97
    assert len(load_ideal_relations(alg)) == 63
    assert len(load_published_basis(alg)) == 184


def test_commutation_relations_follow_the_graded_pattern(alg):
    # x_i x_j -/+ x_j x_i for i < j (sign + iff both degrees odd), then the
    # squares of the six odd generators
    rels = load_commutation_relations(alg)
    seen_pairs = set()
    squares = []
    for p in rels:
        words = sorted(p, key=len)
        if len(p) == 1:
            (w,) = p
            assert len(w) == 2 and w[0] == w[1]
            squares.append(w[0])
            continue
        (w1, c1), (w2, c2) = sorted(p.items())
        i, j = w1
        assert w2 == (j, i) and i < j
        both_odd = RING_BIDEGREES[i - 1][0] % 2 and RING_BIDEGREES[j - 1][0] % 2
        assert (c1 == c2) == bool(both_odd), (i, j)
        seen_pairs.add((i, j))
    assert len(seen_pairs) == 91
    assert sorted(squares) == [4, 5, 6, 7, 8, 13]


def test_relations_are_bihomogeneous(alg):
    for p in (load_commutation_relations(alg) + load_ideal_relations(alg)
              + load_published_basis(alg)):
        assert poly_bidegree(alg, p) is not None, format_poly(p)


def test_commutation_alone_gives_free_graded_commutative(alg):
    # quotient by the 97 relations alone: the free graded-commutative algebra.
    # The completion is already closed (97 elements), its leading words are
    # exactly the descents x_j x_i (i < j) and the odd squares, so standard
    # words are the sorted monomials with squarefree odd generators: precisely
    # a monomial basis of the free graded-commutative algebra.
    gb1 = buchberger_complete(alg, load_commutation_relations(alg),
                              degree_bound=6)
    assert len(gb1) == 97
    odd = {i + 1 for i, (h, _) in enumerate(RING_BIDEGREES) if h % 2}
    want = {(j, i) for i in range(1, 15) for j in range(i + 1, 15)}
    want |= {(i, i) for i in sorted(odd)}
    assert set(map(tuple, gb1.lead_words())) == want


def test_completion_reproduces_published_basis(alg, gb):
    assert len(gb) == 184
    assert not gb.truncated
    pub = load_published_basis(alg)
    assert sorted(map(tuple, gb.lead_words())) == \
        sorted(tuple(lead_word(p)) for p in pub)
    # mutual reduction gives zero in both directions
    pub_basis = GBasis(alg, pub)
    for p in pub:
        assert normal_form(p, gb) == {}
    for p in gb.polys:
        assert normal_form(p, pub_basis) == {}


def test_normal_form_examples(alg, gb):
    # single printed elements rewrite x2*x1 -> x1*x2 and x10*x4 -> x9*x5
    swap = GBasis(alg, [alg.parse_poly("x2*x1 - x1*x2")])
    assert normal_form(alg.parse_poly("x2*x1"), swap) == alg.parse_poly("x1*x2")
    step = GBasis(alg, [alg.parse_poly("x10*x4 - x9*x5")])
    assert normal_form(alg.parse_poly("x10*x4"), step) == alg.parse_poly("x9*x5")
    # against the full basis these monomials reduce on to their normal forms
    assert normal_form(alg.parse_poly("x2*x1"), gb) == {}  # x1*x2 is in the ideal
    assert normal_form(alg.parse_poly("x10*x4"), gb) == alg.parse_poly("x4*x10")
    assert normal_form(alg.parse_poly("x1^2"), gb) == {}


def test_standard_words_against_printed_lists(alg, gb):
    words = standard_words(gb, up_to_hom_degree=16)
    by_len = {}
    for w in words:
        by_len.setdefault(len(w), set()).add(w)
    assert by_len[0] == {()}
    assert len(by_len[1]) == 14
    p2 = _words(alg, PRINTED_LEN2)
    p3 = _words(alg, PRINTED_LEN3)
    p4 = _words(alg, PRINTED_LEN4)
    assert len(p2) == 46 and by_len[2] == set(p2)
    assert len(p3) == 68 and by_len[3] == set(p3)
    # the printed length-4 list has 89 tokens but contains x9^3*x12 twice;
    # the 88 distinct printed words are exactly the computed standard words
    assert len(p4) == 89
    dup = [w for w in set(p4) if p4.count(w) > 1]
    assert dup == [(9, 9, 9, 12)]
    assert len(set(p4)) == 88
    assert by_len[4] == set(p4)
    # x14-periodicity: x in S iff x*x14 in S (up to the enumerated bound)
    all_words = {w for ws in by_len.values() for w in ws}
    for w in all_words:
        if sum(RING_BIDEGREES[g - 1][0] for g in w) <= 12:
            assert (w + (14,)) in all_words, w


def test_x14_tensor_factorization(gb):
    # counts factor through the x14-free part times a polynomial generator
    counts = standard_word_counts(gb, up_to_hom_degree=12)
    free = {}
    for w in standard_words(gb, up_to_hom_degree=12):
        if 14 in w:
            continue
        bd = gb.algebra.word_bidegree(w)
        free[bd] = free.get(bd, 0) + 1
    for (h, d), c in counts.items():
        total = 0
        k = 0
        while 4 * k <= h:
            total += free.get((h - 4 * k, d + 6 * k), 0)
            k += 1
        assert total == c, (h, d)


def test_bigraded_counts_equal_cohomology_dims(gb):
    counts = standard_word_counts(gb, up_to_hom_degree=20)
    cox = CohomologyComplex()
    for n in range(0, 21):
        series = cox.hilbert_series(n)
        gbrow = {d: c for (h, d), c in counts.items() if h == n}
        assert series == gbrow, n


def test_completion_over_prime_field():
    # same leading words over F_p with p not dividing 24
    algp = ring_algebra(PrimeField(10007))
    rels = (load_commutation_relations(algp) + load_ideal_relations(algp))
    gbp = buchberger_complete(algp, rels, degree_bound=6)
    assert len(gbp) == 184
    algq = ring_algebra()
    gbq = buchberger_complete(
        algq, load_commutation_relations(algq) + load_ideal_relations(algq),
        degree_bound=6)
    assert sorted(map(tuple, gbp.lead_words())) == \
        sorted(map(tuple, gbq.lead_words()))


def test_deeper_bound_adds_nothing(alg, gb):
    rels = load_commutation_relations(alg) + load_ideal_relations(alg)
    gb8 = buchberger_complete(alg, rels, degree_bound=8)
    assert len(gb8) == 184 and not gb8.truncated
    assert gb8.polys == gb.polys


def test_bigraded_counts_equal_cohomology_dims_to_degree_40(gb):
    counts = standard_word_counts(gb, up_to_hom_degree=40)
    cox = CohomologyComplex()
    for n in range(0, 41):
        gbrow = {d: c for (h, d), c in counts.items() if h == n}
        assert cox.hilbert_series(n) == gbrow, n


def test_completion_is_reduced(alg, gb):
    F = alg.field
    leads = gb.lead_words()
    assert len(set(leads)) == len(leads)
    for i, lw in enumerate(leads):
        assert gb.polys[i][lw] == F.one
        assert not any(lw[s:s + len(other)] == other
                       for j, other in enumerate(leads) if j != i
                       for s in range(len(lw) - len(other) + 1))
        assert normal_form(gb.polys[i], gb, skip=i) == gb.polys[i]


def test_completion_builds_a_handful_of_indexes(alg, monkeypatch):
    # one index for each interreduction, one for the pair loop, one result
    builds = []
    init = GBasis.__init__

    def counting(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(GBasis, "__init__", counting)
    rels = load_commutation_relations(alg) + load_ideal_relations(alg)
    assert len(buchberger_complete(alg, rels, degree_bound=6)) == 184
    assert len(builds) == 4


@st.composite
def ring_polys(draw):
    words = st.lists(st.integers(1, 14), max_size=4).map(tuple)
    terms = draw(st.dictionaries(words, st.integers(-3, 3), min_size=1,
                                 max_size=5))
    return {w: QQ.of(c) for w, c in terms.items() if c}


@given(ring_polys(), st.randoms(use_true_random=False))
def test_normal_form_ignores_reduction_order(gb, p, rnd):
    # the 184 elements are confluent: any reduction order, one normal form
    want = normal_form(p, gb)
    assert reference_normal_form(p, gb, strategy=rnd.choice) == want
