import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fk3hh import fk3core
from fk3hh import ncgroebner as ncg
from fk3hh.exactmath import QQ, PrimeField
from fk3hh.ncgroebner import (
    FreeAlgebra,
    GBasis,
    NcPolyError,
    buchberger_complete,
    interreduce,
    lead_word,
    make_monic,
    normal_form,
    standard_words,
    word_key,
)
from nc_reference import (brute_force_standard_words, complete_all_pairs,
                          format_poly, poly_bidegree, reference_normal_form)


@pytest.fixture
def alg2():
    # two generators x1 < x2, both bidegree (1, 1)
    return FreeAlgebra(2, QQ, bidegrees=[(1, 1), (1, 1)])


def test_word_key_length_lex():
    # longer words are larger; ties left-to-right, higher index wins
    assert word_key((1, 2)) < word_key((1, 1, 1))
    assert word_key((2, 1)) > word_key((1, 2))
    assert word_key((2, 1)) < word_key((2, 2))


def test_parse_and_format_roundtrip(alg2):
    p = alg2.parse_poly("x2*x1 - x1*x2")
    assert p == {(2, 1): Fraction(1), (1, 2): Fraction(-1)}
    assert format_poly(p) == "x2*x1 - x1*x2"
    q = alg2.parse_poly("1/3*x1^3 + 2*x2 - x1")
    assert q[(1, 1, 1)] == Fraction(1, 3)
    assert q[(2,)] == Fraction(2)
    assert q[(1,)] == Fraction(-1)
    r = alg2.parse_poly(format_poly(q))
    assert r == q


def test_parse_rejects_garbage(alg2):
    with pytest.raises(NcPolyError):
        alg2.parse_poly("x9")  # out of range
    with pytest.raises(NcPolyError):
        alg2.parse_poly("")


def test_normal_form_single_binomial(alg2):
    # x2*x1 -> x1*x2 rewriting
    g = alg2.parse_poly("x2*x1 - x1*x2")
    basis = GBasis(alg2, [g])
    p = alg2.parse_poly("x2*x2*x1")
    nf = normal_form(p, basis)
    assert nf == alg2.parse_poly("x1*x2*x2")


def test_single_binomial_already_closed(alg2):
    g = alg2.parse_poly("x2*x1 - x1*x2")
    gb = buchberger_complete(alg2, [g], degree_bound=6)
    assert len(gb) == 1 and gb.polys[0] == g
    assert not gb.truncated


def test_interreduce_drops_redundant(alg2):
    g1 = alg2.parse_poly("x1*x1")
    g2 = alg2.parse_poly("x1*x1*x2")
    red = interreduce(alg2, [g1, g2])
    assert red == [g1]


def test_completion_free_commutative_two_vars(alg2):
    # one commutator: quotient is k[x1,x2]; standard words are sorted words
    gb = buchberger_complete(alg2, [alg2.parse_poly("x2*x1 - x1*x2")])
    words = standard_words(gb, up_to_hom_degree=4)
    by_len = {}
    for w in words:
        by_len.setdefault(len(w), []).append(w)
    # dim of degree-d part of k[x,y] is d+1
    for d in range(5):
        assert len(by_len.get(d, [])) == d + 1


def test_completion_finds_new_element():
    # x^2 = 0 and yx = xy force (xy)y... overlap chain; quotient k<x,y>/(x^2, yx-xy)
    alg = FreeAlgebra(2, QQ, bidegrees=[(1, 1), (1, 1)])
    gb = buchberger_complete(
        alg, [alg.parse_poly("x1*x1"), alg.parse_poly("x2*x1 - x1*x2")])
    # standard words: x1^e1 x2^e2 with e1 <= 1
    words = standard_words(gb, up_to_hom_degree=5)
    assert all(w.count(1) <= 1 for w in words)
    assert sorted(len(w) for w in words).count(3) == 2  # x1*x2^2, x2^3


def test_standard_words_brute_force_cross_check():
    rng = random.Random(11)
    alg = FreeAlgebra(3, QQ, bidegrees=[(1, 1), (1, 1), (1, 1)])
    rels = [alg.parse_poly("x3*x1 - x1*x3"),
            alg.parse_poly("x2*x2"),
            alg.parse_poly("x3*x2*x1")]
    gb = buchberger_complete(alg, rels)
    fast = {w for w in standard_words(gb, up_to_hom_degree=4)}
    for length in range(5):
        brute = set(brute_force_standard_words(gb, length))
        assert {w for w in fast if len(w) == length} == brute


def test_confluence_random_reduction_order():
    rng = random.Random(42)
    alg = FreeAlgebra(3, QQ, bidegrees=[(1, 1), (1, 1), (1, 1)])
    rels = [alg.parse_poly("x2*x1 - x1*x2"),
            alg.parse_poly("x3*x1 - x1*x3"),
            alg.parse_poly("x3*x2 - x2*x3"),
            alg.parse_poly("x1*x1 - x2*x2")]
    gb = buchberger_complete(alg, rels)
    for _ in range(200):
        length = rng.randint(0, 5)
        p = {}
        for _ in range(rng.randint(1, 4)):
            w = tuple(rng.randint(1, 3) for _ in range(length))
            p[w] = QQ.of(rng.randint(-4, 4))
        p = {w: c for w, c in p.items() if c != 0}
        det = normal_form(p, gb)
        rnd = reference_normal_form(p, gb,
                                    strategy=lambda reds: rng.choice(reds))
        assert det == rnd


def test_homogeneous_input_stays_homogeneous():
    alg = FreeAlgebra(2, QQ, bidegrees=[(1, 2), (2, 0)])
    rels = [alg.parse_poly("x1*x1*x2 - x2*x1*x1")]
    gb = buchberger_complete(alg, rels)
    for p in gb.polys:
        assert poly_bidegree(alg, p) is not None


def test_bidegree_bookkeeping():
    alg = FreeAlgebra(2, QQ, bidegrees=[(0, 2), (3, -1)])
    assert alg.word_bidegree((1, 2, 2)) == (6, 0)
    assert poly_bidegree(alg, alg.parse_poly("x1*x2 - x2*x1")) == (3, 1)
    assert poly_bidegree(alg, alg.parse_poly("x1 + x2")) is None


def test_lead_word():
    alg = FreeAlgebra(2, QQ)
    p = alg.parse_poly("x1*x2 + x2*x1 + x1")
    assert lead_word(p) == (2, 1)


# ----- property tests: the lead-word index against brute-force scans -----

def words(min_size=1, max_size=3):
    return st.lists(st.integers(1, 3), min_size=min_size,
                    max_size=max_size).map(tuple)


def brute_force_divisor(leads, w, skip=None):
    """Leftmost position, then the least lead (word_key, index) there."""
    hits = [(pos, word_key(lw), i) for i, lw in enumerate(leads)
            if lw is not None and i != skip
            for pos in range(len(w) - len(lw) + 1) if w[pos:pos + len(lw)] == lw]
    return min(hits)[::2] if hits else None


@given(st.lists(words()), st.data())
def test_find_divisor_equals_brute_force_scan(initial, data):
    alg = FreeAlgebra(3, QQ)
    basis = GBasis(alg, [{w: QQ.one} for w in initial])
    leads = list(basis.leads)  # None once removed
    assert sorted(initial, key=word_key) == leads
    for _ in range(data.draw(st.integers(0, 8))):
        present = [i for i, lw in enumerate(leads) if lw is not None]
        if present and data.draw(st.booleans()):
            i = data.draw(st.sampled_from(present))
            basis.remove(i)
            leads[i] = None
        else:
            w = data.draw(words())
            assert basis.add({w: QQ.one, w[1:]: QQ.of(2)}) == len(leads)
            leads.append(w)
    for w in data.draw(st.lists(words(0, 6), min_size=1, max_size=6)):
        skip = data.draw(st.one_of(st.none(), st.integers(0, len(leads))))
        assert basis.find_divisor(w, skip) == brute_force_divisor(leads, w, skip)


def interreduce_by_restarts(alg, polys):
    """Reference interreduction: a fresh index of the others for every
    element, and a new pass from the start after each change."""
    F = alg.field
    polys = [make_monic(F, dict(p)) for p in polys if p]
    changed = True
    while changed:
        changed = False
        polys.sort(key=lambda p: word_key(lead_word(p)))
        for i in range(len(polys)):
            r = normal_form(polys[i], GBasis(alg, polys[:i] + polys[i + 1:]))
            if r != polys[i]:
                changed = True
                if r:
                    polys[i] = make_monic(F, r)
                else:
                    polys.pop(i)
                break
    seen = []
    for p in polys:
        if p not in seen:
            seen.append(p)
    return seen


@st.composite
def polys(draw):
    terms = draw(st.dictionaries(words(), st.integers(-2, 2).map(QQ.of),
                                 min_size=1, max_size=3))
    return {w: c for w, c in terms.items() if c}


@given(st.lists(polys(), max_size=7), st.data())
def test_interreduce_equals_restarting_reference(ps, data):
    alg = FreeAlgebra(3, QQ)
    ps = ps + data.draw(st.lists(st.sampled_from(ps), max_size=2)) if ps else ps
    got = interreduce(alg, ps)
    assert got == interreduce_by_restarts(alg, ps)
    index = GBasis(alg, got)
    for i, p in enumerate(index.polys):
        assert normal_form(p, index, skip=i) == p


# ----- the integer reduction against the reference in field scalars -----

FIELDS = [QQ, PrimeField(7), PrimeField(10007)]

coefficients = st.one_of(
    st.integers(-20, 20),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),
    st.builds(lambda n, d: f"{n}/{d}", st.integers(-9, 9), st.integers(1, 6)))


@given(st.sampled_from(FIELDS), st.lists(polys(), max_size=6),
       st.dictionaries(words(0, 5), coefficients, max_size=5), st.data())
def test_normal_form_equals_reference(F, gens, p, data):
    alg = FreeAlgebra(3, F)
    basis = GBasis(alg, [make_monic(F, q) for q in map(alg.poly, gens) if q])
    skip = data.draw(st.one_of(st.none(), st.integers(0, len(basis))))
    before = dict(p)
    got = normal_form(p, basis, skip=skip)
    assert p == before
    assert got == reference_normal_form(alg.poly(p), basis, skip=skip)
    assert all(c and type(c) is type(F.one) for c in got.values())


def fk3_relations():
    alg = FreeAlgebra(3, QQ, bidegrees=[(1, 1)] * 3)
    return alg, [alg.poly(r) for r in fk3core._REL_WORDS], 8


def ring_relations():
    from fk3hh.ncgroebner import (load_commutation_relations,
                                  load_ideal_relations, ring_algebra)
    alg = ring_algebra(QQ)
    return alg, load_commutation_relations(alg) + load_ideal_relations(alg), 6


@pytest.mark.parametrize("case", [fk3_relations, ring_relations])
def test_obstruction_index_reduces_what_all_pairs_reduces(case, monkeypatch):
    # the final basis alone does not show a missed obstruction, so every
    # reduction is compared, in order, with those of the all-pairs loop
    alg, rels, bound = case()
    F = alg.field
    calls = []

    def recording(reduce):
        def wrapped(p, basis, skip=None):
            r = reduce(p, basis, skip=skip)
            calls.append((make_monic(F, alg.poly(p)), make_monic(F, r)))
            return r
        return wrapped

    monkeypatch.setattr(ncg, "normal_form", recording(normal_form))
    gb = buchberger_complete(alg, rels, degree_bound=bound)
    got, calls[:] = calls[:], []
    ref = complete_all_pairs(alg, rels, bound, recording(reference_normal_form))
    assert got == calls
    assert gb.polys == ref.polys and gb.truncated == ref.truncated
    if case is ring_relations:
        assert len(got) == 2799
        assert sum(not r for _, r in got) == 2402
