import ast
import gc
import hashlib
import json
import random
import weakref
from fractions import Fraction
from types import SimpleNamespace

import pytest

from fk3hh import cli, cupring
from fk3hh.exactmath import (
    QQ,
    EchelonBasis,
    LinearSolver,
    PrimeField,
    SparseMat,
    _echelon,
    scalars,
)
from fk3hh.fk3core import (
    BASIS_WORDS,
    WORD_DEGREE,
    WORD_INDEX,
    DualGen,
    dgen,
    dual_basis,
    mul_table,
)
from fk3hh.cupring import (
    ChainLift,
    CupRing,
    GENERATOR_BIDEGREES,
    LiftError,
    LiftStage,
    cochain_degrees,
    ring_generators,
)
from fk3hh.ncgroebner import (
    load_commutation_relations,
    load_ideal_relations,
    ring_algebra,
)
from fk3hh.resolution import BimoduleResolution, comp_basis
from matrix_helpers import apply, dense, gauss_jordan
from resolution_reference import intdegs

W = WORD_INDEX
EPS = DualGen(0, "eps")


def stage_value(stage, gen, field) -> dict:
    """The image of gen = (i, g) under a LiftStage, as field scalars."""
    return scalars(stage.images.get(gen, {}), field, stage.den)


def cup(ring, f: dict, g: dict) -> dict:
    """Class coordinates of f cup g in the canonical cocycle basis: f
    composed with stage deg(f) of g's lift."""
    nf, _ = cochain_degrees(f)
    ng, _ = cochain_degrees(g)
    lift = ring.lift(g, horizon=nf)
    return ring.cox.class_coordinates(nf + ng,
                                      ring.compose_with_lift(f, lift, nf))


def perturb_stage(ring, lift, k: int, seed: int = 0):
    """Replace stage k of a ChainLift of ring by another valid solution
    (adds a kernel vector).

    Later stages are discarded and re-solved; the class of any product
    computed through the lift must not change (lift independence).
    """
    res = ring.res
    F = ring.field
    lift.ensure(ring, k)
    stage = {gen: stage_value(lift.stages[k], gen, F)
             for gen in lift.stages[k].images}
    changed = False
    for idx, ((i, g), elem) in enumerate(sorted(stage.items(), key=str)):
        tgt_int = g.n + 6 * i + lift.intdeg
        if k == 0:
            continue  # augmentation kernel handled by stage-1 anyway
        block = res.delta_block(k, tgt_int)
        ker = block.kernel()
        if ker.dim == 0:
            continue
        vec = ker.basis_dicts()[(seed + idx) % ker.dim]
        new = dict(elem)
        for key, c in res.comp_element(k, tgt_int, vec).items():
            new[key] = new.get(key, 0) + c
        stage[(i, g)] = scalars(new, F)
        changed = True
    if changed:
        lift.stages = lift.stages[:k] + [LiftStage.of_scalars(stage, F)]
    return changed


@pytest.fixture(scope="module")
def ring():
    return CupRing(QQ)


def test_generator_bidegrees(ring):
    # X1 (hom 0, int 2), X8 (1, 0), X9 (2, -2), X13 (3, -2), X14 (4, -6)
    for i, c in ring.generators.items():
        assert cochain_degrees(c) == GENERATOR_BIDEGREES[i], i
    assert GENERATOR_BIDEGREES[1] == (0, 2)
    assert GENERATOR_BIDEGREES[8] == (1, 0)
    assert GENERATOR_BIDEGREES[9] == (2, -2)
    assert GENERATOR_BIDEGREES[13] == (3, -2)
    assert GENERATOR_BIDEGREES[14] == (4, -6)


def test_generators_are_cocycles_and_independent(ring):
    for i, c in ring.generators.items():
        n = GENERATOR_BIDEGREES[i][0]
        assert not ring.cox.diff_elem(n, c), i
        assert ring.cox.class_coordinates(n, c), i  # nonzero class


def augmentation_solver(field, intdeg: int):
    """Solver of eps^b on the internal-degree component of P^b_0,
    factorised from its raw integer rows: one row per basis word, keyed by
    word index, so that a word of another degree is inconsistent."""
    keys = comp_basis(0, intdeg)[0]
    rows = [{} for _ in BASIS_WORDS]
    for col, (_, x, _, y) in enumerate(keys):
        for w, c in mul_table()[(x, y)].items():
            rows[w][col] = c
    return LinearSolver(SparseMat.from_rows(rows, len(keys), field))


def augmentation_stage(ring, cochain) -> LiftStage:
    """Stage 0 of a cochain's lift solved against the augmentation: on each
    generator omega_i 1|g|1 of P^b_m, the particular solution x of
    eps^b(x) = phi(omega_i 1|g|1)."""
    F = ring.field
    m, intdeg = cochain_degrees(cochain)
    values = {}
    for i, g in ring.res.pb_gens(m):
        d = g.n + 6 * i + intdeg
        sol = augmentation_solver(F, d).solve(ring.evaluate_cochain(
            cochain, {(i, W[""], g, W[""]): 1}))
        assert sol is not None, (i, g)
        values[(i, g)] = ring.res.comp_element(0, d, sol)
    return LiftStage.of_scalars(values, F)


class SolvedLift(ChainLift):
    """A chain lift whose every stage goes through a solver, closed forms
    or not: the lift the engine built for every cocycle before it had
    closed forms, held outside the ring's cache.  Stage 0 solves the
    augmentation system, the later stages the delta-blocks."""

    def __init__(self, ring, cochain: dict):
        super().__init__(ring.field, cochain)
        self.stages = [augmentation_stage(ring, cochain)]

    def ensure(self, ring, horizon: int):
        while len(self.stages) <= horizon:
            self.stages.append(self._solve_stage(ring, len(self.stages)))


def test_multiplication_lift_of_abac(ring):
    # the engine lifts eps|abac as left multiplication by abac: every stage
    # sends omega_i 1|g|1 to omega_i abac|g|1, delta commutes with it (a
    # bimodule morphism, as abac is central) and eps^b gives back abac
    res = ring.res
    z = W["abac"]
    lift = ring.generator_lift(3, horizon=5)
    assert len(lift.stages) == 6
    for n in (0, 1, 2, 5):
        for i, g in res.pb_gens(n):
            e = {(i, W[""], g, W[""]): 1}
            assert lift.apply(n, e) == {(i, z, g, W[""]): 1}, (n, i, g)
            if n:
                assert res.delta_elem(n, lift.apply(n, e)) == \
                    lift.apply(n - 1, res.delta_elem(n, e)), (n, i, g)
    assert ring.evaluate_cochain({(0, EPS, W[""]): 1}, lift.apply(
        0, {(0, W[""], EPS, W[""]): 1})) == {z: 1}
    # alpha_2|1 cup eps|abac through it is the product through the solver
    f = ring.generators[9]  # alpha_2|1
    solved = SolvedLift(ring, ring.generators[3])
    assert ring.cox.class_coordinates(2, ring.compose_with_lift(
        f, solved, 2)) == ring.word_class((9, 3))


def test_published_chain_map_values_consistent(ring):
    # the published lift of alpha_n|1 (n even) satisfies the chain identity
    # on the omega_0 generators at stages 1 and 2
    res = ring.res
    n = 6
    one = W[""]

    def g0(u):
        return {(0, one, EPS, one): 1} if u == dgen("a", n) else {}

    def g1(u):
        return {
            dgen("a", n + 1): {(0, one, dgen("a", 1), one): 1},
            dgen("ab", n + 1): {(0, one, dgen("b", 1), one): 1},
            dgen("ag", n + 1): {(0, one, dgen("g", 1), one): 1},
        }.get(u, {})

    def g2(u):
        return {
            dgen("a", n + 2): {(0, one, dgen("a", 2), one): 1},
            dgen("ab", n + 2): {(0, one, dgen("ab", 2), one): 1},
            dgen("ag", n + 2): {(0, one, dgen("ag", 2), one): 1},
            dgen("ab2", n + 2): {(0, one, dgen("b", 2), one): 1,
                                 (0, one, dgen("g", 2), one): 1},
        }.get(u, {})

    stages = [g0, g1, g2]

    def extend(stage_fn, elem):
        out = {}
        for (i, x, u, y), c in elem.items():
            assert i == 0
            for (j, x2, v, y2), s in stage_fn(u).items():
                for x3, cx in mul_table()[(x, x2)].items():
                    for y3, cy in mul_table()[(y2, y)].items():
                        key = (j, x3, v, y3)
                        out[key] = out.get(key, 0) + c * s * cx * cy
                        if out[key] == 0:
                            del out[key]
        return out

    for k in (1, 2):
        for u in dual_basis(k + n):
            gen = {(0, one, u, one): 1}
            lhs = res.delta_elem(k, extend(stages[k], gen))
            rhs = extend(stages[k - 1], res.delta_elem(k + n, gen))
            assert lhs == rhs, (k, u)


def test_cup_examples(ring):
    # eps|abac cup alpha_2|1 = alpha_2|abac
    cls = ring.word_class((3, 9))
    want = ring.cox.class_coordinates(
        2, {(0, dgen("a", 2), W["abac"]): 1})
    assert cls == want
    # X4 cup X4 = 0
    assert ring.poly_is_zero_class({(4, 4): 1})
    # X1 cup X1 = X1 cup X2 = X2 cup X2 = 0  (the degree-0 square relations)
    for w in ((1, 1), (1, 2), (2, 2)):
        assert ring.poly_is_zero_class({w: 1})


def test_omega_shift_rule(ring):
    # anything cup X14 = omega*-shift of that thing
    for i in (1, 2, 3, 4, 8, 9, 12, 13):
        cls = ring.word_class((i, 14))
        shifted = {(j + 1, g, x): c
                   for (j, g, x), c in ring.generators[i].items()}
        n = GENERATOR_BIDEGREES[i][0] + 4
        assert cls == ring.cox.class_coordinates(n, shifted), i
    # and X14 cup X14 = omega*_2 shift of eps|1
    cls = ring.word_class((14, 14))
    assert cls == ring.cox.class_coordinates(8, {(2, EPS, W[""]): 1})


def test_internal_degree_additivity(ring):
    for i, j in ((4, 9), (8, 9), (3, 13), (9, 12)):
        f = ring.evaluate_word((i, j))
        if not f:
            continue
        hom, intd = cochain_degrees(f)
        assert hom == GENERATOR_BIDEGREES[i][0] + GENERATOR_BIDEGREES[j][0]
        assert intd == GENERATOR_BIDEGREES[i][1] + GENERATOR_BIDEGREES[j][1]


def test_a_ring_is_freed_by_reference_counting():
    # no lift refers back to the ring that caches it, so a ring that has
    # built lifts is freed once its last name goes, with no cycle collection
    gc.disable()
    try:
        fresh = CupRing(QQ)
        assert fresh.verify_generating_set(4)["ok"]
        assert fresh._lifts
        freed = weakref.ref(fresh)
        del fresh
        assert freed() is None
    finally:
        gc.enable()


def test_lift_independence(ring):
    # perturbing a lift stage by kernel vectors must not change any class
    fresh = CupRing(QQ)
    lift = fresh.generator_lift(9, horizon=2)
    base = fresh.word_class((9, 9))
    changed = perturb_stage(fresh, lift, 2, seed=1)
    assert changed
    lift.ensure(fresh, 2)
    prod = fresh.compose_with_lift(fresh.generators[9], lift, 2)
    assert fresh.cox.class_coordinates(4, prod) == base
    # deeper stages rebuilt on top of the perturbed one stay consistent
    lift.ensure(fresh, 3)
    prod = fresh.compose_with_lift(fresh.generators[13], lift, 3)
    assert fresh.cox.class_coordinates(5, prod) == fresh.word_class((13, 9))


def test_relations_hold(ring):
    alg = ring_algebra()
    rep1 = ring.verify_relations(load_commutation_relations(alg))
    assert rep1["ok"] and rep1["checked"] == 97
    rep2 = ring.verify_relations(load_ideal_relations(alg))
    assert rep2["ok"] and rep2["checked"] == 63


def test_relation_spot_values(ring):
    # x9 x12 - x12 x12 + 2 x9 x10 - 3 x14 x1 + 3 x14 x2 = 0
    poly = {(9, 12): 1, (12, 12): -1, (9, 10): 2, (14, 1): -3, (14, 2): 3}
    assert ring.poly_is_zero_class(poly)
    # x8 x13 - 6 x14 x3 = 0
    assert ring.poly_is_zero_class({(8, 13): 1, (14, 3): -6})
    # sanity: x9 x5 alone is NOT zero (only the combinations are)
    assert not ring.poly_is_zero_class({(9, 5): 1})


def test_graded_commutativity_low_degrees(ring):
    rep = ring.verify_graded_commutativity(max_total=4)
    assert rep["ok"], rep["failures"]


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["q", "f7"])
def test_word_bases_are_bases_of_hh(field):
    # one generator word per dimension of HH^n, n <= 9, with independent
    # classes; the empty word is the unit
    fresh = CupRing(field)
    bases = fresh.word_bases(9)
    assert len(bases) == 10 and bases[0][0] == ()
    for n, words in enumerate(bases):
        assert len(words) == len(fresh.cox.cocycle_basis(n)), n
        span = EchelonBasis(field)
        for w in words:
            assert sum(GENERATOR_BIDEGREES[i][0] for i in w) == n, w
            assert span.add(fresh.cox.class_coordinates(
                n, fresh.evaluate_word(w))), (n, w)
    assert fresh.word_bases(4) == bases[:5]
    # X14 times the basis of degree n - 4 is tried first and all of it is
    # kept: X14 is injective on HH^{<= 5}
    for n in range(4, 10):
        assert bases[n][:len(bases[n - 4])] == \
            [u + (14,) for u in bases[n - 4]], n


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["q", "f7"])
def test_word_basis_products_are_composed_in_integers(field):
    # every word of the bases to degree 8 is the left-to-right composition
    # of its letters, and over Q, where every lift stage of the generators
    # has denominator 1, its cochain holds plain ints
    fresh = CupRing(field)
    words = [w for ws in fresh.word_bases(8) for w in ws]
    assert len(words) == 4 + 7 + 10 + 12 + 14 + 17 + 20 + 22 + 24
    for word in words[1:]:
        f, deg = fresh.generators[word[0]], GENERATOR_BIDEGREES[word[0]][0]
        for idx in word[1:]:
            f = fresh.compose_with_lift(
                f, fresh.generator_lift(idx, horizon=deg), deg)
            deg += GENERATOR_BIDEGREES[idx][0]
        got = fresh.evaluate_word(word)
        assert got == f, word
        if not field.characteristic:
            assert all(type(c) is int for c in got.values()), word


def test_evaluate_word_equals_the_left_to_right_loop(ring):
    # evaluate_word composes a word's cached prefix with one lift stage; the
    # cochain is the one composing X_{i_1} with a stage per letter
    alg = ring_algebra()
    words = {w for poly in load_commutation_relations(alg) +
             load_ideal_relations(alg) for w in poly}
    assert len(words) > 160
    for word in sorted(words):
        f, deg = ring.generators[word[0]], GENERATOR_BIDEGREES[word[0]][0]
        for idx in word[1:]:
            f = ring.compose_with_lift(
                f, ring.generator_lift(idx, horizon=deg), deg)
            deg += GENERATOR_BIDEGREES[idx][0]
        assert ring.evaluate_word(word) == f, word
    assert ring.evaluate_word(()) == {(0, EPS, W[""]): 1}


def double_x9_stage_1(monkeypatch):
    """Make every product u X9 with deg u = 1 twice what it is: X9's stage-1
    compose is doubled, as a broken lift would make it."""
    compose = CupRing.compose_with_lift

    def doubled(self, cochain, lift, stage):
        out = compose(self, cochain, lift, stage)
        if stage == 1 and lift is self.generator_lift(9, stage):
            out = {key: 2 * c for key, c in out.items()}
        return out

    monkeypatch.setattr(CupRing, "compose_with_lift", doubled)


def test_commutativity_names_the_pair_of_a_broken_product(monkeypatch):
    # u X9 doubled for deg u = 1: X4 X9 = 2 X9 X4 no longer holds, and the
    # failure names the two words and their degrees
    double_x9_stage_1(monkeypatch)
    fresh = CupRing(QQ)
    rep = fresh.verify_graded_commutativity(max_total=4)
    assert not rep["ok"]
    assert {"words": ["X4", "X9"], "degrees": [1, 2]} in rep["failures"]
    for record in rep["failures"]:
        assert set(record) == {"words", "degrees"}
        left, right = (w.split() for w in record["words"])
        assert "X9" in left + right, record
        assert record["degrees"] == [
            sum(GENERATOR_BIDEGREES[int(x[1:])][0] for x in w)
            for w in (left, right)]


def test_commutativity_names_a_short_basis(monkeypatch):
    # with X13 left out of the letters the bases grow by, HH^3 has no basis
    # of words (X13 is no product of the others), and the sweep says so
    monkeypatch.delitem(cupring.GENERATOR_BIDEGREES, 13)
    fresh = CupRing(QQ)
    rep = fresh.verify_graded_commutativity(max_total=3)
    assert not rep["ok"]
    assert rep["failures"] == [{"degree": 3, "basis": 11, "dim": 12}]


def test_span_check_names_a_short_basis(monkeypatch):
    # the word bases stop at dim HH^n, so a span that stays short must
    # still be reported short: without X13, HH^3 is spanned to 11 of 12,
    # and the degrees around it in full
    monkeypatch.delitem(cupring.GENERATOR_BIDEGREES, 13)
    rep = CupRing(QQ).verify_generating_set(4)
    assert rep == {"ok": False, "degrees": {
        1: {"spanned": 7, "dim": 7}, 2: {"spanned": 10, "dim": 10},
        3: {"spanned": 11, "dim": 12}, 4: {"spanned": 14, "dim": 14}}}


def test_commutativity_failures_in_failures_json(tmp_path, capsys,
                                                 monkeypatch):
    # hh cup writes each commutativity failure as the two generator words
    # and their degrees
    double_x9_stage_1(monkeypatch)
    assert cli.main(["cup", "--commutativity-degree", "4",
                     "--out", str(tmp_path)]) == 1
    assert "[FAIL] graded commutativity to total degree 4" in \
        capsys.readouterr().out
    records = json.loads((tmp_path / "failures.json").read_text())
    (comm,) = [r for r in records["failures"]
               if r["check"].startswith("graded commutativity")]
    detail = ast.literal_eval(comm["detail"])
    assert {"words": ["X4", "X9"], "degrees": [1, 2]} in detail
    assert all(set(r) == {"words", "degrees"} for r in detail)


def test_span_report_at_the_verify_all_bounds():
    # hh verify-all's span check: the dimensions of HH^1..HH^12
    # (len(cocycle_basis(n))), each spanned
    dims = [7, 10, 12, 14, 17, 20, 22, 24, 27, 30, 32, 34]
    rep = CupRing(QQ).verify_generating_set(12)
    assert rep == {"ok": True, "degrees": {
        n: {"spanned": d, "dim": d} for n, d in enumerate(dims, start=1)}}


def test_generating_set_and_minimality():
    ring = CupRing(QQ)
    rep = ring.verify_generating_set(max_degree=6)
    assert rep["ok"], rep
    for n, row in rep["degrees"].items():
        assert row["spanned"] == row["dim"], n
    minrep = ring.verify_minimality()
    assert all(minrep.values()), minrep


def test_minimality_flags_a_repeated_generator():
    # with X5's cochain replaced by X4's, each of the two lies in the span
    # of the other, and no other generator is affected
    fresh = CupRing(QQ)
    fresh.generators[5] = fresh.generators[4]
    rep = fresh.verify_minimality()
    assert sorted(rep) == list(range(1, 15))
    assert {i for i, ok in rep.items() if not ok} == {4, 5}


def test_lift_of_non_cocycle_rejected(ring):
    bad = {(0, dgen("a", 1), W["b"]): 1}  # alpha|b is not a cocycle
    assert ring.cox.diff_elem(1, bad)
    with pytest.raises(ValueError):
        ring.lift(bad, horizon=0)
    # eps|a is a degree-0 cochain on a non-central element: rejected as a
    # non-cocycle before the closed form for degree 0 could be chosen
    lifts = dict(ring._lifts)
    noncentral = {(0, EPS, W["a"]): 1}
    assert ring.cox.diff_elem(0, noncentral)
    with pytest.raises(ValueError):
        ring.lift(noncentral, horizon=0)
    assert ring._lifts == lifts


def test_lifts_are_shared_by_cochain_content():
    # a cocycle has one lift per ring whatever its coefficients' types, and
    # the lift of an upper-layer cocycle reads the lift one layer down
    for field in (QQ, PrimeField(7)):
        fresh = CupRing(field)
        x13 = fresh.generator_lift(13, horizon=1)
        same = {key: field.of(c) for key, c in fresh.generators[13].items()}
        assert fresh.lift(same, horizon=0) is x13
        shifted = {(i + 1, g, w): -c
                   for (i, g, w), c in fresh.generators[13].items()}
        up = fresh.lift(shifted, horizon=1)
        assert up.lowered is not None
        down = fresh.lift({key: -c for key, c in fresh.generators[13].items()},
                          horizon=1)
        assert len(fresh._lifts) == 3
        for k in (0, 1):
            for i, g in fresh.res.pb_gens(k + 7):
                want = stage_value(down.stages[k], (i - 1, g), field) \
                    if i else {}
                assert stage_value(up.stages[k], (i, g), field) == want


def test_every_kind_of_lift_extends_as_built_at_once():
    # a degree-0 (central) lift, a solved one and two shifted ones, extended
    # one stage at a time, equal the same lifts built to their top stage at
    # once in a fresh ring; the resolution has no top degree to stop them
    ring, fresh = CupRing(QQ), CupRing(QQ)
    x9_up = {(1, dgen("a", 2), W[""]): 1}  # X9 moved up one layer
    cases = [(ring.generators[1], 0, 4), (ring.generators[9], 2, 3),
             (ring.generators[14], 4, 2), (x9_up, 6, 2)]
    for cochain, m, top in cases:
        for k in range(top + 1):
            grown = ring.lift(cochain, horizon=k)
            assert len(grown.stages) == k + 1
        whole = fresh.lift(cochain, horizon=top)
        assert (grown.m, whole.m) == (m, m)
        assert (grown.lowered is None) == (whole.lowered is None) == (m < 4)
        for k in range(top + 1):
            for gen in ring.res.pb_gens(k + m):
                assert stage_value(grown.stages[k], gen, QQ) == \
                    stage_value(whole.stages[k], gen, QQ), (m, k, gen)
    # a stage that does not solve raises, and adds no stage
    unsolvable = CupRing(QQ)
    unsolvable.delta_solver = lambda k, intdeg: SimpleNamespace(
        solve=lambda rhs: None)
    lift = unsolvable.lift(unsolvable.generators[9], horizon=0)
    with pytest.raises(LiftError):
        lift.ensure(unsolvable, 1)
    assert len(lift.stages) == 1


def closed_form_cochains(ring, top=8):
    """X3, X14, every degree-0 class and every class of degree n <= top
    supported in layers i >= 1: the cocycles whose lifts are built in
    closed form, as (name, cochain)."""
    out = [("X3", ring.generators[3]), ("X14", ring.generators[14])]
    for n in range(top + 1):
        for idx, (_, cv) in enumerate(ring.cox.cocycle_basis(n)):
            if n == 0 or all(i for i, _, _ in cv):
                out.append(((n, idx), dict(cv)))
    return out


def test_closed_form_lifts_are_chain_lifts(ring):
    # for every closed-form lift, stage 0 gives back the cocycle under the
    # augmentation and delta phi_k = phi_{k-1} delta on every generator of
    # P^b_{k+m}, k <= 4
    res = ring.res
    one = W[""]
    cases = closed_form_cochains(ring)
    assert len(cases) == 2 + 4 + 47
    for name, phi in cases:
        lift = ring.lift(phi, horizon=4)
        assert lift.m == 0 or lift.lowered is not None, name
        for i, g in res.pb_gens(lift.m):
            gen = {(i, one, g, one): 1}
            assert ring.evaluate_cochain({(0, EPS, one): 1},
                                         lift.apply(0, gen)) == \
                ring.evaluate_cochain(phi, gen), (name, i, g)
        for k in range(1, 5):
            for i, g in res.pb_gens(k + lift.m):
                gen = {(i, one, g, one): 1}
                assert res.delta_elem(k, lift.apply(k, gen)) == \
                    lift.apply(k - 1, res.delta_elem(k + lift.m, gen)), \
                    (name, k, i, g)


def test_closed_form_products_equal_the_solved_ones(ring):
    # every generator cup every closed-form cocycle: the class through the
    # engine's lift of the cocycle is the class through a lift solved stage
    # by stage
    for name, phi in closed_form_cochains(ring):
        lift, solved = ring.lift(phi, horizon=0), SolvedLift(ring, phi)
        n = lift.m
        for j, f in ring.generators.items():
            d = GENERATOR_BIDEGREES[j][0]
            want = ring.cox.class_coordinates(
                n + d, ring.compose_with_lift(f, solved, d))
            assert ring.cox.class_coordinates(
                n + d, ring.compose_with_lift(f, lift, d)) == want, (name, j)


def test_cup_defaults_lift_only_the_generators(tmp_path, capsys, monkeypatch):
    # every product is a composite of generator lifts: hh cup's default
    # checks build 15 lifts (the 14 generators and the unit, which X14's
    # shifted lift reads), solve at most 58 stages and factorise at most 28
    # delta-blocks (109 lifts and 45 blocks when commutativity lifted every
    # basis class, 64 stages and 32 blocks when the word bases tried their
    # candidates by generator index); the word bases make at most 400 class
    # solves (1,368 when they reduced every candidate)
    rings = []
    counts = {"stages": 0, "class solves": 0}
    solve_stage = ChainLift._solve_stage

    def counted_stage(self, ring, k):
        counts["stages"] += 1
        return solve_stage(self, ring, k)

    class Recorded(CupRing):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            rings.append(self)
            coordinates = self.cox.class_coordinates
            self.building = False

            def counted_coordinates(n, elem):
                counts["class solves"] += self.building
                return coordinates(n, elem)

            self.cox.class_coordinates = counted_coordinates

        def word_bases(self, top):
            self.building = True
            try:
                return super().word_bases(top)
            finally:
                self.building = False

    monkeypatch.setattr(ChainLift, "_solve_stage", counted_stage)
    monkeypatch.setattr(cli, "CupRing", Recorded)
    assert cli.main(["cup", "--out", str(tmp_path)]) == 0
    assert "all checks passed" in capsys.readouterr().out
    (ring,) = rings
    assert len(ring._lifts) <= 15
    assert len(ring._delta_solvers) <= 28
    assert counts["stages"] <= 58
    assert counts["class solves"] <= 400


def test_generator_stage_applied_to_a_generator_is_its_stored_value(ring):
    one = W[""]
    for idx in ring.generators:
        lift = ring.generator_lift(idx, horizon=3)
        for k, stage in enumerate(lift.stages):
            for i, g in ring.res.pb_gens(k + lift.m):
                assert lift.apply(k, {(i, one, g, one): 1}) == \
                    stage_value(stage, (i, g), ring.field), (idx, k, i, g)


def compose_reference(ring, cochain, lift, stage):
    """The composition by definition, one field operation at a time: apply
    the stage to each generator 1|g|1, then scan the whole cochain for
    every term of the image."""
    F = ring.field
    out = {}
    for i, g in ring.res.pb_gens(stage + lift.m):
        img = lift.apply(stage, {(i, W[""], g, W[""]): 1})
        for (j, x, g2, y), c in img.items():
            for (j2, g3, w), cc in cochain.items():
                if (j2, g3) != (j, g2):
                    continue
                for w2, c2 in mul_table()[(x, w)].items():
                    for w3, c3 in mul_table()[(w2, y)].items():
                        key = (i, g, w3)
                        out[key] = F.add(out.get(key, F.zero),
                                         F.mul(F.of(c), F.of(cc * c2 * c3)))
    return {key: v for key, v in out.items() if v != F.zero}


def test_lifts_and_cochains_with_denominators(ring):
    # The cup-q inputs never leave denominator 1; scaled cocycles do.  Their
    # lift stages hold integers over den > 1 and the scaled cochains are
    # composed over a common denominator e > 1; both must agree with the
    # field-scalar reference, and the class is bilinear.
    third, two_fifths = Fraction(1, 3), Fraction(2, 5)
    for i, j in ((9, 12), (13, 8), (8, 9)):
        f, g = ring.generators[i], ring.generators[j]
        nf = GENERATOR_BIDEGREES[i][0]
        f3 = {key: third * c for key, c in f.items()}
        g25 = {key: two_fifths * c for key, c in g.items()}
        lift = ring.lift(g25, horizon=nf)
        assert lift.stages[0].den % 5 == 0
        for cochain in (f, f3):
            got = ring.compose_with_lift(cochain, lift, nf)
            assert got == compose_reference(ring, cochain, lift, nf), (i, j)
        got = ring.compose_with_lift(f3, ring.generator_lift(j, nf), nf)
        assert got == compose_reference(
            ring, f3, ring.generator_lift(j, nf), nf), (i, j)
        fg = cup(ring, f, g)
        assert fg, (i, j)
        assert cup(ring, f3, g) == \
            {k: third * v for k, v in fg.items()}
        assert cup(ring, f, g25) == \
            {k: two_fifths * v for k, v in fg.items()}


def delta_blocks(field):
    """The delta-blocks (k, d) of P^b_k, k <= 8, and over F_7 the block
    (13, 15), whose raw entries include nonzero multiples of 7."""
    blocks = [(k, d) for k in range(1, 9) for d in intdegs(k)]
    return blocks + [(13, 15)] if field.characteristic else blocks


def dense_sized(block, kd) -> bool:
    """Whether the dense oracle checks the block kd."""
    return block.rows * block.cols <= 12000 or kd == (13, 15)


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["q", "f7"])
def test_delta_solver_matches_the_dense_oracle(field):
    # CupRing.delta_solver factorises a delta-block.  On every block the
    # image b of a random x must be solved, by some sol with block sol = b.
    # On the blocks small enough for the cubic dense oracle, every solution
    # must be the particular one (free variables at zero) that dense
    # Gauss-Jordan reads off [block | b], and None exactly where b raises
    # the dense rank.  The raw entries of the block (13, 15) include
    # nonzero multiples of 7, which its F_7 matrix must hold reduced to 0.
    ring = CupRing(field)
    res = ring.res
    rng = random.Random(8)
    if field.characteristic:
        raw = BimoduleResolution(QQ).delta_block(13, 15)
        sevens = [(i, j) for i, j, v in raw.triplets() if v % 7 == 0]
        assert sevens
        held = {(i, j) for i, j, _ in res.delta_block(13, 15).triplets()}
        assert not held.intersection(sevens)
    inconsistent = 0
    for k, d in delta_blocks(field):
        block = res.delta_block(k, d)
        solver = ring.delta_solver(k, d)
        rhs = []  # images of a random x (consistent), then random vectors
        for _ in range(4):
            x = {c: field.of(rng.randint(-4, 4))
                 for c in rng.sample(range(block.cols), min(block.cols, 3))}
            b = apply(block, x)
            sol = solver.solve(b)
            assert sol is not None and apply(block, sol) == b, (k, d)
            rhs.append(b)
        if not dense_sized(block, (k, d)):
            continue
        for _ in range(4):
            rhs.append({r: field.of(rng.randint(1, 4))
                        for r in rng.sample(range(block.rows),
                                            min(block.rows, 2))})
        aug = [row + [b.get(i, field.zero) for b in rhs]
               for i, row in enumerate(dense(block))]
        rows, pivots = gauss_jordan(aug, block.cols, field)
        for t, b in enumerate(rhs, start=block.cols):
            sol = solver.solve(b)
            if any(row[t] for row in rows[len(pivots):]):
                assert sol is None, (k, d)
                inconsistent += 1
            else:
                assert sol == {p: row[t] for row, p in zip(rows, pivots)
                               if row[t]}, (k, d)
    assert inconsistent


def elimination_digest(field) -> str:
    """sha256 of every elimination result on the dense-oracle blocks: the
    pivot rows and leftovers of _echelon, reduced and forward-only, and the
    pivot columns, denominators, transforms and checks of LinearSolver."""
    res = BimoduleResolution(field)
    h = hashlib.sha256()
    for kd in delta_blocks(field):
        block = res.delta_block(*kd)
        if not dense_sized(block, kd):
            continue
        for reduced in (True, False):
            piv, left = _echelon(block._r, block.cols, field, reduced)
            h.update(repr(([(pc, sorted(r.items())) for pc, r in piv],
                           [sorted(r.items()) for r in left])).encode())
        sv = LinearSolver(block)
        h.update(repr((sv._pcols, sv._dens, sorted(sv._transform.items()),
                       sorted(sv._checks.items()))).encode())
    return h.hexdigest()


# elimination_digest with the pivot of each column taken as
# min(holders, key=lambda i: (len(rows[i]), i)), the shortest holder row
# and the lowest index among equals
ELIMINATION_DIGESTS = {
    "q": "96a861ca9de8fec6b3c25104e5dbb1393c309daf6a9bcc285a0fbcc0125f908f",
    "f7": "849ed94cc926c83859c56de0087fa4dd43f43c776f151f78ceed5b673f04245a",
}


@pytest.mark.parametrize("label, field", [("q", QQ), ("f7", PrimeField(7))],
                         ids=["q", "f7"])
def test_pivot_rows_and_solver_transforms_are_pinned(label, field):
    # _echelon takes the shortest holder of a column as its pivot row, the
    # lowest index among equals; every pivot row and transform follows
    assert elimination_digest(field) == ELIMINATION_DIGESTS[label]


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["q", "f7"])
def test_augmentation_solver_solves_exactly_the_words_of_its_degree(field):
    # the solver of eps^b at internal degree d has one row per basis word,
    # so every word of degree d is solved and any other word is inconsistent
    ring = CupRing(field)
    solved = 0
    for d in range(9):
        solver = augmentation_solver(field, d)
        for w in range(len(BASIS_WORDS)):
            sol = solver.solve({w: field.one})
            if WORD_DEGREE[w] != d:
                assert sol is None, (d, w)
                continue
            assert sol is not None, (d, w)
            elem = ring.res.comp_element(0, d, sol)
            value = ring.evaluate_cochain(
                {(0, EPS, W[""]): 1}, elem)  # eps^b(x|eps|y) = xy
            assert value == {w: field.one}, (d, w)
            solved += 1
    assert solved == len(BASIS_WORDS)


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["q", "f7"])
def test_generator_lifts_equal_the_solved_lifts(field):
    # stage 0 of a lift of positive degree is 1|eps|phi(1|g|1), built with
    # no solve: it is the particular solution of the augmentation system,
    # and every later stage, to degree 8, is the one solved on top of it
    # (X1, X2, X3 lift as multiplication by their central values instead)
    ring = CupRing(field)
    for idx in range(4, 15):
        top = 8 - GENERATOR_BIDEGREES[idx][0]
        lift = ring.generator_lift(idx, horizon=top)
        solved = SolvedLift(ring, ring.generators[idx])
        solved.ensure(ring, top)
        for k in range(top + 1):
            for gen in ring.res.pb_gens(k + lift.m):
                assert stage_value(lift.stages[k], gen, field) == \
                    stage_value(solved.stages[k], gen, field), (idx, k, gen)


@pytest.fixture(scope="module")
def ring_mod_p():
    return CupRing(PrimeField(10007))


@pytest.mark.parametrize("which", ["ring", "ring_mod_p"])
def test_compose_with_lift_equals_reference(request, which):
    ring = request.getfixturevalue(which)
    F = ring.field
    # generators and products of two, whose entries are no longer 0 / +-1
    cochains = [ring.generators[i] for i in ring.generators]
    cochains += [ring.evaluate_word(w) for w in ((9, 12), (13, 8), (4, 12))]
    for f in cochains:
        if not f:
            continue
        nf, _ = cochain_degrees(f)
        for j, (dj, _) in GENERATOR_BIDEGREES.items():
            if nf + dj > 6:
                continue
            lift = ring.generator_lift(j, horizon=nf)
            got = ring.compose_with_lift(f, lift, nf)
            assert got == compose_reference(ring, f, lift, nf), (j, nf)
            assert all(v != F.zero and F.of(v) == v for v in got.values())


def run_cup_over_prime_field(ring, argv, out, capsys, tables=""):
    """Run hh with argv over F_10007; check that every cup check passed and
    that the table, under out/tables, is the rational one reduced mod p.
    Returns the lines."""
    F = PrimeField(10007)
    rc = cli.main([*argv, "--field", "prime:10007", "--out", str(out)])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert sum(line.startswith("[pass]") for line in lines) == 5
    assert not any(line.startswith("[FAIL]") for line in lines)
    got = json.loads((out / tables / "cup-table.json").read_text())["products"]
    want = {f"{i},{j}": {str(k): str(F.of(v)) for k, v in cls.items()}
            for (i, j), cls in ring.multiplication_table().items()}
    assert got == want
    return lines


def test_cli_cup_over_prime_field_reduces_the_rational_table(
        ring, tmp_path, capsys):
    run_cup_over_prime_field(ring, ["cup"], tmp_path / "o", capsys)


def test_verify_all_checks_the_cup_products_wider(
        ring, tmp_path, capsys, monkeypatch):
    # hh verify-all runs the cup checks with the span to degree 12 and
    # commutativity to 9 (hh cup's own defaults are 8 and 7), and writes
    # the table under <out>/cup; the other commands are stubbed out here
    for name in ("cmd_homology", "cmd_cohomology", "cmd_gb",
                 "cmd_resolution"):
        monkeypatch.setattr(cli, name, lambda r, args, cfg: None)
    lines = run_cup_over_prime_field(ring, ["verify-all"], tmp_path / "o",
                                     capsys, tables="cup")
    assert "[pass] graded commutativity to total degree 9" in lines
    assert "[pass] generator span to degree 12" in lines
