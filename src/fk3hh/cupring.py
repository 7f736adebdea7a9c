"""Cup products on Hochschild cohomology via chain-map lifts.

A degree-m cochain is a dict over the Q-basis keys (i, DualGen, word_idx):
the bimodule map sending the free generator omega_i 1|gen|1 of the resolution
to the stored element of A.  A cocycle has one chain lift per ring, keyed by
its content (CupRing.lift), built stage by stage on demand.  Two kinds of
cocycle lift in closed form, with no solve:

- degree 0: phi(1|eps|1) = z is central, so left multiplication by z is a
  bimodule map; it commutes with delta (a bimodule map) and eps^b sends
  z|eps|1 to z, so every stage sends omega_i 1|g|1 to omega_i z|g|1;
- supported in layers i >= 1: phi = phi' S, where S: P_{n+4} -> P_n sends
  omega_i to omega_{i-1} and omega_0 to 0.  S is a chain map, since
  delta(omega_i rho) = sum_k omega_{i-k} f^(k)(rho) with strata that do
  not depend on i, and phi' (phi's keys one layer down) is a cocycle as S
  is onto; stage k of phi's lift is stage k of phi''s lift composed with S.

Stage 0 of every other lift is closed-form too: it sends omega_i 1|g|1 to
1|eps|phi(omega_i 1|g|1), since eps^b(1|eps|w) = w.  Each stage k >= 1
solves one small linear system per generator and internal degree, against
cached factorizations of the differential blocks (SparseMats of raw
integer entries, in the resolution's comp_basis coordinates); existence
is guaranteed by exactness, so an unsolvable stage signals a real bug.
Each stage is held in integers over one denominator (LiftStage), and
every product is summed in integers and made a field scalar once; over Q
a product over denominator 1 is left as its integer sums, since an int
is a Q scalar, so its class solve scales nothing back.

The cochain of f cup g composes f with stage deg(f) of g's lift
(compose_with_lift), and class_coordinates reduces it to canonical class
coordinates.  Longer products evaluate words x_{i_1} ... x_{i_r} as
f = X_{i_1} composed with successive lift stages; by associativity the
cochain of u + v represents [u] cup [v], so only the fourteen generators
are ever lifted.  The ring checks read one basis of generator words per
degree (word_bases): the span check counts it, and since the cup product
is bilinear, graded commutativity on those bases is graded commutativity
on all of HH^*; minimality reads them for the products of two or more
generators.  A basis tries X14 times the basis four degrees down first,
which costs no solved stage, and stops once it reaches dim HH^n.
"""

from __future__ import annotations

from math import lcm

from .cohomology import CohomologyComplex
from .exactmath import (
    QQ,
    EchelonBasis,
    LinearSolver,
    add_term,
    scalars,
    to_integers,
)
from .fk3core import WORD_DEGREE, WORD_INDEX, DualGen, dgen, mul_table
from .ncgroebner import RING_BIDEGREES
from .resolution import BimoduleResolution

W = WORD_INDEX


def cochain_degrees(cochain: dict):
    """(homological degree, internal degree m - n) of a homogeneous cochain."""
    degs = set()
    homs = set()
    for (i, g, x), _ in cochain.items():
        homs.add(g.n + 4 * i)
        degs.add(WORD_DEGREE[x] - 6 * i - g.n)
    if len(homs) != 1 or len(degs) != 1:
        raise ValueError("cochain is not bihomogeneous")
    return homs.pop(), degs.pop()


# the fourteen published ring generators, as cochains
def ring_generators():
    eps = DualGen(0, "eps")
    a1, b1, g1 = dgen("a", 1), dgen("b", 1), dgen("g", 1)
    one = W[""]
    gens = {
        1: {(0, eps, W["ab"]): 1, (0, eps, W["ba"]): 1},
        2: {(0, eps, W["ab"]): 1, (0, eps, W["bc"]): 1, (0, eps, W["ac"]): -1},
        3: {(0, eps, W["abac"]): 1},
        4: {(0, a1, W["bac"]): 1},
        5: {(0, b1, W["abc"]): 1},
        6: {(0, g1, W["aba"]): 1},
        7: {(0, a1, W["aba"]): 1, (0, a1, W["abc"]): -1},
        8: {(0, a1, W["a"]): 1, (0, b1, W["b"]): 1, (0, g1, W["c"]): 1},
        9: {(0, dgen("a", 2), one): 1},
        10: {(0, dgen("b", 2), one): 1},
        11: {(0, dgen("g", 2), one): 1},
        12: {(0, dgen("ab", 2), one): 1, (0, dgen("ag", 2), one): 1},
        13: {(0, dgen("a", 3), W["a"]): 1, (0, dgen("b", 3), W["b"]): 1,
             (0, dgen("g", 3), W["c"]): 1},
        14: {(1, eps, one): 1},
    }
    return gens


GENERATOR_BIDEGREES = dict(enumerate(RING_BIDEGREES, start=1))


class LiftError(RuntimeError):
    """A lift stage was unsolvable: resolution or cocycle data is broken."""


class LiftStage:
    """Stage k of a chain lift, held in integers: the image of the free
    generator omega_i 1|g|1 of P^b_{k+m} is images[(i, g)] / den, where
    images[(i, g)] is an element of P^b_k with integer coefficients and den
    is one integer for the whole stage (1 over F_p)."""

    __slots__ = ("images", "den", "_by_target")

    def __init__(self, images: dict, den: int = 1):
        self.images = images
        self.den = den
        self._by_target = None

    @classmethod
    def of_scalars(cls, values: dict, field):
        """The stage with the generator images values: {(i, g): element with
        field-scalar (or int) coefficients}."""
        if field.characteristic:
            return cls(values)
        den = lcm(*(c.denominator for elem in values.values()
                    for c in elem.values()))
        return cls({gen: {key: c.numerator * (den // c.denominator)
                          for key, c in elem.items()}
                    for gen, elem in values.items()}, den)

    def by_target(self) -> dict:
        """The image terms listed by the generator they land on: (j, g2) ->
        [gen, key, c, gen, key, c, ...] for each term c key, key = (j, x,
        g2, y), of images[gen]; flat, so that no tuple is held per term.
        Built on first use."""
        if self._by_target is None:
            index = {}
            for gen, img in self.images.items():
                for key, c in img.items():
                    terms = index.setdefault((key[0], key[2]), [])
                    terms.extend((gen, key, c))
            self._by_target = index
        return self._by_target


class ChainLift:
    """Chain self-map of the resolution lifting a degree-m cocycle; its
    stages are built in closed form where the module docstring gives one,
    and solved otherwise.  It keeps no reference to its ring, so that a ring
    is freed without a cycle collection: ensure takes the ring instead."""

    def __init__(self, field, cochain: dict):
        self.field = field
        self.m, self.intdeg = cochain_degrees(cochain)
        self.grouped = _by_generator(cochain, field)
        # phi' with phi = phi' S, when phi is supported in layers i >= 1
        self.lowered = None
        if all(i for i, _, _ in cochain):
            self.lowered = {(i - 1, g, w): c
                            for (i, g, w), c in cochain.items()}
        self.stages = []  # stage k: a LiftStage on the generators of P^b_{k+m}

    def ensure(self, ring: "CupRing", horizon: int):
        res = ring.res
        while len(self.stages) <= horizon:
            k = len(self.stages)
            if k + self.m > res.max_n:
                raise LiftError(
                    f"lift horizon {k} needs the resolution to degree "
                    f"{k + self.m}, built only to {res.max_n}")
            if self.lowered is not None:
                # stage k of phi' on omega_{i-1} g, moved to omega_i g
                low = ring.lift(self.lowered, k).stages[k]
                stage = LiftStage({(i + 1, g): img for (i, g), img
                                   in low.images.items()}, low.den)
            elif self.m == 0:
                # left multiplication by z = phi(1|eps|1), over e
                by_gen, e = self.grouped
                z = by_gen.get((0, DualGen(0, "eps")), ())
                stage = LiftStage({(i, g): {(i, w, g, W[""]): c
                                            for w, c in z}
                                   for i, g in res.pb_gens(k)}, e)
            elif k == 0:
                # 1|eps|phi(1|g|1), over e: eps^b(1|eps|w) = w
                by_gen, e = self.grouped
                eps = DualGen(0, "eps")
                stage = LiftStage({gen: {(0, W[""], eps, w): c
                                         for w, c in terms}
                                   for gen, terms in by_gen.items()}, e)
            else:
                stage = self._solve_stage(ring, k)
            self.stages.append(stage)

    def _solve_stage(self, ring: "CupRing", k: int) -> LiftStage:
        """Solve stage k >= 1 generator by generator.  The right-hand side
        is stage k - 1 on delta(1|g|1), an integer vector over a denominator
        d; it is solved as it is and the solution divided by d (the solver
        is linear)."""
        res = ring.res
        F = self.field
        m = self.m
        values = {}
        # group by the internal degree of the solved component
        by_deg = {}
        for i, g in res.pb_gens(k + m):
            tgt_int = g.n + 6 * i + self.intdeg
            by_deg.setdefault(tgt_int, []).append((i, g))
        for tgt_int, batch in by_deg.items():
            solver = ring.delta_solver(k, tgt_int)
            for i, g in batch:
                acc, d = self._image(k - 1, ring.gen_delta(k + m, i, g))
                sol = solver.solve(res.comp_vector(k - 1, tgt_int, acc))
                if sol is None:
                    raise LiftError(
                        f"stage {k} unsolvable on generator omega_{i} {g}")
                if d != 1:
                    sol = scalars(sol, F, d)
                values[(i, g)] = res.comp_element(k, tgt_int, sol)
        return LiftStage.of_scalars(values, F)

    def _image(self, k: int, elem: dict):
        """Stage k on elem, as (integer sums, their denominator)."""
        stage = self.stages[k]
        images = stage.images
        table = mul_table()
        elem, e = to_integers(elem, self.field)
        acc = {}
        for (i, x, g, y), c in elem.items():
            val = images.get((i, g))
            if not val:
                continue
            for (j, x2, g2, y2), s in val.items():
                cs = c * s
                right = table[(y2, y)].items()
                for x3, cx in table[(x, x2)].items():
                    for y3, cy in right:
                        key = (j, x3, g2, y3)
                        acc[key] = acc.get(key, 0) + cs * cx * cy
        return acc, stage.den * e

    def apply(self, k: int, elem: dict) -> dict:
        """Bimodule extension of stage k to an element of P^b_{k+m}.

        elem's coefficients must be ints or field scalars; it is scaled to
        integers over a common denominator, the products are summed in
        integers and each output coefficient is made a scalar once."""
        acc, den = self._image(k, elem)
        return scalars(acc, self.field, den)


class CupRing:
    """Cup-product engine over a resolution plus the dual cochain complex."""

    def __init__(self, field=QQ, max_n=12):
        self.field = field
        self.res = BimoduleResolution(field, max_n=max_n)
        self.cox = CohomologyComplex(field)
        self._lifts = {}
        self._generator_lifts = {}
        self._gen_deltas = {}
        self._delta_solvers = {}
        self._product_cache = {}
        self._word_bases = []
        self.generators = ring_generators()

    # ----- solver plumbing -----

    def delta_solver(self, k: int, intdeg: int):
        """Solver of delta^b_k on the internal-degree component."""
        if (k, intdeg) not in self._delta_solvers:
            self._delta_solvers[(k, intdeg)] = LinearSolver(
                self.res.delta_block(k, intdeg))
        return self._delta_solvers[(k, intdeg)]

    def gen_delta(self, n: int, i: int, g) -> dict:
        """delta^b_n(omega_i 1|g|1), memoised (it depends on no lift)."""
        key = (n, i, g)
        if key not in self._gen_deltas:
            self._gen_deltas[key] = self.res.delta_elem(
                n, {(i, W[""], g, W[""]): 1})
        return self._gen_deltas[key]

    def evaluate_cochain(self, cochain: dict, elem: dict) -> dict:
        """Apply a cochain to a resolution element; value in A as {word: c}.
        Coefficients must be ints or field scalars, as in ChainLift.apply."""
        by_gen, e = _by_generator(cochain, self.field)
        elem, e2 = to_integers(elem, self.field)
        table = mul_table()
        acc = {}
        for (i, x, g, y), c in elem.items():
            for w, cc in by_gen.get((i, g), ()):
                ccc = c * cc
                for w2, c2 in table[(x, w)].items():
                    for w3, c3 in table[(w2, y)].items():
                        acc[w3] = acc.get(w3, 0) + ccc * c2 * c3
        return scalars(acc, self.field, e * e2)

    # ----- lifts and products -----

    def lift(self, cochain: dict, horizon: int) -> ChainLift:
        """The chain lift of a cocycle, built at least to stage `horizon`:
        one per cochain, cached under its content as field scalars, so
        that equal cochains share it whatever their coefficients' types."""
        key = frozenset(scalars(cochain, self.field).items())
        lift = self._lifts.get(key)
        if lift is None:
            n, _ = cochain_degrees(cochain)
            if self.cox.diff_elem(n, cochain):
                raise ValueError("lift requested for a non-cocycle")
            lift = self._lifts[key] = ChainLift(self.field, cochain)
        lift.ensure(self, horizon)
        return lift

    def generator_lift(self, idx: int, horizon: int) -> ChainLift:
        """lift(X_idx, horizon), found by index after the first call."""
        lift = self._generator_lifts.get(idx)
        if lift is None:
            lift = self._generator_lifts[idx] = self.lift(
                self.generators[idx], horizon)
        lift.ensure(self, horizon)
        return lift

    def compose_with_lift(self, cochain: dict, lift: ChainLift, stage: int):
        """The cochain f . g_stage as a cochain on degree stage + deg(g).

        On a generator 1|g|1 the bimodule extension of the stage is the
        stage's stored value, so that value is read, not applied: a term
        c x|g2|y of it, in layer j, adds c x.f(1|g2|1).y at (i, g).  Only the
        terms on the generators where f is nonzero are visited (through
        the stage's by_target index), and the sums are kept in integers:
        over Q they are returned as they are when their denominator is 1,
        and divided into field scalars otherwise."""
        lift.ensure(self, stage)
        st = lift.stages[stage]
        by_gen, e = _by_generator(cochain, self.field)
        index = st.by_target()
        table = mul_table()
        acc = {}
        for jg, terms in by_gen.items():
            flat = iter(index.get(jg, ()))
            for (i, g), (_, x, _, y), c in zip(flat, flat, flat):
                for w, cc in terms:
                    ccc = c * cc
                    for w2, c2 in table[(x, w)].items():
                        for w3, c3 in table[(w2, y)].items():
                            key = (i, g, w3)
                            acc[key] = acc.get(key, 0) + ccc * c2 * c3
        den = st.den * e
        if den == 1 and not self.field.characteristic:
            return {key: v for key, v in acc.items() if v}
        return scalars(acc, self.field, den)

    def evaluate_word(self, word) -> dict:
        """Cochain of X_{i_1} ... X_{i_r} (tuple of generator indices); the
        empty word is the unit eps|1.  Every word is cached, and a new one
        is its longest proper prefix composed with one lift stage: the same
        cochain as composing left to right, one stage per letter."""
        word = tuple(word)
        f = self._product_cache.get(word)
        if f is None:
            if len(word) <= 1:
                f = self.generators[word[0]] if word else _unit()
            else:
                prefix = word[:-1]
                deg = _bidegree(prefix)[0]
                f = self.compose_with_lift(
                    self.evaluate_word(prefix),
                    self.generator_lift(word[-1], horizon=deg), deg)
            self._product_cache[word] = f
        return f

    def word_class(self, word):
        f = self.evaluate_word(word)
        n = _bidegree(word)[0]
        return self.cox.class_coordinates(n, f)

    def evaluate_poly(self, poly: dict):
        """Evaluate an NcPoly {word: coeff}; returns (degree, cochain)."""
        F = self.field
        degs = {_bidegree(w) for w in poly}
        if len(degs) != 1:
            raise ValueError("relation is not bihomogeneous")
        n = degs.pop()[0]
        total = {}
        for w, c in poly.items():
            c = F.of(c)
            for key, v in self.evaluate_word(w).items():
                total[key] = total.get(key, 0) + c * v
        return n, scalars(total, F)

    def poly_is_zero_class(self, poly: dict) -> bool:
        return self.cox.is_zero_class(*self.evaluate_poly(poly))

    # ----- the published verifications -----

    def verify_relations(self, relations):
        """Evaluate each relation; returns a report dict."""
        failures = []
        for idx, poly in enumerate(relations):
            if not self.poly_is_zero_class(poly):
                n, total = self.evaluate_poly(poly)
                failures.append({"index": idx, "degree": n,
                                 "residual_terms": len(total)})
        return {"checked": len(relations), "failures": failures,
                "ok": not failures}

    def word_bases(self, top: int):
        """[words of degree n, for n <= top]: generator words whose classes
        form a basis of HH^n when the generators span it, built once per
        ring and extended on demand.

        Follows the inductive argument: the span at degree n is generated by
        u X_i for u in the basis at degree n - deg X_i >= 0, deg X_i >= 1
        (the unit at n = 0), closed under the degree-0 generators X1, X2,
        X3 acting on degree n itself.  Each candidate is reduced once
        against the span found so far, and kept if it enlarges it; the
        closure multiplies the kept words only, since the cup product is
        bilinear on classes.

        The candidates come by the degree of X_i, highest first: X14 times
        the basis of degree n - 4 first, whose lift is the omega-shift, and
        then the others, each needing stage n - deg X_i of X_i's lift, so
        the lowest stages are asked for first.  The search stops once the
        span reaches dim HH^n.  Every candidate lies in HH^n, so reaching
        dim HH^n is exactly the span check's verdict, and the stop hides no
        failure: a span that stays short tries every candidate and the
        whole closure."""
        F = self.field
        bases = self._word_bases
        letters = sorted(GENERATOR_BIDEGREES.items(), key=lambda x: -x[1][0])
        for n in range(len(bases), top + 1):
            dim = len(self.cox.cocycle_basis(n))
            span = EchelonBasis(F)

            def enlarges(word):
                return len(span) < dim and span.add(
                    self.cox.class_coordinates(n, self.evaluate_word(word)))

            cands = [u + (idx,) for idx, (d, _) in letters
                     if 1 <= d <= n for u in bases[n - d]] if n else [()]
            keep = [w for w in cands if enlarges(w)]
            frontier = keep
            while frontier:
                frontier = [w + (idx,) for idx in (1, 2, 3) for w in frontier
                            if enlarges(w + (idx,))]
                keep += frontier
            bases.append(keep)
        return bases[:top + 1]

    def verify_generating_set(self, max_degree=8):
        """Span check: products of the generators exhaust HH^n for n <= bound,
        read off the word bases."""
        report = {"degrees": {}, "ok": True}
        bases = self.word_bases(max_degree)
        for n in range(1, max_degree + 1):
            want = len(self.cox.cocycle_basis(n))
            report["degrees"][n] = {"spanned": len(bases[n]), "dim": want}
            if len(bases[n]) != want:
                report["ok"] = False
        return report

    def verify_minimality(self):
        """No generator lies in the span of same-bidegree products of others.

        A product of two or more generators is u X_j with u a product of
        degree deg X_i - deg X_j.  The class of u is in the span of the
        words of word_bases() of u's bidegree, which span the products of
        each bidegree, and those words are nonempty: the empty word, the
        unit, has bidegree (0, 0), and no product has it, since no
        generator has.  So the u X_j with u a nonempty basis word span
        every product of two or more generators.  For the same reason no
        product that contains X_i has X_i's bidegree, so X_i is minimal
        when its class is not in the span of the other generators and the
        u X_j of its bidegree.  No word length is capped."""
        report = {}
        for i, (d, _) in GENERATOR_BIDEGREES.items():
            bases = self.word_bases(d)
            words = [(j,) for j in GENERATOR_BIDEGREES if j != i]
            words += [u + (j,) for j, (dj, _) in GENERATOR_BIDEGREES.items()
                      if dj <= d for u in bases[d - dj] if u]
            span = EchelonBasis(self.field)
            for w in words:
                if _bidegree(w) == GENERATOR_BIDEGREES[i]:
                    span.add(self.word_class(w))
            report[i] = span.add(
                self.cox.class_coordinates(d, self.generators[i]))
        return report

    def multiplication_table(self):
        """Classes of all pairwise products X_i cup X_j."""
        table = {}
        for i in range(1, 15):
            for j in range(1, 15):
                table[(i, j)] = self.word_class((i, j))
        return table

    def verify_graded_commutativity(self, max_total=7):
        """f cup g = (-1)^{deg f deg g} g cup f on HH^* to total degree
        max_total.

        The cup product is bilinear, so checking a basis of each HH^n is the
        same as checking every pair of classes: the word bases serve, and a
        basis short of dim HH^n is a failure of its own.  For words u and v,
        evaluate_word(u + v) represents [u] cup [v] by associativity, so the
        check is that uv - sign vu is a coboundary, one class solve per
        ordered pair (u, v) with deg u <= deg v (u before or at v within a
        degree).  The difference is formed in integers, over the product of
        the two denominators, which does not change whether it is a
        coboundary.  Failures name the two words and their degrees.
        """
        F = self.field
        bases = self.word_bases(max_total)
        failures = []
        for n, words in enumerate(bases):
            dim = len(self.cox.cocycle_basis(n))
            if len(words) != dim:
                failures.append({"degree": n, "basis": len(words),
                                 "dim": dim})
        checked = 0
        for n1 in range(0, max_total + 1):
            for n2 in range(n1, max_total + 1 - n1):
                sign = -1 if (n1 % 2 and n2 % 2) else 1
                for i1, u in enumerate(bases[n1]):
                    for i2, v in enumerate(bases[n2]):
                        if n1 == n2 and i2 < i1:
                            continue
                        uv, a = to_integers(self.evaluate_word(u + v), F)
                        vu, b = to_integers(self.evaluate_word(v + u), F)
                        diff = {}
                        for key, c in uv.items():
                            add_term(diff, key, c * b)
                        for key, c in vu.items():
                            add_term(diff, key, -sign * c * a)
                        checked += 1
                        if not self.cox.is_zero_class(n1 + n2, diff):
                            failures.append({"words": [_word_name(u),
                                                       _word_name(v)],
                                             "degrees": [n1, n2]})
        return {"checked": checked, "failures": failures, "ok": not failures}


def _bidegree(word):
    """(homological, internal) degree of a generator word."""
    h = d = 0
    for i in word:
        hi, di = GENERATOR_BIDEGREES[i]
        h += hi
        d += di
    return h, d


def _word_name(word) -> str:
    """A generator word as the product it names, e.g. "X8 X4"; "1" if empty."""
    return " ".join(f"X{i}" for i in word) or "1"


def _unit() -> dict:
    """The unit of HH^*: the degree-0 cochain eps|1."""
    return {(0, DualGen(0, "eps"), W[""]): 1}


def _by_generator(cochain: dict, field):
    """(by_gen, e): the cochain scaled to integers over its common
    denominator e, grouped as (j, g) -> [(word, int)]."""
    ints, e = to_integers(cochain, field)
    by_gen = {}
    for (j, g, w), c in ints.items():
        by_gen.setdefault((j, g), []).append((w, c))
    return by_gen, e
