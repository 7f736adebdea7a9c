"""Cup products on Hochschild cohomology via chain-map lifts.

A degree-m cochain is a dict over the Q-basis keys (i, DualGen, word_idx):
the bimodule map sending the free generator omega_i 1|gen|1 of the resolution
to the stored element of A.  Lifting such a cocycle to a chain self-map of
the resolution solves one small linear system per generator and internal
degree, against cached factorizations of the differential blocks; existence
is guaranteed by exactness, so an unsolvable stage signals a real bug.

cup(f, g) composes f with stage deg(f) of g's lift and reduces the resulting
cochain to canonical class coordinates.  Longer products evaluate words
x_{i_1} ... x_{i_r} as f = X_{i_1} composed with successive lift stages.
"""

from __future__ import annotations

from .cohomology import CohomologyComplex
from .exactmath import QQ, EchelonBasis, SparseMat, scalars
from .fk3core import (
    BASIS_BY_DEGREE,
    WORD_DEGREE,
    WORD_INDEX,
    DualGen,
    dgen,
    mul_words,
)
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


GENERATOR_BIDEGREES = {
    1: (0, 2), 2: (0, 2), 3: (0, 4), 4: (1, 2), 5: (1, 2), 6: (1, 2),
    7: (1, 2), 8: (1, 0), 9: (2, -2), 10: (2, -2), 11: (2, -2), 12: (2, -2),
    13: (3, -2), 14: (4, -6),
}


class LiftError(RuntimeError):
    """A lift stage was unsolvable: resolution or cocycle data is broken."""


class ChainLift:
    """Chain self-map of the resolution lifting a degree-m cocycle."""

    def __init__(self, ring: "CupRing", cochain: dict):
        self.ring = ring
        self.cochain = dict(cochain)
        self.m, self.intdeg = cochain_degrees(cochain)
        self.stages = []  # stage k: {(i, gen): element of P^b_k}

    def ensure(self, horizon: int):
        while len(self.stages) <= horizon:
            self._solve_stage(len(self.stages))

    def _solve_stage(self, k: int):
        ring = self.ring
        res = ring.res
        F = ring.field
        m = self.m
        if k + m > res.max_n:
            raise LiftError(
                f"lift horizon {k} needs the resolution to degree {k + m}, "
                f"built only to {res.max_n}")
        stage = {}
        gens = res.pb_gens(k + m)
        # group by the internal degree of the solved component
        by_deg = {}
        for i, g in gens:
            src_int = g.n + 6 * i
            tgt_int = src_int + self.intdeg
            by_deg.setdefault(tgt_int, []).append((i, g))
        for tgt_int, batch in by_deg.items():
            rhs_list = []
            for i, g in batch:
                gen_elem = {(i, W[""], g, W[""]): 1}
                if k == 0:
                    val = ring.evaluate_cochain(self.cochain, gen_elem)
                    rhs_list.append(val)
                else:
                    img = res.delta_elem(k + m, gen_elem)
                    prev = self.apply(k - 1, img)
                    rhs_list.append(res.comp_vector(k - 1, tgt_int, prev, F))
            if k == 0:
                solver = ring.augmentation_solver(tgt_int)
            else:
                solver = ring.delta_solver(k, tgt_int)
            for (i, g), rhs in zip(batch, rhs_list):
                sol = solver.solve(rhs)
                if sol is None:
                    raise LiftError(
                        f"stage {k} unsolvable on generator omega_{i} {g}")
                if k == 0:
                    elem = ring.pb0_comp_element(tgt_int, sol)
                else:
                    elem = res.comp_element(k, tgt_int, sol)
                stage[(i, g)] = elem
        self.stages.append(stage)

    def apply(self, k: int, elem: dict) -> dict:
        """Bimodule extension of stage k to an element of P^b_{k+m}.

        elem's coefficients must be ints or field scalars; products are
        summed raw and each output coefficient is made a scalar once."""
        stage = self.stages[k]
        acc = {}
        for (i, x, g, y), c in elem.items():
            val = stage.get((i, g))
            if not val:
                continue
            for (j, x2, g2, y2), s in val.items():
                cs = c * s
                for x3, cx in mul_words(x, x2).items():
                    for y3, cy in mul_words(y2, y).items():
                        key = (j, x3, g2, y3)
                        acc[key] = acc.get(key, 0) + cs * (cx * cy)
        return scalars(acc, self.ring.field)

    def perturb_stage(self, k: int, seed: int = 0):
        """Replace stage k by another valid solution (adds a kernel vector).

        Later stages are discarded and re-solved; the class of any product
        computed through the lift must not change (lift independence).
        """
        ring = self.ring
        res = ring.res
        F = ring.field
        self.ensure(k)
        stage = dict(self.stages[k])
        changed = False
        for idx, ((i, g), elem) in enumerate(sorted(stage.items(), key=str)):
            tgt_int = g.n + 6 * i + self.intdeg
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
            self.stages = self.stages[:k] + [stage]
        return changed


class CupRing:
    """Cup-product engine over a resolution plus the dual cochain complex."""

    def __init__(self, field=QQ, max_n=12):
        self.field = field
        self.res = BimoduleResolution(field, max_n=max_n)
        self.cox = CohomologyComplex(field, max_n=max_n)
        self._lifts = {}
        self._delta_solvers = {}
        self._aug_solvers = {}
        self._product_cache = {}
        self.generators = ring_generators()

    # ----- solver plumbing -----

    def delta_solver(self, k: int, intdeg: int):
        if (k, intdeg) not in self._delta_solvers:
            self._delta_solvers[(k, intdeg)] = \
                self.res.delta_block(k, intdeg).solver()
        return self._delta_solvers[(k, intdeg)]

    def pb0_comp(self, intdeg: int):
        return self.res.pb_comp(0, intdeg)

    def pb0_comp_element(self, intdeg: int, vec: dict) -> dict:
        return self.res.comp_element(0, intdeg, vec)

    def augmentation_solver(self, intdeg: int):
        """Solver for eps^b restricted to the internal-degree component."""
        if intdeg not in self._aug_solvers:
            F = self.field
            comp = self.pb0_comp(intdeg)
            basis0 = self.res.pb_basis(0)
            rows = BASIS_BY_DEGREE[intdeg] if 0 <= intdeg <= 4 else ()
            rowpos = {w: r for r, w in enumerate(rows)}
            ent = {}
            for col, pos in enumerate(comp):
                (_, x, _, y) = basis0[pos]
                for w, c in mul_words(x, y).items():
                    ent[(rowpos[w], col)] = F.add(
                        ent.get((rowpos[w], col), F.zero), F.of(c))
            mat = SparseMat(len(rows), len(comp), ent, F)
            self._aug_solvers[intdeg] = (mat.solver(), rowpos)
        return _AugSolverView(self._aug_solvers[intdeg])

    def evaluate_cochain(self, cochain: dict, elem: dict) -> dict:
        """Apply a cochain to a resolution element; value in A as {word: c},
        encoded on the augmentation row positions of the right component.
        Coefficients must be ints or field scalars, as in ChainLift.apply."""
        by_gen = {}
        for (j, g, w), cc in cochain.items():
            by_gen.setdefault((j, g), []).append((w, cc))
        acc = {}
        for (i, x, g, y), c in elem.items():
            for w, cc in by_gen.get((i, g), ()):
                ccc = c * cc
                for w2, c2 in mul_words(x, w).items():
                    for w3, c3 in mul_words(w2, y).items():
                        acc[w3] = acc.get(w3, 0) + ccc * (c2 * c3)
        return scalars(acc, self.field)

    # ----- lifts and products -----

    def lift(self, key, cochain: dict, horizon: int) -> ChainLift:
        """Chain lift of a cocycle, cached under a hashable key, solved at
        least to stage `horizon`."""
        if key not in self._lifts:
            n, _ = cochain_degrees(cochain)
            if self.cox.diff_elem(n, cochain):
                raise ValueError("lift requested for a non-cocycle")
            self._lifts[key] = ChainLift(self, cochain)
        lift = self._lifts[key]
        lift.ensure(horizon)
        return lift

    def generator_lift(self, idx: int, horizon: int) -> ChainLift:
        return self.lift(("X", idx), self.generators[idx], horizon)

    def compose_with_lift(self, cochain: dict, lift: ChainLift, stage: int):
        """The cochain f . g_stage as a cochain on degree stage + deg(g).

        On a generator 1|g|1 the bimodule extension of the stage is the
        stage's stored value, so that value is read, not applied."""
        lift.ensure(stage)
        values = lift.stages[stage]
        out = {}
        for i, g in self.res.pb_gens(stage + lift.m):
            img = values.get((i, g))
            if img:
                for w, c in self.evaluate_cochain(cochain, img).items():
                    out[(i, g, w)] = c
        return out

    def cup_cochain(self, f: dict, g_key, g: dict) -> dict:
        """Cochain-level product f . (lift of g) at stage deg(f)."""
        nf, _ = cochain_degrees(f)
        lift = self.lift(g_key, g, horizon=nf)
        return self.compose_with_lift(f, lift, nf)

    def cup(self, f: dict, g: dict, g_key=None):
        """Class coordinates of f cup g in the canonical cocycle basis."""
        nf, _ = cochain_degrees(f)
        ng, _ = cochain_degrees(g)
        key = g_key if g_key is not None else ("anon", tuple(sorted(
            (i, str(gen), x, str(c)) for (i, gen, x), c in g.items())))
        prod = self.cup_cochain(f, key, g)
        return self.cox.class_coordinates(nf + ng, prod)

    def evaluate_word(self, word) -> dict:
        """Cochain of X_{i_1} ... X_{i_r} (tuple of generator indices)."""
        word = tuple(word)
        if not word:
            raise ValueError("empty product")
        if word in self._product_cache:
            return self._product_cache[word]
        f = self.generators[word[0]]
        deg = GENERATOR_BIDEGREES[word[0]][0]
        for idx in word[1:]:
            lift = self.generator_lift(idx, horizon=deg)
            f = self.compose_with_lift(f, lift, deg)
            deg += GENERATOR_BIDEGREES[idx][0]
        self._product_cache[word] = f
        return f

    def word_class(self, word):
        f = self.evaluate_word(word)
        n = sum(GENERATOR_BIDEGREES[i][0] for i in word)
        return self.cox.class_coordinates(n, f)

    def evaluate_poly(self, poly: dict):
        """Evaluate an NcPoly {word: coeff}; returns (degree, cochain)."""
        F = self.field
        degs = {tuple(sum(GENERATOR_BIDEGREES[i][j] for i in w) for j in (0, 1))
                for w in poly}
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
        n, total = self.evaluate_poly(poly)
        if not total:
            return True
        if self.cox.diff_elem(n, total):
            return False
        return self.cox.is_zero_class(n, total)

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

    def verify_generating_set(self, max_degree=8):
        """Span check: products of the generators exhaust HH^n for n <= bound.

        Follows the inductive argument: the span at degree n is generated by
        X_i cup (span at degree n - deg X_i) for deg X_i >= 1 together with
        the degree-0 generators acting on degree n itself.  Each candidate
        is reduced once against the span found so far, and kept if it
        enlarges it.
        """
        F = self.field
        report = {"degrees": {}, "ok": True}
        # span bases per degree as (cochain, class-vector) pairs
        unit = {(0, DualGen(0, "eps"), W[""]): 1}
        spans = {0: [unit]}
        for n in range(1, max_degree + 1):
            cands = []
            for idx, (d, _) in GENERATOR_BIDEGREES.items():
                if d == 0 or d > n:
                    continue
                lift = self.generator_lift(idx, horizon=n - d)
                for s in spans.get(n - d, []):
                    cands.append(self.compose_with_lift(s, lift, n - d))
            # independent representatives of the span, in order
            span = EchelonBasis(F)
            keep = [c for c in cands
                    if span.add(self.cox.class_coordinates(n, c))]
            # close under the degree-0 generators
            frontier = list(cands)
            while frontier:
                more = []
                for idx in (1, 2, 3):
                    lift = self.generator_lift(idx, horizon=n)
                    for s in frontier:
                        more.append(self.compose_with_lift(s, lift, n))
                # keep only products enlarging the span
                frontier = [c for c in more
                            if span.add(self.cox.class_coordinates(n, c))]
                keep.extend(frontier)
            want = len(self.cox.cocycle_basis(n))
            report["degrees"][n] = {"spanned": len(span), "dim": want}
            if len(span) != want:
                report["ok"] = False
            spans[n] = keep
        return report

    def verify_minimality(self):
        """No generator lies in the span of same-bidegree products of others."""
        report = {}
        for i in range(1, 15):
            d, intd = GENERATOR_BIDEGREES[i]
            others = [j for j in range(1, 15) if j != i]
            words = self._words_of_bidegree(others, d, intd)
            span = EchelonBasis(self.field)
            for w in words:
                span.add(self.cox.class_coordinates(d, self.evaluate_word(w)))
            xi = self.cox.class_coordinates(d, self.generators[i])
            report[i] = span.add(xi)
        return report

    def _words_of_bidegree(self, letters, hom, intd, max_len=5):
        """The nonempty words of at most max_len letters with bidegree
        (hom, intd), in depth-first order.  A branch is cut once its
        homological degree passes hom or its internal degree can no longer
        come down to intd: letters of homological degree 0 only raise the
        internal degree, and the others lower it by at most num/den per
        unit of homological degree."""
        bidegrees = [GENERATOR_BIDEGREES[j] for j in letters]
        assert all(ij >= 0 for dj, ij in bidegrees if dj == 0)
        num, den = max(((-ij, dj) for dj, ij in bidegrees if dj),
                       key=lambda s: s[0] / s[1], default=(0, 1))
        out = []

        def rec(word, h, d):
            if h == hom and d == intd and word:
                out.append(tuple(word))
            if len(word) >= max_len:
                return
            for j, (dj, ij) in zip(letters, bidegrees):
                h2, d2 = h + dj, d + ij
                if h2 <= hom and den * (d2 - intd) <= num * (hom - h2):
                    word.append(j)
                    rec(word, h2, d2)
                    word.pop()

        rec([], 0, 0)
        return out

    def multiplication_table(self):
        """Classes of all pairwise products X_i cup X_j."""
        table = {}
        for i in range(1, 15):
            for j in range(1, 15):
                table[(i, j)] = self.word_class((i, j))
        return table

    def verify_graded_commutativity(self, max_total=7):
        """f cup g = (-1)^{deg f deg g} g cup f for all basis-class pairs.

        Checks every ordered pair of canonical basis classes with total
        degree <= max_total; returns a report with any violating pairs.
        """
        F = self.field
        failures = []
        checked = 0
        classes = {n: [dict(cv) for _, cv in self.cox.cocycle_basis(n)]
                   for n in range(max_total + 1)}
        # build lifts lazily per class
        lifts = {}

        def lift_of(n, idx):
            key = ("cls", n, idx)
            if key not in lifts:
                lifts[key] = self.lift(key, classes[n][idx], horizon=0)
            return lifts[key]

        for n1 in range(0, max_total + 1):
            for n2 in range(n1, max_total + 1 - n1):
                sign = -1 if (n1 % 2 and n2 % 2) else 1
                for i1, f in enumerate(classes[n1]):
                    for i2, g in enumerate(classes[n2]):
                        if n1 == n2 and i2 < i1:
                            continue
                        lg = lift_of(n2, i2)
                        lg.ensure(n1)
                        fg = self.compose_with_lift(f, lg, n1)
                        lf = lift_of(n1, i1)
                        lf.ensure(n2)
                        gf = self.compose_with_lift(g, lf, n2)
                        c1 = self.cox.class_coordinates(n1 + n2, fg)
                        c2 = self.cox.class_coordinates(n1 + n2, gf)
                        want = {k: F.mul(F.of(sign), v) for k, v in c2.items()}
                        checked += 1
                        if c1 != want:
                            failures.append((n1, i1, n2, i2))
        return {"checked": checked, "failures": failures, "ok": not failures}


class _AugSolverView:
    """Adapter presenting the augmentation solver with word-keyed right sides."""

    def __init__(self, pair):
        self.solver, self.rowpos = pair

    def solve(self, rhs):
        return self.solver.solve({self.rowpos[w]: c for w, c in rhs.items()})
