"""Hochschild cohomology of FK(3) via the dualized resolution complex.

Components Q^n_m = sum_i omega*_i K^{n-4i}_{m+2i} of Hom_{A^e}(P, A), with
K^n_m the maps sending one degree-n dual-basis tag to an element of A_m;
basis keys are (i, DualGen, word_idx).  omega*_i has cohomological degree 4i
and internal degree -6i, so Q^n_m is concentrated in internal degree m - n
with m in [-2 floor(n/4), 4].

The codifferential is derived from the resolution: a cochain g*|x pulls back
along the strata f^(0) = d and f^(1) = f to sum l x r over the terms l|g|r
of each source generator's image; the higher strata vanish under this
reduction.  The codifferential of omega*_i g*|x at degree n is that of
omega*_0 g*|x at degree n - 4i moved up i layers, so `columns` pulls back
once per relative degree n - 4i, with the layers taken out.  It makes one
pass per generator g over the terms (u, l, r) of the source images that
pass through g (`transpose_images`) and, through the table
`fk3core.triple_products` of the nonzero products l x r, fills the twelve
columns (g, x) together.  `diff_key` and `diff_elem` read those columns,
shifted by i, and `rows` assembles a component's codifferential from them
as raw integer rows, which `matrix` wraps in a SparseMat as they are, for
`rank` to rank; the class solvers factor such rows too.  Nothing assembled
is kept; ranks are memoised once per omega-layer class.  Below m = 0 the
component Q^n_m has no omega*_0 layer and is Q^{n-4}_{m+2} one layer up,
codifferential included, so `rank` ranks only components with m >= 0.
`dim` counts the keys layer by layer without building a basis (memoised per
n), and `fk3core.dual_basis` is memoised and read-only.

Cohomology dimensions come from ranks; `cocycle_basis` returns canonical
coset representatives (kernel vectors reduced against the RREF of the
coboundaries).  `class_coordinates` and `is_zero_class` solve each
component against one integer factorisation of its raw columns
[coboundaries | classes] and read the class part of the solution.
"""

from __future__ import annotations

from .exactmath import (
    QQ,
    LinearSolver,
    SparseMat,
    Subspace,
    add_term,
    scalars,
)
from .fk3core import (
    BASIS_BY_DEGREE,
    DIM,
    DIM_BY_DEGREE,
    WORD_DEGREE,
    dual_basis,
    dual_dim,
    triple_products,
)
from .resolution import gen_image


def transpose_images(images: dict) -> dict:
    """{u: sum c l|v|r} -> {v: [(u, l, r, c), ...]}: for each generator v,
    the terms of the source generators' images that pass through it."""
    out = {}
    for u, image in images.items():
        for (_, lw, v, rw), c in image.items():
            out.setdefault(v, []).append((u, lw, rw, c))
    return out


# ---------------------------------------------------------------------------
# the bigraded cochain complex
# ---------------------------------------------------------------------------

class CohomologyComplex:
    """Q^n_m components with the dualized differential."""

    def __init__(self, field=QQ, max_n=20):
        self.field = field
        self.max_n = max_n
        self._basis = {}
        self._dim = {}
        self._rank = {}
        self._columns = {}
        self._classes = {}
        self._class_solvers = {}

    def min_m(self, n: int) -> int:
        return -2 * (n // 4)

    def basis(self, n: int, m: int):
        """Basis keys (i, DualGen, word_idx) of Q^n_m."""
        if n < 0:
            return []
        if (n, m) not in self._basis:
            out = []
            for i in range(n // 4 + 1):
                mm = m + 2 * i
                if not 0 <= mm <= 4:
                    continue
                for g in dual_basis(n - 4 * i):
                    for x in BASIS_BY_DEGREE[mm]:
                        out.append((i, g, x))
            self._basis[(n, m)] = out
        return self._basis[(n, m)]

    def dim(self, n: int, m: int) -> int:
        """len(basis(n, m)), counted without building the basis: a sum
        over the layers 0 <= i <= n/4 with 0 <= m + 2i <= 4, memoised per n
        over the support min_m(n) <= m <= 4."""
        if n < 0 or not self.min_m(n) <= m <= 4:
            return 0
        if n not in self._dim:
            self._dim[n] = tuple(
                sum(dual_dim(n - 4 * i) * DIM_BY_DEGREE[mm + 2 * i]
                    for i in range(max(0, (1 - mm) // 2),
                                   min(n // 4, (4 - mm) // 2) + 1))
                for mm in range(self.min_m(n), 5))
        return self._dim[n][m - self.min_m(n)]

    def columns(self, deg: int) -> dict:
        """{(DualGen, word_idx): [(layer offset, DualGen, word_idx, int)]}:
        the codifferential of omega*_i g*|x at degree deg + 4i with the
        layer i taken out, built once per relative degree deg = n - 4i.
        The part pulled back along d_{deg+1} has offset 0, the part pulled
        back along f_{deg-3} offset +1.

        Pulling g*|x back along the terms (u, l, r, c) that pass through g
        gives sum c u*|(l x r), so one pass over those terms, through the
        nonzero products l x r of every x, fills the twelve columns (g, x)
        together."""
        if deg not in self._columns:
            d = transpose_images({u: gen_image(0, deg + 1, u)
                                  for u in dual_basis(deg + 1)})
            f = transpose_images({u: gen_image(1, deg - 3, u)
                                  for u in dual_basis(deg - 3)})
            triples = triple_products()
            cols = {}
            for g in dual_basis(deg):
                acc = [{} for _ in range(DIM)]
                for o, terms in ((0, d.get(g, ())), (1, f.get(g, ()))):
                    for u, lw, rw, c in terms:
                        for x, y, c2 in triples[(lw, rw)]:
                            col, key = acc[x], (o, u, y)
                            nv = col.get(key, 0) + c * c2
                            if nv:
                                col[key] = nv
                            else:
                                del col[key]
                for x, col in enumerate(acc):
                    cols[(g, x)] = tuple((o, u, y, c)
                                         for (o, u, y), c in col.items())
            self._columns[deg] = cols
        return self._columns[deg]

    def diff_key(self, n: int, key) -> dict:
        """Codifferential of a single basis element of degree n."""
        i, g, x = key
        return {(i + o, u, y): c
                for o, u, y, c in self.columns(n - 4 * i)[(g, x)]}

    def diff_elem(self, n: int, elem: dict) -> dict:
        """Codifferential of a cochain, as field scalars without zeros."""
        out = {}
        for key, c in elem.items():
            for key2, c2 in self.diff_key(n, key).items():
                add_term(out, key2, c * c2)
        return scalars(out, self.field)

    def rows(self, n: int, m: int):
        """(rows, ncols): the codifferential Q^n_m -> Q^{n+1}_{m+1} as raw
        integer rows {column: int}, one per key of basis(n + 1, m + 1),
        read from the layer-free columns; not retained."""
        src = self.basis(n, m)
        pos = {k: r for r, k in enumerate(self.basis(n + 1, m + 1))}
        rows = [{} for _ in pos]
        for j, (i, g, x) in enumerate(src):
            for o, u, y, c in self.columns(n - 4 * i)[(g, x)]:
                rows[pos[(i + o, u, y)]][j] = c
        return rows, len(src)

    def matrix(self, n: int, m: int) -> SparseMat:
        """Matrix of Q^n_m -> Q^{n+1}_{m+1}, from rows(); not retained
        (ranks and the images and kernels that the cocycle bases need are
        memoised)."""
        return SparseMat.from_rows(*self.rows(n, m), self.field)

    def rank(self, n: int, m: int) -> int:
        # Below m = 0 the component Q^n_m has no omega*_0 layer: it is
        # Q^{n-4}_{m+2} moved up one layer, and so is its codifferential
        # (the target's extra layer-0 rows are reached from no source).
        while m < 0:
            n, m = n - 4, m + 2
        if n < 0 or not self.dim(n, m):
            return 0
        if (n, m) not in self._rank:
            self._rank[(n, m)] = self.matrix(n, m).rank()
        return self._rank[(n, m)]

    def dim_coboundaries(self, n: int, m: int) -> int:
        return self.rank(n - 1, m - 1)

    def dim_cocycles(self, n: int, m: int) -> int:
        return self.dim(n, m) - self.rank(n, m)

    def dim_cohomology(self, n: int, m: int) -> int:
        return self.dim_cocycles(n, m) - self.dim_coboundaries(n, m)

    def cohomology_dims(self, max_n=None):
        max_n = self.max_n if max_n is None else max_n
        grid = {}
        totals = {}
        for n in range(max_n + 1):
            tot = 0
            for m in range(self.min_m(n), 5):
                d = self.dim_cohomology(n, m)
                if d:
                    grid[(n, m)] = d
                tot += d
            totals[n] = tot
        return grid, totals

    def hilbert_series(self, n: int) -> dict:
        """h^n as {internal degree m - n: dim}; exponents may be negative."""
        out = {}
        for m in range(self.min_m(n), 5):
            d = self.dim_cohomology(n, m)
            if d:
                out[m - n] = d
        return out

    def cocycle_basis(self, n: int):
        """Canonical cocycle representatives spanning degree-n cohomology.

        Returns a list of (m, {basis key: scalar}) with each vector a cocycle
        reduced against the RREF basis of the coboundaries at (n, m).
        """
        if n in self._classes:
            return self._classes[n]
        F = self.field
        out = []
        for m in range(self.min_m(n), 5):
            basis = self.basis(n, m)
            if not basis:
                continue
            ker = self.matrix(n, m).kernel()
            img = (self.matrix(n - 1, m - 1).image()
                   if self.basis(n - 1, m - 1) else Subspace(len(basis), [], F))
            reduced = [img.reduce(vec) for vec in ker.basis_dicts()]
            canon = Subspace.span(len(basis), reduced, F)
            for row in canon.basis_dicts():
                out.append((m, {basis[p]: c for p, c in row.items()}))
        self._classes[n] = out
        return out

    def is_zero_class(self, n: int, elem: dict) -> bool:
        """True when a degree-n cochain is a coboundary (per bidegree)."""
        return all(sol is not None and all(c < ncob for c in sol)
                   for sol, ncob, _ in self._class_solutions(n, elem))

    def class_coordinates(self, n: int, elem: dict):
        """Coordinates of a cocycle's class in the canonical cocycle basis.

        elem maps basis keys of Q^n (any m) to scalars.  Returns
        {(m, index within that m's classes): scalar}.
        """
        coords = {}
        for sol, ncob, idxs in self._class_solutions(n, elem):
            if sol is None:
                raise ValueError("element is not a cocycle modulo coboundaries")
            for j, idx in enumerate(idxs):
                v = sol.get(ncob + j)
                if v:
                    coords[idx] = v
        return coords

    def _class_solutions(self, n: int, elem: dict):
        """(sol, ncob, idxs) for each m of elem's support: sol solves elem's
        part at m by _class_solver(n, m), None outside the solver's span."""
        by_m = {}
        for (i, g, x), c in elem.items():
            by_m.setdefault(WORD_DEGREE[x] - 2 * i, {})[(i, g, x)] = c
        for m, part in by_m.items():
            solver, pos, ncob, idxs = self._class_solver(n, m)
            yield solver.solve({pos[k]: c for k, c in part.items()}), ncob, idxs

    def _class_solver(self, n: int, m: int):
        """(solver, pos, ncob, idxs), cached: one factorisation of the raw
        columns [the ncob coboundaries of rows(n - 1, m - 1) | the classes
        at m, idxs in cocycle_basis(n)] over the positions pos of Q^n_m's
        keys.  The classes are independent modulo the coboundaries, so the
        class part of any solution is unique: it is the class coordinates."""
        if (n, m) not in self._class_solvers:
            pos = {k: p for p, k in enumerate(self.basis(n, m))}
            rows, ncob = self.rows(n - 1, m - 1)
            idxs = []
            for idx, (mm, cv) in enumerate(self.cocycle_basis(n)):
                if mm == m:
                    for k, c in cv.items():
                        rows[pos[k]][ncob + len(idxs)] = c
                    idxs.append(idx)
            self._class_solvers[(n, m)] = (LinearSolver(SparseMat.from_rows(
                rows, ncob + len(idxs), self.field)), pos, ncob, idxs)
        return self._class_solvers[(n, m)]
