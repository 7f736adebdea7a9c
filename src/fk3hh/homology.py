"""Hochschild homology of FK(3) via the induced complex of the resolution.

The complex M (x)_{A^e} P, with coefficients M = A or, for the dual of the
cohomology complex (`fk3hh.cohomology`), M = A_nu, has components
P~_{n,m} = sum_i omega_i K~_{n-4i,m-2i} with K~_{n,m} = A_m (x) (dual of
degree n); basis keys are (i, word_idx, DualGen).  Its differential is
derived from the resolution: the strata f^(0) = d and f^(1) = f of each
generator's image are reduced by x (x) l|v|r -> (r x l)|v, times (-1)^{|l|}
in A_nu; the higher strata vanish under this reduction.

The differential of omega_i x|g at degree n is that of omega_0 x|g at
degree n - 4i moved up i layers, so `columns` reduces the images once per
relative degree n - 4i, with the layers taken out.  It makes one pass per
generator g over the terms of g's d and f images and, through the table
`fk3core.triple_products` of the nonzero products r x l, fills the twelve
columns (x, g) together.  `diff_key` and `diff_elem` read those columns,
shifted by i, and `rows` assembles a component's differential from them as
raw integer rows, which `matrix` wraps in a SparseMat as they are and
`rank` ranks (`InducedComplex` holds diff_key, diff_elem and rows, for
the cochain complex too).  Nothing assembled is kept: only the ranks are memoised, once
per omega-layer class.  Above
m = 4 the (n, m) component has no omega_0 layer and is the (n - 4, m - 2)
component one layer up, differential included; at m = 4 its omega_0
columns map into A_5 = 0, so the rank is still that of (n - 4, 2), and
`rank` ranks only components with m <= 3.  `dim` counts the keys layer by
layer without building a basis (memoised per n), so bases are built only
for the components that are assembled; `fk3core.dual_basis` is memoised
and read-only.

Dimensions of boundaries/cycles/homology come from ranks, never from the
published representative families; `fk3hh.paperdata` checks those against
this complex.
"""

from __future__ import annotations

from .exactmath import QQ, SparseMat, add_term, scalars
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


# ---------------------------------------------------------------------------
# the bigraded complexes and their dimensions
# ---------------------------------------------------------------------------

class InducedComplex:
    """What the chain complex and its dual share: basis keys (i, a, b) of
    the (n, m) components, and a differential (n, m) -> (n + step, m + 1)
    read off `columns(deg)`, which maps (a, b) to the entries
    (layer offset, a2, b2, int) of the image of the key (0, a, b) in degree
    deg, once per relative degree deg = n - 4i; keys of a negative layer
    are dropped.  Subclasses set step and define basis and columns."""

    def __init__(self, field, max_n):
        self.field = field
        self.max_n = max_n
        self._basis = {}
        self._columns = {}

    def diff_key(self, n: int, key) -> dict:
        """Differential of a single basis element of degree n."""
        i, a, b = key
        col = self.columns(n - 4 * i)[(a, b)]
        return {(i + o, a2, b2): c for o, a2, b2, c in col if i + o >= 0}

    def diff_elem(self, n: int, elem: dict) -> dict:
        """Differential of an element, as field scalars without zeros."""
        out = {}
        for key, c in elem.items():
            for key2, c2 in self.diff_key(n, key).items():
                add_term(out, key2, c * c2)
        return scalars(out, self.field)

    def rows(self, n: int, m: int):
        """(rows, ncols): the differential (n, m) -> (n + step, m + 1) as
        raw integer rows {column: int}, one per key of its target, read
        from the layer-free columns; not retained."""
        src = self.basis(n, m)
        pos = {k: r for r, k in enumerate(self.basis(n + self.step, m + 1))}
        rows = [{} for _ in pos]
        for j, (i, a, b) in enumerate(src):
            for o, a2, b2, c in self.columns(n - 4 * i)[(a, b)]:
                if i + o >= 0:
                    rows[pos[(i + o, a2, b2)]][j] = c
        return rows, len(src)


class HomologyComplex(InducedComplex):
    """The induced complex with components indexed by (n, m)."""

    step = -1

    def __init__(self, field=QQ, max_n=19, twisted=False):
        super().__init__(field, max_n)
        # (-1)^{|l|} per word l in A_nu (twisted=True), 1 in A
        self._sign = tuple((-1) ** d if twisted else 1 for d in WORD_DEGREE)
        self._dim = {}
        self._rank = {}

    def max_m(self, n=None) -> int:
        n = self.max_n if n is None else n
        return 2 * (n // 4) + 4

    def basis(self, n: int, m: int):
        """Basis keys (i, word_idx, DualGen) of the (n, m) component."""
        if n < 0 or m < 0:
            return []
        if (n, m) not in self._basis:
            out = []
            for i in range(n // 4 + 1):
                mm = m - 2 * i
                if not 0 <= mm <= 4:
                    continue
                for g in dual_basis(n - 4 * i):
                    for x in BASIS_BY_DEGREE[mm]:
                        out.append((i, x, g))
            self._basis[(n, m)] = out
        return self._basis[(n, m)]

    def dim(self, n: int, m: int) -> int:
        """len(basis(n, m)), counted without building the basis: a sum
        over the layers 0 <= i <= n/4 with 0 <= m - 2i <= 4, memoised per n
        over the support 0 <= m <= max_m(n)."""
        if n < 0 or not 0 <= m <= self.max_m(n):
            return 0
        if n not in self._dim:
            self._dim[n] = tuple(
                sum(dual_dim(n - 4 * i) * DIM_BY_DEGREE[mm - 2 * i]
                    for i in range(max(0, (mm - 3) // 2),
                                   min(n // 4, mm // 2) + 1))
                for mm in range(self.max_m(n) + 1))
        return self._dim[n][m]

    def columns(self, deg: int) -> dict:
        """{(word_idx, DualGen): [(layer offset, word_idx, DualGen, int)]}:
        the differential of omega_i x|g at degree deg + 4i with the layer i
        taken out, built once per relative degree deg = n - 4i.  The d part
        has offset 0 and the f part offset -1 (it applies from i >= 1).

        x (x) l|v|r goes to (r x l)|v, so one pass over the terms of g's d
        and f images, through the nonzero products r x l of every x, fills
        the twelve columns (x, g) together."""
        if deg not in self._columns:
            triples, sign = triple_products(), self._sign
            cols = {}
            for g in dual_basis(deg):
                acc = [{} for _ in range(DIM)]
                for o, image in ((0, gen_image(0, deg, g)),
                                 (-1, gen_image(1, deg, g))):
                    for (_, lw, v, rw), c in image.items():
                        c *= sign[lw]
                        for x, y, c2 in triples[(rw, lw)]:
                            col, key = acc[x], (o, y, v)
                            nv = col.get(key, 0) + c * c2
                            if nv:
                                col[key] = nv
                            else:
                                del col[key]
                for x, col in enumerate(acc):
                    cols[(x, g)] = tuple((o, y, v, c)
                                         for (o, y, v), c in col.items())
            self._columns[deg] = cols
        return self._columns[deg]

    def matrix(self, n: int, m: int) -> SparseMat:
        """Matrix of the differential (n, m) -> (n-1, m+1), from rows()."""
        return SparseMat.from_rows(*self.rows(n, m), self.field)

    def rank(self, n: int, m: int) -> int:
        # From m = 4 on, the (n, m) matrix is the (n - 4, m - 2) matrix moved
        # up one layer: above m = 4 there is no omega_0 layer (the f part
        # leaving layer 1 would land in A_{m+1} = 0), and at m = 4 the
        # omega_0 columns land in A_5 = 0 and add only zero columns.
        while m >= 4:
            n, m = n - 4, m - 2
        if n < 1 or m < 0 or not self.dim(n, m):
            return 0
        if (n, m) not in self._rank:
            self._rank[(n, m)] = self.matrix(n, m).rank()
        return self._rank[(n, m)]

    def dim_boundaries(self, n: int, m: int) -> int:
        return self.rank(n + 1, m - 1)

    def dim_cycles(self, n: int, m: int) -> int:
        return self.dim(n, m) - self.rank(n, m)

    def dim_homology(self, n: int, m: int) -> int:
        return self.dim_cycles(n, m) - self.dim_boundaries(n, m)

    def homology_dims(self, max_n=None):
        """{(n, m): dim H} over the full support, plus per-n totals."""
        max_n = self.max_n if max_n is None else max_n
        grid = {}
        totals = {}
        for n in range(max_n + 1):
            tot = 0
            for m in range(self.max_m(n) + 1):
                d = self.dim_homology(n, m)
                if d:
                    grid[(n, m)] = d
                tot += d
            totals[n] = tot
        return grid, totals

    def hilbert_series(self, n: int) -> dict:
        """h_n as {exponent: coefficient} in the internal-degree variable."""
        out = {}
        for m in range(self.max_m(n) + 1):
            d = self.dim_homology(n, m)
            if d:
                out[m + n] = d
        return out

    def cyclic_series(self, max_n: int):
        """Reduced cyclic homology series [g_0, ..., g_max_n]; char 0 only."""
        if self.field.characteristic != 0:
            raise ValueError(
                "cyclic homology needs characteristic zero; "
                f"got characteristic {self.field.characteristic}")
        out = []
        prev = {}
        for n in range(max_n + 1):
            h = dict(self.hilbert_series(n))
            if n == 0:
                add_term(h, 0, -1)  # reduce by the unit class
            g = dict(h)
            for e, c in prev.items():
                add_term(g, e, -c)
            out.append(g)
            prev = g
        return out
