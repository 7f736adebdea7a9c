"""Hochschild homology of FK(3), and the exactness of its resolution P, via
the induced complexes of P.

The complex M (x)_{A^e} P has components P~_{n,m} = sum_i omega_i
K~_{n-4i,m-2i} with K~_{n,m} = M_m (x) (dual of degree n); basis keys are
(i, word_idx, DualGen).  The coefficient bimodule M is one of three, each
the vector space A with the actions of its `action_table`:

    "A"      Hochschild homology, r.x.l = r x l;
    "A_nu"   the right action twisted by nu(l) = (-1)^{|l|} l, the dual of
             the cohomology complex (`fk3hh.cohomology`);
    "eps A"  the left action through the augmentation, r.x.l = eps(r) x l,
             so eps A (x)_{A^e} P is P (x)_A k, whose homology
             certifies P's exactness (`exactness_defects`).

No CLI or config option chooses M.  The differential is derived from the
resolution: the strata f^(0) = d and f^(1) = f of each generator's image
are reduced by x (x) l|v|r -> (r.x.l)|v; the higher strata vanish under
this reduction (the tower-by-degree lemma in `fk3hh.resolution`).

The differential of omega_i x|g at degree n is that of omega_0 x|g at
degree n - 4i moved up i layers, so `columns` reduces the images once per
relative degree n - 4i, with the layers taken out (`derive_columns` builds
them without keeping them, for the cochain complex).  It makes one pass per
generator g over the terms of g's d and f images and, through M's action
table of the nonzero products r.x.l, fills the twelve columns (x, g)
together.  `diff_key` and `diff_elem` read those columns, shifted by i, and
`rows` assembles a component's differential from them as raw integer rows,
which `matrix` wraps in a SparseMat as they are.  Above m = 4
the (n, m) component has no omega_0 layer and is the (n - 4, m - 2)
component one layer up, differential included; at m = 4 its omega_0
columns map into M_5 = 0, so the rank is still that of (n - 4, 2), and
`rank` ranks only components with m <= 3, memoised once per omega-layer
class.  `dim` counts the keys layer by layer without building a basis
(memoised per n), so bases are built only for the components that are
assembled; `fk3core.dual_basis` is memoised and read-only.

Up to the samples below, `rank` ranks `matrix(n, m)`.  Above them it
reads the rank off a template of the same rows, with entries a + b n, one
per (n mod 2, m) for m = 0..3, by this lemma:

    For n >= 12 and m <= 3 the source (n, m) has the layers i = 0, 1 and
    the target (n - 1, m + 1) the layers i = 0, 1, 2, of dual degrees
    n - 4i >= 8 and n - 1 - 4i >= 3, and every dual degree >= 3 carries
    all six tags; so the key positions do not depend on n.  Each entry is
    a sum of action-table constants times coefficients of
    koszul_on_gen(deg, g), which depend on the parity of deg alone for
    deg >= 4, and of fb_on_gen(deg, g), affine in deg per parity for
    deg >= 3 (chi, (-1)^deg, deg - 1, deg - 2, constants), at
    deg = n - 4i.  So each entry is affine in n per parity, and
    STABLE_N = 12.

The template is fitted from `rows` at the samples n0 = STABLE_N + parity
and n0 + 2, and confirmed against `rows` at n0 + 4 before it is used; a
fit that does not reproduce the third sample raises ArithmeticError.  The
samples are the degrees STABLE_N..STABLE_N + 5, and `rank` reads the
templates from STABLE_N + 6 on, so a complex ranked only below that fits
none, and `rank` derives columns only for degrees below it.  `rows` and
`columns` stay the one source of the differential (the cochain side and
`diff_elem` read them at every degree).

A confirmed template is split once (`exactmath.AffineRank`) into its
constant rows C and its affine rows A + n B, by

    rank [C; A + n B] = rank C + rank of (A + n B) reduced modulo the row
    space of C,

where, the reduction being linear, the residual of a row a + n b is
a' + n b' for the residuals a' and b' of a and b.  C is eliminated once;
what is kept per (parity, m) is rank C, the pairs (a', b') and the number
of columns, and at each degree only the residual rows, at most three, are
ranked (none where every row is constant or reduces to zero).  Nothing
assembled is kept.

`InducedComplex` holds what this complex and its dual, the cochain complex
of `fk3hh.cohomology`, share, written once in terms of the direction
`step` of the differential (-1 here, +1 there): `basis`, `diff_key`,
`diff_elem`, `rows`, the dimensions of cycles, boundaries and (co)homology,
`dims` (the (n, m) grid and the totals to a degree) and `hilbert_series`.
Each complex adds its key order, `m_range`, `dim`, `columns`, `rank` and
`matrix`.  Nothing bounds the degrees a complex answers for: every
component is built on demand.

Dimensions of boundaries/cycles/homology come from ranks, never from the
published representative families; `fk3hh.paperdata` checks those against
this complex.
"""

from __future__ import annotations

from functools import cache

from .exactmath import (
    QQ, AffineRank, SparseMat, add_term, affine_at, scalars)
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

# the degree from which the rank matrices are affine in n per parity (the
# lemma in the module docstring): the templates are fitted at the degrees
# STABLE_N..STABLE_N + 5, and rank() reads them from STABLE_N + 6 on
STABLE_N = 12


@cache
def action_table(coefficients: str) -> dict:
    """{(r, l): ((x, y, c), ...)}: the nonzero coefficients c of the words y
    in r.x.l over the twelve words x, in the coefficient bimodule M named
    `coefficients` (see the module docstring), from the table of A,
    `fk3core.triple_products`, on first use; shared and read-only."""
    table = triple_products()
    if coefficients == "A":
        return table
    if coefficients == "A_nu":
        return {(r, l): tuple((x, y, (-1) ** WORD_DEGREE[l] * c)
                              for x, y, c in t)
                for (r, l), t in table.items()}
    if coefficients == "eps A":
        return {(r, l): () if WORD_DEGREE[r] else t
                for (r, l), t in table.items()}
    raise ValueError(f"no coefficient bimodule {coefficients!r}")


# ---------------------------------------------------------------------------
# the bigraded complexes and their dimensions
# ---------------------------------------------------------------------------

class InducedComplex:
    """What the chain complex and its dual share: basis keys of the (n, m)
    components, a differential (n, m) -> (n + step, m + 1) read off
    `columns(deg)`, and the dimensions of its (co)homology.

    Layer i of the (n, m) component holds the tags g of degree n - 4i with
    the words x of degree m + 2 step i, keyed in the subclass's order by
    key(i, x, g).  columns(deg) maps (a, b) to the entries
    (layer offset, a2, b2, int) of the image of the key (0, a, b) in degree
    deg, once per relative degree deg = n - 4i; keys of a negative layer
    are dropped.  Subclasses set step and define key, m_range (the m of
    the components that can be nonzero at n), dim, columns and rank."""

    def __init__(self, field):
        self.field = field
        self._basis = {}
        self._columns = {}

    def basis(self, n: int, m: int):
        """Basis keys of the (n, m) component, layer by layer."""
        if n < 0:
            return []
        if (n, m) not in self._basis:
            self._basis[(n, m)] = [
                self.key(i, x, g) for i in range(n // 4 + 1)
                if 0 <= (mm := m + 2 * self.step * i) <= 4
                for g in dual_basis(n - 4 * i) for x in BASIS_BY_DEGREE[mm]]
        return self._basis[(n, m)]

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

    def dim_cycles(self, n: int, m: int) -> int:
        return self.dim(n, m) - self.rank(n, m)

    def dim_boundaries(self, n: int, m: int) -> int:
        return self.rank(n - self.step, m - 1)

    def dim_homology(self, n: int, m: int) -> int:
        """dim H at (n, m): homology for the chain complex, cohomology for
        the cochain complex."""
        return self.dim_cycles(n, m) - self.dim_boundaries(n, m)

    def dims(self, max_n: int):
        """(grid, totals): {(n, m): dim H} without zeros over every
        m_range(n), and {n: total dim H}, for n = 0..max_n."""
        grid = {}
        totals = {}
        for n in range(max_n + 1):
            totals[n] = 0
            for m in self.m_range(n):
                if d := self.dim_homology(n, m):
                    grid[(n, m)] = d
                    totals[n] += d
        return grid, totals

    def hilbert_series(self, n: int) -> dict:
        """The degree-n series as {internal degree m - step n: dim H};
        exponents may be negative for the cochain complex."""
        return {m - self.step * n: d for m in self.m_range(n)
                if (d := self.dim_homology(n, m))}


class HomologyComplex(InducedComplex):
    """The induced complex M (x)_{A^e} P with components indexed by (n, m),
    for M named by `coefficients` (see `action_table`); basis keys
    (i, word_idx, DualGen)."""

    step = -1

    def __init__(self, field=QQ, coefficients="A"):
        super().__init__(field)
        self.coefficients = coefficients
        self._dim = {}
        self._rank = {}
        self._templates = {}

    @staticmethod
    def key(i, x, g):
        return i, x, g

    @staticmethod
    def m_range(n: int) -> range:
        return range(2 * (n // 4) + 5)

    def dim(self, n: int, m: int) -> int:
        """len(basis(n, m)), counted without building the basis: a sum
        over the layers 0 <= i <= n/4 with 0 <= m - 2i <= 4, memoised per n
        as {m: dim} over m_range(n)."""
        if n < 0:
            return 0
        if n not in self._dim:
            self._dim[n] = {
                mm: sum(dual_dim(n - 4 * i) * DIM_BY_DEGREE[mm - 2 * i]
                        for i in range(max(0, (mm - 3) // 2),
                                       min(n // 4, mm // 2) + 1))
                for mm in self.m_range(n)}
        return self._dim[n].get(m, 0)

    def columns(self, deg: int) -> dict:
        """derive_columns(deg), built once per relative degree."""
        if deg not in self._columns:
            self._columns[deg] = self.derive_columns(deg)
        return self._columns[deg]

    def derive_columns(self, deg: int) -> dict:
        """{(word_idx, DualGen): [(layer offset, word_idx, DualGen, int)]}:
        the differential of omega_i x|g at degree deg + 4i with the layer i
        taken out, for a relative degree deg = n - 4i; not retained.  The d
        part has offset 0 and the f part offset -1 (it applies from i >= 1).

        x (x) l|v|r goes to (r.x.l)|v, so one pass over the terms of g's d
        and f images, through M's action table, fills the twelve columns
        (x, g) together."""
        action = action_table(self.coefficients)
        cols = {}
        for g in dual_basis(deg):
            acc = [{} for _ in range(DIM)]
            for o, image in ((0, gen_image(0, deg, g)),
                             (-1, gen_image(1, deg, g))):
                for (_, lw, v, rw), c in image.items():
                    for x, y, c2 in action[(rw, lw)]:
                        col, key = acc[x], (o, y, v)
                        nv = col.get(key, 0) + c * c2
                        if nv:
                            col[key] = nv
                        else:
                            del col[key]
            for x, col in enumerate(acc):
                cols[(x, g)] = tuple((o, y, v, c)
                                     for (o, y, v), c in col.items())
        return cols

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
            if n < STABLE_N + 6:
                self._rank[(n, m)] = self.matrix(n, m).rank()
            else:
                key = (n % 2, m)
                if key not in self._templates:
                    self._templates[key] = AffineRank(
                        *self._fit_template(*key), self.field)
                self._rank[(n, m)] = self._templates[key].at(n)
        return self._rank[(n, m)]

    def _fit_template(self, parity: int, m: int):
        """([{column: (a, b)}], ncols): the rows of rows(n, m) as a + b n
        for the n >= STABLE_N of this parity, through the samples n0 and
        n0 + 2, n0 = STABLE_N + parity; raises ArithmeticError unless it
        reproduces rows(n0 + 4, m) exactly."""
        n0 = STABLE_N + parity
        (rows0, ncols), (rows2, ncols2) = self.rows(n0, m), self.rows(n0 + 2, m)
        if (len(rows0), ncols) != (len(rows2), ncols2):
            raise ArithmeticError(f"the (n, {m}) shape varies with n")
        template = []
        for row0, row2 in zip(rows0, rows2):
            row = {}
            for j in sorted(row0.keys() | row2.keys()):
                b, odd = divmod(row2.get(j, 0) - row0.get(j, 0), 2)
                if odd:
                    raise ArithmeticError(f"the (n, {m}) entries are not "
                                          "integral affine in n")
                row[j] = (row0.get(j, 0) - b * n0, b)
            template.append(row)
        n4 = n0 + 4
        if (affine_at(template, n4), ncols) != self.rows(n4, m):
            raise ArithmeticError(f"the affine fit of the (n, {m}) rows "
                                  f"through n = {n0}, {n0 + 2} misses n = {n4}")
        return template, ncols

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


def exactness_defects(field, max_n: int) -> list:
    """The homology of P (x)_A k = eps A (x)_{A^e} P at n = 0..max_n, less
    k at n = 0: P is exact in degrees 0..n (against A at 0) exactly when
    the defects at 0..n vanish, by this lemma:

        Let C be the augmented complex P -> A, a bounded-below complex of
        free right A-modules with delta^2 = 0.  If C is exact below degree
        n, the cycles Z_{n-1} are projective, so H_n(C (x)_A k) =
        H_n(C) (x)_A k.  A is finite-dimensional and connected, so by graded
        Nakayama M (x)_A k = 0 forces M = 0 for the bounded-below graded
        module M = H_n(C).  By induction on n, C is exact in degrees <= n
        if and only if C (x)_A k is.

    C (x)_A k ends in the augmentation A (x)_A k = A -> k, of rank 1, so
    when P is exact the homology of P (x)_A k is k, in degree 0; exactness
    there is rank(delta_1 (x) k) = 11."""
    totals = HomologyComplex(field, "eps A").dims(max_n)[1]
    return [totals[n] - (n == 0) for n in range(max_n + 1)]
