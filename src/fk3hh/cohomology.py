"""Hochschild cohomology of FK(3) as the dual of the nu-twisted chain complex.

Components Q^n_m = sum_i omega*_i K^{n-4i}_{m+2i} of Hom_{A^e}(P, A), with
K^n_m the maps sending one degree-n dual-basis tag to an element of A_m;
basis keys are (i, DualGen, word_idx).  omega*_i has cohomological degree 4i
and internal degree -6i, so Q^n_m is concentrated in internal degree m - n
with m in [-2 floor(n/4), 4].

FK(3) is Frobenius for the pairing B(x, y) = coefficient of abac in x y,
with Nakayama automorphism nu(x) = (-1)^{|x|} x: B(l, z) = (-1)^{|l|} B(z, l).
So <phi, x' (x) p> = B(phi(p), x') identifies Hom_{A^e}(P, A) with the dual
of A_nu (x)_{A^e} P, where x (x) l|v|r = (-1)^{|l|} (r x l) (x) v: the
chain complex `chain`, the HomologyComplex with coefficients "A_nu".  The
codifferential is the transpose of its differential, with no further sign.
omega*_i g*|x pairs with omega_i x'|g by B(x, x'), which vanishes unless
|x| + |x'| = 4, so with P_n the pairing of Q^n_m with the chain component
(n, 4 - m), one block B per layer and tag,

    (codifferential of Q^n_m)^T P_{n+1} = P_n (differential of (n+1, 3-m)).

Hence `dim(n, m)` is the chain dim(n, 4 - m) and `rank(n, m)` the chain
rank(n + 1, 3 - m), ranked once per omega-layer class there (above the
samples, from the split of the chain's affine templates: once the rank of
their constant rows, then at each degree the few residual rows that depend
on n), and `columns` reads the codifferential off the chain columns
through B and B^-1; it builds them by `chain.derive_columns`, so the chain
keeps only the columns its own ranks read.  B is a signed permutation
except on its degree-2 block, which is unimodular, so B^-1 and every row
are integral.
`diff_key`, `diff_elem` and `rows` read those columns; `matrix` wraps the
raw integer rows in a SparseMat as they are, and the class solvers factor
such rows too.  Nothing assembled is kept.  The basis, the dimensions of
cocycles, coboundaries and cohomology (`dim_cycles`, `dim_boundaries`,
`dim_homology`), the (n, m) grid (`dims`) and the Laurent series
(`hilbert_series`) are `InducedComplex`'s, shared with the chain complex
and read here with step +1 and m in `m_range(n)` = [-2 floor(n/4), 4].

`cocycle_basis` returns canonical coset representatives: the RREF basis
of the cocycles that vanish at the pivot columns of the coboundaries'
RREF, one kernel.  `class_coordinates` and `is_zero_class` solve each
component against one integer factorisation of its raw columns
[coboundaries | classes] and read the class part.
"""

from __future__ import annotations

from functools import cache

from .exactmath import QQ, LinearSolver, SparseMat, add_term
from .fk3core import DIM, WORD_DEGREE, dual_basis, mul_table
from .homology import HomologyComplex, InducedComplex


@cache
def frobenius_pairing():
    """(pair, inverse): pair[y] lists the (x, B(x, y)) and inverse[x] the
    (y, B^-1(x, y)) that are nonzero, for B(x, y) = coefficient of abac in
    x y.  From mul_table() on first use; shared and read-only."""
    top = DIM - 1
    b = {xy: t[top] for xy, t in mul_table().items() if top in t}
    pair, inverse = [[] for _ in range(DIM)], [[] for _ in range(DIM)]
    for (x, y), c in b.items():
        pair[y].append((x, c))
    # column y of B^-1 solves B z = e_y; B is unimodular, so z is integral
    for y, z in enumerate(SparseMat(DIM, DIM, b, QQ).solve_many(
            [{y: 1} for y in range(DIM)])):
        for x, c in z.items():
            if c != int(c):
                raise ArithmeticError("the pairing B is not unimodular")
            inverse[x].append((y, int(c)))
    return pair, inverse


# ---------------------------------------------------------------------------
# the bigraded cochain complex
# ---------------------------------------------------------------------------

class CohomologyComplex(InducedComplex):
    """Q^n_m components with the codifferential, read off the dual A_nu
    chain complex `chain`; basis keys (i, DualGen, word_idx)."""

    step = 1

    def __init__(self, field=QQ):
        super().__init__(field)
        self.chain = HomologyComplex(field, "A_nu")
        self._classes = {}
        self._class_solvers = {}

    @staticmethod
    def key(i, x, g):
        return i, g, x

    @staticmethod
    def m_range(n: int) -> range:
        return range(-2 * (n // 4), 5)

    def dim(self, n: int, m: int) -> int:
        """len(basis(n, m)): the dimension of the dual chain component."""
        return self.chain.dim(n, 4 - m)

    def columns(self, deg: int) -> dict:
        """{(DualGen, word_idx): [(layer offset, DualGen, word_idx, int)]}:
        the codifferential of omega*_i g*|x at degree deg + 4i with the
        layer i taken out, built once per relative degree deg = n - 4i:
        with offset 0 from the d part of the chain columns of degree
        deg + 1, with offset +1 from the f part (offset -1 there) of those
        of degree deg - 3.  It is P_{n+1}^-T (differential)^T P_n^T, so a
        chain entry c from x'|u to y'|g adds B(x, y') c B^-1(x', y) to the
        entry from g*|x to u*|y."""
        if deg not in self._columns:
            pair, inverse = frobenius_pairing()
            acc = {(g, x): {} for g in dual_basis(deg) for x in range(DIM)}
            for o, deg1 in ((0, deg + 1), (1, deg - 3)):
                for (x1, u), col in self.chain.derive_columns(deg1).items():
                    for o1, y1, g, c in col:
                        if o1 == -o:  # the part that lands in degree deg
                            for x, b in pair[y1]:
                                for y, bi in inverse[x1]:
                                    add_term(acc[(g, x)], (o, u, y),
                                             b * c * bi)
            self._columns[deg] = {
                gx: tuple((o, u, y, c) for (o, u, y), c in col.items())
                for gx, col in acc.items()}
        return self._columns[deg]

    def matrix(self, n: int, m: int) -> SparseMat:
        """Matrix of Q^n_m -> Q^{n+1}_{m+1}, from rows(); not retained
        (ranks and the images and kernels that the cocycle bases need are
        memoised)."""
        return SparseMat.from_rows(*self.rows(n, m), self.field)

    def rank(self, n: int, m: int) -> int:
        """Rank of Q^n_m -> Q^{n+1}_{m+1}: that of the dual chain map."""
        return self.chain.rank(n + 1, 3 - m)

    def cocycle_basis(self, n: int):
        """Canonical cocycle representatives spanning degree-n cohomology.

        Returns a list of (m, {basis key: scalar}): at each (n, m), the RREF
        basis of the cocycles that vanish at the pivot columns of the
        coboundaries' RREF, which are the cocycles reduced against it: one
        per class.
        """
        if n in self._classes:
            return self._classes[n]
        out = []
        for m in self.m_range(n):
            basis = self.basis(n, m)
            if not basis:
                continue
            rows, ncols = self.rows(n, m)
            _, pivots = self.matrix(n - 1, m - 1).transpose().rref()
            rows += [{p: 1} for p in pivots]
            ker = SparseMat.from_rows(rows, ncols, self.field).kernel()
            for row in ker.basis_dicts():
                out.append((m, {basis[p]: c for p, c in row.items()}))
        self._classes[n] = out
        return out

    def is_zero_class(self, n: int, elem: dict) -> bool:
        """True when a degree-n cochain is a coboundary (per bidegree): no
        class column is in the support of its particular solution."""
        for solver, b, ncob, _ in self._class_parts(n, elem):
            cols = solver.support(b)
            if cols is None or any(c >= ncob for c in cols):
                return False
        return True

    def class_coordinates(self, n: int, elem: dict):
        """Coordinates of a cocycle's class in the canonical cocycle basis.

        elem maps basis keys of Q^n (any m) to scalars.  Returns
        {(m, index within that m's classes): scalar}.
        """
        coords = {}
        for solver, b, ncob, idxs in self._class_parts(n, elem):
            sol = solver.solve(b)
            if sol is None:
                raise ValueError("element is not a cocycle modulo coboundaries")
            for j, idx in enumerate(idxs):
                v = sol.get(ncob + j)
                if v:
                    coords[idx] = v
        return coords

    def _class_parts(self, n: int, elem: dict):
        """(solver, b, ncob, idxs) for each m of elem's support: b is elem's
        part at m in the positions of _class_solver(n, m), whose other
        fields follow it."""
        by_m = {}
        for (i, g, x), c in elem.items():
            by_m.setdefault(WORD_DEGREE[x] - 2 * i, {})[(i, g, x)] = c
        for m, part in by_m.items():
            solver, pos, ncob, idxs = self._class_solver(n, m)
            yield solver, {pos[k]: c for k, c in part.items()}, ncob, idxs

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
