"""Hochschild cohomology of FK(3) via the dualized resolution complex.

Components Q^n_m = sum_i omega*_i K^{n-4i}_{m+2i} of Hom_{A^e}(P, A), with
K^n_m the maps sending one degree-n dual-basis tag to an element of A_m;
basis keys are (i, DualGen, word_idx).  omega*_i has cohomological degree 4i
and internal degree -6i, so Q^n_m is concentrated in internal degree m - n
with m in [-2 floor(n/4), 4].

The codifferential is derived from the resolution: a cochain g*|x pulls back
along the strata f^(0) = d and f^(1) = f to sum l x r over the terms l|g|r
of each source generator's image (`coreduce`); the higher strata vanish
under this reduction.  The transcribed image tables live in `fk3hh.tables`
as a verification oracle only.  Cohomology dimensions come from ranks;
`cocycle_basis` returns canonical coset representatives (kernel vectors
reduced against the RREF of the coboundaries).
"""

from __future__ import annotations

from .exactmath import QQ, SparseMat, Subspace
from .fk3core import (
    BASIS_BY_DEGREE,
    WORD_DEGREE,
    chi,
    dual_basis,
    mul_table,
)
from .homology import _add
from .resolution import gen_image


def transpose_images(images: dict) -> dict:
    """{u: sum c l|v|r} -> {v: [(u, l, r, c), ...]}: for each generator v,
    the terms of the source generators' images that pass through it."""
    out = {}
    for u, image in images.items():
        for (_, lw, v, rw), c in image.items():
            out.setdefault(v, []).append((u, lw, rw, c))
    return out


def coreduce(terms, x: int, i: int = 0, out=None) -> dict:
    """The cohomology reduction: pulling the cochain v*|x back along the
    terms (u, l, r, c) of transpose_images gives sum c u*|(l x r), as
    {(i, DualGen, word_idx): int} added into `out`."""
    if out is None:
        out = {}
    table = mul_table()
    room = 4 - WORD_DEGREE[x]  # A vanishes above degree 4
    for u, lw, rw, c in terms:
        if WORD_DEGREE[lw] + WORD_DEGREE[rw] > room:
            continue
        for m1, c1 in table[(lw, x)].items():
            for m2, c2 in table[(m1, rw)].items():
                key = (i, u, m2)
                nv = out.get(key, 0) + c * c1 * c2
                if nv:
                    out[key] = nv
                else:
                    del out[key]
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
        self._mat = {}
        self._rank = {}
        self._images = {}
        self._classes = {}
        self._class_solvers = {}
        self._dual = {}

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
        return len(self.basis(n, m))

    def _dual_terms(self, k: int, n: int) -> dict:
        """transpose_images of f^(k)_n over the degree-n generators,
        computed once per (k, n)."""
        if (k, n) not in self._dual:
            self._dual[(k, n)] = transpose_images(
                {u: gen_image(k, n, u) for u in dual_basis(n)})
        return self._dual[(k, n)]

    def diff_key(self, n: int, key) -> dict:
        """Codifferential of a single basis element of degree n: the
        omega_i part pulls back along d_{n+1}, the omega_{i+1} part along f."""
        i, g, x = key
        deg = n - 4 * i
        out = coreduce(self._dual_terms(0, deg + 1).get(g, ()), x, i)
        return coreduce(self._dual_terms(1, deg - 3).get(g, ()), x, i + 1, out)

    def diff_elem(self, n: int, elem: dict) -> dict:
        out = {}
        for key, c in elem.items():
            for key2, c2 in self.diff_key(n, key).items():
                _add(out, key2, c * c2)
        return out

    def matrix(self, n: int, m: int) -> SparseMat:
        """Matrix of Q^n_m -> Q^{n+1}_{m+1}."""
        if (n, m) in self._mat:
            return self._mat[(n, m)]
        F = self.field
        src = self.basis(n, m)
        tgt = self.basis(n + 1, m + 1)
        pos = {k: r for r, k in enumerate(tgt)}
        ent = {}
        for col, key in enumerate(src):
            for key2, c in self.diff_key(n, key).items():
                ent[(pos[key2], col)] = F.of(c)
        mat = SparseMat(len(tgt), len(src), ent, F)
        self._mat[(n, m)] = mat
        return mat

    def rank(self, n: int, m: int) -> int:
        if n < 0 or not self.basis(n, m):
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

    def coboundary_image(self, n: int, m: int) -> Subspace:
        """RREF image of the incoming differential at (n, m), cached."""
        if (n, m) not in self._images:
            basis = self.basis(n, m)
            if n >= 1 and self.basis(n - 1, m - 1):
                self._images[(n, m)] = self.matrix(n - 1, m - 1).image()
            else:
                self._images[(n, m)] = Subspace(len(basis), [], self.field)
        return self._images[(n, m)]

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
            img = self.coboundary_image(n, m)
            reduced = []
            for vec in ker.basis_dicts():
                r = img.reduce(vec)
                if r:
                    reduced.append(r)
            canon = Subspace.span(len(basis), reduced, F)
            for row in canon.basis_dicts():
                out.append((m, {basis[p]: c for p, c in row.items()}))
        self._classes[n] = out
        return out

    def is_cocycle(self, n: int, elem: dict) -> bool:
        return not self.diff_elem(n, elem)

    def is_zero_class(self, n: int, elem: dict) -> bool:
        """True when a degree-n cocycle is a coboundary (per bidegree)."""
        F = self.field
        by_m = {}
        for (i, g, x), c in elem.items():
            m = WORD_DEGREE[x] - 2 * i
            by_m.setdefault(m, {})[(i, g, x)] = c
        for m, part in by_m.items():
            basis = self.basis(n, m)
            pos = {k: p for p, k in enumerate(basis)}
            vec = {pos[k]: F.of(c) for k, c in part.items()}
            if self.coboundary_image(n, m).reduce(vec):
                return False
        return True

    def class_coordinates(self, n: int, elem: dict):
        """Coordinates of a cocycle's class in the canonical cocycle basis.

        elem maps basis keys of Q^n (any m) to scalars.  Returns
        {(m, index within that m's classes): scalar}.
        """
        F = self.field
        by_m = {}
        for (i, g, x), c in elem.items():
            m = WORD_DEGREE[x] - 2 * i
            by_m.setdefault(m, {})[(i, g, x)] = c
        coords = {}
        for m, part in by_m.items():
            basis = self.basis(n, m)
            pos = {k: p for p, k in enumerate(basis)}
            vec = {pos[k]: F.of(c) for k, c in part.items()}
            resid = self.coboundary_image(n, m).reduce(vec)
            solver, idxs = self._class_solver(n, m)
            sol = solver.solve(resid)
            if sol is None:
                raise ValueError("element is not a cocycle modulo coboundaries")
            for j, idx in enumerate(idxs):
                v = sol.get(j, F.zero)
                if v != F.zero:
                    coords[idx] = v
        return coords

    def _class_solver(self, n: int, m: int):
        """Cached factorized solver expressing residuals in class vectors."""
        if (n, m) not in self._class_solvers:
            F = self.field
            basis = self.basis(n, m)
            pos = {k: p for p, k in enumerate(basis)}
            cls = [(idx, cv) for idx, (mm, cv) in enumerate(self.cocycle_basis(n))
                   if mm == m]
            cols = [{pos[k]: F.of(c) for k, c in cv.items()} for _, cv in cls]
            mat = SparseMat.from_cols(cols, len(basis), F)
            self._class_solvers[(n, m)] = (mat.solver(), [idx for idx, _ in cls])
        return self._class_solvers[(n, m)]


# ---------------------------------------------------------------------------
# published closed formulas
# ---------------------------------------------------------------------------

def total_dim_formula(n: int) -> int:
    if n % 2 == 1:
        return (5 * n + 9) // 2
    if n % 4 == 0:
        return 5 * n // 2 + 4
    return 5 * n // 2 + 5


_HCO_EXPLICIT = {
    0: {4: 1, 2: 2, 0: 1},
    1: {2: 6, 0: 1},
    2: {2: 4, 0: 2, -2: 4},
    3: {0: 7, -2: 5},
    4: {0: 5, -2: 1, -4: 7, -6: 1},
    5: {-2: 5, -4: 11, -6: 1},
    6: {-2: 5, -4: 4, -6: 7, -8: 4},
    7: {-4: 5, -6: 12, -8: 5},
}


def hilbert_series_formula(n: int) -> dict:
    """h^n(t): explicit for n <= 7, the closed general form for n >= 8."""
    if n <= 7:
        return dict(_HCO_EXPLICIT[n])
    out = {}
    q = n // 4
    cn, cn1 = chi(n), chi(n + 1)

    def put(e, c):
        if c:
            _add(out, e - n, c)

    put(4, 5 * cn)
    put(3, 5 * cn1)
    put(2, 5 * cn)
    for i in range(q - 2):
        put(cn1 - 2 * i, 10)
    r = n % 4
    pn = {0: {4: 6, 2: 7, 0: 1}, 1: {5: 10, 3: 11, 1: 1},
          2: {4: 9, 2: 7, 0: 4}, 3: {5: 10, 3: 12, 1: 5}}[r]
    for e, c in pn.items():
        put(-2 * q + e, c)
    return out


def format_laurent(poly: dict, var="t") -> str:
    if not poly:
        return "0"
    bits = []
    for e in sorted(poly, reverse=True):
        c = poly[e]
        if e == 0:
            bits.append(str(c))
        else:
            head = "" if c == 1 else str(c) + "*"
            exp = var if e == 1 else f"{var}^{e}" if e > 0 else f"{var}^({e})"
            bits.append(head + exp)
    return " + ".join(bits)
