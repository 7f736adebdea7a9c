"""Hochschild homology of FK(3) via the induced complex of the resolution.

The complex A (x)_{A^e} P has components P~_{n,m} = sum_i omega_i K~_{n-4i,m-2i}
with K~_{n,m} = A_m (x) (dual of degree n); basis keys are (i, word_idx,
DualGen).  Its differential is derived from the resolution: the strata
f^(0) = d and f^(1) = f of each generator's image are reduced by
x (x) l|v|r -> (r x l)|v (`reduce_image`); the higher strata vanish under
this reduction.  The transcribed image tables live in `fk3hh.tables` as a
verification oracle only.

Dimensions of boundaries/cycles/homology come from ranks, never from the
hand-picked representative bases; those enter only through
`verify_representatives`, which checks the listed families are valid and
independent where transcribed.
"""

from __future__ import annotations

from .exactmath import QQ, SparseMat, Subspace
from .fk3core import (
    BASIS_BY_DEGREE,
    WORD_DEGREE,
    WORD_INDEX,
    DualGen,
    chi,
    dgen,
    dual_basis,
    mul_table,
)
from .resolution import gen_image

W = WORD_INDEX


def _add(out, key, c):
    if not c:
        return
    nv = out.get(key, 0) + c
    if nv == 0:
        out.pop(key, None)
    else:
        out[key] = nv


def reduce_image(image: dict, x: int, i: int = 0, out=None) -> dict:
    """The homology reduction of omega_i x (x)_{A^e} image.

    x (x) c l|v|r goes to c (r x l)|v, so a bimodule image
    {(_, l, v, r): c} becomes {(i, word_idx, v): int}, added into `out`.
    """
    if out is None:
        out = {}
    table = mul_table()
    room = 4 - WORD_DEGREE[x]  # A vanishes above degree 4
    for (_, lw, v, rw), c in image.items():
        if WORD_DEGREE[lw] + WORD_DEGREE[rw] > room:
            continue
        for m1, c1 in table[(rw, x)].items():
            for m2, c2 in table[(m1, lw)].items():
                key = (i, m2, v)
                nv = out.get(key, 0) + c * c1 * c2
                if nv:
                    out[key] = nv
                else:
                    del out[key]
    return out


# ---------------------------------------------------------------------------
# the bigraded complex and its dimensions
# ---------------------------------------------------------------------------

class HomologyComplex:
    """The induced complex with components indexed by (n, m)."""

    def __init__(self, field=QQ, max_n=19):
        self.field = field
        self.max_n = max_n
        self._basis = {}
        self._mat = {}
        self._rank = {}
        self._images = {}

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
        return len(self.basis(n, m))

    def _image(self, k: int, n: int, g: DualGen) -> dict:
        """f^(k)_n(1|g|1), computed once per (k, n, g)."""
        if (k, n, g) not in self._images:
            self._images[(k, n, g)] = gen_image(k, n, g)
        return self._images[(k, n, g)]

    def diff_key(self, n: int, key) -> dict:
        """Differential of a single basis element of degree n."""
        i, x, g = key
        deg = n - 4 * i
        out = reduce_image(self._image(0, deg, g), x, i)
        if i >= 1:
            reduce_image(self._image(1, deg, g), x, i - 1, out)
        return out

    def diff_elem(self, n: int, elem: dict) -> dict:
        out = {}
        for key, c in elem.items():
            for key2, c2 in self.diff_key(n, key).items():
                _add(out, key2, c * c2)
        return out

    def matrix(self, n: int, m: int) -> SparseMat:
        """Matrix of the differential (n, m) -> (n-1, m+1)."""
        if (n, m) in self._mat:
            return self._mat[(n, m)]
        F = self.field
        src = self.basis(n, m)
        tgt = self.basis(n - 1, m + 1)
        pos = {k: r for r, k in enumerate(tgt)}
        ent = {}
        for col, key in enumerate(src):
            for key2, c in self.diff_key(n, key).items():
                ent[(pos[key2], col)] = F.of(c)
        mat = SparseMat(len(tgt), len(src), ent, F)
        self._mat[(n, m)] = mat
        return mat

    def kt_matrix(self, n: int, m: int) -> SparseMat:
        """Matrix of the one-stratum differential on the omega_0 block only."""
        F = self.field
        src = [k for k in self.basis(n, m) if k[0] == 0]
        tgt = [k for k in self.basis(n - 1, m + 1) if k[0] == 0]
        pos = {k: r for r, k in enumerate(tgt)}
        ent = {}
        for col, (_, x, g) in enumerate(src):
            for key2, c in reduce_image(self._image(0, n, g), x).items():
                ent[(pos[key2], col)] = F.of(c)
        return SparseMat(len(tgt), len(src), ent, F)

    def dim_one_stratum_homology(self, n: int, m: int) -> int:
        """Homology dimension of the omega_0 (one-stratum) complex at (n, m)."""
        if n < 0 or not 0 <= m <= 4:
            return 0
        dim = len([k for k in self.basis(n, m) if k[0] == 0])
        r_out = self.kt_matrix(n, m).rank() if n >= 1 and dim else 0
        r_in = self.kt_matrix(n + 1, m - 1).rank() if m >= 1 else 0
        return dim - r_out - r_in

    def rank(self, n: int, m: int) -> int:
        if n < 1 or m < 0 or not self.basis(n, m):
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
                _add(h, 0, -1)  # reduce by the unit class
            g = dict(h)
            for e, c in prev.items():
                _add(g, e, -c)
            out.append(g)
            prev = g
        return out


# ---------------------------------------------------------------------------
# published closed formulas (the verification layer)
# ---------------------------------------------------------------------------

def total_dim_formula(n: int) -> int:
    if n == 0:
        return 6
    r = n % 4
    if r == 0:
        return 5 * n // 2 + 5
    if r == 1:
        return (5 * n + 13) // 2
    if r == 2:
        return 5 * n // 2 + 6
    return (5 * n + 9) // 2


_H_EXPLICIT = {
    0: {0: 1, 1: 3, 2: 2},
    1: {1: 3, 2: 3, 3: 2, 5: 1},
    2: {2: 1, 3: 6, 4: 2, 5: 1, 6: 1},
    3: {3: 4, 4: 3, 6: 1, 7: 4},
    4: {4: 1, 5: 4, 7: 7, 8: 3},
    5: {5: 4, 6: 1, 7: 3, 8: 4, 9: 6, 11: 1},
}


def hilbert_series_formula(n: int) -> dict:
    """h_n(t): explicit for n <= 5, the closed general form for n >= 6."""
    if n <= 5:
        return dict(_H_EXPLICIT[n])
    out = {}
    q = n // 4
    cn, cn1 = chi(n), chi(n + 1)

    def put(e, c):
        if c:
            _add(out, n + e, c)

    put(0, 1 + 3 * cn1)
    put(1, 3 * cn + 1)
    put(2, 1 + 3 * cn1)
    mu = q - 3 if n % 4 in (0, 1) else q - 2
    for i in range(mu + 1):
        put(3 + 2 * i, 2 + 6 * cn)
        put(4 + 2 * i, 2 + 6 * cn1)
    r = n % 4
    if r == 0:
        for e, c in ((2 * q - 1, 8), (2 * q, 1), (2 * q + 1, 7), (2 * q + 2, 3)):
            put(e, c)
    elif r == 1:
        for e, c in ((2 * q - 1, 2), (2 * q, 7), (2 * q + 1, 4), (2 * q + 2, 6),
                     (2 * q + 4, 1)):
            put(e, c)
    elif r == 2:
        for e, c in ((2 * q + 1, 10), (2 * q + 2, 3), (2 * q + 3, 1),
                     (2 * q + 4, 1)):
            put(e, c)
    else:
        for e, c in ((2 * q + 1, 4), (2 * q + 2, 4), (2 * q + 3, 1),
                     (2 * q + 4, 4)):
            put(e, c)
    return out


_G_EXPLICIT = {
    0: {1: 3, 2: 2},
    1: {2: 1, 3: 2, 5: 1},
    2: {3: 4, 4: 2, 6: 1},
    3: {4: 1, 7: 4},
}


def cyclic_series_formula(n: int) -> dict:
    """g_n(t): explicit for n <= 3, the closed general form for n >= 4."""
    if n <= 3:
        return dict(_G_EXPLICIT[n])
    out = {}
    q = n // 4
    cn, cn1 = chi(n), chi(n + 1)

    def put(e, c):
        if c:
            _add(out, n + 1 + e, c)

    put(0, 1 + 3 * cn)
    for i in range(q - 1):
        put(2 + 2 * i, 1 + 3 * cn)
        put(3 + 2 * i, 1 + 3 * cn1)
    r = n % 4
    qpoly = {0: {0: 3, 1: 3}, 1: {0: 1, 1: 6, 3: 1},
             2: {0: 4, 1: 3, 3: 1}, 3: {0: 1, 1: 4, 3: 4}}[r]
    for e, c in qpoly.items():
        put(2 * q + e, c)
    return out


def format_series(poly: dict, var="t") -> str:
    if not poly:
        return "0"
    bits = []
    for e in sorted(poly):
        c = poly[e]
        if e == 0:
            bits.append(str(c))
        else:
            head = "" if c == 1 else ("-" if c == -1 else str(c) + "*")
            exp = var if e == 1 else f"{var}^{e}"
            bits.append(head + exp)
    return " + ".join(bits).replace("+ -", "- ")


# ---------------------------------------------------------------------------
# the published representative families (optional verification inputs)
# ---------------------------------------------------------------------------

def _pe(i, word, tag, k):
    """One basis term omega_i word|gen; None when the tag is a zero symbol."""
    g = dgen(tag, k) if tag != "eps" else DualGen(0, "eps")
    if g is None:
        return None
    return (i, W[word], g)


def _elem(*terms):
    out = {}
    for t in terms:
        if len(t) == 5:
            i, word, tag, k, c = t
        else:
            i, word, tag, k = t
            c = 1
        key = _pe(i, word, tag, k)
        if key is not None:
            _add(out, key, c)
    return out


def _omega_shift(elem: dict, j: int) -> dict:
    return {(i + j, x, g): c for (i, x, g), c in elem.items()}


def _cycle_reps_m0(n):
    """The published kernel bases at m = 0."""
    if n == 0:
        return [_elem((0, "", "eps", 0))]
    if n == 1:
        return [_elem((0, "", "a", 1)), _elem((0, "", "b", 1)),
                _elem((0, "", "g", 1))]
    if n % 2 == 1:
        return [
            _elem((0, "", "a", n)), _elem((0, "", "b", n)),
            _elem((0, "", "g", n)),
            _elem((0, "", "ab", n), (0, "", "ag", n), (0, "", "ab2", n)),
        ]
    return [_elem((0, "", "ab", n), (0, "", "ag", n, -1))]


def _homology_reps_m1(n):
    if n == 0:
        return [_elem((0, "a", "eps", 0)), _elem((0, "b", "eps", 0)),
                _elem((0, "c", "eps", 0))]
    if n == 1:
        return [
            _elem((0, "a", "g", 1), (0, "c", "a", 1)),
            _elem((0, "b", "a", 1), (0, "c", "a", 1, -1), (0, "c", "b", 1)),
            _elem((0, "b", "g", 1), (0, "c", "b", 1)),
        ]
    if n == 2:
        return [
            _elem((0, "a", "a", 2)), _elem((0, "b", "b", 2)),
            _elem((0, "c", "g", 2)),
            _elem((0, "a", "b", 2), (0, "a", "ag", 2), (0, "c", "b", 2),
                  (0, "c", "ab", 2)),
            _elem((0, "a", "g", 2), (0, "a", "ab", 2), (0, "b", "g", 2),
                  (0, "b", "ag", 2)),
            _elem((0, "b", "a", 2), (0, "b", "ag", 2), (0, "c", "a", 2),
                  (0, "c", "ab", 2)),
        ]
    if n == 3:
        return [
            _elem((0, "a", "b", 3), (0, "a", "ab", 3), (0, "b", "g", 3),
                  (0, "b", "ag", 3), (0, "c", "a", 3), (0, "c", "ab2", 3)),
            _elem((0, "a", "ag", 3), (0, "a", "b", 3, -1), (0, "b", "ag", 3),
                  (0, "b", "a", 3, -1), (0, "c", "a", 3, 2), (0, "c", "b", 3, 2)),
            _elem((0, "a", "b", 3, 2), (0, "a", "g", 3, 2), (0, "b", "ab2", 3),
                  (0, "b", "g", 3, -1), (0, "c", "ab2", 3), (0, "c", "b", 3, -1)),
        ]
    if n % 2 == 0:
        return [
            _elem((0, "a", "a", n)), _elem((0, "b", "b", n)),
            _elem((0, "c", "g", n)),
            _elem(*[(0, w, t, n) for w in ("a", "b", "c")
                    for t in ("ab", "ag", "ab2", "a", "b", "g")]),
        ]
    return [
        _elem((0, "a", "b", n), (0, "a", "ab", n), (0, "b", "g", n),
              (0, "b", "ag", n), (0, "c", "a", n), (0, "c", "ab2", n)),
    ]


def _homology_reps_m2(n):
    if n == 0:
        return [_elem((0, "ab", "eps", 0)), _elem((0, "bc", "eps", 0))]
    if n == 1:
        return [
            _elem((0, "ba", "b", 1), (0, "ba", "g", 1), (0, "ac", "b", 1),
                  (0, "ac", "g", 1)),
            _elem((0, "ac", "a", 1), (0, "ac", "g", 1)),
        ]
    if n == 2:
        return [
            _elem((0, "ab", "b", 2), (0, "ab", "g", 2, -1), (0, "bc", "ab", 2),
                  (0, "bc", "b", 2, -1), (0, "bc", "g", 2, -2)),
            _elem((0, "ab", "ab", 2), (0, "ab", "a", 2, -2), (0, "ab", "b", 2, -1),
                  (0, "bc", "b", 2), (0, "bc", "a", 2, -1)),
        ]
    if n in (3, 4):
        return []
    if n % 2 == 1:
        return [_omega_shift(e, 1) for e in _cycle_reps_m0(n - 4)]
    return [_omega_shift(_elem((0, "", "ab", n - 4), (0, "", "ag", n - 4, -1)), 1)]


def _homology_reps_m3(n):
    if n in (0, 1):
        return []
    if n == 2:
        return [_elem((0, "bac", "a", 2))]
    if n == 3:
        return [_elem((0, "aba", "ab", 3), (0, "bac", "ab", 3))]
    if n == 4:
        return [_elem((0, "bac", "a", 4)),
                _elem((0, "aba", "ab2", 4)), _elem((0, "abc", "ab2", 4)),
                _elem((0, "bac", "ab2", 4)),
                _elem((1, "a", "eps", 0)), _elem((1, "b", "eps", 0)),
                _elem((1, "c", "eps", 0))]
    if n == 5:
        return [_elem((0, "aba", "ab", 5), (0, "bac", "ab", 5))] + \
            [_omega_shift(e, 1) for e in _homology_reps_m1(1)]
    if n % 2 == 0:
        base = [_elem((0, "bac", "a", n)),
                _elem((0, "aba", "ab2", n)), _elem((0, "abc", "ab2", n)),
                _elem((0, "bac", "ab2", n))]
        return base + [_omega_shift(e, 1) for e in _homology_reps_m1(n - 4)]
    return [_elem((0, "aba", "ab", n), (0, "bac", "ab", n))] + \
        [_omega_shift(e, 1) for e in _homology_reps_m1(n - 4)]


def _homology_reps_m4(n):
    if n == 0:
        return []
    tilde = []
    if n % 2 == 1:
        tilde = [_elem((0, "abac", "a", n)), _elem((0, "abac", "ab", n)),
                 _elem((0, "abac", "ag", n)), _elem((0, "abac", "ab2", n))]
    else:
        tilde = [_elem((0, "abac", "ab", n))]
    tilde = [e for e in tilde if e]
    lower = [_omega_shift(e, 1) for e in _homology_reps_m2(n - 4)] if n >= 4 else []
    return tilde + lower


def homology_representatives(n: int, m: int):
    """The published homology representative family at (n, m), or None."""
    if m == 0:
        return _cycle_reps_m0(n)
    if m == 1:
        return _homology_reps_m1(n)
    if m == 2:
        return _homology_reps_m2(n)
    if m == 3:
        return _homology_reps_m3(n)
    if m == 4:
        return _homology_reps_m4(n)
    return None  # not transcribed beyond m = 4


def boundary_representatives(n: int, m: int):
    """Published image bases where transcribed (m = 0, 1, 4), else None."""
    if m == 0:
        return []
    if m == 1:
        if n == 0:
            return []
        if n == 1:
            return [
                _elem((0, "a", "a", 1)), _elem((0, "b", "b", 1)),
                _elem((0, "c", "g", 1)),
                _elem((0, "a", "b", 1), (0, "c", "b", 1), (0, "b", "g", 1),
                      (0, "a", "g", 1), (0, "c", "a", 1), (0, "b", "a", 1)),
            ]
        if n % 2 == 1:
            return [
                _elem((0, "a", "a", n)), _elem((0, "b", "b", n)),
                _elem((0, "c", "g", n)),
                _elem((0, "a", "b", n), (0, "a", "ab", n), (0, "c", "b", n),
                      (0, "c", "ab", n), (0, "b", "g", n), (0, "b", "ag", n),
                      (0, "a", "g", n), (0, "a", "ag", n), (0, "c", "a", n),
                      (0, "c", "ab2", n), (0, "b", "a", n), (0, "b", "ab2", n)),
                _elem((0, "a", "ab2", n), (0, "b", "ab", n), (0, "c", "ag", n)),
            ]
        return [
            _elem((0, "c", "ab", n), (0, "c", "ag", n, -1), (0, "a", "ab", n, -1),
                  (0, "a", "ag", n)),
            _elem((0, "a", "ab", n), (0, "a", "ag", n, -1), (0, "b", "ab", n, -1),
                  (0, "b", "ag", n)),
        ]
    if m == 4:
        if n == 0:
            return [_elem((0, "abac", "eps", 0))]
        if n % 2 == 1:
            return [
                _elem((0, "abac", "a", n), (0, "abac", "ab2", n),
                      (0, "abac", "b", n, -1), (0, "abac", "ab", n, -1)),
                _elem((0, "abac", "a", n), (0, "abac", "ab2", n),
                      (0, "abac", "g", n, -1), (0, "abac", "ag", n, -1)),
            ]
        if n == 2:
            return [_elem((0, "abac", "a", 2)), _elem((0, "abac", "b", 2)),
                    _elem((0, "abac", "g", 2)),
                    _elem((0, "abac", "ab", 2), (0, "abac", "ag", 2))]
        return [_elem((0, "abac", "a", n)), _elem((0, "abac", "b", n)),
                _elem((0, "abac", "g", n)),
                _elem((0, "abac", "ab", n), (0, "abac", "ag", n)),
                _elem((0, "abac", "ab2", n))]
    return None


class NotTranscribed(Exception):
    """The requested representative family is not in the registry."""


def verify_representatives(cx: HomologyComplex, family: str, n: int, m: int):
    """Check a published family: membership, independence, expected count.

    family: 'H' (homology reps), 'B' (boundaries), 'D' (cycles at m=0).
    Returns a dict report; raises NotTranscribed outside the registry.
    """
    F = cx.field
    basis = cx.basis(n, m)
    pos = {k: i for i, k in enumerate(basis)}

    def vec(elem):
        return {pos[k]: F.of(c) for k, c in elem.items()}

    if family == "H":
        reps = homology_representatives(n, m)
        if reps is None:
            raise NotTranscribed((family, n, m))
        expected = cx.dim_homology(n, m)
        cycles_ok = all(not cx.diff_elem(n, e) for e in reps)
        bnd = cx.matrix(n + 1, m - 1).image() if m >= 1 else Subspace(len(basis), [], F)
        span_vecs = bnd.basis_dicts() + [vec(e) for e in reps]
        indep = Subspace.span(len(basis), span_vecs, F).dim == bnd.dim + len(reps)
        ok = cycles_ok and indep and len(reps) == expected
        return {"family": "H", "n": n, "m": m, "count": len(reps),
                "expected": expected, "cycles": cycles_ok,
                "independent_mod_boundaries": indep, "ok": ok}
    if family == "B":
        # the published image bases are one-stratum (K~-level) objects
        reps = boundary_representatives(n, m)
        if reps is None:
            raise NotTranscribed((family, n, m))
        kt_basis = [k for k in basis if k[0] == 0]
        kpos = {k: i for i, k in enumerate(kt_basis)}
        kvec = lambda e: {kpos[k]: F.of(c) for k, c in e.items()}
        expected = cx.kt_matrix(n + 1, m - 1).rank() if m >= 1 else 0
        img = cx.kt_matrix(n + 1, m - 1).image() if m >= 1 else \
            Subspace(len(kt_basis), [], F)
        member = all(img.contains(kvec(e)) for e in reps)
        indep = Subspace.span(len(kt_basis), [kvec(e) for e in reps],
                              F).dim == len(reps)
        ok = member and indep and len(reps) == expected
        return {"family": "B", "n": n, "m": m, "count": len(reps),
                "expected": expected, "members": member, "independent": indep,
                "ok": ok}
    if family == "D":
        if m != 0:
            raise NotTranscribed((family, n, m))
        reps = _cycle_reps_m0(n)
        expected = cx.dim_cycles(n, m)
        cycles_ok = all(not cx.diff_elem(n, e) for e in reps)
        indep = Subspace.span(len(basis), [vec(e) for e in reps], F).dim == len(reps)
        ok = cycles_ok and indep and len(reps) == expected
        return {"family": "D", "n": n, "m": m, "count": len(reps),
                "expected": expected, "cycles": cycles_ok, "independent": indep,
                "ok": ok}
    raise ValueError(f"unknown family {family!r}")
