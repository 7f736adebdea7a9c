"""The bimodule Koszul complex and the minimal projective bimodule resolution.

Basis bookkeeping: an element of the degree-n resolution module is a sparse
combination of symbols  omega_i (x | u | y)  where x, y are FK(3) basis words,
u is a dual-basis tag of degree n - 4i, and omega_i carries internal degree 6i
(and homological degree 4i).  Keys are tuples (i, x_idx, DualGen, y_idx); the
canonical ordering is (omega, dual tag order, left word, right word).

All differentials preserve the internal degree, so matrices are built and
ranked blockwise per internal degree.

The differential of the glued resolution is a homotopy tower

    delta(omega_i rho) = sum_k omega_{i-k} f^(k)(rho),

with f^(0) = d (the Koszul differential) and f^(1) = f (the published
comparison maps).  The published data satisfies d f + f d = 0 but *not*
f f = 0 (the composite of an even-degree map after an odd-degree one is a
nonzero chain map), so the two-term differential printed in the source
squares to zero only below homological degree 9.  The higher strata
f^(2), f^(3), ... are correcting homotopies solved degreewise from

    sum_{a+b=k} f^(a) f^(b) = 0,

which is always consistent (the right-hand side is a cycle and the Koszul
complex is exact in the relevant degrees).  Every f^(k) with k >= 2 has outer
degree >= 5 on both reductions (tested through k = 4), so the induced homology
and cohomology complexes are reductions of the strata k = 0, 1 alone,
whose generator images `gen_image` gives.
"""

from __future__ import annotations

from .exactmath import QQ, SparseMat
from .fk3core import (
    BASIS_WORDS,
    WORD_DEGREE,
    WORD_INDEX,
    DualGen,
    chi,
    dgen,
    dual_basis,
    dual_dim,
    dual_left_action,
    dual_right_action,
    mul_words,
)

W = WORD_INDEX  # short alias used by the comparison-map tables


def _add_term(out, key, coeff):
    if coeff == 0:
        return
    nv = out.get(key, 0) + coeff
    if nv == 0:
        out.pop(key, None)
    else:
        out[key] = nv


def i_left(elem: dict) -> dict:
    """x|u|y -> sum_L xL | uL | y  (integer coefficients)."""
    out = {}
    for (i, x, u, y), c in elem.items():
        if u.n == 0:
            continue  # the dual action lands in the zero space
        for letter_idx, letter in ((1, "a"), (2, "b"), (3, "c")):
            xl = mul_words(x, letter_idx)
            ul = dual_right_action(u, letter)
            for x2, cx in xl.items():
                for u2, cu in ul.items():
                    _add_term(out, (i, x2, u2, y), c * cx * cu)
    return out


def i_right(elem: dict) -> dict:
    """x|u|y -> sum_L x | Lu | Ly."""
    out = {}
    for (i, x, u, y), c in elem.items():
        if u.n == 0:
            continue
        for letter_idx, letter in ((1, "a"), (2, "b"), (3, "c")):
            ly = mul_words(letter_idx, y)
            lu = dual_left_action(letter, u)
            for y2, cy in ly.items():
                for u2, cu in lu.items():
                    _add_term(out, (i, x, u2, y2), c * cy * cu)
    return out


def koszul_diff_elem(n: int, elem: dict) -> dict:
    """d^b_n = (-1)^n i_l + i_r on a sparse K^b_n element."""
    sign = -1 if n % 2 else 1
    out = {}
    for key, c in i_left(elem).items():
        _add_term(out, key, sign * c)
    for key, c in i_right(elem).items():
        _add_term(out, key, c)
    return out


# ---------------------------------------------------------------------------
# the comparison maps f^b_n : K^b_n -> K^b_{n+3}
# ---------------------------------------------------------------------------

def _fb_terms(n: int, tag: str):
    """Raw term list (coeff, left word, target tag, right word) of f^b_n on
    the degree-n generator with the given dual tag; target tags live in
    degree n + 3."""
    if n == 0:
        # the 36-term value on eps
        return [
            (2, "", "a", "bac"), (2, "", "b", "abc"), (-2, "", "g", "aba"),
            (-1, "", "ab", "abc"), (1, "", "ag", "aba"), (-1, "", "ab2", "bac"),
            (1, "a", "ab", "ba"), (1, "a", "ab", "ac"), (-1, "c", "ab", "ab"),
            (-1, "a", "ag", "bc"), (-1, "b", "ag", "ac"),
            (1, "b", "ab2", "ab"), (1, "b", "ab2", "bc"), (-1, "c", "ab2", "ba"),
            (-2, "b", "a", "ab"), (-2, "b", "a", "bc"), (2, "c", "a", "ba"),
            (-2, "a", "b", "ba"), (-2, "a", "b", "ac"), (2, "c", "b", "ab"),
            (2, "a", "g", "bc"), (2, "b", "g", "ac"),
            (-1, "bc", "ab", "a"), (-1, "ba", "ab", "c"),
            (1, "ab", "ag", "b"), (1, "bc", "ag", "b"),
            (1, "ba", "ag", "a"), (1, "ac", "ag", "a"),
            (-1, "ab", "ab2", "c"), (-1, "ac", "ab2", "b"),
            (2, "ab", "a", "c"), (2, "ac", "a", "b"),
            (2, "bc", "b", "a"), (2, "ba", "b", "c"),
            (-2, "ab", "g", "b"), (-2, "bc", "g", "b"),
            (-2, "ba", "g", "a"), (-2, "ac", "g", "a"),
            (2, "bac", "a", ""), (2, "abc", "b", ""), (-2, "aba", "g", ""),
            (-1, "abc", "ab", ""), (1, "aba", "ag", ""), (-1, "bac", "ab2", ""),
        ]
    cn, cn1 = chi(n), chi(n + 1)
    sgn = -1 if n % 2 else 1  # (-1)^n
    if tag == "a":
        return [
            (2, "", "a", "bac"), (cn, "", "b", "abc"), (-cn, "", "g", "aba"),
            (-1, "", "ab2", "bac"), (-cn, "c", "ab", "ab"),
            (-cn, "b", "ag", "ac"), (cn1, "b", "ab2", "ac"), (cn1, "c", "ab2", "ab"),
            (-cn, "b", "a", "ab"), (-cn, "b", "a", "bc"), (cn, "c", "a", "ba"),
            (2 * sgn, "c", "b", "ab"), (-cn, "a", "b", "ac"),
            (-cn, "a", "g", "ab"), (2 * sgn, "b", "g", "ac"),
            (-cn, "ba", "ab", "c"),
            (cn, "ab", "ag", "b"), (cn, "bc", "ag", "b"),
            (cn1, "ab", "ab2", "b"), (cn1, "bc", "ab2", "b"), (-cn1, "ba", "ab2", "c"),
            (cn, "ac", "a", "b"), (cn, "ab", "a", "c"),
            (2, "ba", "b", "c"), (cn, "ab", "b", "a"), (cn, "bc", "b", "a"),
            (-cn, "ba", "g", "a"), (-2, "ab", "g", "b"), (-2, "bc", "g", "b"),
            (2 * sgn, "bac", "a", ""), (cn, "abc", "b", ""), (-cn, "aba", "g", ""),
            (-sgn, "bac", "ab2", ""),
        ]
    if tag == "b":
        return [
            (2, "", "b", "abc"), (-cn, "", "g", "aba"), (cn, "", "a", "bac"),
            (-cn, "", "ab", "abc"), (-cn1, "", "ab2", "abc"),
            (-cn, "a", "ag", "bc"), (-sgn, "c", "ab2", "ba"), (cn1, "a", "ab2", "bc"),
            (cn, "c", "b", "ab"), (-cn, "a", "b", "ba"), (-cn, "a", "b", "ac"),
            (2 * sgn, "a", "g", "bc"), (-cn, "b", "g", "ba"),
            (-cn, "b", "a", "bc"), (2 * sgn, "c", "a", "ba"),
            (cn, "ba", "ag", "a"), (cn, "ac", "ag", "a"),
            (-1, "ab", "ab2", "c"), (cn1, "ba", "ab2", "a"), (cn1, "ac", "ab2", "a"),
            (cn, "ba", "b", "c"), (cn, "bc", "b", "a"),
            (-2, "ba", "g", "a"), (-2, "ac", "g", "a"), (-cn, "ab", "g", "b"),
            (cn, "ba", "a", "b"), (cn, "ac", "a", "b"), (2, "ab", "a", "c"),
            (2 * sgn, "abc", "b", ""), (-cn, "aba", "g", ""), (cn, "bac", "a", ""),
            (-cn, "abc", "ab", ""), (cn1, "abc", "ab2", ""),
        ]
    if tag == "g":
        return [
            (-2, "", "g", "aba"), (cn, "", "a", "bac"), (cn, "", "b", "abc"),
            (cn, "", "ag", "aba"), (cn1, "", "ab2", "aba"),
            (cn, "a", "ab", "ba"), (cn, "a", "ab", "ac"),
            (-cn1, "a", "ab2", "ba"), (-cn1, "a", "ab2", "ac"),
            (sgn, "b", "ab2", "ab"), (sgn, "b", "ab2", "bc"),
            (cn, "a", "g", "bc"), (cn, "b", "g", "ac"),
            (-2 * sgn, "b", "a", "ab"), (-2 * sgn, "b", "a", "bc"),
            (cn, "c", "a", "ba"), (cn, "c", "a", "ac"),
            (cn, "c", "b", "ab"), (cn, "c", "b", "bc"),
            (-2 * sgn, "a", "b", "ba"), (-2 * sgn, "a", "b", "ac"),
            (-cn, "bc", "ab", "a"),
            (-cn1, "bc", "ab2", "a"), (-1, "ac", "ab2", "b"),
            (-cn, "ba", "g", "a"), (-cn, "ac", "g", "a"),
            (-cn, "ab", "g", "b"), (-cn, "bc", "g", "b"),
            (2, "ac", "a", "b"), (-cn, "bc", "a", "c"),
            (-cn, "ac", "b", "c"), (2, "bc", "b", "a"),
            (-2 * sgn, "aba", "g", ""), (cn, "bac", "a", ""), (cn, "abc", "b", ""),
            (cn, "aba", "ag", ""), (-cn1, "aba", "ab2", ""),
        ]
    if tag == "ab":
        if cn1 == 0:
            return []
        return [
            (n - 1, "", "b", "abc"),
            (1, "a", "a", "ab"), (-(n - 2), "c", "a", "ba"), (1, "c", "a", "ac"),
            (-1, "a", "b", "ab"), (1, "c", "b", "ba"), (1, "c", "b", "ac"),
            (-1, "a", "g", "ab"), (-1, "c", "g", "ba"), (-1, "c", "g", "ac"),
            (-(n - 1), "a", "g", "bc"),
            (-1, "ba", "a", "a"), (n - 1, "ab", "a", "c"), (1, "bc", "a", "c"),
            (1, "ba", "b", "a"), (1, "bc", "b", "c"),
            (-(n - 2), "ba", "g", "a"), (-(n - 1), "ac", "g", "a"),
            (-1, "bc", "g", "c"),
            (-(n - 1), "abc", "b", ""),
        ]
    if tag == "ag":
        if cn1 == 0:
            return []
        return [
            (-(n - 1), "", "g", "aba"),
            (1, "b", "b", "bc"), (n - 1, "a", "b", "ba"), (n - 2, "a", "b", "ac"),
            (-1, "b", "g", "bc"), (-1, "a", "g", "ac"),
            (1, "a", "a", "ac"), (n - 1, "b", "a", "ab"), (n - 2, "b", "a", "bc"),
            (1, "ba", "b", "b"), (1, "ac", "b", "b"), (n - 2, "bc", "b", "a"),
            (-1, "ab", "b", "a"),
            (-1, "ba", "g", "b"), (-1, "ac", "g", "b"),
            (-1, "ab", "g", "a"), (-1, "bc", "g", "a"),
            (n - 2, "ac", "a", "b"), (-1, "ba", "a", "b"),
            (1, "ab", "a", "a"), (1, "bc", "a", "a"),
            (n - 1, "aba", "g", ""),
        ]
    if tag == "ab2":
        odd_part = []
        if cn1 == 1:
            odd_part = [
                (n - 1, "", "a", "bac"),
                (-1, "c", "g", "ab"), (-1, "c", "g", "bc"),
                (-(n - 1), "b", "g", "ac"), (-1, "b", "g", "ba"),
                (1, "c", "a", "ab"), (1, "c", "a", "bc"), (-1, "b", "a", "ba"),
                (1, "b", "b", "ba"), (-(n - 2), "c", "b", "ab"), (1, "c", "b", "bc"),
                (-1, "ac", "g", "c"), (-(n - 1), "bc", "g", "b"),
                (-(n - 2), "ab", "g", "b"),
                (1, "ac", "a", "c"), (1, "ab", "a", "b"),
                (1, "ac", "b", "c"), (n - 1, "ba", "b", "c"), (-1, "ab", "b", "b"),
                (-(n - 1), "bac", "a", ""),
            ]
        even_part = []
        if cn == 1 and n != 2:
            k = n - 2
            even_part = [
                (k, "", "a", "bac"), (k, "", "b", "abc"), (-k, "", "g", "aba"),
                (-k, "b", "a", "ab"), (-k, "b", "a", "bc"), (k, "c", "a", "ba"),
                (k, "c", "b", "ab"), (-k, "a", "b", "ba"), (-k, "a", "b", "ac"),
                (k, "a", "g", "bc"), (k, "b", "g", "ac"),
                (k, "ac", "a", "b"), (k, "ab", "a", "c"),
                (k, "ba", "b", "c"), (k, "bc", "b", "a"),
                (-k, "ba", "g", "a"), (-k, "ac", "g", "a"),
                (-k, "ab", "g", "b"), (-k, "bc", "g", "b"),
                (k, "bac", "a", ""), (k, "abc", "b", ""), (-k, "aba", "g", ""),
            ]
        return odd_part + even_part
    raise ValueError(f"f^b has no value on tag {tag!r}")


def fb_on_gen(n: int, gen: DualGen) -> dict:
    """f^b_n(1|gen|1) as a sparse K^b_{n+3} element with integer coefficients."""
    out = {}
    for coeff, lw, ttag, rw in _fb_terms(n, gen.tag):
        tgen = dgen(ttag, n + 3) if ttag != "eps" else dgen("eps", 0)
        if tgen is None:
            continue
        _add_term(out, (0, W[lw], tgen, W[rw]), coeff)
    return out


def fb_elem(n: int, elem: dict) -> dict:
    """Bimodule extension of f^b_n to sparse K^b_n elements."""
    out = {}
    gen_values = {}
    for (i, x, u, y), c in elem.items():
        if u not in gen_values:
            gen_values[u] = fb_on_gen(n, u)
        for (_, l, v, r), s in gen_values[u].items():
            xl = mul_words(x, l)
            ry = mul_words(r, y)
            for x2, cx in xl.items():
                for y2, cy in ry.items():
                    _add_term(out, (i, x2, v, y2), c * s * cx * cy)
    return out


def gen_image(k: int, n: int, gen: DualGen) -> dict:
    """f^(k)_n(1|gen|1) for the closed-form strata k = 0 (d) and k = 1 (f)."""
    if k == 0:
        return koszul_diff_elem(n, {(0, W[""], gen, W[""]): 1})
    if k == 1:
        return fb_on_gen(n, gen)
    raise ValueError(f"stratum {k} has no closed form; it is solved per "
                     "resolution (BimoduleResolution.stratum_on_gen)")


def f_reduced_on_gen(n: int, gen: DualGen) -> dict:
    """id_k (x)_A f^b_n: the right-module comparison map value on gen|1.

    Keys are (DualGen, word_idx) pairs of the trivial-module Koszul complex.
    """
    out = {}
    for (_, l, v, r), c in fb_on_gen(n, gen).items():
        if l == W[""]:
            key = (v, r)
            _add_term(out, key, c)
    return out


# ---------------------------------------------------------------------------
# the resolution P^b with its bigraded matrices
# ---------------------------------------------------------------------------

def kb_comp_basis(deg: int, intdeg: int):
    """Basis keys of the internal-degree component of K^b_deg."""
    out = []
    for g in dual_basis(deg):
        for x in range(len(BASIS_WORDS)):
            for y in range(len(BASIS_WORDS)):
                if WORD_DEGREE[x] + g.n + WORD_DEGREE[y] == intdeg:
                    out.append((0, x, g, y))
    return out


class BimoduleResolution:
    """P^b_n = sum_i omega_i K^b_{n-4i}, with blockwise differential matrices."""

    def __init__(self, field=QQ, max_n=12):
        self.field = field
        self.max_n = max_n
        self._basis = {}
        self._index = {}
        self._comp = {}
        self._delta_blocks = {}
        self._homotopy = {}  # (k, n) -> {tag: {basis key: int}}

    # ----- the homotopy tower f^(k) -----

    def stratum_on_gen(self, k: int, n: int, gen: DualGen) -> dict:
        """f^(k)_n(1|gen|1) as a sparse K^b_{n+4k-1} element."""
        if k <= 1:
            return gen_image(k, n, gen)
        if (k, n) not in self._homotopy:
            self._solve_homotopy(k, n)
        return {key: c for key, c in
                self._homotopy[(k, n)].get(gen.tag, {}).items()}

    def stratum_elem(self, k: int, n: int, elem: dict) -> dict:
        """Bimodule extension of f^(k)_n to sparse K^b_n elements."""
        if k == 0:
            return koszul_diff_elem(n, elem)
        out = {}
        vals = {}
        for (i, x, u, y), c in elem.items():
            if u not in vals:
                vals[u] = self.stratum_on_gen(k, n, u)
            for (_, l, v, r), s in vals[u].items():
                for x2, cx in mul_words(x, l).items():
                    for y2, cy in mul_words(r, y).items():
                        _add_term(out, (i, x2, v, y2), c * s * cx * cy)
        return out

    def _solve_homotopy(self, k: int, n: int):
        """Solve d f^(k)_n = - sum_{a+b=k, a<k} f^(a) f^(b) - f^(k)_{n-1} d."""
        one = W[""]
        gens = dual_basis(n)
        rhs_by_gen = {}
        for g in gens:
            e = {(0, one, g, one): 1}
            rhs = {}
            # middle strata: a, b >= 1, a + b = k
            for b in range(1, k):
                a = k - b
                inner = self.stratum_elem(b, n, e)
                for key, c in self.stratum_elem(a, n + 4 * b - 1, inner).items():
                    _add_term(rhs, key, -c)
            # previous homotopy of the same stratum: f^(k)_{n-1} d_n
            if n >= 1:
                de = koszul_diff_elem(n, e)
                for key, c in self.stratum_elem(k, n - 1, de).items():
                    _add_term(rhs, key, -c)
            rhs_by_gen[g] = rhs
        # one linear solve per generator against the Koszul differential,
        # restricted to the single internal degree n + 6k of the images
        target_deg = n + 4 * k - 1
        intdeg = n + 6 * k
        src = kb_comp_basis(target_deg, intdeg)
        tgt = kb_comp_basis(target_deg - 1, intdeg)
        tgt_pos = {key: i for i, key in enumerate(tgt)}
        F = self.field
        mat = self.koszul_block(target_deg, intdeg)
        rhs_vecs = []
        for g in gens:
            vec = {}
            for key, c in rhs_by_gen[g].items():
                vec[tgt_pos[key]] = F.of(c)
            rhs_vecs.append(vec)
        sols = mat.solve_many(rhs_vecs)
        store = {}
        for g, sol in zip(gens, sols):
            if sol is None:
                raise RuntimeError(
                    f"homotopy stratum {k} at degree {n} is obstructed; "
                    "the comparison-map data is inconsistent")
            terms = {}
            for pos, v in sol.items():
                if F.characteristic == 0 and v.denominator != 1:
                    # clear denominators are not required mathematically, but
                    # integer strata keep the triplet cache format uniform
                    terms[src[pos]] = v
                else:
                    terms[src[pos]] = int(v)
            store[g.tag] = terms
        self._homotopy[(k, n)] = store

    def pb_gens(self, n: int):
        """Free bimodule generators: (omega, DualGen of degree n-4i)."""
        if n < 0:
            return []
        return [(i, g) for i in range(n // 4 + 1) for g in dual_basis(n - 4 * i)]

    def pb_basis(self, n: int):
        if n < 0:
            return []
        if n not in self._basis:
            basis = []
            for i in range(n // 4 + 1):
                for g in dual_basis(n - 4 * i):
                    for x in range(len(BASIS_WORDS)):
                        for y in range(len(BASIS_WORDS)):
                            basis.append((i, x, g, y))
            self._basis[n] = basis
            self._index[n] = {key: pos for pos, key in enumerate(basis)}
        return self._basis[n]

    def pb_dim(self, n: int) -> int:
        return len(self.pb_basis(n))

    @staticmethod
    def intdeg(key) -> int:
        i, x, g, y = key
        return WORD_DEGREE[x] + g.n + WORD_DEGREE[y] + 6 * i

    def pb_comp(self, n: int, d: int):
        """Positions of the internal-degree-d part of P^b_n."""
        if (n, d) not in self._comp:
            bydeg = {}
            for pos, key in enumerate(self.pb_basis(n)):
                bydeg.setdefault(self.intdeg(key), []).append(pos)
            for dd, lst in bydeg.items():
                self._comp[(n, dd)] = lst
            self._comp.setdefault((n, d), [])
        return self._comp[(n, d)]

    def intdegs(self, n: int):
        return sorted({self.intdeg(k) for k in self.pb_basis(n)})

    def delta_elem(self, n: int, elem: dict) -> dict:
        """delta^b_n of a sparse P^b_n element: the full homotopy tower."""
        out = {}
        by_layer = {}
        for key, c in elem.items():
            by_layer.setdefault(key[0], {})[key] = c
        for i, part in by_layer.items():
            deg = n - 4 * i
            for k in range(i + 1):
                shifted = {(i - k, x, g, y): c
                           for (ii, x, g, y), c in part.items()}
                for key, c in self.stratum_elem(k, deg, shifted).items():
                    _add_term(out, key, c)
        return out

    def koszul_block(self, n: int, d: int) -> SparseMat:
        """Matrix of the Koszul differential d^b_n on the internal-degree-d
        component of K^b_n (columns) into K^b_{n-1} (rows)."""
        F = self.field
        src = kb_comp_basis(n, d)
        tgt = kb_comp_basis(n - 1, d)
        pos = {key: r for r, key in enumerate(tgt)}
        entries = {}
        for col, key in enumerate(src):
            for key2, c in koszul_diff_elem(n, {key: 1}).items():
                entries[(pos[key2], col)] = F.of(c)
        return SparseMat(len(tgt), len(src), entries, F)

    def delta_block(self, n: int, d: int) -> SparseMat:
        """Matrix of delta^b_n on the internal-degree-d component."""
        if (n, d) in self._delta_blocks:
            return self._delta_blocks[(n, d)]
        F = self.field
        src = self.pb_comp(n, d)
        tgt = self.pb_comp(n - 1, d)
        tgt_pos = {self.pb_basis(n - 1)[p]: r for r, p in enumerate(tgt)}
        entries = {}
        basis = self.pb_basis(n)
        for col, pos in enumerate(src):
            img = self.delta_elem(n, {basis[pos]: 1})
            for key, c in img.items():
                entries[(tgt_pos[key], col)] = F.of(c)
        mat = SparseMat(len(tgt), len(src), entries, F)
        self._delta_blocks[(n, d)] = mat
        return mat

    def delta_rank(self, n: int) -> int:
        if n > self.max_n + 1:
            raise ValueError(f"delta_{n} lies beyond the resolution's "
                             f"degree range (max_n = {self.max_n})")
        if n <= 0:
            return 0
        return sum(self.delta_block(n, d).rank() for d in self.intdegs(n))

    def comp_vector(self, n: int, d: int, elem: dict, field=None):
        """Coordinates of an element supported in internal degree d."""
        F = field or self.field
        pos_of = {self.pb_basis(n)[p]: r for r, p in enumerate(self.pb_comp(n, d))}
        out = {}
        for key, c in elem.items():
            c = F.of(c)
            if c != F.zero:
                out[pos_of[key]] = c
        return out

    def comp_element(self, n: int, d: int, vec: dict):
        basis = self.pb_basis(n)
        comp = self.pb_comp(n, d)
        return {basis[comp[r]]: c for r, c in vec.items()}

    def minimality_violations(self, n: int):
        """Generator-image terms with both outer words trivial (must be none)."""
        bad = []
        one = W[""]
        for i, g in self.pb_gens(n):
            img = self.delta_elem(n, {(i, one, g, one): 1})
            for (j, x, v, y), c in img.items():
                if x == one and y == one:
                    bad.append(((i, g), (j, v), c))
        return bad

    def exactness_defect(self, n: int) -> int:
        """dim P^b_n - rank(delta_n) - rank(delta_{n+1}); 0 at exact degrees n >= 1."""
        return self.pb_dim(n) - self.delta_rank(n) - self.delta_rank(n + 1)
