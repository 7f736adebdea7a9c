"""The bimodule Koszul complex and the minimal projective bimodule resolution.

Basis bookkeeping: an element of the degree-n resolution module is a sparse
combination of symbols  omega_i (x | u | y)  where x, y are FK(3) basis words,
u is a dual-basis tag of degree n - 4i, and omega_i carries internal degree 6i
(and homological degree 4i).  Keys are tuples (i, x_idx, DualGen, y_idx).
A vector of the internal-degree-d component of P^b_n has one coordinate
system, comp_basis(n, d): layer by layer, kb_comp_basis(n - 4i, d - 6i)
moved to layer i, each ordered (dual tag, left word, right word).  The
delta-blocks, their solvers and comp_vector / comp_element all use it.

All differentials preserve the internal degree, so matrices are built and
ranked blockwise per internal degree.  The block of delta_n from omega_i to
omega_{i-k} at internal degree d is stratum k on K_{n-4i} at internal degree
d - 6i, whatever i is: each such layer-free piece (k, n - 4i, d - 6i) is
built once per resolution, as integer triplets in kb_comp_basis coordinates,
one generator u of K_{n-4i} at a time, by the one bimodule extension
(extend_into) that every stratum uses: each term l|v|r of f^(k)(1|u|1) meets
only the outer words x, y with x.l != 0 and r.y != 0.  The blocks are
assembled from the pieces by offsetting rows and columns by layer, into a
SparseMat that keeps the raw entries; the cup layer's lifts factorise them
as they are, the strata solves factorise the Koszul pieces (koszul_block),
and neither a block nor a full basis of P^b_n is kept.

Exactness is checked on P (x)_A k, which is the induced complex
eps A (x)_{A^e} P of `fk3hh.homology`: `homology.exactness_defects`, with
the graded-Nakayama lemma that makes it a check of P.  This module keeps
only the bimodule resolution that the strata solves and the cup layer's
lifts use.

The differential of the glued resolution is a homotopy tower

    delta(omega_i rho) = sum_k omega_{i-k} f^(k)(rho),

with f^(0) = d (the Koszul differential, d = (-1)^n i_l + i_r) and
f^(1) = f (the published comparison maps).  Each of the two is defined
once, by its value on a generator 1|u|1 (koszul_on_gen, fb_on_gen, memoised
for the whole module and filled on first use), and reaches every other
element only through the bimodule extension stratum_elem; the term-by-term
i_l, i_r and d are kept in the tests as the reference they are checked
against.  The published data satisfies d f + f d = 0 but *not*
f f = 0 (the composite of an even-degree map after an odd-degree one is a
nonzero chain map), so the two-term differential printed in the source
squares to zero only below homological degree 9.  The higher strata
f^(2), f^(3), ... are correcting homotopies solved degreewise from

    sum_{a+b=k} f^(a) f^(b) = 0,

which is always consistent (the right-hand side is a cycle and the Koszul
complex is exact in the relevant degrees; a solve that is not raises).
The equations for k = 0 and k = 1, d d = 0 and d f + f d = 0, are checked
on every generator by square_zero_defects, which also solves every stratum
k >= 2 that delta applies up to max_n; with the solves they give
delta^2 = 0.

The tower by degree: delta keeps the internal degree, and omega_i carries
6i of it, so each term l|v|r of f^(k)_n(1|u|1) has |l| + |r| = 2k + 1 (it
has internal degree n + 6k over v of degree n + 4k - 1).  As A_5 = 0,
f^(k) = 0 for k >= 4, which `stratum_on_gen` returns unsolved; and for
k >= 2, |l| + |r| >= 5 forces r x l = l x r = 0 for every x, so these
strata vanish under the induced reductions (with coefficients A, A_nu and
eps A alike), which therefore use `gen_image` (k = 0, 1) alone.
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate

from .exactmath import QQ, SparseMat, add_term
from .fk3core import (
    BASIS_WORDS,
    WORD_DEGREE,
    WORD_INDEX,
    DualGen,
    chi,
    dgen,
    dual_basis,
    dual_left_action,
    dual_right_action,
    mul_table,
)

W = WORD_INDEX  # short alias used by the comparison-map tables


@cache
def koszul_on_gen(n: int, gen: DualGen) -> dict:
    """d^b_n(1|gen|1) = (-1)^n sum_L L|gen.L|1 + sum_L 1|L.gen|L over the
    letters L = a, b, c, as a sparse K^b_{n-1} element with integer
    coefficients (empty at n = 0), the i_l terms first.

    Memoised: every caller shares the returned dict, which is read-only."""
    out = {}
    if n == 0:
        return out
    one, sign = W[""], -1 if n % 2 else 1
    for letter in "abc":
        for v, c in dual_right_action(gen, letter).items():
            add_term(out, (0, W[letter], v, one), sign * c)
    for letter in "abc":
        for v, c in dual_left_action(letter, gen).items():
            add_term(out, (0, one, v, W[letter]), c)
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


@cache
def fb_on_gen(n: int, gen: DualGen) -> dict:
    """f^b_n(1|gen|1) as a sparse K^b_{n+3} element with integer coefficients.

    Memoised: every caller shares the returned dict, which is read-only."""
    out = {}
    for coeff, lw, ttag, rw in _fb_terms(n, gen.tag):
        tgen = dgen(ttag, n + 3) if ttag != "eps" else dgen("eps", 0)
        if tgen is None:
            continue
        add_term(out, (0, W[lw], tgen, W[rw]), coeff)
    return out


@cache
def _partners():
    """The nonzero products of the multiplication table, read off it once,
    per word and by degree: (left, right), where left[l][d] maps each word x
    of degree d with x.l != 0 to the terms of x.l, and right[r][d] each word
    y of degree d with r.y != 0 to those of r.y.  Shared and read-only."""
    table = mul_table()
    words, degrees = range(len(BASIS_WORDS)), range(max(WORD_DEGREE) + 1)
    left = [[{} for _ in degrees] for _ in words]
    right = [[{} for _ in degrees] for _ in words]
    for w in words:
        for z in words:
            if table[(z, w)]:
                left[w][WORD_DEGREE[z]][z] = tuple(table[(z, w)].items())
            if table[(w, z)]:
                right[w][WORD_DEGREE[z]][z] = tuple(table[(w, z)].items())
    return left, right


def extend_into(out, image, outer):
    """Add c * x.image.y to out, for every x -> {y: (t, c)} in the entry
    (deg x, deg y) of outer, keying each term x2|v|y2 of the product
    (t, x2, v, y2): the bimodule extension of a map whose value on the
    generator 1|u|1 is image, applied to elements x|u|y of that one
    generator u.  Each term l|v|r of image visits only the words x with
    x.l != 0 and y with r.y != 0 of the degrees outer holds."""
    left, right = _partners()
    for (_, l, v, r), s in image.items():
        for (dx, dy), block in outer.items():
            rights = right[r][dy].items()
            for x, xl in left[l][dx].items():
                ys = block.get(x)
                if ys is None:
                    continue
                for y, ry in rights:
                    tc = ys.get(y)
                    if tc is None:
                        continue
                    t, c = tc
                    cs = c * s
                    for x2, cx in xl:
                        for y2, cy in ry:
                            key = (t, x2, v, y2)
                            nv = out.get(key, 0) + cs * cx * cy
                            if nv:
                                out[key] = nv
                            else:
                                del out[key]


def _put_outer(outer, x, y, tc):
    """Set the entry x|y of an outer map of extend_into to tc = (t, c)."""
    outer.setdefault((WORD_DEGREE[x], WORD_DEGREE[y]), {}).setdefault(
        x, {})[y] = tc


def gen_image(k: int, n: int, gen: DualGen) -> dict:
    """f^(k)_n(1|gen|1) for the closed-form strata k = 0 (d) and k = 1 (f),
    the memoised koszul_on_gen and fb_on_gen (shared and read-only)."""
    if k == 0:
        return koszul_on_gen(n, gen)
    if k == 1:
        return fb_on_gen(n, gen)
    raise ValueError(f"stratum {k} has no closed form; it is solved per "
                     "resolution (BimoduleResolution.stratum_on_gen)")


# ---------------------------------------------------------------------------
# the resolution P^b with its bigraded matrices
# ---------------------------------------------------------------------------

@cache
def kb_comp_basis(deg: int, intdeg: int) -> tuple:
    """Basis keys of the internal-degree component of K^b_deg (memoised)."""
    out = []
    for g in dual_basis(deg):
        for x in range(len(BASIS_WORDS)):
            for y in range(len(BASIS_WORDS)):
                if WORD_DEGREE[x] + g.n + WORD_DEGREE[y] == intdeg:
                    out.append((0, x, g, y))
    return tuple(out)


@cache
def comp_basis(n: int, d: int):
    """(keys, pos) of the internal-degree-d component of P^b_n: its basis
    keys, kb_comp_basis(n - 4i, d - 6i) moved to layer i for i = 0, 1, ...
    in turn (the one order of every component vector), and each key's
    position.  Memoised: callers share the result, which is read-only."""
    keys = tuple((i, x, g, y) for i in range(n // 4 + 1)
                 for _, x, g, y in kb_comp_basis(n - 4 * i, d - 6 * i))
    return keys, {key: r for r, key in enumerate(keys)}


def layer_starts(n: int, d: int) -> list:
    """The position in the internal-degree-d component of P^b_n where each
    layer i starts, and last the component's dimension, counted without
    building its keys."""
    return [0, *accumulate(len(kb_comp_basis(n - 4 * i, d - 6 * i))
                           for i in range(n // 4 + 1))]


class BimoduleResolution:
    """P^b_n = sum_i omega_i K^b_{n-4i}, with blockwise differential matrices."""

    def __init__(self, field=QQ, max_n=12):
        self.field = field
        self.max_n = max_n
        self._pieces = {}  # (k, m, e) -> [(row, col, coeff)], see _piece
        self._homotopy = {}  # (k, n) -> {tag: {basis key: coeff}}, k = 2, 3

    # ----- the homotopy tower f^(k) -----

    def stratum_on_gen(self, k: int, n: int, gen: DualGen) -> dict:
        """f^(k)_n(1|gen|1) as a sparse K^b_{n+4k-1} element.

        The returned dict is shared and read-only: the closed-form strata
        k = 0, 1 are the module-wide memos koszul_on_gen and fb_on_gen, the
        strata k = 2, 3 are solved once per resolution, and the strata
        k >= 4 vanish by degree (see the module docstring)."""
        if k == 0:
            return koszul_on_gen(n, gen)
        if k == 1:
            return fb_on_gen(n, gen)
        if k >= 4:
            return {}
        if (k, n) not in self._homotopy:
            self._solve_homotopy(k, n)
        return self._homotopy[(k, n)].get(gen.tag, {})

    def stratum_elem(self, k: int, n: int, elem: dict) -> dict:
        """Bimodule extension of f^(k)_n to sparse K^b_n elements."""
        by_gen = {}  # (u, layer) -> the outer map of extend_into
        for (i, x, u, y), c in elem.items():
            _put_outer(by_gen.setdefault((u, i), {}), x, y, (i, c))
        out = {}
        for (u, _), outer in by_gen.items():
            extend_into(out, self.stratum_on_gen(k, n, u), outer)
        return out

    def _piece(self, k: int, m: int, e: int):
        """f^(k)_m on the internal-degree-e component of K^b_m, as integer
        (or, for solved strata over Q, rational) triplets (row, col, coeff)
        in the coordinates kb_comp_basis(m, e) -> kb_comp_basis(m+4k-1, e+6k).

        This is the block of delta from omega_i to omega_{i-k} at degree
        m + 4i and internal degree e + 6i, for every layer i >= k; pieces
        with m <= max_n + 1 are kept.
        It is built one generator u at a time: the columns x|u|y of u are
        one extension of the image of 1|u|1, keyed by column."""
        key = (k, m, e)
        trips = self._pieces.get(key)
        if trips is not None:
            return trips
        by_gen = {}
        for col, (_, x, u, y) in enumerate(kb_comp_basis(m, e)):
            _put_outer(by_gen.setdefault(u, {}), x, y, (col, 1))
        img = {}
        for u, outer in by_gen.items():
            extend_into(img, self.stratum_on_gen(k, m, u), outer)
        row_of = {t[1:]: r for r, t in
                  enumerate(kb_comp_basis(m + 4 * k - 1, e + 6 * k))}
        trips = [(row_of[t[1:]], t[0], c) for t, c in img.items()]
        if m <= self.max_n + 1:
            self._pieces[key] = trips
        return trips

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
                    add_term(rhs, key, -c)
            # previous homotopy of the same stratum: f^(k)_{n-1} d_n
            de = koszul_on_gen(n, g)
            for key, c in self.stratum_elem(k, n - 1, de).items():
                add_term(rhs, key, -c)
            rhs_by_gen[g] = rhs
        # one linear solve per generator against the Koszul differential,
        # restricted to the single internal degree n + 6k of the images
        target_deg = n + 4 * k - 1
        intdeg = n + 6 * k
        src = kb_comp_basis(target_deg, intdeg)
        tgt = kb_comp_basis(target_deg - 1, intdeg)
        tgt_pos = {key: i for i, key in enumerate(tgt)}
        F = self.field
        sols = self.koszul_block(target_deg, intdeg).solve_many(
            [{tgt_pos[key]: c for key, c in rhs_by_gen[g].items()}
             for g in gens])
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
                    add_term(out, key, c)
        return out

    def koszul_block(self, n: int, d: int) -> SparseMat:
        """Matrix of the Koszul differential d^b_n on the internal-degree-d
        component of K^b_n (columns) into K^b_{n-1} (rows)."""
        rows, cols = len(kb_comp_basis(n - 1, d)), len(kb_comp_basis(n, d))
        return SparseMat(rows, cols, self._piece(0, n, d), self.field)

    def delta_block(self, n: int, d: int) -> SparseMat:
        """Matrix of delta^b_n on the internal-degree-d component, in
        comp_basis coordinates: the raw entries of each piece
        _piece(k, n - 4i, d - 6i), from layer i to layer i - k, offset by
        the layers' start positions; not retained."""
        col_off, row_off = layer_starts(n, d), layer_starts(n - 1, d)
        rows = [{} for _ in range(row_off[-1])]
        for i, c0 in enumerate(col_off[:-1]):
            for k in range(i + 1):
                r0 = row_off[i - k]
                for r, c, v in self._piece(k, n - 4 * i, d - 6 * i):
                    rows[r0 + r][c0 + c] = v
        return SparseMat.from_rows(rows, col_off[-1], self.field)

    def comp_vector(self, n: int, d: int, elem: dict):
        """comp_basis coordinates of an element supported in internal degree
        d; the coefficients are kept as they are, zeros dropped."""
        where = comp_basis(n, d)[1]
        out = {}
        for key, c in elem.items():
            if c:
                if key not in where:
                    raise KeyError(f"{key} is not in internal degree {d}")
                out[where[key]] = c
        return out

    def comp_element(self, n: int, d: int, vec: dict):
        """The element with the comp_basis coordinates vec."""
        keys = comp_basis(n, d)[0]
        return {keys[r]: c for r, c in vec.items()}

    def minimality_violations(self, n: int):
        """Generator-image terms with both outer words trivial (must be none).

        delta(omega_i 1|g|1) is the sum of omega_{i-k} f^(k)(1|g|1) over
        k <= i; distinct k land in distinct layers, so no terms cancel and
        the terms are those of the strata."""
        bad = []
        one = W[""]
        for i, g in self.pb_gens(n):
            for k in range(i + 1):
                for (_, x, v, y), c in self.stratum_on_gen(
                        k, n - 4 * i, g).items():
                    if x == one and y == one:
                        bad.append(((i, g), (i - k, v), c))
        return bad

    def square_zero_defects(self) -> list:
        """Degrees n <= max_n at which d_{n-1} d_n or d_{n+3} f_n + f_{n-1} d_n
        is nonzero on a generator 1|u|1 of K^b_n (none may be); the outer
        d and f act on the generator's images through stratum_elem.

        These are the tower equations of strata 0 and 1.  Where they hold,
        this solves every f^(k), k = 2, 3, that delta_n applies for
        n <= max_n, on K_m with m <= max_n - 4k; the higher equations hold
        wherever a stratum is solved (the solve raises otherwise), so
        together they give delta^2 = 0 to degree max_n."""
        bad = []
        for n in range(self.max_n + 1):
            for g in dual_basis(n):
                de = koszul_on_gen(n, g)
                anti = self.stratum_elem(0, n + 3, fb_on_gen(n, g))
                for key, c in self.stratum_elem(1, n - 1, de).items():
                    add_term(anti, key, c)
                if self.stratum_elem(0, n - 1, de) or anti:
                    bad.append(n)
                    break
        if not bad:
            for k in (2, 3):
                for m in range(self.max_n - 4 * k + 1):
                    for g in dual_basis(m):
                        self.stratum_on_gen(k, m, g)
        return bad
