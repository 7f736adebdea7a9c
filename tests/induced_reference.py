"""Reference reductions of the resolution's images, one basis word at a time.

`reduce_image` and `coreduce` walk one generator image for one word x and
multiply through the table twice per term.  The engine fills all twelve
columns of a generator in one pass over `fk3core.triple_products`; these
plain loops are what its columns must agree with.  `cochain_columns`
pulls the cochains back along the generator images through `coreduce`: the
codifferential that `CohomologyComplex` reads off the dual chain complex.
"""

from functools import cache

from fk3hh.exactmath import add_term
from fk3hh.fk3core import DIM, WORD_DEGREE, dual_basis, mul_table
from fk3hh.resolution import gen_image


def transpose_images(images: dict) -> dict:
    """{u: sum c l|v|r} -> {v: [(u, l, r, c), ...]}: for each generator v,
    the terms of the source generators' images that pass through it."""
    out = {}
    for u, image in images.items():
        for (_, lw, v, rw), c in image.items():
            out.setdefault(v, []).append((u, lw, rw, c))
    return out


@cache
def cochain_columns(deg: int) -> dict:
    """{(DualGen, word_idx): {(layer offset, DualGen, word_idx): int}}: the
    codifferential of omega*_i g*|x at degree deg + 4i with the layer i
    taken out, pulled back along the stratum k of degree src: d_{deg+1}
    (k = 0) and f_{deg-3} (k = 1), which lands k layers up.  Memoised:
    callers share the result, which is read-only."""
    cols = {(g, x): {} for g in dual_basis(deg) for x in range(DIM)}
    for k, src in ((0, deg + 1), (1, deg - 3)):
        images = {u: gen_image(k, src, u) for u in dual_basis(src)}
        for g, terms in transpose_images(images).items():
            for x in range(DIM):
                cols[(g, x)].update(((k, u, y), c) for (u, y), c in
                                    coreduce(terms, x).items())
    return cols


def reduce_image(image: dict, x: int) -> dict:
    """The homology reduction of x (x)_{A^e} image.

    x (x) c l|v|r goes to c (r x l)|v, so a bimodule image
    {(_, l, v, r): c} becomes {(word_idx, v): int}.
    """
    out = {}
    table = mul_table()
    room = 4 - WORD_DEGREE[x]  # A vanishes above degree 4
    for (_, lw, v, rw), c in image.items():
        if WORD_DEGREE[lw] + WORD_DEGREE[rw] > room:
            continue
        for m1, c1 in table[(rw, x)].items():
            for m2, c2 in table[(m1, lw)].items():
                add_term(out, (m2, v), c * c1 * c2)
    return out


def coreduce(terms, x: int) -> dict:
    """The cohomology reduction: pulling the cochain v*|x back along the
    terms (u, l, r, c) of transpose_images gives sum c u*|(l x r), as
    {(DualGen, word_idx): int}."""
    out = {}
    table = mul_table()
    room = 4 - WORD_DEGREE[x]  # A vanishes above degree 4
    for u, lw, rw, c in terms:
        if WORD_DEGREE[lw] + WORD_DEGREE[rw] > room:
            continue
        for m1, c1 in table[(lw, x)].items():
            for m2, c2 in table[(m1, rw)].items():
                add_term(out, (u, m2), c * c1 * c2)
    return out
