"""Reference reductions of the resolution's images, one basis word at a time.

`reduce_image` and `coreduce` walk one generator image for one word x and
multiply through the table twice per term.  The engine fills all twelve
columns of a generator in one pass over `fk3core.triple_products`; these
plain loops are what its columns must agree with.
"""

from fk3hh.exactmath import add_term
from fk3hh.fk3core import WORD_DEGREE, mul_table


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
