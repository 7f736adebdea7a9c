"""References for the bimodule resolution: the term-by-term Koszul
differential, and the exactness check by rank.

The engine defines d^b once, on a generator 1|u|1 (resolution.koszul_on_gen),
and applies it to any other element through the bimodule extension
(BimoduleResolution.stratum_elem).  Here d^b = (-1)^n i_l + i_r acts term
by term on any element, through the multiplication table and the dual
letter actions, and shares no code with that extension: d d = 0 and
d f + f d = 0 are checked with it, and the engine's d against it.

The engine checks exactness on the one-sided complex P (x)_A k, the induced
complex with coefficients eps A, whose components are twelve times smaller
in each direction (see the lemma at fk3hh.homology.exactness_defects).
The rank functions below are the direct check it replaced: the rank of every
bimodule delta-block, and the defect of P^b_n.  Both must vanish at the
same degrees.
"""

from fk3hh.exactmath import add_term
from fk3hh.fk3core import (
    DIM,
    dual_dim,
    dual_left_action,
    dual_right_action,
    mul_table,
)


def i_left(elem: dict) -> dict:
    """x|u|y -> sum_L xL | uL | y  (integer coefficients)."""
    out = {}
    for (i, x, u, y), c in elem.items():
        if u.n == 0:
            continue  # the dual action lands in the zero space
        for letter_idx, letter in ((1, "a"), (2, "b"), (3, "c")):
            xl = mul_table()[(x, letter_idx)]
            ul = dual_right_action(u, letter)
            for x2, cx in xl.items():
                for u2, cu in ul.items():
                    add_term(out, (i, x2, u2, y), c * cx * cu)
    return out


def i_right(elem: dict) -> dict:
    """x|u|y -> sum_L x | Lu | Ly."""
    out = {}
    for (i, x, u, y), c in elem.items():
        if u.n == 0:
            continue
        for letter_idx, letter in ((1, "a"), (2, "b"), (3, "c")):
            ly = mul_table()[(letter_idx, y)]
            lu = dual_left_action(letter, u)
            for y2, cy in ly.items():
                for u2, cu in lu.items():
                    add_term(out, (i, x, u2, y2), c * cy * cu)
    return out


def koszul_diff_elem(n: int, elem: dict) -> dict:
    """d^b_n = (-1)^n i_l + i_r on a sparse K^b_n element."""
    sign = -1 if n % 2 else 1
    out = {}
    for key, c in i_left(elem).items():
        add_term(out, key, sign * c)
    for key, c in i_right(elem).items():
        add_term(out, key, c)
    return out


def pb_dim(n):
    """dim P^b_n = 144 * sum_i dual_dim(n - 4i)."""
    return DIM * DIM * sum(dual_dim(n - 4 * i) for i in range(n // 4 + 1))


def intdegs(n):
    """The internal degrees of P^b_n (n >= 0): layer i spans n + 2i to
    n + 2i + 8."""
    return range(n, n + 2 * (n // 4) + 9)


def delta_rank(res, n):
    """Rank of delta^b_n: the sum of its blocks' ranks."""
    return sum(res.delta_block(n, d).rank() for d in intdegs(n))


def bimodule_defect(res, n):
    """dim P^b_n - rank(delta_n) - rank(delta_{n+1}); at n = 0 the
    augmentation P^b_0 = A (x) A -> A, of rank 12, stands for delta_0."""
    below = DIM if n == 0 else delta_rank(res, n)
    return pb_dim(n) - below - delta_rank(res, n + 1)
