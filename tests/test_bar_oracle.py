"""Definition-level oracle: Hochschild homology from the normalized bar complex.

Completely independent of the resolution machinery: the chains are
A (x) Abar^(x n) with the standard face-sum differential, built directly from
the multiplication table, graded by total internal degree.  Low homological
degrees suffice to corroborate the dimension grid computed from the induced
complex of the resolution.
"""

from itertools import product

import pytest

from fk3hh.exactmath import QQ, SparseMat
from fk3hh.fk3core import BASIS_WORDS, WORD_DEGREE, mul_table
from fk3hh.homology import HomologyComplex
from matrix_helpers import is_zero, matmul

POS = [i for i in range(len(BASIS_WORDS)) if WORD_DEGREE[i] >= 1]


def bar_basis(n, d):
    """Tuples (w0, w1, ..., wn): w0 arbitrary, wi positive, total degree d."""
    out = []
    for tail in product(POS, repeat=n):
        rest = d - sum(WORD_DEGREE[i] for i in tail)
        if rest < 0:
            continue
        for w0 in range(len(BASIS_WORDS)):
            if WORD_DEGREE[w0] == rest:
                out.append((w0,) + tail)
    return out


def bar_diff(key):
    """The face-sum differential on one basis tensor."""
    n = len(key) - 1
    out = {}

    def add(tup, c):
        if c == 0:
            return
        out[tup] = out.get(tup, 0) + c
        if out[tup] == 0:
            del out[tup]

    for i in range(n):
        sign = 1 if i % 2 == 0 else -1
        for w, c in mul_table()[(key[i], key[i + 1])].items():
            if i == 0 or WORD_DEGREE[w] >= 1:
                add(key[:i] + (w,) + key[i + 2:], sign * c)
    sign = 1 if n % 2 == 0 else -1
    for w, c in mul_table()[(key[n], key[0])].items():
        add((w,) + key[1:n], sign * c)
    return out


def bar_matrix(n, d):
    src = bar_basis(n, d)
    tgt = bar_basis(n - 1, d)
    pos = {k: r for r, k in enumerate(tgt)}
    ent = {}
    for col, key in enumerate(src):
        for k2, c in bar_diff(key).items():
            ent[(pos[k2], col)] = QQ.of(c)
    return SparseMat(len(tgt), len(src), ent, QQ)


def hh_dim_via_bar(n, d):
    dim = len(bar_basis(n, d))
    r_out = bar_matrix(n, d).rank() if n >= 1 else 0
    r_in = bar_matrix(n + 1, d).rank()
    return dim - r_out - r_in


def test_bar_differential_squares_to_zero():
    for n in (2, 3):
        for d in range(0, 6):
            m1 = bar_matrix(n - 1, d)
            m2 = bar_matrix(n, d)
            assert is_zero(matmul(m1, m2)), (n, d)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_bar_homology_matches_resolution(n):
    cx = HomologyComplex(QQ)
    for d in range(n, n + 5):
        want = cx.dim_homology(n, d - n)
        got = hh_dim_via_bar(n, d)
        assert got == want, (n, d)
