"""The published results on HH_*(FK(3)) and HH^*(FK(3)), as a check only.

The engine recomputes every dimension and series from the resolution; `hh`
compares them with the closed formulas and explicit low-degree tables here
(homology, cyclic homology and cohomology), and `hh homology
--verify-representatives` checks the published homology representative
families against the computed complex.  Each published value is held once,
here; the resolution, the complexes and the cup layer never read it.
"""

from __future__ import annotations

from .exactmath import Subspace, add_term
from .fk3core import WORD_INDEX, chi, dgen

W = WORD_INDEX


# ---------------------------------------------------------------------------
# homology and cyclic homology: closed formulas and explicit series
# ---------------------------------------------------------------------------

def homology_total_formula(n: int) -> int:
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


HOMOLOGY_SERIES = {
    0: {0: 1, 1: 3, 2: 2},
    1: {1: 3, 2: 3, 3: 2, 5: 1},
    2: {2: 1, 3: 6, 4: 2, 5: 1, 6: 1},
    3: {3: 4, 4: 3, 6: 1, 7: 4},
    4: {4: 1, 5: 4, 7: 7, 8: 3},
    5: {5: 4, 6: 1, 7: 3, 8: 4, 9: 6, 11: 1},
}


def homology_series_formula(n: int) -> dict:
    """h_n(t): explicit for n <= 5, the closed general form for n >= 6."""
    if n <= 5:
        return dict(HOMOLOGY_SERIES[n])
    out = {}
    q = n // 4
    cn, cn1 = chi(n), chi(n + 1)

    def put(e, c):
        if c:
            add_term(out, n + e, c)

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


CYCLIC_SERIES = {
    0: {1: 3, 2: 2},
    1: {2: 1, 3: 2, 5: 1},
    2: {3: 4, 4: 2, 6: 1},
    3: {4: 1, 7: 4},
}


def cyclic_series_formula(n: int) -> dict:
    """g_n(t): explicit for n <= 3, the closed general form for n >= 4."""
    if n <= 3:
        return dict(CYCLIC_SERIES[n])
    out = {}
    q = n // 4
    cn, cn1 = chi(n), chi(n + 1)

    def put(e, c):
        if c:
            add_term(out, n + 1 + e, c)

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


# ---------------------------------------------------------------------------
# cohomology: closed formulas and explicit series
# ---------------------------------------------------------------------------

def cohomology_total_formula(n: int) -> int:
    if n % 2 == 1:
        return (5 * n + 9) // 2
    if n % 4 == 0:
        return 5 * n // 2 + 4
    return 5 * n // 2 + 5


COHOMOLOGY_SERIES = {
    0: {4: 1, 2: 2, 0: 1},
    1: {2: 6, 0: 1},
    2: {2: 4, 0: 2, -2: 4},
    3: {0: 7, -2: 5},
    4: {0: 5, -2: 1, -4: 7, -6: 1},
    5: {-2: 5, -4: 11, -6: 1},
    6: {-2: 5, -4: 4, -6: 7, -8: 4},
    7: {-4: 5, -6: 12, -8: 5},
}


def cohomology_series_formula(n: int) -> dict:
    """h^n(t): explicit for n <= 7, the closed general form for n >= 8."""
    if n <= 7:
        return dict(COHOMOLOGY_SERIES[n])
    out = {}
    q = n // 4
    cn, cn1 = chi(n), chi(n + 1)

    def put(e, c):
        if c:
            add_term(out, e - n, c)

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


# ---------------------------------------------------------------------------
# the homology representative families
# ---------------------------------------------------------------------------

def _elem(*terms):
    """sum c omega_i word|gen over the terms (i, word, tag, degree[, c = 1]);
    a tag that is a zero symbol at its degree drops out."""
    out = {}
    for i, word, tag, k, *c in terms:
        g = dgen(tag, k)
        if g is not None:
            add_term(out, (i, W[word], g), c[0] if c else 1)
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
    """The published homology representative family at (n, m); the paper
    lists them for 0 <= m <= 4."""
    if not 0 <= m <= 4:
        raise ValueError(f"no published representatives at m = {m}")
    return (_cycle_reps_m0, _homology_reps_m1, _homology_reps_m2,
            _homology_reps_m3, _homology_reps_m4)[m](n)


def verify_homology_representatives(cx, n: int, m: int) -> dict:
    """Check the published family at (n, m) against the homology complex
    cx: cycles, independent modulo the boundaries, and as many as
    dim H_{n,m}.  Returns a report whose "ok" says whether all three hold."""
    F = cx.field
    basis = cx.basis(n, m)
    pos = {k: i for i, k in enumerate(basis)}
    reps = homology_representatives(n, m)
    expected = cx.dim_homology(n, m)
    cycles_ok = all(not cx.diff_elem(n, e) for e in reps)
    bnd = cx.matrix(n + 1, m - 1).image() if m >= 1 else Subspace(len(basis), [], F)
    span_vecs = bnd.basis_dicts() + [{pos[k]: F.of(c) for k, c in e.items()}
                                     for e in reps]
    indep = Subspace.span(len(basis), span_vecs, F).dim == bnd.dim + len(reps)
    ok = cycles_ok and indep and len(reps) == expected
    return {"family": "H", "n": n, "m": m, "count": len(reps),
            "expected": expected, "cycles": cycles_ok,
            "independent_mod_boundaries": indep, "ok": ok}
