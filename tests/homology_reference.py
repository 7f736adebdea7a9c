"""The one-stratum homology complex and the published boundary and m = 0
cycle bases, checked against the engine's homology complex.

The omega_0 keys come first in each basis of `HomologyComplex`, and d keeps
them in layer 0, so the one-stratum differential is the top-left block of
`rows(n, m)`.  `verify_representatives` checks a published family: 'H'
(homology classes, the check `hh homology --verify-representatives` runs),
'B' (one-stratum boundaries) or 'D' (cycles at m = 0).
"""

from fk3hh.exactmath import SparseMat, Subspace
from fk3hh.paperdata import (
    _cycle_reps_m0,
    _elem,
    verify_homology_representatives,
)


def kt_matrix(cx, n: int, m: int) -> SparseMat:
    """Matrix of the one-stratum differential on the omega_0 block only."""
    rows, _ = cx.rows(n, m)
    src0 = sum(k[0] == 0 for k in cx.basis(n, m))
    tgt0 = sum(k[0] == 0 for k in cx.basis(n - 1, m + 1))
    return SparseMat.from_rows(
        [{j: c for j, c in r.items() if j < src0} for r in rows[:tgt0]],
        src0, cx.field)


def dim_one_stratum_homology(cx, n: int, m: int) -> int:
    """Homology dimension of the omega_0 (one-stratum) complex at (n, m)."""
    if n < 0 or not 0 <= m <= 4:
        return 0
    dim = len([k for k in cx.basis(n, m) if k[0] == 0])
    r_out = kt_matrix(cx, n, m).rank() if n >= 1 and dim else 0
    r_in = kt_matrix(cx, n + 1, m - 1).rank() if m >= 1 else 0
    return dim - r_out - r_in


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


def verify_representatives(cx, family: str, n: int, m: int):
    """Check a published family: its members lie in the space it spans a
    basis of (cycles, or boundaries), are independent (modulo the boundaries
    for 'H'), and are as many as that space's dimension.  Returns a dict
    report; raises NotTranscribed outside the registry."""
    if family == "H":
        return verify_homology_representatives(cx, n, m)
    F = cx.field
    if family == "D" and m == 0:
        reps, basis = _cycle_reps_m0(n), cx.basis(n, 0)
    elif family == "B" and (reps := boundary_representatives(n, m)) is not None:
        # the published image bases are one-stratum (K~-level) objects
        basis = [k for k in cx.basis(n, m) if k[0] == 0]
    else:
        raise NotTranscribed((family, n, m))
    pos = {k: i for i, k in enumerate(basis)}
    vecs = [{pos[k]: F.of(c) for k, c in e.items()} for e in reps]
    if family == "D":
        expected = cx.dim_cycles(n, 0)
        members = all(not cx.diff_elem(n, e) for e in reps)
    else:
        img = kt_matrix(cx, n + 1, m - 1).image() if m >= 1 else \
            Subspace(len(basis), [], F)
        expected = img.dim
        members = all(not img.reduce(v) for v in vecs)
    indep = Subspace.span(len(basis), vecs, F).dim == len(reps)
    return {"family": family, "n": n, "m": m, "count": len(reps),
            "expected": expected, "members": members, "independent": indep,
            "ok": members and indep and len(reps) == expected}
