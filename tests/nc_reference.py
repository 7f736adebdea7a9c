"""Reference noncommutative reduction and completion, in field scalars.

`reference_normal_form` is the plain loop over `Field` scalars that the
integer `ncgroebner.normal_form` must agree with: it re-sorts p after every
rewrite and subtracts scaled copies of the monic basis elements.  Its
`strategy(reducibles)` hook may pick any reducible (word, pos, idx) triple
instead of the default one; on a confluent basis the remainder is the same.
`complete_all_pairs` is the completion loop that seeks the overlaps of every
new element against every lead, with S-polynomials in field scalars.
`brute_force_standard_words` enumerates every word of a length, and
`standard_word_counts` counts the standard words per bidegree;
`format_poly` writes a polynomial in the relation files' text format.
"""

import heapq
from itertools import groupby, product

from fk3hh import ncgroebner as ncg
from fk3hh.ncgroebner import GBasis, make_monic, word_key


def poly_sub(F, p, q):
    out = dict(p)
    for w, c in q.items():
        nc = F.sub(out.get(w, F.zero), c)
        if nc == F.zero:
            out.pop(w, None)
        else:
            out[w] = nc
    return out


def poly_scale(F, p, c):
    if c == F.zero:
        return {}
    return {w: F.mul(c, v) for w, v in p.items()}


def sandwich(left, p, right):
    """prefix * p * suffix in the free algebra."""
    return {left + w + right: c for w, c in p.items()}


def reference_normal_form(p, basis, strategy=None, skip=None):
    """Remainder of p (field scalars) on division by the monic basis.

    The default strategy rewrites the largest reducible word at its leftmost
    divisor, by the least lead there, as ncgroebner.normal_form does.  The
    element at index `skip` is not used.
    """
    F = basis.algebra.field
    p = dict(p)
    irreducible = set()
    while True:
        reducibles = []
        for w in sorted(p, key=word_key, reverse=True):
            if w in irreducible:
                continue
            hit = basis.find_divisor(w, skip)
            if hit is None:
                if strategy is None:
                    irreducible.add(w)
            else:
                reducibles.append((w, hit[0], hit[1]))
                if strategy is None:
                    break
        if not reducibles:
            return p
        w, pos, idx = reducibles[0] if strategy is None else strategy(reducibles)
        repl = sandwich(w[:pos], basis.polys[idx],
                        w[pos + len(basis.leads[idx]):])
        p = poly_sub(F, p, poly_scale(F, repl, p[w]))


def complete_all_pairs(algebra, rels, degree_bound, reduce):
    """ncgroebner.buchberger_complete without the obstruction index.

    Every new element is overlapped with every lead, and each S-polynomial
    g_i v - u g_j is formed in field scalars and passed to reduce(p, index).
    The interreductions run through ncgroebner.interreduce.
    """
    F = algebra.field
    index = GBasis(algebra, ncg.interreduce(algebra, rels))
    basis, leads = index.polys, index.leads
    pending = []
    skipped = False

    def enqueue(i, j):
        for u, o, v in ncg._overlaps(leads[i], leads[j]):
            heapq.heappush(pending, (word_key(u + o + v), i, j, u, v))

    for i in range(len(basis)):
        for j in range(len(basis)):
            enqueue(i, j)
    while pending:
        key, i, j, u, v = heapq.heappop(pending)
        if key[0] > degree_bound:
            skipped = True
            continue
        spoly = poly_sub(F, sandwich((), basis[i], v), sandwich(u, basis[j], ()))
        r = reduce(spoly, index)
        if not r:
            continue
        new = index.add(make_monic(F, r))
        for t in range(len(basis)):
            enqueue(t, new)
            if t != new:
                enqueue(new, t)
    return GBasis(algebra, ncg.interreduce(algebra, basis), truncated=skipped)


def brute_force_standard_words(basis: GBasis, length):
    """All standard words of exactly the given length, by full enumeration."""
    alg = basis.algebra
    leads = set(map(tuple, basis.lead_words()))
    out = []
    for w in product(range(1, alg.ngens + 1), repeat=length):
        if not any(w[i:j] in leads
                   for i in range(length) for j in range(i + 1, length + 1)):
            out.append(w)
    return out


def standard_word_counts(basis: GBasis, up_to_hom_degree):
    """Counts of standard words per bidegree (hom, internal)."""
    counts = {}
    for w in ncg.standard_words(basis, up_to_hom_degree):
        bd = basis.algebra.word_bidegree(w)
        counts[bd] = counts.get(bd, 0) + 1
    return counts


def poly_bidegree(algebra, p):
    """Common bidegree of all words of p, or None when inhomogeneous."""
    degs = {algebra.word_bidegree(w) for w in p}
    return degs.pop() if len(degs) == 1 else None


def format_word(w) -> str:
    return "*".join(f"x{g}" if (k := len(list(run))) == 1 else f"x{g}^{k}"
                    for g, run in groupby(w)) or "1"


def format_poly(p) -> str:
    if not p:
        return "0"
    bits = []
    for w in sorted(p, key=word_key, reverse=True):
        c = p[w]
        cs = str(c)
        neg = cs.startswith("-")
        if neg:
            cs = cs[1:]
        body = format_word(w)
        if cs != "1":
            body = f"{cs}*{body}" if body != "1" else cs
        bits.append(("- " if neg else "+ ") + body)
    out = " ".join(bits)
    return out[2:] if out.startswith("+ ") else "-" + out[2:]
