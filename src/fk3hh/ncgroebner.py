"""Noncommutative Groebner bases in a free algebra on finitely many generators.

Words are tuples of 1-based generator indices; the monomial order is
length-lexicographic: longer words are larger, ties are broken left-to-right
with the higher generator index winning.  This order is admissible (compatible
with concatenation on both sides), which is what Buchberger-style overlap
completion needs.

Polynomials are dicts word -> nonzero scalar over a Field from exactmath.
"""

from __future__ import annotations

import heapq
import re
from itertools import product

from .exactmath import QQ


Word = tuple  # tuple of int generator indices (1-based)


def word_key(w: Word):
    return (len(w), w)


class NcPolyError(ValueError):
    pass


class CompletionOverflow(RuntimeError):
    """Raised when completion exceeds the configured element ceiling."""


class FreeAlgebra:
    """Free associative algebra with an optional bigrading on the generators.

    bidegrees, when given, is a list of (homological, internal) pairs, one per
    generator (1-based generator i uses bidegrees[i-1]).
    """

    def __init__(self, ngens, field=QQ, gen_names=None, bidegrees=None):
        self.ngens = ngens
        self.field = field
        self.gen_names = gen_names or [f"x{i}" for i in range(1, ngens + 1)]
        if len(self.gen_names) != ngens:
            raise NcPolyError("one name per generator required")
        self.bidegrees = bidegrees

    def poly(self, terms):
        """Build a polynomial from {word: coeff}; drops zeros, coerces scalars."""
        F = self.field
        out = {}
        for w, c in terms.items():
            c = F.of(c)
            if c == F.zero:
                continue
            w = tuple(w)
            if w in out:
                nc = F.add(out[w], c)
                if nc == F.zero:
                    del out[w]
                else:
                    out[w] = nc
            else:
                out[w] = c
        return out

    def word_bidegree(self, w: Word):
        if self.bidegrees is None:
            raise NcPolyError("algebra has no bigrading")
        h = sum(self.bidegrees[i - 1][0] for i in w)
        d = sum(self.bidegrees[i - 1][1] for i in w)
        return (h, d)

    def poly_bidegree(self, p):
        """Common bidegree of all words of p, or None when inhomogeneous."""
        degs = {self.word_bidegree(w) for w in p}
        return degs.pop() if len(degs) == 1 else None

    # ----- text format: one polynomial per line, terms coeff*x_i*...*x_j -----

    _TERM_RE = re.compile(
        r"^\s*(?P<coeff>\d+(?:/\d+)?)?\s*\*?\s*(?P<word>(?:x\d+(?:\^\d+)?(?:\s*\*\s*)?)*)\s*$"
    )

    def parse_poly(self, line: str):
        F = self.field
        s = line.strip()
        if not s:
            raise NcPolyError("empty polynomial")
        # split into signed terms at top level
        terms = []
        buf = ""
        sign = 1
        first = True
        for ch in s:
            if ch in "+-" and (first or buf.strip()):
                if buf.strip():
                    terms.append((sign, buf.strip()))
                buf = ""
                sign = 1 if ch == "+" else -1
            elif ch in "+-":
                sign = sign * (1 if ch == "+" else -1)
            else:
                buf += ch
            first = False
        if buf.strip():
            terms.append((sign, buf.strip()))
        out = {}
        for sg, t in terms:
            m = self._TERM_RE.match(t)
            if not m:
                raise NcPolyError(f"bad term {t!r}")
            coeff = F.of(m.group("coeff")) if m.group("coeff") else F.one
            if sg < 0:
                coeff = F.neg(coeff)
            word = []
            wtxt = m.group("word") or ""
            for part in re.findall(r"x(\d+)(?:\^(\d+))?", wtxt):
                idx = int(part[0])
                exp = int(part[1]) if part[1] else 1
                if not 1 <= idx <= self.ngens:
                    raise NcPolyError(f"generator x{idx} out of range")
                word.extend([idx] * exp)
            w = tuple(word)
            nc = F.add(out.get(w, F.zero), coeff)
            if nc == F.zero:
                out.pop(w, None)
            else:
                out[w] = nc
        return out

    def format_word(self, w: Word) -> str:
        if not w:
            return "1"
        parts = []
        i = 0
        while i < len(w):
            j = i
            while j < len(w) and w[j] == w[i]:
                j += 1
            g = f"x{w[i]}"
            parts.append(g if j - i == 1 else f"{g}^{j - i}")
            i = j
        return "*".join(parts)

    def format_poly(self, p) -> str:
        if not p:
            return "0"
        bits = []
        for w in sorted(p, key=word_key, reverse=True):
            c = p[w]
            cs = str(c)
            neg = cs.startswith("-")
            if neg:
                cs = cs[1:]
            body = self.format_word(w)
            if cs != "1":
                body = f"{cs}*{body}" if body != "1" else cs
            bits.append(("- " if neg else "+ ") + body)
        out = " ".join(bits)
        return out[2:] if out.startswith("+ ") else "-" + out[2:]

    def parse_file(self, path):
        polys = []
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                polys.append(self.parse_poly(line))
        return polys


def lead_word(p) -> Word:
    return max(p, key=word_key)


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


def sandwich(F, left: Word, p, right: Word):
    """prefix * p * suffix in the free algebra."""
    return {left + w + right: c for w, c in p.items()}


def make_monic(F, p):
    if not p:
        return p
    lc = p[lead_word(p)]
    if lc == F.one:
        return p
    inv = F.inv(lc)
    return {w: F.mul(inv, c) for w, c in p.items()}


class GBasis:
    """A list of monic polynomials; `reduced` marks full interreduction."""

    def __init__(self, algebra: FreeAlgebra, polys, reduced=False, truncated=False):
        self.algebra = algebra
        self.polys = sorted(polys, key=lambda p: word_key(lead_word(p)))
        self.reduced = reduced
        self.truncated = truncated
        self._by_first = {}
        for idx, p in enumerate(self.polys):
            lw = lead_word(p)
            self._by_first.setdefault(lw[0], []).append((lw, idx))

    def __len__(self):
        return len(self.polys)

    def lead_words(self):
        return [lead_word(p) for p in self.polys]

    def find_divisor(self, w: Word):
        """Leftmost occurrence of any leading word inside w.

        Returns (position, basis index) or None; among leads matching at one
        position the first in canonical order wins.
        """
        for pos in range(len(w)):
            cands = self._by_first.get(w[pos])
            if not cands:
                continue
            for lw, idx in cands:
                if len(lw) <= len(w) - pos and w[pos:pos + len(lw)] == lw:
                    return pos, idx
        return None


def normal_form(p, basis: GBasis, strategy=None):
    """Remainder of p on division by the basis (leading-word reduction).

    The default strategy always rewrites the largest reducible monomial at its
    leftmost divisor, which is deterministic; `strategy(reducibles)` may pick
    any (word, pos, idx) triple instead — the result is the same once the
    basis is confluent.
    """
    F = basis.algebra.field
    p = dict(p)
    while True:
        reducibles = []
        for w in sorted(p, key=word_key, reverse=True):
            hit = basis.find_divisor(w)
            if hit is not None:
                reducibles.append((w, hit[0], hit[1]))
                if strategy is None:
                    break
        if not reducibles:
            return p
        w, pos, idx = reducibles[0] if strategy is None else strategy(reducibles)
        g = basis.polys[idx]
        lw = lead_word(g)
        repl = sandwich(F, w[:pos], g, w[pos + len(lw):])
        p = poly_sub(F, p, poly_scale(F, repl, p[w]))


def _overlaps(w1: Word, w2: Word):
    """Proper overlaps: a nonempty suffix of w1 equals a prefix of w2.

    Yields (u, o, v) with w1 = u+o and w2 = o+v; containments (k = len of the
    shorter word) are excluded, interreduction deals with those.
    """
    for k in range(1, min(len(w1), len(w2))):
        if w1[len(w1) - k:] == w2[:k]:
            yield w1[: len(w1) - k], w1[len(w1) - k:], w2[k:]


def interreduce(algebra: FreeAlgebra, polys):
    """Fully interreduce: monic, no monomial divisible by another lead."""
    F = algebra.field
    polys = [make_monic(F, dict(p)) for p in polys if p]
    changed = True
    while changed:
        changed = False
        polys.sort(key=lambda p: word_key(lead_word(p)))
        for i in range(len(polys)):
            others = GBasis(algebra, polys[:i] + polys[i + 1:])
            r = normal_form(polys[i], others)
            if r != polys[i]:
                changed = True
                if r:
                    polys[i] = make_monic(F, r)
                else:
                    polys.pop(i)
                break
    # drop exact duplicates
    seen = []
    for p in polys:
        if p not in seen:
            seen.append(p)
    return seen


def buchberger_complete(algebra: FreeAlgebra, rels, degree_bound=6,
                        element_ceiling=2000):
    """Overlap completion of a list of polynomials, truncated by word length.

    Obstructions whose overlap word is longer than degree_bound are skipped
    (the result is then flagged truncated=True only if any were skipped).
    Returns a reduced GBasis.
    """
    F = algebra.field
    basis = interreduce(algebra, rels)
    pending = []
    skipped = False

    def enqueue(i, j):
        wi, wj = lead_word(basis[i]), lead_word(basis[j])
        for u, o, v in _overlaps(wi, wj):
            heapq.heappush(pending, (word_key(u + o + v), i, j, u, v))

    n0 = len(basis)
    for i in range(n0):
        for j in range(n0):
            enqueue(i, j)

    while pending:
        key, i, j, u, v = heapq.heappop(pending)
        if key[0] > degree_bound:
            skipped = True
            continue
        gi, gj = basis[i], basis[j]
        spoly = poly_sub(F, sandwich(F, (), gi, v), sandwich(F, u, gj, ()))
        r = normal_form(spoly, GBasis(algebra, basis))
        if not r:
            continue
        r = make_monic(F, r)
        basis.append(r)
        if len(basis) > element_ceiling:
            raise CompletionOverflow(f"completion exceeded {element_ceiling} elements")
        new = len(basis) - 1
        for t in range(len(basis)):
            enqueue(t, new)
            if t != new:
                enqueue(new, t)

    reduced = interreduce(algebra, basis)
    return GBasis(algebra, reduced, reduced=True, truncated=skipped)


def standard_words(basis: GBasis, up_to_hom_degree, max_len=None):
    """All words not divisible by any leading word, with hom degree <= bound.

    Uses the incremental suffix criterion: appending a generator to a standard
    word can only create forbidden subwords that are suffixes ending at the
    new letter, of length at most the longest leading word.  A brute-force
    cross-check for short lengths lives in the tests.
    """
    alg = basis.algebra
    if alg.bidegrees is None:
        raise NcPolyError("standard_words needs a graded algebra")
    leads = set(map(tuple, basis.lead_words()))
    maxlw = max((len(w) for w in leads), default=1)
    if max_len is None:
        zero_hom = sum(1 for h, _ in alg.bidegrees if h == 0)
        max_len = up_to_hom_degree + zero_hom * 2 + 2
    out = []

    def ok_suffix(w):
        for k in range(2, min(maxlw, len(w)) + 1):
            if w[len(w) - k:] in leads:
                return False
        return True

    def rec(w, hom):
        out.append(w)
        for g in range(1, alg.ngens + 1):
            h = alg.bidegrees[g - 1][0]
            if hom + h > up_to_hom_degree:
                continue
            nw = w + (g,)
            if (g,) in leads or not ok_suffix(nw):
                continue
            if len(nw) > max_len:
                raise NcPolyError(
                    "standard-word enumeration hit the length guard; the "
                    "quotient may be infinite in bounded homological degree")
            rec(nw, hom + h)

    rec((), 0)
    return out


def standard_word_counts(basis: GBasis, up_to_hom_degree):
    """Counts of standard words per bidegree (hom, internal)."""
    counts = {}
    for w in standard_words(basis, up_to_hom_degree):
        bd = basis.algebra.word_bidegree(w)
        counts[bd] = counts.get(bd, 0) + 1
    return counts


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


# ---------------------------------------------------------------------------
# the cohomology-ring presentation data
# ---------------------------------------------------------------------------

RING_BIDEGREES = [
    (0, 2), (0, 2), (0, 4), (1, 2), (1, 2), (1, 2), (1, 2), (1, 0),
    (2, -2), (2, -2), (2, -2), (2, -2), (3, -2), (4, -6),
]


def ring_algebra(field=QQ) -> FreeAlgebra:
    """The free algebra on the fourteen bigraded ring generators."""
    return FreeAlgebra(14, field, bidegrees=RING_BIDEGREES)


def data_path(name: str) -> str:
    import os
    return os.path.join(os.path.dirname(__file__), "data", name)


def load_commutation_relations(algebra: FreeAlgebra):
    """The 97 graded-commutativity relations."""
    return algebra.parse_file(data_path("relations_commutation.txt"))


def load_ideal_relations(algebra: FreeAlgebra):
    """The 63 further relations presenting the cohomology ring."""
    return algebra.parse_file(data_path("relations_ideal.txt"))


def load_published_basis(algebra: FreeAlgebra):
    """The published 184-element reduced basis."""
    return algebra.parse_file(data_path("groebner_basis.txt"))
