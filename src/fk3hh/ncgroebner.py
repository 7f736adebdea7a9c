"""Noncommutative Groebner bases in a free algebra on finitely many generators.

Words are tuples of 1-based generator indices; the monomial order is
length-lexicographic: longer words are larger, ties are broken left-to-right
with the higher generator index winning.  This order is admissible (compatible
with concatenation on both sides), which is what Buchberger-style overlap
completion needs.

Polynomials are dicts word -> nonzero scalar over a Field from exactmath.
Reduction runs in integers: a basis keeps an integer copy of each element,
and normal_form scales its input to integers once and its remainder back to
field scalars once.
"""

from __future__ import annotations

import bisect
import heapq
import re
from math import gcd
from operator import neg

from .exactmath import QQ, scalars, to_integers


Word = tuple  # tuple of int generator indices (1-based)


def word_key(w: Word):
    return (len(w), w)


class NcPolyError(ValueError):
    pass


# the most elements a completion may hold before it gives up
ELEMENT_CEILING = 2000


class CompletionOverflow(RuntimeError):
    """Raised when a completion exceeds ELEMENT_CEILING elements."""


class FreeAlgebra:
    """Free associative algebra with an optional bigrading on the generators.

    bidegrees, when given, is a list of (homological, internal) pairs, one per
    generator (1-based generator i uses bidegrees[i-1]).
    """

    def __init__(self, ngens, field=QQ, bidegrees=None):
        self.ngens = ngens
        self.field = field
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
        """(homological, internal) degree of a word."""
        if self.bidegrees is None:
            raise NcPolyError("algebra has no bigrading")
        h = d = 0
        for i in w:
            hi, di = self.bidegrees[i - 1]
            h += hi
            d += di
        return h, d

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


def make_monic(F, p):
    if not p:
        return p
    lc = p[lead_word(p)]
    if lc == F.one:
        return p
    inv = F.inv(lc)
    return {w: F.mul(inv, c) for w, c in p.items()}


class GBasis:
    """Monic polynomials with a lead-word index that `add` keeps up to date.

    `polys[i]` has lead word `leads[i]`, computed once, and the integer copy
    `ints[i] = (lc, tail)`: the element times the lcm of its denominators
    (over F_p, its residues), split into the integer lead coefficient lc and
    the (word, int) pairs of the other terms.  The constructor sorts its
    input by lead word (stably); `add` appends, and `remove` takes an element
    out of the index only.  The index maps each lead word to the indices
    that have it, ascending, and a lookup tries the lead lengths in
    ascending order, so it meets the leads in canonical order, equal leads
    by index.
    """

    def __init__(self, algebra: FreeAlgebra, polys, truncated=False):
        self.algebra = algebra
        self.truncated = truncated
        self.polys = []
        self.leads = []
        self.ints = []
        self._by_lead = {}  # lead word -> the indices that have it
        self._sizes = []  # every lead length indexed so far, ascending
        for lw, p in sorted(((lead_word(p), p) for p in polys),
                            key=lambda t: word_key(t[0])):
            self._insert(p, lw)

    def __len__(self):
        return len(self.polys)

    def lead_words(self):
        return list(self.leads)

    def add(self, p):
        """Append a nonzero polynomial, index its lead word, return its index."""
        return self._insert(p, lead_word(p))

    def _insert(self, p, lw):
        idx = len(self.polys)
        self.polys.append(p)
        self.leads.append(lw)
        ints, _ = to_integers(p, self.algebra.field)
        lc = ints.pop(lw)
        self.ints.append((lc, tuple(ints.items())))
        self._by_lead.setdefault(lw, []).append(idx)
        if len(lw) not in self._sizes:
            bisect.insort(self._sizes, len(lw))
        return idx

    def remove(self, idx):
        """Drop element idx from the index; its slot in polys stays."""
        lw = self.leads[idx]
        self._by_lead[lw].remove(idx)

    def find_divisor(self, w: Word, skip=None):
        """Leftmost occurrence of any leading word inside w.

        Returns (position, basis index) or None; among leads matching at one
        position the first in canonical order wins.  The element at index
        `skip`, if given, is left out.
        """
        n, by_lead = len(w), self._by_lead
        for pos in range(n):
            for size in self._sizes:
                if size > n - pos:
                    break
                for idx in by_lead.get(w[pos:pos + size], ()):
                    if idx != skip:
                        return pos, idx
        return None


def _descending(w: Word):
    """Heap entry of w: heapq pops the largest word_key first."""
    return -len(w), tuple(map(neg, w)), w


def normal_form(p, basis: GBasis, skip=None):
    """Remainder of p on division by the basis (leading-word reduction).

    p maps words to raw ints or to anything the field's `of` accepts; it is
    not modified.  The largest reducible word is always rewritten, at its
    leftmost divisor, by the least lead there; the element at index `skip`
    is not used.  The words are visited from the largest down through a
    heap, and once visited a word never comes back: a rewrite only adds
    smaller words.  The arithmetic is in integers: p is scaled to integers
    once, and rewriting its word w of coefficient c by the element g sets
    p <- a p - b (u g v), where a/b = lc(g)/c in lowest terms and g is the
    basis's integer copy.  The remainder becomes field scalars once.
    """
    F = basis.algebra.field
    P = F.characteristic
    acc, den = to_integers(p, F)
    heap = [_descending(w) for w in acc]
    heapq.heapify(heap)
    out = {}
    while heap:
        w = heapq.heappop(heap)[2]
        c = acc.pop(w)
        if P:
            c %= P
        if not c:
            continue
        hit = basis.find_divisor(w, skip)
        if hit is None:
            out[w] = c
            continue
        pos, idx = hit
        lc, tail = basis.ints[idx]
        g = gcd(lc, c)
        a, b = lc // g, c // g
        if a != 1:
            den *= a
            acc = {x: a * y for x, y in acc.items()}
            out = {x: a * y for x, y in out.items()}
        left, right = w[:pos], w[pos + len(basis.leads[idx]):]
        for x, y in tail:
            x = left + x + right
            if x in acc:
                acc[x] -= b * y
            else:
                acc[x] = -b * y
                heapq.heappush(heap, _descending(x))
    return scalars(out, F, den)


def _overlaps(w1: Word, w2: Word):
    """Proper overlaps: a nonempty suffix of w1 equals a prefix of w2.

    Yields (u, o, v) with w1 = u+o and w2 = o+v; containments (k = len of the
    shorter word) are excluded, interreduction deals with those.
    """
    for k in range(1, min(len(w1), len(w2))):
        if w1[len(w1) - k:] == w2[:k]:
            yield w1[: len(w1) - k], w1[len(w1) - k:], w2[k:]


def _contains(p, lw: Word):
    """Whether some monomial of p has lw as a subword."""
    k = len(lw)
    return any(w[s:s + k] == lw for w in p for s in range(len(w) - k + 1))


def interreduce(algebra: FreeAlgebra, polys):
    """Fully interreduce: monic, no monomial divisible by another lead.

    Repeatedly rewrites the first element, in order of lead word, that the
    others reduce, until none does; the result is sorted by lead word.  One
    index serves the whole run: an element is reduced against the others by
    skipping its own index, and a changed element is indexed afresh.  Only
    the elements that its new lead divides need another look.
    """
    F = algebra.field
    index = GBasis(algebra, [make_monic(F, dict(p)) for p in polys if p])
    polys, leads = index.polys, index.leads
    live = set(range(len(polys)))
    dirty = [(word_key(lw), i) for i, lw in enumerate(leads)]  # sorted: a heap
    queued = set(live)
    while dirty:
        _, i = heapq.heappop(dirty)
        queued.discard(i)
        p = polys[i]
        r = normal_form(p, index, skip=i)
        if r == p:
            continue
        index.remove(i)
        live.discard(i)
        if not r:
            continue
        new = index.add(make_monic(F, r))
        for j in live - queued:
            if _contains(polys[j], leads[new]):
                queued.add(j)
                heapq.heappush(dirty, (word_key(leads[j]), j))
        live.add(new)
    return [polys[i] for i in sorted(live, key=lambda i: word_key(leads[i]))]


def buchberger_complete(algebra: FreeAlgebra, rels, degree_bound=6):
    """Overlap completion of a list of polynomials, truncated by word length.

    Obstructions whose overlap word is longer than degree_bound are skipped
    (the result is then flagged truncated=True only if any were skipped).
    One index serves the whole pair loop: each new element is added to it.
    An element's overlaps are sought only against the leads that end in a
    letter of its lead but the last (pairs (t, new)) or start with a letter
    of its lead but the first (pairs (new, t)); the heap of obstructions is
    totally ordered, so it pops them in the same order as an all-pairs
    enumeration would.  Each S-polynomial lc_j g_i v - lc_i u g_j is built
    from the integer copies and reduced as raw ints.  Returns a reduced
    GBasis.
    """
    F = algebra.field
    index = GBasis(algebra, interreduce(algebra, rels))
    basis, leads, ints = index.polys, index.leads, index.ints
    by_first, by_last = {}, {}  # letter -> the leads that start / end with it
    pending = []
    skipped = False

    def enqueue(i, j):
        for u, o, v in _overlaps(leads[i], leads[j]):
            heapq.heappush(pending, (word_key(u + o + v), i, j, u, v))

    def admit(new):
        lw = leads[new]
        by_first.setdefault(lw[0], []).append(new)
        by_last.setdefault(lw[-1], []).append(new)
        for t in {t for a in set(lw[:-1]) for t in by_last.get(a, ())}:
            enqueue(t, new)
        for t in {t for a in set(lw[1:]) for t in by_first.get(a, ())}:
            if t != new:
                enqueue(new, t)

    for new in range(len(basis)):
        admit(new)

    while pending:
        key, i, j, u, v = heapq.heappop(pending)
        if key[0] > degree_bound:
            skipped = True
            continue
        (lci, taili), (lcj, tailj) = ints[i], ints[j]
        spoly = {x + v: lcj * y for x, y in taili}
        for x, y in tailj:
            x = u + x
            spoly[x] = spoly.get(x, 0) - lci * y
        r = normal_form(spoly, index)
        if not r:
            continue
        new = index.add(make_monic(F, r))
        if len(basis) > ELEMENT_CEILING:
            raise CompletionOverflow(
                f"completion exceeded {ELEMENT_CEILING} elements")
        admit(new)

    return GBasis(algebra, interreduce(algebra, basis), truncated=skipped)


def standard_words(basis: GBasis, up_to_hom_degree):
    """All words not divisible by any leading word, with hom degree <= bound.

    Uses the incremental suffix criterion: appending a generator to a standard
    word can only create forbidden subwords that are suffixes ending at the
    new letter, of length at most the longest leading word.  A brute-force
    cross-check for short lengths lives in the tests.  A standard word
    longer than up_to_hom_degree + 2 (number of degree-0 generators) + 2
    raises NcPolyError: the quotient may then be infinite in bounded
    homological degree.
    """
    alg = basis.algebra
    if alg.bidegrees is None:
        raise NcPolyError("standard_words needs a graded algebra")
    leads = set(map(tuple, basis.lead_words()))
    maxlw = max((len(w) for w in leads), default=1)
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
