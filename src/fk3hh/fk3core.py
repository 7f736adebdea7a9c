"""The Fomin-Kirillov algebra FK(3), its quadratic dual, and the dual-basis action.

FK(3) is the quadratic algebra on a, b, c with relations
a^2, b^2, c^2, ab+bc+ca, ba+ac+cb.  Its fixed monomial basis is

    1, a, b, c, ab, bc, ba, ac, aba, abc, bac, abac

graded by word length (Adams degree 0..4).  The multiplication table is built
once, by running the shared rewriting/completion kernel on the relations with
the deglex order a < b < c (leading words a^2, b^2, c^2, ca, cb) and asserting
that the surviving normal words are exactly the twelve basis words.

The quadratic dual A^! lives on dual letters A, B, C; the graded dual of A^!
carries the A^!-bimodule action used by the Koszul complex.  Basis tags of
(A^!_{-n})^* follow the convention that a tag whose internal letter index
would drop to zero or below is the zero symbol and simply disappears:
degreewise dimensions are 1, 3, 5, 6, 6, ...
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

from . import ncgroebner
from .exactmath import QQ, add_term

GENS = ("a", "b", "c")

BASIS_WORDS = ("", "a", "b", "c", "ab", "bc", "ba", "ac", "aba", "abc", "bac", "abac")
WORD_INDEX = {w: i for i, w in enumerate(BASIS_WORDS)}
WORD_DEGREE = tuple(len(w) for w in BASIS_WORDS)
DIM = len(BASIS_WORDS)
DIM_BY_DEGREE = (1, 3, 4, 3, 1)
BASIS_BY_DEGREE = tuple(
    tuple(i for i, w in enumerate(BASIS_WORDS) if len(w) == m) for m in range(5)
)

# relations of FK(3) in the free algebra on (a, b, c) -> generator indices 1..3
_REL_WORDS = [
    {(1, 1): 1},
    {(2, 2): 1},
    {(3, 3): 1},
    {(1, 2): 1, (2, 3): 1, (3, 1): 1},  # ab + bc + ca
    {(2, 1): 1, (1, 3): 1, (3, 2): 1},  # ba + ac + cb
]


def _build_mul_table():
    """12x12 structure constants from the completed rewriting system, each
    entry {basis index: int} in ascending index order."""
    alg = ncgroebner.FreeAlgebra(3, QQ, bidegrees=[(1, 1)] * 3)
    gb = ncgroebner.buchberger_complete(alg, [alg.poly(r) for r in _REL_WORDS],
                                        degree_bound=8)
    if gb.truncated:
        raise RuntimeError("FK(3) completion unexpectedly truncated")
    normal = ncgroebner.standard_words(gb, up_to_hom_degree=6)
    letters = {1: "a", 2: "b", 3: "c"}
    normal_words = sorted("".join(letters[g] for g in w) for w in normal)
    if normal_words != sorted(BASIS_WORDS):
        raise RuntimeError(f"completion basis mismatch: {normal_words}")

    idx_of_tuple = {tuple(GENS.index(ch) + 1 for ch in w): i
                    for i, w in enumerate(BASIS_WORDS)}
    table = {}
    for i, wi in enumerate(BASIS_WORDS):
        for j, wj in enumerate(BASIS_WORDS):
            concat = tuple(GENS.index(ch) + 1 for ch in wi + wj)
            nf = ncgroebner.normal_form({concat: QQ.one}, gb)
            out = {}
            for w, c in nf.items():
                if c.denominator != 1:
                    raise RuntimeError("non-integer structure constant")
                out[idx_of_tuple[w]] = int(c)
            table[(i, j)] = dict(sorted(out.items()))
    return table


_MUL_TABLE = None


def mul_table():
    global _MUL_TABLE
    if _MUL_TABLE is None:
        _MUL_TABLE = _build_mul_table()
    return _MUL_TABLE


@cache
def triple_products() -> dict:
    """{(a, b): ((x, y, c), ...)}: the nonzero coefficients c of the words y
    in the products (a x) b over all twelve x, from mul_table() on first use
    and read-only.  A pass over the terms l|v|r of one image reaches every x
    at once through the products r x l."""
    table = mul_table()
    out = {}
    for a in range(DIM):
        for b in range(DIM):
            prods = []
            for x in range(DIM):
                acc = {}
                for m1, c1 in table[(a, x)].items():
                    for y, c2 in table[(m1, b)].items():
                        acc[y] = acc.get(y, 0) + c1 * c2
                prods += [(x, y, c) for y, c in acc.items() if c]
            out[(a, b)] = tuple(prods)
    return out


# ---------------------------------------------------------------------------
# the graded dual of the quadratic dual: basis tags and the letter actions
# ---------------------------------------------------------------------------

TAGS = ("a", "b", "g", "ab", "ag", "ab2")  # alpha_n, beta_n, gamma_n,
#                                            alpha_{n-1}beta, alpha_{n-1}gamma,
#                                            alpha_{n-2}beta_2
EPS_TAG = "eps"


class DualGen(NamedTuple):
    n: int
    tag: str

    def __repr__(self):
        if self.tag == EPS_TAG:
            return "eps"
        names = {"a": f"a{self.n}", "b": f"b{self.n}", "g": f"g{self.n}",
                 "ab": f"a{self.n - 1}b", "ag": f"a{self.n - 1}g",
                 "ab2": f"a{self.n - 2}b2"}
        return names[self.tag]


_MIN_N = {"a": 1, "b": 1, "g": 1, "ab": 2, "ag": 2, "ab2": 3}


def dgen(tag: str, n: int):
    """DualGen constructor honoring the zero-symbol convention (None = zero)."""
    if tag == EPS_TAG:
        return DualGen(0, EPS_TAG) if n == 0 else None
    if tag not in _MIN_N:
        raise ValueError(f"unknown dual tag {tag!r}")
    return DualGen(n, tag) if n >= _MIN_N[tag] else None


@cache
def dual_basis(n: int):
    """Ordered basis tags of (A^!_{-n})^*; dims 1, 3, 5, 6, 6, ...

    Memoised; the tuple is shared between calls."""
    if n < 0:
        return ()
    if n == 0:
        return (DualGen(0, EPS_TAG),)
    return tuple(g for g in (dgen(t, n) for t in TAGS) if g is not None)


def dual_dim(n: int) -> int:
    return len(dual_basis(n))


def chi(n: int) -> int:
    """Parity flag: 1 for even n, 0 for odd n."""
    return 1 if n % 2 == 0 else 0


def _comb(*pairs):
    """Sparse integer combination of DualGens, dropping zero symbols."""
    out = {}
    for coeff, gen in pairs:
        if gen is not None:
            add_term(out, gen, coeff)
    return out


def dual_left_action(letter: str, f: DualGen) -> dict:
    """Left action of a dual letter (A, B or C given as 'a'/'b'/'c') on a basis tag.

    Returns a new {DualGen: int}; degree drops by one.  Not memoised: the
    one caller in fk3hh is resolution.koszul_on_gen, whose memo keeps the
    Koszul differential on each generator.
    """
    n, tag = f.n, f.tag
    if n < 1:
        raise ValueError("left action needs degree >= 1")
    if n == 1:
        hit = {"a": "a", "b": "b", "c": "g"}[letter] == tag
        return {DualGen(0, EPS_TAG): 1} if hit else {}
    c_n, c_n1 = chi(n), chi(n + 1)
    if letter == "a":
        return {
            "a": _comb((1, dgen("a", n - 1))),
            "b": {},
            "g": {},
            "ab": _comb((c_n, dgen("g", n - 1)), (1, dgen("ag", n - 1))),
            "ag": _comb((c_n, dgen("b", n - 1)), (1, dgen("ab", n - 1))),
            "ab2": _comb((c_n1, dgen("b", n - 1)), (c_n1, dgen("g", n - 1)),
                         (1, dgen("ab2", n - 1))),
        }[tag]
    if letter == "b":
        return {
            "a": {},
            "b": _comb((1, dgen("b", n - 1))),
            "g": {},
            "ab": _comb((1, dgen("a", n - 1)), (c_n1, dgen("g", n - 1)),
                        (1, dgen("ab2", n - 1))),
            "ag": _comb((c_n, dgen("g", n - 1)), (1, dgen("ag", n - 1))),
            "ab2": _comb((1, dgen("ab", n - 1))),
        }[tag]
    if letter == "c":
        return {
            "a": {},
            "b": {},
            "g": _comb((1, dgen("g", n - 1))),
            "ab": _comb((c_n, dgen("b", n - 1)), (1, dgen("ab", n - 1))),
            "ag": _comb((1, dgen("a", n - 1)), (c_n1, dgen("b", n - 1)),
                        (1, dgen("ab2", n - 1))),
            "ab2": _comb((1, dgen("ag", n - 1))),
        }[tag]
    raise ValueError(f"unknown letter {letter!r}")


def dual_right_action(f: DualGen, letter: str) -> dict:
    """Right action mirror of dual_left_action (a new dict on each call;
    resolution.koszul_on_gen keeps the memo)."""
    n, tag = f.n, f.tag
    if n < 1:
        raise ValueError("right action needs degree >= 1")
    if n == 1:
        hit = {"a": "a", "b": "b", "c": "g"}[letter] == tag
        return {DualGen(0, EPS_TAG): 1} if hit else {}
    c_n, c_n1 = chi(n), chi(n + 1)
    if letter == "a":
        return {
            "a": _comb((1, dgen("a", n - 1))),
            "b": {},
            "g": {},
            "ab": _comb((c_n, dgen("b", n - 1)), (1, dgen("ab", n - 1))),
            "ag": _comb((c_n, dgen("g", n - 1)), (1, dgen("ag", n - 1))),
            "ab2": _comb((c_n1, dgen("b", n - 1)), (c_n1, dgen("g", n - 1)),
                         (1, dgen("ab2", n - 1))),
        }[tag]
    if letter == "b":
        return {
            "a": {},
            "b": _comb((1, dgen("b", n - 1))),
            "g": {},
            "ab": _comb((1, dgen("g", n - 1)), (c_n, dgen("ag", n - 1)),
                        (c_n1, dgen("a", n - 1)), (c_n1, dgen("ab2", n - 1))),
            "ag": _comb((c_n1, dgen("ab", n - 1)), (c_n, dgen("a", n - 1)),
                        (c_n, dgen("ab2", n - 1))),
            "ab2": _comb((c_n, dgen("ab", n - 1)), (c_n1, dgen("ag", n - 1))),
        }[tag]
    if letter == "c":
        return {
            "a": {},
            "b": {},
            "g": _comb((1, dgen("g", n - 1))),
            "ab": _comb((c_n1, dgen("ag", n - 1)), (c_n, dgen("a", n - 1)),
                        (c_n, dgen("ab2", n - 1))),
            "ag": _comb((1, dgen("b", n - 1)), (c_n, dgen("ab", n - 1)),
                        (c_n1, dgen("a", n - 1)), (c_n1, dgen("ab2", n - 1))),
            "ab2": _comb((c_n1, dgen("ab", n - 1)), (c_n, dgen("ag", n - 1))),
        }[tag]
    raise ValueError(f"unknown letter {letter!r}")
