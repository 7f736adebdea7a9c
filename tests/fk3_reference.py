"""Reference arithmetic in FK(3) and on the graded dual of its quadratic dual.

`AlgElem` and `mul_elems` multiply FK(3) elements through the engine's
multiplication table in field scalars; the word actions extend
`fk3core.dual_left_action` and `dual_right_action` letter by letter.  The
tests check the algebra's identities with them.
"""

from fk3hh.exactmath import QQ, add_term
from fk3hh.fk3core import (
    BASIS_WORDS,
    WORD_INDEX,
    dual_left_action,
    dual_right_action,
    mul_table,
)


def mul_elems(x: dict, y: dict, field=QQ) -> dict:
    """Bilinear extension of the table; x, y, result are {index: scalar}."""
    out = {}
    for i, ci in x.items():
        for j, cj in y.items():
            for k, s in mul_table()[(i, j)].items():
                out[k] = field.add(out.get(k, field.zero),
                                   field.mul(field.mul(ci, cj), field.of(s)))
    return {k: v for k, v in out.items() if v != field.zero}


class AlgElem:
    """An element of FK(3): coefficients over the twelve basis words."""

    def __init__(self, coeffs=None, field=QQ):
        self.field = field
        self.coeffs = {i: v for i, c in (coeffs or {}).items()
                       if (v := field.of(c)) != field.zero}

    @classmethod
    def word(cls, w: str, field=QQ):
        return cls({WORD_INDEX[w]: field.one}, field)

    def __add__(self, other):
        F = self.field
        out = dict(self.coeffs)
        for i, c in other.coeffs.items():
            out[i] = F.add(out.get(i, F.zero), c)
        return AlgElem(out, F)

    def __mul__(self, other):
        return AlgElem(mul_elems(self.coeffs, other.coeffs, self.field),
                       self.field)

    def __eq__(self, other):
        return isinstance(other, AlgElem) and self.coeffs == other.coeffs

    def __repr__(self):
        return " + ".join(f"{c}*{BASIS_WORDS[i] or '1'}"
                          for i, c in sorted(self.coeffs.items())) or "0"


def dual_left_action_elem(letter: str, f: dict) -> dict:
    """Linear extension of dual_left_action to {DualGen: coeff} elements."""
    out = {}
    for gen, c in f.items():
        for g2, s in dual_left_action(letter, gen).items():
            add_term(out, g2, c * s)
    return out


def dual_right_action_elem(f: dict, letter: str) -> dict:
    out = {}
    for gen, c in f.items():
        for g2, s in dual_right_action(gen, letter).items():
            add_term(out, g2, c * s)
    return out


def dual_word_left_action(word: str, f: dict) -> dict:
    """Action of a word u = l1 l2 ... lk: l1*(l2*(...*(lk*f)))."""
    for letter in reversed(word):
        f = dual_left_action_elem(letter, f)
    return f


def dual_word_right_action(f: dict, word: str) -> dict:
    for letter in word:
        f = dual_right_action_elem(f, letter)
    return f
