"""The transcribed image tables of the induced (co)differentials.

These are published data, kept only as a verification oracle: the engine
derives every differential from the resolution's strata d and f, and
`tables_agree_with_maps` compares each table entry with the differentials
the homology and cohomology complexes actually use.

Cells are sums of `left|right` terms.  Homology cells are `word|dual` (an
element of A (x) the graded dual); cohomology cells are `dual|word` (the map
sending that dual generator to that word).  Either side may be a bracketed
linear combination, coefficients may be n-linear such as `2(n-2)`, the unit
word is written `1`, and `e` is the degree-zero generator eps.
"""

from __future__ import annotations

import re

from .cohomology import CohomologyComplex
from .fk3core import (
    BASIS_WORDS,
    WORD_DEGREE,
    WORD_INDEX,
    DualGen,
    dgen,
    dual_basis,
)
from .homology import HomologyComplex, _add

W = WORD_INDEX


# ---------------------------------------------------------------------------
# homology: images of the degree-n differential on word|gen, rows are words
# ---------------------------------------------------------------------------

TABLE_D1 = {  # images of the degree-1 differential, columns a, b, g
    "1": ("0", "0", "0"),
    "a": ("0", "(ba-ab)|e", "(-ab-bc-ac)|e"),
    "b": ("(ab-ba)|e", "0", "(-ba-ac-bc)|e"),
    "c": ("(ab+bc+ac)|e", "(ba+ac+bc)|e", "0"),
    "ab": ("-aba|e", "aba|e", "(bac-abc)|e"),
    "bc": ("(aba+abc)|e", "bac|e", "-bac|e"),
    "ba": ("aba|e", "-aba|e", "(abc-bac)|e"),
    "ac": ("abc|e", "(aba+bac)|e", "-abc|e"),
    "aba": ("0", "0", "-2abac|e"),
    "abc": ("0", "2abac|e", "0"),
    "bac": ("2abac|e", "0", "0"),
    "abac": ("0", "0", "0"),
}

TABLE_EVEN_ABG = {  # even n, columns a[n], b[n], g[n]
    "1": ("2a|a[n-1]", "2b|b[n-1]", "2c|g[n-1]"),
    "a": ("0", "(ab+ba)|b[n-1]", "(ac-ab-bc)|g[n-1]"),
    "b": ("(ab+ba)|a[n-1]", "0", "(bc-ba-ac)|g[n-1]"),
    "c": ("(ac-ab-bc)|a[n-1]", "(bc-ba-ac)|b[n-1]", "0"),
    "ab": ("aba|a[n-1]", "aba|b[n-1]", "(abc+bac)|g[n-1]"),
    "bc": ("(abc-aba)|a[n-1]", "-bac|b[n-1]", "-bac|g[n-1]"),
    "ba": ("aba|a[n-1]", "aba|b[n-1]", "(abc+bac)|g[n-1]"),
    "ac": ("-abc|a[n-1]", "(bac-aba)|b[n-1]", "-abc|g[n-1]"),
    "aba": ("0", "0", "0"),
    "abc": ("0", "0", "0"),
    "bac": ("0", "0", "0"),
    "abac": ("0", "0", "0"),
}

TABLE_EVEN_AB = {  # even n, column ab[n-1] (the paper's alpha_{n-1}beta)
    "1": "(a+c)|(b[n-1]+ab[n-2])+(b+a)|(g[n-1]+ag[n-2])+(c+b)|(a[n-1]+ab2[n-3])",
    "a": "-(ab+bc)|(b[n-1]+ab[n-2])+ab|(g[n-1]+ag[n-2])+(ba+ac)|(a[n-1]+ab2[n-3])",
    "b": "-ac|(b[n-1]+ab[n-2])+ab|(g[n-1]+ag[n-2])+bc|(a[n-1]+ab2[n-3])",
    "c": "-(ab+bc)|(b[n-1]+ab[n-2])-ba|(g[n-1]+ag[n-2])+bc|(a[n-1]+ab2[n-3])",
    "ab": "(aba+bac)|(b[n-1]+ab[n-2])+(aba+abc)|(a[n-1]+ab2[n-3])",
    "bc": "(-aba-bac)|(b[n-1]+ab[n-2])+(abc-bac)|(g[n-1]+ag[n-2])",
    "ba": "abc|(b[n-1]+ab[n-2])+2aba|(g[n-1]+ag[n-2])+bac|(a[n-1]+ab2[n-3])",
    "ac": "-2abc|(b[n-1]+ab[n-2])-aba|(g[n-1]+ag[n-2])+bac|(a[n-1]+ab2[n-3])",
    "aba": "abac|(-b[n-1]-ab[n-2]+a[n-1]+ab2[n-3])",
    "abc": "abac|(-g[n-1]-ag[n-2]+a[n-1]+ab2[n-3])",
    "bac": "abac|(-b[n-1]-ab[n-2]+g[n-1]+ag[n-2])",
    "abac": "0",
}

TABLE_EVEN_AG = {  # even n, column ag[n-1]
    "1": "(a+b)|(g[n-1]+ag[n-2])+(b+c)|(a[n-1]+ab2[n-3])+(c+a)|(b[n-1]+ab[n-2])",
    "a": "ba|(g[n-1]+ag[n-2])-bc|(a[n-1]+ab2[n-3])+ac|(b[n-1]+ab[n-2])",
    "b": "ba|(g[n-1]+ag[n-2])-(ba+ac)|(a[n-1]+ab2[n-3])+(ab+bc)|(b[n-1]+ab[n-2])",
    "c": "-ab|(g[n-1]+ag[n-2])-(ba+ac)|(a[n-1]+ab2[n-3])+ac|(b[n-1]+ab[n-2])",
    "ab": "2aba|(g[n-1]+ag[n-2])+bac|(a[n-1]+ab2[n-3])+abc|(b[n-1]+ab[n-2])",
    "bc": "-aba|(g[n-1]+ag[n-2])-2bac|(a[n-1]+ab2[n-3])+abc|(b[n-1]+ab[n-2])",
    "ba": "(aba+abc)|(a[n-1]+ab2[n-3])+(aba+bac)|(b[n-1]+ab[n-2])",
    "ac": "(bac-abc)|(g[n-1]+ag[n-2])-(aba+abc)|(a[n-1]+ab2[n-3])",
    "aba": "abac|(-a[n-1]-ab2[n-3]+b[n-1]+ab[n-2])",
    "abc": "abac|(g[n-1]+ag[n-2]-a[n-1]-ab2[n-3])",
    "bac": "abac|(-g[n-1]-ag[n-2]+b[n-1]+ab[n-2])",
    "abac": "0",
}

TABLE_EVEN_AB2 = {  # even n >= 4, column ab2[n-2]
    "1": "2a|ab2[n-3]+2b|ab[n-2]+2c|ag[n-2]",
    "a": "(ab+ba)|ab[n-2]+(ac-ab-bc)|ag[n-2]",
    "b": "(ab+ba)|ab2[n-3]+(bc-ba-ac)|ag[n-2]",
    "c": "(ac-ab-bc)|ab2[n-3]+(bc-ba-ac)|ab[n-2]",
    "ab": "aba|ab2[n-3]+aba|ab[n-2]+(abc+bac)|ag[n-2]",
    "bc": "(abc-aba)|ab2[n-3]-bac|ab[n-2]-bac|ag[n-2]",
    "ba": "aba|ab2[n-3]+aba|ab[n-2]+(abc+bac)|ag[n-2]",
    "ac": "-abc|ab2[n-3]+(bac-aba)|ab[n-2]-abc|ag[n-2]",
    "aba": "0",
    "abc": "0",
    "bac": "0",
    "abac": "0",
}

TABLE_ODD_ABG = {  # odd n >= 3, columns a[n], b[n], g[n]
    "1": ("0", "0", "0"),
    "a": ("0", "(ba-ab)|b[n-1]", "(-ab-bc-ac)|g[n-1]"),
    "b": ("(ab-ba)|a[n-1]", "0", "(-ba-ac-bc)|g[n-1]"),
    "c": ("(ab+bc+ac)|a[n-1]", "(ba+ac+bc)|b[n-1]", "0"),
    "ab": ("-aba|a[n-1]", "aba|b[n-1]", "(bac-abc)|g[n-1]"),
    "bc": ("(aba+abc)|a[n-1]", "bac|b[n-1]", "-bac|g[n-1]"),
    "ba": ("aba|a[n-1]", "-aba|b[n-1]", "(abc-bac)|g[n-1]"),
    "ac": ("abc|a[n-1]", "(aba+bac)|b[n-1]", "-abc|g[n-1]"),
    "aba": ("0", "0", "-2abac|g[n-1]"),
    "abc": ("0", "2abac|b[n-1]", "0"),
    "bac": ("2abac|a[n-1]", "0", "0"),
    "abac": ("0", "0", "0"),
}

TABLE_ODD_AB = {  # odd n >= 3, column ab[n-1]
    "1": "(c-a)|ab[n-2]+(a-c)|ag[n-2]",
    "a": "-(ab+bc)|ab[n-2]-ac|ag[n-2]+(ba-ab)|(a[n-1]+g[n-1]+ab2[n-3])",
    "b": "(-2ba-ac)|ab[n-2]+(ab-bc)|ag[n-2]",
    "c": "(ab+bc)|ab[n-2]+ac|ag[n-2]+(ba+ac+bc)|(a[n-1]+g[n-1]+ab2[n-3])",
    "ab": "(bac-aba)|ab[n-2]-abc|ag[n-2]+aba|(a[n-1]+g[n-1]+ab2[n-3])",
    "bc": "(aba-bac)|ab[n-2]+abc|ag[n-2]+bac|(a[n-1]+g[n-1]+ab2[n-3])",
    "ba": "abc|ab[n-2]+(aba-bac)|ag[n-2]-aba|(a[n-1]+g[n-1]+ab2[n-3])",
    "ac": "(aba+bac)|(a[n-1]+g[n-1]+ab2[n-3])",
    "aba": "-abac|(ab[n-2]+ag[n-2])",
    "abc": "2abac|(a[n-1]+g[n-1]+ab2[n-3])",
    "bac": "abac|(ab[n-2]+ag[n-2])",
    "abac": "0",
}

TABLE_ODD_AG = {  # odd n >= 3, column ag[n-1]
    "1": "(a-b)|ab[n-2]+(b-a)|ag[n-2]",
    "a": "-ab|ab[n-2]+ba|ag[n-2]-(ab+bc+ac)|(a[n-1]+b[n-1]+ab2[n-3])",
    "b": "ab|ab[n-2]-ba|ag[n-2]-(ba+ac+bc)|(a[n-1]+b[n-1]+ab2[n-3])",
    "c": "(2ac+ba)|ab[n-2]+(ab+2bc)|ag[n-2]",
    "ab": "(bac-abc)|(a[n-1]+b[n-1]+ab2[n-3])",
    "bc": "(abc+bac)|ab[n-2]+aba|ag[n-2]-bac|(a[n-1]+b[n-1]+ab2[n-3])",
    "ba": "(abc-bac)|(a[n-1]+b[n-1]+ab2[n-3])",
    "ac": "aba|ab[n-2]+(abc+bac)|ag[n-2]-abc|(a[n-1]+b[n-1]+ab2[n-3])",
    "aba": "-2abac|(a[n-1]+b[n-1]+ab2[n-3])",
    "abc": "abac|(ab[n-2]+ag[n-2])",
    "bac": "abac|(ab[n-2]+ag[n-2])",
    "abac": "0",
}

TABLE_ODD_AB2 = {  # odd n >= 3, column ab2[n-2]
    "1": "(b-c)|ab[n-2]+(c-b)|ag[n-2]",
    "a": "(ba-ac)|ab[n-2]-(2ab+bc)|ag[n-2]",
    "b": "(ab-ba)|(b[n-1]+g[n-1]+ab2[n-3])-bc|ab[n-2]-(ba+ac)|ag[n-2]",
    "c": "(ab+bc+ac)|(b[n-1]+g[n-1]+ab2[n-3])+bc|ab[n-2]+(ba+ac)|ag[n-2]",
    "ab": "-aba|(b[n-1]+g[n-1]+ab2[n-3])+(aba-abc)|ab[n-2]+bac|ag[n-2]",
    "bc": "(aba+abc)|(b[n-1]+g[n-1]+ab2[n-3])",
    "ba": "aba|(b[n-1]+g[n-1]+ab2[n-3])-bac|ab[n-2]+(abc-aba)|ag[n-2]",
    "ac": "abc|(b[n-1]+g[n-1]+ab2[n-3])+bac|ab[n-2]+(aba-abc)|ag[n-2]",
    "aba": "-abac|(ab[n-2]+ag[n-2])",
    "abc": "abac|(ab[n-2]+ag[n-2])",
    "bac": "2abac|(b[n-1]+g[n-1]+ab2[n-3])",
    "abac": "0",
}

# ---------------------------------------------------------------------------
# cohomology: images of the codifferential and of the dualized comparison
# maps on gen|word; rows are source tags at the stated level
# ---------------------------------------------------------------------------

T_ODD_43 = {  # columns abac, aba, abc, bac
    "a": ("0", "(ag[n]-ab[n])|abac", "(ag[n]-ab[n])|abac", "0"),
    "b": ("0", "(ab[n]-ag[n])|abac", "0", "(ab[n]-ag[n])|abac"),
    "g": ("0", "0", "(ab[n]-ag[n])|abac", "(ag[n]-ab[n])|abac"),
    "ab": ("0", "(ab[n]-ag[n])|abac", "0", "(ab[n]-ag[n])|abac"),
    "ag": ("0", "0", "(ab[n]-ag[n])|abac", "(ag[n]-ab[n])|abac"),
    "ab2": ("0", "(ag[n]-ab[n])|abac", "(ag[n]-ab[n])|abac", "0"),
}

T_ODD_2 = {  # columns ab, bc, ba, ac
    "a": ("a[n+1]|aba+ab[n]|bac+ag[n]|(aba+abc)",
          "a[n+1]|(abc-aba)-2ab[n]|bac",
          "a[n+1]|aba+ab[n]|(aba+abc)+ag[n]|bac",
          "-a[n+1]|abc-ab[n]|(aba+abc)+ag[n]|bac"),
    "b": ("b[n+1]|aba+ab[n]|abc+ag[n]|(aba+bac)",
          "-b[n+1]|bac+ab[n]|abc-ag[n]|(aba+bac)",
          "b[n+1]|aba+ab[n]|(aba+bac)+ag[n]|abc",
          "b[n+1]|(bac-aba)-2ag[n]|abc"),
    "g": ("g[n+1]|(abc+bac)+2ab[n]|aba",
          "-g[n+1]|bac-ab[n]|aba+ag[n]|(abc-bac)",
          "g[n+1]|(abc+bac)+2ag[n]|aba",
          "-g[n+1]|abc+ab[n]|(bac-abc)-ag[n]|aba"),
    "ab": ("ab[n]|abc+ag[n]|(aba+bac)+ab2[n-1]|aba",
           "ab[n]|abc-ag[n]|(aba+bac)-ab2[n-1]|bac",
           "ab[n]|(aba+bac)+ag[n]|abc+ab2[n-1]|aba",
           "-2ag[n]|abc+ab2[n-1]|(bac-aba)"),
    "ag": ("2ab[n]|aba+ab2[n-1]|(abc+bac)",
           "-ab[n]|aba+ag[n]|(abc-bac)-ab2[n-1]|bac",
           "2ag[n]|aba+ab2[n-1]|(abc+bac)",
           "ab[n]|(bac-abc)-ag[n]|aba-ab2[n-1]|abc"),
    "ab2": ("ab[n]|bac+ag[n]|(aba+abc)+ab2[n-1]|aba",
            "-2ab[n]|bac+ab2[n-1]|(abc-aba)",
            "ab[n]|(aba+abc)+ag[n]|bac+ab2[n-1]|aba",
            "-ab[n]|(aba+abc)+ag[n]|bac-ab2[n-1]|abc"),
}

T_ODD_10 = {  # columns a, b, c, 1
    "a": ("-ab[n]|bc+ag[n]|(ba+ac)",
          "a[n+1]|(ab+ba)-ab[n]|(ba+ac)+ag[n]|bc",
          "a[n+1]|(ac-ab-bc)-ab[n]|(ba+ac)+ag[n]|bc",
          "2a[n+1]|a+(ab[n]+ag[n])|(b+c)"),
    "b": ("b[n+1]|(ab+ba)+ab[n]|ac-ag[n]|(ab+bc)",
          "ab[n]|(ab+bc)-ag[n]|ac",
          "b[n+1]|(bc-ba-ac)+ab[n]|ac-ag[n]|(ab+bc)",
          "2b[n+1]|b+(ab[n]+ag[n])|(a+c)"),
    "g": ("g[n+1]|(ac-ab-bc)+ab[n]|ba+ag[n]|ab",
          "g[n+1]|(bc-ba-ac)+ab[n]|ba+ag[n]|ab",
          "-ab[n]|ab-ag[n]|ba",
          "2g[n+1]|c+(ab[n]+ag[n])|(a+b)"),
    "ab": ("ab[n]|ac-ag[n]|(ab+bc)+ab2[n-1]|(ab+ba)",
           "ab[n]|(ab+bc)-ag[n]|ac",
           "ab[n]|ac-ag[n]|(ab+bc)+ab2[n-1]|(bc-ba-ac)",
           "(ab[n]+ag[n])|(a+c)+2ab2[n-1]|b"),
    "ag": ("ab[n]|ba+ag[n]|ab+ab2[n-1]|(ac-ab-bc)",
           "ab[n]|ba+ag[n]|ab+ab2[n-1]|(bc-ba-ac)",
           "-ab[n]|ab-ag[n]|ba",
           "(ab[n]+ag[n])|(a+b)+2ab2[n-1]|c"),
    "ab2": ("-ab[n]|bc+ag[n]|(ba+ac)",
            "-ab[n]|(ba+ac)+ag[n]|bc+ab2[n-1]|(ab+ba)",
            "-ab[n]|(ba+ac)+ag[n]|bc+ab2[n-1]|(ac-ab-bc)",
            "(ab[n]+ag[n])|(b+c)+2ab2[n-1]|a"),
}

T_EVEN_43 = {  # columns abac, aba, abc, bac
    "a": ("0", "2ag[n]|abac", "-2ab[n]|abac", "-2a[n+1]|abac"),
    "b": ("0", "2ag[n]|abac", "-2b[n+1]|abac", "-2ab2[n-1]|abac"),
    "g": ("0", "2g[n+1]|abac", "-2ab[n]|abac", "-2ab2[n-1]|abac"),
    "ab": ("0", "ab[n]|abac+ab2[n-1]|abac", "-ag[n]|abac-ab2[n-1]|abac",
           "-ab[n]|abac-ag[n]|abac"),
    "ag": ("0", "ab[n]|abac+ab2[n-1]|abac", "-ag[n]|abac-ab2[n-1]|abac",
           "-ab[n]|abac-ag[n]|abac"),
    "ab2": ("0", "2ag[n]|abac", "-2ab[n]|abac", "-2ab2[n-1]|abac"),
}

T_EVEN_2 = {  # columns ab, bc, ba, ac
    "a": ("a[n+1]|aba-ab[n]|aba+ag[n]|(abc-bac)",
          "-a[n+1]|(aba+abc)-ab[n]|bac+ag[n]|bac",
          "-a[n+1]|aba+ab[n]|aba+ag[n]|(bac-abc)",
          "-a[n+1]|abc-ab[n]|(aba+bac)+ag[n]|abc"),
    "b": ("-b[n+1]|aba+ag[n]|(abc-bac)+ab2[n-1]|aba",
          "-b[n+1]|bac+ag[n]|bac-ab2[n-1]|(aba+abc)",
          "b[n+1]|aba+ag[n]|(bac-abc)-ab2[n-1]|aba",
          "-b[n+1]|(aba+bac)+ag[n]|abc-ab2[n-1]|abc"),
    "g": ("g[n+1]|(abc-bac)-ab[n]|aba+ab2[n-1]|aba",
          "g[n+1]|bac-ab[n]|bac-ab2[n-1]|(aba+abc)",
          "g[n+1]|(bac-abc)+ab[n]|aba-ab2[n-1]|aba",
          "g[n+1]|abc-ab[n]|(aba+bac)-ab2[n-1]|abc"),
    "ab": ("ab[n]|abc-ab2[n-1]|bac",
           "-ab[n]|abc-ag[n]|aba",
           "ab[n]|(bac-aba)+ab2[n-1]|(aba-abc)",
           "-ag[n]|(abc+bac)+ab2[n-1]|(abc-aba)"),
    "ag": ("ab[n]|(aba-bac)+ab2[n-1]|(abc-aba)",
           "ab[n]|(bac-aba)-ag[n]|(abc+bac)",
           "-ab[n]|abc+ab2[n-1]|bac",
           "-ag[n]|aba-ab2[n-1]|bac"),
    "ab2": ("-ab[n]|aba+ag[n]|(abc-bac)+ab2[n-1]|aba",
            "-ab[n]|bac+ag[n]|bac-ab2[n-1]|(aba+abc)",
            "ab[n]|aba+ag[n]|(bac-abc)-ab2[n-1]|aba",
            "-ab[n]|(aba+bac)+ag[n]|abc-ab2[n-1]|abc"),
}

T_EVEN_10 = {  # columns a, b, c, 1
    "a": ("ab[n]|(ab-ba)+ag[n]|(ab+bc+ac)",
          "a[n+1]|(ba-ab)+ag[n]|(ba+ac+bc)",
          "-a[n+1]|(ab+bc+ac)-ab[n]|(bc+ba+ac)",
          "0"),
    "b": ("b[n+1]|(ab-ba)+ag[n]|(ab+bc+ac)",
          "ag[n]|(ba+ac+bc)+ab2[n-1]|(ba-ab)",
          "-b[n+1]|(bc+ba+ac)-ab2[n-1]|(ab+bc+ac)",
          "0"),
    "g": ("g[n+1]|(ab+bc+ac)+ab[n]|(ab-ba)",
          "g[n+1]|(ba+ac+bc)+ab2[n-1]|(ba-ab)",
          "-ab[n]|(bc+ba+ac)-ab2[n-1]|(ab+bc+ac)",
          "0"),
    "ab": ("ab[n]|ac-ag[n]|ba+ab2[n-1]|(2ab+bc)",
           "ab[n]|(bc-ab)+ag[n]|ba+ab2[n-1]|(ba+ac)",
           "-ab[n]|ac-ag[n]|(ab+2bc)-ab2[n-1]|(ba+ac)",
           "ab[n]|(c-a)+ag[n]|(a-b)+ab2[n-1]|(b-c)"),
    "ag": ("ab[n]|(ab+bc)+ag[n]|ab+ab2[n-1]|(ac-ba)",
           "ab[n]|(2ba+ac)-ag[n]|ab+ab2[n-1]|bc",
           "-ab[n]|(ab+bc)-ag[n]|(ba+2ac)-ab2[n-1]|bc",
           "ab[n]|(a-c)+ag[n]|(b-a)+ab2[n-1]|(c-b)"),
    "ab2": ("ab[n]|(ab-ba)+ag[n]|(ab+bc+ac)",
            "ag[n]|(ba+ac+bc)+ab2[n-1]|(ba-ab)",
            "-ab[n]|(bc+ba+ac)-ab2[n-1]|(ab+bc+ac)",
            "0"),
}

T_F0 = {  # f^0, columns 1, a, b, c; rows at degree 3
    "a": ("4e|(bac-aba+abc)", "0", "0", "0"),
    "b": ("4e|(bac-aba+abc)", "0", "0", "0"),
    "g": ("4e|(bac-aba+abc)", "0", "0", "0"),
    "ab": ("2e|(aba-abc-bac)", "0", "0", "0"),
    "ag": ("2e|(aba-abc-bac)", "0", "0", "0"),
    "ab2": ("2e|(aba-abc-bac)", "0", "0", "0"),
}

T_F_ODD = {  # f^n, n odd, columns 1, a, b, c; rows at degree n + 3
    "a": ("0",
          "(4a[n]+4b[n]+4g[n]+2(n-2)ab[n-1]+2(n-2)ag[n-1]+2(n-1)ab2[n-2])|abac",
          "(2ag[n-1]-2ab2[n-2])|abac",
          "(2ab[n-1]-2ab2[n-2])|abac"),
    "b": ("0",
          "(2ag[n-1]-2ab[n-1])|abac",
          "(4a[n]+4b[n]+4g[n]+2(n-1)ab[n-1]+2(n-2)ag[n-1]+2(n-2)ab2[n-2])|abac",
          "(2ab2[n-2]-2ab[n-1])|abac"),
    "g": ("0",
          "(2ab[n-1]-2ag[n-1])|abac",
          "(2ab2[n-2]-2ag[n-1])|abac",
          "(4a[n]+4b[n]+4g[n]+2(n-2)ab[n-1]+2(n-1)ag[n-1]+2(n-2)ab2[n-2])|abac"),
    "ab": ("0", "0", "0", "0"),
    "ag": ("0", "0", "0", "0"),
    "ab2": ("0",
            "(-2a[n]-2b[n]-2g[n])|abac",
            "(-2a[n]-2b[n]-2g[n])|abac",
            "(-2a[n]-2b[n]-2g[n])|abac"),
}

T_F_EVEN = {  # f^n, n >= 2 even, column 1 only (all other columns vanish)
    "a": "2a[n]|(2bac-aba+abc)+2b[n]|(2abc+bac)+2g[n]|(bac-2aba)"
         "+(2(n-2)ab2[n-2])|(abc-aba+bac)",
    "b": "2a[n]|(2bac+abc)+2b[n]|(2abc-aba+bac)+2g[n]|(abc-2aba)"
         "+(2(n-2)ab2[n-2])|(abc-aba+bac)",
    "g": "2a[n]|(2bac-aba)+2b[n]|(2abc-aba)+2g[n]|(abc-2aba+bac)"
         "+(2(n-2)ab2[n-2])|(abc-aba+bac)",
    "ab": "-2a[n]|bac-2b[n]|abc+2g[n]|aba",
    "ag": "-2a[n]|bac-2b[n]|abc+2g[n]|aba",
    "ab2": "-2a[n]|bac-2b[n]|abc+2g[n]|aba",
}


# ---------------------------------------------------------------------------
# the one cell parser
# ---------------------------------------------------------------------------

_GEN_TOKEN = re.compile(r"^(a|b|g|ab|ag|ab2)\[n([+-]\d+)?\]$")
_N_COEFF = re.compile(r"^(\d+)\(n([+-]\d+)\)(.*)$")
_COEFF = re.compile(r"^(\d+)(.*)$")


def _atom(tok: str, n: int):
    """A basis word index, or a DualGen (None for a zero symbol).

    Dual tokens use the paper's letter indices: a[k] is alpha_k (degree k),
    ab[k] is alpha_k beta (degree k+1), ab2[k] is alpha_k beta_2 (degree k+2).
    """
    if tok == "e":
        return DualGen(0, "eps")
    if "[" not in tok:
        return W["" if tok == "1" else tok]
    m = _GEN_TOKEN.match(tok)
    if not m:
        raise ValueError(f"bad dual token {tok!r}")
    tag = m.group(1)
    shift = int(m.group(2) or 0)
    return dgen(tag, n + shift + {"ab": 1, "ag": 1, "ab2": 2}.get(tag, 0))


def _split_sum(s: str):
    """Split at top-level +/- (outside parens and index brackets)."""
    out = []
    depth = 0
    buf = ""
    sign = 1
    for ch in s:
        if ch in "([":
            depth += 1
            buf += ch
        elif ch in ")]":
            depth -= 1
            buf += ch
        elif ch in "+-" and depth == 0:
            if buf.strip():
                out.append((sign, buf.strip()))
                sign = 1 if ch == "+" else -1
            else:
                sign = sign * (1 if ch == "+" else -1)
            buf = ""
        else:
            buf += ch
    if buf.strip():
        out.append((sign, buf.strip()))
    return out


def _parse_lin(s: str, n: int) -> dict:
    """A linear combination such as '2(n-2)ab[n-1] - (b+c)': {atom: coeff}."""
    s = s.strip()
    if s in ("0", ""):
        return {}
    if s.startswith("(") and s.endswith(")"):
        # strip only if the parens match across the whole string
        depth = 0
        for i, ch in enumerate(s):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0 and i < len(s) - 1:
                    break
        else:
            return _parse_lin(s[1:-1], n)
    out = {}
    for sign, chunk in _split_sum(s):
        coeff = sign
        m = _N_COEFF.match(chunk)
        if m:
            coeff = sign * int(m.group(1)) * (n + int(m.group(2)))
            chunk = m.group(3).strip()
        else:
            m = _COEFF.match(chunk)
            if m and m.group(2).strip():
                coeff = sign * int(m.group(1))
                chunk = m.group(2).strip()
        if chunk.startswith("(") and chunk.endswith(")"):
            for k, v in _parse_lin(chunk, n).items():
                _add(out, k, coeff * v)
        else:
            k = _atom(chunk, n)
            if k is not None:
                _add(out, k, coeff)
    return out


def parse_cell(cell: str, n: int) -> dict:
    """Parse a table cell into {(left atom, right atom): int}."""
    out = {}
    for sign, term in _split_sum(cell.strip()):
        if term == "0":
            continue
        depth = 0
        left = right = None
        for i, ch in enumerate(term):
            if ch in "([":
                depth += 1
            elif ch in ")]":
                depth -= 1
            elif ch == "|" and depth == 0:
                left, right = term[:i], term[i + 1:]
                break
        if left is None:
            raise ValueError(f"bad cell term {term!r}")
        for a, ca in _parse_lin(left, n).items():
            for b, cb in _parse_lin(right, n).items():
                _add(out, (a, b), sign * ca * cb)
    return out


# ---------------------------------------------------------------------------
# table lookup and the entrywise comparison
# ---------------------------------------------------------------------------

_ABG = {"a": 0, "b": 1, "g": 2}
_CO_COLS = (("abac", "aba", "abc", "bac"), ("ab", "bc", "ba", "ac"),
            ("a", "b", "c", "1"))


def homology_table(n: int, x: int, gen: DualGen) -> dict:
    """The table value of the degree-n differential on x|gen (n >= 1)."""
    row = BASIS_WORDS[x] or "1"
    t = gen.tag
    if n == 1:
        cell = TABLE_D1[row][_ABG[t]]
    elif t in _ABG:
        table = TABLE_EVEN_ABG if n % 2 == 0 else TABLE_ODD_ABG
        cell = table[row][_ABG[t]]
    elif n % 2 == 0:
        cell = {"ab": TABLE_EVEN_AB, "ag": TABLE_EVEN_AG,
                "ab2": TABLE_EVEN_AB2}[t][row]
    else:
        cell = {"ab": TABLE_ODD_AB, "ag": TABLE_ODD_AG,
                "ab2": TABLE_ODD_AB2}[t][row]
    return parse_cell(cell, n)


def codiff_table(n: int, gen: DualGen, x: int) -> dict:
    """The table value of the codifferential on gen|x (n >= 1)."""
    word = BASIS_WORDS[x] or "1"
    tables = (T_ODD_43, T_ODD_2, T_ODD_10) if n % 2 else \
        (T_EVEN_43, T_EVEN_2, T_EVEN_10)
    for table, cols in zip(tables, _CO_COLS):
        if word in cols:
            return parse_cell(table[gen.tag][cols.index(word)], n)
    raise ValueError(f"no codifferential column for {word!r}")


def cof_table(j: int, gen: DualGen, x: int) -> dict:
    """The table value of the dualized comparison map f^j on gen|x; words
    outside the columns 1, a, b, c (and, for even j >= 2, outside 1) vanish."""
    word = BASIS_WORDS[x] or "1"
    if WORD_DEGREE[x] >= 2:
        return {}
    col = ("1", "a", "b", "c").index(word)
    if j == 0:
        return parse_cell(T_F0[gen.tag][col], j)
    if j % 2 == 1:
        return parse_cell(T_F_ODD[gen.tag][col], j)
    return parse_cell(T_F_EVEN[gen.tag], j) if col == 0 else {}


def tables_agree_with_maps(max_n: int = 12):
    """Compare every table entry, degrees <= max_n, with the differentials
    of HomologyComplex and CohomologyComplex.

    On an omega_0 basis element the homology differential is d alone; the
    codifferential's omega_0 part is d^* and its omega_1 part is f^*.
    Returns the disagreements as (table, n, gen, word, derived, table value)
    with table one of 'homology d', 'cohomology d', 'cohomology f'; empty
    when every entry matches.
    """
    hom, co = HomologyComplex(), CohomologyComplex()
    bad = []

    def check(table, n, gen, x, derived, value):
        if derived != value:
            bad.append((table, n, gen, BASIS_WORDS[x] or "1", derived, value))

    def co_part(n, gen, x, i):
        return {(u, w): c for (j, u, w), c in
                co.diff_key(n, (0, gen, x)).items() if j == i}

    for n in range(1, max_n + 1):
        for gen in dual_basis(n):
            for x in range(len(BASIS_WORDS)):
                d = {(w, v): c for (_, w, v), c in
                     hom.diff_key(n, (0, x, gen)).items()}
                check("homology d", n, gen, x, d, homology_table(n, x, gen))
                check("cohomology d", n, gen, x, co_part(n, gen, x, 0),
                      codiff_table(n, gen, x))
    for j in range(max_n + 1):
        for gen in dual_basis(j + 3):
            for x in range(len(BASIS_WORDS)):
                check("cohomology f", j, gen, x, co_part(j + 3, gen, x, 1),
                      cof_table(j, gen, x))
    return bad
