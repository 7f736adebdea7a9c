"""Frozen published values shared by the test modules: the homology
dimension grid and totals.  The explicit series are `fk3hh.paperdata`'s."""

# dimension grid of degree-(n, m) homology for n = 0..19 (None = not printed)
HOMOLOGY_GRID = {
    0: [1, 3, 1, 4, 1, 4, 1, 4, 1, 4, 1, 4, 1, 4, 1, 4, 1, 4, 1, 4],
    1: [3, 3, 6, 3, 4, 1, 4, 1, 4, 1, 4, 1, 4, 1, 4, 1, 4, 1, 4, 1],
    2: [2, 2, 2, 0, 0, 3, 1, 4, 1, 4, 1, 4, 1, 4, 1, 4, 1, 4, 1, 4],
    3: [0, 0, 1, 1, 7, 4, 10, 4, 8, 2, 8, 2, 8, 2, 8, 2, 8, 2, 8, 2],
    4: [0, 1, 1, 4, 3, 6, 3, 4, 1, 7, 2, 8, 2, 8, 2, 8, 2, 8, 2, 8],
    5: [None, None, None, None, 0, 0, 1, 1, 7, 4, 10, 4, 8, 2, 8, 2, 8, 2, 8, 2],
    6: [None, None, None, None, 0, 1, 1, 4, 3, 6, 3, 4, 1, 7, 2, 8, 2, 8, 2, 8],
    7: [None] * 8 + [0, 0, 1, 1, 7, 4, 10, 4, 8, 2, 8, 2],
    8: [None] * 8 + [0, 1, 1, 4, 3, 6, 3, 4, 1, 7, 2, 8],
    9: [None] * 12 + [0, 0, 1, 1, 7, 4, 10, 4],
    10: [None] * 12 + [0, 1, 1, 4, 3, 6, 3, 4],
    11: [None] * 16 + [0, 0, 1, 1],
    12: [None] * 16 + [0, 1, 1, 4],
}

HOMOLOGY_TOTALS = [6, 9, 11, 12, 15, 19, 21, 22, 25, 29,
                   31, 32, 35, 39, 41, 42, 45, 49, 51, 52]
