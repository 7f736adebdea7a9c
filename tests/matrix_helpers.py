"""SparseMat constructors, products and a dense oracle that only the tests use.

The engine ranks, reduces and solves with `fk3hh.exactmath`; these plain
functions build test matrices and multiply them out, through SparseMat's
public constructor and `triplets`, and eliminate dense copies of them
independently of the engine's kernel.
"""

from fk3hh.exactmath import QQ, SparseMat


def identity(n, field=QQ):
    return SparseMat(n, n, {(i, i): field.one for i in range(n)}, field)


def zero(rows, cols, field=QQ):
    return SparseMat(rows, cols, None, field)


def from_cols(cols_list, rows, field=QQ):
    """The matrix whose j-th column is the dict cols_list[j] (row -> scalar)."""
    return SparseMat.from_rows(cols_list, rows, field).transpose()


def col_dict(m, j):
    return {i: v for i, jj, v in m.triplets() if jj == j}


def matmul(a, b):
    if a.cols != b.rows:
        raise ValueError("shape mismatch")
    F = a.field
    b_rows = [{} for _ in range(b.rows)]
    for k, j, w in b.triplets():
        b_rows[k][j] = w
    out = {}
    for i, k, v in a.triplets():
        for j, w in b_rows[k].items():
            out[(i, j)] = F.add(out.get((i, j), F.zero), F.mul(v, w))
    return SparseMat(a.rows, b.cols, out, F)


def apply(m, vec):
    """Matrix times vector; vec and result are dicts index -> scalar."""
    F = m.field
    out = {}
    for i, j, v in m.triplets():
        if j in vec:
            out[i] = F.add(out.get(i, F.zero), F.mul(v, vec[j]))
    return {i: s for i, s in out.items() if s != F.zero}


def is_zero(m):
    return not m.nnz()


def dense(mat):
    out = [[mat.field.zero] * mat.cols for _ in range(mat.rows)]
    for i, j, v in mat.triplets():
        out[i][j] = v
    return out


def gauss_jordan(rows, pivot_limit, F):
    """Textbook dense Gauss-Jordan with pivots in columns < pivot_limit.

    Returns all rows after elimination (the first len(pivots) are the pivot
    rows, normalized) and the pivot columns.
    """
    rows = [list(r) for r in rows]
    pivots = []
    for col in range(pivot_limit):
        top = len(pivots)
        piv = next((i for i in range(top, len(rows)) if rows[i][col] != F.zero),
                   None)
        if piv is None:
            continue
        rows[top], rows[piv] = rows[piv], rows[top]
        inv = F.inv(rows[top][col])
        rows[top] = [F.mul(inv, x) for x in rows[top]]
        for i, row in enumerate(rows):
            if i != top and row[col] != F.zero:
                coef = row[col]
                rows[i] = [F.sub(x, F.mul(coef, y))
                           for x, y in zip(row, rows[top])]
        pivots.append(col)
    return rows, pivots
