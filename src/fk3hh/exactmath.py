"""Exact scalar arithmetic and sparse linear algebra.

Every rank, kernel, image and solve in the project runs through this module.
Scalars live in a Field: either Q (stdlib Fraction) or a prime field F_p with
p >= 5 (residues as plain ints).  All values are immutable after construction,
so matrices and subspaces can be shared freely.
"""

from __future__ import annotations

from fractions import Fraction


class FieldError(ValueError):
    pass


class RationalField:
    """The rationals; scalars are fractions.Fraction in lowest terms."""

    characteristic = 0

    zero = Fraction(0)
    one = Fraction(1)

    def of(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            return Fraction(x)
        raise FieldError(f"cannot coerce {x!r} into Q")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / a

    def div(self, a, b):
        return a / b

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def name(self):
        return "q"


class PrimeField:
    """F_p for a prime p not in {2, 3}; scalars are ints in [0, p)."""

    def __init__(self, p: int):
        if p < 5 or any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
            raise FieldError(f"modulus must be a prime >= 5, got {p}")
        self.p = p
        self.zero = 0
        self.one = 1
        self.characteristic = p

    def of(self, x):
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, Fraction):
            den = x.denominator % self.p
            if den == 0:
                raise FieldError(f"denominator of {x} vanishes mod {self.p}")
            return x.numerator * pow(den, -1, self.p) % self.p
        if isinstance(x, str):
            return self.of(Fraction(x))
        raise FieldError(f"cannot coerce {x!r} into F_{self.p}")

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return a * self.inv(b) % self.p

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def name(self):
        return f"prime:{self.p}"


QQ = RationalField()


def field_from_name(name: str):
    """Parse a field spec: 'q' | 'prime:<p>'."""
    name = name.strip().lower()
    if name in ("q", "qq", "rational"):
        return QQ
    if name.startswith("prime:"):
        return PrimeField(int(name.split(":", 1)[1]))
    raise FieldError(f"unknown field {name!r}")


def _rref_core(row_dicts, pivot_limit, field):
    """Reduced row echelon form with pivots restricted to columns < pivot_limit.

    Rows are dicts col->scalar (consumed).  Returns (pivrows, leftovers) where
    pivrows is a list of (pivot_col, row) sorted by pivot column with pivot
    entries normalized to one and pivot columns cleared from every other row,
    and leftovers are the nonzero rows supported entirely in columns >= limit.
    """
    F = field
    rows = [r for r in row_dicts if r]
    pivrows = []
    leftovers = []
    while rows:
        best = None
        for ri, r in enumerate(rows):
            c = min((c for c in r if c < pivot_limit), default=None)
            if c is not None and (best is None or c < best[0]):
                best = (c, ri)
        if best is None:
            leftovers.extend(rows)
            break
        pc, ri = best
        prow = rows.pop(ri)
        pinv = F.inv(prow[pc])
        prow = {c: F.mul(pinv, x) for c, x in prow.items()}
        for rset in (rows, pivrows):
            for k in range(len(rset)):
                r = rset[k][1] if rset is pivrows else rset[k]
                if pc in r:
                    coef = r[pc]
                    nr = dict(r)
                    for c, x in prow.items():
                        nv = F.sub(nr.get(c, F.zero), F.mul(coef, x))
                        if nv == F.zero:
                            nr.pop(c, None)
                        else:
                            nr[c] = nv
                    if rset is pivrows:
                        rset[k] = (rset[k][0], nr)
                    else:
                        rset[k] = nr
        rows = [r for r in rows if r]
        pivrows.append((pc, prow))
    pivrows.sort(key=lambda t: t[0])
    return pivrows, leftovers


class Subspace:
    """A subspace of k^n, stored by its reduced row-echelon basis.

    RREF is a canonical representative, so equal subspaces compare equal.
    """

    def __init__(self, ambient_dim, basis_rows, field=QQ):
        self.ambient_dim = ambient_dim
        self.field = field
        self.basis = tuple(tuple(sorted(r.items())) for r in basis_rows)

    @classmethod
    def span(cls, ambient_dim, vectors, field=QQ):
        """Canonicalize arbitrary spanning vectors (dicts col->scalar)."""
        pivrows, _ = _rref_core([dict(v) for v in vectors], ambient_dim, field)
        return cls(ambient_dim, [r for _, r in pivrows], field)

    @property
    def dim(self):
        return len(self.basis)

    def basis_dicts(self):
        return [dict(r) for r in self.basis]

    def reduce(self, vec):
        """Residual of a vector (dict col->scalar) after reduction by the basis."""
        F = self.field
        v = {c: x for c, x in vec.items() if x != F.zero}
        for row in self.basis:
            row = dict(row)
            piv = min(row)
            if piv in v:
                coef = v[piv]
                for c, x in row.items():
                    nv = F.sub(v.get(c, F.zero), F.mul(coef, x))
                    if nv == F.zero:
                        v.pop(c, None)
                    else:
                        v[c] = nv
        return v

    def contains(self, vec) -> bool:
        return not self.reduce(vec)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.field == other.field
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


class SparseMat:
    """Immutable sparse matrix over a field.

    Entries are kept as a dict (row, col) -> nonzero scalar; the canonical
    sorted triplet list is what equality and hashing use.
    """

    __slots__ = ("rows", "cols", "field", "_d")

    def __init__(self, rows, cols, entries=None, field=QQ):
        self.rows = rows
        self.cols = cols
        self.field = field
        d = {}
        if entries:
            if isinstance(entries, dict):
                items = (((i, j), v) for (i, j), v in entries.items())
            else:
                items = (((i, j), v) for i, j, v in entries)
            for (i, j), v in items:
                if not (0 <= i < rows and 0 <= j < cols):
                    raise IndexError(f"entry ({i},{j}) outside {rows}x{cols}")
                v = field.of(v)
                if v == field.zero:
                    continue
                key = (i, j)
                if key in d:
                    nv = field.add(d[key], v)
                    if nv == field.zero:
                        del d[key]
                    else:
                        d[key] = nv
                else:
                    d[key] = v
        self._d = d

    @classmethod
    def identity(cls, n, field=QQ):
        return cls(n, n, {(i, i): field.one for i in range(n)}, field)

    @classmethod
    def zero(cls, rows, cols, field=QQ):
        return cls(rows, cols, None, field)

    @classmethod
    def from_rows(cls, rows_list, cols, field=QQ):
        ent = {}
        for i, row in enumerate(rows_list):
            for j, v in row.items():
                ent[(i, j)] = v
        return cls(len(rows_list), cols, ent, field)

    @classmethod
    def from_cols(cls, cols_list, rows, field=QQ):
        ent = {}
        for j, col in enumerate(cols_list):
            for i, v in col.items():
                ent[(i, j)] = v
        return cls(rows, len(cols_list), ent, field)

    def get(self, i, j):
        return self._d.get((i, j), self.field.zero)

    def triplets(self):
        return sorted((i, j, v) for (i, j), v in self._d.items())

    def nnz(self):
        return len(self._d)

    def row_dicts(self):
        rows = [dict() for _ in range(self.rows)]
        for (i, j), v in self._d.items():
            rows[i][j] = v
        return rows

    def col_dict(self, j):
        return {i: v for (i, jj), v in self._d.items() if jj == j}

    def transpose(self):
        return SparseMat(
            self.cols, self.rows,
            {(j, i): v for (i, j), v in self._d.items()}, self.field,
        )

    def __eq__(self, other):
        return (
            isinstance(other, SparseMat)
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.field == other.field
            and self._d == other._d
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(self.triplets())))

    def __repr__(self):
        return f"SparseMat({self.rows}x{self.cols}, nnz={self.nnz()})"

    def matmul(self, other: "SparseMat") -> "SparseMat":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        F = self.field
        other_rows = other.row_dicts()
        out = {}
        for (i, k), v in self._d.items():
            for j, w in other_rows[k].items():
                key = (i, j)
                nv = F.add(out.get(key, F.zero), F.mul(v, w))
                if nv == F.zero:
                    out.pop(key, None)
                else:
                    out[key] = nv
        return SparseMat(self.rows, other.cols, out, F)

    def apply(self, vec):
        """Matrix times vector; vec and result are dicts index->scalar."""
        F = self.field
        cols = {}
        for (i, j), v in self._d.items():
            if j in vec:
                cols.setdefault(i, []).append(F.mul(v, vec[j]))
        out = {}
        for i, vals in cols.items():
            s = F.zero
            for v in vals:
                s = F.add(s, v)
            if s != F.zero:
                out[i] = s
        return out

    def is_zero(self):
        return not self._d

    def add(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        F = self.field
        out = dict(self._d)
        for key, v in other._d.items():
            nv = F.add(out.get(key, F.zero), v)
            if nv == F.zero:
                out.pop(key, None)
            else:
                out[key] = nv
        return SparseMat(self.rows, self.cols, out, F)

    # ----- elimination -----

    def rank(self) -> int:
        """Rank by structural (Markowitz) pivoting; fast, not canonical."""
        F = self.field
        rows = [r for r in self.row_dicts() if r]
        rank = 0
        while rows:
            colcount = {}
            for r in rows:
                for j in r:
                    colcount[j] = colcount.get(j, 0) + 1
            best = None
            for ri, r in enumerate(rows):
                rl = len(r) - 1
                for j in r:
                    key = (rl * (colcount[j] - 1), rl, j, ri)
                    if best is None or key < best:
                        best = key
            _, _, pj, pri = best
            prow = rows.pop(pri)
            rank += 1
            pinv = F.inv(prow[pj])
            nrows = []
            for r in rows:
                if pj in r:
                    coef = F.mul(r[pj], pinv)
                    for c, x in prow.items():
                        nv = F.sub(r.get(c, F.zero), F.mul(coef, x))
                        if nv == F.zero:
                            r.pop(c, None)
                        else:
                            r[c] = nv
                if r:
                    nrows.append(r)
            rows = nrows
        return rank

    def rref(self):
        """Canonical RREF: (list of rows as dicts, sorted pivot columns)."""
        pivrows, _ = _rref_core(self.row_dicts(), self.cols, self.field)
        return [r for _, r in pivrows], [c for c, _ in pivrows]

    def kernel(self) -> Subspace:
        """Canonical (RREF) basis of the null space."""
        F = self.field
        rref_rows, pivots = self.rref()
        pivset = set(pivots)
        basis = []
        for fcol in range(self.cols):
            if fcol in pivset:
                continue
            vec = {fcol: F.one}
            for row, pcol in zip(rref_rows, pivots):
                if fcol in row:
                    vec[pcol] = F.neg(row[fcol])
            basis.append(vec)
        return Subspace(self.cols, basis, F)

    def image(self) -> Subspace:
        """Canonical (RREF) basis of the column space."""
        rref_rows, _ = self.transpose().rref()
        return Subspace(self.rows, rref_rows, self.field)

    def solve(self, rhs):
        """One particular solution of M x = rhs, or None if inconsistent."""
        return self.solve_many([rhs])[0]

    def solve_many(self, rhs_list):
        """Solve M x = rhs for several right-hand sides with one elimination.

        rhs entries may be dicts row->scalar or sequences of length `rows`.
        Returns a list of solutions (dicts col->scalar, free vars at zero),
        with None for inconsistent systems.
        """
        F = self.field
        k = len(rhs_list)
        rows = self.row_dicts()
        for t, rhs in enumerate(rhs_list):
            if not isinstance(rhs, dict):
                rhs = {i: v for i, v in enumerate(rhs)}
            for i, v in rhs.items():
                v = F.of(v)
                if v != F.zero:
                    rows[i][self.cols + t] = v
        pivrows, leftovers = _rref_core(rows, self.cols, F)
        out = []
        for t in range(k):
            rcol = self.cols + t
            if any(rcol in r for r in leftovers):
                out.append(None)
                continue
            sol = {}
            for pcol, row in pivrows:
                v = row.get(rcol, F.zero)
                if v != F.zero:
                    sol[pcol] = v
            out.append(sol)
        return out

    def solver(self) -> "LinearSolver":
        """Factorize once, then solve many right-hand sides cheaply."""
        return LinearSolver(self)


class LinearSolver:
    """Reusable particular-solution solver built from one elimination of [M|I].

    Each pivot row's identity tail t_p satisfies t_p M = (unit row at p plus
    free columns), so x[p] = t_p . b is a particular solution with free
    variables at zero; leftover rows certify consistency: l . b must vanish.
    """

    def __init__(self, mat: SparseMat):
        F = mat.field
        self.field = F
        self.cols = mat.cols
        rows = mat.row_dicts()
        for i in range(mat.rows):
            rows[i][mat.cols + i] = F.one
        pivrows, leftovers = _rref_core(rows, mat.cols, F)
        self.transform = [
            (pcol, {c - mat.cols: v for c, v in row.items() if c >= mat.cols})
            for pcol, row in pivrows
        ]
        self.checks = [
            {c - mat.cols: v for c, v in row.items() if c >= mat.cols}
            for row in leftovers
        ]

    def _dot(self, row, b):
        F = self.field
        s = F.zero
        if len(row) < len(b):
            for i, v in row.items():
                if i in b:
                    s = F.add(s, F.mul(v, b[i]))
        else:
            for i, v in b.items():
                if i in row:
                    s = F.add(s, F.mul(row[i], v))
        return s

    def solve(self, rhs):
        """Particular solution of M x = rhs (dict row->scalar), or None."""
        F = self.field
        b = {i: F.of(v) for i, v in rhs.items() if F.of(v) != F.zero}
        for row in self.checks:
            if self._dot(row, b) != F.zero:
                return None
        sol = {}
        for pcol, trow in self.transform:
            v = self._dot(trow, b)
            if v != F.zero:
                sol[pcol] = v
        return sol
