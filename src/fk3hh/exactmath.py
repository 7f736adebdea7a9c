"""Exact scalar arithmetic and sparse linear algebra.

Every rank, kernel, image and solve in the project runs through this module,
on one matrix type, SparseMat, which holds its rows as dicts col -> entry,
and through one sparse elimination kernel (_echelon, wrapped by
SparseMat.rank, by _rref_core, by LinearSolver, which factorises a
SparseMat (SparseMat.solve_many solves through it), and by AffineRank,
which ranks integer rows a + b n at every n from one elimination of their
constant rows): pivot columns in
increasing order (so the reduced row echelon form is canonical), each taken
from the shortest row holding it, with a column -> rows index kept up to
date as entries fill in and cancel.  The kernel copies its input rows once;
over Q it works on integer rows, fraction-free (Bareiss-style
r <- a r - b prow, then divided by the row's content); over F_p it scales
each pivot row by the inverse pivot.
Membership tests reduce a vector by stored echelon rows instead: those of a
Subspace, or of an EchelonBasis, which grows one vector at a time.
Scalars live in a Field: either Q (stdlib Fraction, or int where a raw
integer is kept) or a prime field F_p with p >= 5 (residues as plain ints).
Matrices and subspaces are immutable after construction, so they can be
shared freely.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


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
        if isinstance(x, (int, str)):
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
        return Fraction(1, a)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


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

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


QQ = RationalField()


def field_from_name(name: str):
    """Parse a field spec: 'q' | 'prime:<p>'."""
    name = name.strip().lower()
    if name in ("q", "qq", "rational"):
        return QQ
    if name.startswith("prime:") and name[6:].strip().isdigit():
        return PrimeField(int(name[6:]))
    raise FieldError(f"unknown field {name!r}")


def add_term(out, key, c):
    """out[key] += c in a sparse sum; a key whose sum cancels is dropped."""
    if not c:
        return
    nv = out.get(key, 0) + c
    if nv == 0:
        out.pop(key, None)
    else:
        out[key] = nv


def scalars(acc, field, den=1):
    """Sums accumulated in raw ints or Fractions, divided by the integer den
    and made field scalars once, with the zeros dropped (over F_p a sum may
    be a nonzero multiple of p)."""
    if den != 1:
        if not field.characteristic:
            return {key: Fraction(v, den) for key, v in acc.items() if v}
        inv = field.inv(den)
        acc = {key: v * inv for key, v in acc.items()}
    out = {}
    for key, v in acc.items():
        v = field.of(v)
        if v:
            out[key] = v
    return out


def to_integers(vec, field):
    """(ints, e): a vector of raw ints or anything field.of accepts, scaled
    to integers by the common denominator e of its entries, zeros dropped;
    vec = ints / e.  Over F_p the entries are reduced to residues, e = 1."""
    if field.characteristic:
        return {i: v for i, x in vec.items() if (v := field.of(x))}, 1
    if all(type(x) is int for x in vec.values()):
        return {i: x for i, x in vec.items() if x}, 1
    vec = {i: x if type(x) is int else field.of(x) for i, x in vec.items()}
    e = lcm(*(v.denominator for v in vec.values()))
    if e == 1:
        return {i: v.numerator for i, v in vec.items() if v}, 1
    return {i: v.numerator * (e // v.denominator)
            for i, v in vec.items() if v}, e


def _integral(row):
    """A new row: the rational row scaled to coprime integers (a nonzero
    multiple of it)."""
    try:
        g = gcd(*row.values())
    except TypeError:  # a Fraction among the entries
        pass
    else:
        return dict(row) if g == 1 else {c: x // g for c, x in row.items()}
    den = lcm(*(x.denominator for x in row.values()))
    row = {c: x.numerator * (den // x.denominator) for c, x in row.items()}
    g = gcd(*row.values())
    return {c: x // g for c, x in row.items()}


def _rref_core(rows, pivot_limit, field):
    """Reduced row echelon form with pivots restricted to columns < pivot_limit.

    Rows are dicts col -> nonzero scalar, left as they are.  Returns the
    pivot rows as a list of (pivot_col, row) sorted by pivot column, with
    pivot entries normalized to one and pivot columns cleared from every
    other row.  Fractions are built only for these rows, from the integer
    rows of _echelon.
    """
    pivrows, _ = _echelon(rows, pivot_limit, field)
    if not field.characteristic:
        pivrows = [(pc, {c: Fraction(x, r[pc]) for c, x in r.items()})
                   for pc, r in pivrows]
    return pivrows


def _echelon(rows_in, pivot_limit, field, reduced=True):
    """(pivrows, leftovers): the elimination behind _rref_core, with the
    pivot rows left unscaled over Q: there each is an integer row whose
    pivot entry is any nonzero int (over F_p the pivot entry is one).
    leftovers are the nonzero rows left supported in columns >= pivot_limit
    (multiples of combinations of the input rows).  reduced=False stops
    after the forward sweep: the pivot rows are then echelon rows, good
    only for counting.  It works on its own copy of the rows: over Q scaled
    to coprime integers, over F_p as they are."""
    p = field.characteristic
    rows = {i: dict(r) if p else _integral(r)
            for i, r in enumerate(rows_in) if r}
    colrows = {}
    for i, r in rows.items():
        for c in r:
            if c < pivot_limit:
                colrows.setdefault(c, set()).add(i)
    pivrows = []
    for pc in sorted(colrows):  # fill-in only copies columns already present
        holders = colrows.pop(pc)
        if not holders:
            continue
        # the shortest holder, the lowest index among equals
        pi, plen = -1, 0
        for i in holders:
            n = len(rows[i])
            if pi < 0 or n < plen or n == plen and i < pi:
                pi, plen = i, n
        holders.discard(pi)
        prow = rows.pop(pi)
        for c in prow.keys() & colrows.keys():
            colrows[c].discard(pi)
        if p:
            pinv = pow(prow[pc], -1, p)
            prow = {c: x * pinv % p for c, x in prow.items()}
        for i in holders:
            if not _eliminate(rows[i], prow, pc, p, colrows, i):
                del rows[i]
        pivrows.append((pc, prow))
    if not reduced:
        return pivrows, list(rows.values())
    # back-substitution: clear each later pivot column from the rows above it
    pivcols = dict(pivrows)
    for pc, r in reversed(pivrows):
        for c in [c for c in r if c in pivcols and c != pc]:
            _eliminate(r, pivcols[c], c, p, {}, None)
    return pivrows, list(rows.values())


def _eliminate(r, prow, pc, p, colrows, i):
    """Clear column pc of row r in place with prow; returns r.

    Over F_p, prow[pc] is one and r <- r - r[pc] prow.  Over Q (p == 0) the
    rows hold ints and r <- a r - b prow with a / b = prow[pc] / r[pc] in
    lowest terms and a > 0 (the sign goes into b: no caller needs r's sign),
    then r is divided by its content unless a is 1 or the content is.
    Entries that fill in or cancel are recorded for row i in the column
    index colrows.
    """
    if p:
        a, b = 1, r[pc]
    else:
        g = gcd(prow[pc], r[pc])
        a, b = prow[pc] // g, r[pc] // g
        if a < 0:
            a, b = -a, -b
        if a != 1:
            for c in r:
                r[c] *= a
    for c, x in prow.items():
        nv = (r.get(c, 0) - b * x) % p if p else r.get(c, 0) - b * x
        if not nv:
            del r[c]
            if c in colrows:
                colrows[c].discard(i)
        else:
            if c in colrows and c not in r:
                colrows[c].add(i)
            r[c] = nv
    if a != 1:
        g = gcd(*r.values())
        if g != 1:
            for c in r:
                r[c] //= g
    return r


def _reduce_by_rows(rows, vec, F):
    """Residual of vec after reduction by echelon rows, in their order.

    Each row is a sorted tuple of (col, scalar) that starts with its pivot,
    1, and is zero at the pivots of the rows before it.
    """
    v = {c: x for c, x in vec.items() if x != F.zero}
    for row in rows:
        coef = v.get(row[0][0])
        if coef is not None:
            for c, x in row:
                nv = F.sub(v.get(c, F.zero), F.mul(coef, x))
                if nv == F.zero:
                    v.pop(c, None)
                else:
                    v[c] = nv
    return v


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
        rows = [{c: x for c, x in v.items() if x != field.zero} for v in vectors]
        pivrows = _rref_core(rows, ambient_dim, field)
        return cls(ambient_dim, [r for _, r in pivrows], field)

    @property
    def dim(self):
        return len(self.basis)

    def basis_dicts(self):
        return [dict(r) for r in self.basis]

    def reduce(self, vec):
        """Residual of a vector (dict col->scalar) after reduction by the basis."""
        return _reduce_by_rows(self.basis, vec, self.field)

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


class EchelonBasis:
    """A span grown one vector at a time, at one reduction per vector.

    Unlike Subspace the rows are not canonical: each is the residual of the
    vector that added it, scaled to pivot 1 at its first column.
    """

    def __init__(self, field=QQ):
        self.field = field
        self.rows = []

    def __len__(self):
        return len(self.rows)

    def add(self, vec) -> bool:
        """Keep what vec adds to the span; True when that is not zero."""
        F = self.field
        v = _reduce_by_rows(self.rows, vec, F)
        if not v:
            return False
        inv = F.inv(v[min(v)])
        self.rows.append(tuple(sorted((c, F.mul(inv, x)) for c, x in v.items())))
        return True


class SparseMat:
    """Immutable sparse matrix over a field, held as its rows.

    Row i is a dict col -> nonzero entry: over Q an int or a Fraction, kept
    as given, over F_p a residue in [0, p).  Equal matrices compare and hash
    equal whatever the entries' types (1 == Fraction(1), with equal hashes).
    The elimination copies the rows it works on and never changes them.
    """

    __slots__ = ("rows", "cols", "field", "_r")

    def __init__(self, rows, cols, entries=None, field=QQ):
        """entries: a dict (i, j) -> scalar or (i, j, scalar) triplets, any
        scalar field.of accepts; repeated positions are summed."""
        if isinstance(entries, dict):
            entries = ((i, j, v) for (i, j), v in entries.items())
        r = [{} for _ in range(rows)]
        for i, j, v in entries or ():
            if not (0 <= i < rows and 0 <= j < cols):
                raise IndexError(f"entry ({i},{j}) outside {rows}x{cols}")
            add_term(r[i], j, v if type(v) is int else field.of(v))
        self._set(r, cols, field)

    @classmethod
    def from_rows(cls, rows_list, cols, field=QQ):
        """The matrix with these rows (dicts col -> int or Fraction, or a
        residue over F_p), taken over as they are over Q, zeros dropped;
        over F_p the entries are reduced mod p."""
        mat = cls.__new__(cls)
        mat._set(rows_list, cols, field)
        return mat

    def _set(self, rows_list, cols, field):
        p = field.characteristic
        if p:
            rows_list = [{c: v for c, x in r.items()
                          if (v := x % p if type(x) is int else field.of(x))}
                         for r in rows_list]
        else:
            rows_list = [r if all(r.values()) else
                         {c: x for c, x in r.items() if x} for r in rows_list]
        self.rows = len(rows_list)
        self.cols = cols
        self.field = field
        self._r = rows_list

    def triplets(self):
        return [(i, j, r[j]) for i, r in enumerate(self._r) for j in sorted(r)]

    def nnz(self):
        return sum(map(len, self._r))

    def transpose(self):
        cols = [{} for _ in range(self.cols)]
        for i, r in enumerate(self._r):
            for j, v in r.items():
                cols[j][i] = v
        return SparseMat.from_rows(cols, self.rows, self.field)

    def __eq__(self, other):
        return (
            isinstance(other, SparseMat)
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.field == other.field
            and self._r == other._r
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(self.triplets())))

    def __repr__(self):
        return f"SparseMat({self.rows}x{self.cols}, nnz={self.nnz()})"

    # ----- elimination -----

    def rank(self) -> int:
        """Rank: the number of pivots of the kernel's forward sweep."""
        pivrows, _ = _echelon(self._r, self.cols, self.field, reduced=False)
        return len(pivrows)

    def rref(self):
        """Canonical RREF: (list of rows as dicts, sorted pivot columns)."""
        pivrows = _rref_core(self._r, self.cols, self.field)
        return [r for _, r in pivrows], [c for c, _ in pivrows]

    def kernel(self) -> Subspace:
        """Canonical (RREF) basis of the null space."""
        F = self.field
        rref_rows, pivots = self.rref()
        basis = []
        for fcol in sorted(set(range(self.cols)) - set(pivots)):
            vec = {fcol: F.one}
            for row, pcol in zip(rref_rows, pivots):
                if fcol in row:
                    vec[pcol] = F.neg(row[fcol])
            basis.append(vec)
        return Subspace.span(self.cols, basis, F)

    def image(self) -> Subspace:
        """Canonical (RREF) basis of the column space."""
        rref_rows, _ = self.transpose().rref()
        return Subspace(self.rows, rref_rows, self.field)

    def solve_many(self, rhs_list):
        """Solve M x = rhs for several right-hand sides (dicts row ->
        scalar) against one factorisation: a list of solutions (dicts
        col -> scalar, free variables at zero), None where inconsistent."""
        solver = LinearSolver(self)
        return [solver.solve(rhs) for rhs in rhs_list]


class LinearSolver:
    """Reusable particular-solution solver built from one elimination of [M|I].

    Each pivot row's identity tail t_p satisfies t_p M = (unit row at p plus
    free columns), so x[p] = t_p . b is a particular solution with free
    variables at zero; leftover rows certify consistency: l . b must vanish.
    The tails are kept in integers, fraction-free: the t-th transform row,
    divided by _dens[t] (1 over F_p), is the tail of pivot column _pcols[t],
    and each check row is an integer multiple of l.  Both sets of rows are
    stored transposed, indexed by the right-hand-side row, so that a solve
    touches only the rows meeting b's support.
    """

    def __init__(self, mat: SparseMat):
        F, cols = mat.field, mat.cols
        self.field = F
        pivrows, leftovers = _echelon(
            ({**row, cols + i: 1} for i, row in enumerate(mat._r)), cols, F)

        def tail(row):
            return {c - cols: v for c, v in row.items() if c >= cols}

        self._pcols, self._dens, transform = [], [], []
        for pcol, row in pivrows:
            t = tail(row)
            den = row[pcol]
            g = gcd(den, *t.values())
            if den < 0:
                g = -g
            self._pcols.append(pcol)
            self._dens.append(den // g)
            transform.append({i: v // g for i, v in t.items()})
        self._transform = _by_entry(transform)
        self._checks = _by_entry([tail(row) for row in leftovers])

    def solve(self, rhs):
        """Particular solution of M x = rhs (dict row->scalar), or None.

        b is scaled to integers by the common denominator e of its entries,
        so each coordinate is one integer dot product, made a scalar once:
        x[p] = (t . e b) / (den e) over Q, (t . b) mod p over F_p.
        """
        dots, e = self._particular(rhs)
        if dots is None:
            return None
        if self.field.characteristic:
            return {self._pcols[t]: dots[t] for t in sorted(dots)}
        return {self._pcols[t]: Fraction(dots[t], self._dens[t] * e)
                for t in sorted(dots)}

    def support(self, rhs):
        """The pivot columns where solve(rhs) is nonzero, or None where it
        is None, from the same dot products and with no scalar made."""
        dots, _ = self._particular(rhs)
        return None if dots is None else [self._pcols[t] for t in dots]

    def _particular(self, rhs):
        """(dots, e): b = e rhs in integers and {t: t-th transform row . b},
        reduced mod p, for the nonzero dots; dots is None when a check row
        does not vanish on b."""
        p = self.field.characteristic
        b, e = to_integers(rhs, self.field)
        if any(v % p if p else v for v in _dots(self._checks, b).values()):
            return None, e
        dots = _dots(self._transform, b)
        if p:
            return {t: r for t, v in dots.items() if (r := v % p)}, e
        return {t: v for t, v in dots.items() if v}, e


def _by_entry(rows):
    """Sparse integer rows transposed: {i: [(row number, value at i)]}."""
    out = {}
    for t, row in enumerate(rows):
        for i, v in row.items():
            out.setdefault(i, []).append((t, v))
    return out


def _dots(by_entry, b):
    """{t: row_t . b} over the rows meeting b's support (b: dict i -> int),
    from the rows' transposed index _by_entry; other dots are zero."""
    out = {}
    for i, bi in b.items():
        for t, v in by_entry.get(i, ()):
            out[t] = out.get(t, 0) + v * bi
    return out


def affine_at(rows, n: int) -> list:
    """The raw integer rows a + b n of affine rows {col: (a, b)}, zeros
    dropped."""
    return [{c: v for c, (a, b) in row.items() if (v := a + b * n)}
            for row in rows]


class AffineRank:
    """The rank at every n of the integer rows a + b n of affine rows
    {col: (a, b)}, from one elimination of the constant rows C (b = 0) and,
    at each n, one of the few others reduced modulo C's row space:

        rank [C; A + n B] = rank C + rank of (A + n B) reduced modulo C.

    Reduction is linear, so the residual of a row a + b n is a' + b' n for
    the residuals a' and b' of a and b.  Each affine row is reduced as one
    integer row [a | b], b's columns shifted by `cols`, by the kernel's
    row operation (_eliminate) against each pivot row of C's reduced
    echelon form and against that row shifted by `cols`: one operation
    scales both halves alike, so a' + b' n is a nonzero integer multiple
    of the residual at every n.  Kept are rank C (`rank_c`), the residual
    pairs (`residuals`, the rows that reduce to zero dropped) and
    `cols`."""

    def __init__(self, rows, cols: int, field):
        p = field.characteristic
        self.cols, self.field = cols, field
        const, affine = [], []
        for row in rows:
            if any(b for _, b in row.values()):
                affine.append(row)
            else:
                const.append({c: a for c, (a, _) in row.items()})
        pivrows, _ = _echelon(SparseMat.from_rows(const, cols, field)._r,
                              cols, field)
        self.rank_c = len(pivrows)
        self.residuals = []
        for row in affine:
            r = {c + k * cols: v for c, ab in row.items() for k in (0, 1)
                 if (v := ab[k] % p if p else ab[k])}
            for pc, prow in pivrows:  # zero at every other pivot column
                if pc in r:
                    _eliminate(r, prow, pc, p, {}, None)
                if pc + cols in r:
                    _eliminate(r, {c + cols: x for c, x in prow.items()},
                               pc + cols, p, {}, None)
            if r:
                self.residuals.append({c: (r.get(c, 0), r.get(c + cols, 0))
                                       for c in sorted({c % cols for c in r})})

    def at(self, n: int) -> int:
        """The rank of the rows at n: rank C plus that of the residuals."""
        if not self.residuals:
            return self.rank_c
        return self.rank_c + SparseMat.from_rows(
            affine_at(self.residuals, n), self.cols, self.field).rank()

