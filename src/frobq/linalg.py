"""Exact scalar arithmetic and sparse exact linear algebra.

Everything here is exact and nothing is floating point.  Each field has
one canonical form for its scalars, which every method here returns.
Over Q a scalar is an int when it is integral and otherwise a Fraction
with denominator > 1.  Over F_p a scalar is an int in [0, p).  So every
scalar has .numerator and .denominator (1 over F_p), and str writes it
as n or n/d.  Each field owns the arithmetic that differs: `reduce`
brings a sum or product of its scalars back into canonical form (x % p
over F_p, an integral Fraction to its int over Q), `inverse` gives
1 / x and `pivot` chooses the pivot row, so the elimination code is the
same for every field.

`rref` takes the first of two routes that applies:

1. When every row holds at most two entries, a union-find over the
   columns (`_pair_rref`): such a matrix is a direct sum of connected
   components, each of rank k or k - 1 on its k columns, whose RREF can
   be written down.  The non-monomial constraint systems of toupie and
   canonical algebras have this shape.
2. Otherwise the elimination over the canonical scalars themselves
   (`_eliminate`), over Q and over F_p alike.

The RREF of a matrix is unique, so `rank`, `kernel_basis` and every
other caller get the same exact RREF whichever route gives it.
"""

import re
from fractions import Fraction

from .errors import ValidationError, shorten

# An integer in any input; int() also reads "_", "+", blanks and other digits.
DECIMAL = re.compile(r"-?[0-9]+")
_SCALAR = re.compile(DECIMAL.pattern + r"(?:/[0-9]+)?")


def _parse_scalar(field, kind, text):
    """The scalar of field that text spells: a DECIMAL, or one over unsigned digits.

    Python's reason for refusing it may repeat the whole literal or carry
    int()'s advice on its digit limit, so a shortened literal goes without.
    """
    reason = ""
    if _SCALAR.fullmatch(text):
        num, _, den = text.partition("/")
        try:
            return field.scalar(int(num), int(den or 1))
        except (ValueError, ValidationError) as exc:
            reason = f": {exc}"
    shown = shorten(text, repr)
    raise ValidationError(f"bad {kind} literal {shown}{reason if shown == repr(text) else ''}")


class RationalField:
    """The rationals: an int when integral, otherwise a Fraction with
    denominator > 1; never a float or a bool."""

    name = "Q"
    zero = 0
    one = 1

    def scalar(self, num, den=1):
        if not den:
            raise ValidationError("zero denominator")
        return self.reduce(Fraction(num, den))

    def coerce(self, x):
        if isinstance(x, (int, Fraction)):
            return self.reduce(x)
        raise ValidationError(f"not a rational scalar: {x!r}")

    def reduce(self, x):
        """x in canonical form: an int stays (a bool becomes its int), and a
        Fraction becomes its numerator when its denominator is 1."""
        return x if x.__class__ is int else x.numerator if x.denominator == 1 else x

    def inverse(self, x):
        return self.reduce(Fraction(x.denominator, x.numerator))

    def parse(self, text):
        return _parse_scalar(self, "rational", text)

    def pivot(self, rows, candidates, col):
        """The row of candidates to pivot on col: the smallest magnitude
        there, ties to the lowest row id, keeps intermediate numerators
        modest."""
        return min(candidates, key=lambda i: (abs(rows[i][col]), i))

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "QQ"


# Miller-Rabin with the first 12 primes as bases has no strong liar below
# this bound (Sorenson and Webster, 2015), so the test is exact there.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MILLER_RABIN_LIMIT = 318665857834031151167461


def _is_prime(n):
    """Deterministic primality for 0 <= n < _MILLER_RABIN_LIMIT."""
    if n < 2:
        return False
    for b in _MILLER_RABIN_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MILLER_RABIN_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The prime field F_p behind the same interface as the rationals."""

    zero = 0
    one = 1

    def __init__(self, p):
        if p >= _MILLER_RABIN_LIMIT:
            raise ValidationError(
                f"modulus too large to certify as prime: {shorten(str(p))} "
                f"(must be below {_MILLER_RABIN_LIMIT})"
            )
        if not _is_prime(p):
            raise ValidationError(f"modulus must be prime: {shorten(str(p))}")
        self.p = p
        self.name = f"F{p}"

    def scalar(self, num, den=1):
        if den % self.p == 0:
            raise ValidationError(f"denominator {den} is zero in F_{self.p}")
        return num * pow(den, -1, self.p) % self.p

    def coerce(self, x):
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, Fraction):
            return self.scalar(x.numerator, x.denominator)
        raise ValidationError(f"not an F_{self.p} scalar: {x!r}")

    def reduce(self, x):
        return x % self.p

    def inverse(self, x):
        return pow(x, -1, self.p)

    def parse(self, text):
        return _parse_scalar(self, "scalar", text)

    def pivot(self, rows, candidates, col):
        """The lowest row id of candidates: coefficients cannot grow mod p."""
        return min(candidates)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()


class SparseMatrix:
    """An immutable sparse matrix over one fixed field.

    rows is a list of sparse {column: scalar} dictionaries holding only
    nonzero canonical scalars at columns in [0, ncols).  There are two
    ways in: the constructor copies any rows, passing each entry through
    field.coerce, refusing an out-of-range column and dropping a zero;
    _adopt takes rows that already hold that form as they are, with no
    copy and no check, for code that builds them so.
    """

    def __init__(self, rows, ncols, field=QQ):
        self.ncols = ncols
        self.field = field
        self.rows = []
        for i, row in enumerate(rows):
            kept = {}
            for j, value in row.items():
                if not 0 <= j < ncols:
                    raise ValidationError(f"entry index out of range: ({i}, {j})")
                value = field.coerce(value)
                if value:
                    kept[j] = value
            self.rows.append(kept)

    @classmethod
    def _adopt(cls, rows, ncols, field):
        """The matrix whose rows are rows itself, which the caller
        guarantees hold only nonzero canonical scalars of field at columns
        in [0, ncols)."""
        matrix = cls.__new__(cls)
        matrix.ncols, matrix.field, matrix.rows = ncols, field, rows
        return matrix

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def entries(self):
        """The nonzero entries as a {(row, column): scalar} map."""
        return {(i, j): value for i, row in enumerate(self.rows) for j, value in row.items()}

    def __eq__(self, other):
        return (isinstance(other, SparseMatrix) and self.ncols == other.ncols
                and self.field == other.field and self.rows == other.rows)


def rref(matrix: SparseMatrix):
    """Reduced row echelon form and its pivot columns.

    The rows come back with the pivot rows first, in pivot order, then
    the zero rows.  Two routes give it, the first that applies:

    1. When no row holds more than two entries, `_pair_rref` writes the
       RREF of each connected component of the columns down by
       union-find, with exact field arithmetic and no elimination.
    2. Otherwise `_eliminate` runs Gauss-Jordan over the entries
       themselves.

    Both are exact on canonical scalars, so every result is exact and
    its scalars are canonical.
    """
    field, ncols = matrix.field, matrix.ncols
    rows, pivots = (_pair_rref(matrix)
                    or _eliminate([dict(row) for row in matrix.rows], ncols, field))
    rows.extend({} for _ in range(matrix.nrows - len(pivots)))
    # Every route leaves only nonzero, in-range, canonical entries.
    return SparseMatrix._adopt(rows, ncols, field), pivots


def _pair_rref(matrix: SparseMatrix):
    """The RREF of a matrix whose rows hold at most two entries each, as
    (pivot rows, pivot columns), or None when a row holds more.

    A two-entry row a * x_i + b * x_j = 0 joins columns i and j, and a
    one-entry row sends its column to the zero node ncols; no
    SparseMatrix holds a zero entry.  Each join says
    x_i = -(b / a) * x_j with a nonzero ratio, so in any kernel vector a
    component is either zero in every column or nonzero in every column.

    - A component joined to the zero node is zero in every kernel vector,
      so each of its columns c is a pivot and its RREF row is e_c.
    - In every other component, x_l = 1 on its largest column l fixes one
      solution x of the joins along a spanning tree (`_ratios`).  If some
      row disagrees with x (a cycle whose ratios do not multiply to 1, or
      parallel rows with different ratios), only zero solves the
      component, and it is treated as above.  Otherwise the component's
      kernel is spanned by x, which has full support, so any k - 1 of its
      k columns are independent: the RREF pivots every column but l, and
      column c's row is e_c - x_c * e_l, which annihilates x.

    The matrix is the direct sum of its components, so its RREF is the
    union of theirs, in pivot order.  The work follows the rows: only
    columns some row holds are visited, a column in no row is free, and
    a matrix with no rows answers at once.  Field arithmetic is spent
    only on components that no one-entry row reaches, and it is exact on
    canonical scalars, so the result needs no check.
    """
    rows = matrix.rows
    if not rows:
        return [], []
    field = matrix.field
    one, reduce = field.one, field.reduce
    zero = matrix.ncols
    parent = list(range(zero + 1))

    def find(c):
        while parent[c] != c:
            parent[c] = c = parent[parent[c]]
        return c

    pairs = []
    for row in rows:
        if len(row) == 2:
            i, j = row
            parent[find(i)] = find(j)
            pairs.append(row)
        elif len(row) == 1:
            (i,) = row
            # find(zero), not zero: a join may have hung the zero node
            # under another root, and parent[root] = zero would close a loop.
            parent[find(i)] = find(zero)
        elif row:
            return None
    dead = find(zero)
    pivots = []
    live = {}
    for c in {c for row in rows for c in row}:
        root = find(c)
        if root == dead:
            pivots.append(c)
        else:
            live.setdefault(root, []).append(c)
    tails = {}
    if live:
        joins = {}
        for row in pairs:
            joins.setdefault(find(next(iter(row))), []).append(row)
        for root, cols in live.items():
            free = max(cols)
            x = _ratios(joins[root], free, field)
            if x is None:
                pivots.extend(cols)
                continue
            for c in cols:
                if c != free:
                    pivots.append(c)
                    tails[c] = {c: one, free: reduce(-x[c])}
    pivots.sort()
    return [tails.get(c) or {c: one} for c in pivots], pivots


def _ratios(rows, free, field):
    """The solution x with x[free] = 1 of one connected component's
    two-entry rows, or None when only zero solves them.

    x is fixed along a spanning tree from free, then every row is checked
    against it.
    """
    reduce, inverse = field.reduce, field.inverse
    adjacent = {}
    for row in rows:
        (i, a), (j, b) = row.items()
        adjacent.setdefault(i, []).append((j, a, b))
        adjacent.setdefault(j, []).append((i, b, a))
    x = {free: field.one}
    todo = [free]
    while todo:
        i = todo.pop()
        for j, a, b in adjacent[i]:
            if j not in x:
                x[j] = reduce(-a * x[i] * inverse(b))
                todo.append(j)
    for row in rows:
        (i, a), (j, b) = row.items()
        if reduce(a * x[i] + b * x[j]):
            return None
    return x


def _eliminate(rows, ncols, field):
    """Gauss-Jordan on the row dicts in place: (pivot rows, pivot columns).

    The pivot rows come back normalised, in pivot order.  The
    elimination keeps an index from each column to the rows holding it.
    Invariant: each column's entry lists exactly the rows that have a
    nonzero there; every fill-in adds a row to the index and every
    cancellation removes it.  A column's pivot is chosen only among the
    non-pivot rows in its entry (by `field.pivot`), and only the rows in
    its entry are eliminated.  So the cost follows the fill-in of the
    elimination, not columns x rows.

    The RREF of a matrix is unique, so the pivot row choice cannot change
    the result: it only decides how large the rational coefficients grow
    on the way, which the smallest-magnitude rule keeps modest over Q;
    over F_p nothing grows, and the lowest row id costs no key call.
    """
    reduce, one = field.reduce, field.one
    holders = {}
    for i, row in enumerate(rows):
        for j in row:
            holders.setdefault(j, set()).add(i)
    pivot_rows = []
    pivots = []
    is_pivot_row = set()
    for col in range(ncols):
        # Elimination only ever fills in columns right of the current
        # pivot, so this column's entry is final once it is reached.
        holding = holders.pop(col, ())
        candidates = [i for i in holding if i not in is_pivot_row]
        if not candidates:
            continue
        p = field.pivot(rows, candidates, col)
        pivot_value = rows[p][col]
        if pivot_value != one:
            inverse = field.inverse(pivot_value)
            rows[p] = {j: reduce(v * inverse) for j, v in rows[p].items()}
        tail = [(j, v) for j, v in rows[p].items() if j != col]
        for k in holding:
            if k == p:
                continue
            row = rows[k]
            factor = row.pop(col)
            for j, v in tail:
                old = row.get(j)
                if old is None:
                    row[j] = reduce(-factor * v)
                    holders[j].add(k)
                    continue
                new = reduce(old - factor * v)
                if new:
                    row[j] = new
                else:
                    del row[j]
                    holders[j].remove(k)
        is_pivot_row.add(p)
        pivot_rows.append(rows[p])
        pivots.append(col)
    return pivot_rows, pivots


def rank(matrix: SparseMatrix) -> int:
    _, pivots = rref(matrix)
    return len(pivots)


def kernel_basis(matrix: SparseMatrix) -> list:
    """Canonical kernel basis: one free column set to 1 per non-pivot column.

    The vectors are sparse {column: scalar} maps, in free column order.
    """
    field = matrix.field
    reduced, pivots = rref(matrix)
    pivot_set = set(pivots)
    vectors = {col: {col: field.one}
               for col in range(matrix.ncols) if col not in pivot_set}
    # Off its pivot, a row of the RREF is nonzero only in free columns.
    for pivot, row in zip(pivots, reduced.rows):
        for col, value in row.items():
            if col != pivot:
                vectors[col][pivot] = field.reduce(-value)
    return list(vectors.values())
