"""Exact scalar arithmetic and sparse exact linear algebra.

Everything here is exact: rationals are arbitrary-precision fractions and
prime fields are residues with modular inverses.  No floating point is
used anywhere in the package.
"""

from fractions import Fraction

from .errors import ValidationError


class FpElement:
    """An element of the prime field F_p.

    Supports the same operators as Fraction so the elimination code is
    field-agnostic.
    """

    __slots__ = ("value", "p")

    def __init__(self, value, p):
        self.value = value % p
        self.p = p

    def _coerce(self, other):
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise ValidationError(f"mixed prime fields F_{self.p} and F_{other.p}")
            return other
        if isinstance(other, int):
            return FpElement(other, self.p)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FpElement(self.value + other.value, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FpElement(self.value - other.value, self.p)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FpElement(other.value - self.value, self.p)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FpElement(self.value * other.value, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.value == 0:
            raise ZeroDivisionError("division by zero in F_p")
        return FpElement(self.value * pow(other.value, -1, self.p), self.p)

    def __neg__(self):
        return FpElement(-self.value, self.p)

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.p == other.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.p))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"{self.value} (mod {self.p})"


class RationalField:
    """The field of rationals with exact Fraction arithmetic."""

    name = "Q"

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def scalar(self, num, den=1):
        return Fraction(num, den)

    def contains(self, x):
        return isinstance(x, (Fraction, int))

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        raise ValidationError(f"not a rational scalar: {x!r}")

    def parse(self, text):
        try:
            if "/" in text:
                num, den = text.split("/", 1)
                return Fraction(int(num), int(den))
            return Fraction(int(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"bad rational literal {text!r}: {exc}") from None

    def format(self, x):
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"

    def pivot_key(self, x):
        # Smallest nonzero magnitude keeps intermediate numerators modest.
        return abs(x)

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

    def __init__(self, p):
        if p >= _MILLER_RABIN_LIMIT:
            raise ValidationError(
                f"modulus too large to certify as prime: {p} "
                f"(must be below {_MILLER_RABIN_LIMIT})"
            )
        if not _is_prime(p):
            raise ValidationError(f"modulus must be prime: {p}")
        self.p = p
        self.name = f"F{p}"

    @property
    def zero(self):
        return FpElement(0, self.p)

    @property
    def one(self):
        return FpElement(1, self.p)

    def scalar(self, num, den=1):
        return FpElement(num, self.p) / FpElement(den, self.p)

    def contains(self, x):
        return isinstance(x, int) or (isinstance(x, FpElement) and x.p == self.p)

    def coerce(self, x):
        if isinstance(x, FpElement):
            if x.p != self.p:
                raise ValidationError(f"scalar from F_{x.p} used in F_{self.p}")
            return x
        if isinstance(x, int):
            return FpElement(x, self.p)
        if isinstance(x, Fraction):
            return self.scalar(x.numerator, x.denominator)
        raise ValidationError(f"not an F_{self.p} scalar: {x!r}")

    def parse(self, text):
        try:
            if "/" in text:
                num, den = text.split("/", 1)
                return self.scalar(int(num), int(den))
            return FpElement(int(text), self.p)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"bad scalar literal {text!r}: {exc}") from None

    def format(self, x):
        return str(x.value)

    def pivot_key(self, x):
        return x.value

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()


class SparseMatrix:
    """An immutable sparse matrix over one fixed field."""

    def __init__(self, nrows, ncols, entries, field=QQ):
        self.nrows = nrows
        self.ncols = ncols
        self.field = field
        self.entries = {}
        for (i, j), value in entries.items():
            if not (0 <= i < nrows and 0 <= j < ncols):
                raise ValidationError(f"entry index out of range: ({i}, {j})")
            value = field.coerce(value)
            if value != field.zero:
                self.entries[(i, j)] = value

    @classmethod
    def from_rows(cls, rows, ncols, field=QQ):
        """rows: iterable of sparse {column: scalar} dictionaries."""
        entries = {}
        rows = list(rows)
        for i, row in enumerate(rows):
            for j, value in row.items():
                entries[(i, j)] = value
        return cls(len(rows), ncols, entries, field)

    def row_dicts(self):
        rows = [{} for _ in range(self.nrows)]
        for (i, j), value in self.entries.items():
            rows[i][j] = value
        return rows

    def apply(self, vector):
        """Multiply by a sparse column vector given as {column: scalar}."""
        result = {}
        for (i, j), value in self.entries.items():
            if j in vector:
                result[i] = result.get(i, self.field.zero) + value * vector[j]
        return {i: v for i, v in result.items() if v != self.field.zero}

    def __eq__(self, other):
        return (isinstance(other, SparseMatrix) and self.nrows == other.nrows
                and self.ncols == other.ncols and self.field == other.field
                and self.entries == other.entries)


class KernelBasis:
    """A basis of the null space; vectors are sparse {column: scalar} maps."""

    def __init__(self, dimension, vectors):
        self.dimension = dimension
        self.vectors = list(vectors)


def rref(matrix: SparseMatrix):
    """Reduced row echelon form and its pivot columns.

    The rows come back with the pivot rows first, in pivot order, then
    the zero rows.  The elimination keeps an index from each column to
    the rows holding it.  Invariant: each column's entry lists exactly
    the rows that have a nonzero there; every fill-in adds a row to the
    index and every cancellation removes it.  A column's pivot is chosen
    only among the non-pivot rows in its entry (smallest
    `field.pivot_key`, ties to the lowest row id), and only the rows in
    its entry are eliminated.  So the cost follows the fill-in of the
    elimination, not columns x rows.

    The RREF of a matrix is unique, so the pivot row choice cannot change
    the result: it only decides how large the rational coefficients grow
    on the way, which the smallest-magnitude rule keeps modest.
    """
    field = matrix.field
    one = field.one
    rows = matrix.row_dicts()
    holders = {}
    for i, row in enumerate(rows):
        for j in row:
            holders.setdefault(j, set()).add(i)
    pivot_rows = []
    pivots = []
    is_pivot_row = set()
    for col in range(matrix.ncols):
        # Elimination only ever fills in columns right of the current
        # pivot, so this column's entry is final once it is reached.
        holding = holders.pop(col, ())
        candidates = [i for i in holding if i not in is_pivot_row]
        if not candidates:
            continue
        p = min(candidates, key=lambda i: (field.pivot_key(rows[i][col]), i))
        pivot_value = rows[p][col]
        if pivot_value != one:
            rows[p] = {j: v / pivot_value for j, v in rows[p].items()}
        tail = [(j, v) for j, v in rows[p].items() if j != col]
        for k in holding:
            if k == p:
                continue
            row = rows[k]
            factor = row.pop(col)
            for j, v in tail:
                old = row.get(j)
                if old is None:
                    row[j] = -factor * v
                    holders[j].add(k)
                    continue
                new = old - factor * v
                if new:
                    row[j] = new
                else:
                    del row[j]
                    holders[j].remove(k)
        is_pivot_row.add(p)
        pivot_rows.append(rows[p])
        pivots.append(col)
    pivot_rows.extend({} for _ in range(len(rows) - len(pivots)))
    reduced = SparseMatrix.from_rows(pivot_rows, matrix.ncols, field)
    return reduced, pivots


def rank(matrix: SparseMatrix) -> int:
    _, pivots = rref(matrix)
    return len(pivots)


def kernel_basis(matrix: SparseMatrix) -> KernelBasis:
    """Canonical kernel basis: one free column set to 1 per non-pivot column."""
    reduced, pivots = rref(matrix)
    pivot_set = set(pivots)
    vectors = {col: {col: matrix.field.one}
               for col in range(matrix.ncols) if col not in pivot_set}
    # Off its pivot, a row of the RREF is nonzero only in free columns.
    for pivot, row in zip(pivots, reduced.row_dicts()):
        for col, value in row.items():
            if col != pivot:
                vectors[col][pivot] = -value
    return KernelBasis(len(vectors), list(vectors.values()))
