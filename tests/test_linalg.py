import random
from fractions import Fraction

import pytest

from frobq.errors import ValidationError
from frobq.linalg import QQ, FpElement, PrimeField, SparseMatrix, kernel_basis, rank, rref


def dense(rows, field=QQ):
    entries = {}
    for i, row in enumerate(rows):
        for j, value in enumerate(row):
            if value:
                entries[(i, j)] = field.scalar(value)
    return SparseMatrix(len(rows), len(rows[0]) if rows else 0, entries, field)


class TestRref:
    def test_identity_fixed(self):
        m = dense([[1, 0], [0, 1]])
        reduced, pivots = rref(m)
        assert reduced == m and pivots == [0, 1]

    def test_single_row(self):
        m = dense([[1, 1]])
        reduced, pivots = rref(m)
        assert reduced == m and pivots == [0]

    def test_zero_matrix(self):
        m = SparseMatrix(2, 3, {})
        reduced, pivots = rref(m)
        assert reduced.entries == {} and pivots == []

    def test_mixed_scalar_kinds_rejected(self):
        with pytest.raises(ValidationError):
            SparseMatrix(1, 1, {(0, 0): FpElement(1, 5)}, QQ)
        with pytest.raises(ValidationError):
            SparseMatrix(1, 1, {(0, 0): FpElement(1, 5)}, PrimeField(7))


class TestRank:
    def test_identity(self):
        assert rank(dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3

    def test_dependent_rows(self):
        assert rank(dense([[2, 4], [1, 2]])) == 1

    def test_zero(self):
        assert rank(SparseMatrix(3, 3, {})) == 0


class TestKernel:
    def test_identity_trivial_kernel(self):
        assert kernel_basis(dense([[1, 0], [0, 1]])).dimension == 0

    def test_one_relation(self):
        kb = kernel_basis(dense([[1, 1]]))
        assert kb.dimension == 1
        assert kb.vectors == [{1: Fraction(1), 0: Fraction(-1)}]

    def test_zero_matrix_full_kernel(self):
        assert kernel_basis(SparseMatrix(2, 3, {})).dimension == 3


def random_matrix(rng, field):
    nrows = rng.randint(1, 6)
    ncols = rng.randint(1, 6)
    entries = {}
    for i in range(nrows):
        for j in range(ncols):
            if rng.random() < 0.5:
                value = field.scalar(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))
                entries[(i, j)] = value
    return SparseMatrix(nrows, ncols, entries, field)


@pytest.mark.parametrize("field", [QQ, PrimeField(5)])
def test_rank_nullity_and_annihilation(field):
    rng = random.Random(20240 if field is QQ else 20241)
    count = 200 if field is QQ else 50
    for _ in range(count):
        m = random_matrix(rng, field)
        kb = kernel_basis(m)
        assert rank(m) + kb.dimension == m.ncols
        for vec in kb.vectors:
            assert m.apply(vec) == {}


def test_rref_idempotent():
    rng = random.Random(99)
    for _ in range(60):
        m = random_matrix(rng, QQ)
        reduced, pivots = rref(m)
        again, pivots2 = rref(reduced)
        assert again == reduced and pivots2 == pivots


def test_rational_arithmetic_sanity():
    rng = random.Random(7)
    for _ in range(50):
        a = Fraction(rng.randint(1, 30), rng.randint(1, 30))
        b = Fraction(rng.randint(1, 30), rng.randint(1, 30))
        assert (a / b) * (b / a) == 1
        assert (a / b).denominator > 0


def test_prime_field_requires_prime():
    with pytest.raises(ValidationError):
        PrimeField(6)
    PrimeField(2)
    PrimeField(97)


def test_prime_field_accepts_large_prime():
    assert PrimeField(2 ** 61 - 1).p == 2 ** 61 - 1


@pytest.mark.parametrize("n", [561, 3215031751])
def test_prime_field_rejects_pseudoprimes(n):
    # 561 is a Carmichael number; 3215031751 is a strong pseudoprime to
    # the bases 2, 3, 5 and 7.
    with pytest.raises(ValidationError, match="must be prime"):
        PrimeField(n)


def test_prime_field_rejects_moduli_beyond_certified_range():
    # The smallest strong pseudoprime to all twelve Miller-Rabin bases.
    psi12 = 399165290221 * 798330580441
    with pytest.raises(ValidationError, match="too large"):
        PrimeField(psi12)


def reference_rref(matrix):
    """Dense-scan Gauss-Jordan: scans every row for every column."""
    field = matrix.field
    zero = field.zero
    rows = matrix.row_dicts()
    pivots = []
    rank = 0
    for col in range(matrix.ncols):
        best = None
        for i in range(rank, len(rows)):
            value = rows[i].get(col)
            if value is not None and value != zero:
                key = field.pivot_key(value)
                if best is None or key < best[0]:
                    best = (key, i)
        if best is None:
            continue
        i = best[1]
        rows[rank], rows[i] = rows[i], rows[rank]
        pivot_value = rows[rank][col]
        if pivot_value != field.one:
            rows[rank] = {j: v / pivot_value for j, v in rows[rank].items()}
        pivot_row = rows[rank]
        for k in range(len(rows)):
            if k == rank:
                continue
            factor = rows[k].get(col)
            if factor is None or factor == zero:
                continue
            row = rows[k]
            for j, v in pivot_row.items():
                new = row.get(j, zero) - factor * v
                if new == zero:
                    row.pop(j, None)
                else:
                    row[j] = new
        pivots.append(col)
        rank += 1
    return SparseMatrix.from_rows(rows, matrix.ncols, field), pivots


def random_sparse_rows(rng, field, nrows, ncols, per_row):
    rows = []
    for _ in range(nrows):
        row = {}
        for j in rng.sample(range(ncols), min(per_row, ncols)):
            value = field.scalar(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2]))
            row[j] = value
        rows.append(row)
    return rows


def combination(rng, field, rows):
    """A row that is a combination of the given rows, so it reduces to zero."""
    out = {}
    for row in rows:
        c = field.scalar(rng.choice([-2, -1, 1, 3]))
        for j, v in row.items():
            out[j] = out.get(j, field.zero) + c * v
    return {j: v for j, v in out.items() if v != field.zero}


def sparse_matrix(rng, field):
    nrows = rng.randint(1, 40)
    ncols = rng.randint(1, 40)
    rows = random_sparse_rows(rng, field, nrows, ncols, rng.randint(1, 3))
    for _ in range(rng.randint(0, 4)):
        rows.append(combination(rng, field, rng.sample(rows, min(len(rows), 3))))
    rng.shuffle(rows)
    return SparseMatrix.from_rows(rows, ncols, field)


def block_diagonal_matrix(rng, field):
    """Dense-ish blocks on disjoint columns, rows and columns shuffled."""
    rows = []
    ncols = 0
    for _ in range(rng.randint(2, 6)):
        width = rng.randint(1, 7)
        block = random_sparse_rows(rng, field, rng.randint(1, 7), width, rng.randint(1, 3))
        block.append(combination(rng, field, block[:2]))
        rows.extend({ncols + j: v for j, v in row.items()} for row in block)
        ncols += width
    perm = list(range(ncols))
    rng.shuffle(perm)
    rows = [{perm[j]: v for j, v in row.items()} for row in rows]
    rng.shuffle(rows)
    return SparseMatrix.from_rows(rows, ncols, field)


@pytest.mark.parametrize("field", [QQ, PrimeField(5)])
@pytest.mark.parametrize("make", [sparse_matrix, block_diagonal_matrix])
def test_rref_matches_reference(field, make):
    rng = random.Random(4049 if field is QQ else 4051)
    for _ in range(60):
        m = make(rng, field)
        reduced, pivots = rref(m)
        expected, expected_pivots = reference_rref(m)
        assert reduced == expected and pivots == expected_pivots
