import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from frobq import linalg
from frobq.errors import ValidationError
from frobq.linalg import (
    QQ, PrimeField, SparseMatrix, _eliminate, _pair_rref, kernel_basis, rank, rref,
)

from algebra_ops import assert_canonical, reference_rref


def dense(rows, field=QQ):
    sparse = [{j: field.scalar(value) for j, value in enumerate(row) if value} for row in rows]
    return SparseMatrix(sparse, len(rows[0]) if rows else 0, field)


def apply(matrix, vector):
    """Multiply by a sparse column vector given as {column: scalar}."""
    field = matrix.field
    result = {}
    for i, row in enumerate(matrix.rows):
        for j, value in row.items():
            if j in vector:
                result[i] = field.reduce(result.get(i, field.zero) + value * vector[j])
    return {i: v for i, v in result.items() if v != field.zero}


class TestRref:
    def test_identity_fixed(self):
        m = dense([[1, 0], [0, 1]])
        reduced, pivots = rref(m)
        assert reduced == m and pivots == [0, 1]

    def test_single_row(self):
        m = dense([[1, 1]])
        reduced, pivots = rref(m)
        assert reduced == m and pivots == [0]

    # No row, or only empty rows: nothing to eliminate, every column free.
    @pytest.mark.parametrize("field", [QQ, PrimeField(7)])
    @pytest.mark.parametrize("nrows, ncols", [(0, 1), (0, 4), (1, 1), (2, 3), (3, 465)])
    def test_zero_matrix(self, field, nrows, ncols):
        m = SparseMatrix([{} for _ in range(nrows)], ncols, field)
        reduced, pivots = rref(m)
        assert reduced.nrows == m.nrows and reduced.ncols == ncols
        assert reduced.entries == {} and pivots == []
        assert rank(m) == 0
        assert kernel_basis(m) == [{j: field.one} for j in range(ncols)]

    @pytest.mark.parametrize("field", [QQ, PrimeField(7)])
    def test_float_entry_rejected(self, field):
        with pytest.raises(ValidationError):
            SparseMatrix([{0: 0.5}], 1, field)


class TestRank:
    def test_identity(self):
        assert rank(dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3

    def test_dependent_rows(self):
        assert rank(dense([[2, 4], [1, 2]])) == 1

    def test_zero(self):
        assert rank(SparseMatrix([{}, {}, {}], 3)) == 0


class TestKernel:
    def test_identity_trivial_kernel(self):
        assert kernel_basis(dense([[1, 0], [0, 1]])) == []

    def test_one_relation(self):
        assert kernel_basis(dense([[1, 1]])) == [{1: Fraction(1), 0: Fraction(-1)}]

    def test_zero_matrix_full_kernel(self):
        assert len(kernel_basis(SparseMatrix([{}, {}], 3))) == 3


def random_matrix(rng, field):
    nrows = rng.randint(1, 6)
    ncols = rng.randint(1, 6)
    rows = [{} for _ in range(nrows)]
    for i in range(nrows):
        for j in range(ncols):
            if rng.random() < 0.5:
                value = field.scalar(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))
                rows[i][j] = value
    return SparseMatrix(rows, ncols, field)


@pytest.mark.parametrize("field", [QQ, PrimeField(5)])
def test_rank_nullity_and_annihilation(field):
    rng = random.Random(20240 if field is QQ else 20241)
    count = 200 if field is QQ else 50
    for _ in range(count):
        m = random_matrix(rng, field)
        kb = kernel_basis(m)
        assert rank(m) + len(kb) == m.ncols
        assert_canonical(field, rref(m)[0].entries.values())
        for vec in kb:
            assert_canonical(field, vec.values())
            assert apply(m, vec) == {}


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
            out[j] = field.reduce(out.get(j, field.zero) + c * v)
    return {j: v for j, v in out.items() if v != field.zero}


def sparse_matrix(rng, field):
    nrows = rng.randint(1, 40)
    ncols = rng.randint(1, 40)
    rows = random_sparse_rows(rng, field, nrows, ncols, rng.randint(1, 3))
    for _ in range(rng.randint(0, 4)):
        rows.append(combination(rng, field, rng.sample(rows, min(len(rows), 3))))
    rng.shuffle(rows)
    return SparseMatrix(rows, ncols, field)


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
    return SparseMatrix(rows, ncols, field)


@pytest.mark.parametrize("field", [QQ, PrimeField(5)])
@pytest.mark.parametrize("make", [sparse_matrix, block_diagonal_matrix])
def test_rref_matches_reference(field, make):
    rng = random.Random(4049 if field is QQ else 4051)
    for _ in range(60):
        m = make(rng, field)
        reduced, pivots = rref(m)
        expected, expected_pivots = reference_rref(m)
        assert reduced == expected and pivots == expected_pivots
        assert_canonical(field, reduced.entries.values())
        for vec in kernel_basis(m):
            assert_canonical(field, vec.values())


# Q matrices with large coefficients: a denominator P, and RREF entries
# (10^12 + 1)/7, 5^30/3^40 and P + 1, the last one also reached along a
# chain of rows.
P = 2 ** 61 - 1
LARGE_COEFFICIENTS = [
    [{0: Fraction(1, P), 1: 1}, {1: 2}],
    [{0: 7, 1: 10 ** 12 + 1}],
    [{0: 3 ** 40, 1: 5 ** 30}],
    [{0: 1, 1: P + 1}],
    [{0: 1, 1: -1}, {0: 1, 2: -(P + 1)}, {2: 1, 3: 1}],
]


def assert_eliminate_matches_reference(m):
    """_eliminate over m's own scalars gives reference_rref's pivot rows and pivots."""
    expected, expected_pivots = reference_rref(m)
    rows, pivots = _eliminate([dict(row) for row in m.rows], m.ncols, m.field)
    assert pivots == expected_pivots and rows == expected.rows[:len(pivots)]
    assert_canonical(m.field, (v for row in rows for v in row.values()))


@pytest.mark.parametrize("rows", LARGE_COEFFICIENTS)
def test_large_coefficient_q_matrix_matches_reference(rows):
    m = SparseMatrix(rows, 1 + max(j for row in rows for j in row))
    reduced, pivots = rref(m)
    assert (reduced, pivots) == reference_rref(m)
    assert_canonical(QQ, reduced.entries.values())
    # No row holds three entries, so rref took _pair_rref: run the
    # elimination on its own.
    assert_eliminate_matches_reference(m)


def test_elimination_normalises_integer_rows_to_fractions():
    # A row of three entries takes rref through _eliminate.  The pivot
    # row 7x0 - 3x2 normalises to the Fraction -3/7, the fill-in 6/7
    # follows from it, and the integral entry -10 stays an int.
    m = SparseMatrix([{0: 2, 1: 1, 3: -10}, {0: 7, 2: -3}], 4)
    reduced, pivots = rref(m)
    assert pivots == [0, 1]
    assert reduced.rows == [{0: 1, 2: Fraction(-3, 7)},
                            {1: 1, 2: Fraction(6, 7), 3: -10}]
    assert type(reduced.rows[1][3]) is int
    assert (reduced, pivots) == reference_rref(m)


@pytest.mark.parametrize("field", [QQ, PrimeField(7)])
def test_elimination_clears_a_filled_in_column(field):
    # Eliminating column 0 by x0 + x1 fills column 1 into x0 + x2.  Only
    # the column index kept for the fill-in lets column 1 find its pivot
    # there, so the RREF has rank 2, not rank 1.
    rows, pivots = _eliminate([{0: 1, 1: 1}, {0: 1, 2: 1}], 3, field)
    assert pivots == [0, 1]
    assert rows == [{0: 1, 2: 1}, {1: 1, 2: field.reduce(-1)}]
    assert_eliminate_matches_reference(SparseMatrix([{0: 1, 1: 1}, {0: 1, 2: 1}], 3, field))


def test_rational_inverse_is_canonical():
    assert type(QQ.inverse(3)) is Fraction and QQ.inverse(3) == Fraction(1, 3)
    assert QQ.inverse(-4) == Fraction(-1, 4)
    assert QQ.inverse(Fraction(-2, 3)) == Fraction(-3, 2)
    assert type(QQ.inverse(Fraction(-1, 3))) is int and QQ.inverse(Fraction(-1, 3)) == -3
    assert type(QQ.inverse(1)) is int and QQ.inverse(1) == 1


@pytest.mark.parametrize("value, expected", [
    (Fraction(6, 3), 2), (Fraction(-1, 1), -1), (Fraction(0), 0), (True, 1), (7, 7),
    (Fraction(2, 4), Fraction(1, 2)),
])
def test_rational_scalars_have_one_form(value, expected):
    """coerce and reduce give an int for every integral value, a bool
    included, and keep a Fraction only when its denominator is above 1;
    scalar and parse do the same, and zero and one are ints."""
    n, d = value.numerator, value.denominator
    for result in (QQ.coerce(value), QQ.reduce(value), QQ.scalar(n, d), QQ.parse(f"{n}/{d}")):
        assert result == expected
        assert_canonical(QQ, [result])
    assert_canonical(QQ, [QQ.zero, QQ.one])


# Integer-valued, the third row three times the first: rank 3, and the
# first column's pivot is 2, so the elimination over Q inverts an int.
INTEGRAL = [{0: 2, 1: 4, 3: 1}, {0: 3, 2: 5}, {0: 6, 1: 12, 3: 3}, {1: -7, 2: 1, 3: 1}]


def test_integer_valued_q_matrix_never_meets_a_float():
    """A Q matrix keeps integral entries as ints.  Its rows of three
    entries take it through the elimination, where rref and kernel_basis
    give canonical scalars equal to reference_rref's, and the reference,
    which eliminates over the ints themselves, gives ints and Fractions
    only."""
    m = SparseMatrix(INTEGRAL, 4)
    assert all(type(v) is int for row in m.rows for v in row.values())
    expected = reference_rref(m)
    assert all(type(v) in (int, Fraction) for v in expected[0].entries.values())
    reduced, pivots = rref(m)
    assert (reduced, pivots) == expected and len(pivots) == 3
    assert_canonical(QQ, reduced.entries.values())
    kb = kernel_basis(m)
    assert len(kb) == 1
    for vec in kb:
        assert_canonical(QQ, vec.values())
        assert apply(m, vec) == {}


def small_or_large_rational():
    """Mostly small rationals, with numerators and denominators above 2^31 mixed in."""
    small = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3]))
    large = st.builds(Fraction, st.integers(-2 ** 40, 2 ** 40), st.integers(1, 2 ** 36))
    return st.one_of(small, small, large)


@st.composite
def rational_matrices(draw):
    ncols = draw(st.integers(1, 7))
    rows = draw(st.lists(
        st.dictionaries(st.integers(0, ncols - 1), small_or_large_rational(), max_size=4),
        min_size=1, max_size=7))
    return SparseMatrix(rows, ncols)


def assert_row_order_ignored(m, order):
    """m with its rows shuffled by order has the same RREF, pivots and
    kernel; over Q the elimination, which rref does not take when
    _pair_rref answers, is run on its own too."""
    shuffled = SparseMatrix(order.sample(m.rows, m.nrows), m.ncols, m.field)
    assert rref(shuffled) == rref(m)
    assert kernel_basis(shuffled) == kernel_basis(m)
    if m.field == QQ:
        assert _eliminate([dict(row) for row in shuffled.rows], m.ncols, QQ) == \
            _eliminate([dict(row) for row in m.rows], m.ncols, QQ)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(m=rational_matrices(), order=st.randoms(use_true_random=False))
def test_both_routes_match_reference(m, order):
    expected, expected_pivots = reference_rref(m)
    assert_eliminate_matches_reference(m)
    reduced, pivots = rref(m)
    assert reduced == expected and pivots == expected_pivots
    kb = kernel_basis(m)
    assert rank(m) + len(kb) == m.ncols
    assert_canonical(QQ, reduced.entries.values())
    for vec in kb:
        assert_canonical(QQ, vec.values())
        assert apply(m, vec) == {}
    assert_row_order_ignored(m, order)
    residues = [{j: v.numerator for j, v in row.items()} for row in m.rows]
    assert_row_order_ignored(SparseMatrix(residues, m.ncols, PrimeField(5)), order)


# Nonzero over Q; 2, 3, 5 and their multiples vanish over F_2, F_3 or F_5.
PAIR_ENTRIES = st.sampled_from((1, -1, 2, -2, 3, -3, 4, 5, -6, 10, 15))
PAIR_FIELDS = (QQ, PrimeField(2), PrimeField(3), PrimeField(5))


@st.composite
def pair_matrices(draw):
    """A matrix over Q, F_2, F_3 or F_5 whose rows hold at most two entries.

    It is drawn in pieces on columns 0 .. ncols - 1, so some columns may
    lie in no row, and with no piece it has no rows:

    - a cycle on three or more columns, whose closing row agrees with the
      ratios along it or is one off in its last entry;
    - two parallel rows, the second a multiple of the first or one off
      in its last entry;
    - a lone two-entry row, or a one-entry row.

    An entry may vanish mod p, which leaves a row one entry or none.
    """
    field = draw(st.sampled_from(PAIR_FIELDS))
    one, reduce = field.one, field.reduce
    ncols = draw(st.integers(3, 9))

    def entry():
        return field.coerce(draw(PAIR_ENTRIES))

    def columns(k):
        return draw(st.lists(st.integers(0, ncols - 1), min_size=k, max_size=k, unique=True))

    rows = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(("cycle", "parallel", "pair", "one")))
        if kind == "cycle":
            cols = columns(draw(st.integers(3, ncols)))
            x = one
            for i, j in zip(cols, cols[1:]):
                a, b = entry(), entry()
                rows.append({i: a, j: b})
                if not (a and b):
                    break
                x = reduce(-a * x * field.inverse(b))
            else:
                a = entry()
                agrees = draw(st.booleans())
                rows.append({cols[-1]: a, cols[0]: reduce(-a * x + (0 if agrees else one))})
        elif kind == "parallel":
            (i, j), (a, b), c = columns(2), (entry(), entry()), entry()
            agrees = draw(st.booleans())
            rows += [{i: a, j: b}, {i: reduce(c * a), j: reduce(c * b + (0 if agrees else one))}]
        elif kind == "pair":
            i, j = columns(2)
            rows.append({i: entry(), j: entry()})
        else:
            rows.append({columns(1)[0]: entry()})
    return SparseMatrix(draw(st.permutations(rows)), ncols, field)


def assert_pair_route_matches_reference(m):
    """_pair_rref answers m with reference_rref's pivot rows and pivots, in
    canonical scalars, and kernel_basis gives the vectors, in the same key
    order, that it gives when _eliminate computes the RREF."""
    answer = _pair_rref(m)
    assert answer is not None
    rows, pivots = answer
    expected, expected_pivots = reference_rref(m)
    assert pivots == expected_pivots and rows == expected.rows[:len(pivots)]
    assert_canonical(m.field, (v for row in rows for v in row.values()))
    assert rref(m) == (expected, expected_pivots)
    vectors = kernel_basis(m)
    with mock.patch.object(linalg, "_pair_rref", lambda matrix: None):
        eliminated = kernel_basis(m)
    assert [list(v.items()) for v in vectors] == [list(v.items()) for v in eliminated]
    for vec in vectors:
        assert_canonical(m.field, vec.values())


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(m=pair_matrices())
def test_pair_route_matches_reference(m):
    assert_pair_route_matches_reference(m)


# (rows, ncols, field, pivots): each case of _pair_rref's argument.
PAIR_CASES = [
    # No rows, and only an empty row: every column free.
    ([], 3, QQ, []),
    ([{}], 3, QQ, []),
    # A path 0 - 1 - 2 with ratios 2 and -1/3; column 3 is in no row.
    ([{0: 2, 1: 1}, {1: 3, 2: 1}], 4, QQ, [0, 1]),
    # The cycle 0 - 1 - 2 agrees: x = (3, -1, 1) solves all three rows.
    ([{0: 1, 1: 3}, {1: 1, 2: 1}, {0: 1, 2: -3}], 3, QQ, [0, 1]),
    # The same cycle one off in its closing row: only zero solves it.
    ([{0: 1, 1: 3}, {1: 1, 2: 1}, {0: 1, 2: -2}], 3, QQ, [0, 1, 2]),
    # Parallel rows, a multiple of each other, then with different ratios.
    ([{0: 2, 1: 4}, {0: -1, 1: -2}], 2, QQ, [0]),
    ([{0: 2, 1: 4}, {0: -1, 1: -3}], 2, QQ, [0, 1]),
    # A one-entry row kills the path it lies on, and only that path.
    ([{1: 5}, {0: 1, 1: 1}, {1: 1, 2: 1}, {3: 1, 4: 2}], 5, QQ, [0, 1, 2, 3]),
    # The join hangs the zero node under column 1's root, and then a
    # one-entry row sends column 1 to zero again.
    ([{0: 1}, {0: 1, 1: 1}, {1: 2}, {2: 1, 3: 1}, {3: 1}], 4, QQ, [0, 1, 2, 3]),
    # Over F_5 the first row keeps only its entry in column 4.  The cycle
    # 1 - 2 - 3 asks x_1 + x_3 = 5 x_1 = 0, which holds mod 5 only.
    ([{0: 5, 4: 1}, {1: 2, 2: 1}, {2: 2, 3: 1}, {1: 1, 3: 1}], 5, PrimeField(5), [1, 2, 4]),
    ([{0: 5, 4: 1}, {1: 2, 2: 1}, {2: 2, 3: 1}, {1: 1, 3: 1}], 5, QQ, [0, 1, 2, 3]),
    # Over F_2 and F_3 every entry of the second row vanishes.
    ([{0: 1, 1: 1}, {0: 6, 1: 6}], 2, PrimeField(2), [0]),
    ([{0: 1, 1: 2}, {0: 3, 1: -3}], 2, PrimeField(3), [0]),
]


@pytest.mark.parametrize("rows, ncols, field, pivots", PAIR_CASES)
def test_pair_route_cases(rows, ncols, field, pivots):
    m = SparseMatrix(rows, ncols, field)
    assert_pair_route_matches_reference(m)
    assert _pair_rref(m)[1] == pivots


def test_pair_route_leaves_a_live_component_its_largest_column_free():
    """On the path 2 - 0 - 1, x_2 = 1 gives x = (-1/2, 3/2, 1), so the
    pivot rows are e_c - x_c * e_2 and x is the one kernel vector."""
    m = SparseMatrix([{2: 1, 0: 2}, {0: 3, 1: 1}], 3)
    assert _pair_rref(m) == ([{0: 1, 2: Fraction(1, 2)}, {1: 1, 2: Fraction(-3, 2)}], [0, 1])
    assert kernel_basis(m) == [{2: 1, 0: Fraction(-1, 2), 1: Fraction(3, 2)}]


@pytest.mark.parametrize("rows", [
    [{0: 1, 1: 1, 2: 1}],
    [{0: 1, 1: 1}, {0: 1, 1: 2, 2: 3, 3: 4}],
])
def test_pair_route_declines_a_row_of_three_entries(rows):
    m = SparseMatrix(rows, 4)
    assert _pair_rref(m) is None
    assert rref(m) == reference_rref(m)
