"""Cross-check the solver against dim Hom_A(DA, A), computed by multiply alone.

A coproduct is a map of A-bimodules A -> A (x) A, so it is fixed by its
value t at 1, and t must satisfy a t = t a for every a.  The bimodule
A (x) A is Hom_k(DA, A), with x (x) y the map f -> f(x) y, where DA is
the dual of A and (f.a)(x) = f(a x).  Under that map a t = t a says
phi(f.a) = phi(f) a, so the coproduct space is the space of right
A-module maps phi: DA -> A.  The oracle solves for phi, one unknown per
pair of basis elements, imposing the condition on the dual basis for the
idempotents and arrows, which generate A.  Products come from
algebra_ops.multiply, never from the product table the solver reads, and
no support block or per-vertex value is assumed.
"""

from hypothesis import assume, given, settings

from frobq.frobenius import frobenius_dimension, solve_frobenius_space
from frobq.ideal import compute_basis
from frobq.linalg import SparseMatrix, rank

from algebra_ops import coords_of, multiply
from strategies import has_zero_generator, mixed_algebras, random_algebras

ORACLE_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True, database=None)


def hom_dimension(algebra):
    """dim Hom_A(DA, A): phi(f_b) = sum of X[b, c] c over the basis, with
    phi(f_b . a) = phi(f_b) a imposed coordinate by coordinate."""
    basis, field, quiver = algebra.basis, algebra.field, algebra.quiver
    n = len(basis)
    generators = ([quiver.trivial_path(v) for v in quiver.vertices]
                  + [quiver.path([arrow.name]) for arrow in quiver.arrows])
    rows = []
    for a in generators:
        a_coords = coords_of(algebra, a)
        # f_b . a is the sum over x of (coefficient of b in a x) f_x.
        a_times = [multiply(algebra, a_coords, coords_of(algebra, x)) for x in basis]
        times_a = [multiply(algebra, coords_of(algebra, c), a_coords) for c in basis]
        for b in range(n):
            for d in range(n):
                row = {}
                for x, product in enumerate(a_times):
                    if value := product.get(basis[b]):
                        row[x * n + d] = row.get(x * n + d, 0) + value
                for c, product in enumerate(times_a):
                    if value := product.get(basis[d]):
                        row[b * n + c] = row.get(b * n + c, 0) - value
                rows.append(row)
    return n * n - rank(SparseMatrix(rows, n * n, field))


def assert_solver_matches_hom(algebra):
    assume(algebra.dimension <= 16)
    expected = hom_dimension(algebra)
    assert frobenius_dimension(algebra) == expected
    assert len(solve_frobenius_space(algebra)) == expected


@ORACLE_SETTINGS
@given(drawn=random_algebras())
def test_monomial_solver_matches_hom(drawn):
    assert_solver_matches_hom(compute_basis(*drawn))


@ORACLE_SETTINGS
@given(drawn=mixed_algebras())
def test_mixed_solver_matches_hom(drawn):
    quiver, ideal, field, _ = drawn
    assume(not has_zero_generator(ideal, field))
    assert_solver_matches_hom(compute_basis(quiver, ideal, field))
