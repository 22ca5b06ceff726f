"""Cross-check the solver against the raw definition of a coproduct.

The production solver parametrizes a candidate by its idempotent values,
restricts them to the forced support block and emits only arrow
constraints.  The oracle here does none of that: it treats the whole
linear map (one unknown per basis element and tensor pair) and imposes
both compatibility squares on every pair of basis elements, using only
the quotient multiplication.  The two kernels must have equal dimension
on every instance.
"""

import pytest

from frobq.families import (
    gen_cycle,
    gen_linear,
    gen_radical_square_zero,
    gen_toupie,
)
from frobq.frobenius import frobenius_dimension
from frobq.ideal import IdealSpec, compute_basis
from frobq.linalg import QQ, SparseMatrix, rank
from frobq.quiver import PathExpr, Quiver

from algebra_ops import coords_of, multiply


def mono(q, names):
    return PathExpr.from_path(q.path(names), QQ.one)


def definition_level_dimension(algebra):
    """Kernel dimension of the two-squares system on a full linear map."""
    basis = algebra.basis
    n = len(basis)
    idx = {b: i for i, b in enumerate(basis)}

    def col(c, u, v):
        return (idx[c] * n + idx[u]) * n + idx[v]

    rows = []
    for a in basis:
        ca = coords_of(algebra, a)
        for b in basis:
            cb = coords_of(algebra, b)
            ab = multiply(algebra, ca, cb)
            for side in (1, 2):
                coord_rows = {}

                def bump(w, z, column, value):
                    row = coord_rows.setdefault((w, z), {})
                    row[column] = row.get(column, QQ.zero) + value

                # value on the product: sum over c of ab_c * Delta(c)
                for c, cc in ab.items():
                    for u in basis:
                        for v in basis:
                            bump(u, v, col(c, u, v), cc)
                if side == 1:
                    # minus (a (x) 1) Delta(b)
                    for u in basis:
                        au = multiply(algebra, ca, coords_of(algebra, u))
                        for w, cw in au.items():
                            for v in basis:
                                bump(w, v, col(b, u, v), -cw)
                else:
                    # minus Delta(a) (1 (x) b)
                    for v in basis:
                        vb = multiply(algebra, coords_of(algebra, v), cb)
                        for z, cz in vb.items():
                            for u in basis:
                                bump(u, z, col(a, u, v), -cz)
                for row in coord_rows.values():
                    row = {k: value for k, value in row.items() if value != QQ.zero}
                    if row:
                        rows.append(row)
    matrix = SparseMatrix(rows, n ** 3, QQ)
    return n ** 3 - rank(matrix)


def one_point():
    return Quiver(["p"], []), IdealSpec([])


def kronecker():
    return Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")]), IdealSpec([])


def local_case_one():
    q = Quiver(["1", "2", "3", "4"],
               [("a", "1", "3"), ("b", "2", "3"), ("g", "3", "4")])
    return q, IdealSpec([mono(q, ["a", "g"]), mono(q, ["b", "g"])])


def local_case_three():
    q = Quiver(["1", "2", "3", "4", "5"],
               [("a", "1", "3"), ("b", "2", "3"), ("g", "3", "4"), ("d", "3", "5")])
    return q, IdealSpec([mono(q, ["a", "g"]), mono(q, ["a", "d"]), mono(q, ["b", "g"])])


def loop_with_exit_rsz():
    q = Quiver(["p", "q"], [("x", "p", "p"), ("b", "p", "q")])
    return gen_radical_square_zero(q)


INSTANCES = [
    ("one point", one_point()),
    ("A_2", gen_linear(2)),
    ("dual numbers", gen_cycle(1, 2)),
    ("kronecker", kronecker()),
    ("loop with exit rsz", loop_with_exit_rsz()),
    ("A_3 rsz", gen_linear(3, [(1, 2)])),
    ("A_3 free", gen_linear(3)),
    ("Z_3 rsz", gen_cycle(3, 2)),
    ("local case 1", local_case_one()),
    ("local case 3", local_case_three()),
    ("diamond", gen_toupie((2, 2), (), [(1, -1)])),
    ("A_4 long relation", gen_linear(4, [(1, 3)])),
]


@pytest.mark.parametrize("label,built", INSTANCES, ids=[i[0] for i in INSTANCES])
def test_solver_matches_raw_definition(label, built):
    q, ideal = built
    algebra = compute_basis(q, ideal)
    assert definition_level_dimension(algebra) == frobenius_dimension(algebra)
