"""compute_basis against a per-block reference, on non-monomial algebras.

`compute_basis` sets the paths that hold a monomial generator's word to
zero and row-reduces the rows u * g * v of the other generators once,
over columns in canonical order.  No row crosses a (source, target)
block, so the result must be the union of the RREFs of the blocks taken
one at a time over all the rows, monomial ones included, which is what
`basis_by_blocks` computes, put into canonical order.  The instances are
drawn by `strategies.mixed_algebras`.
"""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings

import frobq.ideal
from frobq.closed_forms import toupie_classify
from frobq.errors import ValidationError
from frobq.families import CanonicalSpec, gen_canonical, gen_cycle, gen_linear, gen_toupie
from frobq.frobenius import frobenius_dimension
from frobq.ideal import compute_basis, compute_bound
from frobq.linalg import QQ, SparseMatrix, rref

from algebra_ops import assert_canonical, blocks, canonical_key, has_subword
from strategies import has_zero_generator, mixed_algebras


def basis_by_blocks(quiver, ideal, field):
    """(basis, blocks, table) with one rref per (source, target) block, the
    blocks in (source, target) order and the basis indices in that order."""
    bound = compute_bound(quiver, ideal)
    paths = quiver.enumerate_paths(bound - 1)
    blocks_paths = {}
    column = {}
    for p in paths:
        block = blocks_paths.setdefault((p.source, p.target), [])
        column[p.arrows] = len(block)
        block.append(p)
    rows_by_block = {}
    for g in ideal.generators:
        for u in paths:
            for v in paths:
                if u.target != g.source() or v.source != g.target():
                    continue
                row = {}
                for t, coeff in g.terms.items():
                    word = u.arrows + t.arrows + v.arrows
                    if len(word) < bound and field.coerce(coeff):
                        row[column[word]] = field.coerce(coeff)
                if row:
                    rows_by_block.setdefault((u.source, v.target), []).append(row)
    basis, blocks, table = [], {}, {}
    for key in sorted(blocks_paths):
        block = blocks_paths[key]
        reduced, pivots = rref(SparseMatrix(rows_by_block.get(key, ()), len(block), field))
        index_of = {}
        for j, p in enumerate(block):
            if j not in pivots:
                index_of[j] = len(basis)
                table[p.arrows or p.source] = {len(basis): field.one}
                basis.append(p)
        blocks[key] = tuple(block[j] for j in index_of)
        for i, col in enumerate(pivots):
            table[block[col].arrows] = {index_of[j]: field.reduce(-value)
                                        for j, value in reduced.rows[i].items() if j != col}
    return tuple(basis), blocks, table


def in_canonical_order(basis, table):
    """basis sorted by canonical_key, and table with its basis indices
    renumbered to match."""
    order = sorted(range(len(basis)), key=lambda i: canonical_key(basis[i]))
    renumber = {old: new for new, old in enumerate(order)}
    return (tuple(basis[i] for i in order),
            {key: {renumber[i]: c for i, c in coords.items()} for key, coords in table.items()})


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(drawn=mixed_algebras())
def test_one_elimination_matches_per_block_reference(drawn):
    quiver, ideal, field, monomial_toupie = drawn
    if has_zero_generator(ideal, field):
        with pytest.raises(ValidationError, match="zero generator"):
            compute_basis(quiver, ideal, field)
        return
    algebra = compute_basis(quiver, ideal, field)
    block_basis, reference_blocks, block_table = basis_by_blocks(quiver, ideal, field)
    basis, table = in_canonical_order(block_basis, block_table)
    assert algebra.basis == basis
    assert blocks(algebra) == {key: paths for key, paths in reference_blocks.items() if paths}
    assert algebra.table == table
    if monomial_toupie:
        # The abstract: a toupie with a monomial relation has a nonzero space.
        dimension = frobenius_dimension(algebra)
        assert dimension >= 1
        assert toupie_classify(algebra).prediction_holds(dimension)


def live_columns_and_linear_rows(quiver, ideal, field, bound):
    """The paths of length < bound that hold no monomial generator's word,
    in canonical order, and the rows u * g * v over them of the
    non-monomial generators g, for u and v among those paths."""
    words = [p.arrows for p in ideal.monomial_paths()]
    live = sorted((p for p in quiver.enumerate_paths(bound - 1)
                   if not has_subword(p.arrows, words)), key=canonical_key)
    column = {p.arrows: j for j, p in enumerate(live)}
    rows = []
    for g in ideal.generators:
        if g.is_monomial:
            continue
        for u in live:
            for v in live:
                if u.target == g.source() and v.source == g.target():
                    row = {column[w]: field.coerce(c) for t, c in g.terms.items()
                           if (w := u.arrows + t.arrows + v.arrows) in column
                           and field.coerce(c)}
                    if row:
                        rows.append(row)
    return live, rows


def test_compute_basis_eliminates_once(monkeypatch):
    """One rref, with a column for each live path and rows only from the
    non-monomial generators: none at all for a monomial ideal."""
    calls = []

    def counting_rref(matrix):
        calls.append(matrix)
        return rref(matrix)

    monkeypatch.setattr(frobq.ideal, "rref", counting_rref)
    for quiver, ideal in (gen_canonical(CanonicalSpec((2, 3, 4), (Fraction(1, 2),))),
                          gen_cycle(4, 3),
                          gen_linear(6, [(1, 2), (3, 3)]),
                          gen_toupie((3, 4), [(2, 2, 2)], [(1, -2)])):
        calls.clear()
        algebra = compute_basis(quiver, ideal)
        assert len(blocks(algebra)) > 1
        live, rows = live_columns_and_linear_rows(quiver, ideal, QQ, algebra.bound)
        [matrix] = calls
        assert matrix.ncols == len(live)
        assert sorted(sorted(r.items()) for r in matrix.rows) == \
            sorted(sorted(r.items()) for r in rows)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(drawn=mixed_algebras())
def test_ideal_rows_are_canonical(drawn):
    """compute_basis adopts its ideal rows without the constructor's pass,
    so they must already be what that pass makes of them: nonzero
    canonical scalars, and no empty row."""
    quiver, ideal, field, _ = drawn
    assume(not has_zero_generator(ideal, field))
    calls = []

    def recording_rref(matrix):
        calls.append(matrix)
        return rref(matrix)

    with mock.patch.object(frobq.ideal, "rref", recording_rref):
        compute_basis(quiver, ideal, field)
    [matrix] = calls
    assert all(matrix.rows)
    assert_canonical(field, (c for row in matrix.rows for c in row.values()))
    assert SparseMatrix(matrix.rows, matrix.ncols, field).rows == matrix.rows
