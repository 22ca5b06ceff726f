"""compute_basis against a per-block reference, on non-monomial algebras.

`compute_basis` row-reduces the whole ideal once.  Its spanning rows
u * g * v never cross a (source, target) block, so that one RREF must be
the union of the RREFs of the blocks taken one at a time, which is what
`basis_by_blocks` computes.  The instances are drawn by `mixed_algebras`:
toupies with monomial and linear relations, canonical algebras with
rational lambdas and grids of (possibly scaled) commutativity squares,
over Q, F_5 and F_7, with coefficients that p may divide.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import frobq.ideal
from frobq.closed_forms import toupie_classify
from frobq.errors import ValidationError
from frobq.families import CanonicalSpec, gen_canonical, gen_cycle, gen_toupie
from frobq.frobenius import frobenius_dimension
from frobq.ideal import IdealSpec, compute_basis, compute_bound
from frobq.linalg import QQ, PrimeField, SparseMatrix, rref
from frobq.quiver import PathExpr, Quiver

FIELDS = (QQ, PrimeField(5), PrimeField(7))


def basis_by_blocks(quiver, ideal, field):
    """(basis, blocks, table) with one rref per (source, target) block."""
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


# Nonzero over Q; 5, 7 and their multiples vanish over F_5 or F_7.
coefficients = st.one_of(st.integers(-3, 3).filter(bool),
                         st.sampled_from((5, -5, 7, -7, 10, 14, 35)))
# Denominators 2 and 3 stay invertible over F_5 and F_7.
rationals = st.builds(Fraction, coefficients, st.sampled_from((1, 2, 3)))


@st.composite
def toupies(draw):
    """A toupie with monomial relations inside branches and linear ones across them."""
    lengths = draw(st.lists(st.integers(2, 4), min_size=1, max_size=4))
    monomial = set()
    for _ in range(draw(st.integers(0, 2))):
        branch = draw(st.integers(1, len(lengths)))
        length = draw(st.integers(2, lengths[branch - 1]))
        start = draw(st.integers(1, lengths[branch - 1] - length + 1))
        monomial.add((branch, start, length))
    linear = draw(st.lists(st.lists(st.one_of(st.just(0), rationals), min_size=len(lengths),
                                    max_size=len(lengths)).filter(any), max_size=2))
    return gen_toupie(lengths, sorted(monomial), linear), bool(monomial)


@st.composite
def canonical_algebras(draw):
    weights = draw(st.lists(st.integers(2, 4), min_size=3, max_size=4))
    lambdas = draw(st.lists(rationals, min_size=len(weights) - 2, max_size=len(weights) - 2,
                            unique=True))
    return gen_canonical(CanonicalSpec(weights, lambdas))


@st.composite
def square_grids(draw):
    """An m x n grid of vertices; each drawn square says h*v = c v*h."""
    m, n = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    vertices = [f"{i},{j}" for i in range(m) for j in range(n)]
    arrows = [(f"h{i}{j}", f"{i},{j}", f"{i},{j + 1}") for i in range(m) for j in range(n - 1)]
    arrows += [(f"v{i}{j}", f"{i},{j}", f"{i + 1},{j}") for i in range(m - 1) for j in range(n)]
    q = Quiver(vertices, arrows)
    generators = []
    for i in range(m - 1):
        for j in range(n - 1):
            if draw(st.booleans()):
                c = draw(rationals)
                generators.append(PathExpr({q.path([f"h{i}{j}", f"v{i}{j + 1}"]): 1,
                                            q.path([f"v{i}{j}", f"h{i + 1}{j}"]): -c}))
    return q, IdealSpec(generators)


def mixed_algebras():
    """(quiver, ideal, field, toupie with a monomial relation?) over Q, F_5 or F_7."""
    toupie = toupies().map(lambda drawn: (*drawn[0], drawn[1]))
    other = st.one_of(canonical_algebras(), square_grids()).map(lambda qi: (*qi, False))
    return st.builds(lambda algebra, field: (algebra[0], algebra[1], field, algebra[2]),
                     st.one_of(toupie, other), st.sampled_from(FIELDS))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(drawn=mixed_algebras())
def test_one_elimination_matches_per_block_reference(drawn):
    quiver, ideal, field, monomial_toupie = drawn
    if not all(any(map(field.coerce, g.terms.values())) for g in ideal.generators):
        with pytest.raises(ValidationError, match="zero generator"):
            compute_basis(quiver, ideal, field)
        return
    algebra = compute_basis(quiver, ideal, field)
    basis, blocks, table = basis_by_blocks(quiver, ideal, field)
    assert algebra.basis == basis
    assert algebra.blocks == blocks
    assert algebra.table == table
    if monomial_toupie:
        # The abstract: a toupie with a monomial relation has a nonzero space.
        dimension = frobenius_dimension(algebra)
        assert dimension >= 1
        assert toupie_classify(quiver, ideal, field).prediction_holds(dimension)


def test_compute_basis_eliminates_once(monkeypatch):
    calls = []

    def counting_rref(matrix):
        calls.append(matrix.ncols)
        return rref(matrix)

    monkeypatch.setattr(frobq.ideal, "rref", counting_rref)
    for quiver, ideal in (gen_canonical(CanonicalSpec((2, 3, 4), (Fraction(1, 2),))),
                          gen_cycle(4, 3)):
        calls.clear()
        algebra = compute_basis(quiver, ideal)
        assert len(algebra.blocks) > 1
        assert calls == [len(quiver.enumerate_paths(algebra.bound - 1))]
