"""perfbench's traced run reads the constraint matrix the solver builds.

perfbench/tracing.py counts columns, rows and nonzeros from the
SparseMatrix that build_constraint_system returns, and rank from the
pivots of rref, and path and basis counts from the algebra that
compute_basis returns.  These tests pin those counts to what the library
itself reports, so a change to SparseMatrix or to the reduction table's
keys cannot silently break the traced per-layer metrics.  A monomial
ideal's kernel needs no constraint matrix, so the tracer counts no
columns, rows or rank for it.
"""

import importlib.util
from pathlib import Path

import pytest

from frobq import cli
from frobq.dsl import QuiverDocument, format_document, parse_document
from frobq.families import gen_cycle, gen_toupie
from frobq.frobenius import build_constraint_system
from frobq.ideal import compute_basis
from frobq.linalg import QQ, PrimeField, rank

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)

DOCUMENTS = {
    "toupie-Q": format_document(QuiverDocument(*gen_toupie((2, 3), [], [(1, -2)]), QQ)),
    "toupie-F7": format_document(QuiverDocument(*gen_toupie((3, 3), [(1, 1, 2)], [(1, -2)]),
                                                PrimeField(7))),
}
MONOMIAL_DOCUMENT = format_document(QuiverDocument(*gen_cycle(4, 3), PrimeField(7)))


def traced_metrics(capsys, tmp_path, text, command):
    """The per-layer metrics of one traced CLI command on the document text."""
    path = tmp_path / "doc.qv"
    path.write_text(text)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        code = cli.main([command, str(path)])
    capsys.readouterr()
    assert code == 0
    return tracing.layer_metrics(tracer)


@pytest.mark.parametrize("command", ["dim", "space"])
@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_traced_sizes_match_the_library(capsys, tmp_path, name, command):
    metrics = traced_metrics(capsys, tmp_path, DOCUMENTS[name], command)

    doc = parse_document(DOCUMENTS[name])
    algebra = compute_basis(doc.quiver, doc.ideal, doc.field)
    matrix, legend = build_constraint_system(algebra)
    matrix_rank = rank(matrix)
    # The tracer reads these two off the reduction table and the basis.
    assert metrics["quiver.paths"] == len(doc.quiver.enumerate_paths(algebra.bound - 1))
    assert metrics["ideal.dim_A"] == algebra.dimension
    assert metrics["frobenius.cols"] == len(legend)
    assert metrics["frobenius.rows"] == len(matrix.rows)
    assert metrics["frobenius.nnz"] == sum(len(row) for row in matrix.rows)
    assert metrics["linalg.rank"] == matrix_rank
    assert metrics["linalg.kernel_dim"] == len(legend) - matrix_rank


@pytest.mark.parametrize("command", ["dim", "space"])
def test_monomial_solve_builds_and_eliminates_nothing(capsys, tmp_path, command):
    metrics = traced_metrics(capsys, tmp_path, MONOMIAL_DOCUMENT, command)

    doc = parse_document(MONOMIAL_DOCUMENT)
    assert doc.ideal.is_monomial
    algebra = compute_basis(doc.quiver, doc.ideal, doc.field)
    assert metrics["quiver.paths"] == len(doc.quiver.enumerate_paths(algebra.bound - 1))
    assert metrics["ideal.dim_A"] == algebra.dimension
    assert metrics["frobenius.cols"] == metrics["frobenius.rows"] == 0
    assert metrics["linalg.rank"] == 0
