"""What a process imports: `frobq dim` loads only the modules it runs.

Every start compiles frobq from source when bytecode is not written, so a
module `dim` never calls is pure start-up cost.  The closed forms are
reached only as `frobq.closed_forms`, which `classify` and `patterns` import.
"""

import json
import os
import subprocess
import sys

import frobq

SRC = os.path.dirname(os.path.dirname(frobq.__file__))

# Every public name of the package; the closed forms are frobq.closed_forms's.
EXPORTED = (
    "AlgebraBasis", "Arrow", "CoproductCandidate", "FrobqError", "IdealSpec",
    "InfiniteDimensionalError", "InternalFaultError", "ParseError",
    "Path", "PathExpr", "PrimeField", "QQ", "Quiver", "QuiverDocument", "SparseMatrix",
    "SupportViolationError", "UnsupportedIdealRegimeError", "ValidationError",
    "build_constraint_system", "candidate_from_json", "candidate_to_json", "compute_basis",
    "compute_bound", "format_document", "frobenius_dimension", "kernel_basis",
    "parse_document", "rank", "rref", "solve_frobenius_space", "validate",
    "verify_coproduct", "__version__",
    "dsl", "errors", "frobenius", "ideal", "linalg", "quiver",
)

DIAMOND = """field Q
vertex 0 x y w
arrow a1 : 0 -> x
arrow a2 : x -> w
arrow b1 : 0 -> y
arrow b2 : y -> w
relation a1*a2 - b1*b2 ;
"""

# Run in a fresh interpreter on a command line; prints one JSON line last.
CLI_PROBE = """
import json, sys
from frobq import cli
code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""

PACKAGE_PROBE = """
import json, sys
import frobq
loaded = "frobq.closed_forms" in sys.modules
unresolved = [n for n in sys.argv[1:] if not hasattr(frobq, n)]
try:
    frobq.toupie_classify
    closed_form = "resolved"
except AttributeError:
    closed_form = "AttributeError"
from frobq.closed_forms import witness_coproduct
print(json.dumps({"loaded": loaded, "unresolved": unresolved, "closed_form": closed_form,
                  "direct": callable(witness_coproduct)}))
"""


def _fresh(probe, *args):
    done = subprocess.run([sys.executable, "-c", probe, *args], capture_output=True,
                          text=True, timeout=60, env={**os.environ, "PYTHONPATH": SRC})
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_dim_imports_no_closed_forms_families_or_dataclasses(tmp_path):
    doc = tmp_path / "diamond.qv"
    doc.write_text(DIAMOND)
    result = _fresh(CLI_PROBE, "dim", str(doc))
    assert result["code"] == 0
    loaded = set(result["modules"])
    assert "frobq.ideal" in loaded and "frobq.frobenius" in loaded
    assert not loaded & {"dataclasses", "frobq.closed_forms", "frobq.families"}


def test_json_output_imports_nothing_dim_does_not(tmp_path):
    # The --json writer uses json's C string encoder, which `import json`
    # already loads, so writing JSON adds nothing to a cold start.
    doc = tmp_path / "diamond.qv"
    doc.write_text(DIAMOND)
    dim = _fresh(CLI_PROBE, "dim", str(doc))
    assert "json.encoder" in dim["modules"]
    for command in ("space", "basis", "dim"):
        result = _fresh(CLI_PROBE, command, str(doc), "--json")
        assert result["code"] == 0 and result["modules"] == dim["modules"]


def test_closed_forms_are_reached_only_through_their_module():
    result = _fresh(PACKAGE_PROBE, *EXPORTED)
    assert result == {"loaded": False, "unresolved": [], "closed_form": "AttributeError",
                      "direct": True}
