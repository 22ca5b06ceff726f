"""What a process imports: `frobq dim` loads only the modules it runs.

Every start compiles frobq from source when bytecode is not written, so a
module `dim` never calls is pure start-up cost.  The closed forms load on
first use, through the package or through `classify`/`patterns`.
"""

import json
import os
import subprocess
import sys

import frobq

SRC = os.path.dirname(os.path.dirname(frobq.__file__))

# Every public name of the package, as it stood when all of it loaded eagerly.
EXPORTED = (
    "AlgebraBasis", "Arrow", "CoproductCandidate", "FrobqError", "IdealSpec",
    "InfiniteDimensionalError", "InternalFaultError", "LocalPatternMatch", "ParseError",
    "Path", "PathExpr", "PrimeField", "QQ", "Quiver", "QuiverDocument", "SparseMatrix",
    "SupportViolationError", "ToupieClassification",
    "UnsupportedIdealRegimeError", "ValidationError", "build_constraint_system",
    "candidate_from_json", "candidate_to_json", "compute_basis", "compute_bound",
    "detect_local_patterns", "format_document", "frobenius_dimension",
    "is_gentle", "is_radical_square_zero", "is_string", "is_string_quadratic",
    "kernel_basis", "parse_document", "radical_square_zero_dimension", "rank", "rref",
    "solve_frobenius_space", "string_relation_witness", "toupie_classify", "validate",
    "verify_coproduct", "witness_coproduct", "__version__",
    "closed_forms", "dsl", "errors", "frobenius", "ideal", "linalg", "quiver",
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
from frobq import witness_coproduct
import frobq
from frobq.closed_forms import witness_coproduct as direct
try:
    frobq.no_such_name
    missing = "resolved"
except AttributeError:
    missing = "AttributeError"
except RecursionError:
    missing = "RecursionError"
unresolved = [n for n in sys.argv[1:] if not hasattr(frobq, n)]
print(json.dumps({"same": witness_coproduct is direct, "missing": missing,
                  "unresolved": unresolved}))
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


def test_package_names_resolve_and_closed_forms_load_on_first_use():
    result = _fresh(PACKAGE_PROBE, *EXPORTED)
    assert result == {"same": True, "missing": "AttributeError", "unresolved": []}


def test_dir_lists_the_closed_form_names():
    assert {"toupie_classify", "witness_coproduct", "closed_forms"} <= set(dir(frobq))
