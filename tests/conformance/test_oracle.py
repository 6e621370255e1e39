"""The differential oracle stays independent of what it checks.

:mod:`repro.verify.oracle` keeps its own phase 1 (a whole-database scan)
and its own phase 3 (the serial containment loop). Importing the sweep's
modules would let a defect there reach both sides of every verify-matrix
comparison unseen, so the imports are pinned here.
"""

import ast
from pathlib import Path

import repro.verify.oracle as oracle_module
from repro.engine.protocol import ReportingEngine, make_engine
from repro.verify.oracle import SerialOracle

#: Production modules whose code the oracle must not run: the multi-query
#: scan and the blocked sweep (phase 1) and the wave DP (phase 3).
FORBIDDEN = ("repro.seeding.multi_query", "repro.core.sweep", "repro.core.gapped_batch")


def _imported_modules(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.add(node.module)
            found.update(f"{node.module}.{alias.name}" for alias in node.names)
    return found


def test_oracle_imports_no_production_phase_1_or_3():
    imported = _imported_modules(Path(oracle_module.__file__))
    clashes = sorted(
        name
        for name in imported
        for forbidden in FORBIDDEN
        if name == forbidden or name.startswith(forbidden + ".")
    )
    assert not clashes, f"repro.verify.oracle imports {clashes}"


def test_import_check_sees_both_import_forms(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import repro.core.sweep\n"
        "from repro.core import gapped_batch\n"
        "def f():\n    from repro.seeding.multi_query import MultiQueryIndex\n"
    )
    imported = _imported_modules(probe)
    assert {"repro.core.sweep", "repro.core.gapped_batch", "repro.seeding.multi_query"} <= imported


def test_registry_name_builds_the_oracle(tiny_params):
    engine = make_engine("reference:serial-gapped", tiny_params)
    assert isinstance(engine, SerialOracle)
    assert isinstance(engine, ReportingEngine)
    assert engine.params == tiny_params
