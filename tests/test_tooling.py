"""The benchmark tracer's targets must exist in the program.

``perfbench/tracer.py`` wraps each ``(module, attribute)`` named in its
``TARGETS`` table; a target that no longer resolves breaks the traced
benchmark.  The table is read from the file's syntax tree, so nothing under
``perfbench/`` is imported or written.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def tracer_targets() -> list:
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return [(row.elts[0].value, row.elts[1].value) for row in node.value.elts]
    raise AssertionError(f"no TARGETS table in {TRACER}")


def test_every_tracer_target_resolves():
    targets = tracer_targets()
    assert len(targets) > 20
    missing = []
    for module_name, attr in targets:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert missing == []
