"""The benchmark must keep working against the program's API.

``perfbench/tracer.py`` wraps each ``(module, attribute)`` named in its
``TARGETS`` table, and ``perfbench/workloads.py`` calls the program through
module aliases; a target that no longer resolves, or a call whose arguments
no longer bind, breaks the benchmark.  Both files are read from their syntax
trees, so nothing under ``perfbench/`` is imported or written.
"""

import ast
import importlib
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"
WORKLOADS = PERFBENCH / "workloads.py"


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


def _module_aliases(tree) -> dict:
    """Top-level ``name = importlib.import_module("qfridge....")`` bindings."""
    aliases = {}
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and ast.unparse(node.value.func) == "importlib.import_module"
        ):
            aliases[node.targets[0].id] = node.value.args[0].value
    return aliases


def workload_references() -> list:
    """(source text, module name, attribute, call node or None) of every
    attribute of a qfridge module alias that ``workloads.py`` names; the node
    is the call when the attribute is called."""
    tree = ast.parse(WORKLOADS.read_text())
    aliases = _module_aliases(tree)
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    return [
        (ast.unparse(node), aliases[node.value.id], node.attr, calls.get(id(node)))
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases
    ]


def test_every_workload_call_binds():
    refs = workload_references()
    problems = []
    for text, module_name, attr, call in refs:
        owner = getattr(importlib.import_module(module_name), attr, None)
        if owner is None:
            problems.append(f"{text}: no such attribute")
        elif call is not None:
            args = [None] * sum(not isinstance(a, ast.Starred) for a in call.args)
            kwargs = {k.arg: None for k in call.keywords if k.arg is not None}
            try:
                inspect.signature(owner).bind_partial(*args, **kwargs)
            except TypeError as err:
                problems.append(f"{text}: {err}")
    assert sum(call is not None for *_, call in refs) >= 15
    assert problems == []
