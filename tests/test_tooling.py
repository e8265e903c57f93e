"""The benchmark and the README's CLI examples must keep working against the
program's API, the classification report must keep the keys of the
benchmark's stored reference, every exception the program defines must map
onto the CLI's exit-code contract, and every public function, and every
defaulted parameter of one, must have a caller in the program or the
benchmark that uses it.

``perfbench/tracer.py`` wraps each ``(module, attribute)`` named in its
``TARGETS`` table, and ``perfbench/workloads.py`` calls the program through
module aliases; a target that no longer resolves, or a call whose arguments
no longer bind, breaks the benchmark; a target that the program no longer
calls leaves its span empty.  Both files are read from their syntax trees
and the reference as JSON, so nothing under ``perfbench/`` is imported or
written.
"""

import ast
import importlib
import inspect
import json
import pkgutil
import shlex
from collections import Counter
from pathlib import Path

import qfridge
from qfridge import cli
from qfridge.channels import kraus_to_superop, thermal_kraus
from qfridge.classify import classification_report
from qfridge.cli import main

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qfridge"
PERFBENCH = ROOT / "perfbench"
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


def uncalled_tracer_targets(package=PACKAGE) -> list:
    """``module.attribute`` of each qfridge tracer target that no call in the
    package makes: a span the benchmark can never record.  A call matches by
    the callee's name (a class's name for its ``__init__``); the tracer's own
    strings are not calls."""
    callees = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                callees.add(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None))
    found = []
    for module_name, attr in tracer_targets():
        owner, _, name = attr.rpartition(".")
        if module_name.startswith("qfridge.") and (owner if name == "__init__" else name) not in callees:
            found.append(f"{module_name.removeprefix('qfridge.')}.{attr}")
    return found


def test_uncalled_tracer_targets_do_not_grow():
    """A refactor that routes the program around a traced function passes
    tier-1 yet leaves the benchmark's span for it empty.  These three wait on
    the benchmark refresh and the shim deletions (ROADMAP items 0 and 1),
    which drop them from the tracer; any other entry is new drift."""
    assert uncalled_tracer_targets() == [
        "channels.channel_distance",
        "densim.apply_unitary",
        "densim.apply_single_qubit_superop",
    ]


# spans the benchmark reports per layer for the storage and register code
TRACED_NAMES = {
    "qfridge.bounds.entropy_ledger_step",
    "qfridge.densim.von_neumann_entropy",
    "qfridge.densim.partial_trace",
    "qfridge.densim.epr_fidelity",
    "qfridge.densim.step",
    "qfridge.densim.QRegister.__init__",
}


def test_tracer_targets_are_defined_where_the_tracer_wraps_them():
    """`Tracer.install` takes a method from its class's own ``__dict__`` and
    a function from its module's namespace, so a renamed, deleted or
    inherited target fails only under ``perfbench/run.py --trace 1``."""
    targets = [(m, a) for m, a in tracer_targets() if m == "qfridge" or m.startswith("qfridge.")]
    assert TRACED_NAMES <= {f"{m}.{a}" for m, a in targets}
    missing = []
    for module_name, attr in targets:
        owner = importlib.import_module(module_name)
        *path, name = attr.split(".")
        for part in path:
            owner = vars(owner).get(part)
        if not inspect.isfunction(vars(owner).get(name) if owner is not None else None):
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


def test_classification_report_keys_match_the_benchmark_reference():
    """The benchmark checks every key of its ``classify_relax`` op against
    its stored reference, so a key added to or dropped from the report fails
    ``relax_search`` as incorrect until the reference is rewritten."""
    reference = json.loads((PERFBENCH / "reference" / "relax_search.json").read_text())["classify_relax"]
    report = classification_report(kraus_to_superop(thermal_kraus(0.05, 0.1)))
    assert set(report) == {key for key in reference if not key.startswith("relax_")}


def readme_cli_examples() -> list:
    """The ``qfridge ...`` lines of the sh block in the README's CLI section,
    each split into words."""
    section = (ROOT / "README.md").read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line) for line in block.splitlines() if line.startswith("qfridge ")]


def test_readme_cli_examples_use_declared_options():
    examples = readme_cli_examples()
    assert len(examples) >= 5
    problems = []
    for words in examples:
        command = main.commands.get(words[1])
        if command is None:
            problems.append(f"{shlex.join(words)}: no subcommand {words[1]!r}")
            continue
        declared = {opt for param in command.params for opt in param.opts}
        problems.extend(
            f"{shlex.join(words)}: no option {word!r}"
            for word in words[2:]
            if word.startswith("--") and word.split("=")[0] not in declared
        )
    assert problems == []


def program_exceptions() -> list:
    """Every Exception subclass defined in a qfridge module."""
    found = []
    for info in pkgutil.iter_modules(qfridge.__path__, "qfridge."):
        module = importlib.import_module(info.name)
        found.extend(
            cls
            for _, cls in inspect.getmembers(module, inspect.isclass)
            if issubclass(cls, Exception) and cls.__module__ == module.__name__
        )
    return found


def test_every_program_exception_has_an_exit_code():
    exceptions = program_exceptions()
    assert len(exceptions) >= 5
    unmapped = [
        f"{cls.__module__}.{cls.__name__}"
        for cls in exceptions
        if not any(issubclass(cls, types) for types, _, _ in cli._EXITS)
    ]
    assert unmapped == []


def _names(node) -> Counter:
    """Every identifier a syntax tree names: variables, attributes, and the
    dotted parts of string constants (the tracer names its targets as
    strings)."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.update(sub.value.split("."))
    return names


def _public_definitions(tree):
    """(qualified name, node) of the public module-level functions and
    methods, except properties and decorated click commands."""
    defs = [(node.name, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        defs.extend((f"{cls.name}.{node.name}", node) for node in cls.body if isinstance(node, ast.FunctionDef))
    for qualname, node in defs:
        decorators = {ast.unparse(d).split("(")[0] for d in node.decorator_list}
        if node.name.startswith("_") or "property" in decorators:
            continue
        if any(d.endswith((".command", ".group")) for d in decorators):
            continue
        yield qualname, node


def uncalled_public_functions(package=PACKAGE, perfbench=PERFBENCH) -> list:
    """Public functions and methods of the package that nothing in the
    package or the benchmark names outside their own definition, and that
    ``qfridge.__all__`` does not export."""
    trees = {path: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    named = sum((_names(tree) for tree in trees.values()), Counter())
    for path in sorted(perfbench.glob("*.py")):
        named += _names(ast.parse(path.read_text()))
    exported = set(qfridge.__all__)
    return sorted(
        f"{path.stem}.{qualname}"
        for path, tree in trees.items()
        for qualname, node in _public_definitions(tree)
        if node.name not in exported and named[node.name] <= _names(node)[node.name]
    )


def test_every_public_function_has_a_caller():
    assert uncalled_public_functions() == []


def _defaulted_parameters(qualname, node) -> list:
    """(position or None, name) of each parameter of a definition that has a
    default; the position counts from the first argument a caller writes,
    so a method's self or cls is skipped, and keyword-only ones get None."""
    positional = node.args.posonlyargs + node.args.args
    static = any(ast.unparse(d) == "staticmethod" for d in node.decorator_list)
    offset = 1 if "." in qualname and not static else 0
    first_default = len(positional) - len(node.args.defaults)
    found = [(i - offset, arg.arg) for i, arg in enumerate(positional) if i >= first_default]
    found.extend(
        (None, arg.arg)
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults)
        if default is not None
    )
    return found


def _passes(call, position, name) -> bool:
    """Whether a call sets a parameter, by keyword or by position; an
    unpacked ``*args`` or ``**kwargs`` counts as setting what it could."""
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            if position is not None and position >= i:
                return True
        elif i == position:
            return True
    return any(k.arg in (name, None) for k in call.keywords)


def unset_optional_parameters(package=PACKAGE, perfbench=PERFBENCH) -> list:
    """``module.function(parameter)`` for each defaulted parameter of a public
    function or method of the package that no call in the package or the
    benchmark sets.  Calls are matched by the callee's name."""
    trees = {path: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    calls = {}
    for tree in [*trees.values(), *(ast.parse(p.read_text()) for p in sorted(perfbench.glob("*.py")))]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(callee, []).append(node)
    return sorted(
        f"{path.stem}.{qualname}({name})"
        for path, tree in trees.items()
        for qualname, node in _public_definitions(tree)
        for position, name in _defaulted_parameters(qualname, node)
        if not any(_passes(call, position, name) for call in calls.get(node.name, []))
    )


def test_every_optional_parameter_has_a_caller():
    assert unset_optional_parameters() == []
