"""Every public name, member and keyword is used by the package, a demo or the benchmark.

A helper exported from ``erdos_trio`` but read only by tests is dead weight:
it should move to ``tests/oracles.py`` or go. The same holds one level down,
for the methods and dataclass fields of public classes and for the keyword
parameters with defaults of public functions and methods. These tests walk
the syntax trees of the package modules (without ``__init__.py``),
``demos/`` and ``perfbench/``; a definition or an import alone does not
count as a use:

* a top-level name is used when it appears as a ``Name`` or ``Attribute``;
* a method or field is used when it is read as an ``Attribute`` (an
  assignment, a constructor keyword or a local variable of the same name
  does not count);
* a keyword with a default is used when some call to a function of that
  name passes it, by keyword or by position.

Dunder methods are out of reach of the syntax tree and are not checked.
Within each package module, every top-level import must be read as a
``Name`` somewhere in that module. The memory budget has one binding and
one refusal: only ``errors.reserve`` raises ``ResourceLimitError``.
"""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from collections import defaultdict
from pathlib import Path

import erdos_trio

ROOT = Path(__file__).resolve().parents[1]

# ``color_of`` colors every element of A, where the gap witness needs only
# the anchor colors; the element-level gap oracle of acceptance criterion 7
# colors A with it to check the witness on random total colorings.
EXEMPT = {"PartitionRule.color_of"}


def _trees() -> list[ast.AST]:
    files = [p for p in (ROOT / "src" / "erdos_trio").glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    return [ast.parse(path.read_text(), filename=str(path)) for path in files]


def _used_names() -> set[str]:
    used = set()
    for tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def _public_api() -> list[tuple[str, object]]:
    """(name, object) for every public function and class a package module defines."""
    api = []
    for info in pkgutil.iter_modules(erdos_trio.__path__):
        module = importlib.import_module(f"erdos_trio.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) or inspect.isclass(obj):
                api.append((name, obj))
    return api


def _defaulted(fn, is_method: bool) -> list[tuple[int | None, str]]:
    """(positional index or None if keyword-only, name) of each parameter with a default."""
    params = list(inspect.signature(fn).parameters.values())[1 if is_method else 0 :]
    return [
        (i if p.kind is p.POSITIONAL_OR_KEYWORD else None, p.name)
        for i, p in enumerate(params)
        if p.default is not p.empty
    ]


def test_every_public_name_has_a_caller():
    used = _used_names()
    public = [n for n in erdos_trio.__all__ if not inspect.ismodule(getattr(erdos_trio, n))]
    assert public
    unused = sorted(n for n in public if n not in used)
    assert unused == [], f"public names with no caller outside tests: {unused}"


def test_every_member_and_keyword_has_a_caller():
    read = set()  # attribute names read
    positional = defaultdict(int)  # callee name -> most positional arguments passed
    keywords = defaultdict(set)  # callee name -> keywords passed
    for tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Call):
                func = node.func
                callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                stars = [i for i, a in enumerate(node.args) if isinstance(a, ast.Starred)]
                positional[callee] = max(positional[callee], stars[0] if stars else len(node.args))
                keywords[callee] |= {kw.arg for kw in node.keywords if kw.arg}

    def unpassed(label: str, callee: str, fn, is_method: bool) -> list[str]:
        return [
            f"{label}({name}=)"
            for index, name in _defaulted(fn, is_method)
            if name not in keywords[callee] and not (index is not None and index < positional[callee])
        ]

    api = _public_api()
    assert api
    unused = []
    for name, obj in api:
        if inspect.isfunction(obj):
            unused += unpassed(name, name, obj, is_method=False)
            continue
        members = [f.name for f in dataclasses.fields(obj)] if dataclasses.is_dataclass(obj) else []
        for attr, value in vars(obj).items():
            if attr.startswith("_"):
                continue
            if inspect.isfunction(value):
                members.append(attr)
                unused += unpassed(f"{name}.{attr}", attr, value, is_method=True)
            elif isinstance(value, property):
                members.append(attr)
        unused += [
            f"{name}.{m}"
            for m in members
            if not m.startswith("_") and m not in read and f"{name}.{m}" not in EXEMPT
        ]
    assert unused == [], f"public members and keywords with no caller outside tests: {sorted(unused)}"


def test_package_modules_import_only_what_they_use():
    """Every name a package module imports at top level is read in that module."""
    unused = []
    for path in sorted((ROOT / "src" / "erdos_trio").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unused.append(f"{path.stem}.{name}")
    assert unused == [], f"imports never read: {unused}"


def test_one_memory_budget_and_one_refusal():
    """The memory budget has one binding and one refusal: ``errors`` assigns
    ``DEFAULT_MEMORY_BUDGET``, no other package module imports it, and
    ``raise ResourceLimitError`` appears only in ``errors.reserve``."""
    raises, assigned, imported = [], [], []
    for path in sorted((ROOT / "src" / "erdos_trio").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if getattr(exc, "id", getattr(exc, "attr", None)) == "ResourceLimitError":
                    scope = node
                    while scope in parents and not isinstance(scope, ast.FunctionDef):
                        scope = parents[scope]
                    raises.append(f"{path.stem}.{getattr(scope, 'name', '<module>')}")
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if any(getattr(t, "id", None) == "DEFAULT_MEMORY_BUDGET" for t in targets):
                    assigned.append(path.stem)
            elif isinstance(node, ast.ImportFrom):
                if any(alias.name == "DEFAULT_MEMORY_BUDGET" for alias in node.names):
                    imported.append(f"{path.stem}.DEFAULT_MEMORY_BUDGET")
    assert (raises, assigned, imported) == (["errors.reserve"], ["errors"], []), (
        f"ResourceLimitError raised in {raises}; DEFAULT_MEMORY_BUDGET assigned in "
        f"{assigned} and imported as {imported}"
    )
