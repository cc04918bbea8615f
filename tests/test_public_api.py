"""Every public name is used by the package, a demo or the benchmark.

A helper exported from ``erdos_trio`` but read only by tests is dead weight:
it should move to ``tests/oracles.py`` or go. This walks the syntax trees of
the package modules (without ``__init__.py``), ``demos/`` and ``perfbench/``
and collects every ``Name`` and ``Attribute`` they use; a definition or an
import alone does not count as a use.
"""

import ast
import inspect
from pathlib import Path

import erdos_trio

ROOT = Path(__file__).resolve().parents[1]


def _used_names() -> set[str]:
    files = [p for p in (ROOT / "src" / "erdos_trio").glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    used = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_public_name_has_a_caller():
    used = _used_names()
    public = [n for n in erdos_trio.__all__ if not inspect.ismodule(getattr(erdos_trio, n))]
    assert public
    unused = sorted(n for n in public if n not in used)
    assert unused == [], f"public names with no caller outside tests: {unused}"
