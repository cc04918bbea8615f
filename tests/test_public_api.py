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
one refusal: only ``errors.reserve`` raises ``ResourceLimitError``. Every
``raise VerificationError`` is registered with a test that makes it fire,
and every ``reserve`` call with a test that checks its count. Every flag
of the command line parser is read by ``cli.py``, and only the rendering
gate of ``cli.py`` formats a row cell. The oracles in
``tests/oracles.py`` import nothing from the package.
"""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from collections import Counter, defaultdict
from pathlib import Path

import erdos_trio
from erdos_trio import cli

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


# ``--threads`` is accepted and changes nothing; acceptance criterion 11
# passes it.
UNREAD_FLAGS = {"threads"}


def test_every_cli_flag_is_read():
    """Each flag's dest in the command table of ``cli.py`` is read as
    ``args.<dest>`` somewhere in ``cli.py``: a flag that no handler reads is
    a second spelling or dead weight."""
    tree = ast.parse((ROOT / "src" / "erdos_trio" / "cli.py").read_text())
    tables = [cli._GLOBAL_FLAGS, *(flags for _, flags in cli._COMMANDS.values())]
    dests = {dest for flags in tables for dest, _, _ in flags.values()}
    read = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "args"
    }
    assert dests
    assert sorted(dests - read - UNREAD_FLAGS) == [], f"flags never read as args.<dest>: {sorted(dests - read)}"
    assert UNREAD_FLAGS <= dests


# The one gate where row values become text: the renderer, the JSON hook
# it hands Fractions to, and the cold path that names an unprintable cell.
FORMATTERS = {"cli._render", "cli._json_default", "cli._refuse_unprintable_cell"}


def test_row_values_become_text_in_one_gate():
    """``cli._fmt`` is read only by the functions of FORMATTERS, so no
    command handler formats a cell itself, past the gate that refuses a
    cell too long to print."""
    readers = set(_sites(lambda node: isinstance(node, ast.Name) and node.id == "_fmt"))
    assert "cli._render" in readers
    assert readers <= FORMATTERS, f"_fmt read outside the gate: {sorted(readers - FORMATTERS)}"


def test_oracles_import_nothing_from_the_package():
    """``tests/oracles.py`` imports no module of ``erdos_trio``, at any depth."""
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    imported += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module]
    assert [m for m in imported if m.split(".")[0] == "erdos_trio"] == [], imported


def _sites(is_site) -> list[str]:
    """``module.function`` of each node of the package's syntax trees for
    which ``is_site`` holds, one entry per node; a method is named
    ``module.Class.method``."""
    sites = []
    for path in sorted((ROOT / "src" / "erdos_trio").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if is_site(node):
                scope = node
                while scope in parents and not isinstance(scope, ast.FunctionDef):
                    scope = parents[scope]
                name = getattr(scope, "name", "<module>")
                if isinstance(parents.get(scope), ast.ClassDef):
                    name = f"{parents[scope].name}.{name}"
                sites.append(f"{path.stem}.{name}")
    return sites


# How the primes are cut into spans and segments, and how far the cache
# reaches: ``primes`` alone reads these, so a change of the sieve's layout
# is a change to ``primes`` alone.
PRIME_LAYOUT = {"_segments", "_spans", "SEGMENT_SPAN", "_FIRST_SPAN", "_CACHE_BITS"}


def test_prime_layout_is_read_in_primes_alone():
    """No site outside ``primes`` names a name of PRIME_LAYOUT, as a name,
    an attribute or an import: every other reader takes the primes from
    ``primes._stream`` or ``primes._prime_list``, and counts a span through
    ``primes._stream_bytes``."""

    def names_layout(node) -> bool:
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        if isinstance(node, ast.alias):
            name = node.name
        return isinstance(node, (ast.Name, ast.Attribute, ast.alias)) and name in PRIME_LAYOUT

    sites = _sites(names_layout)
    assert any(site.startswith("primes.") for site in sites)
    outside = sorted({site for site in sites if not site.startswith("primes.")})
    assert outside == [], f"the sieve's layout read outside primes: {outside}"


def _raise_sites(exception: str) -> list[str]:
    """The sites of each ``raise <exception>`` in the package."""

    def raises(node) -> bool:
        if not isinstance(node, ast.Raise) or node.exc is None:
            return False
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return getattr(exc, "id", getattr(exc, "attr", None)) == exception

    return _sites(raises)


def _test_function(test: str) -> ast.FunctionDef | None:
    """The top-level function ``module::name`` of ``tests/``, or None."""
    module, name = test.split("::")
    tree = ast.parse((ROOT / "tests" / f"{module}.py").read_text())
    return next((n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name), None)


def test_one_memory_budget_and_one_refusal():
    """The memory budget has one binding and one refusal: ``errors`` assigns
    ``DEFAULT_MEMORY_BUDGET``, no other package module imports it, and
    ``raise ResourceLimitError`` appears only in ``errors.reserve``."""
    raises, assigned, imported = _raise_sites("ResourceLimitError"), [], []
    for path in sorted((ROOT / "src" / "erdos_trio").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
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


# Every ``raise VerificationError`` site in the package, by module.function,
# with the test that makes it fire: one test per site, in source order.
FIRING_TESTS = {
    "basis_splits.sumset_cover_check": ["test_basis_splits::test_cover_detects_gaps_on_broken_set"],
    "basis_splits.rigidity_check": [
        "test_basis_splits::test_rigidity_detects_extra_summand",
        "test_basis_splits::test_rigidity_identity_check_fires",
    ],
    "binomial_thresholds.lower_bound_witness": ["test_binomial_thresholds::test_witness_check_fires"],
    "cli._cmd_binomial_certificate": ["test_cli::test_certificate_confirmation_failure_exits_2"],
    "equidistribution._checked": ["test_equidistribution::test_scan_recheck_catches_a_wrong_window"],
    "equidistribution.dirichlet_approx": ["test_equidistribution::test_dirichlet_bound_check_fires"],
    "equidistribution.cluster_verify": [
        "test_equidistribution::test_cluster_arc_check_fires",
        "test_equidistribution::test_cluster_window_check_fires",
    ],
}


def test_every_verification_check_has_a_firing_test():
    """Each ``raise VerificationError`` site is named in FIRING_TESTS, as
    often per function as it occurs there, with a test that exists."""
    sites = Counter(_raise_sites("VerificationError"))
    registered = Counter({site: len(tests) for site, tests in FIRING_TESTS.items()})
    assert sites == registered, (
        f"raise sites with no registered firing test: {dict(sites - registered)}; "
        f"registered tests with no raise site: {dict(registered - sites)}"
    )
    missing = [test for tests in FIRING_TESTS.values() for test in tests if _test_function(test) is None]
    assert missing == [], f"firing tests that do not exist: {missing}"


# Every function of the package that counts a structure through
# ``reserve(...)``, with the test that checks its count with
# ``budget.assert_counted``: the peak is within the count, the exact count
# fits and one byte less refuses.
BUDGET_TESTS = {
    "primes.sieve_primes": "test_primes::test_sieve_counted_before_it_runs",
    "primes._prime_ints": "test_primes::test_prime_ints_counted_before_they_are_read",
    "primes._prime_list": "test_primes::test_prime_list_counted_on_a_cache_miss",
    "binomial_thresholds._residue_table": "test_binomial_thresholds::test_valuation_row_memory_budget",
    "binomial_thresholds._factorial_table": "test_binomial_thresholds::test_valuation_row_memory_budget",
    "binomial_thresholds.valuation_row": "test_binomial_thresholds::test_valuation_row_memory_budget",
    "binomial_thresholds.u_profile": "test_binomial_thresholds::test_u_profile_memory_budget",
    "binomial_thresholds._u_series": "test_binomial_thresholds::test_u_series_memory_budget",
    "binomial_thresholds.certificate_average": "test_binomial_thresholds::test_certificate_memory_budget",
    "binomial_thresholds.lower_bound_witness": "test_binomial_thresholds::test_witness_memory_budget",
    "basis_splits._count_intervals": "test_basis_splits::test_stage_intervals_and_elements_memory_budget",
    "basis_splits.enumerate_A": "test_basis_splits::test_stage_intervals_and_elements_memory_budget",
    "basis_splits._pair_sums": "test_basis_splits::test_sumset_memory_budget",
    "equidistribution.well_distribution_statistic": "test_equidistribution::test_scan_memory_budget",
    "equidistribution.find_prime_string": "test_equidistribution::test_prime_string_memory_budget",
    "equidistribution.window_sample": "test_equidistribution::test_window_sample_memory_budget",
    "equidistribution.interval_discrepancy": "test_equidistribution::test_interval_discrepancy_memory_budget",
    "equidistribution.cluster_verify": "test_equidistribution::test_cluster_memory_budget",
    "cli._cmd_binomial_f_scan": "test_cli::test_f_scan_counts_its_rows",
    "cli._cmd_basis_reps": "test_cli::test_basis_reps_counts_rendered_rows",
}


def test_every_reserve_site_has_a_budget_test():
    """Each function that calls ``reserve`` is named in BUDGET_TESTS, with a
    test that exists and calls ``assert_counted``."""
    sites = set(
        _sites(
            lambda node: isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "reserve"
        )
    )
    assert sites == set(BUDGET_TESTS), (
        f"reserve sites with no registered budget test: {sorted(sites - set(BUDGET_TESTS))}; "
        f"registered sites with no reserve call: {sorted(set(BUDGET_TESTS) - sites)}"
    )

    def checks_counts(test: str) -> bool:
        function = _test_function(test)
        return function is not None and any(
            isinstance(node, ast.Call) and getattr(node.func, "id", None) == "assert_counted"
            for node in ast.walk(function)
        )

    unchecked = sorted(f"{site}: {test}" for site, test in BUDGET_TESTS.items() if not checks_counts(test))
    assert unchecked == [], f"budget tests that do not exist or do not call assert_counted: {unchecked}"
