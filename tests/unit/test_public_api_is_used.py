"""Every public definition in ``src/`` is called by a product run.

A product run is the package itself, a ``bench/`` workload, a
``benchmarks/`` writer or an example.  A public function, class, method
or property that only tests name is test support living in ``src/``:
it belongs in ``tests/``, or it goes.  The scan is by name, so it is
coarse (a common name such as ``run`` is always "used"), but it stops a
test-only accessor from coming back under a name of its own.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
PRODUCT_DIRS = ("bench", "benchmarks", "examples")
#: Holds the cells that sweep workers import by dotted path.
EXEMPT_FILES = {SRC / "runner" / "testing.py"}

#: Public names kept although no product run calls them.
ALLOWED = {
    "from_csv": "user API: load a measured bandwidth trace",
    "to_csv": "user API: save a bandwidth trace",
    "cache_age": "kept for scoring probe staleness against ground truth",
    "do_GET": "called by http.server, never by name",
    "log_message": "overrides http.server's request logging",
    "request_latency_s": "tests drive latency through it until a replacement driver exists",
    "set_demand_scale": "tests drive per-edge load through it until a replacement driver exists",
    # Named only by tests today; each is a candidate for the next batch
    # (ROADMAP, parked (v)) once its tests are rewritten or retired.
    "rate_at": "arrival-process rate at one instant; tests only",
    "leaves": "DAG sinks; tests only",
    "teardown": "user API: remove an application and free its resources",
    "to_spec": "user API: write a topology spec",
    "from_json": "user API: read a topology spec file / one trace line",
    "scaled": "user API: transform a measured trace",
    "clipped": "user API: transform a measured trace",
    "events_of_kind": "user API: the obs.slo doctest shows it",
    "max_min_certificate": "the invariant the max-min property tests check",
}

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _docstrings(tree):
    """The docstring nodes of a module and of every def and class."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                found.add(id(body[0].value))
    return found


def _mentions(tree):
    """(name, line) for every identifier the code names: variables,
    attributes, imports, keywords and words inside non-docstring
    string literals (dotted paths, registry keys)."""
    docstrings = _docstrings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            for part in node.name.split("."):
                yield part, node.lineno
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg, node.value.lineno
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
        ):
            for word in _IDENT.findall(node.value):
                yield word, node.lineno


def _definitions(tree):
    """(name, first line, last line) of every public def, class, method
    and property, at any depth of classes (not inside functions)."""

    def walk(body):
        for node in body:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                if not node.name.startswith("_"):
                    yield node.name, node.lineno, node.end_lineno
                if isinstance(node, ast.ClassDef):
                    yield from walk(node.body)

    yield from walk(tree.body)


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def unused_public_definitions():
    """``path:line: name`` for each public ``src/`` definition that
    nothing but its own body (and tests) names."""
    src_trees = {path: _parse(path) for path in sorted(SRC.rglob("*.py"))}
    named_by_product = set()
    for directory in PRODUCT_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            named_by_product.update(name for name, _ in _mentions(_parse(path)))
    mentions: dict[str, list] = {}
    for path, tree in src_trees.items():
        for name, line in _mentions(tree):
            mentions.setdefault(name, []).append((path, line))

    unused = []
    for path, tree in src_trees.items():
        if path in EXEMPT_FILES:
            continue
        for name, first, last in _definitions(tree):
            if name in ALLOWED or name in named_by_product:
                continue
            elsewhere = any(
                where != path or not first <= line <= last
                for where, line in mentions.get(name, ())
            )
            if not elsewhere:
                unused.append(f"{path.relative_to(ROOT)}:{first}: {name}")
    return unused


def test_every_public_definition_is_named_by_a_product_run():
    assert unused_public_definitions() == []


def test_every_allowed_name_is_still_defined():
    """An allowlist entry whose definition is gone is stale."""
    defined = {
        name
        for path in SRC.rglob("*.py")
        for name, _, _ in _definitions(_parse(path))
    }
    assert set(ALLOWED) <= defined
