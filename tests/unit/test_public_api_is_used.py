"""Every public definition in ``src/`` is called by a product run, and
every experiment option is set by one.

A product run is the package itself, a ``bench/`` workload, a
``benchmarks/`` writer or an example.  A public function, class, method
or property that only tests name is test support living in ``src/``:
it belongs in ``tests/``, or it goes.  A package ``__init__`` that
re-exports a name (an import alias or an ``__all__`` entry) does not
use it.  The scan is by name, so it is coarse (a common name such as
``run`` is always "used"), but it stops a test-only accessor from
coming back under a name of its own.

An experiment function's defaulted parameter that no product call sets
is a configuration only its default reaches: a paper setting, which
belongs in a module constant next to the cell that reads it.
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
    "teardown": "user API: remove an application and free its resources",
    "to_spec": "user API: write a topology spec",
    "from_json": "user API: read a topology spec file / one trace line",
    "scaled": "user API: transform a measured trace",
    "clipped": "user API: transform a measured trace",
    "events_of_kind": "user API: the obs.slo doctest shows it",
    "max_min_certificate": "the invariant the max-min property tests check",
    "unregister_scheduler": "user API: plug-in teardown, the inverse of register_scheduler",
    "line_topology": "user API: the small LAN the netem and FaultPlan doctests build",
    "probing_overhead": "EXPERIMENTS.md's §6.3.4 row; its integration test runs it",
}

#: Defaulted experiment parameters that no product run sets, kept on
#: purpose: object-valued hooks, which a row's knock-outs (ROADMAP item
#: 20) are to apply as overrides.
UNSET_HOOKS = {
    "churn_recovery.config": "object hook: the tenants' BassConfig",
    "churn_recovery.heartbeat": "object hook: the detector's HeartbeatConfig",
    "churn_recovery.env": "object hook: a pre-built substrate",
    "fleet_mesh.env": "object hook: a pre-built substrate",
    "multi_tenant_mesh.env": "object hook: a pre-built substrate",
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


def _reexports(tree):
    """The string nodes of a module's ``__all__``."""
    return {
        id(node)
        for statement in tree.body
        if isinstance(statement, ast.Assign)
        and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in statement.targets
        )
        for node in ast.walk(statement.value)
    }


def _mentions(tree, *, reexports=True):
    """(name, line) for every identifier the code names: variables,
    attributes, imports, keywords and words inside non-docstring
    string literals (dotted paths, registry keys).  ``reexports=False``
    skips import aliases and ``__all__`` entries (a package
    ``__init__``'s re-exports)."""
    docstrings = _docstrings(tree)
    if not reexports:
        docstrings |= _reexports(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            if not reexports:
                continue
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
        reexports = path.name != "__init__.py"
        for name, line in _mentions(tree, reexports=reexports):
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


# -- experiment options that only their default reaches ------------------------


def _defaulted(fn):
    """The names of a def's parameters that carry a default."""
    args = fn.args
    positional = args.posonlyargs + args.args
    names = [a.arg for a in positional[len(positional) - len(args.defaults):]]
    names += [
        a.arg for a, default in zip(args.kwonlyargs, args.kw_defaults) if default
    ]
    return names


def _callee(node):
    """The function a call or a function argument names: ``f``,
    ``module.f``, ``f.spec`` / ``f.capsule``, or a dotted-path string
    ``"package.module:f"`` (its last identifier)."""
    if node is None or isinstance(node, ast.Name):
        return node and node.id
    if isinstance(node, ast.Attribute):
        if node.attr in ("spec", "capsule"):
            return _callee(node.value)
        return node.attr
    words = [
        word
        for sub in ast.walk(node)
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
        for word in _IDENT.findall(sub.value)
    ]
    return words[-1] if words else None


def _keyword_items(node, bindings):
    """``(keyword, value)`` for every key a dict-valued expression can
    carry: dict displays, ``dict(k=...)`` calls, and names bound to
    either (in the enclosing function or at module level)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Dict):
            for key, value in zip(sub.keys, sub.values):
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    yield key.value, value
        elif isinstance(sub, ast.Call) and _callee(sub.func) == "dict":
            yield from ((kw.arg, kw.value) for kw in sub.keywords if kw.arg)
        elif isinstance(sub, ast.Name):
            for bound in bindings.get(sub.id, ()):
                yield from _keyword_items(bound, {})


def _settings(call, functions, bindings):
    """``(function, parameter, value)`` for what one call sets: directly
    (positionally, by keyword or through ``**dict``), through ``.spec`` /
    ``.capsule``, or relayed as a cell's kwargs by ``SweepSpec.grid``,
    the catalogue's ``_one_cell`` or ``CellSpec``."""
    name = _callee(call.func)
    keywords = [(kw.arg, kw.value) for kw in call.keywords if kw.arg]
    for kw in call.keywords:
        if kw.arg is None:
            keywords += _keyword_items(kw.value, bindings)
    args = dict(keywords)
    second = call.args[1] if len(call.args) > 1 else None
    if name == "grid" and isinstance(call.func, ast.Attribute):
        target = _callee(args.get("fn", second))
        sources = call.args[2:3] + [args.get("axes"), args.get("fixed")]
        keywords = [("seed", args["seed"])] if "seed" in args else []
        for source in filter(None, sources):
            keywords += _keyword_items(source, bindings)
    elif name == "_one_cell":
        target = _callee(second)
    elif name == "CellSpec":
        target = _callee(args.get("fn", call.args[0] if call.args else None))
        keywords = [("seed", args["seed"])] if "seed" in args else []
        keywords += _keyword_items(args.get("kwargs", ast.Dict([], [])), bindings)
    elif name in functions:
        target = name
        params = functions[name].args.posonlyargs + functions[name].args.args
        keywords += [
            (param.arg, value)
            for param, value in zip(params, call.args)
            if not isinstance(value, ast.Starred)
        ]
    else:
        return
    for keyword, value in keywords:
        yield target, keyword, value


def _experiment_functions():
    """``{name: def}`` of every module-level experiment function."""
    return {
        node.name: node
        for path in sorted((SRC / "experiments").glob("*.py"))
        for node in _parse(path).body
        if isinstance(node, ast.FunctionDef)
    }


def _assigned(body):
    bindings: dict[str, list] = {}
    for node in body:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Assign):
                for target in sub.targets:
                    if isinstance(target, ast.Name):
                        bindings.setdefault(target.id, []).append(sub.value)
    return bindings


def unset_experiment_options():
    """``function.parameter`` for each defaulted parameter of a public
    ``src/repro/experiments/`` function that no product call sets.  A
    call that passes a parameter of its own, still at its default,
    sets nothing until that parameter is set."""
    functions = _experiment_functions()
    found = []  # (function, parameter, enclosing function or None, value)
    product_files = sorted(SRC.rglob("*.py")) + [
        path for d in PRODUCT_DIRS for path in sorted((ROOT / d).rglob("*.py"))
    ]
    for path in product_files:
        tree = _parse(path)
        module_bindings = _assigned(
            n for n in tree.body if not isinstance(n, (ast.FunctionDef, ast.ClassDef))
        )
        # Each call once, under the top-level statement holding it: a
        # call inside an experiment function (or a closure of one) can
        # relay that function's parameters.
        for statement in tree.body:
            enclosing = getattr(statement, "name", None)
            if enclosing not in functions or path.parent != SRC / "experiments":
                enclosing = None
            bindings = {**module_bindings, **_assigned(getattr(statement, "body", []))}
            for call in ast.walk(statement):
                if isinstance(call, ast.Call):
                    found += [
                        (target, keyword, enclosing, value)
                        for target, keyword, value in _settings(call, functions, bindings)
                    ]
    defaulted = {(name, p) for name, fn in functions.items() for p in _defaulted(fn)}
    settled = set()
    while True:
        before = len(settled)
        for target, keyword, enclosing, value in found:
            relayed = (
                isinstance(value, ast.Name) and (enclosing, value.id) in defaulted
            )
            if not relayed or (enclosing, value.id) in settled:
                settled.add((target, keyword))
        if len(settled) == before:
            break
    return [
        f"{name}.{param}"
        for name, param in sorted(defaulted - settled)
        if not name.startswith("_") and f"{name}.{param}" not in UNSET_HOOKS
    ]


def test_every_experiment_option_is_set_by_a_product_run():
    """A paper setting only its default reaches is a module constant."""
    assert unset_experiment_options() == []


def test_every_unset_hook_is_still_a_parameter():
    """A hook entry whose parameter is gone is stale."""
    functions = _experiment_functions()
    for entry in UNSET_HOOKS:
        name, param = entry.split(".")
        assert param in _defaulted(functions[name]), entry
