"""Worker-side cell execution.

A sweep cell is addressed as ``"package.module:function"`` plus a
keyword-argument mapping, so it can be shipped to a worker process by
name and re-resolved there — no closures cross the process boundary,
which keeps cells runnable under both ``fork`` and ``spawn`` start
methods.

Workers never let a cell exception escape: :func:`execute_cell` catches
it and returns the formatted traceback as data, so one crashing cell
fails *that cell* without poisoning the worker the remaining cells
are riding on.
"""

from __future__ import annotations

import importlib
import sys
import time
import traceback
from typing import Any, Callable, Mapping, Sequence


def resolve_cell_function(path: str) -> Callable[..., Any]:
    """Import the callable addressed by ``"module:qualname"``.

    Raises:
        ValueError: for paths without a ``:`` separator.
        ModuleNotFoundError / AttributeError: for unresolvable targets.
    """
    module_name, sep, qualname = path.partition(":")
    if not sep or not module_name or not qualname:
        raise ValueError(
            f"cell function path {path!r} must look like 'pkg.module:func'"
        )
    target: Any = importlib.import_module(module_name)
    for part in qualname.split("."):
        target = getattr(target, part)
    if not callable(target):
        raise TypeError(f"cell target {path!r} is not callable")
    return target


def initialize_worker(sys_path: Sequence[str]) -> None:
    """Worker start-up: mirror the parent's ``sys.path`` in the worker.

    Under ``fork`` this is a no-op (the path is inherited); under
    ``spawn`` it is what makes ``repro`` and test helper modules
    importable when the parent runs from a source checkout.
    """
    for entry in reversed(list(sys_path)):
        if entry not in sys.path:
            sys.path.insert(0, entry)


def execute_cell(
    fn: str, kwargs: Mapping[str, Any]
) -> tuple[bool, Any, float]:
    """Run one cell; never raises for cell-level failures.

    Returns:
        ``(True, result, wall_seconds)`` on success, or
        ``(False, traceback_text, wall_seconds)`` when the cell (or its
        resolution) raised — the original traceback travels back to the
        parent as a string so it can be surfaced verbatim.
    """
    begin = time.perf_counter()
    try:
        result = resolve_cell_function(fn)(**dict(kwargs))
        return True, result, time.perf_counter() - begin
    except Exception:
        return False, traceback.format_exc(), time.perf_counter() - begin
