"""``python3 -m bench`` — the one command of the performance ledger.

With ``--workload`` one workload is measured in this process and the
last line of stdout is the result object the benchmark contract
describes.  Without it every workload runs in turn, each in a fresh
child process, and a table is printed.  See ``bench/README.md``.
"""

from __future__ import annotations

from time import perf_counter

_PROCESS_START = perf_counter()  # set-up time runs from here, before any import of the program

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

from . import INFO_TAG, ROOT  # noqa: E402


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__)
    parser.add_argument("--workload", help="measure this one workload in-process")
    parser.add_argument("--seed", type=int, default=11, help="seeds every generated input")
    parser.add_argument("--seconds", type=float, default=10.0, help="measured time per run")
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: the traced pass (per-layer metrics); 0: end-to-end metrics",
    )
    parser.add_argument("--reps", type=int, default=3, help="minimum reps of the timed section")
    parser.add_argument("--tiny", action="store_true", help="seconds-long sizes (for the tests)")
    parser.add_argument("--selftest", action="store_true", help="prove every invariant can fail")
    parser.add_argument(
        "--repeat-check", action="store_true",
        help="run both passes twice; compare against the bounds",
    )
    parser.add_argument(
        "--record", action="store_true", help="run both passes and rewrite bench/LEDGER.json"
    )
    return parser


def _import_program() -> None:
    """Put ``src/`` on the path and import the program and its drivers."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401
        from . import workloads  # noqa: F401  (pulls in every layer the benchmark drives)
    except ImportError as error:
        print(f"bench: cannot import the program from {ROOT / 'src'}: {error}", file=sys.stderr)
        raise SystemExit(2) from error


def _run_one(args) -> int:
    _import_program()
    from . import layers, protocol, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.make(args.workload, tiny=args.tiny)
    # Interpreter start to first build: what a user waits before any set-up.
    import_s = perf_counter() - _PROCESS_START
    try:
        if args.trace:
            result = protocol.trace(
                workload, seed=args.seed, seconds=args.seconds, import_s=import_s
            )
        else:
            result = protocol.measure(
                workload, seed=args.seed, seconds=args.seconds,
                min_reps=args.reps, import_s=import_s,
            )
    finally:
        protocol.remove_scratch()
    correct, attempted, failed, values, info = result
    info.update(workload=args.workload, seed=args.seed, size=workload.size)
    print(INFO_TAG + json.dumps(info, default=repr))
    metrics = {
        name: {"value": float(value), "unit": layers.UNITS[name]} for name, value in values.items()
    }
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.workload:
        return _run_one(args)
    _import_program()
    from . import ledger, selftest

    if args.selftest:
        return selftest.main(args.seed)
    if args.repeat_check:
        return ledger.repeat_check(args)
    return ledger.run_all(args)


if __name__ == "__main__":
    raise SystemExit(main())
