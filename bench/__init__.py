"""The repo's performance ledger: six workloads, named metrics, traced split.

Run from the repository root with ``python3 -m bench`` (the package puts
``src/`` on ``sys.path`` itself).  See ``bench/README.md`` for the
metric and workload glossary and ``BENCHMARK.json`` for the contract.
"""

from pathlib import Path

#: The checkout the benchmark runs in (``src/`` and scratch space live here).
ROOT = Path(__file__).resolve().parent.parent
#: Prefix of the line of run details printed before the result object.
INFO_TAG = "BENCH_INFO "
