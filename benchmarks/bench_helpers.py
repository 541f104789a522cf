"""Importable helpers for the benchmark harness.

Bench modules import these with ``from bench_helpers import ...`` rather
than from ``conftest`` — the ``conftest`` module name is a rootdir-wide
singleton, so importing from it collides with ``tests/conftest.py`` when
both directories are collected in one pytest session.
"""

from __future__ import annotations

import sys
from pathlib import Path

# the "rule's own kernel" seam and the scalar complement DFS are shared
# with the parity suites in tests/
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from helpers import (  # noqa: E402,F401  (re-exported)
    reference_dynamo_complement,
    rule_kernel_only,
)


def once(benchmark, fn, *args, **kwargs):
    """Time a heavy computation exactly once (rounds=1, iterations=1)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
