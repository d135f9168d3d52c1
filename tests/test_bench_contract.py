"""The names the benchmark under bench/ looks up in the library.

bench/workloads.py resets the library's caches by name, and bench/tracing.py
wraps library functions by module attribute; a renamed function or cache
crashes bench/run.py.  This test imports both modules as bench/run.py does
and runs the reset and one install/restore cycle of the tracer, writing
nothing under bench/.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_bench_finds_every_library_name(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    for name in ("workloads", "tracing"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    workloads = importlib.import_module("workloads")
    tracing = importlib.import_module("tracing")
    try:
        workloads.reset_module_caches()
        from mdslab import search
        evaluate_config = search.evaluate_config
        with tracing.instrumented(tracing.Tracer(), workloads):
            assert search.evaluate_config is not evaluate_config
        assert search.evaluate_config is evaluate_config
    finally:
        sys.modules.pop("workloads", None)
        sys.modules.pop("tracing", None)
