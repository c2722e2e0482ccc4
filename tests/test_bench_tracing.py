"""The traced benchmark run looks up every span target by name.

``bench/tracing.py`` wraps each ``(module, function)`` in ``TARGETS``
with ``getattr(chowfiber.<module>, function)``, so renaming or deleting
one of them would crash ``bench/run.py --trace 1``.  This test reads the
list (without writing bytecode next to it) and resolves every entry.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves(monkeypatch):
    targets = _load_tracing(monkeypatch).TARGETS
    assert targets
    for module_name, function_name in targets:
        module = importlib.import_module(f"chowfiber.{module_name}")
        assert callable(getattr(module, function_name, None)), (module_name, function_name)
