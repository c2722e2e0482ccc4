"""Spans around the chowfiber layers, installed from outside the package.

The modules bind each other's functions with from-imports, so a wrapper
has to replace the function in every module namespace that holds it:
``chow``, ``galois``, ``fiber_model`` and ``cli`` pick up the wrapped
names, and ``exact_linalg``'s own globals route its internal ``snf``
calls (from ``cokernel``, ``integer_kernel`` and ``solve_in_lattice``)
through the wrapper too.

Spans are kept in memory as ``(name, start_ns, end_ns, parent, op)``
and written out once, when the run ends.  Calls are strictly nested on
one thread, so the part of a span its children cover is the sum of the
children's durations, and self time is the span minus that sum.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

#: (module, function) pairs that get a span; the span is named
#: ``<module>.<function>`` without the package prefix.
TARGETS = (
    ("cli", "main"),
    ("fiber_model", "parse_model"),
    ("fiber_model", "validate"),
    ("fiber_model", "build_specialization_matrix"),
    ("galois", "orbits"),
    ("galois", "hom_T_basis"),
    ("exact_linalg", "snf"),
    ("exact_linalg", "_verify_snf"),
    ("exact_linalg", "solve_in_lattice"),
    ("exact_linalg", "cokernel"),
    ("exact_linalg", "integer_kernel"),
    ("exact_linalg", "determinantal_divisors"),
    ("chow", "report"),
    ("chow", "compute_xi_bar"),
    ("chow", "compute_b0"),
)

SNF = "exact_linalg.snf"


def _max_bits(matrix) -> int:
    return max((abs(e).bit_length() for row in matrix.rows for e in row), default=0)


class Tracer:
    """Records spans while installed; per-op SNF fingerprints and transform sizes."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, int]] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.op = -1
        self.ops = 0
        self.snf_repeats = 0
        self._seen: set = set()
        self._decompositions: list = []
        self.max_u_bits = 0
        self.max_v_bits = 0

    # -- installation ------------------------------------------------

    def install(self) -> None:
        modules = [
            m for name, m in sys.modules.items()
            if name == "chowfiber" or name.startswith("chowfiber.")
        ]
        for module_name, func_name in TARGETS:
            original = getattr(sys.modules[f"chowfiber.{module_name}"], func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        is_snf = name == SNF

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_snf:
                key = args[0]
                if key in self._seen:
                    self.snf_repeats += 1
                else:
                    self._seen.add(key)
            index = len(spans)
            spans.append(None)  # placeholder keeps parents ahead of children
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if is_snf:
                self._decompositions.append(result)
            return result

        return wrapper

    # -- ops ---------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        self._seen.clear()
        self._stack.clear()

    def end_op(self) -> None:
        # Transform sizes are read after the op, so the bit counting
        # lands in no span.
        for dec in self._decompositions:
            self.max_u_bits = max(self.max_u_bits, _max_bits(dec.u))
            self.max_v_bits = max(self.max_v_bits, _max_bits(dec.v))
        self._decompositions.clear()
        self.ops += 1
        self.op = -1

    # -- results -----------------------------------------------------

    def totals(self) -> tuple[dict[str, int], dict[str, int], dict[str, int]]:
        """Per span name: call count, total ns, and self ns."""
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, int] = defaultdict(int)
        child: list[int] = [0] * len(self.spans)
        for span in self.spans:
            if span is None:  # an op timed out before the span opened
                continue
            name, start, end, parent, _op = span
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own: dict[str, int] = defaultdict(int)
        for span, covered in zip(self.spans, child):
            if span is not None:
                name, start, end, _parent, _op = span
                own[name] += end - start - covered
        return calls, total, own

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op"],
                       "spans": self.spans}, fh)


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-op layer metrics from the recorded spans, as ``name: (value, unit)``."""
    calls, total, own = tracer.totals()
    ops = max(tracer.ops, 1)

    def ms(name: str, table=total) -> float:
        return table.get(name, 0) / 1e6 / ops

    def per_op(name: str) -> float:
        return calls.get(name, 0) / ops

    snf_calls = calls.get(SNF, 0)
    return {
        "cli.main_ms": (ms("cli.main"), "ms"),
        "fiber_model.parse_model.ms": (ms("fiber_model.parse_model"), "ms"),
        "fiber_model.validate.ms": (ms("fiber_model.validate"), "ms"),
        "fiber_model.validate.calls": (per_op("fiber_model.validate"), "count"),
        "fiber_model.build_specialization_matrix.calls": (
            per_op("fiber_model.build_specialization_matrix"), "count"),
        "galois.orbits.ms": (ms("galois.orbits"), "ms"),
        "galois.hom_T_basis.ms": (ms("galois.hom_T_basis"), "ms"),
        "galois.hom_T_basis.calls": (per_op("galois.hom_T_basis"), "count"),
        "exact_linalg.snf.calls": (per_op(SNF), "count"),
        "exact_linalg.snf.self_ms": (ms(SNF, own), "ms"),
        "exact_linalg.snf.verify_ms": (ms("exact_linalg._verify_snf"), "ms"),
        "exact_linalg.snf.repeat_ratio": (
            tracer.snf_repeats / snf_calls if snf_calls else 0.0, "ratio"),
        "exact_linalg.snf.max_u_bits": (tracer.max_u_bits, "bits"),
        "exact_linalg.snf.max_v_bits": (tracer.max_v_bits, "bits"),
        "exact_linalg.solve_in_lattice.calls": (per_op("exact_linalg.solve_in_lattice"), "count"),
        "exact_linalg.solve_in_lattice.ms": (ms("exact_linalg.solve_in_lattice"), "ms"),
        "exact_linalg.cokernel.ms": (ms("exact_linalg.cokernel"), "ms"),
        "exact_linalg.integer_kernel.ms": (ms("exact_linalg.integer_kernel"), "ms"),
        "exact_linalg.determinantal_divisors.ms": (
            ms("exact_linalg.determinantal_divisors"), "ms"),
        "chow.report.self_ms": (ms("chow.report", own), "ms"),
        "chow.compute_xi_bar.ms": (ms("chow.compute_xi_bar"), "ms"),
        "chow.compute_b0.ms": (ms("chow.compute_b0"), "ms"),
    }
