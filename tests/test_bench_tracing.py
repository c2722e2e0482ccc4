"""The benchmark still runs against the library it measures.

``bench/tracing.py`` wraps each ``(module, function)`` in ``TARGETS``
with ``getattr(chowfiber.<module>, function)``, so renaming or deleting
one of them would crash ``bench/run.py --trace 1``.  ``bench/workloads.py``
builds its inputs with library calls and checks every op.  These tests
load both files (without writing bytecode next to them), resolve every
trace target, and run a slice of each gated workload and of
``wide-fiber``, whose geometric documents go through ``galois.orbits``.
"""

import importlib

from conftest import load_bench_module as _load


def test_every_trace_target_resolves(monkeypatch):
    targets = _load(monkeypatch, "tracing").TARGETS
    assert targets
    for module_name, function_name in targets:
        module = importlib.import_module(f"chowfiber.{module_name}")
        assert callable(getattr(module, function_name, None)), (module_name, function_name)


def test_workload_generators_run_and_their_checks_pass(monkeypatch, tmp_path):
    workloads = _load(monkeypatch, "workloads")
    for workload, count in (("report-scale", 10), ("wide-fiber", 24)):
        workdir = tmp_path / workload
        workdir.mkdir()
        cases = workloads.make_cases(workload, 7, workdir)[:count]
        assert len(cases) == count
        for case in cases:
            assert workloads.check_case(case, workloads.run_case(case)) is None, case.key
    workdir = tmp_path / "cli-fixtures"
    workdir.mkdir()
    commands = workloads.make_commands(7, workdir)
    assert len(commands) == 24
    for command in commands:
        outcome = workloads.run_command_in_process(command)
        assert workloads.check_command(command, outcome) is None, command.key


def test_tracer_records_the_proof_and_the_transform_sizes(monkeypatch, tmp_path):
    # bench/run.py --trace 1 wraps exact_linalg._verify_snf by name and,
    # after each op, reads dec.u and dec.v of every Smith decomposition
    # for their entry bits.
    tracing = _load(monkeypatch, "tracing")
    workloads = _load(monkeypatch, "workloads")
    cases = workloads.make_cases("report-scale", 7, tmp_path)[:3]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for op, case in enumerate(cases):
            tracer.begin_op(op)
            assert workloads.check_case(case, workloads.run_case(case)) is None, case.key
            tracer.end_op()
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert {"exact_linalg.snf", "exact_linalg._verify_snf"} <= names
    assert tracer.ops == 3
    # The entry bits of u and v on these three cases, pinned so that a
    # reader that returns the wrong block fails here.
    assert tracer.max_u_bits == 11
    assert tracer.max_v_bits == 8
