"""chowfiber benchmark: four seeded closed-loop workloads, one client each.

Usage, from the root of a checkout::

    python3 bench/run.py --workload report-scale --seed 1 --seconds 40 --trace 0

A CLI user or a library caller waits for each result before asking for
the next, so every workload is a closed loop with a single client.  An
op is one ``chowfiber`` process (``cli-fixtures``) or one
``parse_model`` + ``report`` call (the other workloads).  Why each
workload exists is in the docstring of its generator in ``workloads.py``.

``--trace 0`` measures the end-to-end metrics with no instrumentation.
Every time in it is taken at reference host speed (``pace.py``): short
chunks of a fixed reference task run between ops, and each time is
scaled by the reference task's nominal time over its measured time
around that instant, so a slow phase of a shared host does not read as
a slower program.  The raw times are printed too.

* ``setup_s``: generate the seeded inputs, write the documents and
  matrix files, warm the bytecode cache and imports, and run one warm-up
  op; done five times, the median is reported;
* ``op_p50_ms`` and ``op_p90_ms``: op latency;
* ``ops_per_s``: ops that succeeded per second the ops took;
* ``peak_rss_mb``: resident-memory high-water mark of the process that
  ran the ops (for ``cli-fixtures``, the largest child);
* ``error_rate`` (printed, and carried by ``failed``/``attempted``):
  failed ops over attempted ops.  Wrong outputs, unexpected exit codes,
  exceptions and ops over the per-op limit all fail;
* ``max_orbits`` (``report-scale`` only, printed): the largest orbit
  count whose seeded valid models report within a median of 1 s at
  reference speed.  It doubles n from 4 to a ceiling of 64 and bisects;
  each n runs in a child process with a per-model cap of 1 s scaled to
  the host's speed during the timed phase.  It runs while the outputs
  are checked.

``--trace 1`` runs the ops untraced for half the time, then the same ops
again with spans around every layer (see ``tracing.py``), and reports
the per-op layer metrics (raw times) and the traced-over-untraced ratio
of the ops' time at reference speed.

Outputs are checked after the timed phase.  The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Scratch files go under ``.bench_work/`` at the root of the
checkout; the span file of a traced run stays there.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

from pace import INTERPRETER_NOMINAL_S, Pace, interpreter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("cli-fixtures", "report-scale", "formal-cokernel", "wide-fiber")

#: An op slower than this fails.  In-process ops are cut by SIGALRM,
#: CLI children by a subprocess timeout.
OP_LIMIT_S = 10
SETUP_REPEATS = 5
#: Reference chunks before the first set-up and after each (``pace.py``).
SETUP_PACE_CHUNKS = 5
PROBE_CEILING = 64
PROBE_MODELS = 7
PROBE_CAP_S = 1.0


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout(f"op exceeded {OP_LIMIT_S} s")


def with_alarm(run_op):
    def run(item):
        signal.alarm(OP_LIMIT_S)
        try:
            return run_op(item)
        finally:
            signal.alarm(0)

    return run


# ----------------------------------------------------------------------
# set-up, timed loop, checks
# ----------------------------------------------------------------------


def run_python(args: list[str], env: dict[str, str]) -> None:
    """Run a child interpreter to its end; raise if it fails or overruns.

    Its stdout is a pipe so that the wait ends when the child exits: with
    a timeout and no pipe, subprocess polls for the exit in sleeps of up
    to 50 ms, which would round every time taken around it.
    """
    subprocess.run(
        [sys.executable, *args], env=env, stdout=subprocess.PIPE, check=True, timeout=OP_LIMIT_S
    )


def setup_once(wl, workload: str, seed: int, workdir: Path, in_process_cli: bool):
    """Inputs, the op function and its checker, ready and warmed up."""
    workdir.mkdir(parents=True)
    env = wl.child_env(SRC)
    if workload == "cli-fixtures":
        items = wl.make_commands(seed, workdir)
        if in_process_cli:
            run_op = with_alarm(wl.run_command_in_process)
        else:
            run_op = lambda c: wl.run_command_child(c, env, OP_LIMIT_S)  # noqa: E731
        check = wl.check_command
    else:
        items = wl.make_cases(workload, seed, workdir)
        run_op = with_alarm(wl.run_case)
        check = wl.check_case
    run_python(["-c", "import chowfiber.cli"], env)
    try:
        run_op(items[0])
    except Exception:  # the timed loop counts this input's failure
        pass
    return items, run_op, check


@dataclass
class Loop:
    """The ops of one closed loop: pool index, start and latency of each, and its failures.

    Outputs are compared with the first output of the same input as each
    op ends, so memory stays flat however many ops a run makes.
    """

    indices: array = field(default_factory=lambda: array("l"))
    starts: array = field(default_factory=lambda: array("d"))
    latencies_s: array = field(default_factory=lambda: array("d"))
    errors: dict[int, str] = field(default_factory=dict)
    wall_s: float = 0.0

    def __len__(self) -> int:
        return len(self.indices)

    def paced_latencies_s(self, pace) -> list[float]:
        """Each latency at reference speed (see ``pace.py``)."""
        return [lat * pace.scale_at(t) for t, lat in zip(self.starts, self.latencies_s)]


def timed_loop(items, run_op, first: dict, pace, *, seconds: float | None = None,
               count: int | None = None, tracer=None) -> Loop:
    """Closed loop over the pool until ``seconds`` pass or ``count`` ops ran.

    ``first`` maps a pool index to the first output seen for it, across
    every loop of the run.  A reference chunk of ``pace`` runs between
    ops every ``pace.every_s``, outside the ops' timings.
    """
    loop = Loop()
    start = time.perf_counter()
    i = 0
    while (count is None and time.perf_counter() - start < seconds) or (
        count is not None and i < count
    ):
        index = i % len(items)
        pace.tick()
        if tracer is not None:
            tracer.begin_op(i)
        t0 = time.perf_counter()
        try:
            outcome, error = run_op(items[index]), None
        except Exception as e:  # every failure of an op is counted, none ends the run
            outcome, error = None, f"{type(e).__name__}: {e}"
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.end_op()
        if error is None and first.setdefault(index, outcome) != outcome:
            error = "output differs from an earlier run of the same input"
        if error is not None:
            loop.errors[i] = error
        loop.indices.append(index)
        loop.starts.append(t0)
        loop.latencies_s.append(t1 - t0)
        i += 1
    loop.wall_s = time.perf_counter() - start
    pace.measure()
    return loop


def count_failures(items, loops, first: dict, check) -> tuple[int, list[str]]:
    """Failed ops: errors, differing repeats, and outputs the checker rejects."""
    verdict: dict[int, str | None] = {}
    for index, outcome in first.items():
        try:
            verdict[index] = check(items[index], outcome)
        except Exception as e:  # a checker crash is a wrong output
            verdict[index] = f"check raised {type(e).__name__}: {e}"
    failed, messages = 0, []
    for loop in loops:
        for op, index in enumerate(loop.indices):
            error = loop.errors.get(op) or verdict[index]
            if error is not None:
                failed += 1
                if len(messages) < 5:
                    messages.append(f"{items[index].key}: {error}")
    return failed, messages


# ----------------------------------------------------------------------
# probes in child processes
# ----------------------------------------------------------------------


def probe_within(n: int, seed: int, env: dict[str, str], cap_s: float) -> bool:
    """Whether the probe models with ``n`` orbits report within ``cap_s``, median-wise.

    A child that fails or overruns its timeout counts as not within.
    """
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "probe.py"), str(n), str(PROBE_MODELS), str(cap_s),
             str(seed)],
            env=env,
            stdout=subprocess.PIPE,
            timeout=PROBE_MODELS * cap_s + OP_LIMIT_S,
        )
    except subprocess.TimeoutExpired:
        return False
    return proc.returncode == 0 and json.loads(proc.stdout.decode().splitlines()[-1])["within"]


def probe_max_orbits(seed: int, env: dict[str, str], cap_s: float) -> int:
    """Double n from 4 to the ceiling until a probe fails, then bisect."""
    lo, hi, n = 0, None, 4
    while hi is None:
        if probe_within(n, seed, env, cap_s):
            lo = n
            if n == PROBE_CEILING:
                return n
            n = min(2 * n, PROBE_CEILING)
        else:
            hi = n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if probe_within(mid, seed, env, cap_s):
            lo = mid
        else:
            hi = mid
    return lo


def cli_import_ms(env: dict[str, str], pairs: int = 5) -> float:
    """Median fresh ``import chowfiber.cli`` process minus median bare interpreter."""
    bare, imported = [], []
    for _ in range(pairs):
        for code, times in (("pass", bare), ("import chowfiber.cli", imported)):
            t0 = time.perf_counter()
            run_python(["-c", code], env)
            times.append(time.perf_counter() - t0)
    return (statistics.median(imported) - statistics.median(bare)) * 1000


# ----------------------------------------------------------------------
# the two kinds of run
# ----------------------------------------------------------------------


def latency_metrics(loop: Loop, failed: int, pace) -> dict[str, tuple[float, str]]:
    """Latency quantiles and throughput at reference speed.

    Throughput is ops that succeeded per second the ops took, so the
    reference chunks between ops do not count against it.
    """
    latencies = loop.paced_latencies_s(pace)
    return {
        "op_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "op_p90_ms": (statistics.quantiles(latencies, n=10)[8] * 1000, "ms"),
        "ops_per_s": ((len(loop) - failed) / sum(latencies), "1/s"),
    }


def end_to_end_run(wl, pace, args, workdir: Path) -> tuple[dict, int, int, list[str]]:
    setup_times = []
    pace.measure(SETUP_PACE_CHUNKS)
    for k in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        items, run_op, check = setup_once(
            wl, args.workload, args.seed, workdir / f"setup{k}", in_process_cli=False
        )
        t1 = time.perf_counter()
        pace.measure(SETUP_PACE_CHUNKS)
        setup_times.append((t0, t1 - t0))
    paced_setup_s = [took * pace.scale_at(t0 + took / 2) for t0, took in setup_times]

    gc.collect()
    first: dict = {}
    loop = timed_loop(items, run_op, first, pace, seconds=args.seconds)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-fixtures" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024

    # The max_orbits probe runs in children; its thread only waits on
    # them, so the checks run meanwhile on the other core.
    probe: dict[str, int] = {}
    prober = None
    if args.workload == "report-scale":
        cap_s = PROBE_CAP_S / pace.scale()
        prober = threading.Thread(
            target=lambda: probe.update(n=probe_max_orbits(args.seed, wl.child_env(SRC), cap_s))
        )
        prober.start()
    t0 = time.perf_counter()
    failed, messages = count_failures(items, [loop], first, check)
    check_s = time.perf_counter() - t0
    if prober is not None:
        prober.join()
        probe_s = time.perf_counter() - t0
    metrics = {
        "setup_s": (statistics.median(paced_setup_s), "s"),
        **latency_metrics(loop, failed, pace),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    raw_ms = sorted(latency * 1000 for latency in loop.latencies_s)
    extra = {
        "error_rate": (failed / len(loop), "ratio"),
        "pace.scale": (pace.scale(), "ratio"),
        "raw.setup_s": (statistics.median(took for _t0, took in setup_times), "s"),
        "raw.op_p50_ms": (statistics.median(raw_ms), "ms"),
        "raw.op_p90_ms": (statistics.quantiles(raw_ms, n=10)[8], "ms"),
    }
    print(f"{args.workload}: {len(loop)} ops in {loop.wall_s:.2f} s, "
          f"{len(loop) - len(loop) * 9 // 10} samples at or beyond p90; "
          f"checks took {check_s:.1f} s")
    if prober is not None:
        extra["max_orbits"] = (probe.get("n"), "orbits")
        print(f"  the max_orbits probe ran alongside and ended after {probe_s:.1f} s")
    for name, (value, unit) in extra.items():
        print(f"  {name} = {value} {unit}")
    return metrics, len(loop), failed, messages


def traced_run(wl, pace, tracing, args, workdir: Path) -> tuple[dict, int, int, list[str]]:
    os.environ["CHOWFIBER_COLOR"] = "never"
    items, run_op, check = setup_once(
        wl, args.workload, args.seed, workdir / "setup", in_process_cli=True
    )

    gc.collect()
    first: dict = {}
    plain = timed_loop(items, run_op, first, pace, seconds=args.seconds / 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        gc.collect()
        traced = timed_loop(items, run_op, first, pace, count=len(plain), tracer=tracer)
    finally:
        tracer.uninstall()

    failed, messages = count_failures(items, [plain, traced], first, check)
    metrics = tracing.layer_metrics(tracer)
    metrics["cli.import_ms"] = (cli_import_ms(wl.child_env(SRC)), "ms")
    metrics["trace.overhead_ratio"] = (
        sum(traced.paced_latencies_s(pace)) / sum(plain.paced_latencies_s(pace)), "ratio"
    )

    spans_path = ROOT / ".bench_work" / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.write(spans_path)
    print(f"{args.workload}: {len(plain)} ops untraced in {plain.wall_s:.2f} s, "
          f"then traced in {traced.wall_s:.2f} s; spans in {spans_path.relative_to(ROOT)}")
    if args.workload == "report-scale":
        expected = statistics.mean(2 * len(items[index].weights) + 9 for index in traced.indices)
        print(f"  expected exact_linalg.snf.calls (mean of 2n+9) = {expected} count")
    return metrics, len(plain) + len(traced), failed, messages


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "chowfiber" / "__init__.py").is_file():
        print(f"error: no chowfiber sources at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as wl  # noqa: E402 -- needs the checkout's src on the path
    import tracing  # noqa: E402

    signal.signal(signal.SIGALRM, _alarm)
    if args.workload == "cli-fixtures" and not args.trace:
        pace = Pace(interpreter(wl.child_env(SRC)), INTERPRETER_NOMINAL_S, every_s=0)
    else:
        pace = Pace()
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            metrics, attempted, failed, messages = traced_run(wl, pace, tracing, args, workdir)
        else:
            metrics, attempted, failed, messages = end_to_end_run(wl, pace, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for message in messages:
        print(f"  FAILED {message}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
