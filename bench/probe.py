"""Child process of the max_orbits probe: time fixed valid models at one n.

Usage: python bench/probe.py <n> <models> <cap_s> <seed>

Runs up to ``models`` seeded valid models with ``n`` orbits and ``n + 2``
generators, one ``parse_model`` + ``report`` each, under a per-model
timer of ``cap_s`` seconds.  It stops as soon as the median is decided
and prints one JSON object: the times (null for a model over the cap)
and whether the median is within the cap.
"""

from __future__ import annotations

import json
import random
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from chowfiber import chow, fiber_model  # noqa: E402
from workloads import random_valid_model  # noqa: E402


class OverCap(Exception):
    pass


def _over_cap(signum, frame):
    raise OverCap


def main() -> int:
    n, models, cap_s, seed = int(sys.argv[1]), int(sys.argv[2]), float(sys.argv[3]), sys.argv[4]
    need = models // 2 + 1
    signal.signal(signal.SIGALRM, _over_cap)
    times: list[float | None] = []
    within = over = 0
    for j in range(models):
        doc, _weights, _columns = random_valid_model(random.Random(f"probe:{seed}:{n}:{j}"), n)
        text = json.dumps(doc)
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, cap_s)
        try:
            chow.report(fiber_model.parse_model(text))
            elapsed: float | None = time.perf_counter() - start
        except OverCap:
            elapsed = None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        times.append(elapsed)
        if elapsed is None:
            over += 1
        else:
            within += 1
        if within >= need or over >= need:
            break
    print(json.dumps({"n": n, "times": times, "within": within >= need}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
