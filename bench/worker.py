"""One cold pass of one workload, in the fresh interpreter that runs this file.

Prints one JSON object: set-up seconds, the timed calls' wall time in
seconds and as wall_ref, peak memory, the checks attempted and failed, and
with --trace the per-layer metrics.  run.py starts one of these per
sample; run it directly to debug a workload:

    PYTHONPATH=src python3 bench/worker.py --workload series --seed 1
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import time
import traceback
from fractions import Fraction

from tracer import Tracer
from workloads import WORKLOADS, make_checks

PROBE_INTERVAL_S = 0.01


def reference_loop() -> Fraction:
    """A fixed slice of interpreter work of the program's kind: dict updates,
    int and Fraction arithmetic, about 0.3 ms."""
    counts: dict = {}
    total = Fraction(0)
    for i in range(60):
        k = i * 37 % 11
        counts[k] = counts.get(k, 0) + i * i
        total += Fraction(i, 7)
    return total


class SpeedProbe:
    """Times reference_loop from a wall-clock timer signal every PROBE_INTERVAL_S.

    A shared machine runs the same code up to twice as slow for seconds to
    minutes at a time.  The probes sample that speed all through the timed
    calls, so wall time divided by the mean probe time (wall_ref) does not
    move with it.  ``clock`` is perf_counter minus the time spent in probes,
    so neither the wall time nor any span includes them.
    """

    def __init__(self):
        self.times: list = []
        self.total = 0.0

    def clock(self) -> float:
        while True:  # retry if a probe fired between the two reads
            total = self.total
            now = time.perf_counter()
            if total == self.total:
                return now - total

    def _fire(self, signum, frame):
        t0 = time.perf_counter()
        reference_loop()
        dt = time.perf_counter() - t0
        self.times.append(dt)
        self.total += dt

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_checks(checks: list, trace: bool) -> dict:
    """Time all checks' program calls, then verify them untimed."""
    probe = SpeedProbe()
    tracer = Tracer(probe.clock) if trace else None
    outcomes = []
    with probe:
        t0, c0 = probe.clock(), time.process_time()
        if tracer is not None:
            tracer.active = True
        for check in checks:
            try:
                outcomes.append((check.compute(), None))
            except Exception:  # a failing call is a failed check, not a failed run
                outcomes.append((None, traceback.format_exc(limit=3)))
        if tracer is not None:
            tracer.active = False
        wall, cpu = probe.clock() - t0, time.process_time() - c0 - probe.total
    if not probe.times:
        raise RuntimeError("no speed probe fired during the timed calls")
    ref_loop_s = probe.total / len(probe.times)
    result = {
        "wall_s": wall,
        "wall_ref": wall / ref_loop_s,
        "ref_loop_s": ref_loop_s,
        "cpu_s": cpu,
        # ru_maxrss is in KiB on Linux; read it before verification allocates
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(checks),
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(wall)
        result["missing"] = tracer.missing
        result["tracer"] = tracer
    failures = []
    for check, (out, error) in zip(checks, outcomes):
        if error is None:
            try:
                error = check.verify(out)
            except Exception:
                error = traceback.format_exc(limit=3)
        if error is not None:
            failures.append(f"{check.label}: {error}")
    result["failures"] = failures
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", help="file to write the spans of a traced pass to")
    ap.add_argument("--run-id", default="0")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import torusloop as tl
    import torusloop.acceptance  # noqa: F401  (ORACLE_TOL)
    checks = make_checks(args.workload, tl, args.seed)
    setup_s = time.perf_counter() - t0

    result = run_checks(checks, args.trace)
    result["setup_s"] = setup_s
    tracer = result.pop("tracer", None)
    if tracer is not None and args.spans:
        tracer.dump(args.spans, args.run_id)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
