"""Checks of the benchmark itself; run from the checkout root:

    python3 bench/selftest.py [--seed N]

* BENCHMARK.json names exactly the workloads and metrics that run.py reports;
* self times come out right on a hand-made span tree;
* two traced passes of one seed give identical per-layer counts and no
  failed check, on every workload.

It takes about a minute, so it is not part of the test suite.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
from tracer import COUNTS, self_times
from workloads import WORKLOADS


def check_manifest():
    manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == run.PER_LAYER


def check_self_times():
    # a(0..10) calls b(1..4) and c(5..9); c calls b(6..7)
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 5.0, 9.0, 0],
             ["b", 6.0, 7.0, 2]]
    assert dict(self_times(spans)) == {"a": 3.0, "b": 4.0, "c": 3.0}


def check_counts_repeat(seed: int):
    for workload in WORKLOADS:
        passes = []
        for _ in range(2):
            out = run.run_child([sys.executable, str(run.BENCH / "worker.py"),
                                 "--workload", workload, "--seed", str(seed), "--trace"],
                                run.DEADLINE_S)
            passes.append(json.loads(out))
        for p in passes:
            assert not p["failures"], p["failures"]
            assert not p["missing"], p["missing"]
        first, second = ({name: p["layers"][name] for name in COUNTS} for p in passes)
        assert first == second, (workload, first, second)
        print(f"{workload}: counts repeat exactly: {first}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    check_manifest()
    check_self_times()
    check_counts_repeat(args.seed)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
