#!/usr/bin/env python3
"""Cyclic garbage, collector runs and peak memory of one benchmark pass.

    python3 scripts/cyclic_garbage.py [--seed 7] [--workload NAME] [--top 8]

Run from the root of a checkout.  For each workload of
`perfbench/workloads.py` (all four by default) this builds the
operations with the seed given, as the benchmark does, and makes three
passes over them, each after a full collection:

- with the collector off and `gc.DEBUG_SAVEALL` on, the objects that only
  the cyclic collector could free afterwards, per kind of operation and
  by type, the `top` commonest types;
- with the collector on as usual, the collections it ran, per generation,
  and the time they took;
- under `tracemalloc`, the peak of traced memory above its level at the
  start of the pass.

The set-up's own unreachable objects, those of building the operations
and describing their inputs, are counted the same way.  Results are not
checked here; `perfbench/run.py` checks them.
"""

import argparse
import gc
import json
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402


def saved_garbage(fn):
    """(fn(), Counter of the types of what only the cyclic collector frees
    after it): fn runs with the collector off, then one full collection
    keeps what it finds in `gc.garbage` to be counted and dropped."""
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        result = fn()
        gc.collect()
        found = Counter(type(x).__qualname__ for x in gc.garbage)
    finally:
        gc.garbage.clear()
        gc.set_debug(0)
        gc.enable()
    return result, found


def collector_runs(fn):
    """(collections per generation, seconds they took) while fn runs."""
    runs, spent, started = [0, 0, 0], [0.0], [0.0]

    def timing(phase, info):
        if phase == "start":
            started[0] = time.perf_counter()
        else:
            runs[info["generation"]] += 1
            spent[0] += time.perf_counter() - started[0]

    gc.callbacks.append(timing)
    try:
        fn()
    finally:
        gc.callbacks.remove(timing)
    return runs, spent[0]


def run_ops(ops):
    for op in ops:
        op.run()


def report(name, seed, top):
    api = workloads.Api()
    with open(ROOT / "perfbench" / "refs.json", encoding="utf-8") as fh:
        refs = json.load(fh)
    wl, setup = saved_garbage(lambda: workloads.build(name, api, refs, seed))
    print(f"== {name} (seed {seed}, {len(wl.ops)} operations)")
    print(f"set-up: {sum(setup.values())} unreachable objects")

    by_kind = defaultdict(list)
    for op in wl.ops:
        by_kind[op.kind].append(op)
    total = Counter()
    for kind, ops in by_kind.items():
        found = saved_garbage(lambda ops=ops: run_ops(ops))[1]
        total += found
        print(f"pass, {kind} ({len(ops)} ops): "
              f"{sum(found.values())} unreachable objects")
    print(f"pass: {sum(total.values())} unreachable objects")
    for kind, n in total.most_common(top):
        print(f"  {n:>8}  {kind}")

    gc.collect()
    runs, spent = collector_runs(lambda: run_ops(wl.ops))
    print("collector runs in a pass: "
          + ", ".join(f"gen{i} {n}" for i, n in enumerate(runs))
          + f"; {spent * 1e3:.1f} ms")

    gc.collect()
    tracemalloc.start()
    start = tracemalloc.get_traced_memory()[0]
    run_ops(wl.ops)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    print(f"tracemalloc peak of a pass: {(peak - start) / 1024:.0f} KB")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workload", choices=list(workloads.WHY))
    parser.add_argument("--top", type=int, default=8)
    args = parser.parse_args()
    for name in [args.workload] if args.workload else workloads.WHY:
        report(name, args.seed, args.top)


if __name__ == "__main__":
    main()
