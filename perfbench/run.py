"""regcover benchmark: one closed-loop client, one process, one thread.

    python3 perfbench/run.py --workload corpus-quotients --seed 1 \\
        --seconds 20 --trace 0

``--workload all`` runs every workload in turn, each in its own process.

Run from the root of a checkout; the program is imported from ``src/``.
Each operation starts only when the previous one has returned.  Passes
over the workload's inputs repeat until ``--seconds`` is used up; every
output is checked against ``refs.json`` outside the timed region.

Times are scaled to a reference host speed.  On a shared two-core host the
interpreter's speed swings by 20-30 % for seconds to minutes at a time, so
whole runs came out that much slower than others.  A fixed pure-Python
kernel, which runs no program code, is timed right before and after every
operation and set-up, and every ``SAMPLE_S`` seconds during a long one
(from a timer signal, its own time taken out of the operation's).  The
measured time is multiplied by ``REF_KERNEL_S`` times the mean of the
kernel's speeds (1 / its time).  On a quiet host the factor is close to 1.
Unscaled wall times are printed beside the metrics.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of ``tracer.py``,
taken from traced passes that follow untraced ones, and the spans are
written to ``.bench_trace/``.  Lines before it list the inputs and every
metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Set-up is repeated and its median reported, so one slow import does not
# decide the figure.
SETUP_REPEATS = 7
# Untraced runs make at least this many passes, so pass_s is a median of
# three even on the slowest workload.
MIN_PASSES = 3
# Time of one calibration kernel at the reference speed (a quiet 2-core
# x86-64 host running CPython 3.11 takes 1.0-1.1 ms).
REF_KERNEL_S = 0.001
# Kernel sampling interval during an operation.
SAMPLE_S = 0.2

# Per-layer metrics, <module>.<function>.<what>: a self time per traced
# pass for each span name, and the counts of the first traced pass.
SELF_TIMES = [
    "iso.canonical_form", "iso.automorphisms_iter", "iso.are_isomorphic",
    "groups.automorphism_group", "groups.semiregular_subgroups",
    "groups.all_subgroups", "groups.conjugacy_classes_of_subgroups",
    "groups.Group.table", "blocks.block_tree", "atoms.find_atoms",
    "atoms.classify_primitive", "reduction.reduction_series",
    "reduction.reduce_step", "quotient.expand_step", "quotient.all_quotients",
    "quotient.atom_quotients", "quotient.quotient",
    "quotient.regular_cover_test", "quotient._dedup_sorted", "textfmt.parse",
    "textfmt.serialize", "graph.normalize",
]
COUNTS = [
    "iso.canonical_form.calls", "iso.automorphisms_iter.yielded",
    "iso.are_isomorphic.calls", "groups.automorphism_group.elements",
    "groups.semiregular_subgroups.subgroups", "groups.all_subgroups.subgroups",
    "groups.conjugacy_classes_of_subgroups.classes",
    "groups.Group.table.calls", "blocks.block_tree.calls",
    "atoms.find_atoms.atoms", "atoms.classify_primitive.calls",
    "reduction.reduction_series.depth", "reduction.reduce_step.calls",
    "quotient.expand_step.made", "quotient.expand_step.kept",
    "quotient.all_quotients.kept", "quotient.atom_quotients.calls",
    "quotient.quotient.calls", "quotient.regular_cover_test.calls",
    "quotient.regular_cover_test.tries",
]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _kernel():
    d = {}
    for i in range(2000):
        d[(i * 7919) % 10007] = (i, str(i))
    s = set()
    for _, v in sorted(d.items()):
        s.add(v[1][-2:])
    return len(s)


def kernel_time():
    """Seconds the calibration kernel takes now, the mean of two runs.

    The collector is off meanwhile, so the program's live objects do not
    change the figure."""
    gc.disable()
    t0 = time.perf_counter()
    _kernel()
    _kernel()
    t1 = time.perf_counter()
    gc.enable()
    return (t1 - t0) / 2


class ScaledClock:
    """Times calls in seconds at the reference host speed."""

    def __init__(self):
        self._kernels = []
        self._handler_s = 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        self._kernels.append(kernel_time())
        self._handler_s += time.perf_counter() - t0

    def timed(self, fn, sample=True):
        """(result, error, wall seconds, scaled seconds) of calling fn.

        Without sample, the kernel runs only before and after fn."""
        self._kernels = [kernel_time()]
        self._handler_s = 0.0
        if sample:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        t0 = time.perf_counter()
        try:
            result, error = fn(), None
        except Exception as exc:   # a crash counts as a failed operation
            result, error = None, f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - t0 - self._handler_s
        self._kernels.append(kernel_time())
        speed = statistics.fmean(1 / k for k in self._kernels)
        return result, error, wall, wall * REF_KERNEL_S * speed


def setup_once(workload, seed):
    """Import the program, load the references and build the inputs."""
    for key in [k for k in sys.modules
                if k == "regcover" or k.startswith("regcover.")]:
        del sys.modules[key]
    import workloads
    api = workloads.Api()
    with open(HERE / "refs.json", encoding="utf-8") as fh:
        refs = json.load(fh)
    return api, workloads.build(workload, api, refs, seed)


class Samples:
    """Scaled operation latencies and per-pass times of a run."""

    def __init__(self):
        self.ops = []                       # seconds per operation
        self.by_kind = defaultdict(list)    # kind -> seconds per operation
        self.passes = []                    # seconds per pass
        self.wall_passes = []               # unscaled seconds per pass
        self.kind_passes = defaultdict(list)
        self.layers = []                    # (self times, counts) per pass
        self.attempted = 0
        self.failures = []


def checked(op, result):
    """The reason op's result is wrong, or None."""
    try:
        return op.check(result)
    except Exception as exc:
        return f"check raised {type(exc).__name__}: {exc}"


def run_pass(wl, samples, clock, tracer=None, sample=True):
    """One pass over the operations; checks run untimed and untraced."""
    paused = tracer.paused if tracer else nullcontext
    gc.collect()
    total = wall = 0.0
    per_kind = defaultdict(float)
    for i, op in enumerate(wl.ops):
        if tracer:
            tracer.op = i
        result, error, op_wall, dt = clock.timed(op.run, sample)
        wall += op_wall
        if error is None:
            with paused():
                error = checked(op, result)
        del result
        samples.attempted += 1
        if error is not None:
            samples.failures.append(f"{op.kind} {op.name}: {error}")
        samples.ops.append(dt)
        samples.by_kind[op.kind].append(dt)
        total += dt
        per_kind[op.kind] += dt
    samples.passes.append(total)
    samples.wall_passes.append(wall)
    if tracer:
        samples.layers.append(tracer.take())
    for kind, t in per_kind.items():
        samples.kind_passes[kind].append(t)
    return total


def run_passes(wl, samples, clock, budget, min_passes, tracer=None,
               sample=True):
    """Passes until the next one would end past the budget of wall seconds;
    returns their scaled times."""
    start = time.perf_counter()
    scaled, walls = [], []
    while (len(scaled) < min_passes or time.perf_counter() - start
           + statistics.median(walls) <= budget):
        t0 = time.perf_counter()
        scaled.append(run_pass(wl, samples, clock, tracer, sample))
        walls.append(time.perf_counter() - t0)
    return scaled


def run_probes(api, wl, samples):
    """Cover decisions on graphs beyond the group-order cap, untimed.  A
    size-limit refusal is neither a failure nor a solve."""
    solved = 0
    for op in wl.probes:
        samples.attempted += 1
        try:
            error = checked(op, op.run())
        except api.errors.SizeLimitError:
            continue
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        if error is None:
            solved += 1
        else:
            samples.failures.append(f"probe {op.name}: {error}")
    return solved


def emit(lines, name, value, unit, n, what):
    lines.append(f"metric {name} = {value:.6g} {unit}  (n={n} {what})")
    return {"value": value, "unit": unit}


def end_to_end_metrics(wl, samples, clock, args, setups, lines):
    run_passes(wl, samples, clock, args.seconds, MIN_PASSES)
    n_pass, n_ops = len(samples.passes), len(samples.ops)
    metrics = {
        "setup_s": emit(lines, "setup_s", statistics.median(setups), "s",
                        SETUP_REPEATS, "set-ups"),
        "pass_s": emit(lines, "pass_s", statistics.median(samples.passes),
                       "s", n_pass, "passes"),
        "op_ms_p50": emit(lines, "op_ms_p50",
                          1000 * statistics.median(samples.ops), "ms", n_ops,
                          "operations"),
        "op_ms_p90": emit(lines, "op_ms_p90", 1000 * statistics.quantiles(
                          samples.ops, n=10, method="inclusive")[8], "ms",
                          n_ops, "operations"),
        "peak_rss_mb": emit(
            lines, "peak_rss_mb",
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB",
            1, "process"),
    }
    emit(lines, "pass_wall_s", statistics.median(samples.wall_passes), "s",
         n_pass, "passes, unscaled")
    # Splits that exist on one workload only: printed, not gated, since
    # BENCHMARK.json lists metrics that every workload reports.
    if wl.name == "corpus-quotients":
        for kind in ("bruteforce", "reduction"):
            emit(lines, f"{kind}_s",
                 statistics.median(samples.kind_passes[kind]), "s", n_pass,
                 "passes")
    if wl.name == "cover-decisions":
        for kind in ("yes", "no"):
            xs = samples.by_kind[kind]
            emit(lines, f"{kind}_ms_p50", 1000 * statistics.median(xs), "ms",
                 len(xs), "decisions")
    return metrics


def layer_metrics(wl, samples, clock, args, lines):
    """Untraced passes for half the time, then traced ones.

    Self times are unscaled seconds per traced pass; trace.overhead_s is
    the difference of the scaled pass medians.  No timer samples the host
    inside an operation here, in either kind of pass, since its kernel
    would land inside spans."""
    from tracer import Tracer
    plain = run_passes(wl, samples, clock, args.seconds / 2, 1, sample=False)
    tracer = Tracer()
    tracer.install()
    tracer.enabled = True
    traced = run_passes(wl, samples, clock, args.seconds / 2, 1, tracer,
                        sample=False)
    layers = samples.layers
    tracer.enabled = False
    tracer.uninstall()
    trace_dir = ROOT / ".bench_trace"
    trace_dir.mkdir(exist_ok=True)
    tracer.write_spans(trace_dir / f"{wl.name}-seed{args.seed}.jsonl")

    metrics = {}
    n = len(traced)
    for name in SELF_TIMES:
        value = statistics.median(t.get(name, 0.0) for t, _ in layers)
        metrics[name + ".self_s"] = emit(lines, name + ".self_s", value, "s",
                                         n, "traced passes")
    counts = layers[0][1]
    decisions = counts.get("quotient.regular_cover_test.calls", 0)
    for name in COUNTS:
        value, unit = counts.get(name, 0), "count"
        if name == "quotient.regular_cover_test.tries":
            value, unit = value / max(decisions, 1), "tries/decision"
        metrics[name] = emit(lines, name, value, unit, 1, "traced pass")
    made = counts.get("quotient.expand_step.made", 0)
    metrics["quotient.expand_step.kept_ratio"] = emit(
        lines, "quotient.expand_step.kept_ratio",
        counts.get("quotient.expand_step.kept", 0) / max(made, 1),
        "kept/made", 1, f"traced pass, base made={made}")
    metrics["trace.overhead_s"] = emit(
        lines, "trace.overhead_s",
        statistics.median(traced) - statistics.median(plain), "s",
        f"{n}+{len(plain)}", "traced+untraced passes")
    varying = [name for name in COUNTS
               if len({c.get(name, 0) for _, c in layers}) > 1]
    if varying:
        lines.append("note: counts differ between traced passes: "
                     + ", ".join(varying))
    return metrics


def run_all(names, args):
    """Each workload in a fresh interpreter, one after another."""
    worst = 0
    for name in names:
        print(f"== {name}", flush=True)
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)])
        worst = max(worst, done.returncode)
    return worst


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "regcover" / "__init__.py").is_file():
        fail(f"no regcover sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads
    if args.workload == "all":
        sys.exit(run_all(workloads.WHY, args))
    if args.workload not in workloads.WHY:
        fail(f"unknown workload {args.workload!r}; "
             f"choose from all, {', '.join(workloads.WHY)}")

    clock = ScaledClock()
    setups = []
    for _ in range(SETUP_REPEATS):
        result, error, _, dt = clock.timed(
            lambda: setup_once(args.workload, args.seed))
        if error is not None:
            fail(f"set-up failed: {error}")
        api, wl = result
        setups.append(dt)
    if not Path(sys.modules["regcover"].__file__).is_relative_to(SRC):
        fail("regcover was not imported from this checkout")
    gc.collect()
    gc.freeze()

    lines = [f"workload {wl.name}: {workloads.WHY[wl.name]}",
             f"seed {args.seed}; {len(wl.ops)} operations per pass; "
             "closed loop, 1 client"]
    lines += [f"input {n} |V|={v} darts={d} |Aut|={a}"
              for n, v, d, a in wl.inputs]
    samples = Samples()
    if args.trace:
        metrics = layer_metrics(wl, samples, clock, args, lines)
    else:
        metrics = end_to_end_metrics(wl, samples, clock, args, setups, lines)
    solved = run_probes(api, wl, samples)
    failed = len(samples.failures)
    emit(lines, "fail_ratio", failed / samples.attempted, "failed/attempted",
         samples.attempted, "operations")
    if wl.probes:
        emit(lines, "probes_solved", solved, "count", len(wl.probes),
             "probes")
    for line in lines:
        print(line)
    for message in samples.failures[:20]:
        print(f"failure: {message}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": samples.attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
