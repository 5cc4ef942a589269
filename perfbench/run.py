"""Run one plumefront benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mc_campaign --seed 1 --seconds 15 --trace 0

Workloads: mc_campaign, profile_fit, field_functionals, cli_pipeline (see
BENCHMARK.json and perfbench/NOTES.md).  The load is a closed loop from one
process: each operation starts when the previous one returns.  The loop
stops at the first whole round of operations after --seconds.

--trace 0  measures the end-to-end metrics with nothing patched.
--trace 1  runs the loop untraced for --seconds/2, then replays the same
           operations with every listed plumefront function wrapped, and
           reports per-layer calls, self times and counters.

Outputs are checked after the timed loop.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics; the
line before it carries the environment, latency percentiles and details.
Spans of a traced run, and every result, are also written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 5
# On a shared machine the speed of one vCPU drifts by 20-70% from minute to
# minute (identical work, CPU time equal to wall time).  A paced workload
# (short single-threaded Python operations in this process) has its busy
# time rescaled by REF_NOMINAL_S over the mean time of a fixed pure-Python
# reference kernel sampled between its operations, which slows down in step
# with them; the set-up is always rescaled the same way.  perfbench/NOTES.md
# has the measurements.
REF_NOMINAL_S = 0.004  # the reference kernel on an uncontended vCPU of the 2-core box
REF_INTERVAL_S = 0.5
SETUP_REF_REPEATS = 9  # kernels per reference sample taken before and after each set-up
END_TO_END = {  # name -> unit
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Loop:
    outputs: list  # [(k, reduced output | None, error | None)]
    durations: list  # (seconds, units) of every operation
    wall: float
    pace: list  # (k, reference kernel seconds) sampled after operation k

    @property
    def units(self) -> int:
        return sum(n for _, n in self.durations)

    @property
    def latencies(self) -> list:
        """Seconds per unit of work, one entry per completed operation."""
        return [dt / n for dt, n in self.durations if n]

    def by_position(self, round_size: int) -> list[list]:
        """Seconds per unit of the operations at each position of a round."""
        out = [[] for _ in range(round_size)]
        for k, (dt, n) in enumerate(self.durations):
            if n:
                out[k % round_size].append(dt / n)
        return out

    def busy_seconds(self, paced: bool) -> float:
        """Summed operation time; with `paced`, rescaled to the reference pace."""
        busy = sum(dt for dt, _ in self.durations)
        if paced:
            busy *= REF_NOMINAL_S / statistics.fmean(t for _, t in self.pace)
        return busy


def reference_kernel() -> float:
    """Fixed pure-Python arithmetic, about 4 ms; never changes with plumefront."""
    total = 0.0
    for i in range(20000):
        total += math.exp(-i * 1e-4) * math.sqrt(i + 1.0)
    return total


def time_reference(repeats: int = 3) -> float:
    """Median of `repeats` timings of the reference kernel."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def closed_loop(op, seconds=None, round_size=1, count=None, tracer=None, reduce=None,
                paced=False) -> Loop:
    """Run op(0), op(1), ... back to back.

    With `count`, run exactly that many operations; otherwise run at least
    one round and stop at the first round boundary after `seconds`.  Each
    output is passed through reduce(k, output) outside the timed call, so
    the loop keeps only what the checks need.  With `paced`, the reference
    kernel is timed between operations at least every REF_INTERVAL_S.
    """
    outputs, durations, pace = [], [], []
    clock = time.perf_counter
    start = clock()
    last_pace = -math.inf
    k = 0
    while (k < count) if count is not None else (
            k == 0 or k % round_size or clock() - start < seconds):
        if tracer is not None:
            tracer.op = k
        t0 = clock()
        try:
            n, out = op(k)
            err = None
        except Exception:  # a failed operation is counted, and the loop goes on
            n, out, err = 0, None, traceback.format_exc(limit=4)
        durations.append((clock() - t0, n))
        if tracer is not None:
            tracer.flush_args()
        if out is not None and reduce is not None:
            out = reduce(k, out)
        outputs.append((k, out, err))
        if paced and clock() - last_pace >= REF_INTERVAL_S:
            last_pace = clock()
            pace.append((k, time_reference()))
        k += 1
    return Loop(outputs, durations, clock() - start, pace)


def latency_summary(latencies) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(latencies)
    out = {"n": n, "p50_ms": 1e3 * statistics.median(latencies) if n else None,
           "tail_pct": None, "tail_ms": None}
    if n >= 20:
        pct = math.floor(100.0 * (n - 10) / n)
        out["tail_pct"] = pct
        out["tail_ms"] = 1e3 * float(np.percentile(latencies, pct))
    return out


def peak_rss_mb(children: bool) -> float:
    """Peak resident set of this process, or of the largest child it waited for."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def set_up(wl, run_process):
    """Fresh-interpreter import of plumefront, input generation and warm-up,
    repeated SETUP_REPEATS times; returns (set-up times, import times,
    rescale factors).

    The set-up is a fresh interpreter plus single-threaded work in this
    process, so it slows down with the vCPU it runs on.  Each repeat is
    pinned, with its child, to one CPU, and its times are rescaled by
    REF_NOMINAL_S over the reference kernel timed on that CPU just before
    and just after it: the times are seconds of an uncontended vCPU.
    """
    times, imports, scales = [], [], []
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        for _ in range(SETUP_REPEATS):
            ref = time_reference(SETUP_REF_REPEATS)
            t0 = time.perf_counter()
            proc = run_process(["-c", "import plumefront"])
            imported = time.perf_counter() - t0
            if proc.returncode != 0:
                raise RuntimeError(f"import plumefront failed in a child process:\n{proc.stderr}")
            wl.generate()
            wl.warm_up()
            elapsed = time.perf_counter() - t0
            scale = REF_NOMINAL_S / statistics.fmean([ref, time_reference(SETUP_REF_REPEATS)])
            times.append(elapsed * scale)
            imports.append(imported * scale)
            scales.append(scale)
    finally:
        os.sched_setaffinity(0, cpus)
    return times, imports, scales


def metric(value, unit) -> dict:
    return {"value": float(value), "unit": unit}


def run_untraced(wl, seconds, setup_times):
    # The set-up's import children count in the children's peak too; this
    # shows that the CLI processes of the loop, not they, set it.
    setup_children_peak = peak_rss_mb(children=True)
    loop = closed_loop(wl.op, seconds, wl.round_size, reduce=wl.reduce, paced=wl.paced)
    # cli_pipeline's work is done by its child processes; this process only checks.
    peak = peak_rss_mb(children=wl.name == "cli_pipeline")
    rate = loop.units / loop.busy_seconds(wl.paced)
    metrics = {
        "ops_per_s": metric(rate, END_TO_END["ops_per_s"]),
        "setup_s": metric(statistics.median(setup_times), END_TO_END["setup_s"]),
        "peak_rss_mb": metric(peak, END_TO_END["peak_rss_mb"]),
    }
    info = {"ops": len(loop.outputs), "units": loop.units, "wall_s": loop.wall,
            "unpaced_ops_per_s": loop.units / loop.busy_seconds(False),
            "reference_s": [t for _, t in loop.pace],
            "latency": latency_summary(loop.latencies), "op_seconds": loop.durations}
    if wl.name == "cli_pipeline":
        boundary, *chain = (statistics.median(p) for p in loop.by_position(wl.round_size))
        info["startup_s"], info["pipeline_s"] = boundary, sum(chain)
        info["setup_children_peak_rss_mb"] = setup_children_peak
    return loop.outputs, metrics, info


def run_traced(wl, seconds, import_times, trace_path):
    import layers
    import workloads
    from tracer import Tracer

    base = closed_loop(wl.inprocess_op, seconds / 2.0, wl.round_size, reduce=wl.reduce)
    tracer = Tracer(layers.targets())
    for name, checker in layers.ACCURACY.items():
        tracer.record_args(name, checker)
    with tracer:
        traced = closed_loop(wl.inprocess_op, count=len(base.outputs), tracer=tracer,
                             reduce=wl.reduce)
    outputs = base.outputs + traced.outputs

    mc_counts = dispatch_s = None
    if wl.name == "mc_campaign":
        mc_counts = workloads.mc_counts(
            [r for _, out, _ in traced.outputs if out is not None for r in out])
    if wl.name == "cli_pipeline":
        dispatch_s = dict(zip(layers.CLI_SUBCOMMANDS, base.by_position(wl.round_size)))
    # Operation time, traced over untraced: leaves out the checks between operations.
    overhead = traced.busy_seconds(False) / base.busy_seconds(False) - 1.0
    values, self_sum = layers.layer_metrics(
        tracer, traced.wall, overhead, statistics.median(import_times), mc_counts, dispatch_s)
    units = dict((name, unit) for name, unit, _ in layers.metric_specs())
    metrics = {name: metric(values[name], units[name]) for name in units}
    info = {"ops": len(traced.outputs), "untraced_wall_s": base.wall, "traced_wall_s": traced.wall,
            "self_time_sum_s": self_sum, "spans": len(tracer.spans),
            "aggregates": len(tracer.aggregates), "trace_file": str(trace_path.relative_to(ROOT))}
    tracer.dump(trace_path, {"workload": wl.name, "wall_s": traced.wall})
    return outputs, metrics, info


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["mc_campaign", "profile_fit", "field_functionals", "cli_pipeline"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "plumefront" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no plumefront sources under {SRC}; run from a full checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import plumefront  # noqa: F401  (timed: the in-process import)
    import_inprocess_s = time.perf_counter() - t0

    import provenance
    import workloads

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    try:
        setup_times, import_times, setup_scales = set_up(wl, workloads.run_process)
        if args.trace:
            outputs, metrics, info = run_traced(wl, args.seconds, import_times,
                                                OUT / f"trace-{tag}.json")
        else:
            outputs, metrics, info = run_untraced(wl, args.seconds, setup_times)
        attempted, failures, details = wl.check(outputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "fail_frac": len(failures) / attempted,
        "failures": failures[:20], "details": details, "run": info,
        "setup": {"setup_s": setup_times, "import_s": import_times, "scale": setup_scales,
                  "import_inprocess_s": import_inprocess_s},
        "environment": provenance.collect(ROOT, args.seed),
    }
    (OUT / f"result-{tag}.json").write_text(
        json.dumps({"report": report, "result": result}, indent=1), encoding="utf-8")
    for bulky in ("op_seconds", "reference_s"):  # kept in the result file only
        report["run"].pop(bulky, None)
    print(json.dumps({"perfbench": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
