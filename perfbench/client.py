"""One workload in one fresh process: a closed loop with a single client.

Run by run.py, which reads the last line of stdout (one JSON object).

  client.py --workload W --seed S --seconds T --trace 0|1
  client.py --workload W --setup-only

Rep r runs with seed S + r. Rep 0 is a warm-up: checked, never timed. The
loop then runs for T seconds. With --trace 1 every second rep is traced, and
afterwards the first traced rep's seed runs once more, traced, to assert that
its exact counts repeat. run.py sets the BLAS thread caps
in this process's environment, so they hold before numpy is imported.
"""

import argparse
import contextlib
from dataclasses import dataclass, field
import json
import os
import resource
import statistics
import sys
import time
import traceback

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, os.path.join(ROOT, "src"))

# per-layer metrics of a traced run; each names the span or counter it reads
TOTAL_TIME = (
    "signal.run_acquisition", "blinding.combine_and_permute", "blinding.unblind",
    "signal.write_readings", "signal.read_readings", "blinding.write_key", "blinding.read_key",
    "sources.write_bits", "sources.ingest_bits", "seeds.derive_rng",
    "analysis.classify", "analysis.summarize", "analysis.histogram", "analysis.wls_fit",
    "analysis.mc_errors", "analysis.confidence_bound", "config.load_config",
    "cli.generate", "cli.run", "cli.blinded_summary", "cli.unblind_fit",
)
SELF_TIME = (
    "signal.run_acquisition", "pipeline.generate_bits", "pipeline.blind", "pipeline.acquire",
    "pipeline.blinded_summary", "pipeline.unblind_fit",
    "cli.generate", "cli.run", "cli.blinded_summary", "cli.unblind_fit",
)
CALLS = ("seeds.cycle_rng", "model.expected_reading", "signal.synthesize_cycle", "signal.reduce_cycle")
SIZES = ("pipeline.cycles", "signal.readings_bytes", "blinding.key_bytes", "sources.bit_file_bytes")


@dataclass
class Op:
    op: int
    seed: int
    traced: bool = False
    latency: float = 0.0
    problems: list = field(default_factory=list)
    pull: float | None = None
    counts: dict = field(default_factory=dict)


def run_op(workload, op, seed, tracer=None):
    """Prepare, time, check and clean up one op; a failure is recorded, not raised."""
    record = Op(op, seed, traced=tracer is not None)
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    inputs = None
    try:
        inputs = workload.prepare(seed)
        with tracer.installed(op) if tracer else contextlib.nullcontext():
            start = time.perf_counter()
            with span("op"):
                output = workload.run(inputs, span)
            record.latency = time.perf_counter() - start
        record.problems, record.pull, sizes = workload.check(inputs, output)
        record.counts = {name: sizes.get(name, 0) for name in SIZES}
    except Exception:  # the loop must go on: the failure is reported and counted
        record.problems.append(traceback.format_exc(limit=3).strip())
    finally:
        if inputs is not None:
            workload.cleanup(inputs)
    if tracer:
        calls = tracer.take_counts()
        record.counts.update({f"{name}_calls": calls.get(name, 0) for name in CALLS})
    return record


def closed_loop(workload, base_seed, first_op, seconds, tracer=None):
    """Ops back to back until `seconds` have passed, at least one.

    Given a tracer, every second op is traced, so traced and untraced ops
    share the machine's slow drifts and their medians compare fairly.
    """
    ops = []
    deadline = time.perf_counter() + seconds
    while len(ops) < (2 if tracer else 1) or time.perf_counter() < deadline:
        op = first_op + len(ops)
        traced = tracer if len(ops) % 2 else None
        ops.append(run_op(workload, op, base_seed + op, traced))
    return ops


def summary(values):
    """n, quartiles and median of a list of samples."""
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"n": len(values), "q1": q1, "median": med, "q3": q3}


def check_run(ops, pull_problems):
    """Run-level pull check over ops with distinct seeds; a failure fails every op that fed it."""
    fed = [o for o in ops if o.pull is not None]
    problems = pull_problems([o.pull for o in fed])
    for o in fed:
        o.problems.extend(problems)


def end_to_end(workload, ops):
    """Median op latency; on the in-memory workloads also the rate one client gets at it.

    The rate is the same number as the latency, so it is reported but not gated.
    """
    latencies = [o.latency for o in ops if not o.problems]
    if not latencies:
        return {}, {}, {}
    stats = summary(latencies)
    median = stats["median"]
    rates = {}
    if workload.name == "pull_injected":
        rates["pipeline_runs_per_s"] = 1 / median
    elif workload.name == "waveform_drift":
        rates["waveform_cycles_per_s"] = workload.cycles / median
    return {"bound_latency_s": median}, {"bound_latency_s": stats}, rates


def per_layer(workload, ops, tracer):
    """Per-op medians of span times, the first traced op's counts, and the tracing overhead."""
    ok = [o for o in ops if o.traced and not o.problems]
    plain = [o.latency for o in ops if not o.traced and not o.problems]
    if not ok or not plain:
        return {}, {}
    per_op = tracer.per_op([o.op for o in ok])
    samples = {}
    for name in TOTAL_TIME:
        samples[f"{name}_s"] = [per_op[o.op][0][name] for o in ok]
    for name in SELF_TIME:
        samples[f"{name}_self_s"] = [per_op[o.op][1][name] for o in ok]
    samples["trace.untraced_latency_s"] = plain
    samples["trace.traced_latency_s"] = [o.latency for o in ok]
    stats = {name: summary(values) for name, values in samples.items()}
    values = {name: s["median"] for name, s in stats.items()}
    values.update(ok[0].counts)
    values["signal.ns_per_cycle"] = values["signal.run_acquisition_s"] / workload.cycles * 1e9
    values["trace.overhead_pct"] = (
        values["trace.traced_latency_s"] / values["trace.untraced_latency_s"] - 1
    ) * 100
    return values, stats


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time the import of qvolt and the workload's load_config, then exit")
    args = ap.parse_args()

    start = time.perf_counter()
    import workloads

    workdir = os.path.join(OUT, "work")
    workload = workloads.WORKLOADS[args.workload](ROOT, workdir)
    setup_s = time.perf_counter() - start

    import numpy
    import qvolt
    import scipy

    src = os.path.join(ROOT, "src", "qvolt")
    if os.path.dirname(os.path.abspath(qvolt.__file__)) != src:
        sys.exit(f"qvolt imported from {qvolt.__file__}, not from {src}")
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    os.makedirs(workdir, exist_ok=True)
    warmup = run_op(workload, 0, args.seed)
    tracer = tracing.Tracer() if args.trace else None
    timed = closed_loop(workload, args.seed, 1, args.seconds, tracer)
    ops = [warmup] + timed
    check_run(ops, workloads.pull_problems)
    if tracer:
        first = next(o for o in timed if o.traced)
        replay = run_op(workload, len(ops), first.seed, tracer)
        if not replay.problems and replay.counts != first.counts:
            replay.problems.append(
                f"seed {replay.seed} ran twice with different counts: "
                f"{first.counts} then {replay.counts}"
            )
        ops.append(replay)
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl"))
        values, rates = {}, {}
        layers, stats = per_layer(workload, timed, tracer)
    else:
        values, stats, rates = end_to_end(workload, timed)
        layers = {}
    values["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = [o for o in ops if o.problems]
    print(json.dumps({
        "attempted": len(ops),
        "failed": len(failed),
        "problems": [f"op {o.op} (seed {o.seed}): {p}" for o in failed for p in o.problems],
        "end_to_end": values,
        "stats": stats,
        "rates": rates,
        "per_layer": layers,
        "env": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "warmup_reps": 1,
            "timed_reps": len(timed),
        },
    }))


if __name__ == "__main__":
    main()
