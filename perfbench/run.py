#!/usr/bin/env python3
"""qvolt benchmark: time to a 90% CL bound, pull-study throughput and waveform rate.

  python3 perfbench/run.py --workload paper_cli|pull_injected|waveform_drift|all \\
      --seed N --seconds T --trace 0|1

Run from the repository root. Without --workload it runs the workloads that
BENCHMARK.json lists; `all` adds pull_injected. The --seconds of one
invocation are shared among its workloads. Each workload runs in a fresh
client process (client.py), single-threaded: one closed-loop client, BLAS
thread caps set to 1 in its environment. SETUP_PROBES fresh processes, half
before the client and half after it, each time the import of qvolt plus the
workload's load_config; setup_s is their median.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1 prints
its per-layer metrics, from spans and call counts around calls into qvolt's
modules (tracing.py), and the tracing overhead. Human-readable lines come
first; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}. The full record of a run,
with sample counts, quartiles and the environment, goes to perfbench/out/.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("paper_cli", "pull_injected", "waveform_drift")
SETUP_PROBES = 14
TIME_LIMIT_S = 170  # the whole invocation, under the 180 s a run may take
BLAS_CAPS = {
    var: "1"
    for var in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
}


class BenchError(Exception):
    pass


def run_client(args, deadline):
    """Run client.py with `args`; its last stdout line, parsed."""
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "client.py"), *args],
            cwd=ROOT,
            env={**os.environ, **BLAS_CAPS},
            capture_output=True,
            text=True,
            timeout=max(deadline - time.monotonic(), 1),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"client {args} did not finish in time") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"client {args} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(lines[-1])


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def bench(workload, seed, seconds, trace, deadline):
    """The client run between two halves of the set-up probes; its record with setup_s and env."""
    load_before = os.getloadavg()
    probe = ["--workload", workload, "--setup-only"]
    setups = [run_client(probe, deadline)["setup_s"] for _ in range(SETUP_PROBES // 2)]
    record = run_client(
        ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        deadline,
    )
    setups += [run_client(probe, deadline)["setup_s"] for _ in range(SETUP_PROBES - len(setups))]
    record["end_to_end"]["setup_s"] = statistics.median(setups)
    q1, _, q3 = statistics.quantiles(setups, n=4)
    record["stats"]["setup_s"] = {"n": len(setups), "q1": q1, "median": statistics.median(setups),
                                  "q3": q3}
    record["env"].update({
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "blas_thread_caps": BLAS_CAPS,
        "git_commit": git_commit(),
        "client": "closed loop, 1 client, single-threaded",
        "warmup_note": "rep 0 of each run is a warm-up: checked, excluded from timing",
    })
    record.update(workload=workload, seed=seed, seconds=seconds, trace=trace)
    return record


def report(record, specs):
    """Print the human-readable table; return {metric: {value, unit}} for `specs`."""
    trace = record["trace"]
    values = record["per_layer"] if trace else record["end_to_end"]
    print(f"== {record['workload']}  seed {record['seed']}  {record['seconds']:g} s  trace {trace}"
          f"  ({record['env']['client']}; rep 0 is a warm-up, excluded from timing)")
    metrics = {}
    for spec in specs:
        name = spec["name"]
        if name not in values:
            raise BenchError(f"{record['workload']}: metric {name} was not measured; "
                             f"failures: {record['problems'][:3]}")
        metrics[name] = {"value": values[name], "unit": spec["unit"]}
        line = f"  {name:36s} {values[name]:>14.6g} {spec['unit']}"
        if not trace and name in record["stats"]:
            s = record["stats"][name]
            line += f"   n={s['n']} q1={s['q1']:.6g} median={s['median']:.6g} q3={s['q3']:.6g}"
        print(line)
    for name, value in record["rates"].items():
        print(f"  {name:36s} {value:>14.6g} 1/s   (not gated: a rate at the median op time)")
    if not trace:
        print(f"  {'failed_ops_ratio':36s} {record['failed'] / record['attempted']:>14.6g}"
              f"   ({record['failed']} of {record['attempted']} ops)")
    else:
        own = {k: v for k, v in values.items() if k.endswith("_self_s")}
        top = max(own, key=own.get)
        print(f"  largest self time: {top} ({own[top]:.4g} s per op)")
    for problem in record["problems"]:
        print(f"  FAILED {problem}")
    print("env " + json.dumps(record["env"]))
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"),
                    help="default: the workloads of BENCHMARK.json")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    needed = [os.path.join("src", "qvolt", "cli.py"), os.path.join("configs", "null.cfg"),
              os.path.join("configs", "injected.cfg"), "BENCHMARK.json"]
    missing = [p for p in needed if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"run.py: not a qvolt checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    specs = spec["per_layer" if args.trace else "end_to_end"]
    seconds = args.seconds or spec["run_seconds"]

    os.makedirs(OUT, exist_ok=True)
    if args.workload is None:
        names = tuple(w["name"] for w in spec["workloads"])
    else:
        names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        results = {}
        for name in names:
            record = bench(name, args.seed, seconds / len(names), args.trace, deadline)
            path = os.path.join(OUT, f"result-{name}-{args.seed}-trace{args.trace}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(record, fh, indent=1)
            results[name] = (record, report(record, specs))
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    if len(names) == 1:
        metrics = results[names[0]][1]
    else:
        metrics = {f"{n}.{m}": v for n, (_, ms) in results.items() for m, v in ms.items()}
    attempted = sum(r["attempted"] for r, _ in results.values())
    failed = sum(r["failed"] for r, _ in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
