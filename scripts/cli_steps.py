#!/usr/bin/env python3
"""Wall time and peak RSS of each CLI step, each step in a fresh process.

    python scripts/cli_steps.py --config configs/null.cfg --reps 5 [--json]

One rep runs `python -m qvolt.cli <step>` for generate, run, blinded-summary
and unblind-fit, in that order, on one new output directory, so the reps of
every step interleave. A step's time is the wall time of its process, from
spawn to exit, interpreter start-up and imports included; its peak RSS is the
process's ru_maxrss from os.wait4. The table gives the median of each over
the reps; --json prints the same, with every rep's numbers, as JSON.
The children run with this interpreter and this environment.
"""

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time

STEPS = ("generate", "run", "blinded-summary", "unblind-fit")


def run_step(step, config, out):
    """(wall seconds, peak RSS in MiB) of one `python -m qvolt.cli` step."""
    argv = [sys.executable, "-m", "qvolt.cli", step, "--config", config, "--out", out]
    quiet = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, os.environ, file_actions=quiet)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        sys.exit(f"{step} exited {code}")
    return wall, usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def measure(config, reps):
    """{step: {"wall_s": [...], "peak_rss_mib": [...]}}, one entry per rep."""
    results = {step: {"wall_s": [], "peak_rss_mib": []} for step in STEPS}
    with tempfile.TemporaryDirectory() as root:
        for rep in range(reps):
            out = os.path.join(root, f"rep{rep}")
            for step in STEPS:
                wall, rss = run_step(step, config, out)
                results[step]["wall_s"].append(wall)
                results[step]["peak_rss_mib"].append(rss)
            shutil.rmtree(out)
    return results


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--config", required=True)
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--json", action="store_true", help="print the results as JSON")
    args = ap.parse_args()
    if args.reps < 1:
        ap.error("--reps must be at least 1")

    results = measure(args.config, args.reps)
    medians = {
        step: {name: statistics.median(values) for name, values in r.items()}
        for step, r in results.items()
    }
    if args.json:
        print(json.dumps({"config": args.config, "reps": args.reps, "python": sys.version,
                          "median": medians, "per_rep": results}, indent=2))
        return
    print(f"{'step':<16} {'median s':>9} {'peak RSS MiB':>13}   ({args.reps} reps)")
    for step, m in medians.items():
        print(f"{step:<16} {m['wall_s']:>9.3f} {m['peak_rss_mib']:>13.1f}")


if __name__ == "__main__":
    main()
