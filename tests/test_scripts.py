"""Smoke tests: the standalone scripts run against the current library API."""

import importlib.util
import json
import os
import subprocess
import sys

import numpy as np

from qvolt import signal
from qvolt.model import NonlinearParams
from qvolt.signal import AcquisitionConfig, AcquisitionMode

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

SMALL_CFG = """\
[run]
seed = 5

[params]
vs = -0.306 nV

[source.c1]
fidelity = 0.5
count = 400

[source.q2]
fidelity = 0.99
count = 200

[analysis]
mc_realizations = 200
"""


def run_script(name, *args):
    paths = (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH"))
    path = os.pathsep.join(p for p in paths if p)
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name), *args],
        capture_output=True, text=True, timeout=300, env=dict(os.environ, PYTHONPATH=path),
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_replay_fit_prints_fit_and_bounds():
    lines = run_script("replay_fit.py")
    for start in ("intercept =", "slope     =", "eps       =", "MC sd(slope) ="):
        assert sum(line.startswith(start) for line in lines) == 1, lines
    rules = [line for line in lines if line.startswith("90% CL bound (")]
    assert [r.split("(")[1].split(")")[0].strip() for r in rules] == ["central", "folded"]


def test_pull_study_prints_each_rep_and_the_pull_summary(tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_CFG)
    lines = run_script("pull_study.py", "--repetitions", "3", "--config", str(cfg))
    assert [line.split(":")[0] for line in lines if line.startswith("rep")] == [
        "rep   0", "rep   1", "rep   2"
    ]
    assert lines[-1].startswith("pull mean = ") and lines[-1].endswith("(3 repetitions)")


def test_benchmark_tracer_installs_and_restores_over_the_library(monkeypatch):
    # one usable CPU: the tracer's call counter is not guarded against threads
    spec = importlib.util.spec_from_file_location(
        "tracing", os.path.join(ROOT, "perfbench", "tracing.py")
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    cfg = AcquisitionConfig(mode=AcquisitionMode.WAVEFORM)
    n = 40  # 3 batches of WAVEFORM_BATCH_CYCLES = 16
    originals = {name: getattr(signal, name) for name in (
        "run_acquisition", "cycle_rng", "expected_reading", "synthesize_cycle", "reduce_cycle",
    )}
    tracer = tracing.Tracer()
    with tracer.installed("acquire"):
        signal.run_acquisition(np.zeros(n, dtype=int), np.zeros(n, dtype=np.uint8), [0.5],
                               NonlinearParams(), cfg, noise_seed=1)
    counts = tracer.take_counts()
    assert counts["signal.synthesize_cycle"] == 3
    assert counts["signal.reduce_cycle"] == 3
    assert counts["seeds.cycle_rng"] == 3
    assert [span[0] for span in tracer.spans] == ["signal.run_acquisition"]
    assert {name: getattr(signal, name) for name in originals} == originals


def test_cli_steps_times_each_step_in_a_fresh_process(tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_CFG)
    lines = run_script("cli_steps.py", "--config", str(cfg), "--reps", "1")
    assert lines[0].split()[:2] == ["step", "median"]
    rows = [line.split() for line in lines[1:]]
    assert [row[0] for row in rows] == ["generate", "run", "blinded-summary", "unblind-fit"]
    for _, wall, rss in rows:
        assert float(wall) > 0 and float(rss) > 0
    record = json.loads("\n".join(run_script(
        "cli_steps.py", "--config", str(cfg), "--reps", "1", "--json"
    )))
    assert list(record["median"]) == [row[0] for row in rows]
    assert all(len(r["wall_s"]) == len(r["peak_rss_mib"]) == 1 for r in record["per_rep"].values())
