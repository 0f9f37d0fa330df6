"""Smoke tests: the standalone scripts run against the current library API."""

import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

SMALL_CFG = """\
[run]
seed = 5

[params]
vs = -0.306 nV

[source.c1]
kind = classical
count = 400

[source.q2]
kind = qubit
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
