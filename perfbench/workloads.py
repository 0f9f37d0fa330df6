"""The benchmark's workloads: inputs made from a seed, one op, and its output checks.

Every check rests on sizes and statistics, never on exact random streams, so
the checks keep holding when the noise generator changes.

Each workload has:
  prepare(seed) -> inputs   untimed; builds the op's inputs from the seed
  run(inputs, span) -> out  timed; the op itself
  check(inputs, out) -> (problems, pull, sizes)
  cleanup(inputs)           untimed
`pull` = (eps_hat - eps_true) / sigma_eps feeds the run-level check
`pull_problems`; `sizes` are exact counts of the op's work (cycles, artifact
bytes).
"""

import contextlib
import dataclasses
import io
import math
import os
import re
import shutil

from scipy import stats

import qvolt.cli
import qvolt.pipeline
from qvolt.config import load_config
from qvolt.signal import AcquisitionMode

# A single check fails on a correct program with probability about 1e-6.
PULL_LIMIT = 5.0  # per-rep |pull|; two-sided N(0,1) tail 5.7e-7
MEAN_PULL_LIMIT = 4.9  # |mean pull| * sqrt(n); tail 1e-6
PULL_SD_TAIL = 5e-7  # each tail of chi2(n-1) for (n-1) sd^2
SEM_LIMIT = 5.0  # waveform: |low mean - expected| in SEMs
# sigma_eps predicted from sigma_low and the source counts, to this share; the
# sample SEMs and low counts move it by well under 1% at paper scale.
SIGMA_EPS_TOLERANCE = 0.03

CLI_STEPS = ("generate", "run", "blinded-summary", "unblind-fit")
WAVEFORM_DRIFT_RATE = 1e-9  # V/s
WAVEFORM_SCALE = 10  # source counts divided by this: 10,071 cycles per rep


def pull_of(eps, sigma_eps, config):
    """(pull, problems) of one rep's fit against the injected eps."""
    pull = (eps - config.params.eps_gamma) / sigma_eps
    if abs(pull) < PULL_LIMIT:
        return pull, []
    return pull, [f"|pull| = {abs(pull):.2f} >= {PULL_LIMIT}"]


def pull_problems(pulls):
    """Run-level check: are the reps' pulls consistent with N(0,1)?"""
    n = len(pulls)
    if n < 3:
        return []
    mean = sum(pulls) / n
    ss = sum((p - mean) ** 2 for p in pulls)
    problems = []
    if abs(mean) * math.sqrt(n) > MEAN_PULL_LIMIT:
        problems.append(f"pull mean {mean:+.3f} over {n} reps is not N(0,1)")
    lo, hi = stats.chi2.ppf([PULL_SD_TAIL, 1 - PULL_SD_TAIL], n - 1)
    if not lo <= ss <= hi:
        problems.append(f"pull sd {math.sqrt(ss / (n - 1)):.3f} over {n} reps is not N(0,1)")
    return problems


def predicted_sigma_eps(config):
    """sigma_eps of the WLS fit if each source reads low on half its cycles at sigma_low."""
    xs = [s.fidelity - 0.5 for s in config.sources]
    ws = [(s.count / 2) / config.acquisition.sigma_low**2 for s in config.sources]
    xw = sum(w * x for w, x in zip(ws, xs)) / sum(ws)
    sxx = sum(w * (x - xw) ** 2 for w, x in zip(ws, xs))
    return sxx**-0.5 / config.params.v1


class PaperCli:
    """generate, run, blinded-summary and unblind-fit through qvolt.cli.main, fresh out dir per rep."""

    name = "paper_cli"
    config_path = "configs/null.cfg"

    def __init__(self, root, workdir):
        path = os.path.join(root, self.config_path)
        with open(path, encoding="utf-8") as fh:
            self.template = fh.read()
        self.config = load_config(path)
        self.cycles = sum(s.count for s in self.config.sources)
        self.workdir = workdir

    def prepare(self, seed):
        out = os.path.join(self.workdir, f"rep-{seed}")
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        text, n = re.subn(r"(?m)^seed\s*=.*$", f"seed = {seed}", self.template)
        if n != 1:
            raise ValueError(f"{self.config_path}: expected one seed line, found {n}")
        cfg = os.path.join(out, "run.cfg")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(text)
        return cfg, out

    def run(self, inputs, span):
        cfg, out = inputs
        codes = []
        for step in CLI_STEPS:
            with span("cli." + step.replace("-", "_")), contextlib.redirect_stdout(io.StringIO()):
                codes.append(qvolt.cli.main([step, "--config", cfg, "--out", out]))
            if codes[-1] != 0:
                break
        return codes

    def check(self, inputs, codes):
        _, out = inputs
        problems = []
        if codes != [0] * len(CLI_STEPS):
            problems.append(f"exit codes {codes} for steps {CLI_STEPS}")
            return problems, None, {}
        with open(os.path.join(out, "readings.csv"), encoding="utf-8") as fh:
            rows = sum(1 for _ in fh) - 1
        if rows != self.cycles:
            problems.append(f"readings.csv has {rows} rows, want {self.cycles}")
        with open(os.path.join(out, "blinded_summary.txt"), encoding="utf-8") as fh:
            summary = fh.read()
        n_total = int(re.search(r"blinded summary of (\d+) readings", summary).group(1))
        n_low, n_high = (int(n) for n in re.findall(r"^(?:low |high): n=(\d+)", summary, re.M))
        if n_total != rows:
            problems.append(f"n_total {n_total} != {rows} readings")
        if n_low + n_high != n_total:
            problems.append(f"low {n_low} + high {n_high} != n_total {n_total}")
        fit = {}
        with open(os.path.join(out, "fit.csv"), encoding="utf-8") as fh:
            for line in fh.read().splitlines()[1:]:
                name, value, sigma = line.split(",")
                fit[name] = (float(value), float(sigma) if sigma else None)
        eps, sigma_eps = fit["eps"]
        bound = fit[f"bound_{round(self.config.analysis.cl * 100)}"][0]
        if not (math.isfinite(bound) and bound >= abs(eps)):
            problems.append(f"bound {bound} not finite or below |eps| = {abs(eps)}")
        pull, pull_problem = pull_of(eps, sigma_eps, self.config)
        problems += pull_problem
        want = predicted_sigma_eps(self.config)
        if abs(sigma_eps / want - 1) > SIGMA_EPS_TOLERANCE:
            problems.append(f"sigma_eps {sigma_eps:.4e} not within "
                            f"{SIGMA_EPS_TOLERANCE:.0%} of predicted {want:.4e}")
        names = os.listdir(out)
        sizes = {
            "pipeline.cycles": rows,
            "signal.readings_bytes": os.path.getsize(os.path.join(out, "readings.csv")),
            "blinding.key_bytes": os.path.getsize(os.path.join(out, "key.csv")),
            "sources.bit_file_bytes": sum(
                os.path.getsize(os.path.join(out, n)) for n in names if n.startswith("bits_")
            ),
        }
        return problems, pull, sizes

    def cleanup(self, inputs):
        shutil.rmtree(inputs[1], ignore_errors=True)


class InMemory:
    """pipeline.run_pipeline on a config whose seed is replaced per rep; no file I/O."""

    def __init__(self, root, workdir):
        self.config = self.derive(load_config(os.path.join(root, self.config_path)))
        self.cycles = sum(s.count for s in self.config.sources)

    def derive(self, config):
        return config

    def prepare(self, seed):
        return dataclasses.replace(self.config, seed=seed)

    def run(self, config, span):
        return qvolt.pipeline.run_pipeline(config)

    def check(self, config, output):
        readings, key, summary, result = output
        problems = []
        if not (len(readings) == len(key) == summary.n_total == self.cycles):
            problems.append(f"{len(readings)} readings, {len(key)} key entries, "
                            f"n_total {summary.n_total}; want {self.cycles}")
        if summary.low.n + summary.high.n != summary.n_total:
            problems.append("low + high counts != n_total")
        fit = result.fit
        if not (math.isfinite(fit.bound_90) and fit.bound_90 >= abs(fit.eps)):
            problems.append(f"bound {fit.bound_90} not finite or below |eps| = {abs(fit.eps)}")
        pull, pull_problem = pull_of(fit.eps, fit.sigma_eps, config)
        return problems + pull_problem, pull, {"pipeline.cycles": len(readings)}

    def cleanup(self, inputs):
        pass


class PullInjected(InMemory):
    """The calibration study: eps = 1e-9 injected."""

    name = "pull_injected"
    config_path = "configs/injected.cfg"


class WaveformDrift(InMemory):
    """Null config in waveform mode with linear drift, sources scaled down 10x."""

    name = "waveform_drift"
    config_path = "configs/null.cfg"

    def derive(self, config):
        return dataclasses.replace(
            config,
            sources=tuple(
                dataclasses.replace(s, count=s.count // WAVEFORM_SCALE) for s in config.sources
            ),
            acquisition=dataclasses.replace(
                config.acquisition, mode=AcquisitionMode.WAVEFORM, drift_rate=WAVEFORM_DRIFT_RATE
            ),
        )

    def check(self, config, output):
        problems, pull, sizes = super().check(config, output)
        summary = output[2]
        # the reduction reports the line at the window midpoint, where drift has added rate * t_mid
        acq = config.acquisition
        want = config.params.vs + acq.drift_rate * acq.window_mid_time
        low = summary.low
        if not abs(low.mean - want) < SEM_LIMIT * low.sem:
            problems.append(f"low mean {low.mean:.4e} V is {abs(low.mean - want) / low.sem:.1f} "
                            f"SEM from {want:.4e} V")
        return problems, pull, sizes


WORKLOADS = {w.name: w for w in (PaperCli, PullInjected, WaveformDrift)}
