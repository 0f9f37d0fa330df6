"""Demodulated lock-in waveform synthesis and per-cycle reduction.

Everything here works on the demodulated (post-filter) signal. Each 2 s
switch cycle settles exponentially to its target level, drifts linearly, and
carries Gaussian noise whose size depends on the instrument range. Only the
trailing window of each cycle is recorded; the reading is the mean of the
window's samples (`reduce_cycle`).

Noise configuration is per-reading: sigma_low / sigma_high are standard
deviations of the reduced reading. Waveform mode converts to per-sample
noise via sigma_sample = sigma_reading * sqrt(n_window_samples), so both
modes produce matched reading distributions.

Acquisition works on arrays of cycles. Each cycle's level is gathered from a
table of one level per source and bit, so the simulator holds one source
index per cycle, not a fidelity. Cycle i's noise is the counter-addressed
block i of one Philox stream (`seeds.cycle_rng`): one normal per cycle in
fast mode, drawn CSV_BLOCK_ROWS cycles at a time, and one per recorded sample
in waveform mode. Waveform mode synthesises only the recorded window,
WAVEFORM_BATCH_CYCLES cycles at a time.
Batches are independent, so they are dealt out to one thread per usable CPU;
memory stays bounded at any run length, and every reading is the same
whatever the batching or thread count.
"""

from dataclasses import dataclass
from enum import Enum
import functools
import math
import os
import threading
from typing import Sequence

import numpy as np

from . import files
from .model import NonlinearParams, expected_reading
from .seeds import cycle_rng


# Cycles synthesised per waveform batch: a batch's (16, n_window_samples)
# arrays keep peak memory flat while amortising the per-call overhead. On a
# 2-vCPU Xeon, 32 ran 10,071 cycles about 7% faster but raised the process's
# peak RSS by 1.2 MiB more.
WAVEFORM_BATCH_CYCLES = 16


class AcquisitionMode(str, Enum):
    FAST = "fast"
    WAVEFORM = "waveform"


@dataclass(frozen=True)
class AcquisitionConfig:
    cycle_duration: float = 2.0  # s
    record_window: float = 1.0  # s, trailing
    sample_rate: float = 1000.0  # Sa/s
    filter_tau: float = 1e-3  # s
    sigma_low: float = 3.4e-9  # V per reading, sensitive range
    sigma_high: float = 1.8e-4  # V per reading, insensitive range
    range_threshold: float = 1.0  # V
    drift_rate: float = 0.0  # V/s, within a cycle: t is measured from each cycle's start
    mode: AcquisitionMode = AcquisitionMode.FAST

    def __post_init__(self):
        object.__setattr__(self, "mode", AcquisitionMode(self.mode))
        for name in ("cycle_duration", "record_window", "sample_rate", "filter_tau",
                     "sigma_low", "sigma_high", "range_threshold", "drift_rate"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("cycle_duration", "record_window", "sample_rate", "filter_tau"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        # n_cycle_samples must fit an int64: past it round() or np.arange fails
        if not self.cycle_duration * self.sample_rate < 2**63:
            raise ValueError(f"cycle_duration * sample_rate ({self.cycle_duration} s * "
                             f"{self.sample_rate} Sa/s) must be below 2**63 samples")
        if self.record_window > self.cycle_duration:
            raise ValueError("record_window must not exceed cycle_duration")
        settle = self.cycle_duration - self.record_window
        if settle < 20 * self.filter_tau:
            raise ValueError(
                f"settling time {settle} s too short for filter_tau {self.filter_tau} s"
            )
        if self.sample_rate * self.record_window < 2:
            raise ValueError("record window must contain at least 2 samples")
        if not (self.sigma_low >= 0 and self.sigma_high >= 0):
            raise ValueError("noise sigmas must be non-negative")

    @property
    def n_cycle_samples(self) -> int:
        return round(self.cycle_duration * self.sample_rate)

    @property
    def n_window_samples(self) -> int:
        return round(self.record_window * self.sample_rate)

    @property
    def window_mid_time(self) -> float:
        """Mean sample time of the record window, within the cycle.

        The window is samples n_cycle_samples - n_window_samples.. of the
        cycle, the samples waveform mode records, so both modes see one
        window whatever the rounding of sample_rate * duration.
        """
        t0 = (self.n_cycle_samples - self.n_window_samples) / self.sample_rate
        return t0 + (self.n_window_samples - 1) / (2 * self.sample_rate)

    def insensitive(self, level):
        """Whether each level puts the instrument on the insensitive range."""
        return np.asarray(level) > self.range_threshold

    def sigma_reading_for(self, level):
        """Per-reading sigma of the range each level puts the instrument on."""
        return np.where(self.insensitive(level), self.sigma_high, self.sigma_low)


def synthesize_cycle(
    prev_level,
    target_level,
    cfg: AcquisitionConfig,
    noise,
    first_sample: int = 0,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Samples first_sample.. of a cycle: exponential settling + linear drift + noise.

    v(t_i) = target + (prev - target) exp(-t_i / tau) + drift_rate * t_i + eta_i
    with eta_i Gaussian at the per-sample sigma of the range the target level
    puts the instrument on. Levels may be arrays of shape (batch,), giving a
    (batch, n) block; `noise` holds the block's standard normals. The block is
    built in the float64 array `out`, a new one by default or `noise` itself.
    """
    decay, drift = _time_terms(cfg, first_sample)
    prev = np.asarray(prev_level, dtype=float)[..., None]
    target = np.asarray(target_level, dtype=float)[..., None]
    sigma_sample = cfg.sigma_reading_for(target) * math.sqrt(cfg.n_window_samples)
    v = np.multiply(sigma_sample, noise, out=out)
    v += target
    v += drift
    # exp(-t / tau) is exactly 0 past its prefix, where the settling term adds nothing
    v[..., : len(decay)] += (prev - target) * decay
    return v


@functools.lru_cache(maxsize=16)
def _time_terms(cfg: AcquisitionConfig, first_sample: int) -> tuple[np.ndarray, np.ndarray]:
    """exp(-t / tau) up to its last nonzero value, and drift_rate * t, for samples first_sample..

    Both depend on the config alone, so they are computed once per config and
    returned read-only to every batch and thread.
    """
    t = np.arange(first_sample, cfg.n_cycle_samples) / cfg.sample_rate
    decay = np.exp(-t / cfg.filter_tau)
    # exp falls monotonically, so its zeros (underflow) are a suffix
    decay = decay[: np.count_nonzero(decay)]
    drift = cfg.drift_rate * t
    decay.flags.writeable = False
    drift.flags.writeable = False
    return decay, drift


def reduce_cycle(block: np.ndarray, cfg: AcquisitionConfig):
    """One voltage per cycle: the mean of the trailing window's samples.

    The OLS line through the window passes through (mean t, mean v), so this
    is the line's value at the window's temporal midpoint, and a drift term
    odd-symmetric about the midpoint cancels. `block` has shape (..., n) with
    cycles along the last axis; a single cycle gives a float.
    """
    nw = cfg.n_window_samples
    block = np.asarray(block, dtype=float)
    if block.shape[-1] < nw:
        raise ValueError(f"block of {block.shape[-1]} samples shorter than window ({nw})")
    return block[..., -nw:].mean(axis=-1)


def run_acquisition(
    blinded_bits: Sequence[int],
    source_index: Sequence[int],
    fidelities: Sequence[float],
    params: NonlinearParams,
    cfg: AcquisitionConfig,
    noise_seed: int,
) -> np.ndarray:
    """One float64 reading (V) per blinded bit, in blinded order, at its source's true fidelity.

    `source_index` and `fidelities` are provenance: the simulator (playing the role of
    nature) knows each blinded position's source, fidelities[source_index[p]] being its
    fidelity; analysis code never sees them. The levels are gathered from one
    (source, bit) table of `expected_reading`. Cycle i's noise is block i of the
    counter-addressed stream keyed by `noise_seed`, so readings do not depend on
    batching or on the number of cycles after them. In waveform mode the previous
    cycle's known target level seeds the settling transient (deterministic and
    parallelizable; the first cycle settles from 0 V).
    """
    bits = np.asarray(blinded_bits)
    source = np.asarray(source_index)
    fids = np.asarray(fidelities, dtype=float)
    if len(bits) != len(source):
        raise ValueError(f"{len(bits)} bits but {len(source)} provenance fidelities")
    bad = (bits != 0) & (bits != 1)
    if np.any(bad):
        raise ValueError(f"bit must be 0 or 1, got {bits[bad][0].item()!r}")
    if not source.size:  # an empty list is float64, which numpy does not index with
        source = source.astype(np.uint8)
    elif source.min() < 0 or source.max() >= len(fids):
        p = ((source < 0) | (source >= len(fids))).argmax()
        raise ValueError(f"blinded position {p}: source index {source[p]} names none of "
                         f"the {len(fids)} provenance fidelities")

    table = expected_reading([0, 1], fids[:, None], params)  # the level of each source and bit
    levels = table[source, bits.astype(np.uint8, copy=False)]
    if cfg.mode is AcquisitionMode.FAST:
        return _fast_values(levels, cfg, noise_seed)
    return _waveform_values(levels, cfg, noise_seed)


def _fast_values(levels: np.ndarray, cfg: AcquisitionConfig, noise_seed: int) -> np.ndarray:
    """Readings drawn from their sampling distribution, one normal per cycle.

    Each reading is (level + drift_rate * t_mid) + sigma * z, with sigma that of
    the range its level puts the instrument on. The sum is built in `levels`, which
    becomes the readings. The normals are drawn, scaled and added CSV_BLOCK_ROWS
    cycles at a time; `cycle_rng` is counter-addressed, so they are the normals of
    one draw of every cycle, and the levels are the only full-length float array.
    """
    shift = cfg.drift_rate * cfg.window_mid_time
    for lo in range(0, len(levels), files.CSV_BLOCK_ROWS):
        block = levels[lo:lo + files.CSV_BLOCK_ROWS]
        z = cycle_rng(noise_seed, lo, len(block), 1)[:, 0]
        z *= cfg.sigma_reading_for(block)
        block += shift
        block += z
    return levels


def _waveform_values(levels: np.ndarray, cfg: AcquisitionConfig, noise_seed: int) -> np.ndarray:
    """Readings reduced from the synthesised record windows, WAVEFORM_BATCH_CYCLES at a time.

    Each batch writes only its own slice of the readings, so the batches are
    dealt round-robin into one share per usable CPU. The calling thread runs
    the first share and a new thread each other one; the shares overlap in
    the numpy and scipy calls, which release the GIL. Every thread has ended
    when this returns, and an exception raised in any share is raised here.
    """
    n = len(levels)
    nw = cfg.n_window_samples
    first_sample = cfg.n_cycle_samples - nw
    values = np.empty(n)
    batches = range(0, n, WAVEFORM_BATCH_CYCLES)
    k = max(1, min(_usable_cpus(), len(batches)))
    errors = []

    def acquire(share):
        try:
            for lo in batches[share::k]:
                hi = min(lo + WAVEFORM_BATCH_CYCLES, n)
                prev = levels[lo - 1:hi - 1] if lo else np.append(0.0, levels[:hi - 1])  # 0 V first
                z = cycle_rng(noise_seed, lo, hi - lo, nw)  # ours, so it becomes the block
                block = synthesize_cycle(prev, levels[lo:hi], cfg, z, first_sample, out=z)
                values[lo:hi] = reduce_cycle(block, cfg)
        except BaseException as exc:  # raised below, once every thread has ended
            errors.append(exc)

    threads = [threading.Thread(target=acquire, args=(share,)) for share in range(1, k)]
    for thread in threads:
        thread.start()
    acquire(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return values


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


_READINGS_HEADER = "reading_volts"


def write_readings(values: np.ndarray, path: str | os.PathLike) -> dict[str, bytes]:
    """Write readings.csv, then its cache, which holds the column `read_readings` reads.

    Returns their digests (`files.write_table`). A reading that is not finite is refused
    by `files._check_columns` before the file is opened, as `read_readings` would refuse it.
    """
    return files.write_table(path, _READINGS_HEADER, [values])


def read_readings(path: str | os.PathLike) -> tuple[np.ndarray, dict[str, bytes]]:
    """The readings in readings.csv, and the digests they were read from (`files.read_table`)."""
    (values,), digests = files.read_table(path, _READINGS_HEADER, (float,))
    return values, digests
