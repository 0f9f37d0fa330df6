"""Demodulated lock-in waveform synthesis and per-cycle reduction.

Everything here works on the demodulated (post-filter) signal; the carrier
frequency is metadata only. Each 2 s switch cycle settles exponentially to
its target level, drifts linearly, and carries Gaussian noise whose size
depends on the instrument range. Only the trailing window of each cycle is
recorded; the reduction fits a line to the window and returns its value at
the window's temporal midpoint, which equals the mean of the slope-detrended
samples.

Noise configuration is per-reading: sigma_low / sigma_high are standard
deviations of the reduced reading. Waveform mode converts to per-sample
noise via sigma_sample = sigma_reading * sqrt(n_window_samples), so both
modes produce matched reading distributions.

Acquisition works on arrays of cycles. Cycle i's noise is the counter-
addressed block i of one Philox stream (`seeds.cycle_rng`): one normal per
cycle in fast mode, one per recorded sample in waveform mode. Waveform mode
synthesises only the recorded window, WAVEFORM_BATCH_CYCLES cycles at a time,
so memory stays bounded at any run length.
"""

from dataclasses import dataclass
from enum import Enum
import math
import os
from typing import Sequence
import warnings

import numpy as np

from .model import NonlinearParams, expected_reading
from .seeds import cycle_rng


# Cycles synthesised per waveform batch: a (32, n_window_samples) block keeps
# peak memory flat while amortising the per-call overhead.
WAVEFORM_BATCH_CYCLES = 32

# Rows of a CSV body formatted by one `%` operation and written by one call:
# large enough to amortise the per-block cost, small enough that the argument
# list and the formatted text stay well under a MiB.
ROWS_PER_WRITE = 4096


class AcquisitionMode(str, Enum):
    FAST = "fast"
    WAVEFORM = "waveform"


class VoltageRange(str, Enum):
    SENSITIVE = "sensitive"
    INSENSITIVE = "insensitive"


@dataclass(frozen=True)
class AcquisitionConfig:
    cycle_duration: float = 2.0  # s
    record_window: float = 1.0  # s, trailing
    sample_rate: float = 1000.0  # Sa/s
    filter_tau: float = 1e-3  # s
    carrier_freq: float = 1e6  # Hz, metadata only
    sigma_low: float = 3.4e-9  # V per reading, sensitive range
    sigma_high: float = 1.8e-4  # V per reading, insensitive range
    range_threshold: float = 1.0  # V
    drift_rate: float = 0.0  # V/s
    mode: AcquisitionMode = AcquisitionMode.FAST

    def __post_init__(self):
        if self.record_window > self.cycle_duration:
            raise ValueError("record_window must not exceed cycle_duration")
        settle = self.cycle_duration - self.record_window
        if settle < 20 * self.filter_tau:
            raise ValueError(
                f"settling time {settle} s too short for filter_tau {self.filter_tau} s"
            )
        if self.sample_rate * self.record_window < 2:
            raise ValueError("record window must contain at least 2 samples")
        if self.sigma_low < 0 or self.sigma_high < 0:
            raise ValueError("noise sigmas must be non-negative")

    @property
    def n_cycle_samples(self) -> int:
        return round(self.cycle_duration * self.sample_rate)

    @property
    def n_window_samples(self) -> int:
        return round(self.record_window * self.sample_rate)

    @property
    def window_mid_time(self) -> float:
        """Mean sample time of the record window, within the cycle."""
        t0 = self.cycle_duration - self.record_window
        return t0 + (self.n_window_samples - 1) / (2 * self.sample_rate)

    def insensitive(self, level):
        """Whether each level puts the instrument on the insensitive range."""
        return np.asarray(level) > self.range_threshold

    def sigma_reading_for(self, level):
        """Per-reading sigma of the range each level puts the instrument on."""
        sigma = np.where(self.insensitive(level), self.sigma_high, self.sigma_low)
        return float(sigma) if sigma.ndim == 0 else sigma


@dataclass(frozen=True, eq=False)
class Readings:
    """One reading per blinded cycle, in blinded order, and the range it was taken on."""

    values: np.ndarray  # float64, V
    insensitive: np.ndarray  # bool, True where the cycle ran on the insensitive range

    def __post_init__(self):
        if self.values.ndim != 1 or self.values.shape != self.insensitive.shape:
            raise ValueError("readings need one range flag per value")

    def __len__(self) -> int:
        return len(self.values)


def synthesize_cycle(
    prev_level,
    target_level,
    cfg: AcquisitionConfig,
    noise,
    first_sample: int = 0,
) -> np.ndarray:
    """Samples first_sample.. of a cycle: exponential settling + linear drift + noise.

    v(t_i) = target + (prev - target) exp(-t_i / tau) + drift_rate * t_i + eta_i
    with eta_i Gaussian at the per-sample sigma of the range the target level
    puts the instrument on. Levels may be arrays of shape (batch,), giving a
    (batch, n) block; `noise` holds the block's standard normals.
    """
    t = np.arange(first_sample, cfg.n_cycle_samples) / cfg.sample_rate
    prev = np.asarray(prev_level, dtype=float)[..., None]
    target = np.asarray(target_level, dtype=float)[..., None]
    v = target + (prev - target) * np.exp(-t / cfg.filter_tau)
    v += cfg.drift_rate * t
    sigma_sample = cfg.sigma_reading_for(target) * math.sqrt(cfg.n_window_samples)
    v += sigma_sample * noise
    return v


def reduce_cycle(block: np.ndarray, cfg: AcquisitionConfig):
    """One voltage per cycle: OLS line over the trailing window, evaluated at its midpoint.

    Equivalent to the mean of the slope-detrended window samples, so a drift
    term odd-symmetric about the midpoint cancels exactly. `block` has shape
    (..., n) with cycles along the last axis; a single cycle gives a float.
    """
    nw = cfg.n_window_samples
    block = np.asarray(block, dtype=float)
    if block.shape[-1] < nw:
        raise ValueError(f"block of {block.shape[-1]} samples shorter than window ({nw})")
    if nw < 2:
        raise ValueError("window must contain at least 2 samples")
    window = block[..., -nw:]
    t = np.arange(nw) / cfg.sample_rate
    tc = t - t.mean()
    # an elementwise product and sum, not a matrix product: BLAS may order a
    # row's sum differently by batch size, and a cycle must reduce the same alone
    slope = (window * tc).sum(axis=-1) / np.dot(tc, tc)
    detrended = window - slope[..., None] * tc
    reading = detrended.mean(axis=-1)
    return float(reading) if reading.ndim == 0 else reading


def fast_reading(expected, sigma, z):
    """Draw reduced readings directly from their sampling distribution.

    expected + sigma * z, elementwise, for standard normals z. Scalars give a
    float.
    """
    if np.any(np.asarray(sigma) < 0):
        raise ValueError(f"sigma {sigma} < 0")
    value = expected + sigma * z
    return float(value) if np.ndim(value) == 0 else value


def run_acquisition(
    blinded_bits: Sequence[int],
    fidelities: Sequence[float],
    params: NonlinearParams,
    cfg: AcquisitionConfig,
    noise_seed: int,
) -> Readings:
    """One reading per blinded bit, using the true per-bit source fidelity.

    `fidelities` is provenance: the simulator (playing the role of nature)
    knows each blinded position's source fidelity; analysis code never sees
    this array. Cycle i's noise is block i of the counter-addressed stream
    keyed by `noise_seed`, so readings do not depend on batching or on the
    number of cycles after them. In waveform mode the previous cycle's known
    target level seeds the settling transient (deterministic and
    parallelizable; the first cycle settles from 0 V).
    """
    bits = np.asarray(blinded_bits)
    fids = np.asarray(fidelities, dtype=float)
    if len(bits) != len(fids):
        raise ValueError(f"{len(bits)} bits but {len(fids)} provenance fidelities")

    levels = expected_reading(bits, fids, params)
    if cfg.mode is AcquisitionMode.FAST:
        values = _fast_values(levels, cfg, noise_seed)
    else:
        values = _waveform_values(levels, cfg, noise_seed)
    return Readings(values, cfg.insensitive(levels))


def _fast_values(levels: np.ndarray, cfg: AcquisitionConfig, noise_seed: int) -> np.ndarray:
    """Readings drawn from their sampling distribution, one normal per cycle."""
    z = cycle_rng(noise_seed, 0, len(levels), 1)[:, 0]
    return fast_reading(
        levels + cfg.drift_rate * cfg.window_mid_time, cfg.sigma_reading_for(levels), z
    )


def _waveform_values(levels: np.ndarray, cfg: AcquisitionConfig, noise_seed: int) -> np.ndarray:
    """Readings reduced from the synthesised record windows, WAVEFORM_BATCH_CYCLES at a time."""
    n = len(levels)
    nw = cfg.n_window_samples
    first_sample = cfg.n_cycle_samples - nw
    prev = np.concatenate(([0.0], levels[:-1]))
    values = np.empty(n)
    for lo in range(0, n, WAVEFORM_BATCH_CYCLES):
        hi = min(lo + WAVEFORM_BATCH_CYCLES, n)
        z = cycle_rng(noise_seed, lo, hi - lo, nw)
        block = synthesize_cycle(prev[lo:hi], levels[lo:hi], cfg, z, first_sample)
        values[lo:hi] = reduce_cycle(block, cfg)
    return values


_READINGS_HEADER = "blinded_index,reading_volts,range"
# the range words of the readings file, indexed by the insensitive flag
_RANGE_WORDS = np.array([r.value for r in VoltageRange], dtype=object)


def write_readings(readings: Readings, path: str | os.PathLike) -> None:
    words = _RANGE_WORDS[readings.insensitive.astype(np.intp)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_READINGS_HEADER + "\n")
        write_rows(fh, "%d,%.17e,%s\n", readings.values, words)


def read_readings(path: str | os.PathLike) -> Readings:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != _READINGS_HEADER:
            raise ValueError(f"{path}: unexpected readings header {header!r}")
        # 12 bytes: a longer word is cut to 12, which matches neither range word
        rows = read_blinded_rows(
            fh, path, [("pos", np.int64), ("value", np.float64), ("range", "S12")]
        )
    words = rows["range"]
    insensitive = words == VoltageRange.INSENSITIVE.value.encode()
    unknown = np.flatnonzero(~insensitive & (words != VoltageRange.SENSITIVE.value.encode()))
    if unknown.size:
        row = unknown[0]
        raise ValueError(f"{path}: row {row}: unknown range {words[row].decode('latin-1')!r}")
    return Readings(rows["value"], insensitive)


def write_rows(fh, row_format: str, *columns: np.ndarray) -> None:
    """Write one row per entry of the columns, each row as `row_format`.

    The format's first field is the row number; the columns fill the rest.
    ROWS_PER_WRITE rows are formatted by one `%` operation over a flat
    argument list built from the block's slices, and written by one call, so
    the Python objects alive at once are those of one block.
    """
    n = len(columns[0])
    width = len(columns) + 1
    for lo in range(0, n, ROWS_PER_WRITE):
        hi = min(lo + ROWS_PER_WRITE, n)
        args = [None] * ((hi - lo) * width)
        args[0::width] = range(lo, hi)
        for field, column in enumerate(columns, 1):
            args[field::width] = column[lo:hi].tolist()
        fh.write(row_format * (hi - lo) % tuple(args))


def read_blinded_rows(fh, path, dtype, error: type[Exception] = ValueError) -> np.ndarray:
    """The rest of a CSV file as one structured array whose first field must count the rows."""
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            rows = np.loadtxt(fh, delimiter=",", dtype=dtype, comments=None, ndmin=1)
    except ValueError as exc:
        raise error(f"{path}: {exc}") from exc
    pos = rows[rows.dtype.names[0]]
    misplaced = np.flatnonzero(pos != np.arange(len(pos)))
    if misplaced.size:
        row = misplaced[0]
        raise error(f"{path}: row {row}: blinded_index {pos[row]} out of order")
    return rows
