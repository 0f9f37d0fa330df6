"""Demodulated lock-in waveform synthesis and per-cycle reduction.

Everything here works on the demodulated (post-filter) signal. Each 2 s
switch cycle settles exponentially to its target level, drifts linearly, and
carries Gaussian noise whose size depends on the instrument range. Only the
trailing window of each cycle is recorded; the reading is the mean of the
window's samples. The OLS line through the window passes through (mean t,
mean v), so the mean is that line's value at the window's temporal midpoint,
and a drift term odd-symmetric about the midpoint cancels.

Noise configuration is per-reading: sigma_low / sigma_high are standard
deviations of the reduced reading. Waveform mode converts to per-sample
noise via sigma_sample = sigma_reading * sqrt(n_window_samples), so both
modes produce matched reading distributions.

Acquisition works on arrays of cycles. Cycle i's noise is the counter-
addressed block i of one Philox stream (`seeds.cycle_rng`): one normal per
cycle in fast mode, one per recorded sample in waveform mode. Waveform mode
synthesises only the recorded window, WAVEFORM_BATCH_CYCLES cycles at a time.
Batches are independent, so they are dealt out to one thread per usable CPU;
memory stays bounded at any run length, and every reading is the same
whatever the batching or thread count.

The readings file, readings.csv, is the contract between the steps.
`write_csv` builds its rows as numpy byte arrays, a block at a time, and
hashes them as it writes them. Then `write_readings` writes
`readings.csv.cache` beside it: the same arrays in binary, with that sha256
of the CSV bytes and the sha256 of its own payload (`write_cache`).
`read_readings` returns the cached arrays when the tag and both digests
match, and otherwise parses the CSV; either way it returns the same arrays
or raises the same error. Readers never write a cache.
"""

from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
import functools
import hashlib
import json
import math
import os
import threading
from typing import Sequence
import warnings

import numpy as np

from .model import NonlinearParams, expected_reading
from .seeds import cycle_rng


# Cycles synthesised per waveform batch: a batch's (16, n_window_samples)
# arrays keep peak memory flat while amortising the per-call overhead. On a
# 2-vCPU Xeon, 32 ran 10,071 cycles about 7% faster but raised the process's
# peak RSS by 1.2 MiB more.
WAVEFORM_BATCH_CYCLES = 16

# Rows of a CSV built as arrays and written by one call (`write_csv`): large
# enough to amortise numpy's per-call cost, small enough that the block's
# arrays stay near 2 MiB.
CSV_BLOCK_ROWS = 8192

# The first line of a CSV's cache file; a cache with any other first line is ignored.
CACHE_TAG = b"qvolt csv cache 1\n"
# Bytes read per call while hashing a file: the whole file is never in memory at once.
HASH_CHUNK = 1 << 16


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
    decay, drift = _time_terms(cfg, first_sample)
    prev = np.asarray(prev_level, dtype=float)[..., None]
    target = np.asarray(target_level, dtype=float)[..., None]
    sigma_sample = cfg.sigma_reading_for(target) * math.sqrt(cfg.n_window_samples)
    v = sigma_sample * noise
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
    reading = block[..., -nw:].mean(axis=-1)
    return float(reading) if reading.ndim == 0 else reading


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
    return levels + cfg.drift_rate * cfg.window_mid_time + cfg.sigma_reading_for(levels) * z


def _waveform_values(levels: np.ndarray, cfg: AcquisitionConfig, noise_seed: int) -> np.ndarray:
    """Readings reduced from the synthesised record windows, WAVEFORM_BATCH_CYCLES at a time.

    Each batch writes only its own slice of the readings, so the batches run
    on every usable CPU (`_on_workers`).
    """
    n = len(levels)
    nw = cfg.n_window_samples
    first_sample = cfg.n_cycle_samples - nw
    prev = np.concatenate(([0.0], levels[:-1]))
    values = np.empty(n)

    def acquire(batch_starts):
        for lo in batch_starts:
            hi = min(lo + WAVEFORM_BATCH_CYCLES, n)
            z = cycle_rng(noise_seed, lo, hi - lo, nw)
            block = synthesize_cycle(prev[lo:hi], levels[lo:hi], cfg, z, first_sample)
            values[lo:hi] = reduce_cycle(block, cfg)

    _on_workers(acquire, range(0, n, WAVEFORM_BATCH_CYCLES))
    return values


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _on_workers(fn, items: Sequence) -> None:
    """fn(share) for the items dealt round-robin into one share per usable CPU.

    The calling thread runs the first share and a new thread each other one.
    Every thread has ended when this returns, and an exception raised in any
    share is raised here. `fn` releases the GIL in its numpy and scipy calls,
    which is where the shares overlap.
    """
    k = min(_usable_cpus(), len(items))
    shares = [items[w::k] for w in range(k)]
    errors = []

    def run(share):
        try:
            fn(share)
        except BaseException as exc:  # raised by the caller once every thread has ended
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(share,)) for share in shares[1:]]
    for thread in threads:
        thread.start()
    try:
        for share in shares[:1]:
            fn(share)
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


_READINGS_HEADER = "blinded_index,reading_volts,range"
# the range words of the readings file, indexed by the insensitive flag
_RANGE_WORDS = (b"sensitive", b"insensitive")


def write_readings(readings: Readings, path: str | os.PathLike) -> None:
    """Write readings.csv, then its cache, which holds the arrays `read_readings` returns.

    A reading that is not finite raises ValueError before the file is opened,
    as `read_readings` would reject it.
    """
    _finite_readings(path, readings.values, readings.insensitive)
    values = np.asarray(readings.values, dtype=np.float64)
    insensitive = np.asarray(readings.insensitive, dtype=bool)
    words = byte_table(_RANGE_WORDS)

    def rows(lo, hi):
        return [int_field(np.arange(lo, hi)), float_field(values[lo:hi]),
                text_field(words, insensitive[lo:hi])]

    digest = write_csv(path, _READINGS_HEADER, len(values), rows)
    write_cache(path, digest, {}, {"values": values, "insensitive": insensitive})


def read_readings(path: str | os.PathLike) -> Readings:
    cached = read_cache(path, {"values": np.float64, "insensitive": bool})
    if cached is not None:
        arrays = cached[1]
        return _finite_readings(path, arrays["values"], arrays["insensitive"])
    with open_text(path) as fh:
        header = fh.readline().rstrip("\n")
        if header != _READINGS_HEADER:
            raise ValueError(f"{path}: unexpected readings header {header!r}")
        # 12 bytes: a longer word is cut to 12, which matches neither range word
        rows = read_blinded_rows(
            fh, path, [("pos", np.int64), ("value", np.float64), ("range", "S12")]
        )
    words = rows["range"]
    insensitive = words == b"insensitive"
    unknown = np.flatnonzero(~insensitive & (words != b"sensitive"))
    if unknown.size:
        row = unknown[0]
        raise ValueError(f"{path}: row {row}: unknown range {words[row].decode('latin-1')!r}")
    # a contiguous copy, so the row array is freed on return
    return _finite_readings(path, rows["value"].copy(), insensitive)


def _finite_readings(path, values: np.ndarray, insensitive: np.ndarray) -> Readings:
    non_finite = np.flatnonzero(~np.isfinite(values))
    if non_finite.size:
        row = non_finite[0]
        raise ValueError(f"{path}: row {row}: reading {values[row]} is not finite")
    return Readings(values, insensitive)


def write_csv(
    path: str | os.PathLike, header: str, n: int, rows, block_rows: int = CSV_BLOCK_ROWS
) -> bytes:
    """Write a header line and n rows to the file at `path`; return the sha256 of its bytes.

    `rows(lo, hi)` gives the fields of rows lo..hi-1, each a pair (chars, keep)
    of (width, hi - lo) arrays: column r of `chars` holds row r's field
    padded to the width, and column r of `keep` marks the bytes that are the
    field's. The fields are joined by commas and each row ends in a newline.
    `block_rows` rows are built, written and hashed at a time, so one
    block's arrays are the only memory the writer adds.
    """
    head = header.encode() + b"\n"
    digest = hashlib.sha256(head)
    with open(path, "wb") as fh:
        fh.write(head)
        for lo in range(0, n, block_rows):
            block = _joined(rows(lo, min(lo + block_rows, n)))
            fh.write(block)
            digest.update(block)
    return digest.digest()


def _joined(fields: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """The bytes of the rows these fields make: each field and a comma, the last and a newline."""
    n = fields[0][0].shape[1]
    chars, keep = [], []
    for i, (field_chars, field_keep) in enumerate(fields):
        sep = b"," if i < len(fields) - 1 else b"\n"
        chars += [field_chars, np.full((1, n), ord(sep), np.uint8)]
        keep += [field_keep, np.ones((1, n), bool)]
    # row-major order of the (rows, width) transpose: row after row, each field in turn
    return np.concatenate(chars).T[np.concatenate(keep).T]


def _digits(v: np.ndarray, out: np.ndarray) -> None:
    """The low len(out) decimal digits of uint32 v as ASCII, most significant in out[0]."""
    for row in out[::-1]:
        q = v // 10
        row[...] = v - q * 10
        v = q
    out += ord("0")


def int_field(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`%d` of non-negative integers: their digits, right-aligned, leading zeros not kept.

    The digits come from 9-digit uint32 limbs, split off in uint64.
    """
    v = np.asarray(values).astype(np.uint64)
    width = len(str(int(v.max())))
    chars = np.empty((width, len(v)), np.uint8)
    end = width
    while end > 9:
        q = v // 10**9
        _digits((v - q * 10**9).astype(np.uint32), chars[end - 9:end])
        v, end = q, end - 9
    _digits(v.astype(np.uint32), chars[:end])
    keep = np.logical_or.accumulate(chars != ord("0"), axis=0)
    keep[-1] = True
    return chars, keep


def byte_table(entries: Sequence[bytes]) -> tuple[np.ndarray, np.ndarray]:
    """The entries as (len(entries), longest) rows of bytes, and the mask of each one's length."""
    lengths = np.array([len(entry) for entry in entries], dtype=np.intp)
    held = np.arange(lengths.max(initial=0)) < lengths[:, None]
    lut = np.zeros(held.shape, np.uint8)
    lut[held] = np.frombuffer(b"".join(entries), np.uint8)
    return lut, held


def text_field(
    table: tuple[np.ndarray, np.ndarray], code: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The bytes of entry code[r] of a `byte_table` for each row r, kept by the entry's length.

    Padding is dropped by width, never by value, so an entry may hold any byte.
    """
    lut, held = table
    code = np.asarray(code, dtype=np.intp)
    return lut.take(code, axis=0).T, held.take(code, axis=0).T


# |x| in [FLOAT_KERNEL_MIN, FLOAT_KERNEL_MAX): the window of the exact `%.17e`
# kernel, `_decimal18`. Its scales s = 17 - floor(log10 |x|) run over 0..27,
# and 5**27 < 2**63. It holds no zero and no subnormal.
FLOAT_KERNEL_MIN = 1e-10
FLOAT_KERNEL_MAX = 1e18
_POW5 = np.array([5**s for s in range(28)], dtype=np.uint64)


def float_field(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`%.17e` of finite floats, the same bytes as Python's `%` gives.

    Inside the kernel's window the 18 digits and the decade come from
    `_decimal18`; the few values outside it are formatted by `%` and spliced in.
    """
    ax = np.abs(x)
    exact = (ax >= FLOAT_KERNEL_MIN) & (ax < FLOAT_KERNEL_MAX)
    d, e = _decimal18(np.where(exact, ax, 1.0))
    # [-]d.ddddddddddddddddde+dd, and a 25th column for `%`'s three-digit exponents
    chars = np.empty((25, len(x)), np.uint8)
    chars[0] = ord("-")
    top = d // 10**9
    _digits(top.astype(np.uint32), chars[2:11])
    _digits((d - top * 10**9).astype(np.uint32), chars[11:20])
    chars[1] = chars[2]
    chars[2] = ord(".")
    chars[20] = ord("e")
    chars[21] = np.where(e < 0, ord("-"), ord("+"))
    _digits(np.abs(e).astype(np.uint32), chars[22:24])
    keep = np.ones(chars.shape, bool)
    keep[0] = np.signbit(x)
    keep[24] = False
    others = np.flatnonzero(~exact)
    if others.size:
        text = [b"%.17e" % v for v in x[others].tolist()]
        text_chars, text_keep = text_field(byte_table(text), np.arange(len(text)))
        chars[:len(text_chars), others] = text_chars
        keep[:, others] = False
        keep[:len(text_keep), others] = text_keep
    return chars, keep


def _decimal18(ax: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 18 digits D and the decade e of `%.17e` of each |x| in the kernel's window.

    D = round_half_even(|x| * 10**s) with s = 17 - e. x = M * 2**E exactly, so
    D = round_half_even(M * 5**s * 2**(E + s)), all in integers (`_scaled`).
    log10 gives e, but it may be one off next to
    a power of ten: an e whose unrounded D falls outside [10**17, 10**18) is
    moved by one and D recomputed. D never rounds up to 10**18, which would
    take a double in the window less than 10**p * 5e-19 below some 10**p;
    none lies that close.
    """
    bits = ax.view(np.uint64)
    m = (bits & (2**52 - 1)) | 2**52
    exp2 = (bits >> 52).astype(np.int64) - 1075
    # the window holds the true decade, so clipping only moves e towards it
    s = 17 - np.clip(np.floor(np.log10(ax)), -10, 17).astype(np.int64)
    q, up = _scaled(m, exp2, s)
    while (wrong := np.flatnonzero((q < 10**17) | (q >= 10**18))).size:
        s[wrong] += np.where(q[wrong] < 10**17, 1, -1)
        q[wrong], up[wrong] = _scaled(m[wrong], exp2[wrong], s[wrong])
    return q + up, 17 - s


def _scaled(m: np.ndarray, exp2: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """floor(m * 10**s * 2**exp2), and whether rounding it half to even adds one.

    m < 2**53 and 5**s < 2**63, so m * 5**s is formed exactly, in two uint64
    halves (hi, lo) from 32-bit limbs; the result, under 2**64, is that
    product shifted by exp2 + s bits.
    """
    b = _POW5[s]
    a0, a1, b0, b1 = m & 0xFFFFFFFF, m >> 32, b & 0xFFFFFFFF, b >> 32
    low = a0 * b0
    mid = a1 * b0 + a0 * b1  # < 2**53 + 2**63
    lo = low + (mid << 32)
    hi = a1 * b1 + (mid >> 32) + (lo < low)
    t = exp2 + s
    # bits shifted out, at least 1 so that hi << (64 - k) is defined; at most 60 in the window
    k = np.maximum(-t, 1).astype(np.uint64)
    q = (hi << (64 - k)) | (lo >> k)
    rem = lo & ((np.uint64(1) << k) - 1)
    half = np.uint64(1) << (k - 1)
    up = (rem > half) | ((rem == half) & ((q & 1) == 1))
    left = t >= 0  # then hi is 0, and the shift left is exact
    q[left] = lo[left] << t[left].astype(np.uint64)
    up[left] = False
    return q, up


def file_sha256(path: str | os.PathLike) -> bytes:
    """The sha256 digest of a file's bytes, read HASH_CHUNK bytes at a time."""
    digest = hashlib.sha256()
    chunk = bytearray(HASH_CHUNK)
    view = memoryview(chunk)
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(chunk):
            digest.update(view[:n])
    return digest.digest()


def cache_path(path: str | os.PathLike) -> str:
    """Where the cache of the CSV at `path` lives: beside it, with `.cache` appended."""
    return os.fspath(path) + ".cache"


def write_cache(
    path: str | os.PathLike, csv_sha256: bytes, fields: dict, arrays: dict[str, np.ndarray]
) -> None:
    """Write the cache of the CSV just written at `path`, whose bytes have the digest `csv_sha256`.

    The cache is CACHE_TAG, the sha256 of the CSV's bytes, the sha256
    of the payload, then the payload: one JSON line of `fields` and each
    array's name, dtype and length, followed by the arrays' bytes in order.
    """
    arrays = {name: np.ascontiguousarray(a) for name, a in arrays.items()}
    layout = [[name, a.dtype.str, len(a)] for name, a in arrays.items()]
    meta = json.dumps({"fields": fields, "arrays": layout}).encode() + b"\n"
    payload = hashlib.sha256(meta)
    for a in arrays.values():
        payload.update(a)
    with open(cache_path(path), "wb") as fh:
        fh.write(CACHE_TAG + csv_sha256 + payload.digest() + meta)
        for a in arrays.values():
            fh.write(a)


def read_cache(
    path: str | os.PathLike, dtypes: dict
) -> tuple[dict, dict[str, np.ndarray]] | None:
    """The fields and arrays cached for the CSV at `path`, or None if the cache does not hold them.

    The cache holds them when it exists, starts with CACHE_TAG, records the
    sha256 of the CSV as it is now and the sha256 of its own payload, and
    lists exactly the arrays named in `dtypes`, with those dtypes. Each array
    returned owns its data.
    """
    try:
        with open(cache_path(path), "rb") as fh:
            if fh.read(len(CACHE_TAG)) != CACHE_TAG or fh.read(32) != file_sha256(path):
                return None
            want = fh.read(32)
            payload = fh.read()
    except OSError:  # no cache, or none readable; a CSV that cannot be read fails its parse
        return None
    if hashlib.sha256(payload).digest() != want:
        return None
    start = payload.index(b"\n") + 1
    meta = json.loads(payload[:start])
    if [a[:2] for a in meta["arrays"]] != [[name, np.dtype(d).str] for name, d in dtypes.items()]:
        return None
    arrays = {}
    for name, dtype, n in meta["arrays"]:
        arrays[name] = np.frombuffer(payload, dtype, n, start).copy()
        start += arrays[name].nbytes
    return meta["fields"], arrays


@contextmanager
def open_text(path: str | os.PathLike):
    """Open a file as UTF-8 text; a byte that does not decode is a ValueError naming its line."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            with open(path, "rb") as raw:
                data = raw.read()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:
                line = data.count(b"\n", 0, exc.start) + 1
                raise ValueError(f"{path}: line {line}: not UTF-8 text ({exc.reason})") from None
            raise


def read_blinded_rows(fh, path, dtype, converters=None) -> np.ndarray:
    """The rest of a CSV file as one structured array whose first field must count the rows.

    A field that does not parse, or a first field out of order, is a
    ValueError naming `path` (and the row, when out of order).
    `converters` maps a column to a function of its field's text, as in `np.loadtxt`.
    `encoding=None` hands each converter a `str`; numpy before 2.0 defaults to
    "bytes" and would hand it latin-1 bytes.
    """
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            rows = np.loadtxt(
                fh,
                delimiter=",",
                dtype=dtype,
                comments=None,
                ndmin=1,
                converters=converters,
                encoding=None,
            )
    except UnicodeDecodeError:
        raise  # open_text names the line
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    pos = rows[rows.dtype.names[0]]
    misplaced = np.flatnonzero(pos != np.arange(len(pos)))
    if misplaced.size:
        row = misplaced[0]
        raise ValueError(f"{path}: row {row}: blinded_index {pos[row]} out of order")
    return rows
