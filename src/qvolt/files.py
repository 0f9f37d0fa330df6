"""The file contract: the bytes of every file qvolt writes, and how they parse back.

The blinded summary is made before anyone reads key.csv, so the files the
steps hand each other are the experiment's contract. Every open, format and
parse of a file is here; the module that owns a table keeps its schema.

`write_csv` writes a CSV, then `<csv>.cache` beside it: the arrays the CSV's
reader returns, in binary, with the sha256 of the CSV and of its own payload.
A reader takes them when `read_cache` finds them valid, and otherwise parses
the CSV (`read_rows`), to the same arrays or the same error. Readers never
write a cache.
"""

from contextlib import contextmanager
import hashlib
import json
import os
from typing import Sequence
import warnings

import numpy as np


# Rows of a CSV built as arrays and written by one call (`write_csv`): enough to
# amortise numpy's per-call cost, few enough that a block's arrays stay near 2 MiB.
CSV_BLOCK_ROWS = 8192

# The first line of a CSV's cache file; a cache with any other first line is ignored.
CACHE_TAG = b"qvolt csv cache 1\n"
# Bytes read per call while hashing a file: the whole file is never in memory at once.
HASH_CHUNK = 1 << 16


def write_text(path: str | os.PathLike, text: str) -> None:
    """Write text as UTF-8 with `\\n` line ends on every platform."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_table(path: str | os.PathLike, header: str, fmt: str, *columns) -> None:
    """A header line, then one row of `fmt` per row of the columns, by one `np.savetxt` call."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        np.savetxt(fh, np.column_stack(columns), fmt=fmt, header=header, comments="")


def write_histogram(path: str | os.PathLike, hist) -> None:
    """A histogram CSV of an `analysis.HistogramResult`: each bin's edges, count and overlay."""
    _write_table(path, "bin_left,bin_right,count,overlay_density", "%.15e,%.15e,%d,%.15e",
                 hist.bin_edges[:-1], hist.bin_edges[1:], hist.counts, hist.overlay_density)


def write_band(path: str | os.PathLike, mc) -> None:
    """band.csv of an `analysis.MCResult`: the fit line and its Monte Carlo band."""
    _write_table(path, "x,fit,lo,hi", "%.15e,%.15e,%.15e,%.15e",
                 mc.band_x, mc.band_fit, mc.band_lo, mc.band_hi)


def write_fit(path: str | os.PathLike, fit, mc, cl: float) -> None:
    """fit.csv: the fitted parameters and their sigmas, the bound at `cl`, the Monte Carlo sds."""
    write_text(path, "parameter,value,sigma\n"
               f"intercept_volts,{fit.intercept:.15e},{fit.sigma_intercept:.15e}\n"
               f"slope_volts,{fit.slope:.15e},{fit.sigma_slope:.15e}\n"
               f"eps,{fit.eps:.15e},{fit.sigma_eps:.15e}\n"
               f"bound_{int(round(cl * 100))},{fit.bound_90:.15e},\n"
               f"mc_sd_slope_volts,{mc.sd_slope:.15e},\n"
               f"mc_sd_intercept_volts,{mc.sd_intercept:.15e},\n")


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


def read_rows(path, n_head: int, check_head, dtype, converters=None) -> tuple[list, np.ndarray]:
    """The first n_head lines of a CSV, and the rest as one structured array.

    `check_head(path, lines)` raises ValueError for head lines that are not
    the table's, before the rows are parsed. A field that does not parse, or
    a first field that does not count the rows, is a ValueError naming `path`.
    `converters` maps a column to a function of its field's text; with
    `encoding=None` it gets a `str` (numpy 1.x would default to latin-1 bytes).
    """
    with open_text(path) as fh:
        head = [fh.readline().rstrip("\n") for _ in range(n_head)]
        check_head(path, head)
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                rows = np.loadtxt(fh, delimiter=",", dtype=dtype, comments=None, ndmin=1,
                                  converters=converters, encoding=None)
        except UnicodeDecodeError:
            raise  # open_text names the line
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    pos = rows[rows.dtype.names[0]]
    misplaced = np.flatnonzero(pos != np.arange(len(pos)))
    if misplaced.size:
        row = misplaced[0]
        raise ValueError(f"{path}: row {row}: blinded_index {pos[row]} out of order")
    return head, rows


def write_csv(path, header: str, n: int, rows, cached: dict, fields: dict | None = None,
              block_rows: int = CSV_BLOCK_ROWS) -> None:
    """Write a header line and n rows to the file at `path`, then its cache.

    `rows(lo, hi)` gives the fields of rows lo..hi-1, each a pair (chars, keep)
    of (width, hi - lo) arrays: column r of `chars` holds row r's field
    padded to the width, and column r of `keep` marks the bytes that are the
    field's. The fields are joined by commas and each row ends in a newline.
    `block_rows` rows are built, written and hashed at a time, so one block's
    arrays are the only memory added. The cache holds `cached` and `fields`.
    """
    head = header.encode() + b"\n"
    digest = hashlib.sha256(head)
    with open(path, "wb") as fh:
        fh.write(head)
        for lo in range(0, n, block_rows):
            block = _joined(rows(lo, min(lo + block_rows, n)))
            fh.write(block)
            digest.update(block)
    write_cache(path, digest.digest(), fields or {}, cached)


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
    path: str | os.PathLike, dtypes: dict, fields: dict | None = None
) -> tuple[dict, dict[str, np.ndarray]] | None:
    """The fields and arrays cached for the CSV at `path`, or None if the cache does not hold them.

    The cache holds them when it exists, starts with CACHE_TAG, and records
    the sha256 of the CSV as it is now and the sha256 of its own payload;
    and when its JSON line is an object of exactly `fields` and `arrays`,
    whose fields are exactly the names in `fields`, each of the type given
    there, and whose arrays are exactly those named in `dtypes`, with those
    dtypes, and fill the payload. Each array returned owns its data.
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
    start = payload.find(b"\n") + 1
    try:
        meta = json.loads(payload[:start])
    except ValueError:
        return None
    if not isinstance(meta, dict) or meta.keys() != {"fields", "arrays"}:
        return None
    got, layout, fields = meta["fields"], meta["arrays"], fields or {}
    names = [[name, np.dtype(d).str] for name, d in dtypes.items()]
    if not (isinstance(got, dict) and got.keys() == fields.keys()
            and all(isinstance(got[name], kind) for name, kind in fields.items())
            and isinstance(layout, list) and len(layout) == len(names)
            and all(isinstance(a, list) and len(a) == 3 and a[:2] == name
                    and type(a[2]) is int and a[2] >= 0 for a, name in zip(layout, names))
            and start + sum(np.dtype(d).itemsize * n for _, d, n in layout) == len(payload)):
        return None
    arrays = {}
    for name, dtype, n in layout:
        arrays[name] = np.frombuffer(payload, dtype, n, start).copy()
        start += arrays[name].nbytes
    return got, arrays
