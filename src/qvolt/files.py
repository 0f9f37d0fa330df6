"""The file contract: the bytes of every file qvolt writes, and how they parse back.

The blinded summary is made before anyone reads key.csv, so the files the
steps hand each other are the experiment's contract. Every open, format and
parse of a file is here; the module that owns a table keeps its schema.

readings.csv and key.csv are tables (`write_table`): head lines, then per
blinded position its `blinded_index` and a field of each column. Beside a
table, `<csv>.cache` holds its columns in binary, with the sha256 of the CSV
and of its own payload. `read_table` takes the columns from a valid cache
and otherwise parses the CSV, so each reader has one path. Readers never
write a cache.
"""

from contextlib import contextmanager
import hashlib
import json
import os
from typing import Sequence
import warnings

import numpy as np


# Rows of a table built as arrays and written by one call (`write_table`): enough to
# amortise numpy's per-call cost, few enough that a block's arrays stay near 2 MiB.
CSV_BLOCK_ROWS = 8192
# Word bytes a block holds per row before it holds fewer rows than CSV_BLOCK_ROWS: each
# row's word is padded to the longest, so a block holds at most 128 KiB of words, ~0.5 MiB
# with the joined copies and their NUL test, what a block of short words takes for its ints.
BLOCK_WORD_BYTES = 16

# The dtype of each kind of column, parsed and cached; a text column's is that of its codes.
_DTYPES = {float: np.dtype(np.float64), int: np.dtype(np.int64), str: np.dtype(np.uint32)}

# The first line of a table's cache file; a cache with any other first line is ignored.
CACHE_TAG = b"qvolt csv cache 2\n"
# Bytes read per call while hashing a file: the whole file is never in memory at once.
HASH_CHUNK = 1 << 16


def write_text(path: str | os.PathLike, text: str) -> None:
    """Write text as UTF-8 with `\\n` line ends on every platform."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _savetxt(path: str | os.PathLike, header: str, fmt: str, *columns) -> None:
    """A header line, then one row of `fmt` per row of the columns, by one `np.savetxt` call."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        np.savetxt(fh, np.column_stack(columns), fmt=fmt, header=header, comments="")


def write_histogram(path: str | os.PathLike, hist) -> None:
    """A histogram CSV of an `analysis.HistogramResult`: each bin's edges, count and overlay."""
    _savetxt(path, "bin_left,bin_right,count,overlay_density", "%.15e,%.15e,%d,%.15e",
             hist.bin_edges[:-1], hist.bin_edges[1:], hist.counts, hist.overlay_density)


def write_band(path: str | os.PathLike, mc) -> None:
    """band.csv of an `analysis.MCResult`: the fit line and its Monte Carlo band."""
    _savetxt(path, "x,fit,lo,hi", "%.15e,%.15e,%.15e,%.15e",
             mc.band_x, mc.band_fit, mc.band_lo, mc.band_hi)


def cl_percent(cl: float) -> str:
    """The label of a confidence level in percent, as fit.csv and the reports print it."""
    return f"{cl * 100:.15g}"


def write_fit(path: str | os.PathLike, fit, mc, cl: float) -> None:
    """fit.csv: the fitted parameters and their sigmas, the bound at `cl`, the Monte Carlo sds."""
    write_text(path, "parameter,value,sigma\n"
               f"intercept_volts,{fit.intercept:.15e},{fit.sigma_intercept:.15e}\n"
               f"slope_volts,{fit.slope:.15e},{fit.sigma_slope:.15e}\n"
               f"eps,{fit.eps:.15e},{fit.sigma_eps:.15e}\n"
               f"bound_{cl_percent(cl)},{fit.bound_90:.15e},\n"
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


def read_table(path, n_head: int, check_head, kinds: Sequence[type]) -> tuple[list, list]:
    """The head lines of a table (`write_table`), and its columns from its cache or its parse.

    `check_head(path, lines)` raises ValueError for head lines that are not the
    table's, on both paths and before any row is parsed. Column c of kind kinds[c]
    is a float64 array for float, an int64 array for int, and for str (codes,
    words): uint32 codes and the distinct words they index. Each array owns its data.
    """
    with open_text(path) as fh:
        head = [fh.readline().rstrip("\n") for _ in range(n_head)]
        check_head(path, head)
        columns = read_cache(path, kinds)
        if columns is None:
            columns = parse_rows(path, fh, kinds)
    return head, columns


def parse_rows(path, fh, kinds: Sequence[type]) -> list:
    """The columns of the rows left in the open table `fh`, by one `np.loadtxt` pass.

    A text column's `_Codes` numbers its words as they are parsed. A field that does
    not parse, or a first field that does not count the rows, is a ValueError naming `path`.
    """
    codes = [_Codes() if kind is str else None for kind in kinds]
    dtype = [("blinded_index", np.int64)] + [(f"c{c}", _DTYPES[k]) for c, k in enumerate(kinds)]
    # with `encoding=None` a converter gets a `str` (numpy 1.x would default to latin-1 bytes)
    converters = {c + 1: words.__getitem__ for c, words in enumerate(codes) if words is not None}
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            rows = np.loadtxt(fh, delimiter=",", dtype=dtype, comments=None, ndmin=1,
                              converters=converters, encoding=None)
    except UnicodeDecodeError:
        raise  # open_text names the line
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    pos = rows["blinded_index"]
    misplaced = np.flatnonzero(pos != np.arange(len(pos)))
    if misplaced.size:
        row = misplaced[0]
        raise ValueError(f"{path}: row {row}: blinded_index {pos[row]} out of order")
    # contiguous copies, so the rows are freed on return
    return [rows[f"c{c}"].copy() if words is None else (rows[f"c{c}"].copy(), list(words))
            for c, words in enumerate(codes)]


class _Codes(dict):
    """Numbers each word the first time it is looked up: 0, 1, 2, ... in order of first sight."""

    def __missing__(self, word: str) -> int:
        self[word] = code = len(self)
        return code


def _column(column) -> tuple[type, np.ndarray, list | None]:
    """A column's kind, its values or codes as an array of the kind's dtype, and words or None."""
    if isinstance(column, tuple):
        return str, np.ascontiguousarray(column[0], _DTYPES[str]), list(column[1])
    kind = float if np.asarray(column).dtype.kind == "f" else int
    return kind, np.ascontiguousarray(column, _DTYPES[kind]), None


def write_table(path, head: str, columns: Sequence) -> None:
    """Write the `head` line(s), then row r = r,<column fields> for each r, then the cache.

    A float array's field is `%.17e`, a non-negative int array's `%d`, a text
    column (codes, words)'s words[codes[r]], which may hold no NUL. The rows are
    built, written and hashed a block at a time, so one block's arrays are the
    only memory added: CSV_BLOCK_ROWS rows, or fewer when the widest word is
    over BLOCK_WORD_BYTES.
    """
    kinds, arrays, words = zip(*map(_column, columns))
    tables = [None if w is None else byte_table([word.encode() for word in w]) for w in words]
    widest = max((table.shape[1] for table in tables if table is not None), default=0)
    block_rows = CSV_BLOCK_ROWS * BLOCK_WORD_BYTES // max(BLOCK_WORD_BYTES, widest)
    formats = {float: float_field, int: int_field}
    n = len(arrays[0])
    head_bytes = head.encode() + b"\n"
    digest = hashlib.sha256(head_bytes)
    with open(path, "wb") as fh:
        fh.write(head_bytes)
        for lo in range(0, n, block_rows):
            hi = min(lo + block_rows, n)
            fields = [int_field(np.arange(lo, hi))]
            fields += [formats[kind](a[lo:hi]) if table is None else table[a[lo:hi]].T
                       for a, kind, table in zip(arrays, kinds, tables)]
            block = _joined(fields)
            fh.write(block)
            digest.update(block)
    write_cache(path, digest.digest(), [a if w is None else (a, w) for a, w in zip(arrays, words)])


def _joined(fields: list[np.ndarray]) -> np.ndarray:
    """The bytes of the rows these fields make: each field and a comma, the last and a newline.

    A field is a (width, rows) uint8 array whose NUL bytes are padding, and are dropped.
    """
    n = fields[0].shape[1]
    parts = []
    for i, field in enumerate(fields):
        sep = b"," if i < len(fields) - 1 else b"\n"
        parts += [field, np.full((1, n), ord(sep), np.uint8)]
    # row-major order of the (rows, width) transpose: row after row, each field in turn
    rows = np.concatenate(parts).T.ravel()
    return rows[rows != 0]


def _digits(v: np.ndarray, out: np.ndarray) -> None:
    """The low len(out) decimal digits of uint32 v as ASCII, most significant in out[0]."""
    for row in out[::-1]:
        q = v // 10
        row[...] = v - q * 10
        v = q
    out += ord("0")


def int_field(values: np.ndarray) -> np.ndarray:
    """`%d` of non-negative integers: their digits, right-aligned, NUL over the leading zeros.

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
    # the last digit is kept, so 0 is `0`
    chars[:-1][np.logical_and.accumulate(chars[:-1] == ord("0"), axis=0)] = 0
    return chars


def byte_table(entries: Sequence[bytes]) -> np.ndarray:
    """The entries as (len(entries), longest) rows of bytes, each padded with NUL."""
    table = np.array(entries, dtype=bytes)
    return table.view(np.uint8).reshape(len(table), table.itemsize)


# |x| in [FLOAT_KERNEL_MIN, FLOAT_KERNEL_MAX): the window of the exact `%.17e`
# kernel, `_decimal18`. Its scales s = 17 - floor(log10 |x|) run over 0..27,
# and 5**27 < 2**63. It holds no zero and no subnormal.
FLOAT_KERNEL_MIN = 1e-10
FLOAT_KERNEL_MAX = 1e18
_POW5 = np.array([5**s for s in range(28)], dtype=np.uint64)


def float_field(x: np.ndarray) -> np.ndarray:
    """`%.17e` of finite floats, the same bytes as Python's `%` gives, NUL where it has none.

    Inside the kernel's window the 18 digits and the decade come from
    `_decimal18`; the few values outside it are formatted by `%` and spliced in.
    """
    ax = np.abs(x)
    exact = (ax >= FLOAT_KERNEL_MIN) & (ax < FLOAT_KERNEL_MAX)
    d, e = _decimal18(np.where(exact, ax, 1.0))
    # [-]d.ddddddddddddddddde+dd, and a 25th column for `%`'s three-digit exponents
    chars = np.empty((25, len(x)), np.uint8)
    chars[0] = np.where(np.signbit(x), ord("-"), 0)
    top = d // 10**9
    _digits(top.astype(np.uint32), chars[2:11])
    _digits((d - top * 10**9).astype(np.uint32), chars[11:20])
    chars[1] = chars[2]
    chars[2] = ord(".")
    chars[20] = ord("e")
    chars[21] = np.where(e < 0, ord("-"), ord("+"))
    _digits(np.abs(e).astype(np.uint32), chars[22:24])
    chars[24] = 0
    others = np.flatnonzero(~exact)
    if others.size:
        text = byte_table([b"%.17e" % v for v in x[others].tolist()]).T
        chars[:, others] = 0
        chars[:len(text), others] = text
    return chars


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


def write_cache(path: str | os.PathLike, csv_sha256: bytes, columns: Sequence) -> None:
    """Write the cache of the table just written at `path`, whose sha256 digest is `csv_sha256`.

    The cache is CACHE_TAG, the sha256 of the CSV's bytes and of the payload, then
    the payload: one JSON line that lists each column's dtype, length and words (null
    for a number column), then each column's array, a text column's codes as uint32.
    """
    _, arrays, words = zip(*map(_column, columns))
    layout = [[a.dtype.str, len(a), w] for a, w in zip(arrays, words)]
    meta = json.dumps(layout).encode() + b"\n"
    payload = hashlib.sha256(meta)
    for a in arrays:
        payload.update(a)
    with open(cache_path(path), "wb") as fh:
        fh.write(CACHE_TAG + csv_sha256 + payload.digest() + meta)
        for a in arrays:
            fh.write(a)


def read_cache(path: str | os.PathLike, kinds: Sequence[type]) -> list | None:
    """The columns cached for the table at `path`, or None if the cache does not hold them.

    The cache holds them when it exists, starts with CACHE_TAG, and records
    the sha256 of the CSV as it is now and of its own payload; and when its
    JSON line lists one [dtype, n, words] per kind: the kind's dtype, one n
    for all that makes the columns fill the payload, and words null for a
    number column and distinct str for a text column, each code indexing them.
    Each column is read into its own array, sized from the bytes left, and hashed on the way.
    """
    try:
        with open(cache_path(path), "rb") as fh:
            if fh.read(len(CACHE_TAG)) != CACHE_TAG or fh.read(32) != file_sha256(path):
                return None
            want, meta = fh.read(32), fh.readline()
            try:
                layout = json.loads(meta)
            except ValueError:
                return None
            n, extra = divmod(os.fstat(fh.fileno()).st_size - fh.tell(),
                              sum(_DTYPES[kind].itemsize for kind in kinds))
            if extra or not (isinstance(layout, list) and len(layout) == len(kinds)):
                return None
            payload = hashlib.sha256(meta)
            columns = []
            for entry, kind in zip(layout, kinds):
                if not (isinstance(entry, list) and len(entry) == 3
                        and entry[:2] == [_DTYPES[kind].str, n]
                        and (entry[2] is None) == (kind is not str)):
                    return None
                column = np.empty(n, _DTYPES[kind])
                if fh.readinto(column) != column.nbytes:
                    return None
                payload.update(column)
                if kind is str:
                    words = entry[2]
                    if not (isinstance(words, list) and all(isinstance(w, str) for w in words)
                            and len(set(words)) == len(words)) or (column >= len(words)).any():
                        return None
                    column = (column, words)
                columns.append(column)
            if fh.read(1) or payload.digest() != want:
                return None
    except OSError:  # no cache, or none readable; a CSV that cannot be read fails its parse
        return None
    return columns
