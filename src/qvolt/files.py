"""The file contract: the bytes of every file qvolt writes, and how they parse back.

The blinded summary is made before anyone reads key.csv, so the files the
steps hand each other are the experiment's contract. Every open, format and
parse of a file is here; the module that owns a table keeps its schema.

readings.csv and key.csv are tables (`write_table`): a header line, then per
blinded position a field of each column, so row r is blinded position r.
Beside a table, `<csv>.cache` holds each text column's words and every column
in little-endian binary, with the sha256 of the CSV and of its own payload.
`read_table` takes the columns from a valid cache and otherwise parses the
CSV, so each reader has one path. Readers never write a cache. A writer or
reader returns the digests of what it wrote or read, by path: the CSV's
sha256, hashed once, and the cache's payload sha256 when the columns went to
or came from the cache. `seal` records them in seal.json, beside the tables,
and `check_seal` checks them there, so an edit to a cache is refused as an
edit to its CSV is. `write_table` removes that seal before it writes.
"""

from contextlib import contextmanager, suppress
import hashlib
import json
import os
from typing import Sequence
import warnings

import numpy as np


# Rows of a table built as arrays and written by one call (`write_table`): enough to
# amortise numpy's per-call cost, few enough that a block's arrays stay under 1 MiB
# (a readings.csv block, the `%.17e` kernel's temporaries included, peaks at 0.80 MiB).
CSV_BLOCK_ROWS = 8192
# Word bytes a block holds per row before it holds fewer rows than CSV_BLOCK_ROWS (and at
# least one): each row's word is padded to the longest, so a block holds at most 128 KiB of
# words, and a key.csv block of 16-byte ids peaks at 0.71 MiB, under a readings.csv block.
BLOCK_WORD_BYTES = 16

# The dtype of each kind of column, parsed and cached; a text column's is that of its codes.
# A cache does not record them, so their byte order is spelled out.
_DTYPES = {float: np.dtype("<f8"), int: np.dtype("<i4"), str: np.dtype("<u4")}

# The first line of a table's cache file; a cache with any other first line is ignored.
CACHE_TAG = b"qvolt csv cache 4\n"
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


def read_table(path, header: str, kinds: Sequence[type]) -> tuple[list, dict[str, bytes]]:
    """The columns of a table (`write_table`) whose first line is `header`, and their digests.

    A first line other than `header` is a ValueError, raised before the CSV is
    hashed or any row is parsed. The CSV is hashed once, then its columns come
    from its cache or its parse. The digests are {path: the CSV's sha256}, and on
    a cache hit also {cache path: the sha256 of the cache's payload}. Column c of
    kind kinds[c] is a float64 array for float, an int32 array for int, and for
    str (codes, words): uint32 codes and the distinct words they index. Each array
    holds no memory but its own. A negative int is a ValueError naming its row and column.
    """
    with open_text(path) as fh:
        line = fh.readline().rstrip("\n")
        if line != header:
            raise ValueError(f"{path}: unexpected header {line!r}")
        digests = {path: file_sha256(path)}
        cached = read_cache(path, digests[path], kinds)
        if cached is None:
            columns = parse_rows(path, fh, kinds)
        else:
            columns, digests[cache_path(path)] = cached
    for name, kind, column in zip(header.split(","), kinds, columns):
        if kind is int and column.size and column.min() < 0:
            raise ValueError(f"{path}: blinded position {(column < 0).argmax()}: {name} < 0")
    return columns, digests


def parse_rows(path, fh, kinds: Sequence[type]) -> list:
    """The columns of the rows left in the open table `fh`, by one `np.loadtxt` pass.

    A text column's `_Codes` numbers its words as they are parsed. A field that does
    not parse is a ValueError naming `path`.
    """
    codes = [_Codes() if kind is str else None for kind in kinds]
    dtype = [(f"c{c}", _DTYPES[k]) for c, k in enumerate(kinds)]
    # with `encoding=None` a converter gets a `str` (numpy 1.x would default to latin-1 bytes)
    converters = {c: words.__getitem__ for c, words in enumerate(codes) if words is not None}
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            rows = np.loadtxt(fh, delimiter=",", dtype=dtype, comments=None, ndmin=1,
                              converters=converters, encoding=None)
    except UnicodeDecodeError:
        raise  # open_text names the line
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    # a lone column is the rows' one field, contiguous already; others are copied out of them
    columns = [np.ascontiguousarray(rows[f"c{c}"]) for c in range(len(kinds))]
    return [a if words is None else (a, list(words)) for a, words in zip(columns, codes)]


class _Codes(dict):
    """Numbers each word the first time it is looked up: 0, 1, 2, ... in order of first sight."""

    def __missing__(self, word: str) -> int:
        self[word] = code = len(self)
        return code


def _column(column) -> tuple[type, np.ndarray, list | None]:
    """A column's kind, its values or codes as given (converted where used), and its words."""
    if isinstance(column, tuple):
        return str, np.asarray(column[0]), list(column[1])
    column = np.asarray(column)
    return float if column.dtype.kind == "f" else int, column, None


def _check_columns(path, header: str, kinds, arrays, words) -> None:
    """A ValueError naming `path` unless `read_table` reads these columns back as they are.

    They need a one-line header of a name each, one length, each int in [0, 2**31), and
    each text column's codes in [0, len(words)), its words distinct and free of commas,
    line breaks and NULs (the padding), and none empty if its row would be blank.
    """
    names, lengths = header.split(","), [len(a) for a in arrays]
    if len(names) != len(arrays) or len(set(lengths)) > 1 or any(c in header for c in "\n\r\0"):
        raise ValueError(f"{path}: columns {header!r} of lengths {lengths}: need one length and "
                         "a one-line header of a name each")
    for name, kind, a, w in zip(names, kinds, arrays, words):
        for word in w or ():
            if any(c in word for c in ",\n\r\0"):
                raise ValueError(f"{path}: {name} {word!r} holds a comma, a line break or a NUL")
        if w is not None and (len(set(w)) < len(w) or ("" in w and len(arrays) == 1)):
            raise ValueError(f"{path}: {name} words {w!r} repeat, or leave a row blank")
        top, what = (2**31, name) if w is None else (len(w), f"{name} code")
        if kind is not float and len(a) and (a.min() < 0 or a.max() >= top):  # none wraps
            r = ((a < 0) | (a >= top)).argmax()
            raise ValueError(f"{path}: blinded position {r}: {what} {a[r]} outside 0..{top - 1}")


def write_table(path, header: str, columns: Sequence) -> dict[str, bytes]:
    """Write the `header` line, then row r = <column fields of r> for each r, then the cache.

    A float array's field is `%.17e`, an int array's `%d`, a text column (codes,
    words)'s words[codes[r]]; columns `_check_columns` refuses are a ValueError before
    any file is touched. The rows are built, written and hashed a block at a time, so
    one block's arrays are the only memory added: CSV_BLOCK_ROWS rows, or fewer when the
    widest word is over BLOCK_WORD_BYTES. The seal beside `path` goes first: a write that
    fails leaves none, not one that records the table it replaced. Returns {path: the
    CSV's sha256, cache path: the sha256 of the cache's payload}.
    """
    kinds, arrays, words = zip(*map(_column, columns))
    _check_columns(path, header, kinds, arrays, words)
    # a text column's words, NUL-padded to one width, so a row's word is one item's bytes
    tables = [None if w is None else np.array([x.encode() for x in w], bytes) for w in words]
    widest = max((table.itemsize for table in tables if table is not None), default=0)
    block_rows = max(1, CSV_BLOCK_ROWS * BLOCK_WORD_BYTES // max(BLOCK_WORD_BYTES, widest))
    formats = {float: float_field, int: int_field}
    n = len(arrays[0])
    header_bytes = header.encode() + b"\n"
    digest = hashlib.sha256(header_bytes)
    with suppress(FileNotFoundError):
        os.remove(os.path.join(os.path.dirname(path), SEAL_NAME))
    with open(path, "wb") as fh:
        fh.write(header_bytes)
        for lo in range(0, n, block_rows):
            hi = min(lo + block_rows, n)
            fields = []
            for a, kind, table in zip(arrays, kinds, tables):
                block = np.asarray(a[lo:hi], _DTYPES[kind])
                fields.append(formats[kind](block) if table is None else
                              table[block].view(np.uint8).reshape(-1, table.itemsize).T)
            # each field's bytes and a comma, the last field's and a newline; NUL is padding
            rows = np.full((hi - lo, sum(map(len, fields)) + len(fields)), ord(","), np.uint8)
            at = 0
            for field in fields:
                rows[:, at:at + len(field)] = field.T
                at += len(field) + 1
            rows[:, -1] = ord("\n")
            # rebound to the kept bytes, so the full array is gone before the next block
            rows = rows.ravel()
            rows = rows[rows != 0]
            fh.write(rows)
            digest.update(rows)
            del fields, rows  # so the next block is built without this one's bytes
    sha256 = digest.digest()
    return {path: sha256, cache_path(path): write_cache(path, sha256, columns)}


def _digits(v: np.ndarray, out: np.ndarray) -> None:
    """The low len(out) decimal digits of uint32 v as ASCII, most significant in out[0]."""
    for row in out[::-1]:
        q = v // 10
        row[...] = v - q * 10
        v = q
    out += ord("0")


def int_field(values: np.ndarray) -> np.ndarray:
    """`%d` of integers in [0, 2**32): their digits, right-aligned, NUL over the leading zeros."""
    values = np.asarray(values).astype(np.uint32)
    width = len(str(int(values.max())))
    chars = np.empty((width, len(values)), np.uint8)
    _digits(values, chars)
    # a digit above a value's highest is NUL; the last is kept, so 0 is `0`
    chars[:-1] *= values >= 10 ** np.arange(width - 1, 0, -1, dtype=np.uint32)[:, None]
    return chars


# |x| in [FLOAT_KERNEL_MIN, FLOAT_KERNEL_MAX): the window of the exact `%.17e`
# kernel, `_decimal18`. Its scales s = 17 - floor(log10 |x|) run over 4..27,
# and 5**27 < 2**63. It holds no zero and no subnormal, and every reading of
# `run` but those within 1e-10 V of zero.
FLOAT_KERNEL_MIN = 1e-10
FLOAT_KERNEL_MAX = 1e14
_POW5 = np.array([5**s for s in range(28)], dtype=np.uint64)


def float_field(x: np.ndarray) -> np.ndarray:
    """`%.17e` of finite floats, the same bytes as Python's `%` gives, NUL where it has none.

    Inside the kernel's window the 18 digits and the decade come from
    `_decimal18`; the few values outside it are formatted by `%` and spliced in.
    """
    ax = np.abs(x)
    exact = (ax >= FLOAT_KERNEL_MIN) & (ax < FLOAT_KERNEL_MAX)
    np.copyto(ax, 1.0, where=~exact)
    d, e = _decimal18(ax)
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
        text = np.array([b"%.17e" % v for v in x[others].tolist()], bytes)
        text = text.view(np.uint8).reshape(len(text), text.itemsize).T
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
    m = bits & (2**52 - 1)
    m |= 2**52
    exp2 = (bits >> 52).view(np.int64)
    exp2 -= 1075
    # the window holds the true decade, so clipping only moves e towards it
    s = np.log10(ax)
    s = np.clip(np.floor(s, out=s), -10, 17, out=s).astype(np.int64)
    np.subtract(17, s, out=s)
    q, up = _scaled(m, exp2, s)
    while (wrong := np.flatnonzero((q < 10**17) | (q >= 10**18))).size:
        s[wrong] += np.where(q[wrong] < 10**17, 1, -1)
        q[wrong], up[wrong] = _scaled(m[wrong], exp2[wrong], s[wrong])
    q += up
    return q, np.subtract(17, s, out=s)


def _scaled(m: np.ndarray, exp2: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """floor(m * 10**s * 2**exp2), and whether rounding it half to even adds one.

    m < 2**53 and 5**s < 2**63, so m * 5**s is formed exactly, in two uint64
    halves (hi, lo) from 32-bit limbs; the result, under 2**64, is that
    product shifted right by k = -(exp2 + s) bits. In the window k runs over
    1..59, also for a decade one off, so hi << (64 - k) is defined. Each
    product and shift is written over an operand that is not read again, so
    no more than five arrays of the inputs' length are live besides the inputs.
    """
    b0 = _POW5[s]
    b1 = b0 >> 32
    b0 &= 0xFFFFFFFF
    a0, a1 = m & 0xFFFFFFFF, m >> 32
    low = a0 * b0
    mid = np.multiply(a1, b0, out=b0)
    mid += np.multiply(a0, b1, out=a0)  # < 2**53 + 2**63
    hi = np.multiply(a1, b1, out=a1)
    lo = np.left_shift(mid, 32, out=b1)
    lo += low
    hi += lo < low
    hi += np.right_shift(mid, 32, out=mid)
    k = np.add(exp2, s, out=low.view(np.int64))
    k = np.negative(k, out=k).view(np.uint64)
    q = np.left_shift(hi, np.subtract(64, k, out=mid), out=hi)
    q |= np.right_shift(lo, k, out=a0)
    half = np.left_shift(1, np.subtract(k, 1, out=mid), out=mid)
    below = np.subtract(np.left_shift(half, 1, out=a0), 1, out=a0)  # 2**k - 1
    rem = np.bitwise_and(lo, below, out=lo)
    return q, (rem > half) | ((rem == half) & ((q & 1) == 1))


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


def write_cache(path: str | os.PathLike, csv_sha256: bytes, columns: Sequence) -> bytes:
    """Write the cache of the table just written at `path`, whose sha256 digest is `csv_sha256`.

    The cache is CACHE_TAG, the sha256 of the CSV's bytes and of the payload, then
    the payload: one JSON line that lists each column's words (null for a number
    column), then each column's array in its kind's dtype, a text column's codes.
    Each column is converted, hashed and written CSV_BLOCK_ROWS rows at a time, and the
    payload's digest, known once the last block is hashed, is written over its place.
    Returns the payload's sha256 digest.
    """
    kinds, arrays, words = zip(*map(_column, columns))
    meta = json.dumps(words).encode() + b"\n"
    payload = hashlib.sha256(meta)
    with open(cache_path(path), "wb") as fh:
        fh.write(CACHE_TAG + csv_sha256)
        at = fh.tell()
        fh.write(bytes(payload.digest_size) + meta)
        for a, kind in zip(arrays, kinds):
            for lo in range(0, len(a), CSV_BLOCK_ROWS):
                block = np.ascontiguousarray(a[lo:lo + CSV_BLOCK_ROWS], _DTYPES[kind])
                payload.update(block)
                fh.write(block)
        fh.seek(at)
        fh.write(payload.digest())
    return payload.digest()


def read_cache(path: str | os.PathLike, csv_sha256: bytes,
               kinds: Sequence[type]) -> tuple[list, bytes] | None:
    """The columns cached for the table at `path`, or None if the cache does not hold them.

    The cache holds them when it exists, starts with CACHE_TAG, and records
    the CSV's sha256 as it is now, `csv_sha256`, and that of its own payload;
    when one array of each kind's dtype, all of one length, fills the payload
    after its JSON line; and when that line lists one entry per kind: null for a
    number column, and distinct str words for a text column, each code indexing them.
    Each column is read into its own array, sized from the bytes left, and hashed on the way.
    The columns come with the payload's sha256, for the seal (`check_seal`).
    """
    try:
        with open(cache_path(path), "rb") as fh:
            if fh.read(len(CACHE_TAG)) != CACHE_TAG or fh.read(32) != csv_sha256:
                return None
            want, meta = fh.read(32), fh.readline()
            n, extra = divmod(os.fstat(fh.fileno()).st_size - fh.tell(),
                              sum(_DTYPES[kind].itemsize for kind in kinds))
            if extra:
                return None
            payload = hashlib.sha256(meta)
            arrays = [np.empty(n, _DTYPES[kind]) for kind in kinds]
            for column in arrays:
                if fh.readinto(column) != column.nbytes:
                    return None
                payload.update(column)
        if payload.digest() != want:
            return None
        words = json.loads(meta)
    except (OSError, ValueError, RecursionError):  # no cache, none readable, or not JSON
        return None
    if not (isinstance(words, list) and len(words) == len(kinds)):
        return None
    columns = []
    for column, kind, w in zip(arrays, kinds, words):
        if kind is str:
            if not (isinstance(w, list) and all(isinstance(word, str) for word in w)
                    and len(set(w)) == len(w)) or (column >= len(w)).any():
                return None
            column = (column, w)
        elif w is not None:
            return None
        columns.append(column)
    return columns, want


# The record beside the tables `run` wrote: a JSON object of the name of each table and
# cache, and its hex digest (`write_table`).
SEAL_NAME = "seal.json"


def seal(digests: dict[str, bytes]) -> None:
    """Write the seal of the files {path: sha256 digest} of one directory: sorted, one a line."""
    record = {os.path.basename(path): sha256.hex() for path, sha256 in digests.items()}
    sealed = os.path.join(os.path.dirname(next(iter(digests))), SEAL_NAME)
    write_text(sealed, json.dumps(record, indent=2, sort_keys=True) + "\n")


def check_seal(digests: dict[str, bytes]) -> None:
    """A ValueError unless the seal of the files {path: sha256 digest} is JSON recording each."""
    path = next(iter(digests))
    sealed = os.path.join(os.path.dirname(path), SEAL_NAME)
    try:
        with open_text(sealed) as fh:
            record = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise ValueError(f"{path}: its seal {sealed} cannot be read ({reason})") from None
    for path, sha256 in digests.items():
        if not isinstance(record, dict) or record.get(os.path.basename(path)) != sha256.hex():
            raise ValueError(f"{path}: not the file that {sealed} records from `run`")
