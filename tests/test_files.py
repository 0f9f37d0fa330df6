"""One module for the file contract: only `files` opens or parses a file, reads or writes
JSON, or names the cache or the seal, and it hashes each table it reads once."""

import ast
import functools
import hashlib
import os
import pathlib
import re
import tempfile

from hypothesis import assume, given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from qvolt import files

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "qvolt"
# builtin open (or any .open), np.loadtxt and np.savetxt
FILE_CALLS = {"open", "loadtxt", "savetxt"}
# json's readers and writers: a malformed record (the seal, a cache's words) is handled in `files`
JSON_CALLS = {"load", "loads", "dump", "dumps"}
# the cache beside a table is a detail of `files.read_table` and `files.write_table`
CACHE_NAMES = {"read_cache", "write_cache", "cache_path", "CACHE_TAG"}
# where the seal lives and what it is called are details of `files.seal` and `files.check_seal`
SEAL_NAMES = {"SEAL_NAME", "seal.json"}
OTHER_MODULES = sorted(path.name for path in SRC.glob("*.py") if path.name != "files.py")


def file_calls(path, wanted=FILE_CALLS):
    """(line, name) of each call in a module of a `wanted` name, bare or as an attribute."""
    calls = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in wanted:
                calls.append((node.lineno, name))
    return calls


def used_names(path, wanted):
    """(line, name) of each use of a `wanted` name in a module: bare, attribute, imported or str."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute):
            names.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom):
            names += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.append((node.lineno, node.value))
    return [(line, name) for line, name in names if name in wanted]


@pytest.mark.parametrize("module", OTHER_MODULES)
def test_only_files_opens_or_parses_a_file(module):
    assert file_calls(SRC / module) == []


@pytest.mark.parametrize("module", OTHER_MODULES)
def test_only_files_reads_or_writes_json(module):
    assert file_calls(SRC / module, JSON_CALLS) == []


@pytest.mark.parametrize("module", OTHER_MODULES)
def test_only_files_names_the_cache(module):
    assert used_names(SRC / module, CACHE_NAMES) == []


@pytest.mark.parametrize("module", OTHER_MODULES)
def test_only_files_names_the_seal(module):
    assert used_names(SRC / module, SEAL_NAMES) == []


def test_the_guard_sees_every_call_in_files():
    # `files` writes text with `write` and `%`, so it never calls `savetxt`
    assert {name for _, name in file_calls(SRC / "files.py")} == FILE_CALLS - {"savetxt"}


def test_the_guard_sees_every_json_call_in_files():
    # `files` writes JSON text with `dumps`, so it never calls `dump`
    assert {name for _, name in file_calls(SRC / "files.py", JSON_CALLS)} == JSON_CALLS - {"dump"}


def test_the_guard_sees_every_cache_name_in_files():
    assert {name for _, name in used_names(SRC / "files.py", CACHE_NAMES)} == CACHE_NAMES


def test_the_guard_sees_every_seal_name_in_files():
    assert {name for _, name in used_names(SRC / "files.py", SEAL_NAMES)} == SEAL_NAMES


def test_a_table_is_hashed_once_and_its_digest_returned(tmp_path, cache, hashed):
    path = tmp_path / "table.csv"
    columns = [np.array([0.5, -1.25, 3.0]), (np.array([1, 0, 1]), ["a", "bc"])]
    written = files.write_table(path, "x,word", columns)
    assert hashed == []
    payload = pathlib.Path(files.cache_path(path)).read_bytes()[len(files.CACHE_TAG) + 64:]
    assert written == {path: hashlib.sha256(path.read_bytes()).digest(),
                       files.cache_path(path): hashlib.sha256(payload).digest()}
    cache.settle(path)
    (x, (codes, words)), read = files.read_table(path, "x,word", (float, str))
    # the cache's digest only when the columns came from it
    assert read == (written if cache.present else {path: written[path]})
    assert hashed == [path]
    assert x.tolist() == [0.5, -1.25, 3.0] and [words[c] for c in codes] == ["bc", "a", "bc"]


def test_a_word_longer_than_a_block_is_written_one_row_a_block(tmp_path, cache):
    # over CSV_BLOCK_ROWS * BLOCK_WORD_BYTES bytes, so a block holds one row
    long = "w" * 140_000
    path = tmp_path / "table.csv"
    columns = [np.array([3, 1, 4]), (np.array([0, 1, 0]), [long, "a"])]
    files.write_table(path, "n,word", columns)
    assert path.read_text() == f"n,word\n3,{long}\n1,a\n4,{long}\n"
    cache.settle(path)
    (n, (codes, words)), _ = files.read_table(path, "n,word", (int, str))
    assert n.tolist() == [3, 1, 4] and [words[c] for c in codes] == [long, "a", long]


def test_a_cache_is_its_words_then_its_columns_little_endian(tmp_path):
    # a cache records no dtype, so its bytes are the same whatever the host's byte order
    assert all(dtype.str.startswith("<") for dtype in files._DTYPES.values())
    x, codes = np.array([0.5, -1.25, 3e-9], ">f8"), np.array([1, 0, 1])
    path = tmp_path / "table.csv"
    digests = files.write_table(path, "x,word", [x, (codes, ["a", "bc"])])
    payload = b'[null, ["a", "bc"]]\n' + x.astype("<f8").tobytes() + codes.astype("<u4").tobytes()
    assert pathlib.Path(files.cache_path(path)).read_bytes() == (
        files.CACHE_TAG + digests[path] + digests[files.cache_path(path)] + payload)
    assert digests[files.cache_path(path)] == hashlib.sha256(payload).digest()
    (back, _), _ = files.read_table(path, "x,word", (float, str))
    assert back.tolist() == x.tolist()


# ±0, the subnormals' ends, the `%.17e` kernel's window edges and values past it
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -2.2250738585072009e-308, 2.2250738585072014e-308,
                  files.FLOAT_KERNEL_MIN, np.nextafter(files.FLOAT_KERNEL_MIN, 0),
                  files.FLOAT_KERNEL_MAX, -np.nextafter(files.FLOAT_KERNEL_MAX, 0),
                  1.2345678901234567e15, -1.7976931348623157e308]
FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from(SPECIAL_FLOATS))
# any text but the comma, line breaks and NUL `write_table` refuses in a word
WORDS = st.lists(st.text(st.characters(blacklist_categories=("Cs",),
                                       blacklist_characters=",\r\n\0")),
                 min_size=1, max_size=5, unique=True)


@st.composite
def tables(draw):
    """(kinds, columns) of a table `write_table` accepts: one to three columns of n rows."""
    kinds = draw(st.lists(st.sampled_from([float, int, str]), min_size=1, max_size=3))
    n = draw(st.integers(0, 20))
    columns = []
    for kind in kinds:
        if kind is float:
            columns.append(np.array(draw(st.lists(FLOATS, min_size=n, max_size=n)), float))
        elif kind is int:
            values = draw(st.lists(st.integers(0, 2**31 - 1), min_size=n, max_size=n))
            columns.append(np.array(values, np.int64))
        else:
            words = draw(WORDS)
            codes = draw(st.lists(st.integers(0, len(words) - 1), min_size=n, max_size=n))
            columns.append((np.array(codes, np.int64), words))
    # a table's only column may not hold an empty word: its row would be blank
    assume(kinds != [str] or "" not in columns[0][1])
    return kinds, columns


def column_values(kind, column):
    """What a column holds, to compare: a float's bits, an int's value, a row's word."""
    if kind is str:
        codes, words = column
        return [words[c] for c in codes.tolist()]
    return np.asarray(column, float).tobytes() if kind is float else column.tolist()


@settings(max_examples=300, deadline=None)
@given(tables())
def test_a_table_write_table_accepts_reads_back_from_its_cache_and_its_parse(table):
    kinds, columns = table
    header = ",".join(f"c{c}" for c in range(len(kinds)))
    want = [column_values(*pair) for pair in zip(kinds, columns)]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.csv")
        files.write_table(path, header, columns)
        cached, digests = files.read_table(path, header, kinds)
        assert files.cache_path(path) in digests
        os.remove(files.cache_path(path))
        parsed, _ = files.read_table(path, header, kinds)
    for read in (cached, parsed):
        assert [column_values(*pair) for pair in zip(kinds, read)] == want
        assert [(c[0] if k is str else c).dtype for k, c in zip(kinds, read)] == [
            files._DTYPES[k] for k in kinds]


# a table's columns, and columns that `write_table` refuses in its place, each with its header
GOOD = ("n,word", [np.array([3, 1]), (np.array([0, 1]), ["a", "b"])])
UNREADABLE = {
    "a negative code": ("n,word", [np.array([3, 1]), (np.array([0, -1]), ["a", "b"])]),
    "a code past its words": ("n,word", [np.array([3, 1]), (np.array([0, 2]), ["a", "b"])]),
    "unequal lengths": ("n,word", [np.array([3]), (np.array([0, 1]), ["a", "b"])]),
    "a word holding a comma": ("n,word", [np.array([3, 1]), (np.array([0, 1]), ["a,x", "b"])]),
    "an int of 2**31": ("n,word", [np.array([3, 2**31]), (np.array([0, 1]), ["a", "b"])]),
    "an int of -1": ("n,word", [np.array([3, -1]), (np.array([0, 1]), ["a", "b"])]),
    "a repeated word": ("n,word", [np.array([3, 1]), (np.array([0, 1]), ["a", "a"])]),
    "an empty word alone in its row": ("word", [(np.array([0, 1]), ["a", ""])]),
    "a header of one name for two columns": ("n", GOOD[1]),
    "a NaN": ("x", [np.array([1.0, np.nan])]),
    "a -NaN": ("x", [np.array([1.0, np.copysign(np.nan, -1)])]),
    "an inf": ("x", [np.array([np.inf, 1.0])]),
    "a -inf": ("x", [np.array([1.0, -np.inf])]),
}
# tables no writer would write, as text, kinds, columns, and the message of their read
UNWRITTEN = {
    "a negative int": ("n,word\n3,a\n-1,b\n", (int, str),
                       [np.array([3, -1]), (np.array([0, 1]), ["a", "b"])],
                       "blinded position 1: n -1 outside 0..2147483647"),
    "a nan": ("x\n1.0\nnan\n", (float,), [np.array([1.0, np.nan])],
              "blinded position 1: x nan is not finite"),
}


@pytest.mark.parametrize(
    "case", [*UNREADABLE, *(f"{case} in {where}" for case in UNWRITTEN
                            for where in ("the CSV", "its cache"))])
def test_a_table_that_would_not_read_back_is_refused_naming_its_path(tmp_path, case):
    # a write refused before the seal, the table or its cache changes; a read refused
    # whichever way its columns come
    path = tmp_path / "table.csv"
    if case in UNREADABLE:
        digests = files.write_table(path, *GOOD)
        refused = functools.partial(files.write_table, path, *UNREADABLE[case])
        message = ""
    else:
        text, kinds, columns, message = UNWRITTEN[case.split(" in ")[0]]
        path.write_text(text)
        digests = {path: files.file_sha256(path)}
        if case.endswith("cache"):
            digests[files.cache_path(path)] = files.write_cache(path, digests[path], columns)
        refused = functools.partial(files.read_table, path, text.split("\n")[0], kinds)
    files.seal(digests)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}"):
        refused()
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
