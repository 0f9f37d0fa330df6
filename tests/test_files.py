"""One module for the file contract: only `files` opens or parses a file, reads or writes
JSON, or names the cache or the seal, and it hashes each table it reads once."""

import ast
import hashlib
import pathlib

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
    assert {name for _, name in file_calls(SRC / "files.py")} == FILE_CALLS


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
