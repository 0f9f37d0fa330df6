"""One module for the file contract: only `files` opens or parses a file, or names the cache."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "qvolt"
# builtin open (or any .open), np.loadtxt and np.savetxt
FILE_CALLS = {"open", "loadtxt", "savetxt"}
# the cache beside a table is a detail of `files.read_table` and `files.write_table`
CACHE_NAMES = {"read_cache", "write_cache", "cache_path", "CACHE_TAG"}
OTHER_MODULES = sorted(path.name for path in SRC.glob("*.py") if path.name != "files.py")


def file_calls(path):
    """(line, name) of each call in a module of a FILE_CALLS name, bare or as an attribute."""
    calls = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in FILE_CALLS:
                calls.append((node.lineno, name))
    return calls


def cache_names(path):
    """(line, name) of each use of a CACHE_NAMES name in a module: bare, attribute or imported."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute):
            names.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom):
            names += [(node.lineno, alias.name) for alias in node.names]
    return [(line, name) for line, name in names if name in CACHE_NAMES]


@pytest.mark.parametrize("module", OTHER_MODULES)
def test_only_files_opens_or_parses_a_file(module):
    assert file_calls(SRC / module) == []


@pytest.mark.parametrize("module", OTHER_MODULES)
def test_only_files_names_the_cache(module):
    assert cache_names(SRC / module) == []


def test_the_guard_sees_every_call_in_files():
    assert {name for _, name in file_calls(SRC / "files.py")} == FILE_CALLS


def test_the_guard_sees_every_cache_name_in_files():
    assert {name for _, name in cache_names(SRC / "files.py")} == CACHE_NAMES
