"""One module for the file contract: no module but `files` opens or parses a file itself."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "qvolt"
# builtin open (or any .open), np.loadtxt and np.savetxt
FILE_CALLS = {"open", "loadtxt", "savetxt"}


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


@pytest.mark.parametrize(
    "module", sorted(path.name for path in SRC.glob("*.py") if path.name != "files.py")
)
def test_only_files_opens_or_parses_a_file(module):
    assert file_calls(SRC / module) == []


def test_the_guard_sees_every_call_in_files():
    assert {name for _, name in file_calls(SRC / "files.py")} == FILE_CALLS
