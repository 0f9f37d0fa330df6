import hashlib
import json
import os

import numpy as np
import pytest

from qvolt.config import AnalysisSettings, RunConfig
from qvolt.model import NonlinearParams
from qvolt import files
from qvolt.files import CACHE_TAG, cache_path
from qvolt.signal import AcquisitionConfig, AcquisitionMode
from qvolt.sources import SourceSpec

PAPER_SOURCES = (
    SourceSpec("c1", 0.5, 60000),
    SourceSpec("q2", 0.99, 30000),
    SourceSpec("q3", 0.55, 10717),
)


def make_config(
    seed=20211101,
    eps_gamma=0.0,
    vs=-0.306e-9,
    sources=PAPER_SOURCES,
    mode=AcquisitionMode.FAST,
    drift_rate=0.0,
    mc_realizations=10_000,
):
    return RunConfig(
        seed=seed,
        sources=sources,
        params=NonlinearParams(eps_gamma=eps_gamma, vs=vs),
        acquisition=AcquisitionConfig(
            sigma_low=3.4e-9, sigma_high=1.8e-4, drift_rate=drift_rate, mode=mode
        ),
        analysis=AnalysisSettings(mc_realizations=mc_realizations),
    )


def scaled_sources(factor):
    """Paper source mix shrunk by `factor` for fast repeated-run tests."""
    return (
        SourceSpec("c1", 0.5, max(2, 60000 // factor)),
        SourceSpec("q2", 0.99, max(2, 30000 // factor)),
        SourceSpec("q3", 0.55, max(2, 10717 // factor)),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(987654321)


def origin_pairs(key):
    """(source_id, within-source index) of each blinded position of a key."""
    code, index = key.origins()
    return [(key.source_ids[c], i) for c, i in zip(code.tolist(), index.tolist())]


def assert_key_holds(key, entries):
    """`key` is the key of these (source_id, index) entries, one per blinded position, as read back.

    Its ids are the entries' ids in sorted order, its counts and permutation
    number the sources in that order, and `origins()` gives the entries back.
    """
    ids = sorted({sid for sid, _ in entries})
    rank = {sid: c for c, sid in enumerate(ids)}
    code = np.array([rank[sid] for sid, _ in entries], dtype=np.intp)
    index = np.array([i for _, i in entries], dtype=np.intp)
    counts = np.bincount(code, minlength=len(ids))
    assert key.source_ids == tuple(ids)
    assert key.counts.tolist() == counts.tolist()
    assert key.permutation.tolist() == ((np.cumsum(counts) - counts)[code] + index).tolist()
    assert [a.tolist() for a in key.origins()] == [code.tolist(), index.tolist()]


def count_parses(monkeypatch):
    """The paths that the CSV readers parse from now on, one entry per pass of the parser."""
    calls = []
    parse = files.parse_rows

    def counted(*args, **kwargs):
        calls.append(args[0])
        return parse(*args, **kwargs)

    monkeypatch.setattr(files, "parse_rows", counted)
    return calls


def _flip(data, at):
    return data[:at] + bytes([data[at] ^ 1]) + data[at + 1:]


def _resealed(change):
    """A cache damage that rewrites the payload as change(JSON line, array bytes) gives it.

    The payload's digest is recomputed, so only the payload's content is wrong.
    """
    def damage(data):
        head = len(CACHE_TAG) + 32
        payload = data[head + 32:]
        start = payload.index(b"\n") + 1
        payload = b"".join(change(payload[:start], payload[start:]))
        return data[:head] + hashlib.sha256(payload).digest() + payload

    return damage


def relaid(change):
    """A cache damage that rewrites the words and arrays as change(words, array bytes) gives them."""
    def change_line(line, tail):
        words, tail = change(json.loads(line), tail)
        return json.dumps(words).encode() + b"\n", tail

    return _resealed(change_line)


def _row_bytes(words):
    """The bytes a row takes in the arrays of cached columns with these words: 8 for a number
    column (float64 or int64), 4 for a text column (uint32 codes)."""
    return sum(8 if w is None else 4 for w in words)


def _rows(words, tail):
    return len(tail) // _row_bytes(words)


def _text_codes(words, tail):
    """The index of a cache's text column, and the slice of the arrays' bytes its codes fill."""
    c = next(i for i, w in enumerate(words) if w is not None)
    n = _rows(words, tail)
    return c, slice(n * _row_bytes(words[:c]), n * _row_bytes(words[:c + 1]))


def _code_past_the_words(words, tail):
    c, codes = _text_codes(words, tail)
    code = np.array(len(words[c]), "<u4").tobytes()
    return words, tail[:codes.start] + code + tail[codes.start + len(code):]


def _text_column_one_short(words, tail):
    _, codes = _text_codes(words, tail)
    return words, tail[:codes.stop - 4] + tail[codes.stop:]


def _with_words(change):
    """A cache damage that gives the text column change(its words) in place of its words."""
    def with_words(words, tail):
        c, _ = _text_codes(words, tail)
        words[c] = change(words[c])
        return words, tail

    return relaid(with_words)


# ways a cache file can fail to hold its CSV's columns, each a function of the cache's bytes
CACHE_DAMAGE = {
    "wrong tag": lambda data: _flip(data, 0),
    "wrong CSV digest": lambda data: _flip(data, len(CACHE_TAG)),
    "wrong payload digest": lambda data: _flip(data, len(CACHE_TAG) + 32),
    "changed payload": lambda data: _flip(data, len(data) - 1),
    "truncated payload": lambda data: data[:-1],
    "empty file": lambda data: b"",
    "no entry for the last column": relaid(lambda words, tail: (words[:-1], tail)),
    "meta is a JSON object": relaid(lambda words, tail: ({"columns": words}, tail)),
    "meta not JSON": _resealed(lambda line, tail: (b"columns\n", tail)),
    "meta nested past the recursion limit": _resealed(
        lambda line, tail: (b"[" * 100_000 + b"\n", tail)
    ),
    "payload past the columns": relaid(lambda words, tail: (words, tail + b"\0")),
    "unknown column": relaid(
        lambda words, tail: (words + [None], tail + bytes(8 * _rows(words, tail)))
    ),
    "text column one entry short": relaid(_text_column_one_short),
    "code past the word list": relaid(_code_past_the_words),
    "words for a number column": relaid(
        lambda words, tail: ([["a"] if w is None else w for w in words], tail)
    ),
    "no words": _with_words(lambda words: None),
    "words not a list": _with_words("".join),
    "a word not a str": _with_words(lambda words: [*words[:-1], 0]),
    "a repeated word": _with_words(lambda words: [*words[:-1], words[0]]),
}
# the damages above that change a text column's words or codes, which need a text column
TEXT_COLUMN_DAMAGE = ("text column one entry short", "code past the word list", "no words",
                      "words not a list", "a word not a str", "a repeated word")


class CacheState:
    """Whether a CSV under test has the cache its writer wrote beside it."""

    def __init__(self, present):
        self.present = present

    def settle(self, path):
        """After a writer ran: remove its cache, so the reader parses, unless it is present."""
        if not self.present:
            os.remove(cache_path(path))

    def stale(self, path, write):
        """Before a test writes its own file at `path`: leave a cache of write(path)'s file there.

        The cache records the digest of the file `write` wrote, so it must be
        ignored once the test's file replaces that one.
        """
        if self.present:
            write(path)


@pytest.fixture(params=[True, False], ids=["cache present", "cache removed"])
def cache(request):
    return CacheState(request.param)


@pytest.fixture
def hashed(monkeypatch):
    """The paths `files.file_sha256` hashes from now on, in order."""
    calls = []

    def counted(path, sha256=files.file_sha256):
        calls.append(path)
        return sha256(path)

    monkeypatch.setattr(files, "file_sha256", counted)
    return calls
