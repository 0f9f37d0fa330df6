from collections import Counter
import os
import pathlib
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CACHE_DAMAGE, assert_key_holds, count_parses, origin_pairs
from qvolt.blinding import (
    BlindingKey,
    combine_and_permute,
    read_key,
    unblind,
    write_key,
)
from qvolt.seeds import derive_rng
from qvolt.files import BLOCK_WORD_BYTES, CSV_BLOCK_ROWS, cache_path
from qvolt.sources import BitString, SourceSpec

# rows of a key.csv block when the longest id has 300 bytes
LONG_ID_BLOCK_ROWS = CSV_BLOCK_ROWS * BLOCK_WORD_BYTES // 300


def make_string(sid, bits, fidelity=0.5):
    spec = SourceSpec(sid, fidelity, len(bits))
    return BitString(spec, np.array(bits, dtype=np.uint8))


def random_strings(rng, n_sources, max_len):
    return [
        make_string(f"s{i}", rng.integers(0, 2, size=rng.integers(1, max_len + 1)))
        for i in range(n_sources)
    ]


# the key.csv of a small fixed key, as the writer produced it before the key held arrays
GOLDEN_KEY_CSV = (
    "# seed=42/blinding\nblinded_index,source_id,source_index\n"
    "0,q2,1\n1,c1,0\n2,q3_x,0\n3,c1,2\n4,q2,0\n5,c1,1\n"
)


def golden_key():
    # entries (q2, 1), (c1, 0), (q3_x, 0), (c1, 2), (q2, 0), (c1, 1)
    return BlindingKey(("c1", "q2", "q3_x"), [3, 2, 1], [4, 0, 5, 2, 3, 1], "42/blinding")


def key_csv_reference(key):
    """key.csv formatted one row at a time, as the writer did before it wrote blocks."""
    body = "".join(f"{pos},{sid},{idx}\n" for pos, (sid, idx) in enumerate(origin_pairs(key)))
    return f"# seed={key.seed_descriptor}\nblinded_index,source_id,source_index\n{body}".encode()


SHAPE_MESSAGE = "need distinct ids, a count for each and a 1-D permutation"


class TestBlindingKey:
    def test_rejects_duplicate_entry(self):
        with pytest.raises(ValueError, match="^blinded positions 0 and 1 both hold bit 0$"):
            BlindingKey(("a",), [2], [0, 0])

    def test_rejects_index_gap(self):
        with pytest.raises(ValueError, match=r"^blinded position 1: bit 2 outside 0\.\.1$"):
            BlindingKey(("a",), [2], [0, 2])

    def test_source_counts(self):
        key = BlindingKey(("a", "b"), [2, 1], [1, 2, 0])
        assert key.source_counts() == {"a": 2, "b": 1}

    def test_entries_derive_from_the_arrays(self):
        key = golden_key()
        assert_key_holds(
            key, [("q2", 1), ("c1", 0), ("q3_x", 0), ("c1", 2), ("q2", 0), ("c1", 1)]
        )
        assert len(key) == 6

    @pytest.mark.parametrize(
        "ids, counts, permutation, message",
        [
            (("a",), [1, 1], [0, 1], SHAPE_MESSAGE),
            (("a", "b"), [3, -1], [0, 1], "source counts [3, -1] do not split 2 positions"),
            (("a",), [2], [1, -1], "blinded position 1: bit -1 outside 0..1"),
            (("a", "a"), [1, 1], [0, 1], SHAPE_MESSAGE),
            (("a",), [2], [0], "source counts [2] do not split 1 positions"),
            (("a", "b"), [2, 2], [0, 3, 3, 1], "blinded positions 1 and 2 both hold bit 3"),
        ],
        ids=["count with no source id", "negative count", "negative slot", "duplicate source id",
             "counts do not sum to the positions", "b: index 1 twice, 0 missing"],
    )
    def test_rejects_non_bijections(self, ids, counts, permutation, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            BlindingKey(ids, counts, permutation)


class TestCombineAndPermute:
    def test_multiset_preserved_single_string(self, rng):
        blinded, key = combine_and_permute([make_string("a", [0, 1, 1])], rng)
        assert sorted(blinded) == [0, 1, 1]
        assert len(key) == 3

    def test_paper_scale_lengths(self, rng):
        strings = [
            make_string("c1", np.zeros(60000, dtype=np.uint8)),
            make_string("q2", np.ones(30000, dtype=np.uint8), 0.99),
            make_string("q3", np.zeros(10717, dtype=np.uint8), 0.55),
        ]
        blinded, key = combine_and_permute(strings, rng)
        assert len(blinded) == 100717
        assert key.source_counts() == {"c1": 60000, "q2": 30000, "q3": 10717}

    def test_golden_permutation(self):
        # frozen output of the seeded generator; guards the permutation algorithm
        a = make_string("a", [0, 0])
        b = make_string("b", [1], 0.99)
        blinded, key = combine_and_permute([a, b], np.random.default_rng(123))
        assert list(blinded) == [0, 1, 0]
        assert_key_holds(key, [("a", 0), ("b", 0), ("a", 1)])

    @pytest.mark.parametrize(
        "sizes",
        [(1,), (1, 1), (2, 3), (600, 400), (4000, 96, 1), (60000, 30000, 10717)],
        ids=lambda sizes: f"n{sum(sizes)}",
    )
    def test_key_is_the_generators_permutation(self, rng, sizes):
        n = sum(sizes)
        strings = [make_string(f"s{i}", rng.integers(0, 2, size)) for i, size in enumerate(sizes)]
        blinded, key = combine_and_permute(strings, np.random.default_rng(n))
        expected = np.random.default_rng(n).permutation(n)
        assert np.array_equal(key.permutation, expected)
        assert np.array_equal(blinded, np.concatenate([s.bits for s in strings])[expected])

    def test_rejects_duplicate_source_ids(self, rng):
        with pytest.raises(ValueError):
            combine_and_permute([make_string("a", [0]), make_string("a", [1])], rng)

    def test_rejects_empty(self, rng):
        with pytest.raises(ValueError):
            combine_and_permute([], rng)

    def test_uniformity_at_n4(self):
        # each of the 24 permutations of 4 distinct items within 5 sigma of 1/24
        n_seeds = 100_000
        counts = Counter()
        items = np.array([0, 1, 2, 3])
        a = make_string("a", [0, 0, 1, 1])
        for seed in range(n_seeds):
            _, key = combine_and_permute([a], derive_rng(seed, "uniformity"))
            order = tuple(items[key.origins()[1]])
            counts[order] += 1
        assert len(counts) == 24
        p = 1 / 24
        sigma = (n_seeds * p * (1 - p)) ** 0.5
        for perm, c in counts.items():
            assert abs(c - n_seeds * p) < 5 * sigma, perm


class TestUnblind:
    def test_round_trip_recovers_order(self, rng):
        strings = random_strings(rng, 3, 50)
        blinded, key = combine_and_permute(strings, rng)
        grouped = unblind(blinded.astype(float), key)
        for s in strings:
            assert np.array_equal(grouped[s.source.id], s.bits.astype(float))

    def test_permuted_identity(self, rng):
        strings = random_strings(rng, 2, 30)
        _, key = combine_and_permute(strings, rng)
        # readings equal to their blinded positions: regrouped values must
        # equal the blinded positions the key assigns to each source slot
        positions = np.arange(len(key), dtype=float)
        grouped = unblind(positions, key)
        for pos, (sid, idx) in enumerate(origin_pairs(key)):
            assert grouped[sid][idx] == pos

    def test_rejects_length_mismatch(self):
        key = BlindingKey(("a",), [2], [0, 1])
        with pytest.raises(ValueError):
            unblind([1.0], key)

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.lists(
            st.lists(st.integers(0, 1), min_size=1, max_size=40),
            min_size=1,
            max_size=4,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_unblind_blind_identity_property(self, data, seed):
        strings = [make_string(f"s{i}", bits) for i, bits in enumerate(data)]
        blinded, key = combine_and_permute(strings, np.random.default_rng(seed))
        assert sorted(blinded) == sorted(b for s in strings for b in s.bits)
        grouped = unblind(blinded.astype(float), key)
        for s in strings:
            assert np.array_equal(grouped[s.source.id], s.bits.astype(float))


# (ids, counts) of keys whose ids are in no particular order
ID_CASES = pytest.mark.parametrize(
    "ids, counts",
    [
        (("z", "a", "m"), [2, 3, 1]),
        (tuple(f"s{i:04d}" for i in range(2000)), [1] * 2000),
        (("ψ", "a", "日本"), [1, 2, 3]),
        (("c1", "q" * 300, "q3_x"), [3, 1, 2]),
    ],
    ids=["first row holds the last id", "2000 one-bit sources", "UTF-8 ids", "300-char id"],
)


def id_case_key(ids, counts):
    """A key of these sources whose blinded position 0 holds the first bit of the last id."""
    n = sum(counts)
    perm = np.random.default_rng(11).permutation(n)
    j = int(np.flatnonzero(perm == sum(counts[:ids.index(max(ids))]))[0])
    perm[[0, j]] = perm[[j, 0]]
    return BlindingKey(ids, counts, perm, "5/blinding")


def paper_key(rng):
    strings = [
        make_string("c1", rng.integers(0, 2, 60000)),
        make_string("q2", rng.integers(0, 2, 30000), 0.99),
        make_string("q3", rng.integers(0, 2, 10717), 0.55),
    ]
    return combine_and_permute(strings, rng)[1]


def assert_same_arrays(a, b):
    """Two keys hold the same ids, descriptor and arrays, bit for bit and dtype for dtype."""
    assert (a.source_ids, a.seed_descriptor) == (b.source_ids, b.seed_descriptor)
    for x, y in ((a.counts, b.counts), (a.permutation, b.permutation)):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
        assert x.flags.owndata and x.flags.c_contiguous


def write_golden(path):
    write_key(golden_key(), path)


class TestKeyFile:
    def test_round_trip_small(self, tmp_path, cache):
        key = BlindingKey(("a", "b"), [2, 1], [1, 2, 0], seed_descriptor="42/blinding")
        path = tmp_path / "key.csv"
        write_key(key, path)
        cache.settle(path)
        back = read_key(path)
        assert_key_holds(back, origin_pairs(key))
        assert back.seed_descriptor == key.seed_descriptor

    def test_non_ascii_id_round_trips(self, tmp_path, cache):
        key = BlindingKey(("ψ", "a"), [1, 2], [2, 0, 1], "7/blinding")
        path = tmp_path / "key.csv"
        write_key(key, path)
        cache.settle(path)
        back = read_key(path)
        assert_key_holds(back, origin_pairs(key))
        assert back.source_counts() == {"a": 2, "ψ": 1}

    def test_golden_bytes(self, tmp_path, cache):
        path = tmp_path / "key.csv"
        write_key(golden_key(), path)
        assert path.read_bytes() == GOLDEN_KEY_CSV.encode()
        cache.settle(path)
        assert_key_holds(read_key(path), origin_pairs(golden_key()))

    @pytest.mark.parametrize(
        "n",
        [0, 1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1, 2 * CSV_BLOCK_ROWS + 3,
         LONG_ID_BLOCK_ROWS - 1, LONG_ID_BLOCK_ROWS, LONG_ID_BLOCK_ROWS + 1],
    )
    def test_block_writer_matches_the_row_reference(self, tmp_path, rng, n, cache):
        ids = ("c1", "q" * 300, "q3_x")
        counts = np.bincount(rng.integers(0, len(ids), n), minlength=len(ids))
        key = BlindingKey(ids, counts, rng.permutation(n), "7/blinding")
        path = tmp_path / "key.csv"
        write_key(key, path)
        assert path.read_bytes() == key_csv_reference(key)
        cache.settle(path)
        back = read_key(path)
        assert_key_holds(back, origin_pairs(key))
        assert back.seed_descriptor == key.seed_descriptor

    @pytest.mark.parametrize(
        "n", [CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1, 2 * CSV_BLOCK_ROWS + 3]
    )
    def test_short_ids_match_the_row_reference(self, tmp_path, rng, n):
        # ids within BLOCK_WORD_BYTES: CSV_BLOCK_ROWS rows a block
        ids = ("c1", "q" * BLOCK_WORD_BYTES, "q3")
        counts = np.bincount(rng.integers(0, len(ids), n), minlength=len(ids))
        key = BlindingKey(ids, counts, rng.permutation(n), "7/blinding")
        path = tmp_path / "key.csv"
        write_key(key, path)
        assert path.read_bytes() == key_csv_reference(key)

    @pytest.mark.parametrize(
        "ids", [("ab", "b", ""), ("ψ", "日本", "üxü")], ids=["empty", "UTF-8"],
    )
    def test_ids_with_any_byte_match_the_row_reference(self, tmp_path, rng, ids, cache):
        # any byte but NUL, the writer's padding: multi-byte UTF-8, and no byte at all
        n = 50
        counts = np.bincount(rng.integers(0, len(ids), n), minlength=len(ids))
        key = BlindingKey(ids, counts, rng.permutation(n), "3/blinding")
        path = tmp_path / "key.csv"
        write_key(key, path)
        assert path.read_bytes() == key_csv_reference(key)
        cache.settle(path)
        back = read_key(path)
        assert_key_holds(back, origin_pairs(key))
        assert back.source_ids == tuple(sorted(ids))

    def test_index_widths_match_the_row_reference(self, tmp_path, rng, cache):
        # both index columns grow from 1 to 6 digits, crossing 9 -> 10 and 99999 -> 100000
        n = 100_010
        key = BlindingKey(("a", "b"), [n - 5, 5], rng.permutation(n), "5/blinding")
        path = tmp_path / "key.csv"
        write_key(key, path)
        assert path.read_bytes() == key_csv_reference(key)
        cache.settle(path)
        assert_key_holds(read_key(path), origin_pairs(key))

    @ID_CASES
    def test_round_trip_ids_and_counts(self, tmp_path, ids, counts, cache):
        key = id_case_key(ids, counts)
        path = tmp_path / "key.csv"
        write_key(key, path)
        assert path.read_text(encoding="utf-8").splitlines()[2].split(",")[1] == max(ids)
        cache.settle(path)
        back = read_key(path)
        assert_key_holds(back, origin_pairs(key))
        assert back.source_ids == tuple(sorted(ids))
        assert back.source_counts() == key.source_counts()

    @ID_CASES
    def test_cache_hit_is_the_parse_bit_for_bit(self, tmp_path, ids, counts):
        path = tmp_path / "key.csv"
        write_key(id_case_key(ids, counts), path)
        hit = read_key(path)
        os.remove(cache_path(path))
        assert_same_arrays(hit, read_key(path))

    def test_cache_hit_is_the_parse_bit_for_bit_at_paper_scale(self, tmp_path, rng):
        path = tmp_path / "key.csv"
        write_key(paper_key(rng), path)
        hit = read_key(path)
        os.remove(cache_path(path))
        assert_same_arrays(hit, read_key(path))

    def test_cache_hit_skips_the_parser(self, tmp_path, monkeypatch):
        path = tmp_path / "key.csv"
        write_golden(path)
        parses = count_parses(monkeypatch)
        assert_key_holds(read_key(path), origin_pairs(golden_key()))
        assert parses == []

    @pytest.mark.parametrize("damage", list(CACHE_DAMAGE), ids=list(CACHE_DAMAGE))
    def test_damaged_cache_is_ignored_and_left_as_it_is(self, tmp_path, monkeypatch, damage):
        path = tmp_path / "key.csv"
        write_golden(path)
        cached = pathlib.Path(cache_path(path))
        cached.write_bytes(CACHE_DAMAGE[damage](cached.read_bytes()))
        before = cached.read_bytes()
        parses = count_parses(monkeypatch)
        assert_key_holds(read_key(path), origin_pairs(golden_key()))
        assert parses == [path]
        assert cached.read_bytes() == before

    def test_reading_never_writes_a_cache(self, tmp_path):
        path = tmp_path / "key.csv"
        write_golden(path)
        cached = pathlib.Path(cache_path(path))
        before = cached.read_bytes(), cached.stat().st_mtime_ns
        read_key(path)
        assert (cached.read_bytes(), cached.stat().st_mtime_ns) == before
        cached.unlink()
        read_key(path)
        assert not cached.exists()

    @pytest.mark.parametrize(
        "ids, descriptor",
        [(("a,b", "c"), "1/blinding"), (("a\nb", "c"), "1/blinding"),
         (("a\x00b", "c"), "1/blinding"), (("a", "c"), "1\r2")],
        ids=["comma in an id", "line break in an id", "NUL in an id",
             "line break in the descriptor"],
    )
    def test_writer_refuses_a_key_that_would_not_parse_back(self, tmp_path, ids, descriptor):
        path = tmp_path / "key.csv"
        with pytest.raises(ValueError, match=re.escape(f"{path}: ") + ".*line break"):
            write_key(BlindingKey(ids, [1, 1], [1, 0], descriptor), path)
        assert not path.exists()
        assert not os.path.exists(cache_path(path))

    def test_comma_in_the_descriptor_parses_back_from_the_cache(self, tmp_path):
        key = BlindingKey(("a", "c"), [1, 1], [1, 0], "1,2/blinding")
        path = tmp_path / "key.csv"
        write_key(key, path)
        hit = read_key(path)
        os.remove(cache_path(path))
        assert_same_arrays(hit, read_key(path))
        assert hit.seed_descriptor == key.seed_descriptor

    def test_ids_are_text_under_the_numpy_1_loadtxt_default(self, tmp_path, monkeypatch):
        # numpy before 2.0 defaults loadtxt to encoding="bytes", which hands converters latin-1 bytes
        loadtxt = np.loadtxt
        calls = []

        def numpy_1_loadtxt(*args, encoding="bytes", **kwargs):
            calls.append(encoding)
            return loadtxt(*args, encoding=encoding, **kwargs)

        key = BlindingKey(("ψ", "c1"), [2, 1], np.array([2, 0, 1]), "5/blinding")
        path = tmp_path / "key.csv"
        write_key(key, path)
        os.remove(cache_path(path))  # the parser is under test
        monkeypatch.setattr(np, "loadtxt", numpy_1_loadtxt)
        back = read_key(path)
        assert calls == [None]
        assert back.source_ids == ("c1", "ψ")
        assert_key_holds(back, origin_pairs(key))

    @pytest.mark.parametrize(
        "body, entries",
        [
            ("0,,0\n1,a,0\n", (("", 0), ("a", 0))),
            ("0,a,0\n1,,0\n", (("a", 0), ("", 0))),
            ("0, ,0\n", ((" ", 0),)),
        ],
        ids=["empty id first", "empty id last", "blank id"],
    )
    def test_empty_source_id_is_an_id(self, tmp_path, body, entries, cache):
        path = tmp_path / "key.csv"
        cache.stale(path, write_golden)
        path.write_text("# seed=x\nblinded_index,source_id,source_index\n" + body)
        key = read_key(path)
        assert_key_holds(key, entries)
        assert key.source_ids == tuple(sorted({sid for sid, _ in entries}))

    def test_long_ids_and_missing_final_newline(self, tmp_path, cache):
        # a source id longer than any fixed field width, on a last line with no newline
        sid = "s" * 300
        path = tmp_path / "key.csv"
        cache.stale(path, write_golden)
        path.write_text(f"# seed=x\nblinded_index,source_id,source_index\n0,a,0\n\n1,{sid},0")
        key = read_key(path)
        assert_key_holds(key, [("a", 0), (sid, 0)])

    @pytest.mark.parametrize(
        "body, message",
        [
            ("0,a,0,extra\n", "requires 3 columns but 4 were found at row 1"),
            ("0,a,1.5\n", "could not convert string '1.5' to int64 at row 0, column 3"),
            ("0,a,x\n", "could not convert string 'x' to int64 at row 0, column 3"),
            ("0.0,a,0\n", "could not convert string '0.0' to int64 at row 0, column 1"),
        ],
        ids=["four fields", "fractional index", "word index", "fractional position"],
    )
    def test_malformed_fields_rejected(self, tmp_path, body, message, cache):
        path = tmp_path / "key.csv"
        cache.stale(path, write_golden)
        path.write_text("# seed=x\nblinded_index,source_id,source_index\n" + body)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*{re.escape(message)}"):
            read_key(path)

    def test_rows_out_of_order_rejected(self, tmp_path, cache):
        path = tmp_path / "key.csv"
        cache.stale(path, write_golden)
        path.write_text("# seed=x\nblinded_index,source_id,source_index\n1,a,0\n0,a,1\n")
        with pytest.raises(ValueError, match="out of order"):
            read_key(path)

    def test_duplicate_entry_rejected(self, tmp_path, cache):
        path = tmp_path / "key.csv"
        cache.stale(path, write_golden)
        path.write_text(
            "# seed=x\nblinded_index,source_id,source_index\n0,a,0\n1,a,0\n"
        )
        message = f"{path}: blinded positions 0 and 1 both hold bit 0"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_key(path)

    @pytest.mark.parametrize(
        "body, tail, position",
        [
            ("0,a,0\n1,b,0\n2,b,2\n", "outside 0..", 2),
            ("0,a,0\n1,b,0\n2,a,2\n", "both hold bit", 2),
            # rejected before any per-bit count would need 2**40 bins
            (f"0,a,0\n1,a,{2**40}\n", "outside 0..", 1),
            # the source's offset plus this index wraps below zero in int64
            (f"0,a,0\n1,b,0\n2,b,{2**63 - 1}\n", "outside 0..", 2),
            # a file error, found before the key's bijection check
            ("0,a,0\n1,b,-1\n", "source_index < 0", 1),
            ("0,b,0\n1,a,0\n2,b,0\n", "both hold bit", 2),
        ],
        ids=["index past the last source", "index past an earlier source", "index far past",
             "index at the int64 maximum", "negative index", "repeated entry"],
    )
    def test_rejection_names_the_file_and_the_row(self, tmp_path, body, tail, position, cache):
        # the blinded position of a key entry is its data row
        path = tmp_path / "key.csv"
        cache.stale(path, write_golden)
        path.write_text("# seed=x\nblinded_index,source_id,source_index\n" + body)
        pattern = re.escape(f"{path}: blinded position") + rf"s? (\d+ and )?{position}\b"
        with pytest.raises(ValueError, match=pattern + ".*" + re.escape(tail)):
            read_key(path)

    @pytest.mark.parametrize("row", [0, 900], ids=["first row", "past 8 KiB"])
    def test_non_utf8_byte_names_the_file_and_line(self, tmp_path, row, cache):
        rows = [f"{i},a,{i}\n".encode() for i in range(1000)]
        rows[row] = rows[row].replace(b"a", b"\xff")
        path = tmp_path / "key.csv"
        cache.stale(path, write_golden)
        path.write_bytes(b"# seed=x\nblinded_index,source_id,source_index\n" + b"".join(rows))
        with pytest.raises(ValueError, match=re.escape(f"{path}: line {row + 3}: not UTF-8")):
            read_key(path)

    def test_malformed_row_rejected(self, tmp_path, cache):
        path = tmp_path / "key.csv"
        cache.stale(path, write_golden)
        path.write_text("# seed=x\nblinded_index,source_id,source_index\n0,a\n")
        message = "requires 3 columns but 2 were found at row 1"
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*{re.escape(message)}"):
            read_key(path)

    def test_missing_seed_comment_rejected(self, tmp_path, cache):
        path = tmp_path / "key.csv"
        cache.stale(path, write_golden)
        path.write_text("blinded_index,source_id,source_index\n0,a,0\n")
        message = f"{path}: missing '# seed=' comment line"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_key(path)

    def test_missing_seed_comment_is_reported_before_the_rows(self, tmp_path, cache):
        # read as the head, the header and row 0 leave rows that start at blinded_index 1
        path = tmp_path / "key.csv"
        cache.stale(path, write_golden)
        path.write_text("blinded_index,source_id,source_index\n0,a,0\n1,a,1\n2,b,0\n")
        message = f"{path}: missing '# seed=' comment line"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_key(path)

    def test_round_trip_paper_scale(self, tmp_path, rng, cache):
        import time

        key = paper_key(rng)
        path = tmp_path / "key.csv"
        write_key(key, path)
        cache.settle(path)
        start = time.perf_counter()
        back = read_key(path)
        elapsed = time.perf_counter() - start
        assert_key_holds(back, origin_pairs(key))
        assert back.seed_descriptor == key.seed_descriptor
        assert elapsed < 1.0

    def test_write_key_peak_memory_does_not_grow_with_the_id(self, tmp_path):
        # a longer id takes fewer rows a block; with CSV_BLOCK_ROWS rows in every block,
        # a 300-byte id peaked at 13 MiB
        peaks = []
        for length in (2, 300):
            n = 100_717
            perm = np.random.default_rng(1).permutation(n)
            key = BlindingKey(("c1", "q" * length, "q3"), [60000, 30000, 10717], perm, "1/blinding")
            path = tmp_path / "key.csv"
            write_key(key, path)  # imports, caches
            tracemalloc.start()
            try:
                write_key(key, path)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 3.95 * 2**20
        assert peaks[1] < peaks[0] + 2**18

    def test_read_key_peak_memory(self, tmp_path, rng, cache):
        # an object column of 100,717 id strings would take the peak to 10.4 MiB
        path = tmp_path / "key.csv"
        write_key(paper_key(rng), path)
        cache.settle(path)
        read_key(path)  # imports, caches
        tracemalloc.start()
        try:
            read_key(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20

    def test_read_key_peak_memory_at_paper_scale(self, tmp_path, rng, cache):
        # 2.02 MiB on a cache hit: the 1.15 MiB of columns, the index column turned into the
        # permutation in place, and BlindingKey's 0.77 MiB bincount; 3.08 MiB on a parse
        path = tmp_path / "key.csv"
        write_key(paper_key(rng), path)
        cache.settle(path)
        read_key(path)  # imports, caches
        tracemalloc.start()
        try:
            read_key(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (2.5 if cache.present else 3.3) * 2**20
