from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvolt.blinding import (
    BlindingKey,
    KeyBijectionError,
    KeyFileError,
    _fisher_yates,
    combine_and_permute,
    read_key,
    unblind,
    write_key,
)
from qvolt.seeds import derive_rng
from qvolt.signal import ROWS_PER_WRITE
from qvolt.sources import BitString, SourceKind, SourceSpec


def make_string(sid, bits, fidelity=0.5, kind=SourceKind.CLASSICAL):
    if kind is SourceKind.CLASSICAL:
        fidelity = 0.5
    spec = SourceSpec(sid, kind, fidelity, len(bits))
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
    return BlindingKey(("c1", "q2", "q3_x"), [1, 0, 2, 0, 1, 0], [1, 0, 0, 2, 0, 1], "42/blinding")


def key_csv_reference(key):
    """key.csv formatted one row at a time, as the writer did before it wrote blocks."""
    body = "".join(f"{pos},{sid},{idx}\n" for pos, (sid, idx) in enumerate(key.entries))
    return f"# seed={key.seed_descriptor}\nblinded_index,source_id,source_index\n{body}".encode()


class TestBlindingKey:
    def test_rejects_duplicate_entry(self):
        with pytest.raises(KeyBijectionError):
            BlindingKey(("a",), [0, 0], [0, 0])

    def test_rejects_index_gap(self):
        with pytest.raises(KeyBijectionError):
            BlindingKey(("a",), [0, 0], [0, 2])

    def test_source_counts(self):
        key = BlindingKey(("a", "b"), [0, 1, 0], [1, 0, 0])
        assert key.source_counts() == {"a": 2, "b": 1}

    def test_entries_derive_from_the_arrays(self):
        key = golden_key()
        assert key.entries == (
            ("q2", 1), ("c1", 0), ("q3_x", 0), ("c1", 2), ("q2", 0), ("c1", 1)
        )
        assert len(key) == 6

    @pytest.mark.parametrize(
        "ids, code, index",
        [
            (("a",), [0, 1], [0, 0]),  # code with no source id
            (("a",), [0, -1], [0, 0]),
            (("a",), [0, 0], [1, -1]),  # negative index
            (("a", "a"), [0, 1], [0, 0]),  # duplicate source id
            (("a",), [0, 0], [0]),  # lengths differ
            (("a", "b"), [0, 1, 1, 0], [0, 1, 1, 1]),  # b: index 1 twice, 0 missing
        ],
    )
    def test_rejects_non_bijections(self, ids, code, index):
        with pytest.raises(KeyBijectionError):
            BlindingKey(ids, code, index)


class TestCombineAndPermute:
    def test_multiset_preserved_single_string(self, rng):
        blinded, key = combine_and_permute([make_string("a", [0, 1, 1])], rng)
        assert sorted(blinded) == [0, 1, 1]
        assert len(key) == 3

    def test_paper_scale_lengths(self, rng):
        strings = [
            make_string("c1", np.zeros(60000, dtype=np.uint8)),
            make_string("q2", np.ones(30000, dtype=np.uint8), 0.99, SourceKind.QUBIT),
            make_string("q3", np.zeros(10717, dtype=np.uint8), 0.55, SourceKind.QUBIT),
        ]
        blinded, key = combine_and_permute(strings, rng)
        assert len(blinded) == 100717
        assert key.source_counts() == {"c1": 60000, "q2": 30000, "q3": 10717}

    def test_golden_permutation(self):
        # frozen output of the seeded generator; guards the permutation algorithm
        a = make_string("a", [0, 0])
        b = make_string("b", [1], 0.99, SourceKind.QUBIT)
        blinded, key = combine_and_permute([a, b], np.random.default_rng(123))
        assert list(blinded) == [0, 0, 1]
        assert key.entries == (("a", 1), ("a", 0), ("b", 0))

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 1000, 4097, 100717])
    def test_permutation_matches_the_swap_reference(self, n):
        # reference: the same high-index-first swaps, done on a numpy array
        perm = np.arange(n)
        u = np.random.default_rng(n).random(max(n - 1, 0))
        for step, i in enumerate(range(n - 1, 0, -1)):
            j = int(u[step] * (i + 1))
            perm[i], perm[j] = perm[j], perm[i]
        assert np.array_equal(_fisher_yates(n, np.random.default_rng(n)), perm)

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
            order = tuple(items[[idx for _, idx in key.entries]])
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
        for pos, (sid, idx) in enumerate(key.entries):
            assert grouped[sid][idx] == pos

    def test_rejects_length_mismatch(self):
        key = BlindingKey(("a",), [0, 0], [0, 1])
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


class TestKeyFile:
    def test_round_trip_small(self, tmp_path):
        key = BlindingKey(("a", "b"), [0, 1, 0], [1, 0, 0], seed_descriptor="42/blinding")
        path = tmp_path / "key.csv"
        write_key(key, path)
        back = read_key(path)
        assert back.entries == key.entries
        assert back.seed_descriptor == key.seed_descriptor

    def test_golden_bytes(self, tmp_path):
        path = tmp_path / "key.csv"
        write_key(golden_key(), path)
        assert path.read_bytes() == GOLDEN_KEY_CSV.encode()
        assert read_key(path).entries == golden_key().entries

    @pytest.mark.parametrize(
        "n",
        [0, 1, ROWS_PER_WRITE - 1, ROWS_PER_WRITE, ROWS_PER_WRITE + 1, 2 * ROWS_PER_WRITE + 3],
    )
    def test_block_writer_matches_the_row_reference(self, tmp_path, rng, n):
        ids = ("c1", "q" * 300, "q3_x")
        code = rng.integers(0, len(ids), n)
        index = np.empty(n, dtype=np.intp)
        for c in range(len(ids)):
            where = np.flatnonzero(code == c)
            index[where] = rng.permutation(len(where))
        key = BlindingKey(ids, code, index, "7/blinding")
        path = tmp_path / "key.csv"
        write_key(key, path)
        assert path.read_bytes() == key_csv_reference(key)
        back = read_key(path)
        assert back.entries == key.entries
        assert back.seed_descriptor == key.seed_descriptor

    def test_long_ids_and_missing_final_newline(self, tmp_path):
        # a source id longer than any fixed field width, on a last line with no newline
        sid = "s" * 300
        path = tmp_path / "key.csv"
        path.write_text(f"# seed=x\nblinded_index,source_id,source_index\n0,a,0\n\n1,{sid},0")
        key = read_key(path)
        assert key.entries == (("a", 0), (sid, 0))

    @pytest.mark.parametrize(
        "body",
        ["0,a,0,extra\n", "0,a,1.5\n", "0,a,x\n", "0.0,a,0\n"],
        ids=["four fields", "fractional index", "word index", "fractional position"],
    )
    def test_malformed_fields_rejected(self, tmp_path, body):
        path = tmp_path / "key.csv"
        path.write_text("# seed=x\nblinded_index,source_id,source_index\n" + body)
        with pytest.raises(KeyFileError):
            read_key(path)

    def test_rows_out_of_order_rejected(self, tmp_path):
        path = tmp_path / "key.csv"
        path.write_text("# seed=x\nblinded_index,source_id,source_index\n1,a,0\n0,a,1\n")
        with pytest.raises(KeyFileError, match="out of order"):
            read_key(path)

    def test_duplicate_entry_rejected(self, tmp_path):
        path = tmp_path / "key.csv"
        path.write_text(
            "# seed=x\nblinded_index,source_id,source_index\n0,a,0\n1,a,0\n"
        )
        with pytest.raises(KeyBijectionError):
            read_key(path)

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "key.csv"
        path.write_text("# seed=x\nblinded_index,source_id,source_index\n0,a\n")
        with pytest.raises(KeyFileError):
            read_key(path)

    def test_missing_seed_comment_rejected(self, tmp_path):
        path = tmp_path / "key.csv"
        path.write_text("blinded_index,source_id,source_index\n0,a,0\n")
        with pytest.raises(KeyFileError):
            read_key(path)

    def test_round_trip_paper_scale(self, tmp_path, rng):
        import time

        strings = [
            make_string("c1", rng.integers(0, 2, 60000)),
            make_string("q2", rng.integers(0, 2, 30000), 0.99, SourceKind.QUBIT),
            make_string("q3", rng.integers(0, 2, 10717), 0.55, SourceKind.QUBIT),
        ]
        _, key = combine_and_permute(strings, rng)
        path = tmp_path / "key.csv"
        write_key(key, path)
        start = time.perf_counter()
        back = read_key(path)
        elapsed = time.perf_counter() - start
        assert back.entries == key.entries
        assert back.seed_descriptor == key.seed_descriptor
        assert elapsed < 1.0
