import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvolt.sources import (
    BitString,
    SourceSpec,
    generate,
    ingest_bits,
    write_bits,
)


class TestSourceSpec:
    def test_rejects_out_of_range_fidelity(self):
        with pytest.raises(ValueError):
            SourceSpec("q", 0.3, 10)
        with pytest.raises(ValueError):
            SourceSpec("q", 1.2, 10)

    @pytest.mark.parametrize("sid", ["q 2", "q,2", "", "q/2", "q.2", "q\u00e9"])
    def test_rejects_ids_outside_the_id_alphabet(self, sid):
        with pytest.raises(ValueError, match="source id"):
            SourceSpec(sid, 0.9, 10)

    def test_accepts_ids_in_the_id_alphabet(self):
        assert SourceSpec("Q_2-b9", 0.9, 10).id == "Q_2-b9"

    def test_rejects_zero_count(self):
        with pytest.raises(ValueError):
            SourceSpec("q", 0.9, 0)


class TestGenerators:
    def test_deterministic_under_fixed_seed(self):
        a = generate(SourceSpec("c1", 0.5, 8), np.random.default_rng(7))
        b = generate(SourceSpec("c1", 0.5, 8), np.random.default_rng(7))
        assert np.array_equal(a.bits, b.bits)

    def test_paper_classical_string(self, rng):
        bs = generate(SourceSpec("c1", 0.5, 60000), rng)
        assert len(bs.bits) == 60000
        assert bs.source.fidelity == 0.5

    def test_classical_is_fair(self):
        n = 100_000
        bs = generate(SourceSpec("c1", 0.5, n), np.random.default_rng(11))
        # 5 sigma of the binomial sd sqrt(1/(4n))
        assert abs(bs.bits.mean() - 0.5) < 5 * math.sqrt(1 / (4 * n))

    def test_qubit_metadata(self, rng):
        q2 = generate(SourceSpec("q2", 0.99, 30000), rng)
        assert len(q2.bits) == 30000
        assert q2.source.fidelity == 0.99
        q3 = generate(SourceSpec("q3", 0.55, 10717), rng)
        assert len(q3.bits) == 10717
        assert q3.source.fidelity == 0.55

    def test_qubit_bits_fair_regardless_of_fidelity(self):
        n = 10_000
        bs = generate(SourceSpec("q", 0.75, n), np.random.default_rng(13))
        assert abs(bs.bits.mean() - 0.5) < 5 * math.sqrt(1 / (4 * n))

    def test_rejects_empty_or_bad_fidelity(self, rng):
        with pytest.raises(ValueError):
            generate(SourceSpec("c1", 0.5, 0), rng)
        with pytest.raises(ValueError):
            generate(SourceSpec("q", 0.2, 10), rng)


class TestBitString:
    @pytest.mark.parametrize(
        "bits",
        [np.array([256, 0, 1]), [0.5, 1.5, 1.0], [0.0, np.nan, 1.0], [2, 0, 1], [-1, 0, 1]],
        ids=["256 wraps to 0", "fractions", "nan", "two", "minus one"],
    )
    def test_rejects_values_other_than_0_and_1(self, bits):
        spec = SourceSpec("s", 0.8, 3)
        with pytest.raises(ValueError, match="bits must be 0 or 1"):
            BitString(spec, bits)

    @pytest.mark.parametrize(
        "bits", [np.array(1), [0, 1], [0, 1, 1, 0], [[0, 1, 1]]], ids=["0-d", "short", "long", "2-d"]
    )
    def test_rejects_shapes_other_than_one_bit_per_count(self, bits):
        spec = SourceSpec("s", 0.8, 3)
        with pytest.raises(ValueError, match="do not match source count 3"):
            BitString(spec, bits)

    def test_stores_exact_zeros_and_ones_as_uint8(self):
        spec = SourceSpec("s", 0.8, 3)
        bits = BitString(spec, [0.0, 1.0, True]).bits
        assert bits.dtype == np.uint8 and bits.tolist() == [0, 1, 1]

    def test_is_unequal_to_what_is_not_a_bit_string(self):
        bs = BitString(SourceSpec("s", 0.8, 3), [0, 1, 1])
        assert bs.__eq__(object()) is NotImplemented
        assert bs != object() and not bs == object()


class TestBitFile:
    def test_direct_parse(self, tmp_path):
        path = tmp_path / "bits.txt"
        path.write_text("# id=q kind=qubit fidelity=0.9 n=5\n0\n1\n1\n0\n1\n")
        bs = ingest_bits(path)
        assert list(bs.bits) == [0, 1, 1, 0, 1]
        assert bs.source.id == "q"
        assert bs.source.fidelity == 0.9

    def test_count_mismatch(self, tmp_path):
        path = tmp_path / "bits.txt"
        path.write_text("# id=q kind=qubit fidelity=0.9 n=5\n0\n1\n1\n0\n")
        message = f"{path}: header declares n=5 but body has 4 bits"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ingest_bits(path)

    def test_invalid_bit_character(self, tmp_path):
        path = tmp_path / "bits.txt"
        path.write_text("# id=q kind=qubit fidelity=0.9 n=2\n0\n2\n")
        message = f"{path}: line 3: expected '0' or '1', got '2'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ingest_bits(path)

    @pytest.mark.parametrize("row", [0, 9000], ids=["first row", "past 8 KiB"])
    def test_non_utf8_byte_names_the_file_and_line(self, tmp_path, row):
        rows = [b"0\n"] * 10000
        rows[row] = b"\xff\n"
        path = tmp_path / "bits.txt"
        path.write_bytes(b"# id=q kind=qubit fidelity=0.9 n=10000\n" + b"".join(rows))
        with pytest.raises(ValueError, match=re.escape(f"{path}: line {row + 2}: not UTF-8")):
            ingest_bits(path)

    def test_golden_bytes(self, tmp_path):
        # the bit file of a small fixed string; the other tests here keep the older header,
        # which also has a kind=<word> token, to show that such files still read
        original = BitString(SourceSpec("q-2", 0.99, 6), np.array([1, 0, 0, 1, 1, 0], np.uint8))
        path = tmp_path / "bits.txt"
        write_bits(original, path)
        assert path.read_bytes() == b"# id=q-2 fidelity=0.99 n=6\n1\n0\n0\n1\n1\n0\n"
        assert ingest_bits(path) == original

    @pytest.mark.parametrize(
        "body, line, got",
        [
            ("0\n2\n", 3, "'2'"),
            ("0\n10\n1\n", 3, "'10'"),
            ("0\n\n1\n", 3, "''"),
            ("0\n1\n\n", 4, "''"),
            ("0\n1 \n", 3, "'1 '"),
            ("0\nx\u00e9y\n", 3, "'x\u00e9y'"),
        ],
        ids=["digit 2", "two digits", "blank line", "trailing blank line", "trailing space",
             "non-ascii"],
    )
    def test_invalid_bit_names_line(self, tmp_path, body, line, got):
        path = tmp_path / "bits.txt"
        path.write_text("# id=q kind=qubit fidelity=0.9 n=2\n" + body, encoding="utf-8")
        with pytest.raises(ValueError, match=f"line {line}: expected '0' or '1', got {got}$"):
            ingest_bits(path)

    def test_final_newline_optional(self, tmp_path):
        path = tmp_path / "bits.txt"
        path.write_text("# id=q kind=qubit fidelity=0.9 n=3\n0\n1\n1")
        assert list(ingest_bits(path).bits) == [0, 1, 1]

    def test_empty_body_is_a_count_mismatch(self, tmp_path):
        path = tmp_path / "bits.txt"
        path.write_text("# id=q kind=qubit fidelity=0.9 n=1\n")
        message = f"{path}: header declares n=1 but body has 0 bits"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ingest_bits(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bits.txt"
        path.write_text("id=q n=1\n0\n")
        message = f"{path}: missing '# ' header line"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ingest_bits(path)

    @pytest.mark.parametrize("field", ["id", "fidelity", "n"])
    def test_missing_header_field_is_named(self, tmp_path, field):
        path = tmp_path / "bits.txt"
        tokens = {"id": "id=q", "fidelity": "fidelity=0.9", "n": "n=1"}
        del tokens[field]
        path.write_text(f"# {' '.join(tokens.values())}\n0\n")
        message = f"{path}: header has no '{field}=' field"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ingest_bits(path)

    @pytest.mark.parametrize(
        "header, token, field",
        [("# id=q fidelity=0.9 n=2 n=1", "n=1", "n"),
         ("# id=q id=q fidelity=0.9 n=1", "id=q", "id"),
         ("# id=q fidelity=0.9 fidelity=0.9 n=1", "fidelity=0.9", "fidelity")],
        ids=["n", "id", "fidelity"],
    )
    def test_repeated_header_field_is_rejected(self, tmp_path, header, token, field):
        # the last n=1 would otherwise make a 1-bit source of the 1-bit body
        path = tmp_path / "bits.txt"
        path.write_text(f"{header}\n0\n")
        message = f"{path}: header token '{token}' repeats the '{field}=' field"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ingest_bits(path)

    def test_repeated_unknown_token_is_skipped(self, tmp_path):
        path = tmp_path / "bits.txt"
        path.write_text("# id=q kind=a fidelity=0.9 kind=b n=1\n0\n")
        assert ingest_bits(path) == BitString(SourceSpec("q", 0.9, 1), np.array([0], np.uint8))

    @pytest.mark.parametrize(
        "text",
        ["# id=q fidelity=0.4 n=1\n0\n", "# id=q fidelity=0.9 n=0\n",
         "# id= fidelity=0.9 n=1\n0\n"],
        ids=["fidelity", "count", "id"],
    )
    def test_header_values_a_source_rejects_name_the_file(self, tmp_path, text):
        path = tmp_path / "bits.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
            ingest_bits(path)

    @pytest.mark.parametrize("fidelity", [np.float64(0.99), np.float32(0.99)],
                             ids=["float64", "float32"])
    def test_round_trip_numpy_fidelity(self, tmp_path, fidelity):
        original = BitString(SourceSpec("q", fidelity, 3), np.array([1, 0, 1], np.uint8))
        path = tmp_path / "bits.txt"
        write_bits(original, path)
        assert ingest_bits(path) == original
        assert type(original.source.fidelity) is float

    @pytest.mark.parametrize("count, bits", [(np.int64(3), [1, 0, 1]), (True, [1])],
                             ids=["int64", "bool"])
    def test_round_trip_integer_like_count(self, tmp_path, count, bits):
        original = BitString(SourceSpec("q", 0.9, count), np.array(bits, np.uint8))
        path = tmp_path / "bits.txt"
        write_bits(original, path)
        assert ingest_bits(path) == original
        assert type(original.source.count) is int

    def test_round_trip_paper_scale(self, tmp_path, rng):
        original = generate(SourceSpec("q3", 0.55, 10717), rng)
        path = tmp_path / "q3.txt"
        write_bits(original, path)
        assert ingest_bits(path) == original

    @settings(max_examples=50)
    @given(bits=st.lists(st.integers(0, 1), min_size=1, max_size=200))
    def test_round_trip_property(self, bits, tmp_path_factory):
        spec = SourceSpec("s", 0.8, len(bits))
        original = BitString(spec, np.array(bits, dtype=np.uint8))
        path = tmp_path_factory.mktemp("bits") / "b.txt"
        write_bits(original, path)
        assert ingest_bits(path) == original

