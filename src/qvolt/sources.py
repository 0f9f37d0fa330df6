"""Control bit string generation and serialization.

A source is an id, a readout fidelity and a bit count. The classical
random-bit generator is the source at fidelity 1/2, the systematics control;
the qubit sources sit at their measured fidelities. Every source records fair
Bernoulli draws, because measuring an equal superposition is 50/50 regardless
of readout fidelity. Fidelity rides along as metadata and only enters the
signal model.
"""

from dataclasses import dataclass
import operator
import os
import re

import numpy as np

from . import files


# Source ids name files (bits_<id>.txt) and fill a column of key.csv
_SOURCE_ID = re.compile(r"[A-Za-z0-9_-]+")


@dataclass(frozen=True)
class SourceSpec:
    id: str
    fidelity: float
    count: int

    def __post_init__(self):
        # Python numbers, so the bit-file header holds values ingest_bits reads back
        object.__setattr__(self, "fidelity", float(self.fidelity))
        object.__setattr__(self, "count", operator.index(self.count))
        if not _SOURCE_ID.fullmatch(self.id):
            raise ValueError(f"source id {self.id!r} is not made of A-Z, a-z, 0-9, '_' and '-'")
        if len(self.id) > 237:
            raise ValueError(f"source id of {len(self.id)} characters is over 237: "
                             "histogram_<id>_low.csv must fit a 255-byte file name")
        if self.id == "blinded":
            # histogram_<id>_low.csv would overwrite the pooled histogram_blinded_low.csv
            raise ValueError("source id 'blinded' is reserved for the blinded histogram")
        if not 0.5 <= self.fidelity <= 1.0:
            raise ValueError(f"fidelity {self.fidelity} outside [1/2, 1]")
        if self.count < 1:
            raise ValueError(f"count {self.count} < 1")


@dataclass(frozen=True)
class BitString:
    source: SourceSpec
    bits: np.ndarray  # uint8, values in {0, 1}

    def __post_init__(self):
        bits = np.asarray(self.bits)
        if bits.shape != (self.source.count,):
            raise ValueError(
                f"bits of shape {bits.shape} do not match source count {self.source.count}"
            )
        if np.any((bits != 0) & (bits != 1)):  # before the cast, which would wrap 256 to 0
            raise ValueError("bits must be 0 or 1")
        object.__setattr__(self, "bits", bits.astype(np.uint8, copy=False))

    def __eq__(self, other):
        if not isinstance(other, BitString):
            return NotImplemented
        return self.source == other.source and np.array_equal(self.bits, other.bits)


def generate(spec: SourceSpec, rng: np.random.Generator) -> BitString:
    """spec.count fair bits at any fidelity; fidelity only enters the signal model."""
    return BitString(spec, rng.integers(0, 2, size=spec.count, dtype=np.uint8))


def write_bits(bitstring: BitString, path: str | os.PathLike) -> None:
    """Write the one-bit-per-line file format with its single header line."""
    src = bitstring.source
    # one digit and one newline per bit
    body = np.full(2 * len(bitstring.bits), ord("\n"), dtype=np.uint8)
    body[0::2] = bitstring.bits + ord("0")
    files.write_text(path, f"# id={src.id} fidelity={src.fidelity!r} n={src.count}\n"
                     + body.tobytes().decode("ascii"))


# the header fields a bit file declares; ingest_bits skips any other token
_HEADER_FIELDS = ("id", "fidelity", "n")


def ingest_bits(path: str | os.PathLike) -> BitString:
    """Parse a bit file back into a BitString; header and body validated strictly."""
    with files.open_text(path) as fh:
        header = fh.readline().rstrip("\n")
        body = fh.read()

    if not header.startswith("# "):
        raise ValueError(f"{path}: missing '# ' header line")
    fields = {}
    for token in header[2:].split():
        if "=" not in token:
            raise ValueError(f"{path}: bad header token {token!r}")
        key, value = token.split("=", 1)
        if key in _HEADER_FIELDS and key in fields:
            raise ValueError(f"{path}: header token {token!r} repeats the '{key}=' field")
        fields[key] = value
    for key in _HEADER_FIELDS:
        if key not in fields:
            raise ValueError(f"{path}: header has no '{key}=' field")
    try:
        spec = SourceSpec(fields["id"], float(fields["fidelity"]), int(fields["n"]))
    except ValueError as exc:
        raise ValueError(f"{path}: invalid header fields: {exc}") from exc

    # a valid body alternates a digit and a newline; the last newline is optional
    if body and not body.endswith("\n"):
        body += "\n"
    chars = np.frombuffer(body.encode(), dtype=np.uint8)
    ok = chars == ord("\n")
    ok[0::2] = (chars[0::2] == ord("0")) | (chars[0::2] == ord("1"))
    bad = np.flatnonzero(~ok)
    if bad.size:
        start = int(bad[0]) - int(bad[0]) % 2
        line = body[start:body.index("\n", start)]
        raise ValueError(f"{path}: line {start // 2 + 2}: expected '0' or '1', got {line!r}")
    bits = chars[0::2] - np.uint8(ord("0"))
    if len(bits) != spec.count:
        raise ValueError(
            f"{path}: header declares n={spec.count} but body has {len(bits)} bits"
        )
    return BitString(source=spec, bits=bits)
