"""Blinding protocol: permute the combined bit strings, persist the key, invert later.

The permutation key maps each blinded cycle position back to its
(source_id, within-source index) origin, held as two int arrays: the source
code and the within-source index of each position. It lives in its own file,
written by the run step and read only by the explicit unblinding step; the
blinded summary must never touch it.
"""

from dataclasses import dataclass
import os
from typing import Sequence

import numpy as np

from .signal import read_blinded_rows, write_rows
from .sources import BitString


class KeyFileError(ValueError):
    """Malformed key file content."""


class KeyBijectionError(ValueError):
    """Key entries do not form a bijection onto the sources."""


@dataclass(frozen=True, eq=False)
class BlindingKey:
    """Origin of every blinded position: a source, by its code, and the index within it."""

    source_ids: tuple  # of str; a source code indexes this tuple
    source_code: np.ndarray  # int, the source of each blinded position
    source_index: np.ndarray  # int, the within-source index of each blinded position
    seed_descriptor: str = ""

    def __post_init__(self):
        ids = tuple(self.source_ids)
        code = np.asarray(self.source_code, dtype=np.intp)
        index = np.asarray(self.source_index, dtype=np.intp)
        for name, value in (("source_ids", ids), ("source_code", code), ("source_index", index)):
            object.__setattr__(self, name, value)
        if code.ndim != 1 or code.shape != index.shape:
            raise KeyBijectionError("source codes and indices must be 1-D and of one length")
        if len(set(ids)) != len(ids):
            raise KeyBijectionError(f"duplicate source ids: {list(ids)}")
        if code.min(initial=0) < 0 or code.max(initial=-1) >= len(ids):
            raise KeyBijectionError(f"source codes outside 0..{len(ids) - 1}")
        counts, slots = self._layout()
        outside = (index < 0) | (index >= counts[code])
        if outside.any():
            c = code[outside.argmax()]
            raise KeyBijectionError(f"source {ids[c]!r}: indices do not cover 0..{counts[c] - 1}")
        # there are as many slots as positions: a bijection hits no slot twice
        hits = np.bincount(slots, minlength=len(slots))
        if hits.max(initial=0) > 1:
            twice = (hits[slots] > 1).argmax()
            raise KeyBijectionError(f"duplicated key entry {self.entries[twice]}")

    def __len__(self) -> int:
        return len(self.source_code)

    @property
    def entries(self) -> tuple:
        """(source_id, within-source index) of each blinded position, derived from the arrays."""
        return tuple(zip(self.position_ids().tolist(), self.source_index.tolist()))

    def position_ids(self) -> np.ndarray:
        """The source id of each blinded position, as an object array of str."""
        return np.array(self.source_ids, dtype=object)[self.source_code]

    def source_counts(self) -> dict[str, int]:
        return dict(zip(self.source_ids, self._layout()[0].tolist()))

    def _layout(self) -> tuple[np.ndarray, np.ndarray]:
        """Positions per source, and each position's slot in the sources laid end to end."""
        counts = np.bincount(self.source_code, minlength=len(self.source_ids))
        return counts, (np.cumsum(counts) - counts)[self.source_code] + self.source_index


def _fisher_yates(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform permutation of range(n), drawn high-index-first from the stream."""
    perm = list(range(n))
    # swap i targets int(u * (i + 1)): the same IEEE multiply, truncated toward zero
    targets = (rng.random(max(n - 1, 0)) * np.arange(n, 1, -1)).astype(np.intp).tolist()
    for i, j in zip(range(n - 1, 0, -1), targets):
        perm[i], perm[j] = perm[j], perm[i]
    return np.array(perm, dtype=np.intp)


def combine_and_permute(
    strings: Sequence[BitString],
    rng: np.random.Generator,
    seed_descriptor: str = "",
) -> tuple[np.ndarray, BlindingKey]:
    """Concatenate the sources and apply a uniformly random permutation.

    Returns the blinded bit sequence and the key mapping every blinded
    position to its origin.
    """
    if not strings or all(len(s.bits) == 0 for s in strings):
        raise ValueError("need at least one non-empty bit string")
    counts = [len(s.bits) for s in strings]
    perm = _fisher_yates(sum(counts), rng)
    code = np.repeat(np.arange(len(strings)), counts)[perm]
    index = np.concatenate([np.arange(c) for c in counts])[perm]
    key = BlindingKey(tuple(s.source.id for s in strings), code, index, seed_descriptor)
    return np.concatenate([s.bits for s in strings])[perm], key


def unblind(values, key: BlindingKey) -> dict[str, np.ndarray]:
    """Regroup readings, given by blinded position, by source in original within-source order."""
    values = np.asarray(values, dtype=float)
    if len(values) != len(key):
        raise ValueError(f"{len(values)} readings but key has {len(key)} entries")
    counts, slots = key._layout()
    grouped = np.empty(len(key))
    grouped[slots] = values
    return dict(zip(key.source_ids, np.split(grouped, np.cumsum(counts)[:-1])))


_KEY_HEADER = "blinded_index,source_id,source_index"


def write_key(key: BlindingKey, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# seed={key.seed_descriptor}\n{_KEY_HEADER}\n")
        write_rows(fh, "%d,%s,%d\n", key.position_ids(), key.source_index)


def read_key(path: str | os.PathLike) -> BlindingKey:
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        if not first.startswith("# seed="):
            raise KeyFileError(f"{path}: missing '# seed=' comment line")
        descriptor = first[len("# seed="):]
        header = fh.readline().rstrip("\n")
        if header != _KEY_HEADER:
            raise KeyFileError(f"{path}: unexpected key header {header!r}")
        body = fh.tell()
        text = np.frombuffer(fh.read().encode(), np.uint8)
        # no source id is longer than the longest line
        width = int(np.diff(np.flatnonzero(text == ord("\n")), prepend=-1, append=len(text)).max())
        fh.seek(body)
        dtype = [("pos", np.int64), ("source_id", f"S{width}"), ("source_index", np.int64)]
        rows = read_blinded_rows(fh, path, dtype, KeyFileError)
    ids, code = np.unique(rows["source_id"], return_inverse=True)
    ids = tuple(sid.decode("latin-1") for sid in ids.tolist())
    return BlindingKey(ids, code, rows["source_index"], descriptor)
