"""Blinding protocol: permute the combined bit strings, persist the key, invert later.

The permutation key is the permutation itself, drawn by one
`Generator.permutation` call on the run's blinding sub-stream: blinded
position p holds bit `permutation[p]` of the sources laid end to end, in the
order of `source_ids`, with `counts[c]` bits from source c. It lives in its
own file, written by the run step and read only by the explicit unblinding
step; the blinded summary must never touch it.
"""

from dataclasses import dataclass
import os
from typing import Sequence

import numpy as np

from . import files
from .sources import BitString


@dataclass(frozen=True, eq=False)
class BlindingKey:
    """The blinding permutation over the sources laid end to end, and the sources' sizes."""

    source_ids: tuple  # of str, in the order the sources are laid end to end
    counts: np.ndarray  # int, the number of bits of each source
    permutation: np.ndarray  # int32, the end-to-end bit held by each blinded position

    def __post_init__(self):
        ids = tuple(self.source_ids)
        counts = np.asarray(self.counts, dtype=np.intp)
        perm = np.asarray(self.permutation)
        if len(set(ids)) != len(ids) or counts.shape != (len(ids),) or perm.ndim != 1:
            raise ValueError("need distinct ids, a count for each and a 1-D permutation")
        n = len(perm)
        if n > 2**31:  # refused before any entry is read
            raise ValueError(f"{n} positions: an int32 permutation holds at most 2**31")
        sizes = counts.tolist()  # one per source, so cheaper to check in Python
        if min(sizes, default=0) < 0 or sum(sizes) != n:
            raise ValueError(f"source counts {sizes} do not split {n} positions")
        if n and (perm.min() < 0 or perm.max() >= n):  # in the given dtype: none wraps
            p = ((perm < 0) | (perm >= n)).argmax()
            raise ValueError(f"blinded position {p}: bit {perm[p]} outside 0..{n - 1}")
        perm = perm.astype(np.int32, copy=False)
        for name, value in (("source_ids", ids), ("counts", counts), ("permutation", perm)):
            object.__setattr__(self, name, value)
        held = np.zeros(n, dtype=bool)
        held[perm] = True
        if np.count_nonzero(held) < n:  # n entries in 0..n-1 miss a bit only if one repeats
            hits = np.bincount(perm, minlength=n)
            p, q = np.flatnonzero(perm == perm[(hits[perm] > 1).argmax()])[:2]
            raise ValueError(f"blinded positions {p} and {q} both hold bit {perm[p]}")

    def __len__(self) -> int:
        return len(self.permutation)

    def origins(self) -> tuple[np.ndarray, np.ndarray]:
        """Each blinded position's source, as an index into `source_ids`, and its index there.

        The source indexes are of the smallest unsigned dtype that holds them. Each index
        is built as int32 and subtracted in place, so the only int32 array is the result's.
        """
        ids = np.arange(len(self.source_ids), dtype=np.min_scalar_type(len(self.source_ids)))
        code = np.repeat(ids, self.counts)[self.permutation]
        index = (self.counts.cumsum() - self.counts).astype(np.int32)[code]
        return code, np.subtract(self.permutation, index, out=index)

    def source_counts(self) -> dict[str, int]:
        return dict(zip(self.source_ids, self.counts.tolist()))


def combine_and_permute(
    strings: Sequence[BitString], rng: np.random.Generator
) -> tuple[np.ndarray, BlindingKey]:
    """Concatenate the sources and apply one `rng.permutation` of all their bits.

    Returns the blinded bit sequence and the key holding that permutation, as int32: the
    draw is narrowed, and the key refuses more positions than int32 holds.
    """
    if not strings or all(len(s.bits) == 0 for s in strings):
        raise ValueError("need at least one non-empty bit string")
    counts = [len(s.bits) for s in strings]
    perm = rng.permutation(sum(counts)).astype(np.int32)  # numpy shuffles int64 faster
    key = BlindingKey(tuple(s.source.id for s in strings), counts, perm)
    return np.concatenate([s.bits for s in strings])[perm], key


def unblind(values, key: BlindingKey) -> dict[str, np.ndarray]:
    """Regroup readings, given by blinded position, by source in original within-source order."""
    values = np.asarray(values, dtype=float)
    if len(values) != len(key):
        raise ValueError(f"{len(values)} readings but key has {len(key)} entries")
    grouped = np.empty(len(key))
    grouped[key.permutation] = values
    return dict(zip(key.source_ids, np.split(grouped, np.cumsum(key.counts)[:-1])))


_KEY_HEADER = "source_id,source_index"


def write_key(key: BlindingKey, path: str | os.PathLike) -> dict[str, bytes]:
    """Write key.csv, then its cache, which holds the columns `read_key` reads; their digests.

    An id that would not parse back is refused by `files.write_table` before it opens a file.
    """
    code, index = key.origins()
    return files.write_table(path, _KEY_HEADER, [(code, key.source_ids), index])


def read_key(path: str | os.PathLike) -> tuple[BlindingKey, dict[str, bytes]]:
    """The key whose blinded position p holds bit source_index[p] of source source_id[p].

    The ids are sorted and the counts and permutation follow them; an id that no position
    holds is left out, as it has no row in key.csv. The permutation is the int32 column
    read, each source's offset added; an entry taken past int32 wraps below 0, for the
    key's checks to name. Also returns the digests it was read from (`files.read_table`).
    """
    ((code, ids), index), digests = files.read_table(path, _KEY_HEADER, (str, int))
    # read_table refuses a negative index, so one past its source's count breaks the permutation
    # counted and gathered a block at a time: numpy casts whole index arrays to intp, and a
    # full-length intp copy of the codes would double the columns' memory
    blocks = [slice(lo, lo + files.CSV_BLOCK_ROWS)
              for lo in range(0, len(index), files.CSV_BLOCK_ROWS)]
    counts = np.zeros(len(ids), dtype=np.intp)
    for block in blocks:
        counts += np.bincount(code[block], minlength=len(ids))
    held = sorted(np.flatnonzero(counts).tolist(), key=ids.__getitem__)
    counts = counts[held]
    start = np.zeros(len(ids), dtype=np.intp)  # each held source's first end-to-end bit
    start[held] = counts.cumsum() - counts
    for block in blocks:  # read_table's column is ours: it becomes the permutation
        index[block] += start[code[block]]
    del code  # not kept through the key's checks
    try:
        key = BlindingKey(tuple(ids[c] for c in held), counts, index)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return key, digests
