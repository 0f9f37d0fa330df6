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
    permutation: np.ndarray  # int, the end-to-end bit held by each blinded position
    seed_descriptor: str = ""

    def __post_init__(self):
        ids = tuple(self.source_ids)
        counts = np.asarray(self.counts, dtype=np.intp)
        perm = np.asarray(self.permutation, dtype=np.intp)
        for name, value in (("source_ids", ids), ("counts", counts), ("permutation", perm)):
            object.__setattr__(self, name, value)
        n = len(perm)
        if len(set(ids)) != len(ids) or counts.shape != (len(ids),) or perm.ndim != 1:
            raise ValueError("need distinct ids, a count for each and a 1-D permutation")
        sizes = counts.tolist()  # one per source, so cheaper to check in Python
        if min(sizes, default=0) < 0 or sum(sizes) != n:
            raise ValueError(f"source counts {sizes} do not split {n} positions")
        outside = perm.view(np.uintp) >= n  # as unsigned, a negative entry is >= n too
        if np.count_nonzero(outside):
            p = outside.argmax()
            raise ValueError(f"blinded position {p}: bit {perm[p]} outside 0..{n - 1}")
        hits = np.bincount(perm, minlength=n)
        if np.count_nonzero(hits) < n:  # n entries in 0..n-1 miss a bit only if one repeats
            p, q = np.flatnonzero(perm == perm[(hits[perm] > 1).argmax()])[:2]
            raise ValueError(f"blinded positions {p} and {q} both hold bit {perm[p]}")

    def __len__(self) -> int:
        return len(self.permutation)

    def origins(self) -> tuple[np.ndarray, np.ndarray]:
        """Each blinded position's source, as an index into `source_ids`, and its index there."""
        ends = self.counts.cumsum()
        code = ends.searchsorted(self.permutation, side="right")
        return code, self.permutation - (ends - self.counts)[code]

    def source_counts(self) -> dict[str, int]:
        return dict(zip(self.source_ids, self.counts.tolist()))


def combine_and_permute(
    strings: Sequence[BitString],
    rng: np.random.Generator,
    seed_descriptor: str = "",
) -> tuple[np.ndarray, BlindingKey]:
    """Concatenate the sources and apply one `rng.permutation` of all their bits.

    Returns the blinded bit sequence and the key holding that permutation.
    """
    if not strings or all(len(s.bits) == 0 for s in strings):
        raise ValueError("need at least one non-empty bit string")
    counts = [len(s.bits) for s in strings]
    perm = rng.permutation(sum(counts))
    key = BlindingKey(tuple(s.source.id for s in strings), counts, perm, seed_descriptor)
    return np.concatenate([s.bits for s in strings])[perm], key


def unblind(values, key: BlindingKey) -> dict[str, np.ndarray]:
    """Regroup readings, given by blinded position, by source in original within-source order."""
    values = np.asarray(values, dtype=float)
    if len(values) != len(key):
        raise ValueError(f"{len(values)} readings but key has {len(key)} entries")
    grouped = np.empty(len(key))
    grouped[key.permutation] = values
    return dict(zip(key.source_ids, np.split(grouped, np.cumsum(key.counts)[:-1])))


_KEY_HEADER = "blinded_index,source_id,source_index"


def write_key(key: BlindingKey, path: str | os.PathLike) -> None:
    """Write key.csv, then its cache, which holds the columns `read_key` reads.

    A comma or a line break in an id, or a line break in the seed descriptor,
    would give a key.csv that does not parse back, and the writer drops every
    NUL as padding, so any of these raises ValueError before the file is opened.
    """
    for sid in key.source_ids:
        if any(c in sid for c in ",\n\r\0"):
            raise ValueError(f"{path}: source id {sid!r} holds a comma, a line break or a NUL")
    if any(c in key.seed_descriptor for c in "\n\r"):
        raise ValueError(f"{path}: seed descriptor {key.seed_descriptor!r} holds a line break")
    code, index = key.origins()
    files.write_table(path, f"# seed={key.seed_descriptor}\n{_KEY_HEADER}",
                      [(code, key.source_ids), index])


def read_key(path: str | os.PathLike) -> BlindingKey:
    """The key whose blinded position p holds bit source_index[p] of source source_id[p].

    The ids are sorted and the counts and permutation follow them; an id that
    no position holds is left out, as it has no row in key.csv.
    """
    head, ((code, ids), index) = files.read_table(path, 2, _key_head, (str, int))
    # with no negative index, one past its source's count breaks the permutation
    if (index < 0).any():
        raise ValueError(f"{path}: blinded position {(index < 0).argmax()}: source_index < 0")
    counts = np.bincount(code, minlength=len(ids))
    held = sorted(np.flatnonzero(counts).tolist(), key=ids.__getitem__)
    counts = counts[held]
    start = np.zeros(len(ids), dtype=np.intp)  # each held source's first end-to-end bit
    start[held] = counts.cumsum() - counts
    index += start[code]  # read_table's column is ours: it becomes the permutation
    try:
        return BlindingKey(tuple(ids[c] for c in held), counts, index, head[0][len("# seed="):])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _key_head(path, lines: list[str]) -> None:
    if not lines[0].startswith("# seed="):
        raise ValueError(f"{path}: missing '# seed=' comment line")
    if lines[1] != _KEY_HEADER:
        raise ValueError(f"{path}: unexpected key header {lines[1]!r}")
