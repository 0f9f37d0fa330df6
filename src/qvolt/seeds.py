"""Seed derivation for reproducible sub-streams.

One master seed per run; bit generation per source, the blinding permutation and
the acquisition noise each get an independent stream derived by hashing (master,
label...), so adding or reordering consumers never perturbs the others. The fit's
Monte Carlo is seeded by the fit's inputs (`pipeline.unblind_fit`), not from here.

Acquisition noise is one counter-based Philox stream keyed by the noise seed
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11). Cycle i
owns a fixed run of raw outputs, reached by advancing the counter, so any
cycle or batch of cycles is drawn on its own without drawing those before it.
"""

import hashlib

import numpy as np


def derive_seed(master: int, *labels) -> int:
    """Deterministic 64-bit sub-seed from a master seed and a label path."""
    h = hashlib.sha256()
    h.update(str(int(master)).encode())
    for lab in labels:
        h.update(b"/")
        h.update(str(lab).encode())
    return int.from_bytes(h.digest()[:8], "little")


def derive_rng(master: int, *labels) -> np.random.Generator:
    """Independent generator for the sub-stream named by `labels`."""
    return np.random.default_rng(derive_seed(master, *labels))


def cycle_rng(noise_seed: int, first_cycle: int, n_cycles: int, per_cycle: int) -> np.ndarray:
    """Standard normals of shape (n_cycles, per_cycle), one row per cycle from first_cycle on.

    Cycle i owns raw outputs [i * per_cycle, (i + 1) * per_cycle) of the Philox
    stream keyed by `noise_seed`. Philox yields 4 words per counter step, so
    the start is reached by advancing the counter start // 4 steps and
    skipping start % 4 words. Each word maps through the inverse normal CDF,
    one word per value, so a value depends only on its position: drawing a
    cycle alone, in any batch or in any order gives the same numbers.
    """
    if first_cycle < 0 or n_cycles < 0 or per_cycle < 1:
        raise ValueError(
            f"bad cycle range: first {first_cycle}, n {n_cycles}, per cycle {per_cycle}"
        )
    start = first_cycle * per_cycle
    bitgen = np.random.Philox(noise_seed)
    bitgen.advance(start // 4)
    skip = start % 4
    raw = bitgen.random_raw(skip + n_cycles * per_cycle)[skip:].reshape(n_cycles, per_cycle)
    return normals_from_raw(raw, out=raw)  # the words are ours, so they become the normals


# the bits of the float64 1.0: OR-ed onto a word k < 2**52 they give 1 + k * 2**-52
_ONE_BITS = np.uint64(0x3FF0000000000000)


def normals_from_raw(raw: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Standard normals from 64-bit words, via u = (top 52 bits + 1/2) / 2**52 in (0, 1).

    52 bits keep u's extremes, 2**-53 and 1 - 2**-53, exact in double
    precision; with 53 bits the top word would round to u = 1 and map to
    +inf. The tails are cut at |z| = 8.21.

    u is built without a float conversion: the top 52 bits k of a word become
    the mantissa of 1 + k * 2**-52, and subtracting 1 - 2**-53 leaves
    (k + 1/2) * 2**-52. Both steps are exact (the subtraction by Sterbenz's
    lemma), so u is the same float as ((k + 0.5) * 2**-52). The normals are built
    in the uint64 array `out`, a new one by default or `raw` itself, and returned
    as its float64 view. scipy is imported here, at first use, so that the steps
    that draw no noise never load it.
    """
    from scipy.special import ndtri

    if out is None:
        out = np.empty(np.shape(raw), np.uint64)
    words = np.right_shift(raw, np.uint64(12), out=out)
    words |= _ONE_BITS
    u = words.view(np.float64)
    u -= 1.0 - 2.0**-53
    return ndtri(u, out=u)
