"""Dropout-sampled posteriors and acquisition scoring for the unlabelled pool.

Scores use natural-log entropies throughout; only the induced ordering
matters for acquisition.
"""

from __future__ import annotations

import ctypes
from collections.abc import Iterator, Sequence
from functools import reduce
from typing import NamedTuple

import numpy as np

from .data import fraction_count
from .network import Network, row_sums, softmax

MC_BLOCK_ROWS = 320  # rows per MC block: amortises call overhead, bounds peak memory
MAX_ID = 2**32  # ids are one uint32 word of the mask stream key

# numpy's SeedSequence hash constants (INIT_A, MULT_A; INIT_B, MULT_B;
# MIX_MULT_L, MIX_MULT_R in numpy/random/bit_generator.pyx).
MASK32 = 0xFFFF_FFFF
MIX_ENTROPY = (0x43B0_D7E5, 0x931E_8875)  # (initial constant, multiplier)
GENERATE_STATE = (0x8B51_F9DD, 0x58F3_8DED)
MIX_LEFT, MIX_RIGHT = 0xCA01_F9DD, 0x4973_F715


def _words(n: int) -> list[int]:
    """Little-endian uint32 words of a non-negative int, as SeedSequence splits it."""
    if n < 0:
        raise ValueError("stream key words must be non-negative")
    words = [n & MASK32]
    while n > MASK32:
        n >>= 32
        words.append(n & MASK32)
    return words


def _hash_schedule(const: int, mult: int) -> Iterator[tuple[int, int]]:
    """(xor, multiply) constants of successive hash steps; data-independent."""
    while True:
        following = const * mult & MASK32
        yield const, following
        const = following


def _hash(value: np.ndarray, schedule: Iterator[tuple[int, int]]) -> np.ndarray:
    xor, mult = next(schedule)
    value = (value ^ xor) * mult
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = x * MIX_LEFT - y * MIX_RIGHT
    return value ^ (value >> 16)


def stream_keys(seed: int, epoch: int, ids: np.ndarray) -> np.ndarray:
    """One uint64 row [state_lo, state_hi, inc_lo, inc_hi] per id i of a
    uint32 array: `PCG64(SeedSequence([seed, epoch, i]))`, one step early.

    Follows numpy's SeedSequence entropy mix and `generate_state(4, uint64)`
    in uint32 array arithmetic, which wraps like its C code; only the id
    varies, the other entropy words broadcast.  PCG64's seeding ends with
    `state = (initstate + inc) * MULT + inc`, so the earlier state is the
    128-bit sum `initstate + inc`: one carry, no multiply.
    """
    entropy = [np.array([w], dtype=np.uint32) for w in _words(int(seed)) + _words(int(epoch))]
    entropy.append(ids)
    schedule = _hash_schedule(*MIX_ENTROPY)
    pool = [
        _hash(entropy[k] if k < len(entropy) else np.zeros(1, np.uint32), schedule)
        for k in range(4)
    ]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], schedule))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], _hash(word, schedule))
    schedule = _hash_schedule(*GENERATE_STATE)
    halves = [_hash(pool[k % 4], schedule).astype(np.uint64) for k in range(8)]
    high_state, low_state, high_seq, low_seq = (
        halves[k] | halves[k + 1] << 32 for k in range(0, 8, 2))
    inc_lo, inc_hi = low_seq << 1 | 1, high_seq << 1 | low_seq >> 63  # initseq << 1 | 1
    # The low add's carry, as bit 63 of the halved sum: a `<` pages in 64 KB more numpy code.
    carry = ((low_state >> 1) + (inc_lo >> 1) + (low_state & inc_lo & 1)) >> 63
    return np.stack([low_state + inc_lo, high_state + inc_hi + carry, inc_lo, inc_hi], axis=1)


class MaskStore(NamedTuple):
    """The kept bits of MC-dropout masks, one packed row per instance id."""

    key: tuple  # (seed, epoch, n_passes, widths, rate) the rows were drawn for
    ids: np.ndarray  # sorted, distinct int64 ids in [0, MAX_ID)
    bits: np.ndarray  # (len(ids), ceil(n_passes * sum(widths) / 8)) uint8, np.packbits rows


def dropout_masks(seed: int, epoch: int, ids: np.ndarray | list[int], n_passes: int,
                  widths: Sequence[int], rate: float) -> MaskStore:
    """The masks of `n_passes` dropout passes through trunk layers of
    `widths` units, for each distinct id of `ids`, drawn once and bit-packed.

    Instance i's row holds the `n_passes * sum(widths)` uniforms of one
    numpy PCG64 stream seeded by SeedSequence([seed, epoch, i]), kept where
    they are >= rate: layer by layer, each layer's passes in turn.  So its
    masks depend on (seed, epoch, i) alone, never on the network or on the
    other ids.  One generator draws the rows, `MC_BLOCK_ROWS // n_passes` at
    a time: each id's `stream_keys` words go straight into its native 128-bit
    state, and the first uniform, spent on the step to the seeded state, is
    dropped.  The first write is read back against numpy's own generator for
    that id, so another state layout raises RuntimeError, drawing nothing.
    """
    ids = np.sort(np.asarray(ids, dtype=np.int64))
    distinct = np.ones(len(ids), dtype=bool)  # np.unique would import numpy.ma
    distinct[1:] = ids[1:] != ids[:-1]
    ids = ids[distinct]
    if ids.size and not (0 <= ids[0] and ids[-1] < MAX_ID):
        raise ValueError(f"instance ids must lie in [0, {MAX_ID})")
    keys = stream_keys(seed, epoch, ids.astype(np.uint32))
    row_bits = n_passes * sum(widths)
    uniforms = np.empty((max(1, MC_BLOCK_ROWS // n_passes), row_bits + 1))
    bits = np.empty((len(ids), -(-row_bits // 8)), dtype=np.uint8)
    bitgen = np.random.PCG64(0)
    draw = np.random.Generator(bitgen).random
    # numpy's pcg64_state begins with a pointer to the (state, inc) pair.
    pair = ctypes.c_void_p.from_address(bitgen.ctypes.state_address).value
    words = np.frombuffer((ctypes.c_uint64 * 4).from_address(pair), dtype=np.uint64)
    if ids.size:
        words[:] = keys[0]
        seeded = np.random.PCG64(np.random.SeedSequence([seed, epoch, int(ids[0])])).advance(-1)
        if bitgen.state != seeded.state:
            raise RuntimeError("numpy's PCG64 state is not in the native 128-bit layout")
    for start in range(0, len(ids), len(uniforms)):
        block = uniforms[:len(ids) - start]
        for row, key in zip(block, keys[start:start + len(block)]):
            words[:] = key
            draw(out=row)
        bits[start:start + len(block)] = np.packbits(block[:, 1:] >= rate, axis=1)
    return MaskStore((int(seed), int(epoch), n_passes, tuple(widths), rate), ids, bits)


def mc_posteriors(net: Network, features: np.ndarray, ids: np.ndarray | list[int],
                  store: MaskStore) -> np.ndarray:
    """(len(ids), T, C) softmax rows of T dropout passes over the rows `ids`
    of features (N, m), with the masks and T of `store`.

    The store (from `dropout_masks`) may hold other ids too: an event's store
    serves every branch of a seed group.  Its trunk widths and dropout rate
    must be the network's, and each id is looked up by `searchsorted`; either
    failing is a ValueError, never a neighbour's row.  This draws nothing.

    A pass computes only the class rows, on blocks of `MC_BLOCK_ROWS // T`
    instances (at least one), T rows each.  The first trunk layer runs once
    on a block's feature rows, then is repeated T times before its masks
    apply; the later layers and the class head run on the repeated rows, and
    the gate head is skipped.  Inverted dropout's 1 / (1 - rate) is folded
    into the weights of the layer that reads each dropped layer, once per
    call and in C order (a faster BLAS product than a transposed view), so
    a mask is one multiply.  The rows are thus within ulps of
    `forward_batch`'s, not its bits.  A call holds only its block's rows,
    and a BLAS product may round a row with its call's row count, so a
    block's rows depend on its instances and on MC_BLOCK_ROWS: the same ids
    give the same bytes, while another id subset may move a row by ulps.
    """
    ids = np.asarray(ids, dtype=np.int64)
    _, _, n_passes, widths, rate = store.key
    if widths != tuple(layer.weight.shape[0] for layer in net.trunk) or rate != net.dropout_rate:
        raise ValueError("the mask store was drawn for another network's widths or dropout rate")
    at = np.searchsorted(store.ids, ids)
    held = at < len(store.ids)
    held[held] = store.ids[at[held]] == ids[held]
    if not held.all():
        raise ValueError(f"the mask store holds no masks for instance id {ids[~held][0]}")
    bounds = (n_passes * np.cumsum([0, *widths])).tolist()
    per_block = max(1, MC_BLOCK_ROWS // n_passes)
    scaled = [(np.divide(layer.weight.T, 1.0 - rate, order="C"), layer.bias)
              for layer in [*net.trunk[1:], net.class_head]]
    probs = np.empty((len(ids), n_passes, net.n_classes))
    for start in range(0, len(ids), per_block):
        block = slice(start, start + per_block)
        kept = np.unpackbits(store.bits[at[block]], axis=1, count=bounds[-1]).view(bool)
        h = np.repeat(net.trunk_layer(0, features[ids[block]]), n_passes, axis=0)
        for idx, (weight, bias) in enumerate(scaled):
            if idx:
                np.maximum(h, 0.0, out=h)  # trunk layer idx's rectifier; trunk_layer did layer 0's
            # bool, cast to the exact 0.0 and 1.0; copied, as a strided view raised peak RSS
            h *= kept[:, bounds[idx]:bounds[idx + 1]].reshape(len(h), -1)
            h = h @ weight
            h += bias
        probs[block] = softmax(h).reshape(-1, n_passes, net.n_classes)
    if not np.allclose(row_sums(probs), 1.0, atol=1e-9):
        raise ValueError("posterior rows must sum to 1")
    return probs


def entropy(probs: np.ndarray) -> np.ndarray:
    """Entropy of each distribution along the last axis, with 0 log 0 = 0."""
    logs = np.log(probs, out=np.zeros_like(probs), where=probs > 0.0)
    return -row_sums(probs * logs)


def pass_mean(probs: np.ndarray) -> np.ndarray:
    """Mean row of each (T, C) stack in a (..., T, C) array, several times
    faster for small C: for C >= 2 numpy adds the T rows in order too, so
    these are `probs.mean(axis=-2)`'s bits, up to `row_sums`' -0.0 case."""
    return reduce(np.add, np.moveaxis(probs, -2, 0)) / probs.shape[-2]


def bald_mcd(probs: np.ndarray) -> np.ndarray:
    """Disagreement score of each (T, C) stack in a (..., T, C) array:
    entropy of the mean row minus mean row entropy.

    Non-negative by Jensen's inequality and zero exactly when all rows agree.
    """
    mean_entropy = entropy(probs).mean(axis=-1)
    return np.maximum(0.0, entropy(pass_mean(probs)) - mean_entropy)


def predictive_entropy(probs: np.ndarray) -> np.ndarray:
    """Entropy of the mean row of each (T, C) stack, in [0, ln C]."""
    return entropy(pass_mean(probs))


def select_top_b(scores: np.ndarray | list[float], b_frac: float) -> list[int]:
    """Ascending indices of the fraction_count(b_frac, N) top scores, ties to lower index."""
    values = np.asarray(scores, dtype=np.float64)
    count = fraction_count(b_frac, values.size)
    order = np.lexsort((np.arange(values.size), -values))
    return np.sort(order[:count]).tolist()
