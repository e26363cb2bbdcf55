"""Seeded PCG64 generators for many photon-counting streams at once.

Stream r of ``generators(seed, tail)`` is the generator that
``np.random.default_rng(seed + tuple(tail[r]))`` gives: its PCG64 state comes
from the same four ``uint64`` words that ``np.random.SeedSequence`` would
generate. Only the hash that produces those words is done here, for every
stream at once, with ``uint32`` array arithmetic; numpy's own PCG64 seeding
and ``Generator`` then run unchanged. The hash is numpy's ``SeedSequence``
(pool of four words, O'Neill's ``seed_seq`` mixing), with its constants
below. The oracle test in ``tests/test_interferometer.py`` pins every word
and generator state to numpy's own ``SeedSequence`` and ``default_rng``.

Importing this module loads ``numpy.random``, so callers import it inside
the functions that draw; ``import whichway.cli`` stays free of it.
"""

from __future__ import annotations

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

_MASK32 = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _int_words(n: int) -> list[int]:
    """n as SeedSequence splits an entropy integer: little-endian 32-bit
    words, with 0 as one word."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _chain(start: int, mult: int, n: int) -> np.ndarray:
    """The n + 1 hash constants start, start * mult, ... (mod 2^32), as a
    (n + 1, 1) column."""
    out = [start]
    for _ in range(n):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)[:, None]


def _hashmix(x: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of row k of x with consts[k] -> consts[k + 1]:
    the rows take consecutive constants, as successive scalar calls would."""
    x = x ^ consts[:-1]
    x *= consts[1:]
    x ^= x >> 16
    return x


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * np.uint32(_MIX_L)
    r -= y * np.uint32(_MIX_R)
    r ^= r >> 16
    return r


def seed_words(seed: tuple[int, ...], tail) -> np.ndarray:
    """(n, 4) uint64 array whose row r is
    ``SeedSequence(seed + tuple(tail[r])).generate_state(4, np.uint64)``.

    seed holds nonnegative integers of any size; tail is an (n, c) array of
    integers below 2^32 (c may be 0).
    """
    tail = np.asarray(tail, dtype=np.uint32)
    prefix = [w for s in seed for w in _int_words(s)]
    n, used = tail.shape[0], len(prefix) + tail.shape[1]
    # entropy words down the rows, streams across the columns; a pool
    # longer than the entropy is filled by hashing zeros
    length = max(used, _POOL)
    entropy = np.zeros((length, n), dtype=np.uint32)
    entropy[:len(prefix)] = np.array(prefix, dtype=np.uint32)[:, None]
    entropy[len(prefix):used] = tail.T

    # one constant step per hashmix: POOL + POOL (POOL - 1) + POOL (length - POOL)
    consts = _chain(_INIT_A, _MULT_A, _POOL * length)
    pool = _hashmix(entropy[:_POOL], consts[:_POOL + 1])
    at = _POOL
    # every pool word into every other; within one source the three
    # destinations are independent, so they are hashed as one block
    for src in range(_POOL):
        dst = [i for i in range(_POOL) if i != src]
        h = _hashmix(np.broadcast_to(pool[src], (_POOL - 1, n)), consts[at:at + _POOL])
        pool[dst] = _mix(pool[dst], h)
        at += _POOL - 1
    # entropy beyond the pool, each word into every pool word
    for src in range(_POOL, length):
        h = _hashmix(np.broadcast_to(entropy[src], (_POOL, n)), consts[at:at + _POOL + 1])
        pool = _mix(pool, h)
        at += _POOL

    # generate_state(4, uint64): eight 32-bit words cycling over the pool,
    # paired little-endian into four 64-bit words
    state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _chain(_INIT_B, _MULT_B, 8))
    words = state[0::2].astype(np.uint64) | state[1::2].astype(np.uint64) << np.uint64(32)
    return np.ascontiguousarray(words.T)


class _StateWords(ISeedSequence):
    """Hands PCG64 the four state words computed by :func:`seed_words`."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("precomputed seed words serve PCG64 only: 4 uint64 words")
        return self.words


def generators(seed: tuple[int, ...], tail) -> list[Generator]:
    """One generator per row of tail: row r gives the generator that
    ``np.random.default_rng(seed + tuple(tail[r]))`` would give."""
    return [Generator(PCG64(_StateWords(w))) for w in seed_words(seed, tail)]
