"""Vectorized deterministic 64-bit hashing primitives.

Shared by the dedup family and the flagship bucket assignment. All
functions are process-stable (pandas SipHash with the library-default
fixed key; splitmix64 finalizer constants from the public reference
implementation) — never Python ``hash()`` (process-salted) and never a
Python-level per-element loop.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

_WMUL = np.uint64(0x9E3779B97F4A7C15)


def hash_strings64(vals: np.ndarray, categorize: bool = True) -> np.ndarray:
    """uint64 hash per string — a single C loop (pandas SipHash-1-3 with
    the library-default fixed key), no Python-level per-element work.
    ``categorize=True`` factorizes first so repeated values hash once;
    pass ``False`` for mostly-unique arrays. Hash VALUES are identical
    either way. Call once per batch: the function has ~100 µs fixed
    overhead, so per-row calls dominate on short inputs."""
    if len(vals) == 0:
        return np.empty(0, dtype=np.uint64)
    return pd.util.hash_array(vals, categorize=categorize)


def token_hashes(texts: list) -> tuple[np.ndarray, np.ndarray]:
    """Whitespace tokens of every text, hashed in ONE
    :func:`hash_strings64` pass: ``(hashes, offsets)``, where text i's
    token hashes are ``hashes[offsets[i]:offsets[i + 1]]``. None reads
    as the empty text."""
    toks = [(t or "").split() for t in texts]
    counts = np.array([len(x) for x in toks], dtype=np.int64)
    flat = np.asarray([w for x in toks for w in x], dtype=object)
    return hash_strings64(flat), np.concatenate([[0], np.cumsum(counts)])


def mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer — bijective avalanche over uint64."""
    x = x.astype(np.uint64, copy=True)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def window_hashes(th: np.ndarray, n: int) -> np.ndarray:
    """Order-sensitive uint64 hash of every length-``n`` window of a
    token-hash array: vectorized polynomial (wrapping mod 2^64) plus the
    splitmix finalizer. ``len(th) >= n`` required."""
    m = len(th) - n + 1
    acc = th[:m].astype(np.uint64, copy=True)
    for j in range(1, n):
        acc = acc * _WMUL + th[j:j + m]
    return mix64(acc)


def popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized SWAR popcount over uint64 (numpy<2 has no
    bitwise_count)."""
    x = x.copy()
    x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
    x = (x & np.uint64(0x3333333333333333)) + (
        (x >> np.uint64(2)) & np.uint64(0x3333333333333333))
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return ((x * np.uint64(0x0101010101010101)) >> np.uint64(56)).astype(np.int64)


# Small fixed bucket count for join-style shuffles: Ray's per-GROUP
# map_groups/aggregate overhead is ~1 ms, so grouping by a
# high-cardinality key directly is a scale bug. Instead the dedup and
# graph exchanges group by key-hash % _N_JOIN_BUCKETS and VECTORIZE
# within the bucket (pandas merge/groupby are C loops).
_N_JOIN_BUCKETS = 64


def _ibucket(x: np.ndarray, n: int = _N_JOIN_BUCKETS) -> np.ndarray:
    """Deterministic bucket of an int64 key array (mixes bits so
    consecutive ids spread)."""
    h = (x.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(40)
    return (h % np.uint64(n)).astype(np.int64)


def _pair_bucket(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _ibucket(a * np.int64(1000003) + b)
