"""Deterministic counter-based random streams.

Every random quantity used by the estimator is a pure function of a
64-bit key and a counter.  That buys three properties that ordinary
stateful generators do not give us:

* a sample set can be extended without disturbing earlier draws,
* work can be split across threads in any chunking without changing
  a single bit of the output,
* any individual draw can be reproduced in isolation for debugging.

Keys are derived by walking salted steps of the splitmix64 generator;
values are produced by applying its finalizer to ``key + (counter+1) *
GOLDEN``, which is exactly the splitmix64 output sequence seeded at the
key.  Uniforms keep the top 53 bits and are strictly inside (0, 1), so
the inverse normal CDF below never sees 0 or 1.
"""

from __future__ import annotations

import functools
import operator

import numpy as np
from scipy.special import ndtri

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB

_N_GOLDEN = np.uint64(_GOLDEN)
_N_MIX_A = np.uint64(_MIX_A)
_N_MIX_B = np.uint64(_MIX_B)
_N_30, _N_27, _N_31, _N_11 = (np.uint64(k) for k in (30, 27, 31, 11))
_U53 = 2.0 ** -53


def mix64(z: int) -> int:
    """splitmix64 finalizer: a bijective avalanche on 64-bit integers."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK
    return z ^ (z >> 31)


@functools.lru_cache(maxsize=1024, typed=True)
def derive_key(seed: int, *salts: int) -> int:
    """Derive an independent stream key from a seed and a salt path.

    Each salt advances the key by one salted splitmix64 step, so keys
    with different salt paths are unrelated for all practical purposes.
    ``seed`` and the salts are integers, numpy integers included; a float
    raises ``TypeError``.  Keys are memoized: every chunk of a run asks
    for the same few.  The key of a salt path's prefix comes from the
    same cache, so a new (seed, level, slot) costs one step when its
    (seed, level) is cached.  The cache is typed, so a float equal to a
    cached int still reaches the check instead of the cached key.
    """
    if not salts:
        return mix64(operator.index(seed))
    key = derive_key(seed, *salts[:-1])
    return mix64((key + (operator.index(salts[-1]) + 1) * _GOLDEN) & _MASK)


def _counter_words(key: int, counters: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """splitmix64 outputs at ``counters`` in a fresh array; ``scratch`` is a
    uint64 array of the same shape that the shifts write into."""
    # (c + 1) * GOLDEN + key == c * GOLDEN + (GOLDEN + key) modulo 2**64
    z = np.multiply(np.asarray(counters, dtype=np.uint64), _N_GOLDEN)
    z += np.uint64((key + _GOLDEN) & _MASK)
    np.right_shift(z, _N_30, out=scratch)
    np.bitwise_xor(z, scratch, out=z)
    np.multiply(z, _N_MIX_A, out=z)
    np.right_shift(z, _N_27, out=scratch)
    np.bitwise_xor(z, scratch, out=z)
    np.multiply(z, _N_MIX_B, out=z)
    np.right_shift(z, _N_31, out=scratch)
    np.bitwise_xor(z, scratch, out=z)
    return z


def uniform_at(key: int, counters: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Uniforms in the open interval (0, 1) at the given counters.

    ``out``, a float64 array of the counters' shape, receives the result
    and serves as the shift scratch on the way; it must not share memory
    with ``counters``, which are never written.
    """
    counters = np.asarray(counters)
    if out is None:
        out = np.empty(counters.shape, dtype=np.float64)
    z = _counter_words(key, counters, out.view(np.uint64))
    np.right_shift(z, _N_11, out=z)
    out[...] = z
    out += 0.5
    out *= _U53
    return out


def normal_at(key: int, counters: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Standard normals at the given counters (inverse-CDF transform).

    ``out`` is filled and returned as in ``uniform_at``.
    """
    u = uniform_at(key, counters, out)
    return ndtri(u, out=u)
