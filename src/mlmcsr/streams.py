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
key.  ``offset_key(key, lo)`` moves a stream's origin to counter lo:
the models read row s of a batch that starts at sample index lo at
counter s under it, which is counter lo + s under ``key``.  Uniforms
keep the top 53 bits, centred in their cell, and are
strictly inside (0, 1): the one word whose centre rounds up to 1.0 is
mapped to the largest double below 1, so the inverse normal CDF below
never sees 0 or 1.

Normals are the inverse normal CDF of those uniforms, evaluated with
Wichura's algorithm AS241 (PPND16; *Applied Statistics* 37, 1988,
477-484), the algorithm behind ``statistics.NormalDist.inv_cdf``: one
rational function of degree 7 in the centre, |u - 0.5| <= 0.425, and
two in sqrt(-log(min(u, 1 - u))) in the tails.  Its relative error is
about 1e-16: over ten million stream draws it stays within 8 ulps of
``scipy.special.ndtri``, which the package used before, and u = 0.5
gives exactly 0.0.  The centre runs as whole-block numpy passes in
place and the tails on their gathered rows alone (about 15 % of them).
On blocks of 16k or more draws that costs no more per draw than
``ndtri`` did, and the package needs no scipy.  A call runs about 80
numpy operations where ``ndtri`` was one, though, so a call of a few
hundred draws costs two to three times what it did.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

# glibc's malloc maps every block of 128 KiB or more afresh, and unmaps it
# on free, until one such block has been freed: then it raises that limit
# to the freed block's size.  A synthetic chunk's float64 arrays are exactly
# 256 KiB, so until then each one costs 64 page faults, tens of thousands
# per run.  Importing scipy.special used to free large blocks as a side
# effect; one 4 MiB block, allocated and freed here, does it on purpose.
_block = np.empty(4 << 20, dtype=np.uint8)
del _block

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB

# Array operands are 0-d arrays: a ufunc converts a Python or numpy scalar
# operand on every call, which is about a third of a call's cost on the
# small blocks that many-run experiments draw.
_N_GOLDEN = np.array(_GOLDEN, dtype=np.uint64)
_N_MIX_A = np.array(_MIX_A, dtype=np.uint64)
_N_MIX_B = np.array(_MIX_B, dtype=np.uint64)
_N_30, _N_27, _N_31, _N_11 = (np.array(k, dtype=np.uint64) for k in (30, 27, 31, 11))
_U53 = np.array(2.0 ** -53)
_U_MAX = np.array(1.0 - 2.0 ** -53)   # the largest double below 1
_ZERO, _HALF, _ONE = np.array(0.0), np.array(0.5), np.array(1.0)
_CENTRE, _TAIL_SHIFT, _FAR = np.array(0.180625), np.array(1.6), np.array(5.0)

# AS241 (PPND16) coefficients, highest degree first: the centre is
# q * A(r) / B(r) with r = 0.180625 - q**2; a tail is C(s) / D(s) with
# s = r - 1.6 for r <= 5 and E(s) / F(s) with s = r - 5 beyond, where
# r = sqrt(-log(min(u, 1 - u))).
_A = (2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4,
      4.5921953931549871457e+4, 1.3731693765509461125e+4, 1.9715909503065514427e+3,
      1.3314166789178437745e+2, 3.3871328727963666080e+0)
_B = (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4,
      2.1213794301586595867e+4, 5.3941960214247511077e+3, 6.8718700749205790830e+2,
      4.2313330701600911252e+1, 1.0)
_C = (7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
      1.27045825245236838258e+0, 3.64784832476320460504e+0, 5.76949722146069140550e+0,
      4.63033784615654529590e+0, 1.42343711074968357734e+0)
_D = (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
      1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e+0,
      2.05319162663775882187e+0, 1.0)
_E = (2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
      2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e+0,
      5.46378491116411436990e+0, 6.65790464350110377720e+0)
_F = (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
      7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
      5.99832206555887937690e-1, 1.0)
_A, _B, _C, _D, _E, _F = (tuple(map(np.array, p)) for p in (_A, _B, _C, _D, _E, _F))


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


def offset_key(key: int, offset: int) -> int:
    """The key under which counter c gives the word of counter offset + c
    under ``key``: (offset + c + 1) * GOLDEN + key is (c + 1) * GOLDEN +
    (key + offset * GOLDEN) modulo 2**64."""
    return (key + operator.index(offset) * _GOLDEN) & _MASK


def _counter_words(key: int, counters: np.ndarray, scratch: np.ndarray,
                   z: np.ndarray | None = None) -> np.ndarray:
    """splitmix64 outputs at ``counters`` in ``z`` (a fresh array if None);
    ``scratch`` is a uint64 array of the same shape that the shifts write into."""
    if counters.dtype == np.int64:   # as np.nonzero gives: the cast's bits, uncopied
        counters = counters.view(np.uint64)
    # (c + 1) * GOLDEN + key == c * GOLDEN + (GOLDEN + key) modulo 2**64
    z = np.multiply(np.asarray(counters, dtype=np.uint64), _N_GOLDEN, out=z)
    z += np.array((key + _GOLDEN) & _MASK, dtype=np.uint64)
    np.right_shift(z, _N_30, out=scratch)
    np.bitwise_xor(z, scratch, out=z)
    np.multiply(z, _N_MIX_A, out=z)
    np.right_shift(z, _N_27, out=scratch)
    np.bitwise_xor(z, scratch, out=z)
    np.multiply(z, _N_MIX_B, out=z)
    np.right_shift(z, _N_31, out=scratch)
    np.bitwise_xor(z, scratch, out=z)
    return z


def _centres(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """(top 53 bits of ``z`` + 0.5) * 2**-53 into ``out``; ``z`` is shifted
    in place.  All lie in (0, 1) but one: (2**53 - 1) + 0.5 rounds to 2**53,
    so the all-ones word gives exactly 1.0."""
    np.right_shift(z, _N_11, out=z)
    out[...] = z
    out += _HALF
    out *= _U53
    return out


def uniform_at(key: int, counters: np.ndarray) -> np.ndarray:
    """Uniforms in the open interval (0, 1) at the given counters, which
    are never written."""
    counters = np.asarray(counters)
    out = np.empty(counters.shape, dtype=np.float64)   # also the shift scratch
    u = _centres(_counter_words(key, counters, out.view(np.uint64)), out)
    return np.minimum(u, _U_MAX, out=u)   # moves only the 1.0


def _horner(x: np.ndarray, coefs: tuple, out: np.ndarray) -> np.ndarray:
    """The polynomial with ``coefs`` (highest degree first) at ``x``, into
    ``out``, which must not share memory with ``x``."""
    np.multiply(x, coefs[0], out=out)
    out += coefs[1]
    for c in coefs[2:]:
        out *= x
        out += c
    return out


def _tail_normals(u: np.ndarray) -> np.ndarray:
    """AS241's tail branches at uniforms with |u - 0.5| > 0.425."""
    r = np.subtract(_ONE, u)
    np.maximum(r, _U53, out=r)   # a u of 1.0 is read as _U_MAX
    np.minimum(r, u, out=r)
    np.log(r, out=r)
    np.negative(r, out=r)
    np.sqrt(r, out=r)
    s = np.subtract(r, _TAIL_SHIFT)
    x = _horner(s, _C, np.empty_like(s))
    x /= _horner(s, _D, np.empty_like(s))
    if r.max() > _FAR:   # u within e**-25 of 0 or 1
        far = np.flatnonzero(r > _FAR)
        s = r[far] - _FAR
        x[far] = _horner(s, _E, np.empty_like(s)) / _horner(s, _F, np.empty_like(s))
    return np.copysign(x, u - _HALF, out=x)


def _inverse_normal_cdf(u: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """AS241's inverse normal CDF of ``u`` in (0, 1], written over ``u``.

    A u of 1.0 is read as the largest double below 1, as ``uniform_at``
    maps it, so only the tail rows pay for that.  ``scratch`` is a
    float64 array of shape ``(2,) + u.shape``.  The centre runs on every
    row in place; the tails are recomputed on their rows alone.
    """
    q = np.subtract(u, _HALF, out=scratch[0])
    r = np.multiply(q, q, out=scratch[1])
    np.subtract(_CENTRE, r, out=r)
    tail = np.nonzero(r < _ZERO)
    u_tail = u[tail]
    x = _horner(r, _A, u)
    x *= q
    x /= _horner(r, _B, q)
    if u_tail.size:
        x[tail] = _tail_normals(u_tail)
    return x


def normal_at(key: int, counters: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Standard normals at the given counters: AS241 at ``uniform_at``'s uniforms.

    ``out``, a float64 array of the counters' shape, receives the result
    and serves as the shift scratch on the way; it must not share memory
    with ``counters``, which are never written.
    """
    counters = np.asarray(counters)
    if out is None:
        out = np.empty(counters.shape, dtype=np.float64)
    # one allocation for the words and both centre buffers
    scratch = np.empty((2,) + out.shape)
    z = _counter_words(key, counters, out.view(np.uint64), scratch[0].view(np.uint64))
    return _inverse_normal_cdf(_centres(z, out), scratch)
