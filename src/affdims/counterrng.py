"""Counter-based pseudo-random streams.

Every value produced here is a pure function of a 64-bit key and a set of
integer counters (word symbols, point indices, level numbers).  There is no
sequential generator state, so results do not depend on evaluation order or
on how work is split across threads, and any part of a stream can be
regenerated in isolation.

The mixing function is the splitmix64 finalizer.  Two lanes with independent
initial states are carried along every symbol chain, giving 128 bits of
effective state per word, and per-coordinate outputs are formed by combining
both lanes under distinct counter offsets.  Statistical quality (uniformity,
independence across words and coordinates) is enforced by the test suite
rather than assumed.

The finalizer mixes arrays in place (`_mix_into`).  The sampler advances
a chunk's streams and uniforms in per-chunk buffers (the `out` arguments)
and hashes its point indices once for all levels (`point_hashes`); the
integers, and so every value, are those of fresh arrays.
"""

import hashlib

import numpy as np

U64 = np.uint64

_MIX1 = U64(0xBF58476D1CE4E5B9)
_MIX2 = U64(0x94D049BB133111EB)
_GAMMA = U64(0x9E3779B97F4A7C15)
_GAMMA2 = U64(0xD1B54A32D192ED03)
_LANE_A = U64(0x8E9FCB8C61D92F21)
_LANE_B = U64(0x36C64F7B81D466D5)
_COORD_A = U64(0xA24BAED4963EE407)
_COORD_B = U64(0x9FB21C651E98DF25)

_INV_2_53 = 2.0 ** -53


def _mix_into(x, scratch):
    """splitmix64 finalizer applied to the uint64 array x in place.

    scratch, of x's shape and not aliasing x, receives the shifts.
    """
    with np.errstate(over="ignore"):
        for shift, mult in ((30, _MIX1), (27, _MIX2), (31, None)):
            np.right_shift(x, U64(shift), out=scratch)
            x ^= scratch
            if mult is not None:
                x *= mult
    return x


def mix64(x):
    """splitmix64 finalizer applied elementwise to a uint64 array."""
    x = np.array(x, dtype=np.uint64)
    return _mix_into(x, np.empty_like(x))


def derive_key(seed, label):
    """Derive an independent 64-bit stream key from a master seed and a label.

    Uses keyed BLAKE2b so distinct labels give unrelated streams; this runs
    once per subsystem, never in a hot loop.
    """
    seed_bytes = (int(seed) & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
    digest = hashlib.blake2b(label.encode("utf-8"), key=seed_bytes, digest_size=8)
    return int.from_bytes(digest.digest(), "little")


def root_states(key, count=1):
    """Initial two-lane states for `count` parallel chains sharing one key."""
    base = np.full(count, U64(int(key) & 0xFFFFFFFFFFFFFFFF), dtype=np.uint64)
    return mix64(base ^ _LANE_A), mix64(base ^ _LANE_B)


def offset_states(key, indices):
    """Two-lane states for chains keyed by (key, index), e.g. one per trial."""
    idx = np.asarray(indices, dtype=np.uint64)
    with np.errstate(over="ignore"):
        base = U64(int(key) & 0xFFFFFFFFFFFFFFFF) + (idx + U64(1)) * _GAMMA
    return mix64(base ^ _LANE_A), mix64(base ^ _LANE_B)


def advance(states, symbols, out=None):
    """Advance chain states by one word symbol (1-based, scalar or array).

    The new states go to out, a pair of uint64 arrays that may be states
    itself, and are returned; by default they are new arrays.
    """
    a, b = states
    sym = np.asarray(symbols, dtype=np.uint64)
    if out is None:
        shape = np.broadcast_shapes(a.shape, sym.shape)
        out = (np.empty(shape, np.uint64), np.empty(shape, np.uint64))
    a2, b2 = out
    scratch = np.empty_like(a2)
    with np.errstate(over="ignore"):
        np.multiply(sym, _GAMMA, out=scratch)
        scratch += _GAMMA2
        _mix_into(np.bitwise_xor(a, scratch, out=a2), scratch)
        np.multiply(sym, _GAMMA2, out=scratch)
        np.add(b, scratch, out=b2)
        b2 += _GAMMA
        _mix_into(b2, scratch)
    return a2, b2


def unit_uniforms(states, ncoords, out=None):
    """Per-state uniforms in [0, 1), shape (len(states), ncoords).

    Coordinate c combines both lanes under distinct offsets, so coordinates
    of one word and words along one chain are decorrelated.  The uniforms
    go to out when it is given, and it is returned.
    """
    a, b = states
    if out is None:
        out = np.empty(a.shape + (ncoords,), dtype=np.float64)
    va, vb, scratch = (np.empty_like(a) for _ in range(3))
    for c in range(ncoords):
        off = U64(c + 1)
        with np.errstate(over="ignore"):
            _mix_into(np.add(a, off * _COORD_A, out=va), scratch)
            _mix_into(np.add(b, off * _COORD_B, out=vb), scratch)
        va ^= vb
        _to_unit(va, out[..., c])
    return out


def _to_unit(v, out):
    """Top 53 bits of uint64 v (shifted in place) as exact doubles in [0, 1)."""
    v >>= U64(11)
    return np.multiply(v, _INV_2_53, out=out)


def point_hashes(key, indices):
    """Per-index hashes of (key, index), shared by every counter."""
    idx = np.asarray(indices, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return mix64(U64(int(key) & 0xFFFFFFFFFFFFFFFF) + (idx + U64(1)) * _GAMMA)


def hashed_uniforms(hashes, counter):
    """indexed_uniforms at one counter, from the indices' point_hashes."""
    with np.errstate(over="ignore"):
        v = hashes ^ (U64(int(counter) + 1) * _GAMMA2)
    return _to_unit(_mix_into(v, np.empty_like(v)), np.empty(v.shape))


def indexed_uniforms(key, indices, counter):
    """Uniform in [0, 1) addressed by (key, index, counter).

    Used for per-point word sampling: point i, level j reads the value at
    (key, i, j) regardless of which other points are being processed.
    """
    return hashed_uniforms(point_hashes(key, indices), counter)
