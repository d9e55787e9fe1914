"""Random almost self-affine constructions: displacement fields and clouds.

A realization omega assigns every finite word w an independent uniform
displacement omega_w in the centered box D = [-R, R]^N.  A point of the
attractor is the convergent series

    Pi(i) = omega_{i|1} + T_{i|1} omega_{i|2} + T_{i|1}T_{i|2} omega_{i|3} + ...

truncated here at depth K with an explicit tail bound.  Displacements are
pure functions of (seed, word) via counter-based streams, so the same
omega realization is seen by every point, in any order, on any number of
threads; that is the whole reproducibility story.

Points whose words share a prefix share the series' first terms, so a
chunk of points evaluates its shallow levels once per prefix word and
gathers each point's row from that table (`_cloud_chunk`).
"""

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import counterrng as crng
from .errors import InvalidInputError, ResourceLimitError
from .measures import _check_model, _check_symbols, draw_words
from .linalg import compose, contraction_bounds

_MAX_POINTS = 50_000_000
_MAX_THREADS = 256  # sample_cloud opens one pool worker per thread
_WORD_LABEL = "sampler/words"
_FIELD_LABEL = "sampler/field"
_WRITE_ROWS = 4096  # rows formatted per write in write_cloud
_HEADER_FIELDS = {"n": int, "dim": int, "seed": int, "depth": int,
                  "region_radius": float, "truncation_bound": float}


def truncation_tail(a_plus, region_radius, dim, K):
    """Bound on |Pi - Pi_K|: sum of the dropped series terms.

    Each dropped term T_{i|j-1} omega_{i|j} with j > K has norm at most
    a_plus^j * R * sqrt(N); summing the geometric tail gives
    a_plus^K * R * sqrt(N) / (1 - a_plus).
    """
    return a_plus ** K * region_radius * math.sqrt(dim) / (1.0 - a_plus)


@dataclass(frozen=True)
class DisplacementField:
    """One omega realization: seed plus the displacement region.

    region is the centered box of half-width region_radius; displacements
    are uniform on it and independent across words.
    """

    seed: int
    region_radius: float = 1.0

    def __post_init__(self):
        if not 0 <= self.seed < 2 ** 64:
            raise InvalidInputError("seed must fit in 64 bits")
        if not 0 < self.region_radius < math.inf:
            raise InvalidInputError("region_radius must be positive and finite")

    def key(self):
        return crng.derive_key(self.seed, _FIELD_LABEL)


def displacement(fld, word, dim):
    """The displacement vector omega_word, uniform on the region box."""
    if len(word) == 0:
        raise InvalidInputError("displacements are indexed by nonempty words")
    states = crng.root_states(fld.key(), 1)
    for sym in word:
        states = crng.advance(states, np.array([sym], dtype=np.uint64))
    u = crng.unit_uniforms(states, dim)[0]
    return (2.0 * u - 1.0) * fld.region_radius


@dataclass(frozen=True, eq=False)
class CloudPoint:
    position: np.ndarray
    word_prefix: tuple
    truncation_bound: float


@dataclass(frozen=True, eq=False)
class Cloud:
    """Array-backed point cloud plus the metadata needed to reuse it."""

    positions: np.ndarray
    words: np.ndarray
    truncation_bound: float
    seed: int
    depth: int
    region_radius: float

    def __len__(self):
        return self.positions.shape[0]

    @property
    def dim(self):
        return self.positions.shape[1]


def project(ifs, fld, word, K):
    """Depth-K partial sum of the displacement series along `word`."""
    if K < 1:
        raise InvalidInputError(f"depth must be >= 1, got K={K}")
    if K > len(word):
        raise InvalidInputError(
            f"word of length {len(word)} is shorter than depth K={K}"
        )
    dim = ifs.dim
    for sym in word[:K]:
        ifs.matrix(sym)  # rejects a symbol outside 1..m, the last one too
    pos = sum((compose(ifs, word[:j]) @ displacement(fld, word[:j + 1], dim)
               for j in range(K)), np.zeros(dim))
    _, a_plus = contraction_bounds(ifs)
    bound = truncation_tail(a_plus, fld.region_radius, dim, K)
    return CloudPoint(
        position=pos, word_prefix=tuple(word[:K]), truncation_bound=bound
    )


def _unit_prefix(ifs, count):
    """Prefix products of the empty word, one per point.

    When every map is diagonal they are kept as one column per coordinate:
    the full products' off-diagonal terms are exact zeros, so positions
    are bitwise the same either way.
    """
    mats = ifs.matrix_stack()
    if not mats[:, ~np.eye(ifs.dim, dtype=bool)].any():
        return np.ones((count, ifs.dim))
    return np.broadcast_to(np.eye(ifs.dim), (count, ifs.dim, ifs.dim)).copy()


def _add_levels(ifs, states, words, region_radius, pos, prefix, carry):
    """Add the series terms of the levels of `words` to pos, in place.

    states, pos and prefix hold each word's counter-stream states, partial
    position and prefix product after the levels before these; states and
    a diagonal prefix are updated in place.  The prefix is carried past
    the last level only when carry is set.  Returns the prefix.
    """
    depth = words.shape[1]
    dim = ifs.dim
    mats = ifs.matrix_stack()
    diagonal = prefix.ndim == 2
    diags = [mats[:, c, c] for c in range(dim)]
    omega = np.empty_like(pos)
    for j in range(depth):
        sym = words[:, j]
        crng.advance(states, sym, out=states)
        crng.unit_uniforms(states, dim, out=omega)
        # In place, in the order of (2u - 1) * R and pos += prefix * omega,
        # so every bit is that of the expressions.
        omega *= 2.0
        omega -= 1.0
        omega *= region_radius
        if diagonal:
            omega *= prefix
            pos += omega
        else:
            pos += np.einsum("nij,nj->ni", prefix, omega)
        if carry or j + 1 < depth:
            maps = sym - 1
            if diagonal:
                for c in range(dim):
                    prefix[:, c] *= np.take(diags[c], maps)
            else:
                prefix = np.matmul(prefix, mats[maps])
    return prefix


def _project_block(ifs, states, words, region_radius):
    """Vectorized series evaluation for a block of equal-depth words.

    states are the counter-stream states the words' symbols advance, one
    per word.  They are copied once and the copies advanced in place, so
    the caller's arrays never change.  region_radius scales the
    displacements.
    """
    count = len(words)
    states = (states[0].copy(), states[1].copy())
    pos = np.zeros((count, ifs.dim))
    _add_levels(ifs, states, words, region_radius, pos,
                _unit_prefix(ifs, count), carry=False)
    return pos


def _cloud_chunk(ifs, model, fld, start, count, K, word_key):
    """Words and positions of points start..start+count-1.

    Symbol j of point i depends only on (word_key, i, j), so any
    contiguous or interleaved chunking reproduces the same words.

    Points whose words share a prefix share that prefix's series terms.
    The first J levels are evaluated once for each of the m^J words of
    length J, for the deepest J < K with m^J <= count // 2 (J = 0 is the
    empty word's table of one); each point then takes its states, partial
    position and prefix product from its prefix's row, and only levels
    J..K-1 run per point.  Every operation is the one the point would
    have done itself, so every bit is the same.
    """
    hashes = crng.point_hashes(
        word_key, np.arange(start, start + count, dtype=np.uint64))
    words = draw_words(
        model, count, K, lambda j: crng.hashed_uniforms(hashes, j)
    )
    del hashes  # projection holds the chunk's largest arrays; free this first
    m = ifs.m
    J = 0
    while J + 1 < K and m ** (J + 1) <= count // 2:
        J += 1
    # Row c of the table is the word whose symbols are c's base-m digits,
    # the first the most significant; stored level-major like the words.
    table = (np.indices((m,) * J, dtype=np.uint8).reshape(J, m ** J) + 1).T
    table_states = crng.root_states(fld.key(), m ** J)
    table_pos = np.zeros((m ** J, ifs.dim))
    table_prefix = _add_levels(ifs, table_states, table, fld.region_radius,
                               table_pos, _unit_prefix(ifs, m ** J),
                               carry=True)
    code = np.zeros(count, dtype=np.intp)
    for j in range(J):
        code *= m
        code += words[:, j]
        code -= 1
    states = tuple(part.take(code) for part in table_states)
    pos = table_pos.take(code, axis=0)
    prefix = table_prefix.take(code, axis=0)
    del table, table_states, table_pos, table_prefix, code
    _add_levels(ifs, states, words[:, J:], fld.region_radius, pos, prefix,
                carry=False)
    return words, pos


def sample_cloud(ifs, model, fld, n, K, threads=1, chunk=65536):
    """n points of the truncated random construction under one field.

    Words are drawn from the model with per-point indexed streams, then
    projected through the shared displacement field; the output is
    identical for any thread count, and extending n keeps the existing
    points unchanged.
    """
    if n < 1:
        raise InvalidInputError(f"need n >= 1 points, got {n}")
    if n > _MAX_POINTS:
        raise ResourceLimitError(f"{n} points exceeds the {_MAX_POINTS} cap")
    if K < 1:
        raise InvalidInputError(f"depth must be >= 1, got K={K}")
    _check_model(ifs, model)
    _check_symbols(ifs.m)
    if not 1 <= threads <= _MAX_THREADS or chunk < 1:
        raise InvalidInputError(
            f"need 1 <= threads <= {_MAX_THREADS} and chunk >= 1, got "
            f"{threads} and {chunk}"
        )
    word_key = crng.derive_key(fld.seed, _WORD_LABEL)
    # Equal chunks of at most `chunk` points, as many as a multiple of the
    # thread count, so no worker idles while another finishes the tail.
    pieces = -(-n // chunk)
    pieces = min(n, pieces + -pieces % threads)
    bounds = [n * i // pieces for i in range(pieces + 1)]
    words = np.empty((n, K), dtype=np.uint8)
    positions = np.empty((n, ifs.dim))

    def run(i):  # each chunk fills its own rows
        lo, hi = bounds[i], bounds[i + 1]
        words[lo:hi], positions[lo:hi] = _cloud_chunk(
            ifs, model, fld, lo, hi - lo, K, word_key)

    if threads > 1 and pieces > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run, range(pieces)))
    else:
        for i in range(pieces):
            run(i)
    _, a_plus = contraction_bounds(ifs)
    bound = truncation_tail(a_plus, fld.region_radius, ifs.dim, K)
    return Cloud(
        positions=positions, words=words, truncation_bound=bound,
        seed=fld.seed, depth=K, region_radius=fld.region_radius,
    )


def attractor_radius(ifs, region_radius):
    """Radius of a ball at the origin containing every construction point."""
    _, a_plus = contraction_bounds(ifs)
    return region_radius * math.sqrt(ifs.dim) / (1.0 - a_plus)


def default_depth(ifs, region_radius, r_min):
    """Smallest K whose truncation bound is below r_min / 10."""
    _, a_plus = contraction_bounds(ifs)
    K = 1
    while truncation_tail(a_plus, region_radius, ifs.dim, K) >= r_min / 10.0:
        K += 1
        if K > 10_000:
            raise ResourceLimitError(
                "no feasible truncation depth below the requested scale"
            )
    return K


# Exact "%.17g" for 1e-7 <= |x| < 1e15.  |x| = M 2^E with M a 53-bit
# integer, and its 17 significant digits are N = M 5^K 2^(K+E) rounded
# half to even, K = 16 - D, D = floor(log10 |x|).  There K <= 24, so 5^K
# < 2^56 and M 5^K < 2^109 is two uint64 limbs, and the shift -(K + E) is
# in [2, 53].  Digits come four at a time from a table of "%04d".
_POW5 = np.array([5 ** k for k in range(25)], dtype=np.uint64)
_DIGITS4 = np.frombuffer(b"".join(b"%04d" % i for i in range(10000)),
                         dtype=np.uint32)
_TEXT = np.dtype((np.void, 24))  # sign, up to 22 characters, separator


def _scaled(M, E, D):
    """Quotient, remainder and shift of M 5^K / 2^-(K + E), K = 16 - D."""
    sh = (D - 16 - E).astype(np.uint64)
    lo = _POW5[16 - D]  # 5^K, then the low limb of M 5^K
    hi = lo >> 32
    lo &= 0xFFFFFFFF
    mid = M >> 32
    mid *= lo
    mid += (M & 0xFFFFFFFF) * hi  # < 2^57
    hi *= M >> 32
    lo *= M & 0xFFFFFFFF
    hi += mid >> 32
    mid <<= 32
    lo += mid
    hi += lo < mid  # the carry out of the low limb
    q = lo >> sh
    q |= hi << (64 - sh)
    return q, lo & ((1 << sh) - 1), sh


def _digits17(a):
    """(N, D): |x| = N 10^(D - 16) to 17 significant digits, for a = |x|."""
    M, E = np.frexp(a)
    M = (M * 2.0 ** 53).astype(np.uint64)
    E = E.astype(np.int64) - 53
    D = np.floor(np.log10(a)).astype(np.int64)  # at most one off
    q, r, sh = _scaled(M, E, D)
    # The truncated quotient, not the rounded one, tells whether D is right:
    # 9.9999999999999995e-08 rounds up to 10^16 with D = -7.
    off = (q >= 10 ** 17).astype(np.int64) - (q < 10 ** 16)
    fix = np.flatnonzero(off)
    D[fix] += off[fix]
    q[fix], r[fix], sh[fix] = _scaled(M[fix], E[fix], D[fix])
    # No carry to 10^17: that needs a double less than 5e-18 (relative)
    # below a power of ten, and in the range the nearest is 4.5e-17 below.
    half = np.uint64(1) << (sh - 1)
    return q + ((r > half) | ((r == half) & (q & 1 == 1))), D


def _digit_bytes(N):
    """Rows of "0000000" then the 17 digits of N: byte 7 leads."""
    hi = N // 10 ** 8
    lo = (N - hi * 10 ** 8).astype(np.uint32)
    hi = hi.astype(np.uint32)
    h2 = hi // 10 ** 8
    hi -= h2 * 10 ** 8
    h1, l1 = hi // 10000, lo // 10000
    return _DIGITS4.take(np.stack(
        [0 * h2, h2, h1, hi - h1 * 10000, l1, lo - l1 * 10000], axis=1,
        dtype=np.intp)).view(np.uint8)


def _g17_rows(block):
    """Rows of block as "%.17g" bytes, with every value in the exact range.

    Each value gets a 24-byte slot: sign, its characters placed for its
    decade, separator; NUL bytes fill the rest and are dropped at the end.
    """
    rows, dim = block.shape
    v = block.ravel()
    N, D = _digits17(np.abs(v))
    P = _digit_bytes(N)
    del N
    # %g drops the fraction's trailing zeros; D < -4 is written d.ddde-0X.
    z = np.flatnonzero(P[:, 23] == ord("0"))
    last = 23 - np.argmax(P[z, :6:-1] != ord("0"), axis=1)
    Dz = D[z]  # the fraction starts at byte 8 + D, or 8 for d.ddde-0X
    keep = np.maximum(last + 1, 8 + np.where(Dz >= -4, Dz, 0))
    P[z] = np.where(np.arange(24) < keep[:, None], P[z], 0)
    out = np.empty((v.size, 24), np.uint8)
    slots = out.view(_TEXT).ravel()
    for d in (np.flatnonzero(np.bincount(D + 8)) - 8).tolist():
        idx = np.flatnonzero(D == d)
        e = d if d >= -4 else 0
        w = max(e, 0)
        g = P.take(idx, axis=0)
        text = np.zeros((idx.size, 24), np.uint8)
        text[:, 1:2 + w] = g[:, 7 + e - w:8 + e]
        text[:, 3 + w:19 + w - e] = g[:, 8 + e:]
        text[:, 2 + w] = (text[:, 3 + w] != 0) * ord(".")
        if d < -4:
            text[:, 19:23] = np.frombuffer(b"e-0%d" % -d, np.uint8)
        slots[idx] = text.view(_TEXT).ravel()
    del P  # before the text is gathered: a block's arrays stay under 1 MB
    out[:, 0] = (v < 0) * ord("-")
    out.reshape(rows, dim, 24)[:, :, 23] = ord(" ")
    out.reshape(rows, dim, 24)[:, -1, 23] = ord("\n")
    return out[out != 0].tobytes()


def _printf_rows(block):
    """Rows of block as "%.17g" bytes, one Python format per value."""
    row_fmt = " ".join(["%.17g"] * block.shape[1]) + "\n"
    return ((row_fmt * len(block)) % tuple(block.ravel().tolist())).encode()


def write_cloud(path, cloud):
    """Text table: header lines with metadata, then one point per row.

    Coordinates are written with "%.17g", which round-trips every double;
    rows are formatted a block at a time, by _g17_rows when every value of
    the block is finite with 1e-7 <= |x| < 1e15, else by _printf_rows.
    Returns the sha256 hex digest of the file's bytes, hashed block by
    block as they are written.
    """
    header = (
        f"seed={cloud.seed} depth={cloud.depth} dim={cloud.dim} "
        f"n={len(cloud)} region_radius={cloud.region_radius!r} "
        f"truncation_bound={cloud.truncation_bound!r} "
        "model=unknown"  # the model is not recorded; kept for the v1 layout
    )
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        def put(data):
            digest.update(data)
            fh.write(data)

        put(f"# affdims cloud v1\n# {header}\n".encode())
        for start in range(0, len(cloud), _WRITE_ROWS):
            block = cloud.positions[start:start + _WRITE_ROWS]
            a = np.abs(block)
            exact = ((a >= 1e-7) & (a < 1e15)).all()
            put(_g17_rows(block) if exact else _printf_rows(block))
    return digest.hexdigest()


def read_cloud(path):
    """Read a cloud table written by write_cloud (words are not stored)."""
    try:
        fh = open(path)
    except FileNotFoundError:
        raise InvalidInputError(f"cloud file not found: {path}") from None
    with fh:
        magic = fh.readline()
        if not magic.startswith("# affdims cloud v1"):
            raise InvalidInputError(f"{path} is not a cloud table")
        meta = {}
        for part in fh.readline().lstrip("# ").split():
            k, _, v = part.partition("=")
            meta[k] = v
        try:
            positions = np.loadtxt(fh, ndmin=2)
        except ValueError as exc:
            raise InvalidInputError(f"{path}: bad row: {exc}") from None
    for key, kind in _HEADER_FIELDS.items():
        try:
            meta[key] = kind(meta[key])
        except (KeyError, ValueError):
            raise InvalidInputError(f"{path}: header field {key!r} is "
                                    "missing or malformed") from None
    n = meta["n"]
    if positions.shape != (n, meta["dim"]):
        raise InvalidInputError(
            f"{path}: expected {n} x {meta['dim']} table, got "
            f"{positions.shape[0]} x {positions.shape[1]}"
        )
    bad = np.flatnonzero(~np.isfinite(positions).all(axis=1))
    if bad.size:
        raise InvalidInputError(
            f"{path}: row {bad[0] + 1} of the table has a non-finite "
            f"coordinate: {' '.join(map(repr, positions[bad[0]].tolist()))}"
        )
    return Cloud(
        positions=positions,
        words=np.zeros((n, 0), dtype=np.uint8),
        truncation_bound=meta["truncation_bound"],
        seed=meta["seed"],
        depth=meta["depth"],
        region_radius=meta["region_radius"],
    )
