"""Random almost self-affine constructions: displacement fields and clouds.

A realization omega assigns every finite word w an independent uniform
displacement omega_w in the centered box D = [-R, R]^N.  A point of the
attractor is the convergent series

    Pi(i) = omega_{i|1} + T_{i|1} omega_{i|2} + T_{i|1}T_{i|2} omega_{i|3} + ...

truncated here at depth K with an explicit tail bound.  Displacements are
pure functions of (seed, word) via counter-based streams, so the same
omega realization is seen by every point, in any order, on any number of
threads; that is the whole reproducibility story.
"""

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import counterrng as crng
from .errors import InvalidInputError, ResourceLimitError
from .measures import _check_model, draw_words
from .linalg import contraction_bounds

_MAX_POINTS = 50_000_000
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
        if not self.region_radius > 0:
            raise InvalidInputError("region_radius must be positive")

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
    states = crng.root_states(fld.key(), 1)
    pos = np.zeros(dim)
    prefix = np.eye(dim)
    for j in range(K):
        sym = word[j]
        states = crng.advance(states, np.array([sym], dtype=np.uint64))
        u = crng.unit_uniforms(states, dim)[0]
        omega = (2.0 * u - 1.0) * fld.region_radius
        pos = pos + prefix @ omega
        prefix = prefix @ ifs.matrix(sym)
    _, a_plus = contraction_bounds(ifs)
    bound = truncation_tail(a_plus, fld.region_radius, dim, K)
    return CloudPoint(
        position=pos, word_prefix=tuple(word[:K]), truncation_bound=bound
    )


def _project_block(ifs, states, words, region_radius):
    """Vectorized series evaluation for a block of equal-depth words.

    states are the counter-stream states the words' symbols advance, one
    per word; region_radius scales the displacements.  When every map is
    diagonal the prefix products are kept as their diagonals: the general
    path's off-diagonal terms are exact zeros, so positions are bitwise
    the same either way.
    """
    count, depth = words.shape
    dim = ifs.dim
    mats = ifs.matrix_stack()
    pos = np.zeros((count, dim))
    if not mats[:, ~np.eye(dim, dtype=bool)].any():
        mats = np.diagonal(mats, axis1=1, axis2=2)
        prefix = np.ones((count, dim))
        apply = step = np.multiply
    else:
        prefix = np.broadcast_to(np.eye(dim), (count, dim, dim)).copy()
        step = np.matmul

        def apply(prefix, omega):
            return np.einsum("nij,nj->ni", prefix, omega)

    for j in range(depth):
        states = crng.advance(states, words[:, j].astype(np.uint64))
        u = crng.unit_uniforms(states, dim)
        omega = (2.0 * u - 1.0) * region_radius
        pos += apply(prefix, omega)
        if j + 1 < depth:
            prefix = step(prefix, mats[words[:, j] - 1])
    return pos


def _cloud_chunk(ifs, model, fld, start, count, K, word_key):
    """Words and positions of points start..start+count-1.

    Symbol j of point i depends only on (word_key, i, j), so any
    contiguous or interleaved chunking reproduces the same words.
    """
    idx = np.arange(start, start + count, dtype=np.uint64)
    words = draw_words(
        model, count, K, lambda j: crng.indexed_uniforms(word_key, idx, j)
    )
    del idx  # projection holds the chunk's largest arrays; free this first
    states = crng.root_states(fld.key(), count)
    return words, _project_block(ifs, states, words, fld.region_radius)


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
    if threads < 1 or chunk < 1:
        raise InvalidInputError(
            f"need threads >= 1 and chunk >= 1, got {threads} and {chunk}"
        )
    word_key = crng.derive_key(fld.seed, _WORD_LABEL)
    # Equal chunks of at most `chunk` points, as many as a multiple of the
    # thread count, so no worker idles while another finishes the tail.
    pieces = -(-n // chunk)
    pieces = min(n, pieces + -pieces % threads)
    bounds = [n * i // pieces for i in range(pieces + 1)]
    out = [None] * pieces

    def run(i):
        out[i] = _cloud_chunk(ifs, model, fld, bounds[i],
                              bounds[i + 1] - bounds[i], K, word_key)

    if threads > 1 and pieces > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run, range(pieces)))
    else:
        for i in range(pieces):
            run(i)
    words = np.concatenate([p[0] for p in out], axis=0)
    positions = np.concatenate([p[1] for p in out], axis=0)
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


def write_cloud(path, cloud):
    """Text table: header lines with metadata, then one point per row.

    Coordinates are written with "%.17g", which round-trips every double;
    rows are formatted a block at a time.  Returns the sha256 hex digest of
    the file's bytes, hashed block by block as they are written.
    """
    header = (
        f"seed={cloud.seed} depth={cloud.depth} dim={cloud.dim} "
        f"n={len(cloud)} region_radius={cloud.region_radius!r} "
        f"truncation_bound={cloud.truncation_bound!r} "
        "model=unknown"  # the model is not recorded; kept for the v1 layout
    )
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        def put(text):
            data = text.encode()
            digest.update(data)
            fh.write(data)

        put(f"# affdims cloud v1\n# {header}\n")
        row_fmt = " ".join(["%.17g"] * cloud.dim) + "\n"
        for start in range(0, len(cloud), _WRITE_ROWS):
            block = cloud.positions[start:start + _WRITE_ROWS]
            put((row_fmt * len(block)) % tuple(block.ravel().tolist()))
    return digest.hexdigest()


def read_cloud(path):
    """Read a cloud table written by write_cloud (words are not stored)."""
    with open(path) as fh:
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
    return Cloud(
        positions=positions,
        words=np.zeros((n, 0), dtype=np.uint8),
        truncation_bound=meta["truncation_bound"],
        seed=meta["seed"],
        depth=meta["depth"],
        region_radius=meta["region_radius"],
    )
