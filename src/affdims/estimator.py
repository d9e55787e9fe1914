"""Empirical q-dimensions from point clouds.

The mesh moment sum at radius r treats the cloud as the measure giving
each point weight 1/n and sums the q-th powers of cube masses over the
r-mesh anchored at the origin.  D_q is the slope of log M_r(q) against
(q - 1) log r down a geometric ladder of radii, restricted to rungs where
the cloud actually resolves the cubes (enough occupied cubes, enough
points per cube).  For integer q the correlation integral gives a second,
mesh-free route to the same exponent via multi-point counting.  The counts
at a radius do not depend on q, so `build_ladders` counts each rung once
for every q and form.  The cube index range of every rung comes from the
cloud's coordinate bounds, taken once per cloud, so coordinates must be
finite.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, InvalidInputError
from .numerics import fit_line

_MIN_OCCUPIED = 5
_MIN_PER_CUBE = 10.0


def _positions(points):
    pos = points.positions if hasattr(points, "positions") else np.asarray(points)
    pos = np.asarray(pos, dtype=np.float64)
    if pos.ndim != 2 or pos.shape[0] == 0:
        raise InvalidInputError("need a nonempty (n, N) array of points")
    if not np.isfinite(pos).all():
        raise InvalidInputError("point coordinates must be finite")
    return pos


def _bounds(pos):
    """(min, max) of each coordinate, taken a column at a time.

    On an (n, 2) array this is about ten times faster than pos.min(axis=0).
    """
    cols = [pos[:, c] for c in range(pos.shape[1])]
    return np.array([c.min() for c in cols]), np.array([c.max() for c in cols])


def _cube_counts(pos, r, bounds):
    """Point counts of the occupied r-cubes, in the order of their cells.

    bounds is _bounds(pos).  Correctly rounded division and floor are
    monotone, so each axis's cell range is read off the coordinate bounds
    instead of the cells.
    """
    lo = np.floor(bounds[0] / r).astype(np.int64)
    spans = np.floor(bounds[1] / r).astype(np.int64) - lo + 1
    if float(np.prod(spans.astype(np.float64))) >= 2.0 ** 62:
        cells = np.floor(pos / r).astype(np.int64)
        return np.unique(cells, axis=0, return_counts=True)[1]
    # Pack cell indices into one integer key in C order, one axis at a
    # time; 1-D unique is much faster than row-wise unique on large clouds.
    keys = np.zeros(pos.shape[0], dtype=np.int64)
    for c in range(pos.shape[1]):
        cell = np.floor(pos[:, c] / r).astype(np.int64)
        cell -= lo[c]
        keys *= spans[c]
        keys += cell
    return np.unique(keys, return_counts=True)[1]


def _diameter(extents):
    """Euclidean length of extents, which may square past the float range.

    Where the plain norm overflows, it is taken of the extents over a power
    of two at least their largest, times that power, which is exact.  The
    scaling is by np.ldexp, so a power of two past the float range (the
    largest extent at 2^1023 or above) is never formed.
    """
    extents = np.asarray(extents, dtype=np.float64)
    with np.errstate(over="ignore"):
        r = float(np.linalg.norm(extents))
        if r == np.inf:
            e = int(np.frexp(extents.max())[1])
            r = float(np.ldexp(np.linalg.norm(np.ldexp(extents, -e)), e))
    return r


def _check_radius(r):
    if not 0 < r < np.inf:
        raise InvalidInputError(
            f"radius must be positive and finite, got r={r}")


def _check_q(q, form, n):
    if form == "mesh":
        if not q > 1:
            raise InvalidInputError(f"mesh moments need q > 1, got q={q}")
    elif form == "correlation":
        if not float(q).is_integer() or q < 2:
            raise InvalidInputError(
                f"the counting form needs integer q >= 2, got q={q}"
            )
        if n < q:
            raise InvalidInputError(f"need at least q={int(q)} points, got {n}")
    else:
        raise InvalidInputError(f"unknown ladder form {form!r}")


def _mesh_sum(counts, n, q):
    """M_r(q) from the cube counts of the r-mesh."""
    return float(np.sum((counts / n) ** q))


def _falling_moment(counts, n, q):
    """Mean over centers x of prod_{t=1..q-1} (c_x - t)/(n - t), clipped at 0."""
    est = np.ones(n)
    for t in range(1, q):
        est *= (counts - t) / (n - t)
    return float(np.mean(np.clip(est, 0.0, None)))


def _kd_tree(pos):
    # Imported here: scipy.spatial takes longer to load than the rest of
    # the package, and only the correlation form needs it.
    from scipy.spatial import cKDTree

    return cKDTree(pos)


def mesh_moment_sum(points, r, q):
    """M_r(q): sum of (cube mass)^q over occupied origin-anchored r-cubes."""
    pos = _positions(points)
    _check_radius(r)
    _check_q(q, "mesh", pos.shape[0])
    return _mesh_sum(_cube_counts(pos, r, _bounds(pos)), pos.shape[0], q)


def occupied_cubes(points, r):
    pos = _positions(points)
    return int(_cube_counts(pos, r, _bounds(pos)).size)


def correlation_integral(points, r, q):
    """Multi-point counting estimate of the ball-mass moment at radius r.

    Averages, over centers x, the falling-factorial ratio
    prod_{t=1..q-1} (c_x - t)/(n - t) where c_x counts points within r of
    x including x itself; the ratio is an unbiased estimate of
    mu(B(x, r))^(q-1) from distinct-sample counting, and equals 1 exactly
    when all points coincide.
    """
    pos = _positions(points)
    n = pos.shape[0]
    _check_radius(r)
    _check_q(q, "correlation", n)
    counts = _kd_tree(pos).query_ball_point(pos, r, return_length=True)
    return _falling_moment(counts, n, int(q))


@dataclass(frozen=True)
class MomentLadder:
    """Per-rung moment sums down a geometric radius ladder."""

    radii: tuple
    sums: tuple
    occupied: tuple
    usable: tuple
    q: float
    n: int
    dim: int
    form: str

    def usable_count(self):
        return sum(1 for u in self.usable if u)


def _rung(pos, bounds, tree, r, entries, threads):
    """(occupied cubes, one sum per (q, form) entry) at radius r.

    The r-mesh is counted once for every entry and the r-balls at most
    once, on `threads` workers; the counts die when the rung returns.
    """
    n = pos.shape[0]
    cubes = _cube_counts(pos, r, bounds)
    balls = None if tree is None else \
        tree.query_ball_point(pos, r, return_length=True, workers=threads)
    return cubes.size, [
        _mesh_sum(cubes, n, q) if form == "mesh"
        else _falling_moment(balls, n, int(q))
        for _, q, form in entries
    ]


def build_ladders(points, qs, forms=("mesh",), r0=None, rho=0.5, rungs=12,
                  min_occupied=_MIN_OCCUPIED, min_per_cube=_MIN_PER_CUBE,
                  threads=1):
    """Every ladder of one cloud, in one pass down the rungs.

    Returns one tuple per entry of qs holding that q's ladders in the order
    of forms.  The correlation form exists only at integer q and is left
    out elsewhere; a q left with no ladder is an error.  Each rung counts
    its r-mesh once (the occupancy of every ladder and the mesh moments of
    every q) and, if a correlation ladder is asked for, its r-balls once,
    through one k-d tree of the whole cloud, queried on `threads`
    workers (the integer counts do not depend on them).  Every ladder
    equals build_ladder's for its q and form.
    """
    pos = _positions(points)
    n, dim = pos.shape
    if not 0 < rho < 1:
        raise InvalidInputError(f"ladder ratio must be in (0, 1), got {rho}")
    if rungs < 3:
        raise InvalidInputError(f"need at least 3 rungs, got {rungs}")
    bounds = _bounds(pos)
    if r0 is None:
        r0 = _diameter(bounds[1] - bounds[0])
        if r0 == 0.0:
            r0 = 1.0
    radii = [r0 * rho ** level for level in range(1, rungs + 1)]
    for r in radii:
        _check_radius(r)
    entries = []  # (index into qs, q, form) in the order of the result
    for i, q in enumerate(qs):
        row = [f for f in forms
               if f != "correlation" or float(q).is_integer()]
        # With no other form to stand in, a non-integer q fails the
        # counting form's check.
        for form in row or forms:
            _check_q(q, form, n)
        entries.extend((i, q, form) for form in row)
    tree = _kd_tree(pos) if any(f == "correlation" for _, _, f in entries) \
        else None
    occupied, sums = [], [[] for _ in entries]
    for r in radii:
        occ, values = _rung(pos, bounds, tree, r, entries, threads)
        occupied.append(occ)
        for col, val in zip(sums, values):
            col.append(val)
    ladders = [[] for _ in qs]
    for (i, q, form), col in zip(entries, sums):
        ladders[i].append(MomentLadder(
            radii=tuple(radii), sums=tuple(col), occupied=tuple(occupied),
            usable=tuple(occ >= min_occupied and n / occ >= min_per_cube
                         and val > 0.0 for occ, val in zip(occupied, col)),
            q=float(q), n=n, dim=dim, form=form,
        ))
    return [tuple(row) for row in ladders]


def build_ladder(points, q, r0=None, rho=0.5, rungs=12, form="mesh",
                 min_occupied=_MIN_OCCUPIED, min_per_cube=_MIN_PER_CUBE):
    """Moment sums at radii r0 * rho^l for l = 1..rungs.

    r0 defaults to the bounding-box diameter of the cloud.  A rung is
    usable when at least min_occupied cubes are occupied (the mesh
    resolves structure) and the mean count per occupied cube is at least
    min_per_cube (per-cube masses are not dominated by sampling noise).
    """
    return build_ladders(
        points, [q], [form], r0=r0, rho=rho, rungs=rungs,
        min_occupied=min_occupied, min_per_cube=min_per_cube,
    )[0][0]


@dataclass(frozen=True)
class DimEstimate:
    value: float
    stderr: float
    window: tuple
    q: float
    form: str
    clamped: bool = False


def estimate_dimension(ladder):
    """Regression slope of log M_r(q) on (q - 1) log r over usable rungs.

    The slope is the empirical D_q; its standard error comes from the
    regression residuals.  Values outside [0, N] are clamped and flagged.
    """
    idx = [i for i, u in enumerate(ladder.usable) if u]
    if len(idx) < 3:
        raise InsufficientDataError(
            f"only {len(idx)} usable rungs of {len(ladder.radii)}; "
            f"occupancy per rung: {ladder.occupied}"
        )
    x = (ladder.q - 1.0) * np.log([ladder.radii[i] for i in idx])
    y = np.log([ladder.sums[i] for i in idx])
    value, stderr = fit_line(x, y)
    clamped = False
    if value < 0.0 or value > ladder.dim:
        value = min(max(value, 0.0), float(ladder.dim))
        clamped = True
    return DimEstimate(
        value=value, stderr=stderr, window=(idx[0], idx[-1]),
        q=ladder.q, form=ladder.form, clamped=clamped,
    )
