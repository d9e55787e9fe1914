"""Empirical q-dimensions from point clouds.

The mesh moment sum at radius r treats the cloud as the measure giving
each point weight 1/n and sums the q-th powers of cube masses over the
r-mesh anchored at the origin.  D_q is the slope of log M_r(q) against
(q - 1) log r down a geometric ladder of radii, restricted to rungs where
the cloud actually resolves the cubes (enough occupied cubes, enough
points per cube).  For integer q the correlation integral gives a second,
mesh-free route to the same exponent via multi-point counting.
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
    return pos


def _cube_counts(pos, r):
    cells = np.floor(pos / r).astype(np.int64)
    lo = cells.min(axis=0)
    spans = (cells.max(axis=0) - lo + 1).astype(np.int64)
    if float(np.prod(spans.astype(np.float64))) < 2.0 ** 62:
        # Pack cell indices into one integer key; 1-D unique is much
        # faster than row-wise unique on large clouds.
        keys = np.ravel_multi_index(tuple((cells - lo).T), tuple(spans))
        _, counts = np.unique(keys, return_counts=True)
    else:
        _, counts = np.unique(cells, axis=0, return_counts=True)
    return counts


def _mesh_moment(pos, r, q):
    """(M_r(q), occupied cube count) from one count of the r-mesh."""
    if not r > 0:
        raise InvalidInputError(f"radius must be positive, got r={r}")
    if not q > 1:
        raise InvalidInputError(f"mesh moments need q > 1, got q={q}")
    counts = _cube_counts(pos, r)
    return float(np.sum((counts / pos.shape[0]) ** q)), counts.size


def mesh_moment_sum(points, r, q):
    """M_r(q): sum of (cube mass)^q over occupied origin-anchored r-cubes."""
    return _mesh_moment(_positions(points), r, q)[0]


def occupied_cubes(points, r):
    return int(_cube_counts(_positions(points), r).size)


def correlation_integral(points, r, q):
    """Multi-point counting estimate of the ball-mass moment at radius r.

    Averages, over centers x, the falling-factorial ratio
    prod_{t=1..q-1} (c_x - t)/(n - t) where c_x counts points within r of
    x including x itself; the ratio is an unbiased estimate of
    mu(B(x, r))^(q-1) from distinct-sample counting, and equals 1 exactly
    when all points coincide.
    """
    pos = _positions(points)
    if not r > 0:
        raise InvalidInputError(f"radius must be positive, got r={r}")
    if q != int(q) or q < 2:
        raise InvalidInputError(
            f"the counting form needs integer q >= 2, got q={q}"
        )
    q = int(q)
    n = pos.shape[0]
    if n < q:
        raise InvalidInputError(f"need at least q={q} points, got {n}")
    # Imported here: scipy.spatial takes longer to load than the rest of
    # the package, and only this form needs it.
    from scipy.spatial import cKDTree

    tree = cKDTree(pos)
    counts = tree.query_ball_point(pos, r, return_length=True)
    est = np.ones(n)
    for t in range(1, q):
        est *= (counts - t) / (n - t)
    return float(np.mean(np.clip(est, 0.0, None)))


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


def build_ladder(points, q, r0=None, rho=0.5, rungs=12, form="mesh",
                 min_occupied=_MIN_OCCUPIED, min_per_cube=_MIN_PER_CUBE):
    """Moment sums at radii r0 * rho^l for l = 1..rungs.

    r0 defaults to the bounding-box diameter of the cloud.  A rung is
    usable when at least min_occupied cubes are occupied (the mesh
    resolves structure) and the mean count per occupied cube is at least
    min_per_cube (per-cube masses are not dominated by sampling noise).
    """
    pos = _positions(points)
    n, dim = pos.shape
    if not 0 < rho < 1:
        raise InvalidInputError(f"ladder ratio must be in (0, 1), got {rho}")
    if rungs < 3:
        raise InvalidInputError(f"need at least 3 rungs, got {rungs}")
    if r0 is None:
        extent = pos.max(axis=0) - pos.min(axis=0)
        r0 = float(np.linalg.norm(extent))
        if r0 == 0.0:
            r0 = 1.0
    if form not in ("mesh", "correlation"):
        raise InvalidInputError(f"unknown ladder form {form!r}")
    radii, sums, occupied, usable = [], [], [], []
    for level in range(1, rungs + 1):
        r = r0 * rho ** level
        if form == "mesh":
            val, occ = _mesh_moment(pos, r, q)
        else:
            occ = occupied_cubes(pos, r)
            val = correlation_integral(pos, r, q)
        radii.append(r)
        sums.append(val)
        occupied.append(occ)
        usable.append(occ >= min_occupied and n / occ >= min_per_cube
                      and val > 0.0)
    return MomentLadder(
        radii=tuple(radii), sums=tuple(sums), occupied=tuple(occupied),
        usable=tuple(usable), q=float(q), n=n, dim=dim, form=form,
    )


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
