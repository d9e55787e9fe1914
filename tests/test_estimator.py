"""Empirical generalized dimensions from point clouds."""

from functools import cache

import numpy as np
import pytest

from affdims import (
    AffineIFS,
    BernoulliModel,
    DisplacementField,
    build_ladder,
    build_ladders,
    correlation_integral,
    estimate_dimension,
    mesh_moment_sum,
    sample_cloud,
)
from affdims import estimator
from affdims.errors import InsufficientDataError, InvalidInputError
from affdims.estimator import (
    MomentLadder,
    _bounds,
    _cube_counts,
    _diameter,
    occupied_cubes,
)

from checks import diag_ifs


def test_mesh_moment_sum_by_hand():
    pts = np.array([[0.1, 0.1], [0.6, 0.1], [0.1, 0.6], [0.6, 0.6]])
    # r = 0.5: four distinct cells, each holding 1/4 of the mass
    assert mesh_moment_sum(pts, 0.5, 2.0) == pytest.approx(4 * 0.25**2)
    # r = 2: one cell holds everything
    assert mesh_moment_sum(pts, 2.0, 2.0) == pytest.approx(1.0)


def test_mesh_moment_sum_weights_by_count():
    pts = np.array([[0.1, 0.1], [0.2, 0.2], [0.3, 0.3], [0.8, 0.8]])
    got = mesh_moment_sum(pts, 0.5, 3.0)
    assert got == pytest.approx((3 / 4) ** 3 + (1 / 4) ** 3)


def test_occupied_cubes_counts():
    pts = np.array([[0.1, 0.1], [0.2, 0.2], [0.8, 0.8]])
    assert occupied_cubes(pts, 0.5) == 2
    assert occupied_cubes(pts, 10.0) == 1


def test_mesh_scaling_covariance_exact():
    """Scaling points and radii together leaves every moment sum unchanged."""
    rng = np.random.default_rng(8)
    pts = rng.uniform(0, 1, size=(500, 2))
    for c in (3.0, 0.25):
        for r in (0.1, 0.33):
            assert mesh_moment_sum(pts * c, r * c, 2.0) == pytest.approx(
                mesh_moment_sum(pts, r, 2.0), rel=1e-12
            )


def test_correlation_integral_coincident_points():
    pts = np.zeros((50, 2))
    for q in (2, 3, 4):
        assert correlation_integral(pts, 0.1, q) == pytest.approx(1.0)


def test_correlation_integral_two_separated_clusters():
    # 6 points at the origin, 4 at distance 10; r = 1 sees only within-cluster pairs.
    pts = np.vstack([np.zeros((6, 2)), np.full((4, 2), 10.0)])
    n = 10
    # P(pair within r) = (6*5 + 4*3) / (10*9)
    want = (6 * 5 + 4 * 3) / (n * (n - 1))
    assert correlation_integral(pts, 1.0, 2) == pytest.approx(want)
    # Points and radius 2^k times larger count the same pairs, also where
    # their squared distances pass the float range.
    for k in (520, -520):
        assert correlation_integral(np.ldexp(pts, k), np.ldexp(1.0, k), 2) \
            == correlation_integral(pts, 1.0, 2)
    # A constant column far from the origin, against which the clusters'
    # extent is tiny, still counts them.
    far = np.column_stack([np.full(n, 1e300), pts[:, 0] * 1e-10])
    assert correlation_integral(far, 1e-10, 2) == pytest.approx(want)


def test_correlation_integral_validation():
    pts = np.zeros((10, 2))
    with pytest.raises(InvalidInputError):
        correlation_integral(pts, 0.1, 2.5)
    with pytest.raises(InvalidInputError):
        correlation_integral(pts, 0.1, 1)
    with pytest.raises(InvalidInputError):
        correlation_integral(np.zeros((3, 2)), 0.1, 4)


def test_uniform_square_box_dimension():
    rng = np.random.default_rng(42)
    pts = rng.uniform(0, 1, size=(40_000, 2))
    ladder = build_ladder(pts, 2.0, rungs=10)
    est = estimate_dimension(ladder)
    assert est.value == pytest.approx(2.0, abs=0.1)
    assert not est.clamped


def test_self_similar_cloud_correlation_dimension():
    """Two equal similarities of ratio 0.45: D_2 = log(1/2) / log(0.45)."""
    ifs = diag_ifs([0.45, 0.45], [0.45, 0.45])
    model = BernoulliModel(probs=(0.5, 0.5))
    fld = DisplacementField(seed=31, region_radius=1.0)
    cloud = sample_cloud(ifs, model, fld, 120_000, 25)
    want = np.log(0.5) / np.log(0.45)
    est = estimate_dimension(build_ladder(cloud, 2.0, form="mesh", min_occupied=10))
    assert est.value == pytest.approx(want, abs=0.12)
    # the pairwise form is costlier, so feed it a subsample
    corr = estimate_dimension(
        build_ladder(cloud.positions[:25_000], 2.0, form="correlation", min_occupied=10)
    )
    assert corr.value == pytest.approx(want, abs=0.15)


def test_line_cloud_reads_one_dimensional():
    rng = np.random.default_rng(11)
    x = rng.uniform(0, 1, size=30_000)
    pts = np.column_stack([x, 0.5 * x])
    est = estimate_dimension(build_ladder(pts, 2.0, rungs=10))
    assert est.value == pytest.approx(1.0, abs=0.08)


def test_dq_estimates_nonincreasing_in_q():
    rng = np.random.default_rng(23)
    # strongly nonuniform product measure on the unit square
    n = 60_000
    xbits = rng.random((n, 10)) < 0.85
    x = ((2.0 ** -np.arange(1, 11)) * xbits).sum(axis=1)
    y = rng.uniform(0, 1, size=n)
    pts = np.column_stack([x, y])
    values = []
    for q in (2.0, 3.0, 5.0):
        values.append(estimate_dimension(build_ladder(pts, q, rungs=10)).value)
    assert values[0] >= values[1] - 0.05
    assert values[1] >= values[2] - 0.05


def test_ladder_fields_and_usability_rules():
    rng = np.random.default_rng(4)
    pts = rng.uniform(0, 1, size=(5_000, 2))
    ladder = build_ladder(pts, 2.0, rungs=8, min_occupied=5, min_per_cube=10.0)
    assert len(ladder.radii) == 8
    assert ladder.radii[0] == pytest.approx(ladder.radii[1] * 2)
    for r, occ, ok in zip(ladder.radii, ladder.occupied, ladder.usable):
        if ok:
            assert occ >= 5
            assert len(pts) / occ >= 10.0


def test_estimate_requires_three_usable_rungs():
    pts = np.zeros((40, 2))  # all mass in one cell at every scale
    ladder = build_ladder(pts, 2.0, rungs=6)
    with pytest.raises(InsufficientDataError):
        estimate_dimension(ladder)


def test_estimate_clamps_unphysical_slope():
    # Hand-built ladder whose slope exceeds the ambient dimension.
    radii = np.array([0.4, 0.2, 0.1, 0.05])
    sums = (radii ** (2.0 - 1.0)) ** 3.5  # slope 3.5 in a 2-d ambient space
    ladder = MomentLadder(
        radii=radii,
        sums=sums,
        occupied=np.array([20, 80, 320, 1280]),
        usable=np.array([True, True, True, True]),
        q=2.0,
        n=100_000,
        dim=2,
        form="mesh",
    )
    est = estimate_dimension(ladder)
    assert est.clamped
    assert est.value == pytest.approx(2.0)


def test_build_ladder_accepts_cloud_or_array():
    ifs = diag_ifs([0.5, 0.5], [0.5, 0.5])
    model = BernoulliModel(probs=(0.5, 0.5))
    fld = DisplacementField(seed=6, region_radius=1.0)
    cloud = sample_cloud(ifs, model, fld, 4_000, 12)
    a = build_ladder(cloud, 2.0, rungs=6)
    b = build_ladder(cloud.positions, 2.0, rungs=6)
    np.testing.assert_allclose(a.sums, b.sums)


def test_diameter_of_extents_past_two_to_the_1023():
    # The scaling power of two, 2^1024, is itself past the float range.
    assert _diameter((1e308, 1e307)) == float(np.hypot(1e308, 1e307))
    assert _diameter(np.array([3.0, 4.0])) == 5.0
    assert _diameter((3.0 * 2.0 ** 600, 4.0 * 2.0 ** 600)) == 5.0 * 2.0 ** 600
    # Squares below the normal range: the plain norm would be 0.
    assert _diameter((3.0 * 2.0 ** -600, 4.0 * 2.0 ** -600)) \
        == 5.0 * 2.0 ** -600


def test_build_ladder_validation():
    pts = np.random.default_rng(0).uniform(size=(100, 2))
    with pytest.raises(InvalidInputError):
        build_ladder(pts, 1.0)
    with pytest.raises(InvalidInputError):
        build_ladder(pts, 2.0, rho=1.5)
    with pytest.raises(InvalidInputError):
        build_ladder(pts, 2.0, rungs=0)
    with pytest.raises(InvalidInputError, match="positive and finite"):
        build_ladder(pts, 2.0, r0=np.inf)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_points_rejected(bad):
    pts = np.random.default_rng(0).uniform(size=(100, 2))
    pts[17, 1] = bad
    for call in (lambda: build_ladder(pts, 2.0, r0=1.0),
                 lambda: build_ladders(pts, [2.0], ["mesh", "correlation"]),
                 lambda: mesh_moment_sum(pts, 0.1, 2.0),
                 lambda: occupied_cubes(pts, 0.1),
                 lambda: correlation_integral(pts, 0.1, 2)):
        with pytest.raises(InvalidInputError, match="must be finite"):
            call()


def _row_wise_counts(pos, r):
    return np.unique(np.floor(pos / r).astype(np.int64), axis=0,
                     return_counts=True)[1]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_cube_counts_equal_row_wise_unique(dim):
    # Negative coordinates, and a quarter of the points on the 2^-5 grid:
    # on cell edges at r = 2^-5, half of them at 2^-4, and so on up to 1.
    rng = np.random.default_rng(dim)
    pos = rng.uniform(-1.5, 0.7, size=(3000, dim))
    pos[::4] = rng.integers(-48, 23, size=pos[::4].shape) * 2.0 ** -5
    bounds = _bounds(pos)
    for r in [1.3 * 0.5 ** level for level in range(6)] + \
            [2.0 ** -level for level in range(6)]:
        np.testing.assert_array_equal(_cube_counts(pos, r, bounds),
                                      _row_wise_counts(pos, r))


def test_cube_counts_row_wise_past_packed_keys():
    # Spans of 2^21 to 2^22 cells on three axes multiply past 2^62,
    # where one packed integer key could overflow.
    pos = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0],
                    [-1.0, 0.5, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    r = 2.0 ** -21
    lo, hi = _bounds(pos)
    assert np.prod((np.floor(hi / r) - np.floor(lo / r) + 1)) >= 2.0 ** 62
    counts = _cube_counts(pos, r, (lo, hi))
    np.testing.assert_array_equal(counts, _row_wise_counts(pos, r))
    np.testing.assert_array_equal(counts, [1, 3, 2])


def test_mesh_radius_whose_cell_index_overflows_rejected(monkeypatch):
    # floor(x / r) past 2^63 would wrap in the int64 cast: at r = 1e-300
    # every point fell in one cube, at 1e-19 six cubes merged.  A ladder
    # whose finest rung is too fine counts no rung.
    pts = np.random.default_rng(0).uniform(size=(1000, 2))
    assert occupied_cubes(pts, 2.0 ** -60) == 1000
    monkeypatch.setattr(estimator, "_cube_counts", None)
    for call in (lambda: mesh_moment_sum(pts, 1e-300, 2),
                 lambda: occupied_cubes(pts, 1e-19),
                 lambda: build_ladder(pts, 2.0, r0=1e-17, rungs=6)):
        with pytest.raises(InvalidInputError, match=r"r=1\.?\d*e-.*2\^62"):
            call()


@cache
def _shared_pass_cloud(system):
    if system == "sheared-2d":
        ifs = AffineIFS(maps=(np.array([[0.5, 0.0], [0.0, 0.3]]),
                              np.array([[0.4, 0.1], [0.0, 0.35]])))
        probs = (0.6, 0.4)
    else:
        ifs = diag_ifs([0.5, 0.4, 0.3], [0.3, 0.45, 0.35])
        probs = (0.55, 0.45)
    fld = DisplacementField(seed=12, region_radius=1.0)
    return sample_cloud(ifs, BernoulliModel(probs=probs), fld, 1500, 20)


_LADDER_KW = {"rungs": 8, "min_occupied": 5, "min_per_cube": 10.0}


@pytest.mark.parametrize("system", ["sheared-2d", "diagonal-3d"])
@pytest.mark.parametrize("forms", [("mesh",), ("correlation",),
                                   ("mesh", "correlation")],
                         ids=["mesh", "correlation", "both"])
@pytest.mark.parametrize("qs", [(2.0, 3.0), (2.0, 2.5, 3.0), (3.0, 2.0)],
                         ids=["2-3", "2-2.5-3", "3-2"])
def test_build_ladders_equal_per_q_ladders(system, forms, qs):
    cloud = _shared_pass_cloud(system)
    if forms == ("correlation",) and 2.5 in qs:
        # The counting form alone at a non-integer q fails as build_ladder
        # does, before any counting.
        with pytest.raises(InvalidInputError, match="integer q"):
            build_ladders(cloud, qs, forms, **_LADDER_KW)
        with pytest.raises(InvalidInputError, match="integer q"):
            build_ladder(cloud, 2.5, form="correlation", **_LADDER_KW)
        return
    want = [tuple(build_ladder(cloud, q, form=form, **_LADDER_KW)
                  for form in forms if form == "mesh" or q == int(q))
            for q in qs]
    assert build_ladders(cloud, qs, forms, **_LADDER_KW) == want


@pytest.mark.parametrize("system", ["sheared-2d", "diagonal-3d"])
def test_shared_ladders_equal_per_rung_calls(system):
    # Each rung's sums are bitwise those of the standalone per-rung
    # functions, which count the mesh and build a k-d tree per call.
    cloud = _shared_pass_cloud(system)
    rows = build_ladders(cloud, [2.0, 3.0], ["mesh", "correlation"],
                         **_LADDER_KW)
    for ladder in (ladder for row in rows for ladder in row):
        per_rung = mesh_moment_sum if ladder.form == "mesh" \
            else correlation_integral
        assert ladder.sums == tuple(per_rung(cloud, r, ladder.q)
                                    for r in ladder.radii)
        assert ladder.occupied == tuple(occupied_cubes(cloud, r)
                                        for r in ladder.radii)


@pytest.mark.parametrize("system", ["sheared-2d", "diagonal-3d"])
def test_ladders_do_not_depend_on_query_threads(system):
    # Ball queries on two workers return the same integer counts.
    cloud = _shared_pass_cloud(system)
    kw = dict(forms=["mesh", "correlation"], **_LADDER_KW)
    assert build_ladders(cloud, [2.0, 3.0], threads=2, **kw) \
        == build_ladders(cloud, [2.0, 3.0], threads=1, **kw)
