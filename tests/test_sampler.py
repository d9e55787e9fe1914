"""Random-displacement sampling of almost self-affine attractors."""

import hashlib
import re
import sys
import tracemalloc

import numpy as np
import pytest

from affdims import (
    AffineIFS,
    BernoulliModel,
    DisplacementField,
    MarkovGibbsModel,
    compose,
    displacement,
    project,
    read_cloud,
    sample_cloud,
    write_cloud,
)
from affdims import counterrng as crng
from affdims import sampler
from affdims.errors import InvalidInputError, ResourceLimitError
from affdims.sampler import (
    _WRITE_ROWS,
    Cloud,
    attractor_radius,
    default_depth,
    truncation_tail,
)

from checks import diag_ifs, random_bernoulli, random_contraction


def small_setup():
    ifs = diag_ifs([0.5, 0.3], [0.4, 0.35])
    model = BernoulliModel(probs=(0.6, 0.4))
    fld = DisplacementField(seed=2024, region_radius=1.0)
    return ifs, model, fld


def test_truncation_tail_formula():
    # sum_{k >= K} a^k R sqrt(N) = a^K R sqrt(N) / (1 - a), a the largest
    # singular value of the maps
    assert truncation_tail(diag_ifs([0.5, 0.3], [0.2, 0.1]), 1.0, 10) \
        == pytest.approx(0.5**10 * np.sqrt(2) / 0.5)
    assert truncation_tail(diag_ifs([0.1, 0.2, 0.4], [0.3, 0.3, 0.3]), 2.0,
                           5) == pytest.approx(0.4**5 * 2.0 * np.sqrt(3) / 0.6)
    ifs, _, fld = small_setup()
    assert truncation_tail(ifs, fld.region_radius, 0) \
        == attractor_radius(ifs, fld.region_radius)


def test_displacement_deterministic_and_bounded():
    fld = DisplacementField(seed=7, region_radius=0.5)
    v1 = displacement(fld, (1, 2, 1), 2)
    v2 = displacement(fld, (1, 2, 1), 2)
    np.testing.assert_array_equal(v1, v2)
    assert np.all(np.abs(v1) <= 0.5)
    v3 = displacement(fld, (1, 2, 2), 2)
    assert not np.array_equal(v1, v3)


def test_displacement_depends_on_seed():
    a = displacement(DisplacementField(seed=1, region_radius=1.0), (1, 1), 2)
    b = displacement(DisplacementField(seed=2, region_radius=1.0), (1, 1), 2)
    assert not np.array_equal(a, b)


def test_project_is_prefix_sum_of_displacements():
    ifs, _, fld = small_setup()
    word = (1, 2, 1, 1)
    K = 4
    pos = np.zeros(2)
    prefix = np.eye(2)
    for j in range(K):
        pos = pos + prefix @ displacement(fld, word[: j + 1], 2)
        prefix = prefix @ ifs.maps[word[j] - 1].matrix
    got = project(ifs, fld, word, K)
    np.testing.assert_allclose(got.position, pos, rtol=1e-12, atol=1e-15)
    assert got.word_prefix == word[:K]
    # Symbol K is read by the last displacement only, never by compose,
    # and is checked all the same; symbols past K are not read.
    for bad in (0, 3):
        with pytest.raises(InvalidInputError, match=f"{bad} outside 1..2"):
            project(ifs, fld, word[:K - 1] + (bad,), K)
    assert project(ifs, fld, word + (3,), K).word_prefix == word


def test_project_common_prefix_shares_leading_terms():
    ifs, _, fld = small_setup()
    a = project(ifs, fld, (1, 2, 1, 1), 2)
    b = project(ifs, fld, (1, 2, 2, 2), 2)
    np.testing.assert_allclose(a.position, b.position)


def test_cloud_matches_scalar_projection():
    ifs, model, fld = small_setup()
    cloud = sample_cloud(ifs, model, fld, 64, 12)
    for i in (0, 7, 31, 63):
        pt = project(ifs, fld, tuple(cloud.words[i]), 12)
        np.testing.assert_allclose(cloud.positions[i], pt.position, rtol=1e-12, atol=1e-14)


def test_cloud_deterministic_and_extendable():
    ifs, model, fld = small_setup()
    a = sample_cloud(ifs, model, fld, 500, 10)
    b = sample_cloud(ifs, model, fld, 500, 10)
    np.testing.assert_array_equal(a.positions, b.positions)
    np.testing.assert_array_equal(a.words, b.words)
    # first-n stability under growth of the cloud
    big = sample_cloud(ifs, model, fld, 800, 10)
    np.testing.assert_array_equal(big.positions[:500], a.positions)


def test_cloud_thread_and_chunk_invariance():
    ifs, model, fld = small_setup()
    base = sample_cloud(ifs, model, fld, 2000, 10)
    threaded = sample_cloud(ifs, model, fld, 2000, 10, threads=4)
    chunked = sample_cloud(ifs, model, fld, 2000, 10, chunk=97)
    np.testing.assert_array_equal(base.positions, threaded.positions)
    np.testing.assert_array_equal(base.positions, chunked.positions)
    # 2000 points in 22 or 21 chunks of 90-91 or 95-96 points, and in
    # 3 chunks of 666-667 points.  The workers write rows of shared
    # outputs; a short switch interval interleaves them often.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for threads, chunk in ((2, 97), (3, 97), (2, 65536), (3, 65536)):
            split = sample_cloud(ifs, model, fld, 2000, 10, threads=threads,
                                 chunk=chunk)
            np.testing.assert_array_equal(base.positions, split.positions)
            np.testing.assert_array_equal(base.words, split.words)
    finally:
        sys.setswitchinterval(interval)
    # Fewer points than threads: one point per chunk.
    tiny = sample_cloud(ifs, model, fld, 2, 10, threads=3)
    np.testing.assert_array_equal(base.positions[:2], tiny.positions)


def test_cloud_chunks_fill_outputs_in_place():
    # Chunks write their rows of the outputs: the peak stays near the
    # outputs' own size, where gathering the chunks and joining them
    # held about twice as much.
    ifs, model, fld = small_setup()
    sample_cloud(ifs, model, fld, 200, 20, chunk=97)  # warm-up
    tracemalloc.start()
    try:
        cloud = sample_cloud(ifs, model, fld, 20_000, 20, chunk=97)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * (cloud.words.nbytes + cloud.positions.nbytes)


def _general_series(ifs, fld, words):
    """The displacement series with full prefix matrices, for any maps."""
    count, depth = words.shape
    mats = ifs.matrix_stack()
    states = crng.root_states(fld.key(), count)
    pos = np.zeros((count, ifs.dim))
    prefix = np.broadcast_to(np.eye(ifs.dim), (count, ifs.dim, ifs.dim)).copy()
    for j in range(depth):
        states = crng.advance(states, words[:, j].astype(np.uint64))
        u = crng.unit_uniforms(states, ifs.dim)
        pos += np.einsum("nij,nj->ni", prefix, (2.0 * u - 1.0) * fld.region_radius)
        prefix = np.matmul(prefix, mats[words[:, j] - 1])
    return pos


@pytest.mark.parametrize("diagonals", [
    ([0.5], [-0.3], [0.2]),
    ([0.5, 0.3], [0.4, -0.35]),
    ([0.5, 0.4, 0.3], [-0.3, 0.45, 0.35], [0.2, 0.25, -0.1]),
], ids=["dim1", "dim2", "dim3"])
def test_diagonal_series_equals_general_series(diagonals):
    # Off-diagonal terms of diagonal prefixes are exact zeros, so keeping
    # only the diagonals changes no bit; 1000 points, not a multiple of
    # the chunk bound 97, are 11 chunks of 90-91.
    ifs = diag_ifs(*diagonals)
    model = BernoulliModel(probs=tuple([1.0 / len(diagonals)] * len(diagonals)))
    fld = DisplacementField(seed=31, region_radius=1.5)
    cloud = sample_cloud(ifs, model, fld, 1000, 12, chunk=97)
    np.testing.assert_array_equal(cloud.positions,
                                  _general_series(ifs, fld, cloud.words))


def _prefix_depth(m, count, K):
    """The deepest J < K with m^J <= count // 2: the chunk's table depth."""
    return max((j for j in range(1, K) if m ** j <= count // 2), default=0)


def _check_series(ifs, model, count, depths):
    fld = DisplacementField(seed=43, region_radius=1.5)
    for K in depths:
        cloud = sample_cloud(ifs, model, fld, count, K)  # one chunk
        np.testing.assert_array_equal(cloud.positions,
                                      _general_series(ifs, fld, cloud.words))
        for i in sorted({0, count // 2, count - 1}):
            pt = project(ifs, fld, tuple(cloud.words[i]), K)
            np.testing.assert_allclose(cloud.positions[i], pt.position,
                                       rtol=1e-12, atol=1e-14)


def _series_system(rng, dim, m, sheared, markov):
    mats = [np.diag(rng.uniform(-0.5, 0.5, dim)) for _ in range(m)]
    if sheared:
        mats[-1] = random_contraction(rng, dim, 0.6)
    model = (MarkovGibbsModel(potential=rng.uniform(-1.0, 1.0, (m, m)))
             if markov else random_bernoulli(rng, m))
    return AffineIFS(maps=tuple(mats)), model


@pytest.mark.parametrize("markov", [False, True], ids=["bernoulli", "markov"])
@pytest.mark.parametrize("dim, sheared", [
    (1, False), (2, False), (2, True), (3, False), (3, True),
], ids=["dim1", "dim2", "dim2-sheared", "dim3", "dim3-sheared"])
def test_prefix_table_changes_no_bit(dim, sheared, markov):
    # A chunk evaluates the first J levels once per word of length J and
    # gathers each point's row; positions must be the per-point series'
    # bits at every table depth, J = 0 (1 point) included, and at depths
    # K = 1, J, J + 1 and 30.
    rng = np.random.default_rng(dim * 4 + sheared * 2 + markov)
    for m in (2, 3, 5):
        ifs, model = _series_system(rng, dim, m, sheared, markov)
        for count in (1, 2 * m - 1, 97, 5000):
            J = _prefix_depth(m, count, 30)
            _check_series(ifs, model, count,
                          sorted({1, max(J, 1), J + 1, 30}))


@pytest.mark.parametrize("sheared, markov", [(False, False), (True, True)],
                         ids=["diagonal-bernoulli", "sheared-markov"])
def test_prefix_table_of_255_maps_changes_no_bit(sheared, markov):
    # 255 maps in one 50,000-point chunk: a table of the 255 one-symbol
    # words.
    assert _prefix_depth(255, 50_000, 30) == 1
    ifs, model = _series_system(np.random.default_rng(255), 2, 255,
                                sheared, markov)
    _check_series(ifs, model, 50_000, [1, 2, 30])


@pytest.mark.parametrize("sheared", [False, True], ids=["diagonal", "sheared"])
def test_add_levels_returns_each_words_product(sheared):
    # The prefix table takes each table word's full product from
    # _add_levels: bitwise that of compose, diagonal columns included.
    rng = np.random.default_rng(17)
    ifs, _ = _series_system(rng, 2, 3, sheared, False)
    words = rng.integers(1, 4, size=(50, 6)).astype(np.uint8)
    fld = DisplacementField(seed=5)
    prefix = sampler._add_levels(ifs, crng.root_states(fld.key(), 50), words,
                                 fld.region_radius, np.zeros((50, 2)))
    products = np.array([compose(ifs, w) for w in words.tolist()])
    if not sheared:
        assert prefix.shape == (50, 2)
        prefix = prefix[:, :, None] * np.eye(2)
    np.testing.assert_array_equal(prefix, products)


def test_cloud_chunk_peak_memory():
    # The prefix table's rows are gathered into the buffers the per-point
    # levels use, so no second copy of the chunk's states is held.
    ifs = diag_ifs([0.45, 0.40], [0.40, 0.35], [0.35, 0.30])
    model = BernoulliModel(probs=(0.40, 0.35, 0.25))
    fld = DisplacementField(seed=7)
    key = crng.derive_key(fld.seed, sampler._WORD_LABEL)
    sampler._cloud_chunk(ifs, model, fld, 0, 500, 40, key)  # warm-up
    tracemalloc.start()
    try:
        words, positions = sampler._cloud_chunk(ifs, model, fld, 0, 50_000,
                                                40, key)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * (words.nbytes + positions.nbytes)


def test_one_sheared_map_takes_general_series(monkeypatch):
    calls = []
    einsum = np.einsum

    def counted(*args, **kwargs):
        calls.append(args[0])
        return einsum(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", counted)
    ifs, model, fld = small_setup()
    sample_cloud(ifs, model, fld, 50, 6)
    assert calls == []  # diagonal maps keep diagonal prefixes
    sheared = AffineIFS(maps=(np.diag([0.5, 0.3]),
                              np.array([[0.4, 1e-3], [0.0, 0.35]])))
    cloud = sample_cloud(sheared, model, fld, 500, 10, chunk=97)
    assert calls
    monkeypatch.undo()
    np.testing.assert_array_equal(cloud.positions,
                                  _general_series(sheared, fld, cloud.words))


def test_cloud_word_frequencies():
    ifs, model, fld = small_setup()
    cloud = sample_cloud(ifs, model, fld, 30_000, 6)
    freq = np.mean(cloud.words[:, 0] == 1)
    sigma = np.sqrt(0.6 * 0.4 / len(cloud))
    assert abs(freq - 0.6) < 4 * sigma
    # depth-2 cylinder frequency
    f11 = np.mean((cloud.words[:, 0] == 1) & (cloud.words[:, 1] == 1))
    sigma2 = np.sqrt(0.36 * 0.64 / len(cloud))
    assert abs(f11 - 0.36) < 4 * sigma2


def test_points_stay_inside_stated_radius():
    ifs, model, fld = small_setup()
    cloud = sample_cloud(ifs, model, fld, 2000, 15)
    radius = attractor_radius(ifs, fld.region_radius)
    norms = np.linalg.norm(cloud.positions, axis=1)
    assert norms.max() <= radius + cloud.truncation_bound


def test_default_depth_controls_tail():
    ifs, _, fld = small_setup()
    r_min = 1e-3
    K = default_depth(ifs, fld.region_radius, r_min)
    assert truncation_tail(ifs, fld.region_radius, K) < r_min / 10
    assert truncation_tail(ifs, fld.region_radius, K - 1) >= r_min / 10


def test_cloud_roundtrip(tmp_path):
    ifs, model, fld = small_setup()
    cloud = sample_cloud(ifs, model, fld, 200, 8)
    path = tmp_path / "cloud.txt"
    write_cloud(path, cloud)
    back = read_cloud(path)
    np.testing.assert_array_equal(back.positions, cloud.positions)
    assert back.words.shape == (len(cloud), 0)  # words are not persisted
    assert back.seed == cloud.seed
    assert back.depth == cloud.depth
    assert back.truncation_bound == pytest.approx(cloud.truncation_bound)


def test_cloud_file_bytes_stable(tmp_path):
    ifs, model, fld = small_setup()
    cloud = sample_cloud(ifs, model, fld, 100, 8)
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    d1 = write_cloud(p1, cloud)
    d2 = write_cloud(p2, cloud)
    assert p1.read_bytes() == p2.read_bytes()
    # The digest is hashed while writing and is that of the file's bytes.
    assert d1 == d2 == hashlib.sha256(p1.read_bytes()).hexdigest()


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("rows", [1, _WRITE_ROWS - 1, _WRITE_ROWS,
                                  _WRITE_ROWS + 1])
def test_write_cloud_matches_per_element_format(tmp_path, dim, rows):
    edge = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e16, 1.0 / 3.0,
            -1.7976931348623157e308, 1.2345678901234567e-300, 2.5,
            float("nan"), float("inf"), -float("inf")]
    values = np.resize(np.array(edge), rows * dim).reshape(rows, dim)
    cloud = Cloud(positions=values, words=np.zeros((rows, 0), np.uint8),
                  truncation_bound=1e-3, seed=5, depth=7, region_radius=1.0)
    path = tmp_path / "cloud.txt"
    write_cloud(path, cloud)
    body = path.read_text().split("\n", 2)[2]
    want = "".join(" ".join(f"{x:.17g}" for x in row) + "\n"
                   for row in values)
    assert body == want


def _in_range_values(rng):
    """Values write_cloud formats without Python: 1e-7 <= |x| < 1e15."""
    def inside(x):
        return x[(np.abs(x) >= 1e-7) & (np.abs(x) < 1e15)]

    # 10^k and its neighbours: the one below 10^k is the only double whose
    # 17 digits could round up to a carry into 10^k.
    decades = inside(np.array([np.nextafter(10.0 ** k, s)
                               for k in range(-8, 17)
                               for s in (0.0, 10.0 ** k, np.inf)]))
    ties = (2.0 * rng.integers(4 * 10**14, 4 * 10**15, 1000) + 1) / 8
    bits = (rng.integers(1023 - 24, 1023 + 50, 110_000, dtype=np.uint64) << 52
            | rng.integers(0, 2**52, 110_000, dtype=np.uint64))
    values = np.concatenate([decades, ties,
                             inside(bits.view(np.float64))[:100_000]])
    return values * rng.choice([-1.0, 1.0], values.size)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("rows", [_WRITE_ROWS - 1, _WRITE_ROWS,
                                  _WRITE_ROWS + 1, "all"])
def test_write_cloud_in_range_values_match_per_element_format(
        tmp_path, monkeypatch, dim, rows):
    values = _in_range_values(np.random.default_rng(dim))
    rows = values.size // dim if rows == "all" else rows
    positions = values[:rows * dim].reshape(rows, dim).copy()
    if rows > _WRITE_ROWS:  # the last block mixes in values out of range
        positions[-1] = [np.nextafter(1e-7, 0.0), -1e15, 0.0][:dim]
    fallback = []
    per_value = sampler._printf_rows
    monkeypatch.setattr(sampler, "_printf_rows",
                        lambda b: fallback.append(len(b)) or per_value(b))
    cloud = Cloud(positions=positions, words=np.zeros((rows, 0), np.uint8),
                  truncation_bound=1e-3, seed=5, depth=7, region_radius=1.0)
    path = tmp_path / "cloud.txt"
    write_cloud(path, cloud)
    body = path.read_text().split("\n", 2)[2]
    want = "".join(" ".join(f"{x:.17g}" for x in row) + "\n"
                   for row in positions.tolist())
    assert body == want
    assert fallback == ([] if rows <= _WRITE_ROWS
                        else [(rows - 1) % _WRITE_ROWS + 1])


def test_sampled_cloud_written_without_per_value_format(tmp_path,
                                                        monkeypatch):
    # Acceptance 4's system: every coordinate is in the exact range, so no
    # block may fall back to Python formatting.  Digest recorded from the
    # per-value formatting of every row.
    ifs = diag_ifs([0.45, 0.4], [0.4, 0.35], [0.35, 0.3])
    model = BernoulliModel(probs=(0.4, 0.35, 0.25))
    cloud = sample_cloud(ifs, model, DisplacementField(seed=11), 20_000, 40,
                         threads=2)

    def refuse(block):
        raise AssertionError("a block fell back to per-value formatting")

    monkeypatch.setattr(sampler, "_printf_rows", refuse)
    path = tmp_path / "cloud.txt"
    digest = write_cloud(path, cloud)
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest() == (
        "ef47582b324b463a5c0e32b4dc1eb5233a6f38590585a626c1ae894838a93ffe")


def test_read_cloud_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a cloud\n1 2 3\n")
    with pytest.raises(InvalidInputError):
        read_cloud(path)


def test_read_cloud_missing_file(tmp_path):
    path = tmp_path / "absent.txt"
    with pytest.raises(InvalidInputError,
                       match=re.escape(f"cloud file not found: {path}")):
        read_cloud(path)


def test_field_seed_validation():
    with pytest.raises(InvalidInputError):
        DisplacementField(seed=-1, region_radius=1.0)
    with pytest.raises(InvalidInputError):
        DisplacementField(seed=2**64, region_radius=1.0)
    for radius in (0.0, float("inf"), float("nan")):
        with pytest.raises(InvalidInputError):
            DisplacementField(seed=3, region_radius=radius)


def test_sample_cloud_validates_sizes():
    ifs, model, fld = small_setup()
    with pytest.raises(InvalidInputError):
        sample_cloud(ifs, model, fld, 0, 8)
    with pytest.raises(InvalidInputError):
        sample_cloud(ifs, model, fld, 10, 0)
    # The (n, K) uint8 words are budgeted before they are allocated.
    with pytest.raises(ResourceLimitError,
                       match="2000 points at depth 1000000000 hold"):
        sample_cloud(ifs, model, fld, 2000, 10 ** 9)
    # The same checks, which the CLI runs before any other work.
    for n, K, error in ((0, 8, InvalidInputError), (10, 0, InvalidInputError),
                        (2000, 10 ** 9, ResourceLimitError)):
        with pytest.raises(error):
            sampler._check_cloud_size(n, K)
    # Checked before any pool exists: no thread is started.
    with pytest.raises(InvalidInputError, match="threads <= 256"):
        sample_cloud(ifs, model, fld, 10, 8, threads=10**6)
