"""Code-space trees: meets, join sets, classes, cut sets."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affdims import (
    JoinSet,
    all_words,
    canonical_join_class,
    count_join_configurations,
    cut_set,
    join_set,
    kernel_of_join_set,
    multienergy_kernel,
    wedge,
)
from affdims.codespace import (_class_shapes, _encode_join_set,
                               _realize_encoding, _word_index, is_prefix)
from affdims.errors import InvalidInputError, ResourceLimitError

from checks import diag_ifs


def test_wedge_longest_common_prefix():
    assert wedge((1, 2, 1), (1, 2, 2)) == (1, 2)
    assert wedge((1,), (2,)) == ()
    assert wedge((1, 2), (1, 2, 1)) == (1, 2)
    assert wedge((), (1, 1)) == ()


def test_all_words_counts():
    assert len(all_words(2, 3)) == 8
    assert len(all_words(3, 2)) == 9
    assert all_words(2, 0) == [()]


@pytest.mark.parametrize("m", [2, 3, 255])
def test_word_index_is_the_base_m_rank(m):
    # The in-place Horner index equals the matmul formula on every shape
    # its callers pass: uint8 and int64 word arrays of any length, lists
    # of tuples, and the root tuples.
    rng = np.random.default_rng(m)
    for length in (0, 1, 9, 20):
        words = rng.integers(1, m + 1, size=(50, length))
        want = (words - 1) @ m ** np.arange(length - 1, -1, -1)
        for got in (_word_index(words.astype(np.uint8), m),
                    _word_index(words, m),
                    _word_index([tuple(w) for w in words.tolist()], m)):
            assert got.dtype == np.intp and np.array_equal(got, want)
    assert _word_index((), m) == 0
    assert _word_index((1, 2), m) == 1
    assert type(_word_index((2, 1), m)) is np.intp


def test_join_set_chain_and_balanced():
    chain = join_set(((1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2)))
    assert dict(chain.vertices) == {(): 1, (1,): 1, (1, 1): 1}
    balanced = join_set(((1, 1, 1), (1, 2, 1), (2, 1, 1), (2, 2, 1)))
    assert dict(balanced.vertices) == {(): 1, (1,): 1, (2,): 1}


def test_join_set_single_pair():
    js = join_set(((1, 2, 1), (1, 2, 2)))
    assert dict(js.vertices) == {(1, 2): 1}


def test_join_set_requires_distinct_words():
    with pytest.raises(InvalidInputError):
        join_set(((1, 2), (1, 2)))


def test_join_set_rejects_prefix_pairs():
    # A ray cannot pass through another ray's cylinder boundary.
    with pytest.raises(InvalidInputError):
        join_set(((1, 2), (1, 2, 1)))


def test_join_set_closure_and_total_multiplicity_random():
    rng = np.random.default_rng(17)
    for _ in range(300):
        m = int(rng.integers(2, 4))
        depth = int(rng.integers(2, 5))
        n = int(rng.integers(2, 6))
        pool = all_words(m, depth)
        if n > len(pool):
            continue
        pick = rng.choice(len(pool), size=n, replace=False)
        words = tuple(pool[i] for i in pick)
        js = join_set(words)
        verts = [v for v, _ in js.vertices]
        # closure under pairwise meet
        for u, v in itertools.combinations(verts, 2):
            assert wedge(u, v) in verts
        # total multiplicity n - 1
        assert sum(mult for _, mult in js.vertices) == n - 1
        # every vertex is a meet of two of the rays
        for v in verts:
            assert any(
                wedge(a, b) == v for a, b in itertools.combinations(words, 2)
            )


# --- the adjacent-wedge rule against brute pairwise oracles ---

def _pairwise_join(rays):
    """Every pairwise wedge, multiplicity = occupied children - 1, or None
    when some ray is a prefix of (or equal to) another."""
    pairs = list(itertools.combinations(rays, 2))
    if any(len(wedge(u, v)) == min(len(u), len(v)) for u, v in pairs):
        return None
    meets = {wedge(u, v) for u, v in pairs}
    return {w: len({r[len(w)] for r in rays if is_prefix(w, r)}) - 1
            for w in meets}


def _pairwise_closed(words):
    return all(wedge(u, v) in words for u, v in itertools.combinations(words, 2))


def _nested_encoding(verts, rootlen):
    """Canonical encoding with each vertex's parent found by full search."""
    def parent(w):
        above = [v for v in verts if v != w and is_prefix(v, w)]
        return max(above, key=len) if above else None

    def enc(w):
        kids = tuple(sorted(enc(u) for u in verts if parent(u) == w))
        return (len(w) - rootlen, verts[w], kids)

    return tuple(sorted(enc(w) for w in verts if parent(w) is None))


@st.composite
def _rooted_families(draw):
    m = draw(st.sampled_from([2, 3]))
    sym = st.integers(1, m)
    root = tuple(draw(st.lists(sym, min_size=1, max_size=2)))
    rays = [root + tuple(w) for w in draw(st.lists(
        st.lists(sym, min_size=2, max_size=5), min_size=2, max_size=5))]
    # Sometimes add a duplicate or a prefix of a drawn ray.
    extra = draw(st.sampled_from(["none", "none", "duplicate", "prefix"]))
    if extra != "none":
        ray = draw(st.sampled_from(rays))
        cut = len(ray) if extra == "duplicate" else draw(
            st.integers(len(root), len(ray) - 1))
        rays.insert(draw(st.integers(0, len(rays))), ray[:cut])
    verts = draw(st.lists(st.lists(sym, max_size=3), min_size=1, max_size=6))
    mults = draw(st.lists(st.integers(1, 2), min_size=len(verts),
                          max_size=len(verts)))
    return root, rays, {root + tuple(v): k for v, k in zip(verts, mults)}


@settings(max_examples=400, deadline=None)
@given(_rooted_families())
def test_join_set_and_closure_match_pairwise_oracles(case):
    root, rays, verts = case
    want = _pairwise_join(rays)
    if want is None:
        with pytest.raises(InvalidInputError):
            join_set(rays, root=root)
    else:
        js = join_set(rays, root=root)
        assert dict(js.vertices) == want
        assert _encode_join_set(js) == _nested_encoding(want, len(root))
    # JoinSet accepts exactly the pairwise meet-closed vertex sets.
    if _pairwise_closed(list(verts)):
        js = JoinSet(root=root, vertices=tuple(verts.items()))
        assert js.vertices == tuple(sorted(verts.items()))
        assert _encode_join_set(js) == _nested_encoding(verts, len(root))
    else:
        with pytest.raises(InvalidInputError):
            JoinSet(root=root, vertices=tuple(verts.items()))


def test_canonical_class_invariant_under_relabeling():
    """Swapping branch labels below the root must not change the class."""
    words = ((1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2))
    swapped = tuple(tuple(3 - c for c in w) for w in words)
    c1 = canonical_join_class(join_set(words))
    c2 = canonical_join_class(join_set(swapped))
    assert c1.encoding() == c2.encoding()
    assert c1.levels == c2.levels
    assert c1.spread == c2.spread
    assert c1 == c2 == canonical_join_class(c1.canonical_form)


def test_canonical_class_distinguishes_chain_from_balanced():
    chain = canonical_join_class(join_set(((1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2))))
    bal = canonical_join_class(join_set(((1, 1, 1), (1, 2, 1), (2, 1, 1), (2, 2, 1))))
    assert chain.levels != bal.levels or chain.encoding() != bal.encoding()
    for jc in (chain, bal):
        assert canonical_join_class(jc.canonical_form) == jc


def test_class_counts_exhaustive_depth3():
    """Enumerate every n-subset of depth-3 rays and bin by class."""
    pool = all_words(2, 3)
    for n in (2, 3, 4):
        seen = {}
        for combo in itertools.combinations(pool, n):
            jc = canonical_join_class(join_set(combo))
            assert canonical_join_class(jc.canonical_form) == jc
            seen.setdefault((jc.root, jc.encoding()), 0)
        by_levels = {}
        for (_, enc) in seen:
            jc_levels = tuple(sorted(lvl for lvl, _, _ in flatten_encoding(enc)))
            by_levels[jc_levels] = by_levels.get(jc_levels, 0) + 1
        for levels, found in by_levels.items():
            assert count_join_configurations(levels) == found
            # A count reads only the order and ties of the levels, so
            # spreading them out, past any depth the tree was cut at,
            # changes nothing: (0, 1) counts as (0, 9) does.
            spread = tuple(9 * lvl for lvl in levels)
            assert count_join_configurations(spread) == found
    assert count_join_configurations((0, 9)) == \
        count_join_configurations((0, 1))
    assert count_join_configurations((0, 10, 20, 30, 40, 50), m=3) == \
        count_join_configurations((0, 1, 2, 3, 4, 5), m=3) == 61


def flatten_encoding(enc):
    out = []
    for lvl, mult, children in enc:
        out.append((lvl, mult, children))
        out.extend(flatten_encoding(children))
    return out


def test_count_bound_factorial():
    # No level multiset of n - 1 join vertices admits more than (n-1)! classes.
    for n in (2, 3, 4, 5):
        for levels in itertools.combinations_with_replacement(range(4), n - 1):
            assert count_join_configurations(levels) <= math.factorial(n - 1)


def _zigzag(n):
    """The Euler zigzag number E_n by the Seidel-Entringer triangle."""
    row = [1]
    for _ in range(n):
        row = list(itertools.accumulate(reversed(row), initial=0))
    return row[-1]


@pytest.mark.parametrize("m", [2, 3, 5])
def test_count_with_distinct_levels_is_the_zigzag_number(m):
    # n joins at distinct levels form a decreasing binary tree up to child
    # swaps, counted by E_n whatever the arity: 1, 1, 2, 5, 16, 61, 272,
    # 1385, 7936.
    assert [_zigzag(n) for n in (7, 8, 9)] == [272, 1385, 7936]
    for n in range(1, 10):
        assert count_join_configurations(tuple(range(n)), m) == _zigzag(n)
    # Each distinct level multiplies the enumeration's cost by about 8, so
    # 9 is the cap: 9 levels take under 0.1 s, 11 several seconds.
    with pytest.raises(ResourceLimitError,
                       match="10 levels exceeds the limit of 9"):
        count_join_configurations(tuple(range(10)), m)


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("root", [(), (1, 2)])
def test_every_listed_shape_realizes_to_its_encoding(m, root):
    # Every level pattern of up to 7 joins, ties included, at consecutive
    # depths from 0 and spread out from depth 1: the class built from each
    # encoding _class_shapes lists encodes back to it, with those levels.
    for n in range(1, 8):
        for steps in itertools.product((0, 1), repeat=n - 1):
            ranks = tuple(itertools.accumulate(steps, initial=0))
            for levels in (ranks, tuple(2 * x + 1 for x in ranks)):
                for enc in _class_shapes(levels, m):
                    jc = _realize_encoding(enc, root)
                    assert jc.encoding() == enc and jc.root == root
                    assert jc.levels == tuple(len(root) + x for x in levels)
                    assert jc.spread == n + 1


def test_count_zero_for_unrealizable_multiset():
    # A binary tree has a single vertex at level 0.
    assert count_join_configurations((0, 0, 0)) == 0


def test_cut_set_partitions_rays():
    ifs = diag_ifs([0.5, 0.3], [0.45, 0.4], [0.35, 0.3])
    rng = np.random.default_rng(3)
    members = cut_set(ifs, 0.8, 0.15)
    for _ in range(200):
        ray = tuple(rng.integers(1, 4, size=12))
        hits = [w for w in members if is_prefix(w, ray)]
        assert len(hits) == 1


def test_cut_set_value_bracket():
    from affdims import compose, singular_values
    from affdims.linalg import contraction_bounds

    ifs = diag_ifs([0.5, 0.3], [0.45, 0.4])
    s, r = 0.8, 0.1
    j = math.ceil(s)
    a_minus, _ = contraction_bounds(ifs)
    for w in cut_set(ifs, s, r):
        alpha = singular_values(compose(ifs, w))[j - 1]
        assert alpha <= r * (1 + 1e-12)
        assert alpha > a_minus * r * (1 - 1e-12)


def test_kernels_match_between_forms():
    ifs = diag_ifs([0.5, 0.3], [0.4, 0.35])
    words = ((1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2))
    js = join_set(words)
    assert multienergy_kernel(ifs, 0.7, words) == pytest.approx(
        kernel_of_join_set(ifs, 0.7, js), rel=1e-12
    )


def test_kernel_chain_by_hand():
    ifs = diag_ifs([0.5, 0.3], [0.4, 0.35])
    from affdims import compose, phi_s

    words = ((1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2))
    want = (
        phi_s(compose(ifs, ()), 0.7)
        * phi_s(compose(ifs, (1,)), 0.7)
        * phi_s(compose(ifs, (1, 1)), 0.7)
    )
    assert multienergy_kernel(ifs, 0.7, words) == pytest.approx(want, rel=1e-12)


def test_kernel_spread_one_is_one():
    ifs = diag_ifs([0.5, 0.3], [0.4, 0.35])
    assert multienergy_kernel(ifs, 0.7, ((1, 2, 1),)) == pytest.approx(1.0)
