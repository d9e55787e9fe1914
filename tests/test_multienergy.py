"""Multienergy integrals, product bounds, decay and transversality checks."""

import functools
import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affdims import (
    AffineIFS,
    BernoulliModel,
    DisplacementField,
    MarkovGibbsModel,
    canonical_join_class,
    check_decay_criterion,
    check_prop71_bound,
    compose,
    cylinder_mass,
    d_q_minus,
    exact_truncated_multienergy,
    join_set,
    mc_multienergy,
    multienergy_kernel,
    phi_s,
    prop71_survey,
    simulate_transversality,
)
from affdims.errors import DepthInsufficientError, InvalidInputError, ResourceLimitError
from affdims import multienergy
from affdims.codespace import JoinSet, all_words
from affdims.multienergy import _class_sums, _log_kernels, _log_tables, _word_index

from checks import diag_ifs


def hetero_system():
    ifs = diag_ifs([0.5, 0.3], [0.4, 0.35])
    model = BernoulliModel(probs=(0.6, 0.4))
    return ifs, model


def sheared_system():
    """The system of acceptance 6: one diagonal and one sheared map."""
    ifs = AffineIFS(maps=(np.diag([0.5, 0.3]),
                          np.array([[0.4, 0.1], [0.0, 0.35]])))
    return ifs, BernoulliModel(probs=(0.6, 0.4))


# --- independent brute-force oracle for the truncated integral ---

def _mult_kernel(ifs, s, words):
    """Kernel of a word multiset, meets deeper than the words collapsed."""
    total = 1.0
    meets = {tuple(a[: _agree(a, b)]) for a, b in itertools.combinations(words, 2)}
    for v in meets:
        at = sum(1 for w in words if tuple(w) == v)
        children = {w[len(v)] for w in words if len(w) > len(v) and tuple(w[: len(v)]) == v}
        r = at + len(children)
        if r >= 2:
            total *= phi_s(compose(ifs, v), s) ** (r - 1)
    return total


def _agree(a, b):
    k = 0
    while k < len(a) and k < len(b) and a[k] == b[k]:
        k += 1
    return k


def brute_truncated(ifs, model, s, n, q, depth):
    words = list(itertools.product(range(1, ifs.m + 1), repeat=depth))
    masses = {w: cylinder_mass(model, w) for w in words}
    total = 0.0
    for j in words:
        inner = 0.0
        for tup in itertools.product(words, repeat=n):
            inner += np.prod([masses[w] for w in tup]) / _mult_kernel(
                ifs, s, list(tup) + [j]
            )
        total += masses[j] * inner ** ((q - 1) / n)
    return total


# --- the sorted-neighbour kernel against the oracle ---

_KERNEL_SYSTEMS = {
    2: hetero_system()[0],
    3: AffineIFS(maps=(np.diag([0.5, 0.3]), np.array([[0.4, 0.1], [0.0, 0.35]]),
                       np.diag([0.3, 0.45]))),
}


@functools.lru_cache(maxsize=None)
def _kernel_table(m, depth):
    model = BernoulliModel(probs=(1.0 / m,) * m)
    return _log_tables(_KERNEL_SYSTEMS[m], model, 0.55, depth)[0]


@st.composite
def _ray_tuples(draw):
    m = draw(st.sampled_from([2, 3]))
    depth = draw(st.integers(1, 6))
    word = st.tuples(*[st.integers(1, m)] * depth)
    pool = draw(st.lists(word, min_size=1, max_size=6, unique=True))
    return m, depth, draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))


@settings(max_examples=300, deadline=None)
@given(_ray_tuples())
def test_log_kernels_match_brute_oracle(case):
    m, depth, words = case
    ifs = _KERNEL_SYSTEMS[m]
    codes = np.sort(_word_index(words, m))[np.newaxis]
    got = _log_kernels(_kernel_table(m, depth), m, depth, codes)[0]
    assert got == pytest.approx(math.log(_mult_kernel(ifs, 0.55, words)),
                                rel=1e-12, abs=1e-12)
    if len(set(words)) == len(words):
        want = math.log(multienergy_kernel(ifs, 0.55, words))
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize(
    "s,n,q,depth",
    [(0.55, 1, 1.7, 3), (0.55, 2, 2.5, 2), (0.55, 2, 2.5, 3), (0.9, 3, 3.5, 2), (1.3, 2, 3.0, 2)],
)
def test_exact_truncated_matches_brute_force(s, n, q, depth):
    ifs, model = hetero_system()
    got = exact_truncated_multienergy(ifs, model, s=s, n=n, q=q, depth=depth)
    want = brute_truncated(ifs, model, s, n, q, depth)
    assert got == pytest.approx(want, rel=1e-10)


def test_exact_truncated_markov_matches_brute_force():
    ifs, _ = hetero_system()
    potential = np.log(np.array([[0.50, 0.20], [0.35, 0.45]]))
    model = MarkovGibbsModel(potential=potential)
    got = exact_truncated_multienergy(ifs, model, s=0.55, n=2, q=2.5, depth=3)
    want = brute_truncated(ifs, model, 0.55, 2, 2.5, 3)
    assert got == pytest.approx(want, rel=1e-10)


TERNARY_POTENTIAL = np.array([[0.3, -1.2, 0.4], [0.0, 0.8, -0.5],
                              [1.1, 0.2, -0.3]])
SHEARED = AffineIFS(maps=(np.diag([0.5, 0.3]),
                          np.array([[0.4, 0.1], [0.0, 0.35]])))


@pytest.mark.parametrize("ifs, model, n, q, depth", [
    (_KERNEL_SYSTEMS[3], BernoulliModel(probs=(0.5, 0.3, 0.2)), 2, 2.5, 2),
    (_KERNEL_SYSTEMS[3], MarkovGibbsModel(potential=TERNARY_POTENTIAL),
     3, 3.5, 2),
    (SHEARED, BernoulliModel(probs=(0.6, 0.4)), 2, 2.5, 3),
], ids=["ternary-bernoulli", "ternary-markov", "sheared"])
def test_exact_truncated_matches_brute_force_beyond_binary(ifs, model, n, q,
                                                            depth):
    got = exact_truncated_multienergy(ifs, model, s=0.55, n=n, q=q,
                                      depth=depth)
    want = brute_truncated(ifs, model, 0.55, n, q, depth)
    assert got == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("ternary, s, q, depth, value", [
    (False, 0.55, 4.0, 6, 14.087825086147525),
    (False, 0.55, 4.0, 13, 22.719411264075276),
    (True, 0.8, 3.5, 5, 18.637923841885954),
])
def test_exact_truncated_value_pinned(ternary, s, q, depth, value):
    # Values recorded from a composition-by-composition recursion over the
    # same tree; depth 13 is near the tree-vertex budget.
    if ternary:
        ifs = diag_ifs([0.45, 0.4], [0.4, 0.35], [0.35, 0.3])
        model = MarkovGibbsModel(potential=TERNARY_POTENTIAL)
    else:
        ifs, model = SHEARED, BernoulliModel(probs=(0.6, 0.4))
    got = exact_truncated_multienergy(ifs, model, s=s, n=3, q=q, depth=depth)
    assert got == pytest.approx(value, rel=1e-13)


def test_depth_one_hand_sum():
    """n=1, D=1, m=2: four (i, j) cells, kernel is phi only on the diagonal."""
    ifs, model = hetero_system()
    s, q = 0.55, 2.0
    p1, p2 = 0.6, 0.4
    f1 = phi_s(compose(ifs, (1,)), s)
    f2 = phi_s(compose(ifs, (2,)), s)
    want = p1 * (p1 / f1 + p2) ** (q - 1) + p2 * (p1 + p2 / f2) ** (q - 1)
    got = exact_truncated_multienergy(ifs, model, s=s, n=1, q=q, depth=1)
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("n", [21, 42, 85])
def test_depth_one_closed_form_past_int64_factorials(n):
    """m=2, D=1: an outer ray j with k of the n inner rays on the other
    symbol c meets them at the root (phi = 1) and leaves phi_c^(k-1) and
    phi_j^(n-k) at the two leaves; n! passes int64 at n = 21."""
    ifs, model = hetero_system()
    s, q = 0.55, 2.0
    p = (0.6, 0.4)
    f = [phi_s(compose(ifs, (j,)), s) for j in (1, 2)]
    want = 0.0
    for j, c in ((0, 1), (1, 0)):
        a, b = p[c] / f[c], p[j] / f[j]
        inner = b ** n + f[c] * sum(math.comb(n, k) * a ** k * b ** (n - k)
                                    for k in range(1, n + 1))
        want += p[j] * inner ** ((q - 1.0) / n)
    got = exact_truncated_multienergy(ifs, model, s=s, n=n, q=q, depth=1)
    assert got == pytest.approx(want, rel=1e-12)


def test_exact_truncated_monotone_in_depth():
    ifs, model = hetero_system()
    vals = [
        exact_truncated_multienergy(ifs, model, s=0.55, n=2, q=2.5, depth=D)
        for D in range(1, 7)
    ]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_identical_similarity_geometric_closed_form():
    """n=1: inner integral is a geometric series over the meet depth."""
    c, m, D = 0.45, 2, 8
    s, q = 0.6, 2.0
    ifs = diag_ifs([c, c], [c, c])
    model = BernoulliModel(probs=(0.5, 0.5))
    x = c**-s / m
    # P(meet depth k) = m^-k (1 - 1/m) for k < D, plus the collapsed tail m^-D
    inner = sum(x**k * (1 - 1 / m) for k in range(D)) + x**D
    got = exact_truncated_multienergy(ifs, model, s=s, n=1, q=q, depth=D)
    assert got == pytest.approx(inner, rel=1e-12)


def test_budget_guard():
    ifs, model = hetero_system()
    with pytest.raises(ResourceLimitError):
        exact_truncated_multienergy(ifs, model, s=0.55, n=3, q=3.5, depth=40)


def test_exact_budget_counts_series_coefficients():
    # The sum holds n + 1 coefficients at each of the 2^(D+1) - 1 tree
    # vertices, at most 2^17 in all, and n! must stay a finite double.
    ifs, model = sheared_system()
    got = exact_truncated_multienergy(ifs, model, s=0.55, n=6, q=3.0,
                                      depth=13)
    assert got == pytest.approx(12.925392682844343, rel=1e-12)
    assert math.isfinite(exact_truncated_multienergy(
        ifs, model, s=0.55, n=170, q=3.0, depth=8))
    for n, depth in ((171, 1), (8, 13)):
        with pytest.raises(ResourceLimitError, match="tree vertices"):
            exact_truncated_multienergy(ifs, model, s=0.55, n=n, q=3.0,
                                        depth=depth)


def test_mc_depth_limited_by_level_table_budget():
    # 2^18 words exceed the 250,000-word table; 2^17 fit.
    ifs, model = hetero_system()
    with pytest.raises(ResourceLimitError):
        mc_multienergy(ifs, model, s=0.55, n=1, q=1.8, samples=32, depth=18)
    est = mc_multienergy(ifs, model, s=0.55, n=1, q=1.8, samples=32,
                         depth=17, inner=2)
    assert est.truncation_depth == 17


def test_mc_matches_exact_collapse_mode():
    ifs, model = hetero_system()
    exact = exact_truncated_multienergy(ifs, model, s=0.55, n=2, q=2.5, depth=4)
    mc = mc_multienergy(
        ifs, model, s=0.55, n=2, q=2.5, samples=320, depth=4,
        seed=3, inner=128, unresolved="collapse",
    )
    assert abs(mc.value - exact) < 3 * mc.stderr
    assert mc.failures == 0
    assert mc.outer_power == pytest.approx((2.5 - 1) / 2)


@pytest.mark.parametrize("markov, kw, value, stderr", [
    (False, dict(n=2, q=2.5, samples=320, depth=4, seed=3, inner=128),
     2.781057726185411, 0.013207932045272786),
    (True, dict(n=2, q=2.5, samples=64, depth=6, seed=5, inner=16),
     3.5178978902466542, 0.135139231577473),
])
def test_mc_collapse_value_pinned(markov, kw, value, stderr):
    # Values recorded from a per-tuple implementation with the same draw
    # order; they pin which uniform of a batch becomes which symbol.
    ifs, model = hetero_system()
    if markov:
        potential = np.log(np.array([[0.50, 0.20], [0.35, 0.45]]))
        model = MarkovGibbsModel(potential=potential)
    est = mc_multienergy(ifs, model, s=0.55, unresolved="collapse", **kw)
    assert est.value == pytest.approx(value, rel=1e-12)
    assert est.stderr == pytest.approx(stderr, rel=1e-12)
    assert est.attempts == kw["samples"] // 32 * 32 * kw["inner"]


def test_mc_resample_equals_collapse_without_collisions():
    # At depth 17 no tuple collides, so resample draws nothing extra.
    ifs, model = hetero_system()
    kw = dict(s=0.55, n=1, q=1.8, samples=32, depth=17, inner=2)
    resample = mc_multienergy(ifs, model, unresolved="resample", **kw)
    collapse = mc_multienergy(ifs, model, unresolved="collapse", **kw)
    assert resample.failures == 0
    assert (resample.value, resample.stderr) == (collapse.value, collapse.stderr)


def test_mc_deterministic_for_seed():
    ifs, model = hetero_system()
    kw = dict(s=0.55, n=1, q=1.8, samples=128, depth=4, inner=32)
    a = mc_multienergy(ifs, model, seed=9, **kw)
    b = mc_multienergy(ifs, model, seed=9, **kw)
    c = mc_multienergy(ifs, model, seed=10, **kw)
    assert a.value == b.value and a.stderr == b.stderr
    assert a.value != c.value


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_mc_seed_outside_64_bits_rejected(monkeypatch, seed):
    # The key derivation masks the seed to 64 bits: seed -1 drew the
    # estimate of seed 2^64 - 1, bit for bit.
    def no_work(*args, **kwargs):
        raise AssertionError("a table was built")

    monkeypatch.setattr(multienergy, "_log_tables", no_work)
    ifs, model = hetero_system()
    with pytest.raises(InvalidInputError, match="seed must fit in 64 bits"):
        mc_multienergy(ifs, model, s=0.55, n=1, q=1.8, samples=128, depth=4,
                       seed=seed)


def test_mc_resample_mode_fails_at_tiny_depth():
    # At depth 1 most pairs share their one-symbol prefix and cannot resolve.
    ifs, model = hetero_system()
    with pytest.raises(DepthInsufficientError):
        mc_multienergy(
            ifs, model, s=0.55, n=2, q=2.5, samples=320, depth=1,
            seed=1, inner=32, unresolved="resample",
        )


def test_mc_resample_failures_past_one_percent_raise():
    # Every batch keeps some resolved tuple, but 158 of the 2048 stay
    # unresolved after the redraws, over the 1% the run allows.
    ifs, model = sheared_system()
    with pytest.raises(DepthInsufficientError,
                       match="158 of 2048 tuples unresolved at depth 1"):
        mc_multienergy(ifs, model, s=0.55, n=1, q=1.8, samples=32, depth=1,
                       seed=1, inner=64, unresolved="resample")


def test_mc_validates_q_range():
    ifs, model = hetero_system()
    with pytest.raises(InvalidInputError):
        mc_multienergy(ifs, model, s=0.55, n=1, q=3.5, samples=64, depth=4)
    with pytest.raises(InvalidInputError):
        mc_multienergy(ifs, model, s=0.55, n=2, q=1.0, samples=64, depth=4)


def test_integer_s_rejected_everywhere():
    ifs, model = hetero_system()
    fld = DisplacementField(seed=1, region_radius=1.0)
    with pytest.raises(InvalidInputError):
        mc_multienergy(ifs, model, s=1.0, n=1, q=1.5, samples=64, depth=4)
    with pytest.raises(InvalidInputError):
        simulate_transversality(ifs, fld, (1, 1, 1), (1, 1, 2), s=1.0, trials=10)


# --- product bound over join classes ---

def test_single_vertex_class_bound_manual():
    ifs, model = hetero_system()
    s, q = 0.55, 3.0
    jc = canonical_join_class(join_set(((1, 1, 1), (1, 1, 2)), root=(1, 1)))
    lhs, rhs, holds = check_prop71_bound(ifs, model, s, q, jc, depth=4)
    v = (1, 1)
    mass = cylinder_mass(model, v)
    phi_v = phi_s(compose(ifs, v), s)
    want_rhs = mass ** ((q - 2) / (q - 1)) * (phi_v ** (1 - q) * mass**q) ** (
        1 / (q - 1)
    )
    assert rhs == pytest.approx(want_rhs, rel=1e-12)
    assert lhs <= phi_v**-1 * mass**2
    assert holds


def test_all_spread2_classes_hold_depth3():
    ifs, model = hetero_system()
    rows = prop71_survey(ifs, model, s=0.55, q=2.5, depth=3, max_spread=2)
    assert rows
    assert all(r.holds for r in rows)


def test_q_equals_n_boundary_spread2():
    ifs, model = hetero_system()
    rows = prop71_survey(ifs, model, s=0.55, q=2.0, depth=3, max_spread=2)
    assert rows
    assert all(r.holds for r in rows)


def test_nested_classes_can_exceed_bound_at_small_q():
    """The product bound is not sharp for three nested join vertices at
    moderate q; the check must report those honestly rather than clip."""
    ifs, model = hetero_system()
    rows = prop71_survey(ifs, model, s=0.55, q=4.0, depth=4, max_spread=4)
    nested = [
        r for r in rows
        if r.join_class.spread == 4 and len(set(r.join_class.levels)) == 3
        and _is_chain(r.join_class)
    ]
    assert nested
    assert any(not r.holds for r in nested)
    # every flat (non-nested) class still satisfies the bound here
    assert all(r.holds for r in rows if not _is_chain(r.join_class))


def _is_chain(jc):
    verts = sorted((w for w, _ in jc.canonical_form.vertices), key=len)
    return all(
        verts[i] == verts[i + 1][: len(verts[i])] for i in range(len(verts) - 1)
    ) and len(verts) == len(set(map(len, verts)))


def test_survey_all_hold_at_high_q():
    ifs, model = hetero_system()
    rows = prop71_survey(ifs, model, s=0.40, q=16.0, depth=4, max_spread=4)
    assert len(rows) == 24
    assert all(r.holds for r in rows)


# sha256 over every row of five surveys of the acceptance-6 system: its
# three (s, q) settings at depth 4, the benchmark's multienergy settings and
# one survey rooted at (1, 2) at depth 6, as recorded before each class was
# realized once; any changed bit of any row fails.
PINNED_SURVEY = ("5cd705bca31f31231ca386548ab591b4"
                 "087d62515ee8658dd400d492e3930b52")


def test_survey_rows_pinned_bits():
    ifs, model = sheared_system()
    digest = hashlib.sha256()
    for s, q, depth, root in [(0.40, 16.0, 4, ()), (0.55, 20.0, 4, ()),
                              (0.70, 30.0, 4, ()), (0.55, 4.0, 4, ()),
                              (0.55, 4.0, 6, (1, 2))]:
        for r in prop71_survey(ifs, model, s, q, depth, root=root):
            row = (r.join_class.encoding(), r.lhs.hex(), r.rhs.hex(), r.holds)
            digest.update(repr(row).encode())
    assert digest.hexdigest() == PINNED_SURVEY


def _class_sums_per_tuple(log_phi, log_mass, m, root, depth, n):
    """Reference: classify every tuple with join_set + canonical_join_class
    and take its kernel from the join-set vertices."""
    found = {}
    rays = [root + suf for suf in all_words(m, depth - len(root))]
    for combo in itertools.combinations(rays, n):
        jset = join_set(combo, root=root)
        log_term = sum(log_mass[depth][_word_index(w, m)] for w in combo) - sum(
            mult * log_phi[len(w)][_word_index(w, m)] for w, mult in jset.vertices)
        cls = canonical_join_class(jset)
        lhs = found[cls.encoding()][1] if cls.encoding() in found else 0.0
        found[cls.encoding()] = (cls, lhs + math.factorial(n) * math.exp(log_term))
    return found


@pytest.mark.parametrize("m, depth, n, root", [
    (2, 4, 2, ()), (2, 4, 3, ()), (2, 4, 4, ()), (2, 4, 4, (2,)),
    (2, 3, 3, (1,)), (2, 4, 3, (1, 2)),
    (3, 2, 3, ()), (3, 3, 2, ()), (3, 3, 4, ()), (3, 4, 3, (2,)),
    (3, 4, 2, (3, 1)),
])
def test_class_sums_match_per_tuple_oracle(m, depth, n, root):
    model = (MarkovGibbsModel(potential=np.log([[0.50, 0.20], [0.35, 0.45]]))
             if m == 2 else BernoulliModel(probs=(0.5, 0.3, 0.2)))
    log_phi, log_mass = _log_tables(_KERNEL_SYSTEMS[m], model, 0.55, depth)
    got = _class_sums(log_phi, log_mass, m, root, depth, n)
    want = _class_sums_per_tuple(log_phi, log_mass, m, root, depth, n)
    assert got.keys() == want.keys()
    for key, (cls, lhs) in want.items():
        assert got[key][0] == cls
        assert got[key][1] == pytest.approx(lhs, rel=1e-12)


@pytest.mark.parametrize("call, root", [
    ("survey", (0,)), ("survey", (3,)), ("survey", (1, 1, 1, 1)),
    ("bound", (0, 1)), ("bound", (1, 3)),
])
def test_bad_root_rejected_before_work(monkeypatch, call, root):
    ifs, model = hetero_system()

    def no_tables(*args):
        raise AssertionError("level tables built before the root was checked")

    monkeypatch.setattr(multienergy, "_log_tables", no_tables)
    with pytest.raises(InvalidInputError, match="root"):
        if call == "survey":
            prop71_survey(ifs, model, s=0.55, q=4.0, depth=4, root=root)
        else:
            jc = canonical_join_class(
                join_set((root + (1, 1), root + (2, 1)), root=root))
            check_prop71_bound(ifs, model, 0.55, 4.0, jc, depth=4)


def test_ternary_spread4_depth5_survey_matches_bound():
    # 3^5 = 243 depth-5 ternary rays hold 141,722,460 spread-4 tuples; the
    # tree recursion sums each class shape without listing them.
    ifs = _KERNEL_SYSTEMS[3]
    model = BernoulliModel(probs=(0.5, 0.3, 0.2))
    rows = prop71_survey(ifs, model, s=0.55, q=4.0, depth=5, max_spread=4)
    jc = canonical_join_class(join_set(
        ((1, 1, 1), (1, 2, 1), (2, 1, 1), (3, 1, 1))))
    (row,) = [r for r in rows if r.join_class == jc]
    assert row.lhs > 0.0
    assert check_prop71_bound(ifs, model, 0.55, 4.0, jc, depth=5) == (
        row.lhs, row.rhs, row.holds)


@pytest.mark.parametrize("vertices", [
    (((), 1), ((1,), 1), ((2,), 1), ((3,), 1)),  # three kids, two slots
    (((), 3),),  # four children of one vertex in a ternary tree
])
def test_unrealizable_class_has_zero_lhs(vertices):
    ifs = _KERNEL_SYSTEMS[3]
    model = BernoulliModel(probs=(0.5, 0.3, 0.2))
    jc = canonical_join_class(JoinSet(root=(), vertices=vertices))
    lhs, rhs, holds = check_prop71_bound(ifs, model, 0.55, 5.0, jc, depth=3)
    assert lhs == 0.0 and rhs > 0.0 and holds


def test_tuple_budget_admits_spread4_depth5_check():
    ifs, model = hetero_system()
    jc = canonical_join_class(join_set(
        ((1, 1, 1), (1, 2, 1), (2, 1, 1), (2, 2, 1))))
    lhs, rhs, _ = check_prop71_bound(ifs, model, 0.55, 4.0, jc, depth=5)
    assert 0.0 < lhs and 0.0 < rhs


@pytest.mark.parametrize("m, depth, root", [
    (2, 10, ()), (2, 10, (2, 1)), (3, 5, ()), (3, 5, (3,)),
])
@pytest.mark.parametrize("markov", [False, True])
def test_class_sums_add_up_to_elementary_symmetric_masses(m, depth, root,
                                                           markov):
    # With phi^s = 1 every kernel is 1, so the class sums of one spread
    # together cover each n-set of distinct rays below root once per order:
    # n! e_n(masses), with e_n built ray by ray.
    if markov:
        model = MarkovGibbsModel(
            potential=np.log(np.arange(1.0, m * m + 1).reshape(m, m)))
    else:
        model = BernoulliModel(probs=(0.6, 0.4) if m == 2 else (0.5, 0.3, 0.2))
    _, log_mass = _log_tables(_KERNEL_SYSTEMS[m], model, 0.55, depth)
    log_phi = [np.zeros_like(lv) for lv in log_mass]
    span = m ** (depth - len(root))
    index = _word_index(root, m)
    masses = np.exp(log_mass[depth][index * span:(index + 1) * span])
    e = [1.0, 0.0, 0.0, 0.0, 0.0]
    for x in masses.tolist():
        for k in range(4, 0, -1):
            e[k] += x * e[k - 1]
    for n in (2, 3, 4):
        found = _class_sums(log_phi, log_mass, m, root, depth, n)
        total = math.fsum(lhs for _, lhs in found.values())
        assert total == pytest.approx(math.factorial(n) * e[n], rel=1e-12)


def test_class_deeper_than_the_depth_rejected():
    # The rays (1,1,1) and (1,1,2) join at level 2, which depth 2 cannot
    # resolve.
    ifs, model = sheared_system()
    jc = canonical_join_class(join_set(((1, 1, 1), (1, 1, 2), (2, 1, 1))))
    with pytest.raises(InvalidInputError, match="cannot resolve a class"):
        check_prop71_bound(ifs, model, 0.55, 3.0, jc, depth=2)


def test_spread_above_q_rejected():
    ifs, model = hetero_system()
    jc = canonical_join_class(
        join_set(((1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2)))
    )
    with pytest.raises(InvalidInputError):
        check_prop71_bound(ifs, model, 0.55, 3.0, jc, depth=4)


# --- decay criterion ---

def test_decay_closed_form_identical_maps():
    ifs = diag_ifs([0.5, 0.3], [0.5, 0.3])
    model = BernoulliModel(probs=(0.7, 0.3))
    s, q = 0.6, 2.0
    chk = check_decay_criterion(ifs, model, s, q, k_max=8)
    lam = phi_s(np.diag([0.5, 0.3]), s) ** (1 - q) * (0.7**q + 0.3**q)
    assert chk.lambda_fit == pytest.approx(lam, rel=1e-9)
    assert chk.geometric == (lam < 1)


def test_decay_flag_straddles_dimension():
    ifs, model = hetero_system()
    d2 = d_q_minus(ifs, model, 2.0).value
    below = check_decay_criterion(ifs, model, d2 - 0.15, 2.0, k_max=9)
    at = check_decay_criterion(ifs, model, d2, 2.0, k_max=9)
    above = check_decay_criterion(ifs, model, d2 + 0.15, 2.0, k_max=9)
    assert below.geometric and below.lambda_fit < 1
    assert not at.geometric
    assert not above.geometric and above.lambda_fit > 1


# --- transversality simulation ---

def test_transversality_ratio_bounded_across_depths():
    ifs, _ = hetero_system()
    fld = DisplacementField(seed=12, region_radius=1.0)
    ratios = []
    for meet in range(0, 7):
        u = (1,) * meet + (1, 2, 2, 2)
        v = (1,) * meet + (2, 1, 1, 1)
        emp, bound = simulate_transversality(ifs, fld, u, v, s=0.55, trials=3000)
        ratios.append(emp / bound)
    assert max(ratios) / min(ratios) < 50


def test_transversality_bound_arithmetic():
    ifs = diag_ifs([0.5, 0.3], [0.5, 0.3])
    fld = DisplacementField(seed=4, region_radius=1.0)
    s = 0.7
    _, b0 = simulate_transversality(ifs, fld, (1, 2), (2, 1), s, trials=10)
    _, b1 = simulate_transversality(ifs, fld, (1, 1, 2), (1, 2, 1), s, trials=10)
    assert b1 / b0 == pytest.approx(0.5**-s, rel=1e-12)


def test_transversality_small_s_limit():
    ifs, _ = hetero_system()
    fld = DisplacementField(seed=8, region_radius=1.0)
    emp, bound = simulate_transversality(ifs, fld, (1, 1), (2, 2), s=1e-6, trials=500)
    assert emp == pytest.approx(1.0, abs=1e-3)
    assert bound == pytest.approx(1.0, abs=1e-3)


def test_transversality_input_checks():
    ifs, _ = hetero_system()
    fld = DisplacementField(seed=2, region_radius=1.0)
    with pytest.raises(InvalidInputError):
        simulate_transversality(ifs, fld, (1, 2), (1, 2), s=0.5, trials=10)
    with pytest.raises(InvalidInputError):
        simulate_transversality(ifs, fld, (1,), (1, 2), s=0.5, trials=10)
    # Ray symbols are checked by measures._word, as every word is.
    for ray in ((1, 3), (0, 2)):
        with pytest.raises(InvalidInputError, match="outside 1..2"):
            simulate_transversality(ifs, fld, ray, (1, 2), s=0.5, trials=10)

