"""Moment sums and the generalized dimension solver."""

import math
from fractions import Fraction

import numpy as np
import pytest

from affdims import (
    AffineIFS,
    BernoulliModel,
    MarkovGibbsModel,
    affinity_dimension,
    all_words,
    compose,
    cut_set,
    cylinder_mass,
    d_q_minus,
    d_q_plus_cutset,
    dq_identical_selfadjoint,
    growth_rate,
    moment_sum,
    moment_table,
    phase_transition_scan,
    phi_s,
)
from affdims.dimsolver import _Levels
from affdims.errors import InvalidInputError, NoRootError, ResourceLimitError

from checks import diag_ifs, random_bernoulli, random_ifs


def worked_system():
    return diag_ifs([0.5, 0.3], [0.5, 0.3]), BernoulliModel(probs=(0.7, 0.3))


def test_moment_sum_depth_one_by_hand():
    ifs, model = worked_system()
    s, q = 0.8, 2.0
    # two maps, identical: phi^s = 0.5^0.8 each, masses 0.7, 0.3
    want = (0.5**0.8) ** (1 - q) * (0.7**q + 0.3**q)
    assert moment_sum(ifs, model, s, q, 1) == pytest.approx(want, rel=1e-12)


def test_moment_sum_identical_maps_factorizes():
    ifs, model = worked_system()
    s, q = 0.8, 2.0
    one = moment_sum(ifs, model, s, q, 1)
    three = moment_sum(ifs, model, s, q, 3)
    assert three == pytest.approx(one**3, rel=1e-10)


def test_moment_table_lengths_and_consistency():
    ifs, model = worked_system()
    table = moment_table(ifs, model, 0.8, 2.0, 5)
    assert len(table.sums) == 5
    assert table.sums[0] == pytest.approx(moment_sum(ifs, model, 0.8, 2.0, 1))


@pytest.mark.parametrize("m, k", [(2, 17), (3, 11)])
def test_streamed_moment_sum_matches_in_memory_table(m, k):
    rng = np.random.default_rng(17)
    ifs = random_ifs(rng, m, 2, max_norm=0.7)
    for model in (random_bernoulli(rng, m),
                  MarkovGibbsModel(potential=rng.normal(size=(m, m)))):
        got = moment_sum(ifs, model, 0.9, 2.5, k)
        assert got == moment_table(ifs, model, 0.9, 2.5, k).sums[-1]


def test_moment_sum_past_level_table_budget_raises():
    # 2^18 words exceed the 250,000-word table; 2^17 fit.
    rng = np.random.default_rng(18)
    ifs = random_ifs(rng, 2, 2, max_norm=0.7)
    with pytest.raises(ResourceLimitError):
        moment_sum(ifs, random_bernoulli(rng, 2), 0.9, 2.5, 18)


@pytest.mark.parametrize("m, k_max", [(2, 8), (3, 5)])
@pytest.mark.parametrize("markov", [False, True])
def test_moment_sum_matches_per_word_sum(m, k_max, markov):
    # Mild anisotropy: the closed-form alpha_2 of a product, |det| / alpha_1
    # from its entries, loses digits as alpha_2 / alpha_1 shrinks.
    rng = np.random.default_rng(10 * m + markov)
    ifs = AffineIFS(maps=tuple(
        np.diag(rng.uniform(0.3, 0.5, 2)) + np.fliplr(np.diag(
            rng.uniform(-0.15, 0.15, 2)))
        for _ in range(m)))
    model = (MarkovGibbsModel(potential=rng.normal(size=(m, m))) if markov
             else random_bernoulli(rng, m))
    for s, q in [(0.7, 2.5), (1.6, 1.5), (2.3, 4.0)]:
        for k in range(1, k_max + 1):
            want = sum(phi_s(compose(ifs, w), s) ** (1.0 - q)
                       * cylinder_mass(model, w) ** q
                       for w in all_words(m, k))
            got = moment_sum(ifs, model, s, q, k)
            assert got == pytest.approx(want, rel=1e-12)


def _exact_log_alphas(ifs, word):
    """log alpha_1, log alpha_2 of a word's product, the product exact."""
    prod = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    for sym in word:
        t = [[Fraction(x) for x in row] for row in ifs.matrix(sym)]
        prod = [[sum(prod[i][j] * t[j][c] for j in range(2)) for c in range(2)]
                for i in range(2)]
    (a, b), (c, d) = prod
    p, r, u = a * a + b * b, a * c + b * d, c * c + d * d
    # alpha_1^2 = (p + u) / 2 + sqrt(((p - u) / 2)^2 + r^2), no cancellation.
    log_a1 = 0.5 * math.log(
        float((p + u) / 2) + math.sqrt(float(((p - u) / 2) ** 2 + r * r)))
    return log_a1, math.log(abs(a * d - b * c)) - log_a1


def test_level_table_keeps_small_alpha_of_thin_products():
    # alpha_2 / alpha_1 of level-6 products falls to 1e-18 and below, where
    # the entries of the product matrix cancel.
    def rot(t):
        return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    ifs = AffineIFS(maps=tuple(
        rot(0.3 + 0.7 * i) @ np.diag([0.95, 0.001]) @ rot(-0.1 * i)
        for i in range(6)))
    model = BernoulliModel(probs=(1 / 6,) * 6)
    levels = _Levels(ifs, model)
    assert levels.k_max == 6
    for log_alphas in levels.log_alphas:
        assert np.all(np.isfinite(log_alphas))
    rng = np.random.default_rng(6)
    for i in rng.choice(6 ** 6, size=200, replace=False):
        word = tuple(int(c) + 1 for c in np.base_repr(i, 6).zfill(6))
        want = _exact_log_alphas(ifs, word)
        np.testing.assert_allclose(levels.log_alphas[-1][i], want, atol=1e-9)
    assert d_q_minus(ifs, model, 2.0).value > 1.1


def test_growth_rate_increasing_in_s():
    ifs, model = worked_system()
    rates = [growth_rate(ifs, model, s, 2.0) for s in (0.3, 0.6, 0.9, 1.2)]
    assert all(a < b for a, b in zip(rates, rates[1:]))


def test_growth_rate_crosses_one_at_dimension():
    ifs, model = worked_system()
    d = d_q_minus(ifs, model, 2.0)
    assert growth_rate(ifs, model, d.value - 0.01, 2.0) < 1.0
    assert growth_rate(ifs, model, d.value + 0.01, 2.0) > 1.0


def test_worked_example_closed_forms():
    ifs, model = worked_system()
    d2 = d_q_minus(ifs, model, 2.0)
    assert d2.value == pytest.approx(np.log(0.58) / np.log(0.5), abs=1e-3)
    d3 = d_q_minus(ifs, model, 3.0)
    want3 = np.log(0.7**3 + 0.3**3) / (2 * np.log(0.5))
    assert d3.value == pytest.approx(want3, abs=1e-3)


def test_result_bracket_fields():
    ifs, model = worked_system()
    res = d_q_minus(ifs, model, 2.0, tol=1e-5)
    lo, hi = res.bracket
    assert lo < res.value < hi
    assert hi - lo <= 1e-5 * (1 + 1e-9)
    assert res.growth_lo < 1.0 < res.growth_hi
    assert res.q == 2.0


def test_uniform_probs_give_constant_dimension():
    ifs = diag_ifs([0.5, 0.3], [0.5, 0.3])
    model = BernoulliModel(probs=(0.5, 0.5))
    for q in (1.5, 3.0):
        res = d_q_minus(ifs, model, q)
        assert res.value == pytest.approx(1.0, abs=1e-3)


def test_identical_selfadjoint_closed_form_matches_solver():
    alphas = (0.5, 0.3)
    probs = (0.7, 0.3)
    ifs = diag_ifs(alphas, alphas)
    model = BernoulliModel(probs=probs)
    for q in (1.7, 2.0, 2.8, 4.0):
        closed = dq_identical_selfadjoint(alphas, probs, q)
        solved = d_q_minus(ifs, model, q).value
        assert solved == pytest.approx(closed, abs=2e-4)


def test_q_at_most_one_rejected():
    ifs, model = worked_system()
    for q in (1.0, 0.5, -2.0):
        with pytest.raises(InvalidInputError):
            d_q_minus(ifs, model, q)


def test_no_root_when_contractions_too_weak():
    # Nearly-isometric maps push the root beyond every doubled bracket.
    ifs = diag_ifs([0.999, 0.999], [0.999, 0.999])
    model = BernoulliModel(probs=(0.5, 0.5))
    with pytest.raises(NoRootError):
        d_q_minus(ifs, model, 5.0)


def test_affinity_dimension_identical_similarities():
    # m equal similarity maps of ratio c: phi^s(T^k) m^k = 1 at s = log m / -log c
    ifs = diag_ifs([0.4, 0.4], [0.4, 0.4])
    want = np.log(2) / -np.log(0.4)
    assert affinity_dimension(ifs).value == pytest.approx(want, abs=1e-3)


def test_affinity_dimension_diagonal_two_regimes():
    # Distinct axis rates make phi^s piecewise; root sits above 1 here.
    ifs = diag_ifs([0.7, 0.2], [0.7, 0.2])
    # solve 2 * 0.7 * 0.2^(s-1) = 1 for 1 < s <= 2
    want = 1 + np.log(1 / 1.4) / np.log(0.2)
    assert affinity_dimension(ifs).value == pytest.approx(want, abs=1e-3)


def test_affinity_at_least_any_dq():
    ifs = diag_ifs([0.5, 0.3], [0.4, 0.35])
    model = BernoulliModel(probs=(0.6, 0.4))
    aff = affinity_dimension(ifs).value
    for q in (2.0, 3.0):
        assert d_q_minus(ifs, model, q).value <= aff + 1e-3


def test_dq_nonincreasing_in_q():
    ifs = diag_ifs([0.5, 0.3], [0.4, 0.35])
    model = BernoulliModel(probs=(0.6, 0.4))
    values = [d_q_minus(ifs, model, q).value for q in (1.5, 2.0, 3.0, 5.0)]
    for a, b in zip(values, values[1:]):
        assert b <= a + 2e-4


def test_markov_model_dimension_between_bernoulli_neighbors():
    """A weakly coupled Markov chain should land near its i.i.d. marginal."""
    ifs = diag_ifs([0.5, 0.3], [0.5, 0.3])
    eps = 0.02
    potential = np.log(np.array([[0.7 + eps, 0.3 - eps], [0.7 - eps, 0.3 + eps]]))
    markov = MarkovGibbsModel(potential=potential)
    bern = BernoulliModel(probs=(0.7, 0.3))
    d_markov = d_q_minus(ifs, markov, 2.0).value
    d_bern = d_q_minus(ifs, bern, 2.0).value
    assert abs(d_markov - d_bern) < 0.05


def test_phase_scan_flags_crossing():
    """d_q for diag(0.7, 0.2), p = (0.8, 0.2) crosses 1 inside the grid."""
    from scipy.optimize import brentq

    ifs = diag_ifs([0.7, 0.2], [0.7, 0.2])
    model = BernoulliModel(probs=(0.8, 0.2))

    def crossing(q):
        return (0.8**q + 0.2**q) ** (1 / (q - 1)) - 0.7

    q_star = brentq(crossing, 1.5, 4.0)
    grid = np.arange(1.5, 4.0 + 1e-9, 0.05)
    scan = phase_transition_scan(ifs, model, grid, tol=5e-5)
    assert scan.kink_qs, "no kink flagged"
    assert min(abs(k - q_star) for k in scan.kink_qs) <= 0.05 + 1e-9


def test_phase_scan_quiet_for_smooth_system():
    ifs = diag_ifs([0.5, 0.3], [0.5, 0.3])
    model = BernoulliModel(probs=(0.7, 0.3))
    grid = np.arange(1.5, 3.0 + 1e-9, 0.1)
    scan = phase_transition_scan(ifs, model, grid, tol=5e-5)
    assert scan.kink_qs == ()


def test_phase_scan_rejects_grid_points_not_above_one(monkeypatch):
    # Every grid point is checked before the level table is built.
    def no_table(*args, **kwargs):
        raise AssertionError("a level table was built")

    monkeypatch.setattr(_Levels, "__init__", no_table)
    ifs, model = worked_system()
    with pytest.raises(InvalidInputError, match="q > 1"):
        phase_transition_scan(ifs, model, [0.5, 1.0, 1.5])


def test_cutset_sums_diagnostic_shape():
    ifs, model = worked_system()
    d2 = d_q_minus(ifs, model, 2.0).value
    rows = d_q_plus_cutset(ifs, model, 2.0, d2, l_max=5)
    assert len(rows) == 5
    assert all(row.size > 0 for row in rows)
    assert all(row.value > 0 for row in rows)


@pytest.mark.parametrize("sheared", [False, True])
def test_cutset_sums_equal_per_word_loop(sheared):
    # The sums reuse the cut-set descent's products; they must equal a
    # per-word compose loop bit for bit, also for non-commuting maps.
    ifs, model = worked_system()
    if sheared:
        ifs = AffineIFS(maps=(np.diag([0.5, 0.3]),
                              np.array([[0.4, 0.1], [0.0, 0.35]])))
        model = MarkovGibbsModel(
            potential=np.log(np.array([[0.50, 0.20], [0.35, 0.45]])))
    s, q = 1.3, 2.5
    for row in d_q_plus_cutset(ifs, model, q, s, l_max=6):
        words = cut_set(ifs, s, row.r)
        total = 0.0
        for w in words:
            total += phi_s(compose(ifs, w), s) ** (1.0 - q) \
                * cylinder_mass(model, w) ** q
        assert (row.value, row.size) == (total, len(words))
