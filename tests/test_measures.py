"""Bernoulli and Markov-Gibbs cylinder measures."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affdims import (
    BernoulliModel,
    DisplacementField,
    MarkovGibbsModel,
    birkhoff_sum,
    canonical_join_class,
    check_decay_criterion,
    check_prop71_bound,
    cylinder_mass,
    d_q_minus,
    d_q_plus_cutset,
    exact_truncated_multienergy,
    growth_rate,
    join_set,
    mc_multienergy,
    moment_sum,
    moment_table,
    phase_transition_scan,
    pressure,
    prop71_survey,
    quasi_bernoulli_constant,
    sample_cloud,
    sample_word,
    sample_words,
    simulate_transversality,
)
from affdims import measures, multienergy, sampler
from affdims.errors import InvalidInputError
from affdims.measures import draw_words, log_prob_tables

from checks import diag_ifs


def test_bernoulli_cylinder_mass_is_product():
    model = BernoulliModel(probs=(0.7, 0.3))
    assert cylinder_mass(model, ()) == pytest.approx(1.0)
    assert cylinder_mass(model, (1,)) == pytest.approx(0.7)
    assert cylinder_mass(model, (1, 2, 2)) == pytest.approx(0.7 * 0.3 * 0.3)


def test_bernoulli_mass_additive_over_children():
    model = BernoulliModel(probs=(0.6, 0.25, 0.15))
    for word in [(), (2,), (1, 3)]:
        children = sum(cylinder_mass(model, word + (i,)) for i in (1, 2, 3))
        assert children == pytest.approx(cylinder_mass(model, word))


def test_bernoulli_validation():
    with pytest.raises(InvalidInputError):
        BernoulliModel(probs=(0.7, 0.4))
    with pytest.raises(InvalidInputError):
        BernoulliModel(probs=(1.0, 0.0))
    with pytest.raises(InvalidInputError):
        BernoulliModel(probs=(1.0,))


def markov_example():
    # Symbol-pair potential, deliberately not symmetric.
    potential = np.log(np.array([[0.50, 0.20], [0.35, 0.45]]))
    return MarkovGibbsModel(potential=potential)


def test_markov_masses_sum_to_one_each_depth():
    model = markov_example()
    for depth in (1, 2, 3, 5):
        words = [
            tuple(int(c) + 1 for c in np.base_repr(i, 2).zfill(depth))
            for i in range(2**depth)
        ]
        total = sum(cylinder_mass(model, w) for w in words)
        assert total == pytest.approx(1.0, abs=1e-12)


def test_markov_mass_additive_over_children():
    model = markov_example()
    for word in [(1,), (2, 1), (1, 1, 2)]:
        children = sum(cylinder_mass(model, word + (i,)) for i in (1, 2))
        assert children == pytest.approx(cylinder_mass(model, word), abs=1e-14)


def test_pressure_is_perron_log_root():
    model = markov_example()
    M = np.array([[0.50, 0.20], [0.35, 0.45]])
    want = np.log(max(np.linalg.eigvals(M).real))
    assert pressure(model) == pytest.approx(want, abs=1e-12)


def test_bernoulli_as_markov_agrees():
    """A rank-one potential row gives back an i.i.d. product measure."""
    p = np.array([0.7, 0.3])
    model = MarkovGibbsModel(potential=np.log(np.tile(p, (2, 1))))
    bern = BernoulliModel(probs=tuple(p))
    for word in [(1,), (2, 2), (1, 2, 1), (2, 1, 1, 2)]:
        assert cylinder_mass(model, word) == pytest.approx(
            cylinder_mass(bern, word), rel=1e-12
        )
    assert pressure(model) == pytest.approx(0.0, abs=1e-12)


def test_gibbs_sandwich_depth_six():
    """exp(S_k f - k P) brackets the cylinder mass up to the Gibbs constant."""
    model = markov_example()
    P = pressure(model)
    ratios = []
    for depth in range(1, 7):
        for i in range(2**depth):
            word = tuple(int(c) + 1 for c in np.base_repr(i, 2).zfill(depth))
            mass = cylinder_mass(model, word)
            gibbs = np.exp(birkhoff_sum(model, word) - depth * P)
            ratios.append(mass / gibbs)
    ratios = np.array(ratios)
    assert ratios.min() > 0.05
    assert ratios.max() < 20.0
    # a is attained: in floating point the least ratio sits 6e-15 relative
    # below it, hence the slack.
    a = model.gibbs_constant
    assert a * (1 - 1e-12) <= ratios.min()
    assert ratios.max() <= (1 + 1e-12) / a


@pytest.mark.parametrize("word", [(0, 1), (3, 1), (1, 2, 0)],
                         ids=["zero", "past-m", "zero-last"])
def test_birkhoff_sum_checks_symbols(word):
    # Symbol 0 would wrap to the last row, and m + 1 index past it; the
    # check is cylinder_mass's.
    for model in (markov_example(), BernoulliModel(probs=(0.6, 0.4))):
        with pytest.raises(InvalidInputError, match="outside 1..2"):
            birkhoff_sum(model, word)


def test_bernoulli_birkhoff_sum_is_chain_of_pressure():
    # f(a, b) = log p_b with h = 1: S_k f(w) sums log p over w_2..w_k, so
    # the Gibbs ratio at pressure 0 is p of the first symbol.
    model = BernoulliModel(probs=(0.6, 0.4))
    assert birkhoff_sum(model, (1, 2, 2, 1)) == pytest.approx(
        np.log(0.4 * 0.4 * 0.6), rel=1e-14)
    assert birkhoff_sum(model, (2,)) == 0.0
    for word in [(1,), (2, 1), (1, 2, 2, 1), (2, 2, 1, 1, 2)]:
        gibbs = np.exp(birkhoff_sum(model, word) - len(word) * pressure(model))
        assert cylinder_mass(model, word) / gibbs == pytest.approx(
            model.probs[word[0] - 1], rel=1e-14)


def test_quasi_bernoulli_constant_bounds_products():
    model = markov_example()
    a = quasi_bernoulli_constant(model)
    assert 0 < a <= 1
    words = [(1,), (2,), (1, 2), (2, 1, 1), (1, 1), (2, 2, 1)]
    for u in words:
        for v in words:
            ratio = cylinder_mass(model, u + v) / (
                cylinder_mass(model, u) * cylinder_mass(model, v)
            )
            assert a**3 <= ratio * (1 + 1e-12)
            assert ratio <= a**-3 * (1 + 1e-12)


def test_markov_model_accepts_perron_gap_held_by_roundoff():
    # Eigenvalues near +-7.4: the Collatz-Wielandt gap of the transposed
    # transfer matrix stalls at 1.2e-14 relative, just above the 1e-14 aim.
    model = MarkovGibbsModel(potential=[[-1.90625, 1.0], [3.0, -2.625]])
    pi, trans = model.initial_probs(), model.transition_probs()
    np.testing.assert_allclose(pi @ trans, pi, rtol=1e-12)


def test_markov_model_with_second_eigenvalue_near_minus_root():
    # Eigenvalues 60.953 and -60.940: plain power iteration runs its whole
    # 100,000-step budget with its gap near 1e-9, then the certified
    # eigen-solve takes over.
    f = np.array([[-4.59, 2.81], [5.41, -5.84]])
    model = MarkovGibbsModel(potential=f)
    want = max(np.linalg.eigvals(np.exp(f)).real)
    assert model._lambda == pytest.approx(want, rel=1e-12)
    pi, trans = model.initial_probs(), model.transition_probs()
    np.testing.assert_allclose(pi @ trans, pi, rtol=1e-12)


@pytest.mark.parametrize("potential", [[[0, -10], [-12, 0]],
                                       [[0, -9], [-11, 0]]])
def test_markov_model_with_near_degenerate_spectrum(potential):
    # |lambda_2| / lambda_1 is 0.99997 and 0.99991: power iteration does
    # not converge in its iteration budget, so the eigen-solve decides.
    model = MarkovGibbsModel(potential=potential)
    want = max(np.linalg.eigvals(np.exp(potential)).real)
    assert model._lambda == pytest.approx(want, rel=1e-15)
    pi, trans = model.initial_probs(), model.transition_probs()
    np.testing.assert_allclose(pi @ trans, pi, rtol=0, atol=1e-15)


@pytest.mark.parametrize("potential, lam, pi, trans", [
    ([[0.3, -1.2, 0.5], [1.1, 0.0, -0.4], [-0.7, 0.9, 0.2]],
     "0x1.fd036e52f2237p+1",
     ["0x1.516d72c332c15p-2", "0x1.4a877e60582dfp-2", "0x1.640b0edc7510ap-2"],
     [["0x1.5b97679b38301p-2", "0x1.97a2a58f6f73dp-4", "0x1.1f3ff78075f98p-1"],
      ["0x1.265e20e01e989p-1", "0x1.0180870d753b2p-2", "0x1.63866e649b275p-3"],
      ["0x1.79fbbd2cd1dd8p-4", "0x1.337ec68a25424p-1", "0x1.3a8383a081045p-2"]]),
    ([[-1.90625, 1.0], [3.0, -2.625]],
     "0x1.dffaf68231fc2p+2",
     ["0x1.0151e7577ff22p-1", "0x1.fd5c3151001bdp-2"],
     [["0x1.44b7178cb16acp-6", "0x1.f5da47439a74ap-1"],
      ["0x1.fb0df8ba4089fp-1", "0x1.3c81d16fdd846p-7"]]),
])
def test_markov_model_pinned_bits(potential, lam, pi, trans):
    # Potentials the unshifted power iteration certifies keep their bits.
    model = MarkovGibbsModel(potential=potential)
    assert model._lambda == float.fromhex(lam)
    hexes = np.vectorize(float.fromhex)
    np.testing.assert_array_equal(model.initial_probs(), hexes(pi))
    np.testing.assert_array_equal(model.transition_probs(), hexes(trans))


@pytest.mark.parametrize("potential", [[[710.0, 0.0], [0.0, 0.0]],
                                       [[-750.0, 0.0], [0.0, 0.0]],
                                       [[709.0] * 3] * 3],
                         ids=["overflow", "underflow", "row-sum-overflow"])
def test_markov_potential_past_float_range_rejected(monkeypatch, potential):
    # exp(710) is inf, which gave NaN initial and transition probabilities;
    # exp(-750) is 0.0, which gave a zero transition probability.  Every row
    # sum of exp(709) is inf, and so is lambda.  Each is rejected before
    # the Perron iteration, which ran to its cap on the last (0.65 s).
    def no_perron(mat):
        raise AssertionError("Perron iteration ran")

    monkeypatch.setattr(measures, "_perron", no_perron)
    with pytest.raises(InvalidInputError, match="leaves the float range"):
        MarkovGibbsModel(potential=potential)


def test_quasi_bernoulli_constant_is_one_for_bernoulli():
    model = BernoulliModel(probs=(0.6, 0.4))
    assert quasi_bernoulli_constant(model) == pytest.approx(1.0)


def test_sample_words_frequencies():
    model = BernoulliModel(probs=(0.8, 0.2))
    rng = np.random.default_rng(99)
    words = sample_words(model, 20_000, 3, rng)
    assert words.shape == (20_000, 3)
    freq = np.mean(words == 1, axis=0)
    sigma = np.sqrt(0.8 * 0.2 / 20_000)
    assert np.all(np.abs(freq - 0.8) < 4 * sigma)


@pytest.mark.parametrize("model", [BernoulliModel(probs=(0.5, 0.3, 0.2)),
                                   markov_example()],
                         ids=["bernoulli", "markov"])
def test_sample_word_is_first_row_of_sample_words(model):
    for seed in range(5):
        word = sample_word(model, 7, np.random.default_rng(seed))
        assert type(word) is tuple and len(word) == 7
        assert all(type(s) is int and 1 <= s <= model.m for s in word)
        rows = sample_words(model, 1, 7, np.random.default_rng(seed))
        assert word == tuple(rows[0].tolist())


def test_markov_sample_words_match_transition():
    model = markov_example()
    rng = np.random.default_rng(5)
    words = sample_words(model, 40_000, 2, rng)
    # empirical P(second = 1 | first = 1) vs the normalized transition row
    first_one = words[words[:, 0] == 1]
    emp = np.mean(first_one[:, 1] == 1)
    want = cylinder_mass(model, (1, 1)) / cylinder_mass(model, (1,))
    sigma = np.sqrt(want * (1 - want) / len(first_one))
    assert abs(emp - want) < 4 * sigma


def _gather_compare_words(model, uniforms):
    """Inverse CDF by gathering each word's CDF row and comparing u to it."""
    log_init, log_trans = log_prob_tables(model)
    init_cdf = np.cumsum(np.exp(log_init))
    trans_cdf = np.cumsum(np.exp(log_trans), axis=1)
    init_cdf[-1] = trans_cdf[:, -1] = 1.0
    words = np.empty(uniforms.shape, dtype=np.uint8)
    words[:, 0] = np.searchsorted(init_cdf, uniforms[:, 0], side="right")
    for j in range(1, uniforms.shape[1]):
        rows = trans_cdf[words[:, j - 1]]
        words[:, j] = (uniforms[:, j, np.newaxis] >= rows).sum(axis=1)
    return words + 1


@st.composite
def _model_uniforms(draw):
    # Bernoulli columns are scalar thresholds, Markov columns are gathered.
    m = draw(st.integers(2, 4))
    if draw(st.booleans()):
        p = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=m,
                                   max_size=m)))
        model = BernoulliModel(probs=tuple(p / p.sum()))
    else:
        potential = np.array(draw(st.lists(
            st.floats(-3.0, 3.0), min_size=m * m,
            max_size=m * m))).reshape(m, m)
        model = MarkovGibbsModel(potential=potential)
    count, depth = draw(st.integers(1, 12)), draw(st.integers(1, 6))
    log_init, log_trans = log_prob_tables(model)
    # CDF entries below 1, where the comparison is decided by equality.
    edges = np.concatenate([np.cumsum(np.exp(log_init)),
                            np.cumsum(np.exp(log_trans), axis=1).ravel()])
    edges = sorted(set(float(e) for e in edges if e < 1.0)) or [0.0]
    values = st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                       st.sampled_from(edges))
    u = np.array(draw(st.lists(values, min_size=count * depth,
                               max_size=count * depth)))
    return model, u.reshape(count, depth)


@settings(max_examples=200, deadline=None)
@given(_model_uniforms())
def test_draw_words_matches_gather_compare_oracle(case):
    model, u = case
    count, depth = u.shape
    got = draw_words(model, count, depth, lambda j: u[:, j].copy())
    np.testing.assert_array_equal(got, _gather_compare_words(model, u))


_PAIR_CALLS = {
    "moment_sum": lambda ifs, model: moment_sum(ifs, model, 0.5, 2.0, 3),
    "moment_table": lambda ifs, model: moment_table(ifs, model, 0.5, 2.0, 3),
    "growth_rate": lambda ifs, model: growth_rate(ifs, model, 0.5, 2.0, 3),
    "d_q_minus": lambda ifs, model: d_q_minus(ifs, model, 2.0),
    "d_q_plus_cutset": lambda ifs, model: d_q_plus_cutset(
        ifs, model, 2.0, 0.5, l_max=2),
    "phase_transition_scan": lambda ifs, model: phase_transition_scan(
        ifs, model, [1.5, 2.0, 2.5]),
    "mc_multienergy": lambda ifs, model: mc_multienergy(
        ifs, model, 0.55, 1, 1.5, 64, 4),
    "exact_truncated_multienergy": lambda ifs, model:
        exact_truncated_multienergy(ifs, model, 0.55, 2, 2.5, 3),
    "check_prop71_bound": lambda ifs, model: check_prop71_bound(
        ifs, model, 0.55, 4.0,
        canonical_join_class(join_set(((1, 1), (2, 1)))), 4),
    "prop71_survey": lambda ifs, model: prop71_survey(
        ifs, model, 0.55, 4.0, 3),
    "check_decay_criterion": lambda ifs, model: check_decay_criterion(
        ifs, model, 0.55, 2.0, 4),
    "sample_cloud": lambda ifs, model: sample_cloud(
        ifs, model, DisplacementField(seed=1), 10, 5),
}


@pytest.mark.parametrize("name", sorted(_PAIR_CALLS))
@pytest.mark.parametrize("maps, symbols", [(2, 3), (3, 2)])
def test_symbol_count_must_match_map_count(name, maps, symbols):
    ifs = diag_ifs(*[[0.5, 0.3], [0.4, 0.35], [0.3, 0.2]][:maps])
    if symbols == 3:
        model = BernoulliModel(probs=(0.2, 0.3, 0.5))
    else:
        model = MarkovGibbsModel(potential=[[0.0, 0.5], [0.2, 0.1]])
    with pytest.raises(InvalidInputError,
                       match=f"model has {symbols} symbols but the system "
                             f"has {maps} maps"):
        _PAIR_CALLS[name](ifs, model)


def _uniform_system(m):
    return diag_ifs(*[[0.1, 0.1]] * m), BernoulliModel(probs=(1.0 / m,) * m)


def _must_not_run(*args, **kwargs):
    raise AssertionError("words were drawn")


_WIDE_CALLS = {
    "draw_words": lambda ifs, model: draw_words(model, 20, 3, _must_not_run),
    "sample_cloud": lambda ifs, model: sample_cloud(
        ifs, model, DisplacementField(seed=1), 20_000, 3),
    "simulate_transversality": lambda ifs, model: simulate_transversality(
        ifs, DisplacementField(seed=1), (1, 2), (1, 3), 0.5, 10),
    "mc_multienergy": lambda ifs, model: mc_multienergy(
        ifs, model, 0.55, 1, 1.5, 64, 1),
}


@pytest.mark.parametrize("name", sorted(_WIDE_CALLS))
def test_more_than_255_maps_rejected_before_drawing(monkeypatch, name):
    # Words hold their symbols as uint8, so symbol 256 would wrap to 0.
    monkeypatch.setattr(sampler, "_cloud_chunk", _must_not_run)
    monkeypatch.setattr(multienergy, "_add_levels", _must_not_run)
    monkeypatch.setattr(multienergy, "_log_tables", _must_not_run)
    with pytest.raises(InvalidInputError, match="at most 255 maps"):
        _WIDE_CALLS[name](*_uniform_system(256))


def test_255_maps_draw_every_symbol():
    _, model = _uniform_system(255)
    u = np.linspace(0.0, 1.0, 255, endpoint=False) + 0.5 / 255
    words = draw_words(model, 255, 2, lambda j: u)
    np.testing.assert_array_equal(words[:, 0], np.arange(1, 256))
