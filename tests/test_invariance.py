"""Exact invariances of the level sums and of the solved root.

Three changes of a system leave the terms of every level sum
Phi_k(s, q) = sum over words w of phi^s(T_w)^(1-q) mu(C_w)^q the same, only
in another order:

- transposing every map: T_w^t is the product of the reversed word in the
  transposed system, with the singular values of T_w, and a Bernoulli
  measure gives a word and its reversal the same mass.  So does a
  stationary Markov chain on 2 symbols, since every such chain is
  reversible;
- conjugating every map by one orthogonal Q, which keeps every singular
  value of every product;
- permuting the symbols together with their weights.

So `log_sums` agrees to rounding, and the roots that `solve_many` bisects
for agree to within the tolerance.  The logs are compared at rtol 1e-12
with an atol of 1e-12 as well, a relative 1e-12 in Phi_k, so that a level
sum near 1, whose log is near 0, is held to the same standard.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from affdims import AffineIFS, BernoulliModel, MarkovGibbsModel
from affdims.dimsolver import _Levels

from checks import random_contraction, random_probs

K_MAX = 4
TOL = 1e-6

systems = st.fixed_dictionaries({
    "seed": st.integers(0, 2 ** 32 - 1),
    "dim": st.integers(1, 3),
    "m": st.integers(2, 3),
    "s": st.floats(0.1, 3.5),
    "q": st.one_of(st.just(0.0), st.floats(1.5, 4.0)),
})


def _draw(case, markov):
    """A contracting system and a model from the case's seed: Bernoulli
    weights, or a Markov potential when markov."""
    rng = np.random.default_rng(case["seed"])
    m, dim = case["m"], case["dim"]
    maps = [random_contraction(rng, dim) for _ in range(m)]
    if markov:
        return maps, rng.normal(size=(m, m))
    return maps, np.array(random_probs(rng, m))


def _model(weights):
    if weights.ndim == 2:
        return MarkovGibbsModel(potential=weights)
    return BernoulliModel(probs=tuple(weights))


def _check_same(case, maps, weights, maps2, weights2):
    s, q = case["s"], case["q"]
    one = _Levels(AffineIFS(maps=tuple(maps)), _model(weights), K_MAX)
    two = _Levels(AffineIFS(maps=tuple(maps2)), _model(weights2), K_MAX)
    np.testing.assert_allclose(two.log_sums(s, [q]), one.log_sums(s, [q]),
                               rtol=1e-12, atol=1e-12)
    got = two.solve_many([q], TOL)[0].value
    assert abs(got - one.solve_many([q], TOL)[0].value) <= TOL


@settings(max_examples=40, deadline=None)
@given(systems)
def test_transposing_every_map_under_bernoulli_weights(case):
    maps, probs = _draw(case, markov=False)
    _check_same(case, maps, probs, [t.T for t in maps], probs)


@settings(max_examples=30, deadline=None)
@given(systems.map(lambda case: {**case, "m": 2}))
def test_transposing_every_map_under_a_two_state_chain(case):
    maps, potential = _draw(case, markov=True)
    _check_same(case, maps, potential, [t.T for t in maps], potential)


@settings(max_examples=40, deadline=None)
@given(systems, st.booleans())
def test_orthogonal_conjugation(case, markov):
    maps, weights = _draw(case, markov)
    rng = np.random.default_rng(case["seed"] + 1)
    rot, _ = np.linalg.qr(rng.standard_normal((case["dim"],) * 2))
    _check_same(case, maps, weights, [rot @ t @ rot.T for t in maps],
                weights)


@settings(max_examples=40, deadline=None)
@given(systems, st.booleans())
def test_permuting_symbols_with_their_weights(case, markov):
    maps, weights = _draw(case, markov)
    perm = np.random.default_rng(case["seed"] + 2).permutation(case["m"])
    permuted = weights[np.ix_(perm, perm)] if markov else weights[perm]
    _check_same(case, maps, weights, [maps[i] for i in perm], permuted)
