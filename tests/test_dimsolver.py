"""Moment sums and the generalized dimension solver."""

import hashlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import affdims
from affdims import (
    AffineIFS,
    BernoulliModel,
    MarkovGibbsModel,
    affinity_dimension,
    all_words,
    check_decay_criterion,
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
from affdims.codespace import _cut_set_products
from affdims.dimsolver import _flag_kinks, _Levels
from affdims.errors import InvalidInputError, NoRootError, ResourceLimitError

from checks import diag_ifs, random_bernoulli, random_ifs

PINNED_TABLES = ("c1233af2fb401a2565ada4b4039e5c4b"
                 "ba38e343b1771d8f710b8f1693f0ef1d")
PINNED_SUMS = ("a5a7ed449a1f0c3ad314cf9761da5438"
               "8e7b6b443dc0011b68c3a07dcb87e3b1")


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
    assert len(table.sums) == table.k_max == 5
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


def thin_system():
    """Six maps whose products' alpha_2 / alpha_1 falls below 1e-18 by
    level 6, where the entries of the product matrix cancel."""
    def rot(t):
        return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    ifs = AffineIFS(maps=tuple(
        rot(0.3 + 0.7 * i) @ np.diag([0.95, 0.001]) @ rot(-0.1 * i)
        for i in range(6)))
    return ifs, BernoulliModel(probs=(1 / 6,) * 6)


def test_level_table_keeps_small_alpha_of_thin_products():
    ifs, model = thin_system()
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


def _seeded_systems():
    """The 40 seeded (ifs, model, k_max) of the pinned-bits tests, dims
    1-3, Bernoulli and Markov in turn."""
    rng = np.random.default_rng(40)
    for i in range(40):
        m, dim = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        ifs = random_ifs(rng, m, dim, max_norm=0.8)
        model = (MarkovGibbsModel(potential=rng.normal(size=(m, m))) if i % 2
                 else random_bernoulli(rng, m))
        yield ifs, model, int(math.log(5000) / math.log(m))


def _seeded_tables():
    """The level tables of `_seeded_systems`."""
    for system in _seeded_systems():
        yield _Levels(*system)


def test_level_tables_pinned_bits():
    # One digest over every log_alphas and logmass array of 40 seeded
    # systems, as recorded before the level step was shared with the
    # cut-set descent; any changed bit of any table fails.
    digest = hashlib.sha256()
    for levels in _seeded_tables():
        for table in levels.log_alphas + levels.logmass:
            digest.update(table.tobytes())
    assert digest.hexdigest() == PINNED_TABLES


def test_level_sums_and_roots_pinned_bits():
    # One digest over the level sums at one s in every phi^s branch of
    # each table's dimension (s <= 1, 1 < s <= 2, 2 < s <= 3, s > N) and
    # over the lockstep roots of four q's, as recorded before the level
    # sums were evaluated in place; any changed bit fails.
    qs = [0.0, 1.5, 2.0, 3.0]
    digest = hashlib.sha256()
    for levels in _seeded_tables():
        for s in [0.6, 1.5, 2.5][:levels.dim] + [levels.dim + 0.4]:
            digest.update(np.array(levels.log_sums(s, qs)).tobytes())
        for res in levels.solve_many(qs, 1e-4):
            digest.update(np.array([res.value, *res.bracket, res.growth_lo,
                                    res.growth_hi]).tobytes())
    assert digest.hexdigest() == PINNED_SUMS


def test_level_sums_allocate_nothing_the_size_of_a_level():
    # The acceptance-4 table evaluates its level sums in the scratch it
    # holds: after a warm-up, no allocation during a call comes near the
    # 177,147-word deepest level.
    ifs = diag_ifs([0.45, 0.4], [0.4, 0.35], [0.35, 0.3])
    levels = _Levels(ifs, BernoulliModel(probs=(0.4, 0.35, 0.25)))
    want = levels.log_sums(1.7, [2.0, 3.0])
    tracemalloc.start()
    try:
        got = levels.log_sums(1.7, [2.0, 3.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < levels.logmass[-1].nbytes == 8 * 3 ** 11


def test_cutset_sums_of_thin_products():
    # The closed-form alpha_2 of these products cancels to 0; the descent
    # carries log|det| instead, as the level tables do.
    ifs, model = thin_system()
    rows = d_q_plus_cutset(ifs, model, 2.0, 0.5, l_max=1)
    assert len(rows) == 1
    assert rows[0].size == len(cut_set(ifs, 0.5, 0.5)) == 66_456
    assert 0.0 < rows[0].value < math.inf
    levels = _cut_set_products(ifs, 0.5, 0.5)
    pairs = [(tuple(w), la) for ws, las in levels
             for w, la in zip(ws.tolist(), las)]
    rng = np.random.default_rng(5)
    for i in rng.choice(len(pairs), size=200, replace=False):
        word, log_alphas = pairs[i]
        np.testing.assert_allclose(log_alphas, _exact_log_alphas(ifs, word),
                                   atol=1e-9)
    with pytest.raises(ResourceLimitError,
                       match="cut set for r=0.25 exceeds budget of 250000"):
        cut_set(ifs, 0.5, 0.25)


def test_cutset_sums_keep_rows_above_the_budget():
    # r = 1/4 is over the word budget, so the ladder ends after r = 1/2.
    ifs, model = thin_system()
    rows = d_q_plus_cutset(ifs, model, 2.0, 0.5)
    assert [(row.r, row.size) for row in rows] == [(0.5, 66_456)]
    assert rows == d_q_plus_cutset(ifs, model, 2.0, 0.5, l_max=1)
    # With the first radius over it there is no row to return.
    ifs = diag_ifs([0.99, 0.99], [0.99, 0.99])
    with pytest.raises(ResourceLimitError, match="r=0.5 exceeds budget"):
        d_q_plus_cutset(ifs, BernoulliModel(probs=(0.5, 0.5)), 2.0, 0.5)


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
    # Past the ambient dimension: five copies of diag(.5, .5) give
    # d_2 = 2 log 5 / log 4.
    closed = dq_identical_selfadjoint((0.5, 0.5), (0.2,) * 5, 2.0)
    assert closed == 2.0 * math.log(5.0) / math.log(4.0)
    solved = d_q_minus(diag_ifs(*[(0.5, 0.5)] * 5),
                       BernoulliModel(probs=(0.2,) * 5), 2.0).value
    assert solved == pytest.approx(closed, abs=2e-4)


ACCEPTANCE_4_DIAGONALS = ((0.45, 0.4), (0.4, 0.35), (0.35, 0.3))
ACCEPTANCE_4_PROBS = (0.4, 0.35, 0.25)


def acceptance4_system():
    return (diag_ifs(*ACCEPTANCE_4_DIAGONALS),
            BernoulliModel(probs=ACCEPTANCE_4_PROBS))


def test_large_q_tends_to_smallest_single_map_root():
    # As q -> inf on a diagonal ordered system, d_q tends to min_i s_i with
    # phi^{s_i}(T_i) = p_i.  At q = 1000 the first bracket probe's growth
    # is past the float range, so this also pins that the solver takes no
    # exponential of a log growth while it bisects.
    ifs, model = acceptance4_system()
    roots = []
    for (a1, a2), p in zip(ACCEPTANCE_4_DIAGONALS, ACCEPTANCE_4_PROBS):
        lp, l1, l2 = math.log(p), math.log(a1), math.log(a2)
        roots.append(lp / l1 if lp >= l1 else 1.0 + (lp - l1) / l2)
    s_min = min(roots)
    assert s_min == pytest.approx(1.1271943022617172, abs=1e-15)
    value = d_q_minus(ifs, model, 1000.0).value
    assert 0.0 < value - s_min <= 1e-3


def test_sums_and_growths_past_the_float_range_are_inf():
    # At q = 1000 every level sum and growth at s = 2 is past the float
    # range: each is returned as inf, and numpy warns of no overflow.
    ifs, model = acceptance4_system()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert moment_sum(ifs, model, 2.0, 1000.0, 3) == math.inf
        assert moment_table(ifs, model, 2.0, 1000.0, 3).sums[-1] == math.inf
        assert growth_rate(ifs, model, 2.0, 1000.0, k_max=6) == math.inf
        rows = d_q_plus_cutset(ifs, model, 1000.0, 1.5, l_max=2)
        assert rows[-1].value == math.inf
        decay = check_decay_criterion(ifs, model, 2.0, 1000.0, 6)
        assert decay.lambda_fit == math.inf
        assert d_q_minus(ifs, model, 1000.0).value == 1.1279609230880738


def test_q_near_one_tends_to_lyapunov_dimension():
    # As q -> 1+, d_q tends to the Lyapunov dimension
    # 1 + (h - |lambda_1|) / |lambda_2| of the diagonal system.
    ifs, model = acceptance4_system()
    p = np.array(ACCEPTANCE_4_PROBS)
    log_diags = np.log(np.array(ACCEPTANCE_4_DIAGONALS))
    entropy = -np.sum(p * np.log(p))
    lyap1, lyap2 = -(p @ log_diags)
    want = 1.0 + (entropy - lyap1) / lyap2
    assert 1.0 < want < 2.0
    assert d_q_minus(ifs, model, 1.001).value == pytest.approx(want,
                                                              abs=1e-4)


def test_solve_at_large_q_writes_nothing_to_stderr(tmp_path):
    diagonals = "".join(f"map{i} = {a} 0 / 0 {b}\n"
                        for i, (a, b) in enumerate(ACCEPTANCE_4_DIAGONALS, 1))
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[run]\nseed = 1\n\n[ifs]\ndim = 2\n" + diagonals
        + "\n[measure]\ntype = bernoulli\nprobs = "
        + " ".join(map(str, ACCEPTANCE_4_PROBS)) + "\n\n[solve]\nq = 1000\n")
    src = str(Path(affdims.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="default")
    done = subprocess.run(
        [sys.executable, "-m", "affdims.cli", "solve", "--config", str(cfg),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0
    assert done.stderr == ""
    row, = json.loads(done.stdout)["payload"]["dimensions"]
    assert row["d_q"] == d_q_minus(*acceptance4_system(), 1000.0).value


def test_integer_crossing_bisected_in_q_matches_closed_form():
    # At s = 1 both maps of diag(0.7, 0.2) give phi^1 = 0.7, so the log
    # growth (1 - q) log 0.7 + log(0.8^q + 0.2^q) is 0 exactly where d_q
    # crosses 1: at (0.8^q + 0.2^q)^(1/(q-1)) = 0.7.  One table serves every
    # step of a bisection in q at fixed s.
    from scipy.optimize import brentq

    levels = _Levels(diag_ifs([0.7, 0.2], [0.7, 0.2]),
                     BernoulliModel(probs=(0.8, 0.2)))
    assert levels.k_max == 17
    q_lo, q_hi = 1.5, 4.0
    for _ in range(60):
        mid = 0.5 * (q_lo + q_hi)
        if levels.log_growth(levels.log_sums(1.0, [mid])[0], mid) < 0.0:
            q_lo = mid
        else:
            q_hi = mid
    q_star = brentq(lambda q: (0.8**q + 0.2**q) ** (1 / (q - 1)) - 0.7,
                    1.5, 4.0, xtol=1e-15, rtol=4 * np.finfo(float).eps)
    assert abs(0.5 * (q_lo + q_hi) - q_star) <= 1e-12


def test_markov_diagonal_value_is_an_upper_estimate():
    # For diagonal maps with consistently ordered diagonals phi^s is
    # multiplicative along words, so d_q under a Markov model is the root
    # of rho(M(s)) = 1 with M_ab = P_ab^q phi^s(T_b)^(1-q).  The solver's
    # growth estimate is a lower bound, so `value` lies at or above it
    # (here 0.77017 against 0.71961, the gap being the Markov weight).
    from scipy.optimize import brentq

    diagonals = np.array([[0.45, 0.40], [0.40, 0.30]])
    model = MarkovGibbsModel(potential=np.array([[-0.7, -1.6],
                                                 [-1.05, -0.8]]))
    q, tol = 2.0, 1e-4
    trans = model.transition_probs()

    def log_spectral_radius(s):
        log_phi = np.where(s <= 1.0, s * np.log(diagonals[:, 0]),
                           np.log(diagonals[:, 0])
                           + (s - 1.0) * np.log(diagonals[:, 1]))
        mat = trans ** q * np.exp((1.0 - q) * log_phi)
        return math.log(max(abs(np.linalg.eigvals(mat))))

    closed = brentq(log_spectral_radius, 1e-6, 2.0, xtol=1e-12)
    assert closed == pytest.approx(0.7196055, abs=1e-7)
    value = d_q_minus(diag_ifs(*diagonals), model, q, tol=tol).value
    assert value >= closed - tol


def test_q_at_most_one_rejected():
    ifs, model = worked_system()
    for q in (1.0, 0.5, -2.0):
        with pytest.raises(InvalidInputError):
            d_q_minus(ifs, model, q)


def test_no_root_when_contractions_too_weak():
    # Nearly-isometric maps push the root beyond every doubled bracket.
    ifs = diag_ifs([0.999, 0.999], [0.999, 0.999])
    model = BernoulliModel(probs=(0.5, 0.5))
    with pytest.raises(NoRootError, match=r"^no bracket at table depth 17: "
                       r"log growth at s=32\.0 is still -"):
        d_q_minus(ifs, model, 5.0)
    # A map of mass 1e-8 puts the root below the lowest bracket end; with
    # mass 1e-6 the same system solves.
    ifs = diag_ifs([0.5, 0.3], [0.4, 0.35])
    with pytest.raises(NoRootError, match=re.escape(
            "no bracket at table depth 17: log growth at s=1e-06 is "
            "already 6.73147e-07")):
        d_q_minus(ifs, BernoulliModel(probs=(1.0 - 1e-8, 1e-8)), 2.0)
    assert d_q_minus(ifs, BernoulliModel(probs=(1.0 - 1e-6, 1e-6)),
                     2.0).value > 0.0


def test_no_root_text_names_the_depth_and_the_markov_weight():
    # Seeded Markov table 1 (1-D, depth 6) has d_q <= 1 at q = 1.01, but
    # the weight q log c_min enters every level's term and shrinks only
    # as 1/k, so no s up to 16 brings the lower bound to 1 at this depth.
    levels = next(itertools.islice(_seeded_tables(), 1, None))
    with pytest.raises(NoRootError, match=re.escape(
            "no bracket at table depth 6 (weight q log c_min -2.79001): "
            "log growth at s=16.0 is still -0.319745")):
        levels.solve_many([1.01], 1e-4)


def _one_q_bisection(levels, q, tol):
    """The bisection of one q on its own, one growth evaluation a step."""
    sign = -1.0 if q == 0.0 else 1.0

    def g(s):
        return float(np.exp(
            levels.log_growth(levels.log_sums(s, [q])[0], q)))

    s_lo, s_hi = 1e-6, 2.0 * levels.dim
    g_lo, g_hi = g(s_lo), g(s_hi)
    while sign * (g_hi - 1.0) <= 0.0:
        s_hi *= 2.0
        g_hi = g(s_hi)
    iterations = max(1, math.ceil(math.log2((s_hi - s_lo) / tol)))
    for _ in range(iterations):
        mid = 0.5 * (s_lo + s_hi)
        g_mid = g(mid)
        if sign * (g_mid - 1.0) < 0.0:
            s_lo, g_lo = mid, g_mid
        else:
            s_hi, g_hi = mid, g_mid
        if s_hi - s_lo <= tol:
            break
    return (0.5 * (s_lo + s_hi), (s_lo, s_hi), iterations, g_lo, g_hi)


_MARKOV = MarkovGibbsModel(
    potential=np.log(np.array([[0.50, 0.20], [0.35, 0.45]])))


@pytest.mark.parametrize("model", [BernoulliModel(probs=(0.6, 0.4)), _MARKOV],
                         ids=["bernoulli", "markov"])
def test_lockstep_bisection_equals_one_q_at_a_time(model):
    ifs = AffineIFS(maps=(np.diag([0.5, 0.3]),
                          np.array([[0.4, 0.1], [0.0, 0.35]])))
    levels = _Levels(ifs, model, k_max=9)
    qs = [3.0, 0.0, 2.0, 1.5, 2.0, 5.0, 0.0, 2.25]
    results = levels.solve_many(qs, 1e-5)
    assert [r.q for r in results] == qs
    for q, res in zip(qs, results):
        assert res == levels.solve_many([q], 1e-5)[0]
        assert (res.value, res.bracket, res.iterations, res.growth_lo,
                res.growth_hi) == _one_q_bisection(levels, q, 1e-5)
        assert res.depth == 9


def test_lockstep_bisection_computes_log_phi_once_per_s_and_level(
        level_words):
    # A sign-only pass fills only the levels it reads.  An (s, level) pair
    # is computed twice only where a bracket end that was only a sign is
    # asked for exactly after other s were filled: its exact pass refills
    # the levels its first pass reached.
    ifs, model = worked_system()
    levels = _Levels(ifs, model, k_max=7)
    calls = level_words["phi"]
    qs = [1.5, 2.0, 3.0, 0.0, 1.75, 2.0, 2.25]
    results = levels.solve_many(qs, 1e-4)
    assert (len(calls), len(set(calls))) == (350, 344)
    ends = {s for res in results for s in res.bracket}
    repeats = {s for s, n in set(calls) if calls.count((s, n)) > 1}
    assert repeats and repeats <= ends
    assert all({(s, 2 ** k) for k in range(1, 8)} <= set(calls)
               for s in ends)
    lockstep = len(calls)
    calls.clear()
    for q in qs:
        levels.solve_many([q], 1e-4)
    assert lockstep < len(calls)


def test_lockstep_bisection_raises_first_failing_q():
    # No q has a root on these nearly isometric maps; each fails with its
    # own growth in the message, and the first of qs is the one raised.
    ifs = diag_ifs([0.999, 0.999], [0.999, 0.999])
    levels = _Levels(ifs, BernoulliModel(probs=(0.5, 0.5)), k_max=8)
    for qs in ([3.0, 1.5, 5.0], [5.0, 3.0], [3.0, 0.5], [0.5, 3.0]):
        with pytest.raises((NoRootError, InvalidInputError)) as one_at_a_time:
            for q in qs:
                levels.solve_many([q], 1e-4)
        with pytest.raises(type(one_at_a_time.value),
                           match=re.escape(str(one_at_a_time.value))):
            levels.solve_many(qs, 1e-4)


def _result_fields(res):
    return (res.value, res.bracket, res.iterations, res.growth_lo,
            res.growth_hi)


def test_shared_signs_give_the_one_q_results_on_seeded_tables():
    # A dense, unsorted q list with repeats and 0.0, so that many q's ask
    # for the same s and most growths reach the bisections as signs only.
    qs = [2.0, 1.1, 4.0, 0.0, 1.5, 2.0, 3.0, 1.25, 1.2501, 6.0, 1.75, 0.0,
          2.5, 1.05]
    for levels in _seeded_tables():
        for q, res in zip(qs, levels.solve_many(qs, 1e-4)):
            assert res.q == q
            assert _result_fields(res) == _one_q_bisection(levels, q, 1e-4)


@pytest.mark.parametrize("tol", [1e-4, 1e-7])
def test_single_q_paths_give_the_one_q_results_on_seeded_tables(tol):
    # Alone, every growth but a re-asked bracket end is asked for its sign
    # only and may stop at its first level; the one-q bisection reads
    # every level of every growth.
    for ifs, model, k_max in _seeded_systems():
        levels = _Levels(ifs, model, k_max)
        want = {q: _one_q_bisection(levels, q, tol) for q in (0.0, 2.0, 5.0)}
        for q in want:
            assert _result_fields(levels.solve_many([q], tol)[0]) == want[q]
        for q in (2.0, 5.0):
            assert _result_fields(d_q_minus(ifs, model, q, tol, k_max)) \
                == want[q]
        assert _result_fields(affinity_dimension(ifs, tol, k_max)) \
            == want[0.0]


def test_sign_only_growth_reads_no_level_past_the_first_that_settles():
    levels = _Levels(*worked_system(), k_max=4)
    read = []

    def sums(values):
        for v in values:
            read.append(v)
            yield v

    # The first positive term (q > 1) or negative one (q = 0) settles the
    # sign; without one, every level is read and the growth is exact.
    for q, values, settled in [(2.0, [-1.0, 0.5, -3.0, 9.0], math.inf),
                               (0.0, [1.0, -0.5, 3.0, -9.0], -math.inf),
                               (2.0, [-1.0, -4.0, -0.5, -2.0], None),
                               (0.0, [1.0, 4.0, 0.5, 2.0], None)]:
        read.clear()
        got = levels.log_growth(sums(values), q, exact=False)
        if settled:
            assert (got, read) == (settled, values[:2])
        else:
            assert (got, read) == (levels.log_growth(values, q), values)


def test_sign_only_growth_of_exactly_zero_is_zero():
    # Two copies of diag(.5, .5) with equal probabilities: at s = 1 every
    # level sum at q = 2 and at q = 0 is exactly 0.0, so no term settles
    # the sign and the sign-only growth is 0.0, never inf or -inf.
    levels = _Levels(diag_ifs([0.5, 0.5], [0.5, 0.5]),
                     BernoulliModel(probs=(0.5, 0.5)))
    for q in (2.0, 0.0):
        assert set(levels.log_sums(1.0, [q])[0]) == {0.0}
        levels._at(1.0)
        assert levels._growth(q, exact=False) == 0.0
    assert levels._shared_growths([2.0]) == {2.0: 0.0}


def test_affinity_no_root_text_carries_the_growth():
    # Five nearly isometric maps: the affinity growth stays positive up to
    # s = 32, no term settles its sign there, and the text, alone and in
    # lockstep, holds the growth itself rather than inf.
    ifs = diag_ifs(*[[0.999, 0.999]] * 5)
    with pytest.raises(NoRootError, match=re.escape(
            "no bracket at table depth 7: log growth at s=32.0 is still "
            "1.57742")) as alone:
        affinity_dimension(ifs)
    assert "inf" not in str(alone.value)
    levels = _Levels(ifs, BernoulliModel(probs=(0.2,) * 5))
    with pytest.raises(NoRootError, match=re.escape(str(alone.value))):
        levels.solve_many([0.0, 3.0], 1e-4)


def test_shared_signs_keep_every_no_root_text():
    # Every q of the grid fails on these nearly isometric maps, its last
    # bracket end settled by the largest q's sign; the text each raises
    # in lockstep is the one it raises alone, with its own growth.
    ifs = diag_ifs([0.999, 0.999], [0.999, 0.999])
    levels = _Levels(ifs, BernoulliModel(probs=(0.5, 0.5)), k_max=8)
    grid = [1.5 + 0.25 * i for i in range(15)]
    for i, q in enumerate(grid):
        with pytest.raises(NoRootError) as alone:
            levels.solve_many([q], 1e-4)
        assert "inf" not in str(alone.value)
        with pytest.raises(NoRootError) as lockstep:
            levels.solve_many(grid[i:] + grid[:i], 1e-4)
        assert str(lockstep.value) == str(alone.value)


@pytest.fixture(scope="module")
def acceptance4_levels():
    return _Levels(*acceptance4_system())


@pytest.fixture
def level_words(monkeypatch):
    """The words of every level-sum exponentiation ("exp", one count a
    call) and every log phi^s fill ("phi", one (s, words) pair a call)."""
    import affdims.dimsolver as dimsolver

    words = {"exp": [], "phi": []}
    logsumexp_into, log_phi = dimsolver._logsumexp_into, dimsolver.log_phi_stack

    def counted_sum(expo, ties):
        words["exp"].append(expo.size)
        return logsumexp_into(expo, ties)

    def counted_phi(log_alphas, s, out=None):
        words["phi"].append((s, len(log_alphas)))
        return log_phi(log_alphas, s, out=out)

    monkeypatch.setattr(dimsolver, "_logsumexp_into", counted_sum)
    monkeypatch.setattr(dimsolver, "log_phi_stack", counted_phi)
    return words


@pytest.fixture
def level_sum_passes(monkeypatch):
    """The q of every per-q level-sum pass of every table, in order."""
    passes = []
    level_sums = _Levels._level_sums

    def counted(self, q):
        passes.append(q)
        return level_sums(self, q)

    monkeypatch.setattr(_Levels, "_level_sums", counted)
    return passes


# The q's of `solve` in the solve-scan benchmark: its [solve] q, the
# affinity dimension and the scan grid, 12 distinct.
SOLVE_SCAN_QS = [1.5, 2.0, 3.0, 0.0] + [1.5 + 0.25 * i for i in range(11)]


def test_shared_signs_and_early_stops_cut_the_exponentiated_words(
        acceptance4_levels, level_words):
    # Words exponentiated in level sums and words given log phi^s.  Each
    # bound is the count when every pass reads every level; a sign-only
    # pass stops at the first level that settles the sign, and the
    # results keep their bits.
    lockstep = acceptance4_levels.solve_many(SOLVE_SCAN_QS, 1e-4)
    exp_words = sum(level_words["exp"])
    phi_words = sum(n for _, n in level_words["phi"])
    assert exp_words == 15_411_873 < 27_369_057
    assert phi_words == 13_286_034 < 17_537_454
    level_words["exp"].clear()
    alone = {q: acceptance4_levels.solve_many([q], 1e-4)[0]
             for q in dict.fromkeys(SOLVE_SCAN_QS)}
    assert sum(level_words["exp"]) == 29_495_160 < 57_395_304
    assert lockstep == [alone[q] for q in SOLVE_SCAN_QS]


def test_lockstep_bisection_allocates_nothing_the_size_of_a_level(
        acceptance4_levels):
    want = acceptance4_levels.solve_many(SOLVE_SCAN_QS, 1e-4)
    tracemalloc.start()
    try:
        got = acceptance4_levels.solve_many(SOLVE_SCAN_QS, 1e-4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < acceptance4_levels.logmass[-1].nbytes == 8 * 3 ** 11


def test_bisection_stops_at_its_fixed_point(level_sum_passes):
    # At tol 1e-300 the bracket reaches one ulp after about 53 of its 999
    # planned steps; past it every midpoint is an end, so the bisection
    # stops there and still reports the planned count.
    levels = _Levels(*acceptance4_system(), k_max=8)
    want = _one_q_bisection(levels, 2.0, 1e-300)
    level_sum_passes.clear()
    res = levels.solve_many([2.0], 1e-300)[0]
    assert _result_fields(res) == want
    assert res.iterations == want[2] == 999
    assert len(level_sum_passes) <= 60


@pytest.mark.parametrize("markov", [False, True], ids=["bernoulli", "markov"])
def test_level_sum_signs_nondecreasing_in_q(markov):
    # The power-mean lemma that lets one q settle another's sign: at fixed
    # s, log Phi_k + q log c_min changes sign at most once along
    # increasing q, from negative to nonnegative, for every k.
    grid = [1.02 * 1.08 ** i for i in range(40)]
    changes = 0
    for i, levels in enumerate(_seeded_tables()):
        if i % 2 != markov:
            continue
        for s in np.linspace(0.1, levels.dim, 12):
            rows = np.array(levels.log_sums(s, grid)).T
            for row in rows:
                signs = row + np.array(grid) * levels._log_c_min >= 0.0
                assert np.all(np.diff(signs.astype(int)) >= 0)
                changes += signs[-1] != signs[0]
    assert changes > 200


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


@pytest.mark.parametrize("slopes, kinks", [
    ([0, 1, 3, 3, 3, 1, 1], (3.0, 4.5)),
    ([0, 0, 0, 1, 4], (4.0,)),
    ([0, 2, 0, 2, 2, 2], (2.5,)),
    ([0.25] * 6, ()),
], ids=["two-runs", "run-at-last-jump", "tie-in-run", "no-run"])
def test_flag_kinks_one_flag_per_run(slopes, kinks):
    # Secant slopes on a grid of step 0.5 (threshold 0.04 at tol 1e-3), all
    # exact in binary; each run above threshold is flagged at its first
    # largest jump.  The kinks are those of the index-walking loop.
    qs = [2.0 + 0.5 * i for i in range(len(slopes) + 1)]
    values = [1.0]
    for slope in slopes:
        values.append(values[-1] + 0.5 * slope)
    scan = _flag_kinks(qs, values, 1e-3)
    assert scan.kink_qs == kinks
    assert scan.threshold == 0.04


def test_phase_scan_rejects_grid_points_not_above_one(monkeypatch):
    # Every grid point is checked before the level table is built.
    def no_table(*args, **kwargs):
        raise AssertionError("a level table was built")

    monkeypatch.setattr(_Levels, "__init__", no_table)
    ifs, model = worked_system()
    with pytest.raises(InvalidInputError, match="q > 1"):
        phase_transition_scan(ifs, model, [0.5, 1.0, 1.5])


def test_phase_scan_rejects_unsorted_grid(monkeypatch):
    def no_table(*args, **kwargs):
        raise AssertionError("a level table was built")

    monkeypatch.setattr(_Levels, "__init__", no_table)
    ifs, model = worked_system()
    with pytest.raises(InvalidInputError, match="strictly increasing"):
        phase_transition_scan(ifs, model, [1.5, 2.5, 2.0])


@pytest.mark.parametrize("tol", [0.0, -1e-4, math.nan, math.inf])
@pytest.mark.parametrize("call", [
    lambda ifs, model, tol: d_q_minus(ifs, model, 2.0, tol=tol),
    lambda ifs, model, tol: affinity_dimension(ifs, tol=tol),
    lambda ifs, model, tol: phase_transition_scan(
        ifs, model, [1.5, 2.0, 2.5], tol=tol),
], ids=["d_q_minus", "affinity_dimension", "phase_transition_scan"])
def test_tolerance_outside_zero_to_inf_rejected_before_bisection(
        monkeypatch, call, tol):
    def no_bisection(*args):
        raise AssertionError("a bisection started")

    monkeypatch.setattr(_Levels, "_bisection", no_bisection)
    ifs, model = worked_system()
    with pytest.raises(InvalidInputError,
                       match=re.escape(f"tol in (0, inf), got {tol}")):
        call(ifs, model, tol)


def test_cutset_sums_need_a_level():
    ifs, model = worked_system()
    with pytest.raises(InvalidInputError, match="l_max"):
        d_q_plus_cutset(ifs, model, 2.0, 0.5, l_max=0)


def test_cutset_sums_diagnostic_shape():
    ifs, model = worked_system()
    d2 = d_q_minus(ifs, model, 2.0).value
    rows = d_q_plus_cutset(ifs, model, 2.0, d2, l_max=5)
    assert len(rows) == 5
    assert all(row.size > 0 for row in rows)
    assert all(row.value > 0 for row in rows)


@pytest.mark.parametrize("sheared", [False, True])
def test_cutset_sums_equal_per_word_loop(sheared):
    # The sums reuse the cut-set descent's words and log singular values;
    # they must match a per-word compose loop, also for non-commuting maps.
    # The descent reads alpha_N from log|det| and the loop from the closed
    # form, so the values agree to rounding, not bit for bit.
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
        assert row.size == len(words)
        assert row.value == pytest.approx(total, rel=1e-12)
