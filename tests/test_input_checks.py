"""Input checks at the library's entries: each bad input raises
InvalidInputError, naming what is wrong, before any work."""

import math

import numpy as np
import pytest

from affdims import (
    BernoulliModel,
    DisplacementField,
    JoinSet,
    LinearContraction,
    MarkovGibbsModel,
    birkhoff_sum,
    build_ladder,
    canonical_join_class,
    check_decay_criterion,
    check_prop71_bound,
    correlation_integral,
    count_join_configurations,
    cut_set,
    d_q_minus,
    d_q_plus_cutset,
    displacement,
    dq_identical_selfadjoint,
    exact_truncated_multienergy,
    growth_rate,
    join_set,
    mc_multienergy,
    mesh_moment_sum,
    moment_sum,
    moment_table,
    multienergy_kernel,
    phase_transition_scan,
    phi_s,
    project,
    prop71_survey,
    read_cloud,
    simulate_transversality,
)
from affdims import measures, multienergy
from affdims.dimsolver import _Levels
from affdims.errors import InvalidInputError
from affdims.linalg import log_phi_stack
from affdims.measures import _perron, draw_words

from checks import diag_ifs

IFS = diag_ifs([0.5, 0.3], [0.4, 0.35])
MODEL = BernoulliModel(probs=(0.6, 0.4))
FIELD = DisplacementField(seed=1)
POINTS = np.random.default_rng(0).random((50, 2))
PAIR = canonical_join_class(join_set(((1, 1), (2, 1))))


def _no_work(*args, **kwargs):
    raise AssertionError("work started before the input check")


# Every entry that takes a moment order q, at that q, and what it raises.
_MOMENT_Q = "moment sums need a finite q > 1"
_Q_CALLS = {
    "moment_sum": (lambda q: moment_sum(IFS, MODEL, 0.5, q, 3), _MOMENT_Q),
    "moment_table": (lambda q: moment_table(IFS, MODEL, 0.5, q, 3),
                     _MOMENT_Q),
    "growth_rate": (lambda q: growth_rate(IFS, MODEL, 0.5, q, 3), _MOMENT_Q),
    "d_q_minus": (lambda q: d_q_minus(IFS, MODEL, q), _MOMENT_Q),
    "d_q_plus_cutset": (lambda q: d_q_plus_cutset(IFS, MODEL, q, 0.5, 2),
                        _MOMENT_Q),
    "phase_transition_scan": (lambda q: phase_transition_scan(
        IFS, MODEL, sorted([1.5, 2.0, q])), _MOMENT_Q),
    "dq_identical_selfadjoint": (lambda q: dq_identical_selfadjoint(
        [0.5, 0.3], [0.6, 0.4], q), _MOMENT_Q),
    "mesh_moment_sum": (lambda q: mesh_moment_sum(POINTS, 0.1, q), _MOMENT_Q),
    "build_ladder": (lambda q: build_ladder(POINTS, q), _MOMENT_Q),
    "correlation_integral": (lambda q: correlation_integral(POINTS, 0.1, q),
                             "the counting form needs integer q >= 2"),
    "mc_multienergy": (lambda q: mc_multienergy(
        IFS, MODEL, 0.55, 1, q, 64, 4), "need 1 < q <= n \\+ 1"),
    "exact_truncated_multienergy": (lambda q: exact_truncated_multienergy(
        IFS, MODEL, 0.55, 2, q, 3), "need 1 < q <= n \\+ 1"),
    "check_prop71_bound": (lambda q: check_prop71_bound(
        IFS, MODEL, 0.55, q, PAIR, 4), _MOMENT_Q),
    "prop71_survey": (lambda q: prop71_survey(IFS, MODEL, 0.55, q, 3),
                      _MOMENT_Q),
    "check_decay_criterion": (lambda q: check_decay_criterion(
        IFS, MODEL, 0.55, q, 4), _MOMENT_Q),
}


@pytest.mark.parametrize("q", [math.inf, 1.0], ids=["inf", "one"])
@pytest.mark.parametrize("name", sorted(_Q_CALLS))
def test_moment_order_must_be_finite_above_one(monkeypatch, name, q):
    # q = inf gave NaN growths and a root at the lower end of the bracket,
    # a kink, 0.0 mesh sums and product-bound rows that all held.
    monkeypatch.setattr(_Levels, "__init__", _no_work)
    monkeypatch.setattr(multienergy, "_log_tables", _no_work)
    call, match = _Q_CALLS[name]
    with pytest.raises(InvalidInputError, match=match):
        call(q)


# Every entry that takes the singular value exponent s, at that s.
_S_CALLS = {
    "log_phi_stack": lambda s: log_phi_stack(np.zeros((1, 2)), s),
    "phi_s": lambda s: phi_s(np.diag([0.5, 0.3]), s),
    "moment_table": lambda s: moment_table(IFS, MODEL, s, 2.0, 3),
    "growth_rate": lambda s: growth_rate(IFS, MODEL, s, 2.0, 3),
}


@pytest.mark.parametrize("name", list(_S_CALLS))
def test_nan_exponent_rejected(name):
    # math.ceil(nan) raised a bare ValueError.
    with pytest.raises(InvalidInputError, match="phi\\^s needs s > 0"):
        _S_CALLS[name](math.nan)


@pytest.mark.parametrize("name", list(_S_CALLS))
def test_infinite_exponent_rejected(name):
    # phi^inf came out 0.0, and the moment sums and growth rates inf.
    with pytest.raises(InvalidInputError, match="phi\\^s needs s > 0"):
        _S_CALLS[name](math.inf)


def _nilpotent_perron():
    with np.errstate(all="ignore"):  # its ratios divide by zero
        return _perron(np.array([[0.0, 1.0], [0.0, 0.0]]))


def _underflowing_transition():
    # exp(-744) is a positive subnormal, so every entry of exp(f) passes
    # the check before `_perron`; a transition then underflows to 0.
    runs, perron = [], measures._perron

    def counted(mat):
        runs.append(mat)
        return perron(mat)

    measures._perron = counted
    try:
        MarkovGibbsModel(potential=[[0.0, 0.0], [-744.0, 700.0]])
    finally:
        measures._perron = perron
        assert runs, "rejected before _perron ran"


def _misshapen_cloud(tmp_path):
    path = tmp_path / "cloud.txt"
    path.write_text("# affdims cloud v1\n# seed=1 depth=4 dim=2 n=3 "
                    "region_radius=1.0 truncation_bound=0.1 model=unknown\n"
                    "0.1 0.2\n0.3 0.4\n")
    return path


# The checks that no other test reaches, each with the text it raises.
_CHECKS = {
    "JoinSet-multiplicity": (
        lambda tmp: JoinSet(root=(), vertices=(((1,), 0),)),
        "multiplicities must be >= 1"),
    "JoinSet-off-root": (
        lambda tmp: JoinSet(root=(1,), vertices=(((2,), 1),)),
        "does not extend root"),
    "join_set-one-ray": (
        lambda tmp: join_set([(1, 2)]), "need at least 2 rays"),
    "join_set-off-root": (
        lambda tmp: join_set([(1, 1), (1, 2)], root=(2,)),
        "does not extend root"),
    "multienergy_kernel-no-ray": (
        lambda tmp: multienergy_kernel(IFS, 0.5, []), "at least one ray"),
    "cut_set-s": (lambda tmp: cut_set(IFS, 2.5, 0.5), "cut sets need 0 < s"),
    "cut_set-r": (lambda tmp: cut_set(IFS, 0.5, 1.0), "radius must lie in"),
    "count_join_configurations-no-level": (
        lambda tmp: count_join_configurations([]), "at least one level"),
    "count_join_configurations-negative": (
        lambda tmp: count_join_configurations([1, -1]),
        "levels must be nonnegative"),
    "count_join_configurations-arity": (
        lambda tmp: count_join_configurations([1], m=1),
        "arity must be >= 2"),
    "positions-empty": (
        lambda tmp: mesh_moment_sum(np.zeros((0, 2)), 0.1, 2.0),
        "nonempty \\(n, N\\) array"),
    "positions-flat": (
        lambda tmp: mesh_moment_sum(np.zeros(5), 0.1, 2.0),
        "nonempty \\(n, N\\) array"),
    "ladder-form": (
        lambda tmp: build_ladder(POINTS, 2.0, form="bogus"),
        "unknown ladder form"),
    "LinearContraction-square": (
        lambda tmp: LinearContraction([[0.5, 0.0]]), "must be square"),
    "AffineIFS.matrix-symbol": (
        lambda tmp: IFS.matrix(3), "symbol 3 outside 1..2"),
    "phi_s-singular": (
        lambda tmp: phi_s(np.diag([0.5, 0.0]), 1.0), "nonsingular"),
    "MarkovGibbsModel-square": (
        lambda tmp: MarkovGibbsModel(potential=[[0.0, 1.0]]),
        "must be square"),
    "MarkovGibbsModel-finite": (
        lambda tmp: MarkovGibbsModel(potential=[[0.0, math.inf], [0.0, 0.0]]),
        "entries must be finite"),
    # exp(f) has zero entries: rejected before any Perron iteration.
    "MarkovGibbsModel-perron": (
        lambda tmp: MarkovGibbsModel(
            potential=[[-800.0, 0.0], [-800.0, -800.0]]),
        "leaves the float range"),
    "MarkovGibbsModel-transition": (
        lambda tmp: _underflowing_transition(), "leaves the float range"),
    # A nilpotent matrix: power iteration and the eigen-solve both fail.
    "_perron-nilpotent": (
        lambda tmp: _nilpotent_perron(), "no certified Perron root"),
    "birkhoff_sum-empty": (
        lambda tmp: birkhoff_sum(MODEL, ()), "nonempty word"),
    "draw_words-depth": (
        lambda tmp: draw_words(MODEL, 5, 0, _no_work), "depth must be >= 1"),
    "mc_multienergy-mode": (
        lambda tmp: mc_multienergy(IFS, MODEL, 0.55, 1, 1.5, 64, 4,
                                   unresolved="bogus"),
        "unknown unresolved mode"),
    "check_prop71_bound-spread": (
        lambda tmp: check_prop71_bound(
            IFS, MODEL, 0.55, 4.0,
            canonical_join_class(JoinSet(root=(), vertices=())), 4),
        "class spread must be >= 2"),
    "prop71_survey-max_spread": (
        lambda tmp: prop71_survey(IFS, MODEL, 0.55, 4.0, 3, max_spread=1),
        "max_spread >= 2"),
    "simulate_transversality-trials": (
        lambda tmp: simulate_transversality(IFS, FIELD, (1, 2), (2, 1), 0.5,
                                            0),
        "at least 1 trial"),
    "displacement-empty": (
        lambda tmp: displacement(FIELD, (), 2), "nonempty words"),
    "project-depth": (
        lambda tmp: project(IFS, FIELD, (1, 2), 0), "depth must be >= 1"),
    "project-short-word": (
        lambda tmp: project(IFS, FIELD, (1, 2), 3), "shorter than depth"),
    "read_cloud-shape": (
        lambda tmp: read_cloud(_misshapen_cloud(tmp)),
        "expected 3 x 2 table, got 2 x 2"),
}


@pytest.mark.parametrize("name", sorted(_CHECKS))
def test_input_check_raises_its_message(tmp_path, name):
    call, match = _CHECKS[name]
    with pytest.raises(InvalidInputError, match=match):
        call(tmp_path)

