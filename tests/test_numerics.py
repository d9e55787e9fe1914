"""The numpy log-sum-exp and line fit, pinned bitwise against scipy.

scipy is a test-only dependency here: the package itself must not import
it for these helpers, so the helpers repeat scipy's arithmetic and these
tests hold them to scipy's exact results.
"""

import numpy as np
import pytest
from scipy.special import logsumexp as scipy_logsumexp
from scipy.stats import linregress

from affdims.numerics import fit_line, logsumexp


def same_bits(got, want):
    """Equal as float64 bit patterns, any NaN matching any NaN."""
    got, want = np.float64(got), np.float64(want)
    if np.isnan(want):
        return bool(np.isnan(got))
    return got.tobytes() == want.tobytes()


def test_logsumexp_bitwise_on_random_arrays():
    rng = np.random.default_rng(20)
    for i in range(4000):
        n = int(rng.integers(1, 200))
        a = rng.normal(rng.normal(0, 100), 10 ** rng.uniform(-3, 3), n)
        if i % 4 == 0:
            a[rng.integers(0, n, size=n // 3 + 1)] = -np.inf
        if i % 5 == 0:
            a[rng.integers(0, n, size=3)] = np.nanmax(a)
        if i % 7 == 0:
            a = np.round(a)
        assert same_bits(logsumexp(a), scipy_logsumexp(a)), a


@pytest.mark.parametrize("a", [
    [-np.inf, 1.0, -2.5],
    [-np.inf, -np.inf, -np.inf],
    [2.0, 2.0, 1.0, 2.0],
    [0.7, 0.7],
    [3.25],
    [-np.inf],
    [np.inf, 1.0],
    [np.inf, -np.inf],
    [np.inf, np.inf],
    [np.nan, 1.0],
    [1.0, np.nan, -np.inf],
    [-800.0, -801.0, -1000.0],
    [709.0, 709.5, 700.0],
], ids=["neg-inf-term", "all-neg-inf", "tied-max", "two-tied", "length-1",
        "single-neg-inf", "pos-inf", "pos-and-neg-inf", "two-pos-inf", "nan",
        "nan-and-neg-inf", "underflow", "overflow"])
def test_logsumexp_bitwise_edge_cases(a):
    with np.errstate(all="ignore"):
        want = scipy_logsumexp(np.array(a))
    assert same_bits(logsumexp(a), want)


@pytest.mark.parametrize("a", [
    np.random.default_rng(22).normal(size=1000),
    [3.0, -1.0, 2.5],
    np.array([-np.inf, 4.0, 1.0, 4.0, -np.inf, 4.0]),
], ids=["array", "list", "neg-inf-and-ties"])
def test_logsumexp_leaves_its_input_unchanged(a):
    before = np.array(a, dtype=np.float64).tobytes()
    want = scipy_logsumexp(np.array(a))
    assert same_bits(logsumexp(a), want)
    assert np.array(a, dtype=np.float64).tobytes() == before


def _check_fit(x, y):
    with np.errstate(all="ignore"):
        want = linregress(x, y)
    slope, stderr = fit_line(x, y)
    assert same_bits(slope, want.slope), (x, y)
    assert same_bits(stderr, want.stderr), (x, y)


def test_fit_line_bitwise_on_random_lines():
    rng = np.random.default_rng(21)
    for i in range(4000):
        n = int(rng.integers(2, 30))
        x = np.sort(rng.normal(0, 5, n)) + (np.arange(n) if i % 2 else 0.0)
        y = rng.normal() * x + rng.normal(0, 10 ** rng.uniform(-8, 1), n)
        _check_fit(x, y)


@pytest.mark.parametrize("x, y", [
    ([1.0, 2.0], [3.0, -1.0]),
    ([0.5, 2.0], [4.0, 4.0]),
    ([0.0, 1.0, 2.0, 3.0], [5.0, 5.0, 5.0, 5.0]),
    ([0.0, 1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 5.0, 7.0, 9.0]),
    ([0.1, 0.2, 0.3], [0.3, 0.2, 0.1]),
    (np.log([0.5, 0.25, 0.125, 0.0625]), np.log([0.3, 0.09, 0.027, 0.0081])),
], ids=["n2", "n2-constant", "constant-y", "exact-fit", "exact-falling",
        "geometric"])
def test_fit_line_bitwise_edge_cases(x, y):
    _check_fit(np.asarray(x), np.asarray(y))


def test_fit_line_constant_y_has_nan_stderr():
    slope, stderr = fit_line(np.arange(4.0), np.full(4, 2.0))
    assert slope == 0.0
    assert np.isnan(stderr)
