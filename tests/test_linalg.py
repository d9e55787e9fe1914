"""Singular value functions and IFS composition."""

import numpy as np
import pytest

from affdims import AffineIFS, compose, contraction_bounds, phi_s, singular_values
from affdims.errors import InvalidInputError
from affdims.linalg import log_phi_stack, singular_values_stack

from checks import diag_ifs, random_contraction


def test_singular_values_match_svd():
    rng = np.random.default_rng(101)
    for _ in range(50):
        T = random_contraction(rng, rng.integers(1, 5))
        got = singular_values(T)
        want = np.linalg.svd(T, compute_uv=False)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
        assert np.all(np.diff(got) <= 1e-15)


def test_phi_s_piecewise_diagonal():
    T = np.diag([0.5, 0.3])
    # s in (0,1]: alpha_1^s; in (1,2]: alpha_1 * alpha_2^(s-1); above N: det^(s/N)
    assert phi_s(T, 0.7) == pytest.approx(0.5**0.7)
    assert phi_s(T, 1.0) == pytest.approx(0.5)
    assert phi_s(T, 1.4) == pytest.approx(0.5 * 0.3**0.4)
    assert phi_s(T, 2.0) == pytest.approx(0.15)
    assert phi_s(T, 3.0) == pytest.approx(0.15 ** (3.0 / 2.0))


def test_phi_s_continuous_at_integer_breaks():
    rng = np.random.default_rng(7)
    for _ in range(20):
        T = random_contraction(rng, 3)
        for j in (1.0, 2.0, 3.0):
            below = phi_s(T, j - 1e-9)
            above = phi_s(T, j + 1e-9)
            assert below == pytest.approx(above, rel=1e-6)


def test_phi_s_nonpositive_exponent_rejected():
    T = np.diag([0.4, 0.2])
    with pytest.raises(InvalidInputError):
        phi_s(T, 0.0)
    with pytest.raises(InvalidInputError):
        phi_s(T, -0.5)


def test_phi_s_submultiplicative_sample():
    # Small version of the acceptance sweep.
    rng = np.random.default_rng(13)
    for _ in range(100):
        A = random_contraction(rng, 2)
        B = random_contraction(rng, 2)
        for s in rng.uniform(0.05, 3.9, size=4):
            lhs = phi_s(A @ B, s)
            rhs = phi_s(A, s) * phi_s(B, s)
            assert lhs <= rhs * (1 + 1e-9)


def test_compose_word_order():
    ifs = diag_ifs([0.5, 0.3], [0.4, 0.35])
    A, B = (c.matrix for c in ifs.maps)
    np.testing.assert_allclose(compose(ifs, (1, 2, 2)), A @ B @ B)
    np.testing.assert_allclose(compose(ifs, ()), np.eye(2))


def test_contraction_bounds_bracket_singular_values():
    rng = np.random.default_rng(23)
    maps = tuple(random_contraction(rng, 2) for _ in range(3))
    ifs = AffineIFS(maps=maps)
    a_minus, a_plus = contraction_bounds(ifs)
    assert 0 < a_minus <= a_plus < 1
    for _ in range(50):
        word = tuple(rng.integers(1, 4, size=rng.integers(1, 7)))
        sv = singular_values(compose(ifs, word))
        k = len(word)
        assert sv[0] <= a_plus**k * (1 + 1e-12)
        assert sv[-1] >= a_minus**k * (1 - 1e-12)


def test_stack_helpers_agree_with_scalar_path():
    rng = np.random.default_rng(31)
    mats = np.stack([random_contraction(rng, 2) for _ in range(6)])
    alphas = singular_values_stack(mats)
    for s in (0.3, 1.2, 1.9, 2.7):
        stacked = log_phi_stack(np.log(alphas), s)
        direct = np.array([np.log(phi_s(M, s)) for M in mats])
        np.testing.assert_allclose(stacked, direct, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_log_phi_stack_into_out_keeps_the_bits(n):
    # Into a buffer or not, each branch gives the bits of the sum form:
    # the head summed as logs.sum(axis=-1) sums, then the scaled column.
    rng = np.random.default_rng(n)
    logs = np.log(np.sort(rng.uniform(0.01, 1.0, (5000, n)))[:, ::-1])
    logs = np.ascontiguousarray(logs)
    for s in [0.3, 1.0, 1.5, 2.0, 2.5, 3.0][: 2 * n] + [n + 0.4]:
        if s > n:
            want = logs.sum(axis=-1) * (s / n)
        else:
            j = int(np.ceil(s))
            want = (logs[:, : j - 1].sum(axis=-1)
                    + (s - j + 1) * logs[:, j - 1])
        buf = np.full(len(logs), np.nan)
        assert log_phi_stack(logs, s, out=buf) is buf
        assert buf.tobytes() == want.tobytes(), s
        assert log_phi_stack(logs, s).tobytes() == want.tobytes(), s


def test_expanding_map_rejected():
    with pytest.raises(InvalidInputError):
        AffineIFS(maps=(np.diag([0.5, 0.3]), np.diag([1.0, 0.4])))


def test_mixed_dimensions_rejected():
    with pytest.raises(InvalidInputError):
        AffineIFS(maps=(np.diag([0.5, 0.3]), np.diag([0.5, 0.3, 0.2])))


def test_singular_map_rejected():
    with pytest.raises(InvalidInputError):
        AffineIFS(maps=(np.diag([0.5, 0.0]), np.diag([0.4, 0.3])))


def test_non_finite_entries_rejected():
    for bad in (np.nan, np.inf):
        with pytest.raises(InvalidInputError, match="must be finite"):
            AffineIFS(maps=(np.array([[0.5, bad], [0.0, 0.3]]),
                            np.diag([0.4, 0.3])))


def test_single_map_rejected():
    with pytest.raises(InvalidInputError):
        AffineIFS(maps=(np.diag([0.5, 0.3]),))
