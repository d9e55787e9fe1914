"""Linear contractions and the singular value function.

For a nonsingular contracting linear map T on R^N with singular values
alpha_1 >= ... >= alpha_N, the singular value function is

    phi^s(T) = alpha_1 * ... * alpha_{j-1} * alpha_j^(s - j + 1)

for j - 1 < s <= j (j = ceil(s)), and phi^s(T) = (alpha_1 ... alpha_N)^(s/N)
= |det T|^(s/N) for s > N.  It is continuous and strictly decreasing in s,
and submultiplicative in T: phi^s(TU) <= phi^s(T) phi^s(U).

Everything here is dimension-generic; N = 1 and N = 2 use closed forms, and
larger N falls back to LAPACK.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

_SINGULAR_TOL = 1e-14


@dataclass(frozen=True)
class LinearContraction:
    """An invertible linear map with operator norm strictly below 1.

    Parameters
    ----------
    matrix : array_like, shape (N, N)
        The matrix of the map.  Must be nonsingular and contracting.
    """

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=np.float64)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise InvalidInputError(f"matrix must be square, got shape {mat.shape}")
        if not np.all(np.isfinite(mat)):
            raise InvalidInputError("matrix entries must be finite")
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        alphas = singular_values(mat)
        if alphas[-1] <= _SINGULAR_TOL:
            raise InvalidInputError(
                f"matrix is singular (smallest singular value {alphas[-1]:.3e})"
            )
        if alphas[0] >= 1.0:
            raise InvalidInputError(
                f"matrix is not contracting (largest singular value {alphas[0]:.6f})"
            )
        object.__setattr__(self, "_alphas", alphas)

    @property
    def dim(self):
        return self.matrix.shape[0]

    @property
    def alphas(self):
        """Singular values in decreasing order."""
        return self._alphas


@dataclass(frozen=True)
class AffineIFS:
    """A finite family of linear contractions indexed by symbols 1..m.

    The family defines the linear parts of an iterated construction; random
    translation parts are supplied separately by a displacement field.
    """

    maps: tuple

    def __post_init__(self):
        maps = tuple(
            t if isinstance(t, LinearContraction) else LinearContraction(t)
            for t in self.maps
        )
        if len(maps) < 2:
            raise InvalidInputError(f"need at least 2 maps, got {len(maps)}")
        dims = {t.dim for t in maps}
        if len(dims) != 1:
            raise InvalidInputError(f"maps act on mixed dimensions {sorted(dims)}")
        object.__setattr__(self, "maps", maps)

    @property
    def m(self):
        return len(self.maps)

    @property
    def dim(self):
        return self.maps[0].dim

    def matrix(self, symbol):
        """Matrix of the map for a 1-based symbol."""
        if not 1 <= symbol <= self.m:
            raise InvalidInputError(f"symbol {symbol} outside 1..{self.m}")
        return self.maps[symbol - 1].matrix

    def matrix_stack(self):
        """All map matrices as one (m, N, N) array."""
        return np.stack([t.matrix for t in self.maps])


def singular_values(T):
    """Singular values of a square matrix or LinearContraction, decreasing."""
    mat = T.matrix if isinstance(T, LinearContraction) else T
    return singular_values_stack(np.asarray(mat)[np.newaxis])[0]


def _sv2(mats):
    """Closed-form singular values for a stack of 2x2 matrices."""
    a00 = mats[..., 0, 0]
    a01 = mats[..., 0, 1]
    a10 = mats[..., 1, 0]
    a11 = mats[..., 1, 1]
    # Eigenvalues of T T^t via mean +/- radius; alpha_2 from the determinant.
    p = a00 * a00 + a01 * a01
    q = a10 * a10 + a11 * a11
    rr = a00 * a10 + a01 * a11
    alpha1 = np.sqrt(0.5 * (p + q) + np.hypot(0.5 * (p - q), rr))
    del p, q, rr  # a level table's build peaks in here, at its last level
    det = np.abs(a00 * a11 - a01 * a10)
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha2 = np.where(alpha1 > 0.0, det / np.where(alpha1 > 0.0, alpha1, 1.0), 0.0)
    return np.stack([alpha1, alpha2], axis=-1)


def singular_values_stack(mats):
    """Singular values for a stack of square matrices, shape (..., N).

    N = 1 and N = 2 use closed forms; larger N uses LAPACK's SVD.  The 2x2
    alpha_2 is |det| / alpha_1 with det from the entries, which cancel to
    noise or 0 as alpha_2 / alpha_1 nears the float epsilon.  Products
    built by `_extend_products` (the level tables and the cut-set descent)
    carry log|det| along words instead; per-word products (`compose`)
    keep the closed form.
    """
    mats = np.asarray(mats, dtype=np.float64)
    n = mats.shape[-1]
    if n == 1:
        return np.abs(mats[..., 0, :])
    if n == 2:
        return _sv2(mats)
    return np.linalg.svd(mats, compute_uv=False)


def _extend_products(mats, logdet, base, base_logdet):
    """One level step: every product in a stack times every map.

    Entry i m + b of the result is mats[i] @ base[b], so products ordered
    by word, first symbol most significant, stay in that order.  Returns
    the products, their log|det|, their singular values read off the
    products and their log singular values.  The product's entries cancel
    when alpha_N / alpha_1 is small, so log alpha_N is log|det|, added up
    along the word, less the leading log alpha_1 .. alpha_{N-1}.
    """
    dim = base.shape[-1]
    mats = np.matmul(mats[:, np.newaxis], base[np.newaxis]).reshape(-1, dim, dim)
    logdet = (logdet.reshape(-1, 1) + base_logdet).reshape(-1)
    alphas = singular_values_stack(mats)
    log_alphas = np.empty_like(alphas)
    lead = np.log(alphas[:, :-1], out=log_alphas[:, :-1])
    np.subtract(logdet, lead.sum(axis=-1), out=log_alphas[:, -1])
    return mats, logdet, alphas, log_alphas


def log_phi_stack(logs, s, out=None):
    """log phi^s from stacked log singular values (..., N), over words.

    Takes the logs so that callers evaluating one stack at many s (the
    solver's level tables) take them once.  The result goes to out, an
    array of the stack's shape, when it is given, and is returned; then
    nothing the size of the stack is allocated except the head sum of a
    2 < s <= N evaluation.  For j - 1 < s <= j the result is
    (s - j + 1) log alpha_j plus the head log alpha_1 + ... +
    log alpha_{j-1}, a head of two or more terms summed as
    `logs.sum(axis=-1)` sums.  Use only on products of nonsingular
    contractions, whose singular values are positive.
    """
    n = logs.shape[-1]
    if not s > 0.0:
        raise InvalidInputError(f"phi^s needs s > 0, got {s}")
    if out is None:
        out = np.empty(logs.shape[:-1])
    if s > n:
        np.sum(logs, axis=-1, out=out)
        return np.multiply(out, s / n, out=out)
    j = math.ceil(s)
    np.multiply(logs[..., j - 1], s - j + 1, out=out)
    if j == 1:
        return out
    head = logs[..., 0] if j == 2 else logs[..., : j - 1].sum(axis=-1)
    return np.add(head, out, out=out)


def phi_s(T, s):
    """The singular value function phi^s(T).

    Parameters
    ----------
    T : LinearContraction or array_like
        The map, or directly its matrix.
    s : float
        Positive exponent; branches switch at integer s and the product
        form takes over for s > N.
    """
    alphas = singular_values(T)
    if np.any(alphas <= 0.0):
        raise InvalidInputError("phi^s requires a nonsingular matrix")
    return float(np.exp(log_phi_stack(np.log(alphas), s)))


def compose(ifs, word):
    """Product matrix T_{i_1} ... T_{i_k} for a word; identity if empty."""
    mat = np.eye(ifs.dim)
    for sym in word:
        mat = mat @ ifs.matrix(sym)
    return mat


def contraction_bounds(ifs):
    """(a_minus, a_plus): the extreme singular values over the family.

    a_minus is the smallest alpha_N, a_plus the largest alpha_1; both lie in
    (0, 1) and sandwich every singular value of every finite composition via
    a_minus^k <= alpha_j(T_w) <= a_plus^k for |w| = k.
    """
    a_minus = min(t.alphas[-1] for t in ifs.maps)
    a_plus = max(t.alphas[0] for t in ifs.maps)
    return float(a_minus), float(a_plus)
