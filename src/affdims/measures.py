"""Cylinder measures on the code space.

Two model families share one interface: Bernoulli products, and stationary
Markov measures built from a two-symbol potential f(a, b).  For the Markov
family the transfer matrix M = exp(f) has Perron root lambda, and the
stationary chain with transitions P(a -> b) = M[a, b] h[b] / (lambda h[a])
(h the right Perron vector) gives exact cylinder masses

    mu(C_{i_1..i_k}) = pi[i_1] * prod_j P(i_j -> i_{j+1}).

With the Birkhoff sum closed by log h at the final symbol, the ratio
mu(C_i) / exp(-k P(f) + S_k f(i)) depends only on the first symbol, so the
two-sided Gibbs bound holds with an explicitly computable constant for
every depth at once.

Both models expose initial and transition probability tables; a Bernoulli
model is simply the chain whose rows are all equal, which lets enumeration
and sampling code treat the families uniformly.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

_MAX_SYMBOLS = 255  # words hold their symbols as uint8

_PROB_TOL = 1e-12
_PERRON_TOL = 1e-14  # relative Collatz-Wielandt gap that certifies _perron
_PERRON_MAX_ITER = 100_000  # power iterations per _perron run


@dataclass(frozen=True, eq=False)
class BernoulliModel:
    """Product measure with symbol probabilities p_1, ..., p_m."""

    probs: tuple

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        if p.ndim != 1 or p.size < 2:
            raise InvalidInputError("need a vector of at least 2 probabilities")
        if np.any(p <= 0.0):
            raise InvalidInputError("probabilities must be strictly positive")
        if abs(p.sum() - 1.0) > _PROB_TOL:
            raise InvalidInputError(
                f"probabilities sum to {p.sum():.15f}, expected 1 within {_PROB_TOL}"
            )
        object.__setattr__(self, "probs", tuple(float(x) for x in p))

    @property
    def m(self):
        return len(self.probs)

    def initial_probs(self):
        return np.asarray(self.probs)

    def transition_probs(self):
        p = np.asarray(self.probs)
        return np.tile(p, (self.m, 1))


def _perron(mat):
    """Perron root and positive right eigenvector via power iteration.

    Iterates to the Collatz-Wielandt sandwich min(Mx/x) <= lambda <= max(Mx/x)
    with relative gap below _PERRON_TOL, which certifies the root.
    Roundoff can hold the gap just above it; a gap below 1e-12 that has not
    shrunk for 1000 iterations is accepted too.  A second eigenvalue near
    -lambda stalls the iteration, so a run that ends unconverged is repeated
    once on M + cI, c the stalled run's midpoint: same eigenvector, root
    shifted by c, and the second eigenvalue now far below the first.
    """
    shift = 0.0
    for _ in range(2):
        x = np.ones(mat.shape[0])
        lam, best, stalled = np.nan, np.inf, 0
        for _ in range(_PERRON_MAX_ITER):
            y = mat @ x + shift * x
            ratios = y / x
            lo, hi = ratios.min(), ratios.max()
            lam = 0.5 * (lo + hi)
            x = y / y.sum()
            if hi - lo <= _PERRON_TOL * lam:
                return lam - shift, x
            best, stalled = (hi - lo, 0) if hi - lo < best else (best, stalled + 1)
            if stalled > 1000 and best <= 1e-12 * lam:
                return lam - shift, x
        shift = lam
    raise InvalidInputError("power iteration failed to converge; "
                            "is the transfer matrix strictly positive?")


@dataclass(frozen=True, eq=False)
class MarkovGibbsModel:
    """Stationary Markov measure for a potential on symbol pairs.

    Parameters
    ----------
    potential : array_like, shape (m, m)
        Log-weights f(a, b); the transfer matrix exp(f) must be strictly
        positive, which holds for any finite potential.
    """

    potential: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.potential, dtype=np.float64)
        if f.ndim != 2 or f.shape[0] != f.shape[1] or f.shape[0] < 2:
            raise InvalidInputError(
                f"potential must be square of size >= 2, got shape {f.shape}"
            )
        if not np.all(np.isfinite(f)):
            raise InvalidInputError("potential entries must be finite")
        f = f.copy()
        f.setflags(write=False)
        transfer = np.exp(f)
        lam, h = _perron(transfer)
        _, v = _perron(transfer.T)
        pi = v * h
        pi /= pi.sum()
        trans = transfer * h[np.newaxis, :] / (lam * h[:, np.newaxis])
        trans /= trans.sum(axis=1, keepdims=True)  # absorb roundoff
        object.__setattr__(self, "potential", f)
        object.__setattr__(self, "_lambda", float(lam))
        object.__setattr__(self, "_h", h)
        object.__setattr__(self, "_pi", pi)
        object.__setattr__(self, "_trans", trans)

    @property
    def m(self):
        return self.potential.shape[0]

    def initial_probs(self):
        return self._pi.copy()

    def transition_probs(self):
        return self._trans.copy()

    @property
    def gibbs_constant(self):
        """a <= mu(C_i) / exp(-kP + S_k f(i)) <= 1/a for all words i."""
        rho = self._lambda * self._pi / self._h
        return float(min(np.min(rho), np.min(1.0 / rho)))


def pressure(model):
    """log of the Perron root of the transfer matrix exp(potential)."""
    if isinstance(model, BernoulliModel):
        # i.i.d. weights p_i correspond to f(a, b) = log p_b, with root 1.
        return 0.0
    return float(np.log(model._lambda))


def _word(m, word):
    """The word as a tuple, each symbol checked to lie in 1..m."""
    word = tuple(word)
    for sym in word:
        if not 1 <= sym <= m:
            raise InvalidInputError(f"symbol {sym} outside 1..{m}")
    return word


def birkhoff_sum(model, word):
    """S_k f along a word, closing the final term with log h(last symbol).

    The k-th term of the orbit sum depends on the symbol after the word
    ends; summing the transfer weights over all continuations replaces it
    by log(lambda h), and the constant lambda is carried by the pressure
    term, leaving log h of the final symbol.  A Bernoulli model is the
    chain of `pressure`, f(a, b) = log p_b with h = 1, so the sum is
    that of log p over every symbol but the first.
    """
    word = _word(model.m, word)
    if not word:
        raise InvalidInputError("need a nonempty word")
    if isinstance(model, BernoulliModel):
        f, h = np.log(model.transition_probs()), np.ones(model.m)
    else:
        f, h = model.potential, model._h
    total = 0.0
    for a, b in zip(word, word[1:]):
        total += f[a - 1, b - 1]
    return float(total + np.log(h[word[-1] - 1]))


def cylinder_mass(model, word):
    """mu(C_i) for a finite word i (1-based symbols)."""
    word = _word(model.m, word)
    if not word:
        return 1.0
    init = model.initial_probs()
    trans = model.transition_probs()
    mass = init[word[0] - 1]
    for a, b in zip(word, word[1:]):
        mass *= trans[a - 1, b - 1]
    return float(mass)


def _check_symbols(m):
    """Words can be drawn over at most _MAX_SYMBOLS symbols."""
    if m > _MAX_SYMBOLS:
        raise InvalidInputError(
            f"words are uint8, so at most {_MAX_SYMBOLS} maps can be "
            f"sampled, got {m}")


def _check_model(ifs, model):
    if model.m != ifs.m:
        raise InvalidInputError(
            f"model has {model.m} symbols but the system has {ifs.m} maps")


def log_prob_tables(model):
    """(log initial, log transition) tables for enumeration code."""
    return np.log(model.initial_probs()), np.log(model.transition_probs())


def quasi_bernoulli_constant(model):
    """Constant a with a^3 <= mu(C_ij) / (mu(C_i) mu(C_j)) <= a^-3.

    For the Markov family the concatenation ratio equals
    P(last(i) -> first(j)) / pi(first(j)), so the extreme ratios over the
    transition table give the exact bound for all word pairs at every
    depth; Bernoulli models return 1.
    """
    c_min, c_max = product_ratio_bounds(model)
    return float(min(c_min, 1.0 / c_max) ** (1.0 / 3.0))


def product_ratio_bounds(model):
    """(c_min, c_max) bounding mu(C_ij) / (mu(C_i) mu(C_j)) over all i, j."""
    ratios = model.transition_probs() / model.initial_probs()[np.newaxis, :]
    return float(ratios.min()), float(ratios.max())


def sample_word(model, depth, rng):
    """One word of the given depth drawn from the model, as a tuple."""
    return tuple(int(s) for s in sample_words(model, 1, depth, rng)[0])


def sample_words(model, count, depth, rng):
    """i.i.d. words as an array of shape (count, depth), symbols 1-based."""
    return draw_words(model, count, depth, lambda j: rng.random(count))


def draw_words(model, count, depth, uniforms):
    """Words by inverse CDF, symbol j read off the uniforms `uniforms(j)`.

    `uniforms(j)` returns `count` values in [0, 1) for level j, so the
    caller picks the source: a numpy Generator or indexed counter streams.
    The (count, depth) result is the transpose of a level-major array, so
    each level's symbols `words[:, j]` are contiguous.

    Symbol j is the number of entries of its transition-CDF row at or
    below u, counted one column at a time.  A column that is the same for
    every previous symbol, as every column of a Bernoulli model is, is
    one scalar threshold; the others are gathered by the previous
    symbols, cast to indices once per level.
    """
    if depth < 1:
        raise InvalidInputError(f"depth must be >= 1, got {depth}")
    _check_symbols(model.m)
    log_init, log_trans = log_prob_tables(model)
    init_cdf = np.cumsum(np.exp(log_init))
    trans_cdf = np.cumsum(np.exp(log_trans), axis=1)
    init_cdf[-1] = trans_cdf[:, -1] = 1.0
    same = (trans_cdf == trans_cdf[0]).all(axis=0)
    thresholds = trans_cdf[0, same].tolist()
    cols = [np.ascontiguousarray(col) for col in trans_cdf.T[~same]]
    words = np.zeros((depth, count), dtype=np.uint8)
    words[0] = np.searchsorted(init_cdf, uniforms(0), side="right")
    for j in range(1, depth):
        u = uniforms(j)
        for t in thresholds:
            words[j] += u >= t
        if cols:
            prev = words[j - 1].astype(np.intp)
            for col in cols:
                words[j] += u >= col.take(prev)
    words += 1
    return words.T
