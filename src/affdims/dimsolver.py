"""Theoretical q-dimensions from singular-value moment sums.

The central object is the level sum

    Phi_k(s, q) = sum over words i of length k of
                  phi^s(T_i)^(1 - q) * mu(C_i)^q,

whose growth rate lambda(s) = lim_k Phi_k(s, q)^(1/k) is strictly
increasing in s (phi^s decreases and 1 - q < 0).  The q-dimension d_q is
the root of lambda(s) = 1; below it the level sums decay geometrically,
above they diverge.

For Bernoulli models Phi_k is supermultiplicative, and for the Markov
family it is after weighting by the quasi-Bernoulli constant, so
max_k Phi_k^(1/k) converges to the limit monotonically from below; the
solver bisects on that certified lower bound.  Setting q = 0 and dropping
the measure recovers the affinity (box-counting) sums, which are
submultiplicative instead, with the inequalities reversed.

All accumulation is in log space.  Enumeration is vectorized level by
level.
"""

import math
from dataclasses import dataclass

import numpy as np

from .codespace import _MAX_WORDS, _cut_set_products
from .errors import InvalidInputError, NoRootError, ResourceLimitError
from .linalg import _extend_products, log_phi_stack, singular_values_stack
from .measures import (BernoulliModel, _check_model, log_prob_tables,
                       product_ratio_bounds)
from .numerics import _exp, _logsumexp_into, logsumexp

_CUT_RHO = 0.5  # d_q_plus_cutset's radius ratio between cut-set levels


def _check_q(q):
    if not q > 1.0:
        raise InvalidInputError(f"moment sums need q > 1, got q={q}")


def _check_levels(m, k_max):
    """The depth of a level table, None for the deepest within the budget.

    Raises unless k_max >= 1 and its m^k_max words fit the word budget.
    """
    if k_max is None:
        k_max = max(1, int(math.log(_MAX_WORDS) / math.log(m)))
    if k_max < 1:
        raise InvalidInputError(f"depth must be >= 1, got {k_max}")
    if m ** k_max > _MAX_WORDS:
        raise ResourceLimitError(
            f"level {k_max} holds {m ** k_max} words, over the "
            f"budget of {_MAX_WORDS}"
        )
    return k_max


class _Levels:
    """Per-level log singular values and log cylinder masses up to k_max.

    Matrices and masses do not depend on (s, q), so one build serves every
    q and every bisection step; a level evaluation is then a single
    vectorized phi-and-dot pass.  At q = 0 the masses drop out (0 * log
    mass adds only -0.0), so any table also gives the affinity sums.

    Entry i of level k is the word whose base-m digits, first symbol most
    significant, are its symbols minus one, so word i m + b extends word i
    by symbol b.  Each level's products come from the last level's by one
    `_extend_products` step, which also gives their log singular values;
    the matrices are rebound as soon as the next exist, so the old stack
    is freed before another is built.

    A table holds the scratch its level sums are evaluated in: log phi^s
    of the levels reached at the current s (`_at`), as many floats as the
    table has words, and two float arrays and one bool array the size of
    its deepest level.  That is about 3.6 times the deepest `logmass` in bytes
    at m = 3 and 4.1 times at m = 2.  It is reused for every s and q, so
    that `log_sums` allocates nothing the size of a level.  The build
    makes it last, once its products are freed, so that it reuses their
    memory instead of raising the peak.  Every call writes that scratch,
    so a table is not for concurrent use.
    """

    def __init__(self, ifs, model, k_max=None):
        _check_model(ifs, model)
        k_max = _check_levels(ifs.m, k_max)
        log_init, log_trans = log_prob_tables(model)
        self._log_c_min = math.log(product_ratio_bounds(model)[0])
        base = ifs.matrix_stack()
        mats, logmass = base, log_init
        self.log_alphas = [np.log(singular_values_stack(base))]
        self.logmass = [logmass]
        logdet = base_logdet = self.log_alphas[0].sum(axis=-1)
        for _ in range(1, k_max):
            # The loop rebinds `_`, freeing this level's alphas.
            mats, logdet, _, log_alphas = _extend_products(
                mats, logdet, base, base_logdet)
            logmass = (logmass.reshape(-1, ifs.m, 1) + log_trans).reshape(-1)
            self.log_alphas.append(log_alphas)
            self.logmass.append(logmass)
        self.k_max = k_max
        self.dim = ifs.dim
        mats = logdet = _ = None  # freed, so the buffers reuse their memory
        self._lphi = [np.empty(lm.size) for lm in self.logmass]
        size = self.logmass[-1].size
        self._scratch = (np.empty(size), np.empty(size),
                         np.empty(size, dtype=bool))

    def _at(self, s):
        """Make s the s of later level-sum passes; each level's log phi^s
        is filled the first time a pass reaches that level."""
        self._s, self._filled = s, 0

    def _fill(self, s):
        """log phi^s of every level, written into and returned as scratch."""
        self._at(s)
        return list(self._level_phis())

    def _level_phis(self):
        """log phi^s of levels 1, 2, ... at the s of the last `_at`, each
        computed into the table's scratch the first time it is reached."""
        for k, (la, lphi) in enumerate(zip(self.log_alphas, self._lphi), 1):
            if k > self._filled:
                log_phi_stack(la, self._s, out=lphi)
                self._filled = k
            yield lphi

    def _level_sums(self, q):
        """log Phi_k(s, q) for k = 1, 2, ..., k_max at the s of the last
        `_at`, one level at a time: each level's exponent (1 - q) log phi^s
        + q log mu is formed and summed in the table's scratch."""
        for lphi, lm in zip(self._level_phis(), self.logmass):
            expo, prod, ties = (a[:lm.size] for a in self._scratch)
            np.multiply(lphi, 1.0 - q, out=expo)
            expo += np.multiply(lm, q, out=prod)
            yield _logsumexp_into(expo, ties)

    def log_sums(self, s, qs):
        """log Phi_k(s, q) for k = 1..k_max, one list for each q of qs.

        log phi^s of every level is computed once for all of qs.
        """
        self._at(s)
        return [list(self._level_sums(q)) for q in qs]

    def log_growth(self, sums, q, exact=True):
        """log of the growth estimate from one q's level sums: for q > 1 the
        certified lower bound of `growth_rate`, for the affinity sums
        (q = 0) min_k Phi_k^(1/k), an upper bound since those sums are
        submultiplicative.

        With exact false only the sign is asked for.  The sums are then
        read from k = 1 up, and the first term that settles the sign (one
        above 0 for q > 1, below 0 for q = 0) returns inf or -inf without
        reading the rest, so an iterator of sums is evaluated no deeper.
        Where no term settles it, the result is the exact growth.
        """
        if q == 0.0:
            sign, pick = -1.0, min
            terms = (v / k for k, v in enumerate(sums, 1))
        else:
            sign, pick, log_w = 1.0, max, q * self._log_c_min
            terms = ((v + log_w) / k for k, v in enumerate(sums, 1))
        read = []
        for term in terms:
            if not exact and sign * term > 0.0:
                return sign * math.inf
            read.append(term)
        return pick(read)

    def _growth(self, q, exact):
        """`log_growth` of q at the s of the last `_at`, its levels summed
        only as deep as it reads them."""
        return self.log_growth(self._level_sums(q), q, exact)

    def _shared_growths(self, qs):
        """The sign-only log growth (`log_growth` with exact false) at the
        s of the last `_at` of each q > 1 of qs, or -inf or inf where
        another q's growth settles its sign.

        For q > 1, fixed s and each k,

            (c_min^q Phi_k)^(1/(q-1)) = c_min^(q/(q-1)) M(q),
            M(q) = (sum_w mu_w (mu_w / phi^s(T_w))^(q-1))^(1/(q-1)),

        where M is a power mean with weights mu_w (which sum to 1), so
        nondecreasing in q, as is the first factor (c_min <= 1).  So the
        sign of every term of the maximum in `log_growth`, and hence of
        the growth, is nondecreasing in q: a negative growth at q makes
        every smaller q's negative and a positive one every larger q's
        positive.  The largest q is evaluated first, then the smallest,
        then the middle of those still open; a growth of exactly 0
        settles no other q.  Each evaluated q's pass stops at the first
        level whose term is positive, so the levels a pass never reaches
        get no log phi^s at this s unless another q reaches them.
        """
        growths, rest, probes = {}, sorted(qs), 0
        while rest:
            i = (len(rest) - 1, 0, len(rest) // 2)[min(probes, 2)]
            probes += 1
            q = rest[i]
            h = growths[q] = self._growth(q, exact=False)
            if h < 0.0:
                growths.update(dict.fromkeys(rest[:i], -math.inf))
                rest = rest[i + 1:]
            elif h > 0.0:
                growths.update(dict.fromkeys(rest[i + 1:], math.inf))
                rest = rest[:i]
            else:
                del rest[i]
        return growths

    def _bisection(self, q, tol):
        """The bisection of one q as a generator: it yields (s, exact) for
        each s it needs and is sent the log growth there, or, for exact
        false, -inf or inf when only its sign is known.  Each step
        compares the signed log growth h, increasing in s, with 0.
        An end of the result or of an error text whose growth is only a
        sign is asked for again, exactly; only the result's two growths
        are exponentiated, so no q overflows."""
        if q != 0.0:
            _check_q(q)
        sign = -1.0 if q == 0.0 else 1.0

        def evaluated(s, h):
            if math.isinf(h):  # only its sign was sent: ask for h itself
                h = sign * (yield s, True)
            return h

        weight = q * self._log_c_min
        where = f"at table depth {self.k_max}" + (
            f" (weight q log c_min {weight:.6g})" if weight else "")
        s_lo, s_hi = 1e-6, 2.0 * self.dim
        h_lo = sign * (yield s_lo, False)
        h_hi = sign * (yield s_hi, False)
        if h_lo >= 0.0:
            h_lo = yield from evaluated(s_lo, h_lo)
            raise NoRootError(f"no bracket {where}: log growth at s={s_lo} "
                              f"is already {sign * h_lo:.6g}")
        for _ in range(3):
            if h_hi > 0.0:
                break
            s_hi *= 2.0
            h_hi = sign * (yield s_hi, False)
        if h_hi <= 0.0:
            h_hi = yield from evaluated(s_hi, h_hi)
            raise NoRootError(f"no bracket {where}: log growth at s={s_hi} "
                              f"is still {sign * h_hi:.6g}")
        iterations = max(1, math.ceil(math.log2((s_hi - s_lo) / tol)))
        for _ in range(iterations):
            mid = 0.5 * (s_lo + s_hi)
            if not s_lo < mid < s_hi:
                break  # a fixed point: every later step would repeat this one
            h_mid = sign * (yield mid, False)
            if h_mid < 0.0:
                s_lo, h_lo = mid, h_mid
            else:
                s_hi, h_hi = mid, h_mid
            if s_hi - s_lo <= tol:
                break
        h_lo = yield from evaluated(s_lo, h_lo)
        h_hi = yield from evaluated(s_hi, h_hi)
        return DimensionResult(
            value=0.5 * (s_lo + s_hi), q=float(q), bracket=(s_lo, s_hi),
            depth=self.k_max, iterations=iterations,
            growth_lo=_exp(sign * h_lo), growth_hi=_exp(sign * h_hi),
        )

    def solve_many(self, qs, tol):
        """Bisect the growth estimate for its root in s for every q of qs:
        d_q for q > 1, the affinity dimension for q = 0 (where the growth
        decreases in s).  The bisections run in lockstep.

        Each step groups the distinct q's by the s they ask for next, so a
        repeated q is solved once.  Within a group, one evaluated q > 1
        settles the sign of the others' log growth where it can
        (`_shared_growths`); q = 0 is evaluated on its own.  A growth
        asked for its sign only, q = 0 included, stops at the first level
        that settles it, and a level's log phi^s is computed once for the
        group, when its first q reaches that level.  The sharing and the
        early stop hold for the `log_growth` rule only: another growth
        rule may share signs only if its sign is nondecreasing in q too,
        and may stop early only if one level can settle its sign, as one
        term of a max or min does.  A step reads only the sign, and a
        bracket end that is only a sign is asked for again exactly, so
        every q takes the same steps on the same floats as alone, unless
        a growth within rounding of 0 breaks that monotonicity in floats.
        If some q fails, the error of the first failing q of qs is
        raised.
        """
        if not 0.0 < tol < math.inf:
            raise InvalidInputError(f"need a tolerance tol in (0, inf), "
                                    f"got {tol}")
        runs = {q: self._bisection(q, tol) for q in dict.fromkeys(qs)}
        outcome = {}  # q -> its DimensionResult or the error it raised
        asked = {}  # q -> the (s, exact) its bisection waits for

        def advance(q, growth):
            try:
                asked[q] = runs[q].send(growth)
            except StopIteration as stop:
                outcome[q] = stop.value
            except (InvalidInputError, NoRootError) as exc:
                outcome[q] = exc

        for q in runs:
            advance(q, None)
        while asked:
            groups = {}
            for q, (s, exact) in asked.items():
                groups.setdefault(s, []).append((q, exact))
            asked.clear()
            for s, group in groups.items():
                self._at(s)
                growths = self._shared_growths(
                    [q for q, exact in group if q != 0.0 and not exact])
                for q, exact in group:
                    advance(q, growths[q] if q in growths else
                            self._growth(q, exact))
        for q in qs:
            if isinstance(outcome[q], Exception):
                raise outcome[q]
        return [outcome[q] for q in qs]


def _flag_kinks(qs, values, tol):
    """The kink rule of `phase_transition_scan` on solved values."""
    steps = np.diff(qs)
    jumps = np.abs(np.diff(np.diff(values) / steps))
    threshold = 5.0 * (4.0 * tol / steps.min())
    # One flag per contiguous run above threshold, at its first largest jump.
    above = np.flatnonzero(jumps > threshold)
    runs = np.split(above, np.flatnonzero(np.diff(above) > 1) + 1)
    kinks = [qs[run[np.argmax(jumps[run])] + 1] for run in runs if run.size]
    return PhaseScan(
        qs=tuple(qs), values=tuple(values), kink_qs=tuple(kinks),
        threshold=float(threshold),
    )


def _check_grid(q_grid):
    """The grid as floats; raise unless it is a scan grid."""
    qs = [float(x) for x in q_grid]
    if len(qs) < 3:
        raise InvalidInputError("need at least 3 grid points to flag kinks")
    if any(b <= a for a, b in zip(qs, qs[1:])):
        raise InvalidInputError("q grid must be strictly increasing")
    for q in qs:
        _check_q(q)
    return qs


@dataclass(frozen=True)
class MomentSumTable:
    """Level sums Phi_1..Phi_k_max at fixed (s, q)."""

    s: float
    q: float
    sums: tuple

    @property
    def k_max(self):
        return len(self.sums)


def moment_table(ifs, model, s, q, k_max):
    """All level sums up to k_max at fixed (s, q), inf past the float range."""
    _check_q(q)
    levels = _Levels(ifs, model, k_max)
    sums = tuple(_exp(v) for v in levels.log_sums(s, [q])[0])
    return MomentSumTable(s=float(s), q=float(q), sums=sums)


def moment_sum(ifs, model, s, q, k):
    """Phi_k(s, q) = sum over level-k words of phi^s(T_i)^(1-q) mu(C_i)^q,
    inf past the float range."""
    return moment_table(ifs, model, s, q, k).sums[-1]


def growth_rate(ifs, model, s, q, k_max=None):
    """Estimate of lim_k Phi_k(s, q)^(1/k), inf past the float range.

    Uses the supermultiplicative lower bound max_k (w Phi_k)^(1/k), where
    the weight w is 1 for Bernoulli models and the q-th power of the
    quasi-Bernoulli concatenation bound for Markov models; the bound
    increases to the true limit as k_max grows.
    """
    _check_q(q)
    levels = _Levels(ifs, model, k_max)
    return _exp(levels.log_growth(levels.log_sums(s, [q])[0], q))


@dataclass(frozen=True)
class DimensionResult:
    """Root of the growth-rate equation with solver diagnostics.

    bracket holds the final (s_lo, s_hi) of the bisection on the growth
    estimate at the fixed depth k_max (the depth field), with growth below
    1 on the left and above 1 on the right; value is the bracket midpoint.
    The bracket bounds the root of that depth-k_max estimate, not d_q: it
    is not an error bar on d_q.

    The estimate sits on a known side.  For d_q (q > 1) the growth
    estimate is a lower bound of lambda(s), which increases in s, so its
    root lies at or above d_q.  For the affinity dimension it is an upper
    bound of a growth that decreases in s, so its root again lies at or
    above the true value.  Either way value is an upper estimate (to
    within half the bracket width) that does not increase as k_max grows.
    """

    value: float
    q: float
    bracket: tuple
    depth: int
    iterations: int
    growth_lo: float
    growth_hi: float


def d_q_minus(ifs, model, q, tol=1e-4, k_max=None):
    """The q-dimension: unique root of lim Phi_k(s, q)^(1/k) = 1.

    Bisects on the supermultiplicative lower-bound growth estimate at depth
    k_max; the bracket narrows to width tol around the root.
    """
    _check_q(q)
    return _Levels(ifs, model, k_max).solve_many([q], tol)[0]


def affinity_dimension(ifs, tol=1e-4, k_max=None):
    """Root of the plain singular-value sums sum phi^s(T_i) over levels.

    These sums are submultiplicative (growth decreasing in s), so the
    per-level estimates approach the limit from above; the bisection uses
    the smallest computed level estimate.  The table carries the uniform
    measure, whose masses drop out at q = 0.
    """
    uniform = BernoulliModel(probs=(1.0 / ifs.m,) * ifs.m)
    return _Levels(ifs, uniform, k_max).solve_many([0.0], tol)[0]


def dq_identical_selfadjoint(alphas, probs, q):
    """Closed-form d_q when all maps equal one self-adjoint contraction.

    Solves phi^d(T) = (sum_i p_i^q)^(1/(q-1)) branch by branch; alphas are
    the eigenvalue magnitudes of the repeated map, decreasing.
    """
    _check_q(q)
    alphas = np.asarray(alphas, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    log_t = float(np.log(np.sum(probs ** q)) / (q - 1.0))
    logs = np.log(alphas)
    cum = 0.0
    for j, la in enumerate(logs, start=1):
        if log_t >= cum + la:
            return float(j - 1 + (log_t - cum) / la)
        cum += la
    return float(alphas.size * log_t / cum)


@dataclass(frozen=True)
class CutSetSum:
    r: float
    value: float
    size: int


def d_q_plus_cutset(ifs, model, q, s, l_max=8):
    """Moment sums over the cut sets J^s(2^-l) for l = 1..l_max.

    Reported as diagnostics: bounded sums down the ladder support s below
    the upper dimension, growth indicates s above it; no root is sought.
    Sums are taken in log space, as `_Levels` does, and are inf past the
    float range.  The ladder stops before the first radius whose cut set
    is over the word budget and returns the rows finished above it; only
    a first radius (r = 1/2) over the budget raises ResourceLimitError.
    """
    _check_q(q)
    _check_model(ifs, model)
    if l_max < 1:
        raise InvalidInputError(f"l_max must be >= 1, got {l_max}")
    log_init, log_trans = log_prob_tables(model)
    out = []
    for level in range(1, l_max + 1):
        r = _CUT_RHO ** level
        try:
            cut = _cut_set_products(ifs, s, r)
        except ResourceLimitError:
            if not out:
                raise
            break
        terms = []
        for words, log_alphas in cut:
            idx = words - 1
            logmass = (log_init[idx[:, 0]]
                       + log_trans[idx[:, :-1], idx[:, 1:]].sum(axis=-1))
            terms.append((1.0 - q) * log_phi_stack(log_alphas, s)
                         + q * logmass)
        terms = np.concatenate(terms)
        out.append(CutSetSum(r=r, value=_exp(logsumexp(terms)),
                             size=terms.size))
    return out


@dataclass(frozen=True)
class PhaseScan:
    """d_q along a q-grid with slope-discontinuity flags."""

    qs: tuple
    values: tuple
    kink_qs: tuple
    threshold: float


def phase_transition_scan(ifs, model, q_grid, tol=1e-4, k_max=None):
    """Solve d_q along a grid and flag slope discontinuities.

    The grid needs at least 3 strictly increasing points, each above 1.
    A kink is flagged where the jump between adjacent secant slopes
    exceeds five times the noise floor implied by the solver tolerance
    (each solved value is only known to within tol, so each slope carries
    up to 2 tol / dq of slack).
    """
    qs = _check_grid(q_grid)
    solved = _Levels(ifs, model, k_max).solve_many(qs, tol)
    return _flag_kinks(qs, [res.value for res in solved], tol)
