"""Multienergy integrals and the bounds that control them.

The central quantity is the nested integral

    I = int [ int...int k(i_1, ..., i_n, j)^{-1} dmu(i_1)...dmu(i_n) ]^{(q-1)/n} dmu(j)

where k is the product of phi^s over the join vertices of the n + 1 rays.
Finiteness of I for s near the theoretical dimension is what drives the
almost-sure lower bounds, so this module makes it observable: a Monte
Carlo estimator, an exact evaluator truncated at cylinder depth D, the
per-join-class product bound, the geometric-decay criterion on the level
sums, and a direct simulation of the transversality expectation bound.

Truncation convention: rays are represented by depth-D words; rays whose
words coincide have joins deeper than D, and the truncated kernel merges
them at depth D (a leaf shared by t rays contributes phi^{t-1}, matching
t - 1 unresolved join points).  The truncated integral is therefore
monotone nondecreasing in D.
"""

import functools
import math
from dataclasses import dataclass
from itertools import combinations_with_replacement, permutations

import numpy as np

from . import counterrng as crng
from .codespace import _class_shapes, _realize_encoding, _word_index, wedge
from .dimsolver import _check_levels, _check_q, _Levels
from .errors import (
    DepthInsufficientError,
    InvalidInputError,
    ResourceLimitError,
)
from .linalg import compose, phi_s
from .measures import _check_symbols, _word, draw_words, sample_words
from .numerics import _exp, fit_line
from .sampler import _add_levels

_MC_LABEL = "multienergy/mc"
_TRANS_LABEL = "multienergy/transversality"
_MAX_SERIES_COEFFS = 2 ** 17  # (n + 1) per tree vertex in the exact sum
_BATCHES = 32
_MAX_BATCH_UNIFORMS = 2 ** 24  # 128 MiB of float64 per Monte Carlo batch


def _check_s(s, dim, allow_dim=True):
    hi = dim if allow_dim else dim - 1e-12
    if not 0.0 < s <= hi:
        raise InvalidInputError(f"need s in (0, {dim}], got s={s}")
    if float(s) == int(s):
        raise InvalidInputError(
            f"s={s} is an integer; the transversality bounds behind these "
            "integrals require non-integer s"
        )


def _log_tables(ifs, model, s, depth):
    """log phi^s and log cylinder masses by level 0..depth and word index.

    Level d is an array over the m^d words of length d in `_Levels` order
    (first symbol most significant); level 0 holds the empty word.  Raises
    ResourceLimitError when m^depth exceeds the `_Levels` word budget.
    """
    levels = _Levels(ifs, model, depth)
    log_phi = [np.zeros(1), *levels._level_phis(s)]
    log_mass = [np.zeros(1)] + levels.logmass
    return log_phi, log_mass


def _log_kernels(log_phi, m, depth, codes):
    """log of the depth-truncated join kernel of tuples of depth-D words.

    codes holds base-m word indices (`_log_tables` order), sorted over the
    last axis.  Sorted rays meet their neighbours exactly at the join
    vertices: a vertex whose rays split into r child groups is the wedge
    of r - 1 adjacent pairs, and a full-depth word shared by t rays is the
    "wedge" of its t - 1 equal pairs (the merged unresolved joins).  So the
    kernel is the sum of log phi at the wedges of adjacent codes; for
    distinct rays it equals the plain join-set kernel.
    """
    flat = np.concatenate(log_phi[:depth + 1])
    starts = np.cumsum([0] + [lv.size for lv in log_phi[:depth]])
    a, b = codes[..., :-1], codes[..., 1:]
    # Levels from depth D up to each adjacent wedge (the prefixes differ).
    up = sum((a // m ** k != b // m ** k).astype(np.int64)
             for k in range(depth))
    return flat[starts[depth - up] + a // m ** up].sum(axis=-1)


@dataclass(frozen=True)
class MultiEnergyEstimate:
    value: float
    stderr: float
    n: int
    s: float
    q: float
    outer_power: float
    sample_count: int
    truncation_depth: int
    failures: int = 0
    attempts: int = 0


def _check_root(root, m, depth):
    if len(root) >= depth or any(sym not in range(1, m + 1) for sym in root):
        raise InvalidInputError(f"root {root} needs symbols in 1..{m} and "
                                f"length below depth {depth}")


def _check_nq(n, q):
    if n < 1:
        raise InvalidInputError(f"spread parameter must be >= 1, got n={n}")
    if not 1.0 < q <= n + 1.0:
        raise InvalidInputError(f"need 1 < q <= n + 1 = {n + 1}, got q={q}")


def _check_mc(ifs, s, n, q, samples, depth, inner=64, unresolved="resample"):
    """The input checks of mc_multienergy, which callers may run first."""
    _check_nq(n, q)
    _check_s(s, ifs.dim)
    if inner < 1:
        raise InvalidInputError(
            f"need at least 1 inner tuple per outer draw, got inner={inner}"
        )
    if unresolved not in ("resample", "collapse"):
        raise InvalidInputError(f"unknown unresolved mode {unresolved!r}")
    if samples < _BATCHES:
        raise InvalidInputError(
            f"need at least one outer draw per batch: {samples} < {_BATCHES}"
        )
    _check_levels(ifs.m, depth)
    _check_symbols(ifs.m)
    uniforms = depth * (samples // _BATCHES) * (1 + inner * n)
    if uniforms > _MAX_BATCH_UNIFORMS:
        raise ResourceLimitError(
            f"{uniforms} uniforms per batch, over the budget of "
            f"{_MAX_BATCH_UNIFORMS}; lower samples, inner, n or depth"
        )


def mc_multienergy(ifs, model, s, n, q, samples, depth, seed=0,
                   inner=64, unresolved="resample"):
    """Monte Carlo estimate of the order-n multienergy integral.

    For each outer ray j, an inner batch of `inner` independent n-tuples
    estimates the bracketed integral, the power (q-1)/n is applied to the
    inner mean, and outer draws are averaged; stderr comes from the spread
    across 32 independent batches.

    Each batch has its own numpy Generator and reads one block of
    depth * P * (1 + inner * n) uniforms, P = samples // 32: first
    the P outer words level by level, then, for each outer word in turn,
    its inner * n inner words level by level.

    unresolved controls tuples whose rays collide at `depth`: "resample"
    redraws the inner rays of all still-colliding tuples of a batch
    together, in up to 3 rounds after the block, and discards a tuple that
    still collides (counted in failures).  An outer draw left with no
    tuple is dropped, a batch left with no outer draw raises
    DepthInsufficientError, and failures above 1% of the `attempts` tuples
    abort the run.  "collapse" keeps every tuple under the depth-truncated
    kernel, which is the exact estimand of exact_truncated_multienergy.

    The kernel reads phi^s from a table of every word up to `depth`, so
    m^depth must stay within the 250,000-word budget of the solver's level
    table (depth <= 17 for m = 2); past it ResourceLimitError is raised
    before any sampling, as it is when a batch's block would pass
    2^24 uniforms.
    """
    _check_mc(ifs, s, n, q, samples, depth, inner, unresolved)
    if not 0 <= seed < 2 ** 64:  # the key derivation would wrap it
        raise InvalidInputError("seed must fit in 64 bits")
    per_batch = samples // _BATCHES
    power = (q - 1.0) / n
    m = ifs.m
    log_phi = _log_tables(ifs, model, s, depth)[0]

    def sorted_tuples(inner_codes, outer_codes):
        codes = np.sort(np.concatenate([inner_codes, outer_codes], axis=-1))
        return codes, (np.diff(codes) != 0).all(axis=-1)

    batch_means = []
    failures = 0
    for b in range(_BATCHES):
        rng = np.random.default_rng(crng.derive_key(seed, f"{_MC_LABEL}/{b}"))
        u = rng.random(depth * per_batch * (1 + inner * n))
        outer_u = u[:depth * per_batch].reshape(depth, per_batch)
        inner_u = u[depth * per_batch:].reshape(per_batch, depth, inner * n)
        outer = _word_index(
            draw_words(model, per_batch, depth, lambda j: outer_u[j]), m)
        outer = np.repeat(outer, inner).reshape(per_batch, inner, 1)
        inner_words = draw_words(model, per_batch * inner * n, depth,
                                 lambda j: inner_u[:, j].reshape(-1))
        codes, kept = sorted_tuples(
            _word_index(inner_words, m).reshape(per_batch, inner, n), outer)
        if unresolved == "collapse":
            kept[:] = True
        for _ in range(3):
            redo = np.nonzero(~kept)
            if not redo[0].size:
                break
            fresh = sample_words(model, redo[0].size * n, depth, rng)
            codes[redo], kept[redo] = sorted_tuples(
                _word_index(fresh, m).reshape(-1, n), outer[redo])
        failures += int((~kept).sum())
        terms = np.where(kept, np.exp(-_log_kernels(log_phi, m, depth, codes)),
                         0.0)
        counts = kept.sum(axis=1)
        drawn = counts > 0
        if not drawn.any():
            raise DepthInsufficientError(
                f"every tuple of a batch unresolved at depth {depth}"
            )
        batch_means.append(
            np.mean((terms[drawn].sum(axis=1) / counts[drawn]) ** power))
    attempts = per_batch * _BATCHES * inner
    if failures > 0.01 * attempts:
        raise DepthInsufficientError(
            f"{failures} of {attempts} tuples unresolved at depth {depth}; "
            "increase depth"
        )
    batch_means = np.asarray(batch_means)
    return MultiEnergyEstimate(
        value=float(batch_means.mean()),
        stderr=float(batch_means.std(ddof=1) / math.sqrt(_BATCHES)),
        n=n, s=float(s), q=float(q), outer_power=power,
        sample_count=per_batch * _BATCHES,
        truncation_depth=depth, failures=failures, attempts=attempts,
    )


def _check_exact(ifs, s, n, q, depth):
    """The input checks of exact_truncated_multienergy: n <= 170, so that
    n! is a finite double, and (n + 1) * vertices <= 2^17, the series
    coefficients the sum holds over the vertices of the depth-D tree."""
    _check_nq(n, q)
    _check_s(s, ifs.dim)
    n_vertices = (ifs.m ** (depth + 1) - 1) // (ifs.m - 1)
    if n > 170 or (n + 1) * n_vertices > _MAX_SERIES_COEFFS:
        raise ResourceLimitError(
            f"n = {n} at depth {depth}, over {n_vertices} tree vertices, "
            f"needs n <= 170 and (n+1) * vertices <= {_MAX_SERIES_COEFFS}")


def _series_mul(a, b):
    """Product of power series by coefficient on the last axis, truncated."""
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape))
    for i in range(a.shape[-1]):
        out[..., i:] += a[..., i:i + 1] * b[..., :a.shape[-1] - i]
    return out


def exact_truncated_multienergy(ifs, model, s, n, q, depth):
    """Exact depth-D truncation of the order-n multienergy integral.

    Sums over all (n + 1)-tuples of depth-D cylinders with the truncated
    kernel, the outer power applied exactly per outer cylinder, as products
    of exponential generating functions (Flajolet & Sedgewick, Analytic
    Combinatorics, ch. II) over the `_log_tables` levels.  With x carrying
    the cylinder masses, W_v(x) = sum_t W_v[t] x^t / t! sums t inner rays
    below vertex v times their kernel factors inside v's subtree:

        W_w = 1 + (exp(mu(w) x / phi_w) - 1) phi_w      (depth-D words w)
        W_v = 1 + (prod_c F_c - 1) phi_v,  F_c = 1 + (W_c - 1) / phi_v,

    phi_v = phi^s(v), since every occupied child past the first adds one
    join factor 1 / phi_v.  The outer ray's child is always occupied, so for
    outer word j, G_j = exp(mu(j) x / phi_j) times, at each vertex on j's
    path, the F of the children off the path; one pass down the levels
    gives every G_j, and the inner integral is n! [x^n] G_j.  Runs in
    O(m^D n^2) array work rather than the m^{D(n+1)} tuple enumeration.
    """
    _check_exact(ifs, s, n, q, depth)
    m = ifs.m
    log_phi, log_mass = _log_tables(ifs, model, s, depth)
    phi = [np.exp(lp)[:, None] for lp in log_phi]
    unit = np.eye(1, n + 1)[0]
    # exp(mu(w) x / phi_w) by coefficient, for every depth-D word w.
    ratio = np.exp(log_mass[depth] - log_phi[depth])[:, None]
    ray = ratio ** np.arange(n + 1) / [float(math.factorial(t))
                                       for t in range(n + 1)]
    # Up the levels: W - 1 at each vertex, and excl[d][:, c], the product of
    # the F of child c's siblings (the factors off a path through c).
    excl = [None] * (depth + 1)
    w_minus_1 = phi[depth] * (ray - unit)
    for d in range(depth, 0, -1):
        F = unit + w_minus_1.reshape(-1, m, n + 1) / phi[d - 1][:, None]
        siblings = [np.delete(F, c, axis=1).swapaxes(0, 1) for c in range(m)]
        excl[d] = np.stack([functools.reduce(_series_mul, kids)
                            for kids in siblings], axis=1)
        w_minus_1 = phi[d - 1] * (_series_mul(F[:, 0], excl[d][:, 0]) - unit)
    # Down the levels: every outer word's G at once.
    G = unit[None]
    for d in range(1, depth + 1):
        G = _series_mul(G[:, None], excl[d]).reshape(-1, n + 1)
    inner = float(math.factorial(n)) * _series_mul(G, ray)[:, n]
    return float(np.exp(log_mass[depth]) @ inner ** ((q - 1.0) / n))


def check_prop71_bound(ifs, model, s, q, join_class, depth):
    """Test the per-class product bound on the restricted multienergy sum.

    lhs sums kernel^{-1} * masses over ordered tuples of distinct depth-D
    rays below the class root in the class (`_class_lhs` on its shape); rhs
    is the closed-form product over the class levels.  Returns (lhs, rhs,
    holds) with holds = lhs <= rhs up to 1e-9 relative slack.
    """
    _check_q(q)
    n = join_class.spread
    if n < 2:
        raise InvalidInputError(f"class spread must be >= 2, got {n}")
    if n > q:
        raise InvalidInputError(
            f"class spread {n} exceeds q={q}; the bound requires q >= spread"
        )
    _check_root(join_class.root, ifs.m, depth)
    if max(join_class.levels) >= depth:
        raise InvalidInputError(
            f"depth {depth} cannot resolve a class with a join at level "
            f"{max(join_class.levels)}"
        )
    log_phi, log_mass = _log_tables(ifs, model, s, depth)
    lhs = _class_lhs(log_phi, log_mass, ifs.m, join_class.root, n,
                     join_class.encoding(), {})
    row = _prop71_row(log_phi, log_mass, ifs.m, q, join_class, lhs)
    return row.lhs, row.rhs, row.holds


def _class_sums(log_phi, log_mass, m, root, depth, n):
    """Restricted sums over ordered n-tuples of distinct depth-D rays below root.

    Returns {class encoding: (join class, sum of kernel^-1 * masses)} over
    every shape with n - 1 joins above depth D that `_class_shapes` lists;
    each class is built once, from its encoding (`_realize_encoding`).
    """
    levels = combinations_with_replacement(range(depth - len(root)), n - 1)
    shapes, nodes = {}, {}
    keys = set().union(*(_class_shapes(lv, m, shapes) for lv in levels))
    return {key: (_realize_encoding(key, root),
                  _class_lhs(log_phi, log_mass, m, root, n, key, nodes))
            for key in keys}


def _class_lhs(log_phi, log_mass, m, root, n, encoding, nodes):
    """Sum of kernel^-1 * masses over ordered n-tuples of one class shape.

    By induction on the shape tree: node (d, mult, kids) is an array over
    the depth-d vertices v below root of phi^s(v)^-mult times the sum, over
    injective assignments of its mult + 1 slots to v's children, of the
    product of slot values (a kid's array summed over the child's subtree,
    or a single ray's cylinder mass), divided by the permutations of
    identical slots; n! orders the rays.  nodes memoizes node arrays.
    """
    base, index = len(root), _word_index(root, m)

    def node_sum(node):
        if node in nodes:
            return nodes[node]
        d, mult, kids = node
        span, singles = m ** d, mult + 1 - len(kids)
        below = slice(index * span * m, (index + 1) * span * m)
        rays = np.exp(log_mass[base + d + 1][below]).reshape(span, m)
        slots = np.stack([node_sum(kid).reshape(span, m, -1).sum(axis=2)
                          for kid in kids] + [rays] * singles)
        # More kids than slots: no ray set realizes the shape.
        perms = permutations(range(m), mult + 1) if singles >= 0 else ()
        out = sum((slots[np.arange(mult + 1), :, list(perm)].prod(axis=0)
                   for perm in perms), np.zeros(span))
        same = list(kids) + [None] * singles
        out /= math.prod(math.factorial(same.count(k)) for k in set(same))
        block = slice(index * span, (index + 1) * span)
        nodes[node] = out * np.exp(-mult * log_phi[base + d][block])
        return nodes[node]

    (top,) = encoding
    return math.factorial(n) * float(node_sum(top).sum())


def _prop71_row(log_phi, log_mass, m, q, join_class, lhs):
    """Bound row of a class: closed-form rhs, holds = lhs <= rhs (rel 1e-9)."""
    root = join_class.root
    n = join_class.spread
    index = _word_index(root, m)
    out = math.exp(log_mass[len(root)][index]) ** ((q - n) / (q - 1.0))
    for level in join_class.levels:
        span = m ** (level - len(root))
        block = slice(index * span, (index + 1) * span)
        S = float(np.exp((1.0 - q) * log_phi[level][block]
                         + q * log_mass[level][block]).sum())
        out *= S ** (1.0 / (q - 1.0))
    return ClassBoundRow(join_class=join_class, lhs=lhs, rhs=out,
                         holds=bool(lhs <= out * (1.0 + 1e-9)))


@dataclass(frozen=True)
class ClassBoundRow:
    join_class: object
    lhs: float
    rhs: float
    holds: bool


def prop71_survey(ifs, model, s, q, depth, max_spread=4, root=()):
    """Product-bound check over every join class realized at this depth.

    For each spread 2..max_spread not above q (the bound's hypothesis), sums
    every class of distinct depth-D rays below the root by tree recursion over
    its shape (`_class_sums`) and compares it against its closed-form bound.
    Past m^depth = 250,000 words ResourceLimitError is raised before any work.
    """
    _check_q(q)
    if max_spread < 2:
        raise InvalidInputError("survey needs max_spread >= 2")
    root = tuple(root)
    _check_root(root, ifs.m, depth)
    log_phi, log_mass = _log_tables(ifs, model, s, depth)
    rows = []
    for n in [n for n in range(2, max_spread + 1) if n <= q]:
        found = _class_sums(log_phi, log_mass, ifs.m, root, depth, n)
        rows += [_prop71_row(log_phi, log_mass, ifs.m, q, *found[key])
                 for key in sorted(found)]
    return rows


@dataclass(frozen=True)
class DecayCheck:
    lambda_fit: float
    geometric: bool
    slope: float
    stderr: float


def _check_decay(ifs, k_max):
    """The input checks of check_decay_criterion."""
    if k_max < 3:
        raise InvalidInputError(f"need k_max >= 3 levels, got {k_max}")
    _check_levels(ifs.m, k_max)


def check_decay_criterion(ifs, model, s, q, k_max):
    """Fit log Phi_k(s, q) against k and flag geometric decay.

    A negative fitted slope with margin (2 stderr plus a small absolute
    floor) predicts a finite multienergy integral; the fitted
    lambda = exp(slope), inf past the float range, is exact for
    identical-map systems.
    """
    _check_q(q)
    _check_decay(ifs, k_max)
    levels = _Levels(ifs, model, k_max)
    ks = np.arange(1, k_max + 1, dtype=np.float64)
    logs = np.array(levels.log_sums(s, [q])[0])
    slope, stderr = fit_line(ks, logs)
    margin = 2.0 * stderr + 1e-3
    return DecayCheck(
        lambda_fit=_exp(slope),
        geometric=bool(slope < -margin),
        slope=slope,
        stderr=stderr,
    )


def simulate_transversality(ifs, fld, u, v, s, trials):
    """Empirical mean of |Pi(u) - Pi(v)|^{-s} against the meet-point bound.

    Draws `trials` independent displacement realizations from the field's
    seed, evaluates both truncated projections under each, and returns
    (empirical mean, phi^s(T_{u and v})^{-1}).  The transversality bound
    says the ratio of the two stays bounded as the meet deepens; the
    constant is not computed here, only observed.
    """
    _check_symbols(ifs.m)
    u, v = _word(ifs.m, u), _word(ifs.m, v)
    if u == v:
        raise InvalidInputError("need two distinct rays")
    if len(u) != len(v):
        raise InvalidInputError("rays must share a common depth")
    _check_s(s, ifs.dim, allow_dim=False)
    if trials < 1:
        raise InvalidInputError(f"need at least 1 trial, got {trials}")
    key = crng.derive_key(fld.seed, _TRANS_LABEL)
    idx = np.arange(trials, dtype=np.uint64)

    def positions(word):
        words = np.tile(np.asarray(word, dtype=np.uint8), (trials, 1))
        pos = np.zeros((trials, ifs.dim))
        _add_levels(ifs, crng.offset_states(key, idx), words,
                    fld.region_radius, pos)
        return pos

    gaps = np.linalg.norm(positions(u) - positions(v), axis=1)
    empirical = float(np.mean(gaps ** (-s)))
    bound = 1.0 / phi_s(compose(ifs, wedge(u, v)), s)
    return empirical, bound

