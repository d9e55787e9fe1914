"""Words, cylinders, join sets, and cut sets on the m-ary code space.

Words are tuples of 1-based symbols from {1, ..., m}.  A "ray" is a finite
word standing in for an infinite sequence; operations that compare rays
require them to be long enough that no ray is a prefix of another.

The join set of n rays collects their pairwise meet points: each vertex v
that is the exact meet of at least one pair enters with multiplicity r - 1,
where r is the number of child subtrees of v occupied by the rays (the
largest number of rays that pairwise meet exactly at v).  Total multiplicity
is always n - 1, and the vertex set is closed under pairwise meets.

One meet rule serves every tree computation here: in lexicographic order
the wedge of two words is the shortest wedge of adjacent words between
them.  So sorted rays meet their neighbours exactly at the join vertices
(r occupied child subtrees give r - 1 adjacent pairs), a vertex set is
meet-closed when the wedges of its adjacent sorted vertices belong to it,
and sorted vertices come in tree preorder.

A join class is a join set up to automorphisms of the rooted tree, i.e. up
to permuting child subtrees below the root; the canonical form is a
recursive child-sorted encoding.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, ResourceLimitError
from .linalg import _extend_products, compose, phi_s, singular_values_stack

_MAX_WORDS = 250_000  # per solver level, and kept plus pending per descent
_MAX_JOIN_LEVELS = 9  # join points count_join_configurations accepts


def wedge(u, v):
    """Longest common prefix of two words."""
    u, v = tuple(u), tuple(v)
    k = 0
    while k < min(len(u), len(v)) and u[k] == v[k]:
        k += 1
    return u[:k]


def is_prefix(u, v):
    """True if u is a (non-strict) prefix of v."""
    u, v = tuple(u), tuple(v)
    return len(u) <= len(v) and v[: len(u)] == u


def all_words(m, k):
    """All words of length k over {1..m} in lexicographic order."""
    return list(itertools.product(range(1, m + 1), repeat=k))


def _word_index(words, m):
    """Base-m index over the last axis, first symbol most significant, by
    Horner's rule in place in intp: uint8 words are read, never copied."""
    words = np.asarray(words)
    code = np.zeros(words.shape[:-1], dtype=np.intp)
    for j in range(words.shape[-1]):
        code *= m
        code += words[..., j]
        code -= 1
    return code[()]


@dataclass(frozen=True)
class JoinSet:
    """A multiset of tree vertices closed under pairwise meets.

    Parameters
    ----------
    root : tuple
        Vertex below which the whole configuration lives; every vertex must
        extend it.  The root itself may or may not be a vertex.
    vertices : tuple of (word, multiplicity)
        Distinct vertices with positive multiplicities, stored sorted.
    """

    root: tuple
    vertices: tuple

    def __post_init__(self):
        root = tuple(self.root)
        verts = {tuple(w): int(mult) for w, mult in self.vertices}
        if any(mult < 1 for mult in verts.values()):
            raise InvalidInputError("vertex multiplicities must be >= 1")
        for w in verts:
            if not is_prefix(root, w):
                raise InvalidInputError(f"vertex {w} does not extend root {root}")
        words = sorted(verts)
        for u, v in zip(words, words[1:]):
            if wedge(u, v) not in verts:
                raise InvalidInputError(
                    f"not meet-closed: wedge of {u} and {v} missing"
                )
        object.__setattr__(self, "root", root)
        object.__setattr__(
            self, "vertices", tuple((w, verts[w]) for w in words)
        )

    @property
    def total_multiplicity(self):
        return sum(mult for _, mult in self.vertices)

    @property
    def spread(self):
        """Number of rays that would produce this join set: points + 1."""
        return self.total_multiplicity + 1

    def levels(self):
        """Sorted multiset of vertex depths, counted with multiplicity."""
        return tuple(sorted(len(w) for w, mult in self.vertices
                            for _ in range(mult)))


def join_set(words, root=()):
    """Join set of n distinct rays.

    Parameters
    ----------
    words : sequence of words
        At least two rays, pairwise distinct, each long enough that no ray
        is a prefix of another (otherwise the meet is unresolved and an
        error is raised).
    root : tuple, optional
        Root vertex; all rays must extend it.
    """
    # A duplicate or a prefix sorts next to the ray it extends.
    rays = sorted(tuple(w) for w in words)
    if len(rays) < 2:
        raise InvalidInputError(f"need at least 2 rays, got {len(rays)}")
    root = tuple(root)
    for r in rays:
        if not is_prefix(root, r):
            raise InvalidInputError(f"ray {r} does not extend root {root}")
    verts = {}
    for u, v in zip(rays, rays[1:]):
        w = wedge(u, v)
        if len(w) == min(len(u), len(v)):
            raise InvalidInputError(
                f"rays {u} and {v} do not diverge within their length; "
                "extend them to resolve the join"
            )
        verts[w] = verts.get(w, 0) + 1
    return JoinSet(root=root, vertices=tuple(verts.items()))


def multienergy_kernel(ifs, s, words):
    """Product of phi^s over the join vertices of a family of rays.

    A single ray has an empty join set and kernel 1.  Vertices are weighted
    by multiplicity, so n rays contribute n - 1 factors in total.
    """
    rays = [tuple(w) for w in words]
    if len(rays) == 0:
        raise InvalidInputError("need at least one ray")
    if len(rays) == 1:
        return 1.0
    return kernel_of_join_set(ifs, s, join_set(rays))


def kernel_of_join_set(ifs, s, jset):
    """Kernel value for an explicit join set."""
    out = 1.0
    for w, mult in jset.vertices:
        out *= phi_s(compose(ifs, w), s) ** mult
    return out


def cut_set(ifs, s, r):
    """The stopping set J^s(r): minimal words with alpha_j(T_w) <= r.

    With j = ceil(s), descends the tree and keeps each word at the first
    level where the j-th singular value of the composed map drops to r or
    below.  Every infinite ray passes through exactly one member, and each
    member w satisfies a_minus * r < alpha_j(T_w) <= r.  Returns the
    members as sorted tuples.
    """
    return sorted(tuple(w) for words, _ in _cut_set_products(ifs, s, r)
                  for w in words.tolist())


def _cut_set_products(ifs, s, r):
    """J^s(r) as one (words, log_alphas) pair per level; see cut_set.

    Level l's members are an (n, l) array of 1-based symbols, with the log
    singular values of their products from `_extend_products`.  Every
    pending word is extended by every map at once, and stops where alpha_j
    read off its product is at most r.  Kept plus next-level words exceed
    the budget exactly when the cut set does.
    """
    if not 0.0 < s <= ifs.dim:
        raise InvalidInputError(f"cut sets need 0 < s <= {ifs.dim}, got s={s}")
    if not 0.0 < r < 1.0:
        raise InvalidInputError(f"radius must lie in (0, 1), got {r}")
    j = math.ceil(s)
    m = ifs.m
    symbols = np.arange(1, m + 1)
    base = ifs.matrix_stack()
    base_logdet = np.log(singular_values_stack(base)).sum(axis=-1)
    words = np.zeros((1, 0), dtype=np.int64)
    mats, logdet = np.eye(ifs.dim)[np.newaxis], np.zeros(1)
    out, kept = [], 0
    while len(words):
        if kept + m * len(words) > _MAX_WORDS:
            raise ResourceLimitError(
                f"cut set for r={r} exceeds budget of {_MAX_WORDS} words"
            )
        words = np.column_stack(
            [np.repeat(words, m, axis=0), np.tile(symbols, len(words))])
        mats, logdet, alphas, log_alphas = _extend_products(
            mats, logdet, base, base_logdet)
        stop = alphas[:, j - 1] <= r
        out.append((words[stop], log_alphas[stop]))
        kept += int(stop.sum())
        go = ~stop
        words, mats, logdet = words[go], mats[go], logdet[go]
    return out


# ---------------------------------------------------------------------------
# Join classes: join sets up to root-preserving tree automorphisms.


@dataclass(frozen=True)
class JoinClass:
    """A join set up to child-permuting automorphisms below its root.

    canonical_form is a concrete representative rooted at the same root;
    two join sets are related by an automorphism iff their classes compare
    equal.  levels is the absolute depth multiset, spread the ray count.
    """

    root: tuple
    canonical_form: JoinSet
    spread: int
    levels: tuple

    def encoding(self):
        """Root-relative canonical encoding (hashable, root-independent)."""
        return _encode_join_set(self.canonical_form)


def _encode_join_set(jset):
    verts = dict(jset.vertices)
    rootlen = len(jset.root)
    children = {None: [], **{w: [] for w in verts}}
    ancestors = [None]
    # Sorted vertices come in tree preorder; None stands above the tops.
    for w in verts:
        while ancestors[-1] is not None and not is_prefix(ancestors[-1], w):
            ancestors.pop()
        children[ancestors[-1]].append(w)
        ancestors.append(w)

    def enc(w):
        kids = tuple(sorted(enc(u) for u in children[w]))
        return (len(w) - rootlen, verts[w], kids)

    return tuple(sorted(enc(t) for t in children[None]))


def _realize_encoding(encoding, root):
    """The join class of a canonical encoding, laid out below root: the one
    constructor of JoinClass.  Child subtrees take branches 1, 2, ... in
    encoding order, so equal encodings give equal classes.
    """
    verts = {}

    def place(parent_word, parent_depth, node, branch):
        depth, mult, kids = node
        if depth == parent_depth:
            word = parent_word
        else:
            word = parent_word + (branch,) + (1,) * (depth - parent_depth - 1)
        verts[word] = verts.get(word, 0) + mult
        for idx, kid in enumerate(kids):
            place(word, depth, kid, idx + 1)

    for idx, node in enumerate(encoding):
        place(tuple(root), 0, node, idx + 1)
    rep = JoinSet(root=root, vertices=tuple(verts.items()))
    return JoinClass(root=rep.root, canonical_form=rep, spread=rep.spread,
                     levels=rep.levels())


def canonical_join_class(jset):
    """Canonical class of a join set under root-preserving automorphisms:
    its encoding realized below the same root (`_realize_encoding`)."""
    return _realize_encoding(_encode_join_set(jset), jset.root)


# ---------------------------------------------------------------------------
# Counting join configurations with a prescribed level multiset.


def _multiset_partitions(items, max_parts):
    """Unordered partitions of a sorted tuple into <= max_parts nonempty parts.

    Yields partitions as tuples of sorted tuples; duplicates may repeat
    (callers dedupe on the derived encodings).
    """
    if not items:
        yield ()
        return
    if max_parts <= 0:
        return
    first, rest = items[0], items[1:]
    # Subsets of rest joining `first` in its part, then recurse on the rest.
    n = len(rest)
    for mask in range(1 << n):
        part = [first] + [rest[i] for i in range(n) if mask >> i & 1]
        remainder = tuple(rest[i] for i in range(n) if not mask >> i & 1)
        for tail in _multiset_partitions(remainder, max_parts - 1):
            yield (tuple(part),) + tail


def _class_shapes(levels, m, _cache=None):
    """Canonical encodings of ray-realizable join classes with these levels.

    A shape is realizable in the m-ary tree iff at each vertex the number
    of occupied child subtrees, multiplicity + 1, is at most m, and its
    subtree children fit among those slots.
    """
    if _cache is None:
        _cache = {}
    key = (tuple(levels), m)
    if key in _cache:
        return _cache[key]
    lv = tuple(sorted(levels))
    top = lv[0]
    mu = sum(1 for x in lv if x == top)
    rest = lv[mu:]
    shapes = set()
    slots = mu + 1
    if slots <= m:
        for parts in _multiset_partitions(rest, slots):
            choice_sets = [
                sorted(_class_shapes(p, m, _cache)) for p in parts
            ]
            for combo in itertools.product(*choice_sets):
                # One encoding node per child part; each part's shape is a
                # single-top encoding (tuple of length 1).
                kids = tuple(sorted(node for shape in combo for node in shape))
                shapes.add(((top, mu, kids),))
    _cache[key] = shapes
    return shapes


def count_join_configurations(levels, m=2):
    """Number of distinct join classes with the given level multiset.

    Counts classes of join sets rooted at the tree origin that arise as the
    join of n + 1 distinct rays in the m-ary tree, where n = len(levels) is
    the number of join points counted with multiplicity.  The count is
    always at most (n - 1)!.

    Parameters
    ----------
    levels : sequence of int
        Nonnegative vertex depths, at most 9 of them; only order and ties
        count.
    m : int
        Arity of the tree (default binary).
    """
    lv = tuple(sorted(int(x) for x in levels))
    n = len(lv)
    if n < 1:
        raise InvalidInputError("need at least one level")
    if any(x < 0 for x in lv):
        raise InvalidInputError(f"levels must be nonnegative, got {lv}")
    if m < 2:
        raise InvalidInputError(f"tree arity must be >= 2, got {m}")
    if n > _MAX_JOIN_LEVELS:
        raise ResourceLimitError(
            f"{n} levels exceeds the limit of {_MAX_JOIN_LEVELS}"
        )
    return len(_class_shapes(lv, m))
