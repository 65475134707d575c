"""Numerical verification over prime fields.

``random_config`` draws a random point of the configuration variety over
F_p with a counter-based generator keyed by (seed, trial, vertex index),
so results are reproducible and independent of evaluation order.  Each
stream's Philox key is derived from (seed, trial, vertex index) once per
process, in a small memo (``_stream_key``), and a draw re-keys one
generator per stream: Philox is counter-based (Salmon et al., SC 2011),
so a key with counter 0 starts its stream afresh.  A redrawn factor
replays its stream from the key.
``certify_density`` draws its trials together, a fixed number at a time,
and ranks each chunk in two stages over the stacked bases.  The arrow
draw (``_arrows``) gives the first candidate factor of every (trial,
vertex) stream, unchecked, and the lift (``_lift``) multiplies them down
the tree, on residues.  Stage 1 (``_moved``) picks both chains once,
moves them with one Python iteration per column for all trials, and finds
the condition rows of every vertex on neither chain in one stacked
elimination (``modp._nested_annihilators``).  The chain moves leave a
chain vertex's remaining columns once every trial has as many pivots as
its label, so generic draws move only each chain's top label's worth of
columns.  On the way stage 1 counts every basis's pivots, so it reports
per trial whether every basis has full rank; B_v = B_u R_v has full rank
exactly when R_v has, given B_u has, so that holds exactly when every
factor has full rank.  Only in a chunk where some trial falls short are
the factors checked, in one zero-padded ``ranks_mod`` stack, and the
singular ones redrawn from their own streams (``_redraw_singular``);
stage 1 then runs again.  Stage 2 (``_ranked``) builds the systems of
the points and ranks them, in one stack unless they are large.  Because
every stream is keyed, the chunk's points are those that ``random_config``
draws one trial at a time (``_draw``: the arrow draw, the redraw, the
lift).  ``stabilizer_dim`` is the two stages on a chunk of one
(``_system_ranks``), and the one place where bases arrive from outside,
so it refuses a configuration that is not a point before ranking it.
``certify_density`` and ``stabilizer_dim`` refuse with BoundsError, before
any draw, an instance whose arrays the labels bound above
``_MAX_ENTRIES`` (``_check_size``), and ``random_config`` one whose draw
alone would be.

``stabilizer_dim`` computes the exact rank of the linear system cutting
out the Lie stabilizer of a configuration: for each non-root vertex v
with basis matrix B_v, the conditions C_v X B_v = 0 where the rows of
C_v span the left annihilator of B_v.  The system rank equals the
dimension of the orbit through the point, so rank = dim of the variety
certifies a dense orbit (one witness suffices); anything less is
inconclusive, never a sparseness verdict.  The system is ranked after
one elimination moves two chains' flags to coordinate flags, the second
by row operations inside the first flag's parabolic P1 (Bruhat: every
P1-orbit of flags, a double coset P1 w P2, holds a coordinate flag, over
every field).  Every stabilizing matrix then lies in the intersection of
the two coordinate parabolic subalgebras, a set of allowed entries, and

    system_rank = rank(conditions of the vertices on neither chain, on the
                  allowed entries) + n^2 - (number of allowed entries),

exactly over every prime, because conjugation maps the stabilizer
algebras isomorphically.  A vertex v on neither chain, under u, needs
only the rows c of ann(M_v) modulo ann(M_u), phi(v)(phi(u) - phi(v)) of
them, the tangent space of its Grassmannian fibre (ann(M_u) = 0 at the
root): for c in ann(M_u), c Y M_v is a combination of the rows c Y M_u,
which are u's own conditions when u is on neither chain and vanish on
the allowed entries when u is on a chain.  So ``F(3,6,9;16)^3`` ranks 90
rows where the whole annihilators give 162.

``cross_ratio`` evaluates the projective invariant of four d-dimensional
subspaces in a pencil, reducing to four points on the projective line of
a two-dimensional quotient.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BadRange, BoundsError, Degenerate, NotAPencil
from .modp import (
    _left_annihilators,
    _matmul_residues,
    _nested_annihilators,
    _reduce,
    check_prime,
    matmul_mod,
    rank_mod,
    ranks_mod,
)
from .products import as_tree
from .trees import LabeledTree, dimension, heaviest_chains, top_down

DEFAULT_PRIME = 2**31 - 1


@dataclass(frozen=True)
class Configuration:
    """A point of the configuration variety over F_p: one basis per non-root vertex."""

    tree: LabeledTree
    p: int
    seed: int
    trial: int
    bases: dict[str, np.ndarray]


@lru_cache(maxsize=128)
def _stream_key(seed: int, trial: int, vertex_index: int) -> bytes:
    """The two-word Philox key of the stream (seed, trial, vertex index), as 16 bytes.

    It is the key that ``Philox(SeedSequence([seed, trial, vertex_index]))``
    holds; bytes, so a cached key cannot be changed by a caller.
    """
    return np.random.SeedSequence([seed, trial, vertex_index]).generate_state(2, np.uint64).tobytes()


def random_config(x, p: int = DEFAULT_PRIME, seed: int = 0, trial: int = 0) -> Configuration:
    """Draw a uniform-ish random point of the variety over F_p.

    Bases are drawn top-down: a vertex under the root gets a random full
    rank n x phi(v) matrix, and any deeper vertex gets B_parent R for a
    random full-rank phi(parent) x phi(v) matrix R, which keeps the
    containments exact.  Draws retry until full rank, continuing the
    keyed stream (replayed from its key), so every configuration is a
    genuine variety point.
    This is ``certify_density``'s draw with one trial: that draws its
    trials together, and because every stream is keyed by (seed, trial,
    vertex) its configurations equal these, trial by trial.

    Raises BoundsError, before any draw, when the draw's own largest
    array, the stack of one trial's candidates (``_candidates``), is above
    ``_MAX_ENTRIES``.
    """
    tree = as_tree(x)
    _capped(_candidates(tree), f"drawing a point in ambient dimension {tree.ambient}")
    bases = _draw(tree, p, seed, trial, 1)
    return Configuration(tree, p, seed, trial, {v: b[0] for v, b in bases.items()})


# trials drawn and held at once, so memory does not grow with ``trials``
_TRIAL_CHUNK = 8

def _padded(mats: list[np.ndarray], n: int) -> np.ndarray:
    """Matrices of at most n rows, zero-padded to one (len, n, widest) int64 stack."""
    stack = np.zeros((len(mats), n, max((m.shape[1] for m in mats), default=0)), dtype=np.int64)
    for s, m in enumerate(mats):
        stack[s, : m.shape[0], : m.shape[1]] = m
    return stack


def _arrows(tree: LabeledTree, p: int, seed: int, first: int, count: int):
    """The arrow draw of trials first, ..., first + count - 1: each stream's first candidate, unchecked.

    Returns the factors, a dict from (trial, vertex) to a phi(parent) x
    phi(v) matrix of residues, trials first and then vertices top-down,
    and the stream draw ``candidate(trial, vertex, tries)``, which gives a
    stream's tries-th candidate.

    One generator draws every candidate: before each, its Philox is
    re-keyed to the stream's key (``_stream_key``, derived once per
    process) at counter 0 by assigning its state.  A later candidate
    replays its stream from the key, so the candidates are those of a
    generator held per stream.
    """
    for name, value in (("seed", seed), ("trial", first)):
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise BadRange(f"{name} must be a non-negative integer, got {value!r}")
    check_prime(p)
    index = {v: i for i, v in enumerate(sorted(tree.labels))}
    order = top_down(tree)
    # the root's label is n
    shape = {v: (tree.labels[tree.parent[v]], tree.labels[v]) for v in order}
    rng = np.random.Generator(np.random.Philox(key=0))
    # a fresh Philox stream: counter 0, empty buffer
    state = {"bit_generator": "Philox", "state": {"counter": np.zeros(4, dtype=np.uint64)},
             "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def candidate(t: int, v: str, tries: int) -> np.ndarray:
        # the stream's first tries candidates in one draw; every entry, below
        # p < 2^32, is drawn from the stream's next 32-bit words, so these
        # are the values of drawing them one after another.  The last is kept
        state["state"]["key"] = np.frombuffer(_stream_key(seed, t, index[v]), dtype=np.uint64)
        rng.bit_generator.state = state
        return rng.integers(0, p, size=(tries, *shape[v]), dtype=np.int64)[-1]

    return {(t, v): candidate(t, v, 1) for t in range(first, first + count) for v in order}, candidate


def _redraw_singular(tree: LabeledTree, p: int, factors: dict, candidate) -> None:
    """Replace, in place, each factor without full column rank by its stream's first one of full rank.

    Every factor is checked in one zero-padded stack of ``ranks_mod``,
    then only the failures are redrawn from their own streams and checked
    again.
    """
    tries = dict.fromkeys(factors, 1)
    pending = list(factors)
    while pending:
        ranks = ranks_mod(_padded([factors[key] for key in pending], tree.ambient), p)
        pending = [key for key, r in zip(pending, ranks) if r < tree.labels[key[1]]]
        for key in pending:
            tries[key] += 1
            factors[key] = candidate(*key, tries[key])


def _lift(tree: LabeledTree, p: int, factors: dict, trials: range) -> dict[str, np.ndarray]:
    """Each non-root vertex's bases stacked over the trials, a (len(trials), n, phi(v)) array.

    A root child's basis is its factor, and a deeper vertex's is its
    parent's basis times its factor, for all trials in one product of
    residues (``_matmul_residues``).
    """
    bases: dict[str, np.ndarray] = {}
    for v in top_down(tree):
        stack = np.stack([factors[t, v] for t in trials])
        up = tree.parent[v]
        bases[v] = stack if up == tree.root else _matmul_residues(bases[up], stack, p)
    return bases


def _draw(tree: LabeledTree, p: int, seed: int, first: int, count: int) -> dict[str, np.ndarray]:
    """The bases of trials first, ..., first + count - 1, drawn together, every factor of full rank.

    Returns each non-root vertex's bases stacked over the trials, a
    (count, n, phi(v)) array: the arrow draw (``_arrows``), its singular
    factors redrawn (``_redraw_singular``), lifted (``_lift``).
    """
    factors, candidate = _arrows(tree, p, seed, first, count)
    _redraw_singular(tree, p, factors, candidate)
    return _lift(tree, p, factors, range(first, first + count))


def _int64_matrix(a, what: str) -> np.ndarray:
    """``a`` as an int64 array; BadRange unless every entry is an integer that fits int64."""
    entries = np.asarray(a, dtype=object)
    if not all(isinstance(x, (int, np.integer)) and not isinstance(x, bool) for x in entries.flat):
        raise BadRange(f"{what} must have integer entries")
    try:
        return entries.astype(np.int64)
    except OverflowError:
        raise BadRange(f"{what} has an entry that overflows int64") from None


@dataclass(frozen=True)
class StabReport:
    """Exact stabilizer data at one configuration."""

    p: int
    seed: int
    trial: int
    variety_dim: int
    system_rank: int
    lie_stab_dim: int
    pgl_stab_dim: int
    certified_dense: bool


def _flag_weight(big: int, d: int) -> int:
    # a chain's product of these weights is 2^dim of its flag variety
    return 2 ** (d * (big - d))


def _conditions(blocks: list[np.ndarray], kernels: list[np.ndarray], allowed: np.ndarray,
                p: int) -> np.ndarray:
    """The stabilizer systems of a run of trials on their allowed entries.

    ``blocks`` and ``kernels`` hold, per vertex on neither chain, its moved
    bases M, (T, n, k), and its condition rows C, (T, q, n).  The
    condition C Y M = 0 gives row (a, b) the coefficient C[a, i] M[j, b]
    of Y[i, j].  Each trial's allowed entries (``allowed``, (T, n, n)) are
    compressed into the first columns, in row-major order, and the columns
    are zero-padded to the run's largest count: a (T, rows, entries) stack.
    """
    count, n, _ = allowed.shape
    flat = allowed.reshape(count, n * n)
    width = int(flat.sum(axis=1).max())
    entries = np.argsort(~flat, axis=1, kind="stable")[:, :width]
    keep = np.take_along_axis(flat, entries, axis=1)
    i, j = np.divmod(entries, n)
    sizes = [c.shape[1] * m.shape[2] for m, c in zip(blocks, kernels)]
    system = np.empty((count, sum(sizes), width), dtype=np.int64)
    top = 0
    for m, c, size in zip(blocks, kernels, sizes):
        ci = np.take_along_axis(c, i[:, None, :], axis=2) * keep[:, None, :]
        mj = np.take_along_axis(m.transpose(0, 2, 1), j[:, None, :], axis=2)
        system[:, top : top + size] = (ci[:, :, None, :] * mj[:, None, :, :]).reshape(count, size, width)
        top += size
    return _reduce(system, p)


# the largest short side of a chunk's systems that are ranked in one
# ``ranks_mod`` stack, larger ones one at a time by ``rank_mod``'s panels.
# Stacking is faster up to at least 96 x 80 and slower at 225 x 250 (see
# ``modp``), but a stack holds a chunk's systems at once: a cut of 79
# raises the certificate ladder's peak RSS by 0.5 MB, and one of 80 more
# than doubles the traced peak of G(4;12)^5, whose chunks then stack
# eight 96 x 80 systems
_STACKED_SIDE = 50


def _off_chain_paths(tree: LabeledTree, rest: list[str]) -> list[list[str]]:
    """The vertices on neither chain, ``rest``, as upward paths, each leaf first.

    A path starts at a vertex with no child in ``rest`` and climbs while
    the vertex is its parent's first child in ``rest`` in name order, so
    every vertex of ``rest`` lies on exactly one path.
    """
    first: dict[str, str] = {}
    for v in rest:
        if tree.parent[v] in rest:
            first.setdefault(tree.parent[v], v)
    paths = []
    for v in rest:
        if v in first:
            continue
        path = [v]
        while first.get(tree.parent[path[-1]]) == path[-1]:
            path.append(tree.parent[path[-1]])
        paths.append(path)
    return paths


def _moved(tree: LabeledTree, p: int, bases: dict[str, np.ndarray], count: int) -> tuple:
    """The chain moves and the condition rows of ``count`` trials, from their stacked bases.

    ``bases`` maps each non-root vertex to its bases over the trials, a
    (count, n, phi(v)) array of int64 residues.  Both chains are picked
    once; their elimination and the annihilators then run over all trials
    together (see ``stabilizer_dim``).  Returns ``(full, off, kernels, allowed)``:
    per trial whether every basis has as many pivots as its label, which
    for bases that hold their children's is full column rank; then
    ``_conditions``' arguments.  A chain vertex's count is its chain's
    pivots after its columns, and that of a vertex on neither chain is
    n minus the rows of its annihilator, the rows of its block and of the
    blocks after it in ``_nested_annihilators``.
    """
    n = tree.ambient
    (chain, _), (second, _) = heaviest_chains(tree, _flag_weight)
    chains = (chain[::-1], second[::-1])
    rest = sorted(v for v in bases if v not in chain and v not in second)
    order = chains[0] + chains[1] + rest
    moved = np.concatenate([np.zeros((count, n, 0), dtype=np.int64)] + [bases[v] for v in order], axis=2)
    starts = dict(zip(order, np.cumsum([0] + [tree.labels[v] for v in order]).tolist()))
    # views, so they see the row operations
    moved_bases = {v: moved[:, :, starts[v] : starts[v] + tree.labels[v]] for v in rest}
    at = np.arange(count)
    level = np.zeros((count, n), dtype=np.intp)
    allowed = np.ones((count, n, n), dtype=bool)
    pivots_of = {}
    full = np.ones(count, dtype=bool)
    for links in chains:
        position = np.full((count, n), n)
        taken = np.zeros(count, dtype=np.intp)
        for v in links:
            for c in range(starts[v], starts[v] + tree.labels[v]):
                # v's pivot columns span its subspace once there are as many
                # as its label, in every trial: its other columns find no pivot
                if taken.min() >= tree.labels[v]:
                    break
                col = np.where(position < n, 0, moved[:, :, c])
                r = np.where(col != 0, level, -1).argmax(axis=1)
                pivot = col[at, r]
                found = pivot != 0
                col[at, r] = 0
                pivot[~found] = 1
                # pivot * row - entry * pivot row, right of the column: the
                # columns left of it are not read again
                later = moved[:, :, c + 1 :]
                update = pivot[:, None, None] * later
                update -= col[:, :, None] * moved[at, r, None, c + 1 :]
                later[:] = _reduce(update, p)
                position[found, r[found]] = taken[found]
                taken[found] += 1
            full &= taken >= tree.labels[v]
        pivots_of.update(dict.fromkeys(links, position))
        level = np.searchsorted([tree.labels[v] for v in links], position, side="right")
        allowed &= level[:, :, None] <= level[:, None, :]
    off = [moved_bases[v] for v in rest]
    kernels = []
    if rest:
        # a path's blocks end with its top's parent, unless that is the root,
        # whose annihilator is 0; every path in one stack, aligned at the top
        paths = _off_chain_paths(tree, rest)
        stacks = [path if tree.parent[path[-1]] == tree.root else path + [tree.parent[path[-1]]]
                  for path in paths]
        length = max(map(len, stacks))
        aligned = [[None] * (length - len(stack)) + stack for stack in stacks]
        blocks, targets = [], np.zeros((len(paths), count, length), dtype=np.intp)
        for i in range(length):
            at_i = [(j, stack[i]) for j, stack in enumerate(aligned) if stack[i] is not None]
            block = np.zeros((len(paths), count, n, max(tree.labels[v] for _, v in at_i)), dtype=np.int64)
            for j, v in at_i:
                # a chain vertex of label d spans e_i for its chain's first d pivots i
                if v in moved_bases:
                    block[j, :, :, : tree.labels[v]] = moved_bases[v]
                else:
                    block[j, :, :, : tree.labels[v]] = pivots_of[v][:, :, None] == np.arange(tree.labels[v])
                targets[j, :, i] = tree.labels[v]
            blocks.append(block.reshape(len(paths) * count, n, -1))
        steps = _nested_annihilators(blocks, p, targets.reshape(len(paths) * count, length))
        held = np.stack([s.any(axis=2).sum(axis=1) for s in steps]).reshape(length, len(paths), count)
        # the rows of ann(M) for each block's M, n - rank(M)
        kernel_rows = held[::-1].cumsum(axis=0)[::-1]
        rows_of = {}
        # only a path's own vertices: a parent block's rows are not its conditions
        for j, (path, stack) in enumerate(zip(paths, stacks)):
            for i, v in enumerate(path, length - len(stack)):
                # each vertex keeps as many rows as its largest kernel
                rows_of[v] = steps[i][j * count : (j + 1) * count, : held[i, j].max()]
                full &= kernel_rows[i, j] <= n - tree.labels[v]
        kernels = [rows_of[v] for v in rest]
    return full, off, kernels, allowed


def _ranked(tree: LabeledTree, p: int, off: list, kernels: list, allowed: np.ndarray) -> np.ndarray:
    """The stabilizer system ranks of the trials that ``_moved`` returned, from its return after ``full``.

    Systems whose short side is at most ``_STACKED_SIDE`` are ranked in one
    ``ranks_mod`` stack, larger ones one at a time by ``rank_mod``.
    """
    n, count = tree.ambient, len(allowed)
    entries = allowed.sum(axis=(1, 2))
    rows = sum(c.shape[1] * m.shape[2] for m, c in zip(off, kernels))
    if min(rows, entries.max()) <= _STACKED_SIDE:
        ranks = ranks_mod(_conditions(off, kernels, allowed, p), p)
    else:
        ranks = np.array([
            rank_mod(_conditions([m[t : t + 1] for m in off], [c[t : t + 1] for c in kernels],
                                 allowed[t : t + 1], p)[0], p)
            for t in range(count)
        ])
    ranks = ranks + n * n - entries
    assert (ranks <= dimension(tree)).all(), "orbit tangent space cannot exceed the variety dimension"
    return ranks


def _system_ranks(tree: LabeledTree, p: int, bases: dict[str, np.ndarray], count: int) -> np.ndarray:
    """The stabilizer system ranks of ``count`` trials, from their stacked bases.

    It is ``_moved`` and then ``_ranked``, which ranks exactly also the
    trials that are not points of the variety.
    """
    return _ranked(tree, p, *_moved(tree, p, bases, count)[1:])


# the most int64 entries, 512 MiB, that ``_check_size`` and ``random_config``
# let one array reach; it bounds F(3,6,9;16)^3, the largest instance the
# tests and the benchmark certify, by 207,360
_MAX_ENTRIES = 2**26


def _candidates(tree: LabeledTree) -> int:
    """The entries of one trial's stack of candidate factors: V * n * phi_max for V non-root vertices."""
    labels = [tree.labels[v] for v in tree.parent]
    return tree.ambient * len(labels) * max(labels, default=0)


def _capped(entries: int, what: str) -> int:
    """``entries``, or BoundsError when it is above ``_MAX_ENTRIES``."""
    if entries > _MAX_ENTRIES:
        raise BoundsError(f"{what} takes up to {entries} array entries, over the cap {_MAX_ENTRIES}")
    return entries


def _check_size(tree: LabeledTree, dim: int, count: int) -> int:
    """A bound on the entries of any one array when ``count`` trials are ranked at once.

    BoundsError when it is above ``_MAX_ENTRIES``.  The bound is read off
    the labels, before any draw, from the three largest arrays.  The
    systems have at most dim rows, one per tangent direction of a vertex,
    and at most n^2 allowed entries.  The draw's stack of candidates holds
    count * ``_candidates`` entries.  The annihilators' stack holds one
    n-row matrix per trial and path of vertices on neither chain, and a
    path starts at one of the tree's L leaves; its columns are at most the
    labels, one parent's label per path, and n.  The allowed mask and the
    moved bases are smaller than the systems.
    """
    n = tree.ambient
    labels = [tree.labels[v] for v in tree.parent]
    leaves = sum(not tree.children[v] for v in tree.parent)
    entries = count * max(n * dim * n, _candidates(tree), n * leaves * (sum(labels) + (leaves + 1) * n))
    return _capped(entries, f"ranking {count} trials in ambient dimension {n}")


def stabilizer_dim(config: Configuration) -> StabReport:
    """Rank of the stabilizer system at the configuration; rank = dim certifies density.

    This is the certificate's ranking of a chunk, its stages ``_moved``
    and ``_ranked``, run on a chunk of one.  Over a chunk every step below
    is one stacked computation over the trials, with one Python iteration
    per column, not per trial.

    Chain 1 runs from a root child down to a leaf and has the flag variety
    of the largest dimension; chain 2 is picked the same way under the
    other root children (empty when the root has one child).  Row
    operations h on the stacked bases move both to coordinate flags, each
    chain's columns leaf first: the rows already its pivots are zeroed (a
    column operation inside its flag), and a nonzero row of the deepest
    level under the previous chain (for chain 1, the first nonzero row)
    clears the others, each of an equal or shallower level, so h keeps
    that chain's coordinate flag.  A trial whose column is zero skips it,
    and once every trial has as many of the chain's pivots as a chain
    vertex's label, the vertex's remaining columns are left: they lie in
    the span of the pivot columns, so none would find a pivot.
    A chain's subspace of label d is then spanned by e_i for its first d
    pivots i, and its level of i counts its subspaces that do not hold
    e_i.  Y = h X h^-1 stabilizes the moved configuration exactly when X
    stabilizes this one, so Y[i, j] may be nonzero only when level(i) <=
    level(j) for each chain.  Only the vertices on neither chain give
    conditions, each from the rows of its left annihilator modulo its
    parent's, whose own conditions, or the allowed entries when the
    parent is on a chain, give the rest.  Those vertices fall into paths
    (``_off_chain_paths``), and one stacked elimination of [M_leaf | ... |
    M_top | M_parent | I_n] (``modp._nested_annihilators``), all paths
    aligned at the top, finds every vertex's rows; a chain parent's basis
    is its coordinate subspace, and the root gives no block.  The chain
    moves take the inverse-free step pivot * row - entry * pivot row on
    the columns right of the current one, which scales each trial by a
    nonzero constant and leaves every span as it was; the columns left of
    it are not read again, so a chain vertex is read off its pivots.  The
    system rank is the conditions' rank on the allowed entries plus the
    number of entries left out.  Systems whose short side is at most
    ``_STACKED_SIDE`` are ranked in one ``ranks_mod`` stack, larger ones
    one at a time by ``rank_mod``.

    The configuration must be a point of the variety of its tree, or of
    the tree ``as_tree`` gives a product; this is checked here, once, and
    the pipeline assumes it.  Raises NotPrime or BadRange
    for ``config.p`` as ``check_prime`` does, BoundsError as
    ``_check_size`` does for one trial, and BadRange when a basis is
    missing, has the wrong shape or an entry that is not an integer
    fitting int64, or, reduced mod p, does not have full column rank or
    leaves the span of its parent's basis.  Every basis is ranked before
    any containment, each in one ``ranks_mod`` stack, in vertex name
    order; the first failure is named.
    """
    tree, p = as_tree(config.tree), config.p
    check_prime(p)
    n = tree.ambient
    dim = dimension(tree)
    _check_size(tree, dim, 1)
    if config.bases.keys() != tree.parent.keys():
        raise BadRange("a configuration needs one basis per non-root vertex")
    bases = {}
    for v in sorted(config.bases):
        b = np.asarray(config.bases[v], dtype=object)
        if b.shape != (n, tree.labels[v]):
            raise BadRange(f"the basis of vertex {v!r} must be {n} x {tree.labels[v]}, got {b.shape}")
        bases[v] = _int64_matrix(b, f"the basis of vertex {v!r}") % p
    ranks = ranks_mod(_padded(list(bases.values()), n), p)
    for (v, b), r in zip(bases.items(), ranks.tolist()):
        if r < b.shape[1]:
            raise BadRange(f"the basis of vertex {v!r} has rank {r} mod {p}, not {b.shape[1]}")
    below = [v for v in bases if tree.parent[v] != tree.root]
    ranks = ranks_mod(_padded([np.hstack([bases[tree.parent[v]], bases[v]]) for v in below], n), p)
    for v, r in zip(below, ranks.tolist()):
        if r > tree.labels[tree.parent[v]]:
            raise BadRange(
                f"the basis of vertex {v!r} is not inside that of vertex {tree.parent[v]!r} mod {p}"
            )
    rank = int(_system_ranks(tree, p, {v: b[None] for v, b in bases.items()}, 1)[0])
    lie = n * n - rank
    return StabReport(
        p=p,
        seed=config.seed,
        trial=config.trial,
        variety_dim=dim,
        system_rank=rank,
        lie_stab_dim=lie,
        pgl_stab_dim=lie - 1,
        certified_dense=rank == dim,
    )


@dataclass(frozen=True)
class CertifyReport:
    """Outcome of repeated randomized density certification."""

    p: int
    trials: int
    seed: int
    variety_dim: int
    ranks: tuple[int, ...]
    certified_dense: bool
    status: str  # "DenseCertified" or "Inconclusive"

    def to_json_dict(self) -> dict:
        return {
            "prime": self.p,
            "trials": self.trials,
            "seed": self.seed,
            "variety_dim": self.variety_dim,
            "ranks": list(self.ranks),
            "system_rank": max(self.ranks),
            "certified_dense": self.certified_dense,
            "status": self.status,
        }


def certify_density(x, p: int = DEFAULT_PRIME, trials: int = 3, seed: int = 0) -> CertifyReport:
    """Try ``trials`` random configurations; any rank = dim witness certifies density.

    A failure to certify is reported as Inconclusive: a low rank at random
    points never proves sparseness.
    """
    if isinstance(trials, bool) or not isinstance(trials, int) or trials < 1:
        raise BadRange(f"trials must be a positive integer, got {trials!r}")
    tree = as_tree(x)
    dim = dimension(tree)
    _check_size(tree, dim, min(trials, _TRIAL_CHUNK))
    ranks: list[int] = []
    for first in range(0, trials, _TRIAL_CHUNK):
        count = min(_TRIAL_CHUNK, trials - first)
        chunk = range(first, first + count)
        factors, candidate = _arrows(tree, p, seed, first, count)
        full, *moved = _moved(tree, p, _lift(tree, p, factors, chunk), count)
        # full holds, per trial, whether every basis has full rank.  B_v =
        # B_u R_v has full rank exactly when R_v has, given B_u has, so all
        # trials hold it exactly when every factor has full rank
        if not full.all():
            _redraw_singular(tree, p, factors, candidate)
            _, *moved = _moved(tree, p, _lift(tree, p, factors, chunk), count)
        ranks += _ranked(tree, p, *moved).tolist()
    certified = dim in ranks
    return CertifyReport(
        p=p,
        trials=trials,
        seed=seed,
        variety_dim=dim,
        ranks=tuple(ranks),
        certified_dense=certified,
        status="DenseCertified" if certified else "Inconclusive",
    )


def cross_ratio(zs, lower, upper, p: int) -> int:
    """Cross-ratio of four d-dimensional subspaces pinched between a flag pair.

    ``zs`` are four n x d matrices whose columns span the subspaces;
    ``lower`` is n x (d-1) and ``upper`` is n x (d+1) with
    lower < z_i < upper for all i.  The value is computed on the
    projective line of the quotient upper/lower after normalizing the
    first three subspaces to 0, infinity, 1:

        lambda = det(z4,z1) det(z3,z2) / (det(z4,z2) det(z3,z1)) mod p.

    Raises NotPrime or BadRange for ``p`` as ``check_prime`` does;
    BadRange unless there are four subspaces of dimension at least 1 and
    every entry is an integer fitting int64; NotAPencil when an input has
    more than two axes or the flag sandwich fails; and Degenerate when the
    four subspaces are not pairwise distinct.
    """
    check_prime(p)
    if len(zs) != 4:
        raise BadRange(f"need exactly four subspaces, got {len(zs)}")
    zs = [np.atleast_2d(np.asarray(z, dtype=object)) for z in zs]
    lower = np.asarray(lower, dtype=object)
    upper = np.asarray(upper, dtype=object)
    if max(a.ndim for a in (*zs, lower, upper)) > 2:
        raise NotAPencil("the subspaces and the flag pair must be matrices")
    n, d = zs[0].shape
    if d < 1:
        raise BadRange("subspaces must have dimension at least 1")
    # the flag pair is read as n x (d - 1) and n x (d + 1), whatever its shape
    if lower.size != n * (d - 1) or upper.size != n * (d + 1):
        raise NotAPencil(
            f"flag pair must have shapes {(n, d - 1)} and {(n, d + 1)}, "
            f"got {lower.shape} and {upper.shape}"
        )
    if any(z.shape != (n, d) for z in zs):
        raise NotAPencil("the four subspaces must share the shape n x d")
    lower = _int64_matrix(lower, "the lower flag").reshape(n, d - 1) % p
    upper = _int64_matrix(upper, "the upper flag").reshape(n, d + 1) % p
    zs = [_int64_matrix(z, f"subspace {i + 1}") % p for i, z in enumerate(zs)]
    # every rank in one stack, checked in this order: the first failure is named
    checks = [(lower, d - 1, "lower flag is not (d-1)-dimensional"),
              (upper, d + 1, "upper flag is not (d+1)-dimensional")]
    for i, z in enumerate(zs, 1):
        checks += [(z, d, f"subspace {i} is not {d}-dimensional"),
                   (np.hstack([lower, z]), d, f"subspace {i} does not contain the lower flag"),
                   (np.hstack([z, upper]), d + 1, f"subspace {i} is not inside the upper flag")]
    ranks = ranks_mod(_padded([m for m, _, _ in checks], n), p)
    for (_, rank, message), r in zip(checks, ranks.tolist()):
        if r != rank:
            raise NotAPencil(message)
    # each subspace's point in F^n / lower: the first column of quot z
    # outside the lower flag, the kernel of quot
    quot = _left_annihilators(lower[None], p)[0]
    points = [w[:, w.any(axis=0).argmax()] for w in matmul_mod(quot, np.stack(zs), p)]
    # the points lie on the line upper / lower, and two coordinates on which
    # points 1 and 2 have a nonzero minor are coordinates on it; without one,
    # points 1 and 2 coincide, i = j = 0, and the check below names them
    minors = (np.outer(points[0], points[1]) - np.outer(points[1], points[0])) % p
    i, j = divmod(int((minors != 0).argmax()), len(minors))
    points = [(int(z[i]), int(z[j])) for z in points]
    def det2(u, v):
        return (u[0] * v[1] - u[1] * v[0]) % p
    for i in range(4):
        for j in range(i + 1, 4):
            if det2(points[i], points[j]) == 0:
                raise Degenerate(f"subspaces {i + 1} and {j + 1} coincide")
    z1, z2, z3, z4 = points
    num = det2(z4, z1) * det2(z3, z2) % p
    den = det2(z4, z2) * det2(z3, z1) % p
    return num * pow(den, -1, p) % p
