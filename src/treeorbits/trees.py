"""Labeled rooted trees and the subspace-configuration varieties they index.

A labeled tree is a finite rooted tree whose edges all point toward the
root, together with a positive integer label on each vertex that strictly
increases along every edge.  Such a tree indexes the variety of tuples of
subspaces of an ambient space (one subspace per vertex, of dimension equal
to the label, the root carrying the full space) nested according to the
edges.  This module provides the tree type, validation, and the purely
combinatorial operations: dimension, the top-down vertex order, the
two heaviest chains, subtrees, vertex deletion, and truncation by distance.
A tree's branches and their widths are read where they are used, in
``classify.orbit_class``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    BadRange,
    EmptyInput,
    LabelViolation,
    NotATree,
    RootForbidden,
    UnknownVertex,
)

MAX_LABEL = 10**6


class LabeledTree:
    """Immutable rooted tree with labels strictly increasing toward the root.

    The constructor validates: it raises EmptyInput, LabelViolation
    (labels not positive, above the cap, or not strictly increasing along
    an edge), or NotATree (unknown endpoint, a vertex with two outgoing
    edges, or no unique root).  ``labels`` maps vertex names to positive
    integers.  ``parent`` maps each non-root vertex to the target of its one
    ``(source, target)`` edge toward the root: it is the stored edge
    relation and ``children`` is its inverse with sorted lists.  The root
    is the unique vertex with no outgoing edge and its label is the ambient
    dimension.
    """

    __slots__ = ("labels", "parent", "children", "root", "ambient")

    def __init__(self, labels: dict[str, int], edges) -> None:
        if not labels:
            raise EmptyInput("a tree needs at least one vertex")
        labels = {str(v): k for v, k in labels.items()}
        for v, k in labels.items():
            if not isinstance(k, int) or isinstance(k, bool) or k <= 0:
                raise LabelViolation(f"label of {v!r} must be a positive integer, got {k!r}")
            if k > MAX_LABEL:
                raise LabelViolation(f"label of {v!r} exceeds the cap {MAX_LABEL}")
        parent: dict[str, str] = {}
        # first vertex in input order with a second target, raised after the checks above
        forked = None
        for s, t in edges:
            s, t = str(s), str(t)
            if s not in labels:
                raise NotATree(f"edge ({s!r}, {t!r}) references unknown vertex {s!r}")
            if t not in labels:
                raise NotATree(f"edge ({s!r}, {t!r}) references unknown vertex {t!r}")
            if labels[s] >= labels[t]:
                raise LabelViolation(
                    f"edge ({s!r}, {t!r}) needs label {labels[s]} < {labels[t]}"
                )
            if parent.setdefault(s, t) != t and forked is None:
                forked = s
        if forked is not None:
            raise NotATree(f"vertex {forked!r} has two outgoing edges")
        roots = [v for v in labels if v not in parent]
        if len(roots) > 1:
            raise NotATree(f"disconnected: {len(roots)} vertices have no outgoing edge")
        # labels strictly increase along edges, so cycles are impossible and a
        # unique sink means every vertex reaches it
        self.labels = labels
        self.parent = parent
        self.root = roots[0]
        self.ambient = labels[self.root]
        children: dict[str, list[str]] = {v: [] for v in labels}
        for s in sorted(parent):
            children[parent[s]].append(s)
        self.children = children

    @property
    def vertices(self) -> list[str]:
        return sorted(self.labels)

    @property
    def leaves(self) -> list[str]:
        return sorted(v for v in self.labels if not self.children[v])

    def distance(self, v: str) -> int:
        """Number of edges on the chain from v to the root."""
        if v not in self.labels:
            raise UnknownVertex(f"no vertex named {v!r}")
        d = 0
        while v != self.root:
            v = self.parent[v]
            d += 1
        return d

    @property
    def depth(self) -> int:
        return max(map(self.distance, self.labels))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LabeledTree)
            and self.labels == other.labels
            and self.parent == other.parent
        )

    def __hash__(self) -> int:
        return hash((frozenset(self.labels.items()), frozenset(self.parent.items())))

    def __repr__(self) -> str:
        return f"LabeledTree({to_dsl(self)!r})"


def dimension(tree: LabeledTree) -> int:
    """Dimension of the configuration variety: sum of phi(s)(phi(t)-phi(s)) over edges."""
    lab = tree.labels
    return sum(lab[s] * (lab[t] - lab[s]) for s, t in tree.parent.items())


def top_down(tree: LabeledTree) -> list[str]:
    """Non-root vertices, parents before children: by distance to the root, then name."""
    return sorted((v for v in tree.labels if v != tree.root), key=lambda v: (tree.distance(v), v))


def heaviest_chains(tree: LabeledTree, weight) -> tuple[tuple[list[str], int], tuple[list[str], int]]:
    """The two chains with the largest products of edge weights, each with its product.

    ``weight(phi(t), phi(s))`` weighs the edge from s up to t.  The first
    chain runs from a root child down to a leaf, the second likewise from
    one of the other root children.  Ties go to the first child in name
    order.  Chains are listed top first; with no child to start from a
    chain is empty, of product 1.
    """
    # most[v] = the largest product of a chain from v down to a leaf, the
    # edge above v included; children are filled in before their parents
    most = {}
    for v in reversed(top_down(tree)):
        below = max((most[c] for c in tree.children[v]), default=1)
        most[v] = weight(tree.labels[tree.parent[v]], tree.labels[v]) * below

    def heaviest(below):
        chain = []
        while below:
            chain.append(max(below, key=most.__getitem__))
            below = tree.children[chain[-1]]
        return chain, most[chain[0]] if chain else 1

    first = heaviest(tree.children[tree.root])
    return first, heaviest([c for c in tree.children[tree.root] if c not in first[0]])


def subtree_at(tree: LabeledTree, v: str) -> LabeledTree:
    """Induced tree on v and every vertex whose chain to the root passes through v."""
    if v not in tree.labels:
        raise UnknownVertex(f"no vertex named {v!r}")
    keep = {v}
    queue = [v]
    while queue:
        t = queue.pop()
        for s in tree.children[t]:
            keep.add(s)
            queue.append(s)
    labels = {u: tree.labels[u] for u in keep}
    edges = [(s, t) for s, t in tree.parent.items() if s in keep and t in keep]
    return LabeledTree(labels, edges)


def forget_vertex(tree: LabeledTree, v: str) -> tuple[LabeledTree, bool]:
    """Delete v, reattaching its sources to its target.

    Returns the contracted tree and a surjectivity flag for the induced
    map of configuration varieties: the map is onto exactly when the labels
    of the sources feeding into v sum to at most the label of v.
    """
    if v not in tree.labels:
        raise UnknownVertex(f"no vertex named {v!r}")
    if v == tree.root:
        raise RootForbidden("cannot forget the root vertex")
    up = tree.parent[v]
    labels = {u: k for u, k in tree.labels.items() if u != v}
    edges = []
    for s, t in tree.parent.items():
        if s == v:
            continue
        edges.append((s, up if t == v else t))
    surjective = sum(tree.labels[s] for s in tree.children[v]) <= tree.labels[v]
    return LabeledTree(labels, edges), surjective


@dataclass(frozen=True)
class TruncationResult:
    """Tree cut at distance m from the root, plus the subtrees hanging below the cut."""

    base: LabeledTree
    hanging: tuple[LabeledTree, ...]


def truncate(tree: LabeledTree, m: int) -> TruncationResult:
    """Split into the radius-m tree around the root and the subtrees below it.

    ``base`` is induced on vertices at distance <= m.  For each vertex at
    distance exactly m with something strictly deeper, the full subtree at
    that vertex is returned as a hanging tree (rooted there, so the variety
    dimensions of base and hanging trees add up to the whole).  Beyond the
    depth the base is the whole tree and nothing hangs.
    """
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise BadRange(f"truncation distance must be an integer >= 1, got {m!r}")
    keep = {v for v in tree.labels if tree.distance(v) <= m}
    labels = {v: tree.labels[v] for v in keep}
    edges = [(s, t) for s, t in tree.parent.items() if s in keep and t in keep]
    base = LabeledTree(labels, edges)
    hanging = tuple(
        subtree_at(tree, v)
        for v in sorted(keep)
        if tree.distance(v) == m and tree.children[v]
    )
    return TruncationResult(base, hanging)


def _token(tree: LabeledTree, v: str) -> str:
    return v if v == str(tree.labels[v]) else f"{v}:{tree.labels[v]}"


def to_dsl(tree: LabeledTree) -> str:
    """Chain notation: one leaf-to-root chain per leaf, joined with '|'."""
    if len(tree.labels) == 1:
        return _token(tree, tree.root)
    parts = []
    for leaf in tree.leaves:
        path = [leaf]
        while path[-1] != tree.root:
            path.append(tree.parent[path[-1]])
        parts.append(">".join(_token(tree, v) for v in path))
    return " | ".join(parts)
