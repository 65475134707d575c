"""Finite-orbit classification and the easy sparseness certificate.

``orbit_class`` decides, purely combinatorially, whether the group of
projective transformations of the ambient space acts on the configuration
variety of a labeled tree with one orbit, two orbits, finitely many, or
infinitely many.  The finite cases are exactly: at most two leaves, or
three leaves whose sorted branch lengths and minimum widths match one of
the patterns below.  Branches and their widths are defined in
``orbit_class``, the one place that reads them.

``trivially_sparse`` checks the dimension-count obstruction: a vertex v
whose subtree variety has dimension larger than phi(v)^2 - 1 rules out a
dense orbit outright (the group acting on that subtree is too small).

Both take a tree or a flag product.  A product is read on its factors,
never as a tree: each factor is one branch of ``product_to_tree``, and
only that tree's root can fail the dimension count.
"""

from __future__ import annotations

from dataclasses import dataclass

from .products import FlagProduct, instance_dimension, not_an_instance
from .trees import LabeledTree

FINITE_KINDS = ("Homogeneous", "TwoOrbits", "FiniteType")


@dataclass(frozen=True)
class OrbitClass:
    """Verdict of the finite-orbit classification.

    ``kind`` is one of Homogeneous, TwoOrbits, FiniteType, InfiniteType;
    ``case_label`` ("1", "2a".."2d") is set for FiniteType and names the
    first matching pattern in priority order.
    """

    kind: str
    case_label: str | None
    witness: str

    @property
    def finite(self) -> bool:
        return self.kind in FINITE_KINDS


@dataclass(frozen=True)
class SparsenessCheck:
    """First vertex (in sorted order) whose subtree dimension exceeds phi(v)^2 - 1."""

    violated: bool
    vertex: str | None = None
    lhs: int | None = None
    rhs: int | None = None


def orbit_class(x: LabeledTree | FlagProduct) -> OrbitClass:
    """Classify the orbit structure of the configuration variety.

    A tree has one branch per leaf other than the root: the chain from the
    leaf up to, not including, the root or the first vertex that is the
    target of two or more edges.  Its length is its number of vertices and
    its width the least of the leaf's label and the label gaps along the
    edges leaving its vertices.  The branches of a product's tree are its
    factors: a factor of r entries k_1 < ... < k_r in F^n is a branch of
    length r and width min(k_1, k_2 - k_1, ..., n - k_r).

    Three-leaf patterns, by sorted branch lengths (priority 2a > 2b > 2c > 2d):

    * 2a  (1, 1, l)
    * 2b  (1, 2, l) with l <= 4
    * 2c  (1, 2, l) with l >= 5, and the length-1 branch has width <= 2
          or the length-2 branch has width 1
    * 2d  (1, l1, l2) and some length-1 branch has width 1

    Branch roles are matched existentially over all assignments.
    """
    if isinstance(x, FlagProduct):
        n = x.ambient
        shapes = [(len(f), min(f[0], n - f[-1], *(b - a for a, b in zip(f, f[1:]))))
                  for f in x.factors]
    elif isinstance(x, LabeledTree):
        lab, parent, children = x.labels, x.parent, x.children
        shapes = []
        for v in lab:
            if children[v] or v == x.root:
                continue
            length, width = 0, lab[v]
            while True:
                up = parent[v]
                length, width = length + 1, min(width, lab[up] - lab[v])
                if up == x.root or len(children[up]) > 1:
                    break
                v = up
            shapes.append((length, width))
    else:
        raise not_an_instance(x)
    # (length, width) of every branch: one per leaf, none for a lone root
    if len(shapes) <= 1:
        return OrbitClass("Homogeneous", None, "single chain: the variety is one orbit")
    if len(shapes) == 2 and all(ln == 1 for ln, _ in shapes) and min(w for _, w in shapes) == 1:
        return OrbitClass(
            "TwoOrbits",
            None,
            "two branches of length 1, one of minimum width 1: exactly two orbits",
        )
    if len(shapes) == 2:
        return OrbitClass("FiniteType", "1", "2 leaves: finitely many orbits")
    if len(shapes) == 3:
        lens = sorted(ln for ln, _ in shapes)
        ones = [w for ln, w in shapes if ln == 1]
        twos = [w for ln, w in shapes if ln == 2]
        if lens[0] == 1 and lens[1] == 1:
            return OrbitClass("FiniteType", "2a", f"branch lengths {tuple(lens)}")
        if lens[0] == 1 and lens[1] == 2 and lens[2] <= 4:
            return OrbitClass("FiniteType", "2b", f"branch lengths {tuple(lens)}")
        if lens[0] == 1 and lens[1] == 2 and lens[2] >= 5:
            if min(ones) <= 2 or min(twos) == 1:
                return OrbitClass(
                    "FiniteType",
                    "2c",
                    f"branch lengths {tuple(lens)} with admissible widths "
                    f"(length-1 width {min(ones)}, length-2 width {min(twos)})",
                )
        if lens[0] == 1 and min(ones) == 1:
            return OrbitClass(
                "FiniteType", "2d", f"branch lengths {tuple(lens)}, a length-1 branch has width 1"
            )
        return OrbitClass(
            "InfiniteType",
            None,
            f"three leaves, branch lengths {tuple(lens)}: no finite pattern matches",
        )
    return OrbitClass("InfiniteType", None, f"{len(shapes)} leaves: infinitely many orbits")


def trivially_sparse(x: LabeledTree | FlagProduct) -> SparsenessCheck:
    """Report the first vertex where the subtree dimension beats phi(v)^2 - 1.

    Subtree dimensions come bottom-up in one pass, children before parents
    (labels grow toward the root): sub(v) = sum over children c of
    sub(c) + phi(c)(phi(v) - phi(c)).  On a product only the root ``r`` of
    ``product_to_tree`` can fail, since a chain vertex of label k spans at
    most k(k - 1)/2 <= k^2 - 1, so the check is the variety's dimension
    against n^2 - 1.
    """
    if isinstance(x, FlagProduct):
        n = x.ambient
        dim = instance_dimension(x)
        if dim > n * n - 1:
            return SparsenessCheck(True, "r", dim, n * n - 1)
        return SparsenessCheck(False)
    if not isinstance(x, LabeledTree):
        raise not_an_instance(x)
    lab, children = x.labels, x.children
    sub: dict[str, int] = {}
    for v in sorted(lab, key=lab.__getitem__):
        k = lab[v]
        sub[v] = sum(sub[c] + lab[c] * (k - lab[c]) for c in children[v])
    bad = [v for v in lab if sub[v] > lab[v] ** 2 - 1]
    if bad:
        v = min(bad)
        return SparsenessCheck(True, v, sub[v], lab[v] ** 2 - 1)
    return SparsenessCheck(False)
