"""Finite-orbit classification and the easy sparseness certificate.

``orbit_class`` decides, purely combinatorially, whether the group of
projective transformations of the ambient space acts on the configuration
variety of a labeled tree with one orbit, two orbits, finitely many, or
infinitely many.  The finite cases are exactly: at most two leaves, or
three leaves whose sorted branch lengths and minimum widths match one of
the patterns below.

``trivially_sparse`` checks the dimension-count obstruction: a vertex v
whose subtree variety has dimension larger than phi(v)^2 - 1 rules out a
dense orbit outright (the group acting on that subtree is too small).
"""

from __future__ import annotations

from dataclasses import dataclass

from .trees import Branch, LabeledTree, branches, min_width

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


def _lengths(brs: list[Branch]) -> list[int]:
    return sorted(b.length for b in brs)


def orbit_class(tree: LabeledTree) -> OrbitClass:
    """Classify the orbit structure of the configuration variety.

    Three-leaf patterns, by sorted branch lengths (priority 2a > 2b > 2c > 2d):

    * 2a  (1, 1, l)
    * 2b  (1, 2, l) with l <= 4
    * 2c  (1, 2, l) with l >= 5, and the length-1 branch has width <= 2
          or the length-2 branch has width 1
    * 2d  (1, l1, l2) and some length-1 branch has width 1

    Branch roles are matched existentially over all assignments.
    """
    leaves = tree.leaves
    if len(leaves) == 1:
        return OrbitClass("Homogeneous", None, "single chain: the variety is one orbit")
    brs = branches(tree)
    widths = {b: min_width(tree, b) for b in brs}
    if (
        len(brs) == 2
        and all(b.length == 1 for b in brs)
        and min(widths.values()) == 1
    ):
        return OrbitClass(
            "TwoOrbits",
            None,
            "two branches of length 1, one of minimum width 1: exactly two orbits",
        )
    if len(leaves) <= 2:
        return OrbitClass("FiniteType", "1", f"{len(leaves)} leaves: finitely many orbits")
    if len(leaves) == 3:
        lens = _lengths(brs)
        ones = [b for b in brs if b.length == 1]
        twos = [b for b in brs if b.length == 2]
        if lens[0] == 1 and lens[1] == 1:
            return OrbitClass("FiniteType", "2a", f"branch lengths {tuple(lens)}")
        if lens[0] == 1 and lens[1] == 2 and lens[2] <= 4:
            return OrbitClass("FiniteType", "2b", f"branch lengths {tuple(lens)}")
        if lens[0] == 1 and lens[1] == 2 and lens[2] >= 5:
            if any(widths[b] <= 2 for b in ones) or any(widths[b] == 1 for b in twos):
                return OrbitClass(
                    "FiniteType",
                    "2c",
                    f"branch lengths {tuple(lens)} with admissible widths "
                    f"(length-1 width {min(widths[b] for b in ones)}, "
                    f"length-2 width {min(widths[b] for b in twos)})",
                )
        if lens[0] == 1 and any(widths[b] == 1 for b in ones):
            return OrbitClass(
                "FiniteType", "2d", f"branch lengths {tuple(lens)}, a length-1 branch has width 1"
            )
        return OrbitClass(
            "InfiniteType",
            None,
            f"three leaves, branch lengths {tuple(lens)}: no finite pattern matches",
        )
    return OrbitClass("InfiniteType", None, f"{len(leaves)} leaves: infinitely many orbits")


def trivially_sparse(tree: LabeledTree) -> SparsenessCheck:
    """Report the first vertex where the subtree dimension beats phi(v)^2 - 1.

    Subtree dimensions come bottom-up in one pass, children before parents
    (labels grow toward the root): sub(v) = sum over children c of
    sub(c) + phi(c)(phi(v) - phi(c)).
    """
    lab, children = tree.labels, tree.children
    sub: dict[str, int] = {}
    for v in sorted(lab, key=lab.__getitem__):
        k = lab[v]
        sub[v] = sum(sub[c] + lab[c] * (k - lab[c]) for c in children[v])
    bad = [v for v in lab if sub[v] > lab[v] ** 2 - 1]
    if bad:
        v = min(bad)
        return SparsenessCheck(True, v, sub[v], lab[v] ** 2 - 1)
    return SparsenessCheck(False)
