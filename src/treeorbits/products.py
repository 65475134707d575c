"""Products of partial flag varieties and the density-preserving rewrites.

A product instance is a list of strictly increasing dimension vectors
(one per factor) inside a common ambient dimension.  The rewrites here
each preserve whether the diagonal action on the product has a dense
orbit, in both directions:

* ``dualize``          every k becomes n - k, each factor reversed
                       (``dual_factor``);
* ``reduce_span``      cut one factor to the generic span of the others'
                       top subspaces, passing to its derived sequence;
* ``reduce_half``      a triple self-product with n = 2 k_r descends to
                       the prefix inside the top subspace;
* ``tree_to_product``  a three-leaf tree becomes a three-factor product
                       at its deepest junction.

The bridge functions ``as_flag_product`` / ``product_to_tree`` convert
between product instances and the trees that index the same varieties;
``as_tree`` is the one place an instance of either kind is read as its tree,
and ``entry_vertex`` names a product tree's vertices; ``product_dimension``
is the dimension of a product's variety, and ``instance_dimension`` that of
either kind, building no tree for a product.  ``forget_entries`` lists the vertex deletions of a
product's tree on the factors themselves, building no tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import lt

from .errors import BadRange, BoundsError
from .trees import LabeledTree, dimension

@dataclass(frozen=True, slots=True)
class FlagProduct:
    """Product of partial flag varieties in a common ambient dimension.

    ``factors`` holds one strictly increasing tuple of subspace dimensions
    per factor; every entry lies strictly between 0 and ``ambient``.  An
    empty factor list is the trivial instance (a point).
    """

    factors: tuple[tuple[int, ...], ...]
    ambient: int

    def __post_init__(self):
        n = self.ambient
        if n.__class__ is bool or not isinstance(n, int) or n < 1:
            raise BoundsError(f"ambient dimension must be a positive integer, got {n!r}")
        factors = tuple(map(tuple, self.factors))
        object.__setattr__(self, "factors", factors)
        # plain loops and map: a product is built for every instance the
        # engine visits, and generator expressions cost more than the checks
        for f in factors:
            if not f:
                raise BoundsError("empty factor; drop it instead")
            for k in f:
                if k.__class__ is bool or not isinstance(k, int) or not 0 < k < n:
                    raise BoundsError(f"flag dimension {k!r} out of range (0, {n})")
            if len(f) > 1 and not all(map(lt, f, f[1:])):
                raise BoundsError(f"factor {f} is not strictly increasing")

    @property
    def num_factors(self) -> int:
        return len(self.factors)

    def spec_string(self) -> str:
        """Display form, e.g. ``F(1,3;4)^3`` or ``F(2;5)*F(1,2;5)``."""
        if not self.factors:
            return f"trivial({self.ambient})"
        parts = []
        for f, grp in groupby(self.factors):
            m = len(list(grp))
            atom = f"F({','.join(map(str, f))};{self.ambient})"
            parts.append(atom if m == 1 else f"{atom}^{m}")
        return "*".join(parts)

    def __repr__(self) -> str:
        return f"FlagProduct({self.spec_string()!r})"


def _normalized(factors, ambient: int) -> FlagProduct:
    """Drop entries equal to the ambient and factors that end up empty."""
    cleaned = []
    for f in factors:
        f = tuple(k for k in f if k < ambient)
        if f:
            cleaned.append(f)
    return FlagProduct(tuple(cleaned), ambient)


def derived_sequence(k: tuple[int, ...], d: int, n: int) -> tuple[int, ...]:
    """Image of the flag dimensions k under a generic d-codimension cut of F^n.

    With the conventions k_0 = 0 and k_{r+1} = n, find the index j with
    k_{j-1} <= d < k_j; the result is (k_j - d, ..., k_r - d), empty when
    d is at least k_r.
    """
    if not 0 <= d < n:
        raise BadRange(f"need 0 <= d < n, got d={d}, n={n}")
    ext = (0,) + tuple(k) + (n,)
    if any(a >= b for a, b in zip(ext, ext[1:])):
        raise BoundsError(f"flag dimensions {k} not strictly increasing inside {n}")
    j = next(i for i in range(1, len(ext)) if ext[i - 1] <= d < ext[i])
    return tuple(v - d for v in k[j - 1 :])


def dual_factor(f: tuple[int, ...], n: int) -> tuple[int, ...]:
    """A factor's dual inside ambient n: every k becomes n - k, the factor reversed."""
    return tuple([n - k for k in reversed(f)])


def dualize(p: FlagProduct) -> FlagProduct:
    """Replace every subspace dimension k by n - k, reversing each factor."""
    n = p.ambient
    return FlagProduct(tuple(dual_factor(f, n) for f in p.factors), n)


def reduce_span(p: FlagProduct) -> FlagProduct | None:
    """Cut one factor to the generic span of the other factors' top subspaces.

    Applies at the first factor index f for which the top dimensions of the
    remaining factors sum to n' with 1 <= n' < n.  The kept factors move
    into the span unchanged and factor f is replaced by its derived
    sequence for d = n - n'.  Returns None when no factor qualifies.
    """
    if p.num_factors < 2:
        return None
    tops = [f[-1] for f in p.factors]
    total = sum(tops)
    for i in range(p.num_factors):
        n_new = total - tops[i]
        if 1 <= n_new < p.ambient:
            d = p.ambient - n_new
            derived = derived_sequence(p.factors[i], d, p.ambient)
            kept = [f for j, f in enumerate(p.factors) if j != i]
            return _normalized(kept + [derived], n_new)
    return None


def reduce_half(p: FlagProduct) -> FlagProduct | None:
    """Descend a triple self-product with n = 2 k_r to the prefix inside the top.

    F(k_1,...,k_r; 2 k_r)^3 has a dense orbit exactly when
    F(k_1,...,k_{r-1}; k_r)^3 does.  Returns None when the shape does not
    match.
    """
    if p.num_factors != 3 or len(set(p.factors)) != 1:
        return None
    k = p.factors[0]
    if p.ambient != 2 * k[-1]:
        return None
    prefix = k[:-1]
    return _normalized([prefix, prefix, prefix], k[-1])


def as_flag_product(tree: LabeledTree) -> FlagProduct | None:
    """Read a union of chains joined only at the root as a product instance.

    Returns None when some vertex other than the root has two or more
    incoming edges.  Factor order follows the root's children sorted by
    name; a single-vertex tree gives the trivial instance.
    """
    for v in tree.labels:
        if v != tree.root and len(tree.children[v]) > 1:
            return None
    factors = []
    for c in tree.children[tree.root]:
        chain = [c]
        while tree.children[chain[-1]]:
            chain.append(tree.children[chain[-1]][0])
        factors.append(tuple(tree.labels[v] for v in reversed(chain)))
    return FlagProduct(tuple(factors), tree.ambient)


def product_dimension(p: FlagProduct) -> int:
    """Dimension of the variety, ``trees.dimension`` of ``product_to_tree(p)``:
    sum of a(b - a) over consecutive entries a, b of each factor, the last
    entry under the ambient n."""
    n = p.ambient
    return sum(a * (b - a) for f in p.factors for a, b in zip(f, (*f[1:], n)))


def instance_dimension(x: LabeledTree | FlagProduct) -> int:
    """Dimension of the variety of a tree or product, a product's read on its factors."""
    return product_dimension(x) if isinstance(x, FlagProduct) else dimension(as_tree(x))


def entry_vertex(i: int, j: int) -> str:
    """The vertex of ``product_to_tree`` with entry j (from 1) of factor i: ``fi.j``."""
    return f"f{i}.{j}"


def product_to_tree(p: FlagProduct) -> LabeledTree:
    """Chain-union tree indexing the same variety, under the root ``r``."""
    labels = {"r": p.ambient}
    edges = []
    for i, f in enumerate(p.factors):
        prev = "r"
        for j in range(len(f), 0, -1):
            name = entry_vertex(i, j)
            labels[name] = f[j - 1]
            edges.append((name, prev))
            prev = name
    return LabeledTree(labels, edges)


def forget_entries(p: FlagProduct):
    """Every vertex deletion of ``product_to_tree(p)``, read on the factors.

    Yields ``(vertex, image)`` in vertex-name order, where names sort as
    strings, so ``f10.1`` comes before ``f2.1``.  Deleting ``fi.j`` drops
    entry j of factor i; the factors keep their order and one left empty is
    dropped.  Every such deletion is surjective, as a chain vertex has at
    most one source and it has a smaller label.  The image's tree, names
    kept, is ``forget_vertex(product_to_tree(p), vertex)``.
    """
    n = p.ambient
    for name, i, j in sorted((entry_vertex(i, j), i, j)
                             for i, f in enumerate(p.factors) for j in range(1, len(f) + 1)):
        f = p.factors[i]
        kept = f[:j - 1] + f[j:]
        yield name, FlagProduct(p.factors[:i] + ((kept,) if kept else ()) + p.factors[i + 1 :], n)


def as_tree(x: LabeledTree | FlagProduct) -> LabeledTree:
    """The tree indexing the variety of a tree or product instance.

    Raises TypeError for anything else, such as unparsed text.
    """
    if isinstance(x, FlagProduct):
        return product_to_tree(x)
    if isinstance(x, LabeledTree):
        return x
    raise not_an_instance(x)


def not_an_instance(x) -> TypeError:
    """The error for an argument that is neither a tree nor a product."""
    return TypeError(f"expected a LabeledTree or FlagProduct, got {type(x).__name__}; "
                     "read text with parse_instance")


def _meet(tree: LabeledTree, a: str, b: str) -> str:
    """First common vertex of the two root chains."""
    seen = {a}
    v = a
    while v != tree.root:
        v = tree.parent[v]
        seen.add(v)
    v = b
    while v not in seen:
        v = tree.parent[v]
    return v


def tree_to_product(tree: LabeledTree) -> FlagProduct | None:
    """Reduce a three-leaf tree to a three-factor product at its deepest junction.

    Two of the leaf chains meet at a junction j1; the third joins the trunk
    at j2 on the chain from j1 to the root.  Density is unchanged when the
    two deep chains are kept as factors inside phi(j1) and the third chain
    is replaced by its derived sequence for d = phi(j2) - phi(j1).  Returns
    None unless the tree has exactly three leaves and at least one junction
    below the root (a plain chain union is already a product).
    """
    leaves = tree.leaves
    if len(leaves) != 3:
        return None
    pairs = [(0, 1), (0, 2), (1, 2)]
    meets = {pr: _meet(tree, leaves[pr[0]], leaves[pr[1]]) for pr in pairs}
    deep = max(pairs, key=lambda pr: (tree.distance(meets[pr]), -pairs.index(pr)))
    j1 = meets[deep]
    third = ({0, 1, 2} - set(deep)).pop()
    j2 = _meet(tree, leaves[deep[0]], leaves[third])
    if j1 == tree.root:
        return None

    def chain_below(leaf: str, stop: str) -> tuple[int, ...]:
        path = [leaf]
        while tree.parent[path[-1]] != stop:
            path.append(tree.parent[path[-1]])
        return tuple(tree.labels[v] for v in path)

    f1 = chain_below(leaves[deep[0]], j1)
    f2 = chain_below(leaves[deep[1]], j1)
    f3 = chain_below(leaves[third], j2)
    d = tree.labels[j2] - tree.labels[j1]
    f3 = derived_sequence(f3, d, tree.labels[j2]) if d else f3
    return _normalized([f1, f2, f3], tree.labels[j1])
