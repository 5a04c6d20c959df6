"""Absolute retracts among connected cographs.

A connected cograph is a retract of every cograph that contains it as an
induced subgraph with the same clique number exactly when each of its
vertices lies in a maximum clique.  When some vertex misses every maximum
clique, adding a true twin to a deficient union branch produces a
certified non-retracting supergraph.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cotree import (
    JOIN,
    UNION,
    Cotree,
    Internal,
    Leaf,
    NotCographError,
    _postorder,
    build_cotree,
    clique_table,
    normalize,
)
from .graph_core import Graph, NoRetract, components
from .retract_cograph import _partitioned_on_cotree


@dataclass(frozen=True)
class AbsoluteVerdict:
    """Outcome of the absolute-retract test.

    On success max_cliques maps every vertex to a maximum clique
    containing it.  On failure failing_vertices lists the vertices outside
    all maximum cliques and counterexample holds a supergraph with the
    same clique number that provably does not retract onto the input.
    """

    is_absolute: bool
    max_cliques: dict[int, tuple[int, ...]] | None = None
    failing_vertices: tuple[int, ...] = ()
    counterexample: Graph | None = None


_DISCONNECTED = "absolute-retract test requires a connected graph"


def _require_connected_cograph(h: Graph) -> Cotree:
    """h's cotree; ValueError if h is empty or disconnected, else
    NotCographError if h is not a cograph.  A cograph is connected exactly
    when its cotree's root is a leaf or a join."""
    if h.n == 0:
        raise ValueError("empty graph")
    try:
        root = build_cotree(h)
    except NotCographError:
        if len(components(h)) != 1:
            raise ValueError(_DISCONNECTED) from None
        raise
    if isinstance(root, Internal) and root.kind == UNION:
        raise ValueError(_DISCONNECTED)
    return root


def is_absolute_retract(h: Graph) -> AbsoluteVerdict:
    """Test whether every vertex of h lies in a maximum clique.

    h must be a connected cograph.  A failing verdict carries a verified
    counterexample embedding built by counterexample_embedding.  v lies in
    a maximum clique iff its branch is widest at every union above it;
    then v and the stored cliques of its join siblings above form one.
    """
    root = _require_connected_cograph(h)
    cliques = clique_table(root)
    found: dict[int, tuple[int, ...]] = {}
    # a node with the join siblings' cliques above it, None if it misses
    # every maximum clique
    stack: list[tuple[Cotree, tuple[int, ...] | None]] = [(root, ())]
    while stack:
        node, above = stack.pop()
        if isinstance(node, Leaf):
            if above is not None:
                found[node.vertex] = tuple(sorted(above + (node.vertex,)))
            continue
        sizes = [len(cliques[id(c)]) for c in node.children]
        if node.kind == UNION:
            best = max(sizes)
            stack.extend((c, above if k == best else None) for c, k in zip(node.children, sizes))
            continue
        joined, start = cliques[id(node)], 0  # the children's cliques in order
        for c, k in zip(node.children, sizes):
            rest = None if above is None else above + joined[:start] + joined[start + k :]
            stack.append((c, rest))
            start += k
    failing = tuple(v for v in range(h.n) if v not in found)
    if not failing:
        return AbsoluteVerdict(is_absolute=True, max_cliques=dict(sorted(found.items())))
    counter = _counterexample(h, root, cliques)
    return AbsoluteVerdict(is_absolute=False, failing_vertices=failing, counterexample=counter)


def counterexample_embedding(h: Graph) -> Graph:
    """A supergraph with equal clique number that does not retract onto h.

    Finds the first union node (preorder) with a branch whose clique
    number falls short of a sibling's, then adds one vertex as a true twin
    of the lowest-indexed maximum-clique vertex of that deficient branch.
    The result keeps h induced on 0..n-1 and is certified non-retracting
    by the partitioned solver before being returned.  Raises ValueError
    when h is an absolute retract.
    """
    root = _require_connected_cograph(h)
    return _counterexample(h, root, clique_table(root))


def _counterexample(
    h: Graph, root: Cotree, cliques: dict[int, tuple[int, ...]]
) -> Graph:
    """counterexample_embedding from h's cotree and its clique table."""
    deficient: Cotree | None = None
    stack = [root]
    while stack and deficient is None:
        node = stack.pop()
        if isinstance(node, Leaf):
            continue
        if node.kind == UNION:
            best = max(len(cliques[id(c)]) for c in node.children)
            deficient = next(
                (c for c in node.children if len(cliques[id(c)]) < best), None
            )
        stack.extend(reversed(node.children))
    if deficient is None:
        raise ValueError("graph is an absolute retract; no counterexample exists")
    twin_of, new = min(cliques[id(deficient)]), h.n
    twin = h.adjacency[twin_of] | {twin_of}
    adj = list(h.adjacency)
    for u in twin:
        adj[u] = adj[u] | {new}
    adj.append(twin)
    g = Graph._from_sets(h.n + 1, adj)
    tree = _with_true_twin(root, twin_of, new)
    answer = _partitioned_on_cotree(g, tree, frozenset(range(h.n)))
    if not isinstance(answer, NoRetract):
        raise AssertionError("counterexample construction failed certification")
    return g


def _with_true_twin(root: Cotree, v: int, new: int) -> Cotree:
    """root with leaf `new` added as a true twin of leaf v, normalized."""
    rebuilt: dict[int, Cotree] = {}
    for node in _postorder(root):
        if isinstance(node, Leaf):
            rebuilt[id(node)] = Internal(JOIN, (node, Leaf(new))) if node.vertex == v else node
        else:
            rebuilt[id(node)] = Internal(node.kind, tuple(rebuilt[id(c)] for c in node.children))
    return normalize(rebuilt[id(root)])
