"""Absolute retracts among connected cographs.

A connected cograph is a retract of every cograph that contains it as an
induced subgraph with the same clique number exactly when each of its
vertices lies in a maximum clique.  When some vertex misses every maximum
clique, adding a true twin to a deficient union branch produces a
certified non-retracting supergraph.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cotree import JOIN, UNION, NotCographError, _Tree, _classed_cotree, _walk_down
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


def _require_connected_cograph(h: Graph) -> _Tree:
    """h's cotree; ValueError if h is empty or disconnected, else
    NotCographError if h is not a cograph.  A cograph is connected exactly
    when its cotree's root is a leaf or a join."""
    if h.n == 0:
        raise ValueError("empty graph")
    try:
        tree = _classed_cotree(h)[0]
    except NotCographError:
        if len(components(h)) != 1:
            raise ValueError(_DISCONNECTED) from None
        raise
    if tree.kind[tree.root] == UNION:
        raise ValueError(_DISCONNECTED)
    return tree


def is_absolute_retract(h: Graph) -> AbsoluteVerdict:
    """Test whether every vertex of h lies in a maximum clique.

    h must be a connected cograph.  A failing verdict carries a verified
    counterexample embedding built by counterexample_embedding.  v lies in
    a maximum clique iff its branch is widest at every union above it;
    then v and the maximum cliques of its join siblings above form one.
    """
    tree = _require_connected_cograph(h)
    n, kind, kids, omega = tree.n, tree.kind, tree.kids, tree.omega
    found: dict[int, tuple[int, ...]] = {}
    # a node with the join siblings' cliques above it, None if it misses
    # every maximum clique
    stack: list[tuple[int, tuple[int, ...] | None]] = [(tree.root, ())]
    while stack:
        v, above = stack.pop()
        if v < n:
            if above is not None:
                found[v] = tuple(sorted(above + (v,)))
            continue
        if kind[v] == UNION:
            stack.extend((c, above if omega[c] == omega[v] else None) for c in kids[v])
            continue
        if above is None:
            stack.extend((c, None) for c in kids[v])
            continue
        joined, start = tuple(_walk_down(tree, (v,))[1]), 0  # the children's cliques in order
        for c in kids[v]:
            stack.append((c, above + joined[:start] + joined[start + omega[c] :]))
            start += omega[c]
    failing = tuple(v for v in range(h.n) if v not in found)
    if not failing:
        return AbsoluteVerdict(is_absolute=True, max_cliques=dict(sorted(found.items())))
    counter = _counterexample(h, tree)
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
    return _counterexample(h, _require_connected_cograph(h))


def _counterexample(h: Graph, tree: _Tree) -> Graph:
    """counterexample_embedding from h's cotree."""
    n, kind, kids, omega = tree.n, tree.kind, tree.kids, tree.omega
    deficient = -1
    stack = [tree.root]
    while stack and deficient < 0:
        v = stack.pop()
        if v < n:
            continue
        if kind[v] == UNION:
            deficient = next((c for c in kids[v] if omega[c] < omega[v]), -1)
        stack.extend(reversed(kids[v]))
    if deficient < 0:
        raise ValueError("graph is an absolute retract; no counterexample exists")
    twin_of, new = min(_walk_down(tree, (deficient,))[1]), h.n
    twin = h.adjacency[twin_of] | {twin_of}
    adj = list(h.adjacency)
    for u in twin:
        adj[u] = adj[u] | {new}
    adj.append(twin)
    g = Graph._from_sets(h.n + 1, adj)
    answer = _partitioned_on_cotree(g, _with_true_twin(tree, twin_of), frozenset(range(h.n)))[0]
    if not isinstance(answer, NoRetract):
        raise AssertionError("counterexample construction failed certification")
    return g


def _with_true_twin(tree: _Tree, v: int) -> _Tree:
    """tree with leaf tree.n added as a true twin of leaf v, which is not
    the root, normalized: right after v under a join parent, else joined
    with v in a new node numbered just before v's parent.  Each node still
    follows its children, but not always in left-to-right postorder: only
    the partitioned pass reads this tree, and it needs no more."""
    n, twinned = tree.n, _Tree(tree.n + 1)
    p = next(u for u in range(n, len(tree.kind)) if v in tree.kids[u])
    i, split = tree.kids[p].index(v), tree.kind[p] != JOIN
    for u in range(n, len(tree.kind)):
        got = tuple(c if c < n else c + 1 + (split and c >= p) for c in tree.kids[u])
        if u == p and split:
            got = got[:i] + (twinned.add(JOIN, (v, n)),) + got[i + 1 :]
        elif u == p:
            got = got[: i + 1] + (n,) + got[i + 1 :]
        twinned.add(tree.kind[u], got)
    return twinned
