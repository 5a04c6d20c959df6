"""Simple folds, fold-sequence verification and fast folding numbers.

A simple fold identifies two vertices at distance exactly two.  The
folding number of a connected graph is the largest s such that some
sequence of folds turns it into K_s; for a disconnected graph it is the
maximum over components.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable

from .graph_core import Graph, induced_subgraph
from .retract_threshold import (
    ISOLATED,
    UNIVERSAL,
    EliminationOrder,
    NotThresholdError,
    threshold_elimination,
)


class FoldError(ValueError):
    """Raised when a fold is attempted on a pair not at distance two."""


@dataclass(frozen=True)
class FoldSequence:
    """An ordered list of folds acting on one connected component.

    component lists the original vertex ids the folds act on; steps are
    (x, y) pairs in the ids of induced_subgraph(g, component), applied one
    after the other (each fold removes y and reindexes).
    """

    component: tuple[int, ...]
    steps: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class CompleteColoring:
    """A proper coloring whose color classes are pairwise joined by an edge."""

    classes: tuple[tuple[int, ...], ...]


class _Folder:
    """A graph under a run of folds, held as one mutable adjacency.

    Vertices keep their original ids; `ids` lists the live ones ascending,
    so a vertex's step id is its index there.  A fold merges y's
    neighborhood into x's and relinks y's neighbors, so it costs O(deg y)
    plus the shift of `ids`.  m is kept, so a complete result is
    recognized without building a Graph.
    """

    __slots__ = ("adj", "ids", "m")

    def __init__(self, g: Graph, vertices: Iterable[int]):
        self.ids = sorted(vertices)
        inside = set(self.ids)
        self.adj = [inside & nbrs for nbrs in g.adjacency]
        self.m = sum(len(self.adj[v]) for v in self.ids) // 2

    def fold(self, x: int, y: int) -> None:
        """Identify the vertices with step ids x and y, which must be at
        distance exactly two; y is removed and x keeps both neighborhoods."""
        ids = self.ids
        if not (0 <= x < len(ids) and 0 <= y < len(ids)) or x == y:
            raise FoldError(f"invalid fold pair ({x}, {y})")
        a, b = ids[x], ids[y]
        adj = self.adj
        kept, gone = adj[a], adj[b]
        if b in kept:
            raise FoldError(f"({x}, {y}) are adjacent, not at distance two")
        if kept.isdisjoint(gone):
            raise FoldError(f"({x}, {y}) have no common neighbor")
        fresh = gone - kept
        for u in gone:
            adj[u].remove(b)
        for u in fresh:
            adj[u].add(a)
        kept |= fresh
        self.m -= len(gone) - len(fresh)
        del ids[y]

    def graph(self) -> Graph:
        """The current graph, renumbered to 0..k-1 in the order of `ids`."""
        index = {v: i for i, v in enumerate(self.ids)}
        edges = [(i, index[u]) for i, v in enumerate(self.ids) for u in self.adj[v] if u > v]
        return Graph(len(self.ids), edges)


def apply_fold(g: Graph, x: int, y: int) -> Graph:
    """Identify x and y (which must be at distance exactly two).

    y is removed, x inherits the union of both neighborhoods, and vertices
    above y shift down by one.  No self-loop can arise since x and y are
    nonadjacent.
    """
    folder = _Folder(g, range(g.n))
    folder.fold(x, y)
    return folder.graph()


def verify_fold_sequence(
    g: Graph,
    seq: FoldSequence | tuple[tuple[int, int], ...] | list[tuple[int, int]],
    target: Graph,
) -> bool:
    """True iff the folds apply legally and the final graph is isomorphic to target.

    Plain step lists act on all of g; a FoldSequence acts on its component.
    For complete targets only size and completeness are compared.
    """
    if isinstance(seq, FoldSequence):
        comp, steps = seq.component, seq.steps
        if len(set(comp)) != len(comp) or any(not (0 <= v < g.n) for v in comp):
            return False
    else:
        comp, steps = range(g.n), seq
    folder = _Folder(g, comp)
    try:
        for x, y in steps:
            folder.fold(x, y)
    except FoldError:
        return False
    n = len(folder.ids)
    if n != target.n:
        return False
    full = n * (n - 1) // 2
    if target.m == full:
        return folder.m == full
    from .oracle import canonical_graph_key

    return canonical_graph_key(folder.graph()) == canonical_graph_key(target)


# ---------------------------------------------------------------------------
# fast folding numbers


def threshold_folding_number(g: Graph) -> tuple[int, FoldSequence]:
    """Folding number of a threshold graph: it equals the chromatic number.

    Returns chi(g) together with a fold sequence onto a clique of that
    size, built by folding each color class of an optimal coloring into a
    single vertex.  For disconnected input the best component is folded.
    """
    if g.n == 0:
        raise ValueError("folding number undefined for the empty graph")
    order = threshold_elimination(g)
    if order is None:
        raise NotThresholdError("input is not a threshold graph")
    return _threshold_folding(g, order)


def _threshold_folding(g: Graph, order: EliminationOrder) -> tuple[int, FoldSequence]:
    """threshold_folding_number from the graph's elimination order.

    A vertex removed as isolated is adjacent only to the universal
    vertices removed before it, so the isolated ones are pairwise
    nonadjacent and each universal one is adjacent to every later vertex.
    One color for the isolated ones and one for each universal vertex is
    therefore optimal: chi is the number of universal steps plus one.  All
    edges lie in one component, the vertices of positive degree, where the
    first universal vertex is a common neighbor of every merge.  Each step
    goes through the checked fold, so the sequence is verified as built.
    """
    stable = sorted(v for v, tag in order.steps if tag == ISOLATED and g.adjacency[v])
    if not stable:  # edgeless: every component is a single vertex
        return 1, FoldSequence(component=(0,), steps=())
    chi = 1 + sum(1 for _, tag in order.steps if tag == UNIVERSAL)
    comp = tuple(v for v in range(g.n) if g.adjacency[v])
    folder = _Folder(g, comp)
    head = bisect_left(folder.ids, stable[0])  # no step removes a smaller id
    steps = []
    for v in stable[1:]:
        steps.append((head, bisect_left(folder.ids, v)))
        folder.fold(*steps[-1])
    if len(folder.ids) != chi or folder.m != chi * (chi - 1) // 2:
        raise FoldError("constructed fold sequence failed verification")
    return chi, FoldSequence(component=comp, steps=tuple(steps))


def folding_number_universal(g: Graph, budget=None) -> int:
    """Folding number of a graph with a universal vertex.

    Strips the universal vertices, adding one per vertex, then finishes
    with the exact achromatic search on the residual graph.  A vertex
    universal in the residual is adjacent to every stripped vertex too, so
    one degree scan finds them all.  The folding and achromatic numbers
    agree on this class.
    """
    from .oracle import brute_achromatic

    if g.n == 0:
        raise ValueError("folding number undefined for the empty graph")
    rest = [v for v in range(g.n) if g.degree(v) < g.n - 1]
    if len(rest) == g.n:
        raise ValueError("graph has no universal vertex")
    residual, _ = induced_subgraph(g, rest)
    return g.n - len(rest) + brute_achromatic(residual, budget)[0]
