"""Simple folds, fold-sequence verification and fast folding numbers.

A simple fold identifies two vertices at distance exactly two.  The
folding number of a connected graph is the largest s such that some
sequence of folds turns it into K_s; for a disconnected graph it is the
maximum over components.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cotree import Cotree, build_cotree, chromatic_number, optimal_coloring
from .graph_core import Graph, components, induced_subgraph


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


def apply_fold(g: Graph, x: int, y: int) -> Graph:
    """Identify x and y (which must be at distance exactly two).

    y is removed, x inherits the union of both neighborhoods, and vertices
    above y shift down by one.  No self-loop can arise since x and y are
    nonadjacent.
    """
    if not (0 <= x < g.n and 0 <= y < g.n) or x == y:
        raise FoldError(f"invalid fold pair ({x}, {y})")
    if g.has_edge(x, y):
        raise FoldError(f"({x}, {y}) are adjacent, not at distance two")
    if not (g.adjacency[x] & g.adjacency[y]):
        raise FoldError(f"({x}, {y}) have no common neighbor")

    def newid(v: int) -> int:
        return v - 1 if v > y else v

    merged = (g.adjacency[x] | g.adjacency[y]) - {x, y}
    edges = set()
    for u, v in g.edges():
        if y in (u, v):
            continue
        edges.add((newid(u), newid(v)))
    nx = newid(x)
    for u in merged:
        edges.add((nx, newid(u)))
    return Graph(g.n - 1, edges)


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
        comp = seq.component
        if sorted(set(comp)) != sorted(comp) or any(
            not (0 <= v < g.n) for v in comp
        ):
            return False
        current, _ = induced_subgraph(g, comp)
        steps = seq.steps
    else:
        current = g
        steps = tuple(seq)
    for x, y in steps:
        try:
            current = apply_fold(current, x, y)
        except FoldError:
            return False
    if current.n != target.n:
        return False
    full = target.n * (target.n - 1) // 2
    if target.m == full:
        return current.m == full
    from .oracle import canonical_graph_key

    return canonical_graph_key(current) == canonical_graph_key(target)


# ---------------------------------------------------------------------------
# fast folding numbers


def threshold_folding_number(g: Graph) -> tuple[int, FoldSequence]:
    """Folding number of a threshold graph: it equals the chromatic number.

    Returns chi(g) together with a fold sequence onto a clique of that
    size, built by folding each color class of an optimal coloring into a
    single vertex.  For disconnected input the best component is folded.
    """
    from .retract_threshold import NotThresholdError, threshold_elimination

    if g.n == 0:
        raise ValueError("folding number undefined for the empty graph")
    if threshold_elimination(g) is None:
        raise NotThresholdError("input is not a threshold graph")
    best_comp: tuple[int, ...] = ()
    best_chi = 0
    for comp in components(g):
        sub, _ = induced_subgraph(g, comp)
        tree = build_cotree(sub)
        chi = chromatic_number(tree)
        if chi > best_chi:
            best_chi, best_comp, best_sub, best_tree = chi, comp, sub, tree
    try:
        steps = _class_merge_sequence(best_sub, best_tree)
    except FoldError:
        if best_sub.n <= 8:
            from .oracle import brute_folding_number

            s, seq = brute_folding_number(best_sub)
            if s != best_chi:
                raise
            steps = seq.steps
        else:
            raise
    seq = FoldSequence(component=best_comp, steps=steps)
    target = Graph(best_chi, _complete_edges(best_chi))
    if not verify_fold_sequence(g, seq, target):
        raise FoldError("constructed fold sequence failed verification")
    return best_chi, seq


def _complete_edges(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def _class_merge_sequence(sub: Graph, tree: Cotree) -> tuple[tuple[int, int], ...]:
    """Fold each color class of an optimal coloring of sub, read off its
    cotree, into its first member.

    Assumes a connected threshold graph; every merge goes through a
    shared neighbor, and apply_fold rechecks the distance-two condition
    at every step.
    """
    coloring = optimal_coloring(tree)
    classes: dict[int, list[int]] = {}
    for v in range(sub.n):
        classes.setdefault(coloring[v], []).append(v)
    current = sub
    alive = list(range(sub.n))  # alive[original] = current id, -1 if folded away
    steps: list[tuple[int, int]] = []
    for color in sorted(classes):
        members = sorted(classes[color])
        head = members[0]
        for v in members[1:]:
            x, y = alive[head], alive[v]
            steps.append((x, y))
            current = apply_fold(current, x, y)
            alive[v] = -1
            for w in range(sub.n):
                if alive[w] > y:
                    alive[w] -= 1
    return tuple(steps)


def folding_number_universal(g: Graph, budget=None) -> int:
    """Folding number of a graph with a universal vertex.

    Strips universal vertices one at a time, adding one per strip, then
    finishes with the exact achromatic search on the residual graph.  The
    folding and achromatic numbers agree on this class.
    """
    from .oracle import DEFAULT_ACHROMATIC_BUDGET, brute_achromatic

    if g.n == 0:
        raise ValueError("folding number undefined for the empty graph")
    if not any(g.degree(v) == g.n - 1 for v in range(g.n)):
        raise ValueError("graph has no universal vertex")
    stripped = 0
    current = g
    while current.n > 0:
        universal = next(
            (v for v in range(current.n) if current.degree(v) == current.n - 1), None
        )
        if universal is None:
            break
        keep = [v for v in range(current.n) if v != universal]
        current, _ = induced_subgraph(current, keep)
        stripped += 1
    if current.n == 0:
        return stripped
    value, _ = brute_achromatic(current, budget or DEFAULT_ACHROMATIC_BUDGET)
    return stripped + value
