"""Retract decision for trivially perfect graph pairs.

A connected trivially perfect graph is a clique of universal vertices
joined onto a disjoint union of smaller trivially perfect graphs, so its
cotree has at most one non-leaf child under every join node.  `tp_retract`
checks that class and then runs the cotree-pair solver it shares with the
general route (`retract_cograph.cotree_pair_retract`).  On these cotrees
that solver's join step is forced: universal leaves are paired off with
universal leaves and the remaining pattern cocomponents go to the host's
non-leaf child.  Union levels are resolved by a maximum bipartite
matching over component pairs, with homomorphisms absorbing the leftover
host components.
"""

from __future__ import annotations

from .cotree import COGRAPH, NOT_COGRAPH, _PreparedGraph
from .graph_core import Graph, NoRetract, RetractCertificate
from .retract_cograph import cotree_pair_retract


class NotTriviallyPerfectError(ValueError):
    """An input graph is not trivially perfect."""


def universal_vertices(g: Graph) -> tuple[int, ...]:
    """Exactly the vertices adjacent to all others."""
    return tuple(v for v in range(g.n) if g.degree(v) == g.n - 1)


def _prepared_tp(g: Graph, what: str) -> _PreparedGraph:
    """The prepared graph, or NotTriviallyPerfectError naming its P4 or C4."""
    prepared = _PreparedGraph(g)
    if prepared.cls.name == NOT_COGRAPH:
        raise NotTriviallyPerfectError(
            f"{what} graph contains an induced P4 on {prepared.cls.witness}"
        )
    if prepared.cls.name == COGRAPH:
        raise NotTriviallyPerfectError(f"{what} graph contains an induced C4")
    return prepared


def tp_retract(g: Graph, h: Graph) -> RetractCertificate | NoRetract:
    """Decide whether h is a retract of g for trivially perfect inputs.

    Raises NotTriviallyPerfectError when either graph fails the class
    check.  YES answers carry a verified certificate; NO answers name the
    failing condition (universal-count, clique-mismatch or
    matching-deficit).
    """
    pg, ph = _prepared_tp(g, "host"), _prepared_tp(h, "pattern")
    return cotree_pair_retract(g, h, pg.cotree, ph.cotree)
