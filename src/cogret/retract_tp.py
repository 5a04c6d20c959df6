"""Retract decision for trivially perfect graph pairs.

A connected trivially perfect graph is a clique of universal vertices
joined onto a disjoint union of smaller trivially perfect graphs, so its
cotree has at most one non-leaf child under every join node.  `tp_retract`
hands both graphs to the route function in `retract_cograph`, which checks
that class and then runs the cotree-pair solver shared with the general
route (`cotree_pair_retract`).  On these cotrees
that solver's join step is forced: universal leaves are paired off with
universal leaves and the remaining pattern cocomponents go to the host's
non-leaf child.  Union levels are resolved by a maximum bipartite
matching over component pairs, with homomorphisms absorbing the leftover
host components.
"""

from __future__ import annotations

from .cotree import _PreparedGraph
from .graph_core import Graph, NoRetract, RetractCertificate
from .retract_cograph import NotTriviallyPerfectError, _routed_retract  # the error re-exported


def universal_vertices(g: Graph) -> tuple[int, ...]:
    """Exactly the vertices adjacent to all others."""
    return tuple(v for v in range(g.n) if g.degree(v) == g.n - 1)


def tp_retract(g: Graph, h: Graph) -> RetractCertificate | NoRetract:
    """Decide whether h is a retract of g for trivially perfect inputs.

    Raises NotTriviallyPerfectError when either graph fails the class
    check.  YES answers carry a verified certificate; NO answers name the
    failing condition (universal-count, clique-mismatch or
    matching-deficit).
    """
    return _routed_retract(_PreparedGraph(g), _PreparedGraph(h), "tp")[0]
