"""Linear-ish retract decision for pairs of threshold graphs.

Threshold graphs are exactly the graphs in which every induced subgraph
has a universal or an isolated vertex, so they admit an elimination
ordering.  Because removing a universal vertex lowers every remaining
degree by one and removing an isolated vertex changes nothing, the whole
recursion runs on the original degree sequence with a single offset,
without materializing any subgraph.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph_core import (
    Graph,
    NoRetract,
    RetractCertificate,
    verify_retract_certificate,
)

ISOLATED = "isolated"
UNIVERSAL = "universal"


class NotThresholdError(ValueError):
    """An input graph is not a threshold graph."""


@dataclass(frozen=True)
class EliminationOrder:
    """Sequence of (vertex, tag) removals; each removed vertex is isolated
    or universal in the graph that remains at its step."""

    steps: tuple[tuple[int, str], ...]


def threshold_elimination(g: Graph) -> EliminationOrder | None:
    """Eliminate isolated/universal vertices until empty; None if stuck.

    Isolated removals are preferred when both apply (only possible for a
    single remaining vertex).  Runs in O(n log n) using the degree-offset
    invariant described in the module docstring.
    """
    order, deg = _degree_order(g)
    lo, hi = 0, g.n - 1
    universals_removed = 0
    steps: list[tuple[int, str]] = []
    while lo <= hi:
        remaining = hi - lo + 1
        if deg[order[lo]] == universals_removed:
            steps.append((order[lo], ISOLATED))
            lo += 1
        elif deg[order[hi]] - universals_removed == remaining - 1:
            steps.append((order[hi], UNIVERSAL))
            hi -= 1
            universals_removed += 1
        else:
            return None
    return EliminationOrder(steps=tuple(steps))


def _degree_order(g: Graph) -> tuple[list[int], list[int]]:
    """Vertices by (degree, id), a stable sort with a C-level key, and the
    degree list it sorted by."""
    deg = list(map(len, g.adjacency))
    return sorted(range(g.n), key=deg.__getitem__), deg


class _Residue:
    """Two-pointer view of what remains of a threshold graph.

    Vertices sorted by (degree, id); lo/hi delimit the remaining block and
    `offset` counts universal removals, so the effective degree of v is
    degree(v) - offset.
    """

    __slots__ = ("deg", "order", "lo", "hi", "offset")

    def __init__(self, g: Graph):
        self.order, self.deg = _degree_order(g)
        self.lo = 0
        self.hi = g.n - 1
        self.offset = 0

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1

    def min_effective_degree(self) -> int:
        return self.deg[self.order[self.lo]] - self.offset

    def max_effective_degree(self) -> int:
        return self.deg[self.order[self.hi]] - self.offset

    def isolated_block(self) -> list[int]:
        """All remaining vertices of effective degree zero (a prefix)."""
        out = []
        i = self.lo
        while i <= self.hi and self.deg[self.order[i]] == self.offset:
            out.append(self.order[i])
            i += 1
        return out

    def pop_universal(self) -> int:
        v = self.order[self.hi]
        self.hi -= 1
        self.offset += 1
        return v

    def drop_isolated(self, count: int) -> None:
        self.lo += count

    def remaining(self) -> list[int]:
        return self.order[self.lo : self.hi + 1]


def threshold_retract(g: Graph, h: Graph) -> RetractCertificate | NoRetract:
    """Decide whether h is a retract of g, for threshold graphs only.

    Raises NotThresholdError if either input fails the class check.  Every
    YES answer carries a certificate that is re-verified before returning.
    The recursion pairs universal vertices while both residues are
    connected, strips isolated vertices in lockstep while both are
    disconnected, and funnels a disconnected host into a connected
    pattern through the pattern's universal vertex.
    """
    if threshold_elimination(g) is None:
        raise NotThresholdError("host graph is not a threshold graph")
    if threshold_elimination(h) is None:
        raise NotThresholdError("pattern graph is not a threshold graph")
    return _solve_threshold(g, h)


def _solve_threshold(g: Graph, h: Graph) -> RetractCertificate | NoRetract:
    """threshold_retract for inputs the caller knows to be threshold graphs."""
    rho = [-1] * g.n
    gamma = [-1] * h.n
    rg = _Residue(g)
    rh = _Residue(h)

    while True:
        if rh.size == 0:
            if rg.size > 0:
                return NoRetract(
                    "pattern exhausted while host residue is nonempty",
                    tuple(rg.remaining()),
                )
            break
        if rg.size == 0:
            return NoRetract("host exhausted while pattern residue is nonempty")
        if rh.size == 1:
            y = rh.order[rh.lo]
            if rg.max_effective_degree() > 0:
                return NoRetract(
                    "pattern residue is a single vertex but host residue has an edge"
                )
            rest = rg.remaining()
            for x in rest:
                rho[x] = y
            gamma[y] = min(rest)
            break

        g_disconnected = rg.min_effective_degree() == 0
        h_disconnected = rh.min_effective_degree() == 0

        if not g_disconnected:
            # host residue connected: its universal vertex must pair with one of h's
            if h_disconnected:
                return NoRetract(
                    "host residue is connected but pattern residue is not"
                )
            x1 = rg.pop_universal()
            y1 = rh.pop_universal()
            rho[x1] = y1
            gamma[y1] = x1
            continue

        isolated_g = rg.isolated_block()
        if not h_disconnected:
            # host disconnected, pattern connected with >= 2 vertices
            if rg.max_effective_degree() == 0:
                return NoRetract(
                    "pattern residue has an edge but host residue is edgeless"
                )
            rg.drop_isolated(len(isolated_g))
            xu = rg.pop_universal()
            y1 = rh.pop_universal()
            for x in isolated_g:
                rho[x] = y1
            rho[xu] = y1
            gamma[y1] = xu
            continue

        isolated_h = rh.isolated_block()
        if len(isolated_h) > len(isolated_g):
            return NoRetract(
                "pattern residue has more isolated vertices than the host residue",
                (len(isolated_g), len(isolated_h)),
            )
        b = len(isolated_h)
        for i, x in enumerate(isolated_g):
            y = isolated_h[i] if i < b else isolated_h[b - 1]
            rho[x] = y
        for i in range(b):
            gamma[isolated_h[i]] = isolated_g[i]
        rg.drop_isolated(len(isolated_g))
        rh.drop_isolated(b)

    cert = RetractCertificate(rho=tuple(rho), gamma=tuple(gamma))
    if not verify_retract_certificate(g, h, cert):
        raise AssertionError("threshold solver produced an invalid certificate")
    return cert
