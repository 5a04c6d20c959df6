"""Retract decision for pairs of threshold graphs.

Threshold graphs are exactly the graphs in which every induced subgraph
has a universal or an isolated vertex (Chvatal and Hammer, 1977), so
repeatedly removing one empties them.  Removing a universal vertex lowers
every remaining degree by one and removing an isolated vertex changes
nothing, so the elimination runs on one sort of the degrees with a single
offset, without materializing any subgraph.

The retract solver reads nothing else: it walks the two graphs'
elimination orders side by side.  What remains of a graph after some
steps is what the rest of its order eliminates, so the order answers
every question the solver asks of a residue.

It checks its YES on the orders too, exactly and in O(n_g + n_h), and
first proves each order against its graph's degrees: the steps must be a
permutation of the vertices, and the vertex at step i must have as many
neighbours as there are universal steps before i, plus n - 1 - i if it
is universal itself.  That labelled degree sequence has one realization:
the first step's vertex is adjacent to all or none of the others, and
removing it leaves the same form on the rest.  So u ~ v exactly when the
one removed first is universal.  A map is then a homomorphism exactly
when every universal step's image lies outside, and is adjacent to, the
image of every later step, which one pass over the source order from its
last step tests in O(1) per step, keeping three facts about the image so
far.  verify_retract_certificate, which checks edge by edge in O(n + m),
stays the check for every other caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import eq

from .graph_core import Graph, NoRetract, RetractCertificate

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


def threshold_retract(g: Graph, h: Graph) -> RetractCertificate | NoRetract:
    """Decide whether h is a retract of g, for threshold graphs only.

    Raises NotThresholdError if either input fails the class check.  Every
    YES answer carries a certificate that is re-verified before returning.
    The recursion pairs universal vertices while both residues are
    connected, strips isolated vertices in lockstep while both are
    disconnected, and funnels a disconnected host into a connected
    pattern through the pattern's universal vertex.
    """
    og = threshold_elimination(g)
    if og is None:
        raise NotThresholdError("host graph is not a threshold graph")
    oh = threshold_elimination(h)
    if oh is None:
        raise NotThresholdError("pattern graph is not a threshold graph")
    return _solve_threshold(g, h, og, oh)


def _solve_threshold(
    g: Graph, h: Graph, og: EliminationOrder, oh: EliminationOrder
) -> RetractCertificate | NoRetract:
    """threshold_retract from the two graphs' elimination orders.

    The residues are what the unconsumed steps eliminate: one is
    disconnected when its next step is isolated, its isolated vertices are
    the run of isolated steps there, and it has an edge while a universal
    step remains.  A YES is checked exactly by _certified on the same two
    orders: it proves each against its graph's degree sequence, which then
    fixes the graph, and tests rho and gamma in one backward pass each.
    """
    gs, hs = og.steps, oh.steps
    rho = [-1] * g.n
    gamma = [-1] * h.n
    i = j = 0  # steps of each order consumed so far
    g_last_universal = max(
        (k for k, (_, tag) in enumerate(gs) if tag == UNIVERSAL), default=-1
    )

    while True:
        if j == len(hs):
            if i < len(gs):
                # the residue by (degree, id): the isolated steps in order,
                # then the universal ones, taken from the top, reversed
                rest = gs[i:]
                return NoRetract(
                    "pattern exhausted while host residue is nonempty",
                    tuple([v for v, tag in rest if tag == ISOLATED])
                    + tuple(v for v, tag in reversed(rest) if tag == UNIVERSAL),
                )
            break
        if i == len(gs):
            return NoRetract("host exhausted while pattern residue is nonempty")
        if j == len(hs) - 1:
            y = hs[j][0]
            if i <= g_last_universal:
                return NoRetract(
                    "pattern residue is a single vertex but host residue has an edge"
                )
            rest = [x for x, _ in gs[i:]]
            for x in rest:
                rho[x] = y
            gamma[y] = min(rest)
            break

        if gs[i][1] == UNIVERSAL:
            # host residue connected: its universal vertex must pair with one of h's
            if hs[j][1] == ISOLATED:
                return NoRetract(
                    "host residue is connected but pattern residue is not"
                )
            x1, y1 = gs[i][0], hs[j][0]
            rho[x1] = y1
            gamma[y1] = x1
            i += 1
            j += 1
            continue

        isolated_g = _isolated_run(gs, i)
        i += len(isolated_g)
        if hs[j][1] == UNIVERSAL:
            # host disconnected, pattern connected with >= 2 vertices
            if i > g_last_universal:
                return NoRetract(
                    "pattern residue has an edge but host residue is edgeless"
                )
            xu, y1 = gs[i][0], hs[j][0]  # the run ends at a universal step
            for x in isolated_g:
                rho[x] = y1
            rho[xu] = y1
            gamma[y1] = xu
            i += 1
            j += 1
            continue

        isolated_h = _isolated_run(hs, j)
        if len(isolated_h) > len(isolated_g):
            return NoRetract(
                "pattern residue has more isolated vertices than the host residue",
                (len(isolated_g), len(isolated_h)),
            )
        b = len(isolated_h)
        for k, x in enumerate(isolated_g):
            rho[x] = isolated_h[k] if k < b else isolated_h[b - 1]
        for k in range(b):
            gamma[isolated_h[k]] = isolated_g[k]
        j += b

    cert = RetractCertificate(rho=tuple(rho), gamma=tuple(gamma))
    if not _certified(g, h, og, oh, cert):
        raise AssertionError("threshold solver produced an invalid certificate")
    return cert


def _certified(
    g: Graph, h: Graph, og: EliminationOrder, oh: EliminationOrder, cert: RetractCertificate
) -> bool:
    """verify_retract_certificate in O(n_g + n_h): the same lengths, ranges
    and rho . gamma = id, with both homomorphisms read off the elimination
    orders once _eliminates has proved each against its graph."""
    rho, gamma = cert.rho, cert.gamma
    if len(rho) != g.n or len(gamma) != h.n:
        return False
    if rho and not (0 <= min(rho) and max(rho) < h.n):
        return False
    if gamma and not (0 <= min(gamma) and max(gamma) < g.n):
        return False
    if not (_eliminates(g, og) and _eliminates(h, oh)):
        return False
    if not (_maps_edges(og.steps, oh.steps, rho) and _maps_edges(oh.steps, og.steps, gamma)):
        return False
    return all(map(eq, map(rho.__getitem__, gamma), range(h.n)))


def _eliminates(g: Graph, order: EliminationOrder) -> bool:
    """Whether order eliminates g, read off g's degrees alone: a
    permutation of the vertices whose step-i vertex has the universal steps
    before i, and if universal the n - 1 - i later ones, as neighbours.
    The module docstring gives why these degrees fix the graph."""
    steps, n = order.steps, g.n
    if len(steps) != n or {v for v, _ in steps} != set(range(n)):
        return False
    adjacency = g.adjacency
    # a universal step's degree: the universal steps before it and every
    # step after it, which only an isolated step lowers
    universals, reach = 0, n - 1
    for v, tag in steps:
        degree = len(adjacency[v])
        if tag == UNIVERSAL and degree == reach:
            universals += 1
        elif tag == ISOLATED and degree == universals:
            reach -= 1
        else:
            return False
    return True


def _maps_edges(
    src: tuple[tuple[int, str], ...], dst: tuple[tuple[int, str], ...], phi: tuple[int, ...]
) -> bool:
    """Whether phi maps every edge of the graph src eliminates onto an edge
    of the graph dst eliminates, in one pass over src from its last step.

    A universal step's image x must not be an image of a later step, and
    must be adjacent to all of those images: none of them is isolated and
    removed before x, and if x is isolated none is removed after it.  So
    the pass keeps, for the steps walked so far, which vertices are images,
    the latest dst step among them and the earliest isolated one.
    """
    step_of = [0] * len(dst)
    isolated = [False] * len(dst)
    for k, (y, tag) in enumerate(dst):
        step_of[y] = k
        isolated[y] = tag == ISOLATED
    image = [False] * len(dst)
    latest, earliest_isolated = -1, len(dst)
    for u, tag in reversed(src):
        x = phi[u]
        k = step_of[x]
        if tag == UNIVERSAL and (
            image[x] or earliest_isolated < k or (isolated[x] and latest > k)
        ):
            return False
        image[x] = True
        if k > latest:
            latest = k
        if isolated[x] and k < earliest_isolated:
            earliest_isolated = k
    return True


def _isolated_run(steps: tuple[tuple[int, str], ...], start: int) -> list[int]:
    """The vertices of the isolated steps from start up to the next
    universal one: the residue's isolated vertices."""
    end = start
    while end < len(steps) and steps[end][1] == ISOLATED:
        end += 1
    return [v for v, _ in steps[start:end]]
