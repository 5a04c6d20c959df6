"""Brute-force ground truth: exact, budgeted searches.

Everything here is deliberately independent of the cotree-based fast
paths: plain backtracking and state-space enumeration over Graph values.
These are the reference answers the polynomial solvers are tested
against, not production solvers.  One backtracking extender, `_extend`,
completes a partial map into an edge-preserving one for homomorphism,
retraction and the partitioned (induced-subgraph) case; one breadth-first
search over fold quotients up to isomorphism, `_fold_quotients`, serves
the folding number and `brute_folds_onto`.
"""

from __future__ import annotations

import time
from itertools import combinations

from .folding import CompleteColoring, FoldSequence, apply_fold
from .graph_core import (
    BudgetExceededError,
    Graph,
    NoRetract,
    RetractCertificate,
    SearchBudget,
    components,
    induced_subgraph,
)

DEFAULT_RETRACT_BUDGET = SearchBudget(max_vertices=8)
DEFAULT_FOLDING_BUDGET = SearchBudget(max_vertices=8)
DEFAULT_ACHROMATIC_BUDGET = SearchBudget(max_vertices=9)


class _Meter:
    """Shared countdown for states and wall clock."""

    __slots__ = ("budget", "states", "_deadline")

    def __init__(self, budget: SearchBudget):
        self.budget = budget
        self.states = 0
        self._deadline = (
            time.monotonic() + budget.max_seconds if budget.max_seconds else None
        )

    def check_size(self, g: Graph, what: str) -> None:
        if g.n > self.budget.max_vertices:
            raise BudgetExceededError(
                f"{what}: {g.n} vertices exceeds cap {self.budget.max_vertices}"
            )

    def tick(self) -> None:
        self.states += 1
        if self.states > self.budget.max_states:
            raise BudgetExceededError(
                f"state cap {self.budget.max_states} exceeded"
            )
        if self._deadline is not None and self.states % 1024 == 0:
            if time.monotonic() > self._deadline:
                raise BudgetExceededError("wall-clock cap exceeded")


# ---------------------------------------------------------------------------
# homomorphism and retraction search


def brute_hom(
    g: Graph, h: Graph, budget: SearchBudget | None = None
) -> tuple[int, ...] | None:
    """Exhaustive search for an edge-preserving map g -> h; None if none."""
    budget = budget or DEFAULT_RETRACT_BUDGET
    meter = _Meter(budget)
    meter.check_size(g, "brute_hom source")
    return _extend(g, h, (), meter)


def _extend(
    g: Graph, h: Graph, gamma: tuple[int, ...], meter: _Meter
) -> tuple[int, ...] | None:
    """An edge-preserving map phi: g -> h with phi(gamma(y)) = y for every
    y in gamma, the other vertices filled in vertex order; None if none."""
    phi = [-1] * g.n
    for y, x in enumerate(gamma):
        phi[x] = y
    free = [v for v in range(g.n) if phi[v] < 0]
    adj = g.adjacency

    def extend(i: int) -> bool:
        if i == len(free):
            return True
        v = free[i]
        for target in range(h.n):
            meter.tick()
            if all(phi[u] < 0 or h.has_edge(phi[u], target) for u in adj[v]):
                phi[v] = target
                if extend(i + 1):
                    return True
                phi[v] = -1
        return False

    if extend(0):
        return tuple(phi)
    return None


def _induced_embeddings(g: Graph, h: Graph, meter: _Meter):
    """Yield injective maps gamma: V(h) -> V(g) whose image induces a copy of h."""
    gamma = [-1] * h.n
    used = [False] * g.n

    def extend(y: int):
        if y == h.n:
            yield tuple(gamma)
            return
        for target in range(g.n):
            if used[target]:
                continue
            meter.tick()
            ok = True
            for z in range(y):
                if h.has_edge(y, z) != g.has_edge(target, gamma[z]):
                    ok = False
                    break
            if ok:
                gamma[y] = target
                used[target] = True
                yield from extend(y + 1)
                used[target] = False
                gamma[y] = -1

    yield from extend(0)


def brute_retract(
    g: Graph, h: Graph, budget: SearchBudget | None = None
) -> RetractCertificate | NoRetract:
    """Exact retraction search.

    Enumerates induced embeddings gamma of h into g (forced, because
    rho . gamma = id makes gamma's image an induced copy of h), then
    backtracks over extensions rho with rho . gamma = id.
    """
    budget = budget or DEFAULT_RETRACT_BUDGET
    meter = _Meter(budget)
    meter.check_size(g, "brute_retract host")
    if h.n > g.n:
        return NoRetract("pattern larger than host", (h.n, g.n))
    for gamma in _induced_embeddings(g, h, meter):
        rho = _extend(g, h, gamma, meter)
        if rho is not None:
            return RetractCertificate(rho=rho, gamma=gamma)
    return NoRetract("exhausted all embeddings and extensions")


def brute_partitioned_retract(
    g: Graph, hset: frozenset[int] | set[int], budget: SearchBudget | None = None
) -> RetractCertificate | NoRetract:
    """Exact search for a retraction whose co-retraction is the inclusion of hset.

    The certificate is expressed against induced_subgraph(g, hset).
    """
    budget = budget or DEFAULT_RETRACT_BUDGET
    meter = _Meter(budget)
    meter.check_size(g, "brute_partitioned_retract host")
    old = tuple(sorted(hset))
    if not old:
        if g.n == 0:
            return RetractCertificate(rho=(), gamma=())
        return NoRetract("empty pattern set")
    h, _ = induced_subgraph(g, old)
    rho = _extend(g, h, old, meter)
    if rho is not None:
        return RetractCertificate(rho=rho, gamma=old)
    return NoRetract("no retraction fixes the pattern pointwise")


# ---------------------------------------------------------------------------
# clique and chromatic number


def brute_clique(g: Graph, budget: SearchBudget | None = None) -> int:
    """Exact maximum clique size by branch and bound over bitmasks."""
    budget = budget or SearchBudget(max_vertices=20)
    meter = _Meter(budget)
    meter.check_size(g, "brute_clique")
    if g.n == 0:
        return 0
    masks = [0] * g.n
    for u, v in g.edges():
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    best = 0

    def grow(candidates: int, size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        rest = candidates
        while rest:
            if size + bin(rest).count("1") <= best:
                return
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            meter.tick()
            grow(rest & masks[v], size + 1)

    grow((1 << g.n) - 1, 0)
    return best


def brute_chromatic(g: Graph, budget: SearchBudget | None = None) -> int:
    """Exact chromatic number by incremental-k backtracking."""
    budget = budget or SearchBudget(max_vertices=16)
    meter = _Meter(budget)
    meter.check_size(g, "brute_chromatic")
    if g.n == 0:
        return 0
    if g.m == 0:
        return 1
    order = sorted(range(g.n), key=g.degree, reverse=True)
    color = [-1] * g.n

    def try_k(k: int, idx: int) -> bool:
        if idx == g.n:
            return True
        v = order[idx]
        used_new = max(color[order[i]] for i in range(idx)) if idx else -1
        for c in range(min(k - 1, used_new + 1) + 1):
            meter.tick()
            if all(color[u] != c for u in g.adjacency[v]):
                color[v] = c
                if try_k(k, idx + 1):
                    return True
                color[v] = -1
        return False

    for k in range(1, g.n + 1):
        color = [-1] * g.n
        if try_k(k, 0):
            return k
    return g.n


# ---------------------------------------------------------------------------
# achromatic number


def brute_achromatic(
    g: Graph, budget: SearchBudget | None = None
) -> tuple[int, CompleteColoring]:
    """Exact achromatic number: the most classes in a complete proper coloring.

    Enumerates set partitions into independent classes and keeps the best
    partition whose classes are pairwise joined by an edge.
    """
    budget = budget or DEFAULT_ACHROMATIC_BUDGET
    meter = _Meter(budget)
    meter.check_size(g, "brute_achromatic")
    if g.n == 0:
        return 0, CompleteColoring(classes=())
    best_k = 0
    best: tuple[tuple[int, ...], ...] = ()
    blocks: list[list[int]] = []

    def place(v: int) -> None:
        nonlocal best_k, best
        if v == g.n:
            k = len(blocks)
            if k > best_k and _pairwise_adjacent(g, blocks):
                best_k = k
                best = tuple(tuple(b) for b in blocks)
            return
        for b in blocks:
            meter.tick()
            if all(not g.has_edge(v, u) for u in b):
                b.append(v)
                place(v + 1)
                b.pop()
        meter.tick()
        blocks.append([v])
        place(v + 1)
        blocks.pop()

    place(0)
    return best_k, CompleteColoring(classes=best)


def _pairwise_adjacent(g: Graph, blocks: list[list[int]]) -> bool:
    for a, b in combinations(blocks, 2):
        if not any(g.has_edge(u, v) for u in a for v in b):
            return False
    return True


# ---------------------------------------------------------------------------
# canonical forms (isomorphism keys) for quotient-graph deduplication


def canonical_graph_key(g: Graph) -> bytes:
    """Canonical byte string: equal keys iff the graphs are isomorphic.

    Iterative color refinement with individualization branching; complete
    and empty graphs short-circuit.  Intended for small graphs.
    """
    n = g.n
    if n == 0:
        return b"n0"
    full = n * (n - 1) // 2
    if g.m == full:
        return b"K%d" % n
    if g.m == 0:
        return b"E%d" % n
    adj = [sorted(g.adjacency[v]) for v in range(n)]

    def refine(colors: list[int]) -> list[int]:
        while True:
            sig = [
                (colors[v], tuple(sorted(colors[u] for u in adj[v])))
                for v in range(n)
            ]
            palette = {s: i for i, s in enumerate(sorted(set(sig)))}
            new = [palette[sig[v]] for v in range(n)]
            if new == colors:
                return colors
            colors = new

    best: bytes | None = None

    def leaf_key(colors: list[int]) -> bytes:
        order = sorted(range(n), key=lambda v: colors[v])
        pos = {v: i for i, v in enumerate(order)}
        bits = 0
        for u, v in g.edges():
            i, j = pos[u], pos[v]
            if i > j:
                i, j = j, i
            bits |= 1 << (i * n + j)
        return b"%d:" % n + bits.to_bytes((n * n + 7) // 8, "big")

    def search(colors: list[int]) -> None:
        nonlocal best
        colors = refine(colors)
        cells: dict[int, list[int]] = {}
        for v in range(n):
            cells.setdefault(colors[v], []).append(v)
        target = None
        for c in sorted(cells):
            if len(cells[c]) > 1:
                target = cells[c]
                break
        if target is None:
            key = leaf_key(colors)
            if best is None or key < best:
                best = key
            return
        for v in target:
            branched = list(colors)
            branched[v] = n  # unique new color
            search(branched)

    search([0] * n)
    assert best is not None
    return best


# ---------------------------------------------------------------------------
# folding number


def brute_folding_number(
    g: Graph, budget: SearchBudget | None = None
) -> tuple[int, FoldSequence]:
    """Exact folding number: the largest s such that g folds onto K_s.

    Breadth-first search over quotient graphs reachable by simple folds,
    deduplicated up to isomorphism.  Disconnected graphs take the maximum
    over components; the witness records which component it folds.
    """
    budget = budget or DEFAULT_FOLDING_BUDGET
    meter = _Meter(budget)
    meter.check_size(g, "brute_folding_number")
    if g.n == 0:
        raise ValueError("folding number undefined for the empty graph")
    best_s = 0
    best_comp: tuple[int, ...] = ()
    best_steps: tuple[tuple[int, int], ...] = ()
    for comp in components(g):
        sub, _ = induced_subgraph(g, comp)
        s, steps = _fold_component(sub, meter)
        if s > best_s:
            best_s, best_comp, best_steps = s, comp, steps
    return best_s, FoldSequence(component=best_comp, steps=best_steps)


def _distance_two_pairs(g: Graph) -> list[tuple[int, int]]:
    pairs = []
    for x in range(g.n):
        ax = g.adjacency[x]
        for y in range(x + 1, g.n):
            if y in ax:
                continue
            if ax & g.adjacency[y]:
                pairs.append((x, y))
    return pairs


def _fold_quotients(start: Graph, meter: _Meter, moves: dict):
    """Breadth-first search over the fold quotients of start, up to
    isomorphism: yields (canonical key, graph as first discovered) in
    order of discovery, start first, and sets moves[key] to (parent key,
    fold applied in the parent), or (None, None) for start."""
    key = canonical_graph_key(start)
    moves[key] = (None, None)
    yield key, start
    frontier = [(key, start)]
    while frontier:
        nxt = []
        for key, graph in frontier:
            for x, y in _distance_two_pairs(graph):
                meter.tick()
                child = apply_fold(graph, x, y)
                ckey = canonical_graph_key(child)
                if ckey not in moves:
                    moves[ckey] = (key, (x, y))
                    yield ckey, child
                    nxt.append((ckey, child))
        frontier = nxt


def _fold_component(start: Graph, meter: _Meter) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The largest complete fold quotient of a connected graph, first found
    first: (its size, the folds that reach it)."""
    moves: dict[bytes, tuple[bytes | None, tuple[int, int] | None]] = {}
    best_key = None
    best_size = -1
    for key, graph in _fold_quotients(start, meter, moves):
        if graph.n > best_size and graph.m == graph.n * (graph.n - 1) // 2:
            best_size, best_key = graph.n, key
    assert best_key is not None  # a connected graph always folds to some K_s
    steps: list[tuple[int, int]] = []
    key, move = moves[best_key]
    while move is not None:
        steps.append(move)
        key, move = moves[key]
    steps.reverse()
    return best_size, tuple(steps)


def brute_folds_onto(
    g: Graph, h: Graph, budget: SearchBudget | None = None
) -> bool:
    """True iff some sequence of simple folds turns g into a copy of h."""
    budget = budget or DEFAULT_FOLDING_BUDGET
    meter = _Meter(budget)
    meter.check_size(g, "brute_folds_onto")
    target = canonical_graph_key(h)
    return any(key == target for key, _ in _fold_quotients(g, meter, {}))
