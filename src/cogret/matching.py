"""Maximum bipartite matching (Hopcroft-Karp).

The union step of the cotree-pair solver, which the trivially perfect
and general routes share, gives every pattern component its own host
component by bipartite matching; the instance is always bipartite, so
general matching machinery is unnecessary and the O(E sqrt(V)) bound is
kept.  Processing order is fixed so results are deterministic.

`max_matching` runs the private core `_augment` from an empty matching on
the validated edges, sorted.  The solver runs the first phase itself,
deciding pairs only as the phase reads them, and calls `_augment` on the
matching that phase leaves when it falls short.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

_INF = -1


@dataclass(frozen=True)
class BipartiteInstance:
    """Bipartite graph on left vertices 0..p-1 and right vertices 0..q-1."""

    p: int
    q: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        seen = set()
        for u, v in self.edges:
            if not (0 <= u < self.p and 0 <= v < self.q):
                raise ValueError(f"edge ({u}, {v}) out of range")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))


@dataclass(frozen=True)
class Matching:
    """A set of pairwise endpoint-disjoint instance edges."""

    pairs: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return len(self.pairs)

    def right_cover(self) -> frozenset[int]:
        return frozenset(v for _, v in self.pairs)


def max_matching(inst: BipartiteInstance) -> Matching:
    """Maximum-cardinality matching; deterministic for a fixed input order."""
    adj: list[list[int]] = [[] for _ in range(inst.p)]
    for u, v in sorted(inst.edges):
        adj[u].append(v)
    pair_left, pair_right = [_INF] * inst.p, [_INF] * inst.q
    _augment(adj, pair_left, pair_right)
    return Matching(tuple((u, v) for u, v in enumerate(pair_left) if v != _INF))


def _augment(adj: list[list[int]], pair_left: list[int], pair_right: list[int]) -> None:
    """The Hopcroft-Karp phases: augment the matching in place along
    shortest alternating paths until none is left."""
    p = len(adj)
    dist = [0] * p

    def bfs() -> bool:
        queue: deque[int] = deque()
        found = False
        for u in range(p):
            if pair_left[u] == _INF:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = _INF
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                w = pair_right[v]
                if w == _INF:
                    found = True
                elif dist[w] == _INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found

    def dfs(root: int) -> bool:
        """Augment along one layered path from the free root, depth first
        on an explicit stack: path[i] reached path[i + 1] through via[i]."""
        path, via, scans = [root], [], [iter(adj[root])]
        while scans:
            u = path[-1]
            for v in scans[-1]:
                w = pair_right[v]
                if w == _INF:
                    via.append(v)
                    for x, y in zip(path, via):
                        pair_left[x] = y
                        pair_right[y] = x
                    return True
                if dist[w] == dist[u] + 1:
                    via.append(v)
                    path.append(w)
                    scans.append(iter(adj[w]))
                    break
            else:  # no augmenting path through u in this phase
                dist[u] = _INF
                path.pop()
                scans.pop()
                if via:
                    via.pop()
        return False

    while bfs():
        for u in range(p):
            if pair_left[u] == _INF:
                dfs(u)


def saturates_right(matching: Matching, q: int) -> bool:
    """True iff every right vertex 0..q-1 is matched."""
    return len(matching.right_cover()) == q
