"""Shared fixtures: named small graphs, exhaustive enumerations by graph
class, and deterministic random generators."""

from __future__ import annotations

import random
import sys
from collections import Counter, deque
from collections.abc import Iterator
from functools import lru_cache

from cogret import cotree as cotree_module
from cogret import retract_cograph as cograph_module
from cogret import retract_threshold as threshold_module
from cogret.cotree import (
    Internal,
    JOIN,
    Leaf,
    UNION,
    Cotree,
    CotreeError,
    NotCographError,
    _postorder,
    build_cotree,
    cotree_leaves,
    cotree_to_graph,
    find_induced_p4,
)
from cogret.graph_core import Graph, ParseError, _random_composition, relabel
from cogret.matching import (
    BipartiteInstance,
    Matching,
    max_matching,
    saturates_right,
)
from cogret.retract_threshold import ISOLATED, UNIVERSAL, EliminationOrder


def K(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def E(n: int) -> Graph:
    return Graph(n)


def path(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def clique_with_pendant_p3(k: int) -> Graph:
    """K_k on 0..k-1, k >= 1, and a path k-(k+1)-(k+2) hanging from vertex
    k-1: the P4 scan tests every pair of neighbours of each clique vertex
    before it reaches k-1, the first centre of an induced P3."""
    return Graph(k + 3, list(K(k).edges()) + [(k - 1, k), (k, k + 1), (k + 1, k + 2)])


P3 = path(3)
P4 = path(4)
C4 = cycle(4)
K1, K2, K3, K4 = K(1), K(2), K(3), K(4)
TWO_K2 = Graph(4, [(0, 1), (2, 3)])
# vertex 0 universal in both; pendant side of the paw is vertex 1
PAW = Graph(4, [(0, 1), (0, 2), (0, 3), (2, 3)])
BUTTERFLY = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)])


# ---------------------------------------------------------------------------
# graph operations the tests build inputs and check answers with


def graph_union(a: Graph, b: Graph) -> Graph:
    """Disjoint union; b's vertices are shifted by a.n."""
    edges = list(a.edges()) + [(u + a.n, v + a.n) for u, v in b.edges()]
    return Graph(a.n + b.n, edges)


def graph_join(a: Graph, b: Graph) -> Graph:
    """Join: disjoint union plus all edges between the two sides."""
    edges = list(a.edges()) + [(u + a.n, v + a.n) for u, v in b.edges()]
    edges.extend((u, v + a.n) for u in range(a.n) for v in range(b.n))
    return Graph(a.n + b.n, edges)


def bfs_distances(g: Graph, source: int) -> list[int]:
    """Distances from source; -1 for unreachable vertices."""
    dist = [-1] * g.n
    dist[source] = 0
    frontier = [source]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            for u in g.adjacency[v]:
                if dist[u] < 0:
                    dist[u] = d
                    nxt.append(u)
        frontier = nxt
    return dist


# ---------------------------------------------------------------------------
# exhaustive enumeration of cographs via cotree shapes

_LEAF = "L"


@lru_cache(maxsize=None)
def _shapes(n: int, kind: str):
    """Canonical cotree shapes with n leaves rooted at `kind`."""
    if n == 1:
        return (_LEAF,)
    other = UNION if kind == JOIN else JOIN
    catalog: list[tuple[int, object]] = [(1, _LEAF)]
    for size in range(2, n):
        catalog.extend((size, s) for s in _shapes(size, other))
    out = []

    def pick(remaining: int, start: int, chosen: tuple):
        if remaining == 0:
            if len(chosen) >= 2:
                out.append((kind, chosen))
            return
        for idx in range(start, len(catalog)):
            size, shape = catalog[idx]
            if size > remaining:
                continue
            pick(remaining - size, idx, chosen + ((size, shape),))

    pick(n, 0, ())
    return tuple(out)


def _shape_to_cotree(shape, counter: list[int]) -> Cotree:
    if shape == _LEAF:
        counter[0] += 1
        return Leaf(counter[0] - 1)
    kind, children = shape
    return Internal(kind, tuple(_shape_to_cotree(s, counter) for _, s in children))


def all_cotrees(n: int) -> list[Cotree]:
    """One cotree per isomorphism class of cographs on n vertices."""
    if n == 1:
        return [Leaf(0)]
    shapes = list(_shapes(n, UNION)) + list(_shapes(n, JOIN))
    return [_shape_to_cotree(s, [0]) for s in shapes]


def all_cographs(n: int) -> list[Graph]:
    return [cotree_to_graph(t) for t in all_cotrees(n)]


def _one_internal_child_below(root: Cotree, kinds: tuple[str, ...]) -> bool:
    """No node of these kinds has two internal children."""
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, Internal):
            internal = [c for c in node.children if isinstance(c, Internal)]
            if node.kind in kinds and len(internal) > 1:
                return False
            stack.extend(node.children)
    return True


def all_threshold_graphs(n: int) -> list[Graph]:
    return [
        cotree_to_graph(t)
        for t in all_cotrees(n)
        if _one_internal_child_below(t, (UNION, JOIN))
    ]


def all_tp_graphs(n: int) -> list[Graph]:
    """Kinds alternate, so a join's children with a non-edge are its
    internal ones, and two of them make a C4."""
    return [cotree_to_graph(t) for t in all_cotrees(n) if _one_internal_child_below(t, (JOIN,))]


def all_connected_cographs(n: int) -> list[Graph]:
    if n == 1:
        return [K(1)]
    return [
        cotree_to_graph(_shape_to_cotree(s, [0])) for s in _shapes(n, JOIN)
    ]


def cotree_chain(depth: int) -> Cotree:
    """A cotree with `depth` internal nodes on one path, kinds alternating
    (a threshold graph on depth + 1 vertices), built without recursion."""
    node: Cotree = Leaf(0)
    for i in range(1, depth + 1):
        node = Internal(JOIN if i % 2 else UNION, (Leaf(i), node))
    return node


def universal_isolated_chain(base: Graph, k: int) -> Graph:
    """base plus k vertices added alternately universal and isolated."""
    node = build_cotree(base)
    for i in range(k):
        node = Internal(UNION if i % 2 else JOIN, (Leaf(base.n + i), node))
    return cotree_to_graph(node)


def cotree_shape(root: Cotree) -> list[tuple]:
    """The ordered tree as a postorder list of (vertex) and (kind, arity)
    entries, so deep trees compare without recursive __eq__."""
    out: list[tuple] = []
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            out.append((node.vertex,))
        else:
            out.append((node.kind, len(node.children)))
            stack.extend(node.children)
    out.reverse()
    return out


def count_cotree_builds(monkeypatch) -> Counter:
    """Send the builder behind build_cotree and _PreparedGraph, and so
    every cotree build, through a counter; the returned Counter maps
    id(graph) to the builds of that graph so far, so the caller keeps the
    graphs it counts alive."""
    return _count_calls(monkeypatch, "_classed_cotree", cotree_module._classed_cotree)


def count_cotree_facts(monkeypatch) -> Counter:
    """Count, per cotree, the passes that work out the clique numbers of
    all its subtrees: the solver's labelling, which sets them from the
    labels, and _omegas over the whole tree (a pass restricted to a
    pattern's vertices is not one).  The Counter maps id(tree) to its
    passes so far; the caller keeps the trees alive."""
    calls: Counter = Counter()
    omegas, label = cotree_module._omegas, cograph_module._CotreePairs._label

    def counted_omegas(tree, within=None):
        if within is None:
            calls[id(tree)] += 1
        return omegas(tree, within)

    def counted_label(self, tree):
        calls[id(tree)] += 1
        return label(self, tree)

    monkeypatch.setattr(cotree_module, "_omegas", counted_omegas)
    monkeypatch.setattr(cograph_module._CotreePairs, "_label", counted_label)
    return calls


def count_eliminations(monkeypatch) -> Counter:
    """count_cotree_builds for threshold_elimination."""
    return _count_calls(
        monkeypatch, "threshold_elimination", threshold_module.threshold_elimination
    )


def count_degree_sorts(monkeypatch) -> Counter:
    """count_cotree_builds for the degree sort of the threshold module."""
    return _count_calls(monkeypatch, "_degree_order", threshold_module._degree_order)


def _count_calls(monkeypatch, name: str, original) -> Counter:
    calls: Counter = Counter()

    def counted(g: Graph):
        calls[id(g)] += 1
        return original(g)

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "cogret" and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


# ---------------------------------------------------------------------------
# random generators


def random_threshold_graph(n: int, seed: int, universal_bias: float = 0.5) -> Graph:
    """Creation sequence: each new vertex arrives isolated or universal."""
    rng = random.Random(f"threshold:{n}:{seed}")
    edges = []
    for v in range(1, n):
        if rng.random() < universal_bias:
            edges.extend((v, u) for u in range(v))
    return Graph(n, edges)


def sparse_random_threshold_graph(n: int, seed: int, avg_degree: float = 6.0) -> Graph:
    """Threshold graph with roughly avg_degree * n / 2 edges.

    Universal insertions at step v cost v edges, so the acceptance rate
    decays with v to keep the total linear in n.
    """
    rng = random.Random(f"sparse-threshold:{n}:{seed}")
    edges = []
    for v in range(1, n):
        if rng.random() < avg_degree / (2 * v):
            edges.extend((v, u) for u in range(v))
    return Graph(n, edges)


def random_tp_cotree(n: int, seed: int) -> Cotree:
    """Bushy random trivially perfect cotree (every join node has at most
    one non-leaf child), with leaf ids shuffled."""
    rng = random.Random(f"tp:{n}:{seed}")
    counter = [0]

    def connected(k: int) -> Cotree:
        # join of `u` universal leaves with a union of smaller blocks
        if k == 1:
            counter[0] += 1
            return Leaf(counter[0] - 1)
        u = rng.randint(1, max(1, k // 3)) if k > 2 else rng.randint(1, k)
        if u >= k:
            u = k  # clique
        leaves = []
        for _ in range(u):
            counter[0] += 1
            leaves.append(Leaf(counter[0] - 1))
        if u == k:
            return leaves[0] if k == 1 else Internal(JOIN, tuple(leaves))
        rest = k - u
        parts = _random_parts(rng, rest)
        blocks = [connected(p) for p in parts]
        inner: Cotree = blocks[0] if len(blocks) == 1 else Internal(UNION, tuple(blocks))
        if len(blocks) == 1:
            # a single block under the join would break alternation; absorb it
            if isinstance(inner, Internal) and inner.kind == JOIN:
                return Internal(JOIN, tuple(leaves) + inner.children)
        return Internal(JOIN, tuple(leaves) + (inner,))

    def _random_parts(r: random.Random, k: int) -> list[int]:
        if k == 1:
            return [1]
        nparts = r.randint(2, min(k, 4)) if k > 1 else 1
        cuts = sorted(r.sample(range(1, k), min(nparts - 1, k - 1)))
        bounds = [0] + cuts + [k]
        return [bounds[i + 1] - bounds[i] for i in range(len(bounds) - 1)]

    if n == 1:
        return Leaf(0)
    top = rng.randint(1, 3)
    if top == 1:
        tree = connected(n)
    else:
        parts = _random_parts(rng, n)
        if len(parts) == 1:
            tree = connected(n)
        else:
            tree = Internal(UNION, tuple(connected(p) for p in parts))
    perm = list(range(n))
    rng.shuffle(perm)
    return _relabel_cotree(tree, perm)


def _relabel_cotree(node: Cotree, perm: list[int]) -> Cotree:
    if isinstance(node, Leaf):
        return Leaf(perm[node.vertex])
    return Internal(node.kind, tuple(_relabel_cotree(c, perm) for c in node.children))


def random_tp_graph(n: int, seed: int) -> Graph:
    return cotree_to_graph(random_tp_cotree(n, seed))


def random_forest_graph(n: int, seed: int, depth: int = 40) -> Graph:
    """Trivially perfect graph: each vertex adjacent to its ancestors in a
    random rooted forest of fewer than `depth` levels, with runs of only
    children (chains of true twins) and shuffled ids."""
    rng = random.Random(f"forest:{n}:{seed}")
    parent, level = [-1] * n, [0] * n
    for v in range(1, n):
        r = rng.random()
        p = v - 1 if r < 0.3 else rng.randrange(v) if r < 0.9 else -1
        if p >= 0 and level[p] + 1 < depth:
            parent[v], level[v] = p, level[p] + 1
    perm = list(range(n))
    rng.shuffle(perm)
    edges = []
    for v in range(n):
        u = parent[v]
        while u >= 0:
            edges.append((perm[u], perm[v]))
            u = parent[u]
    return Graph(n, edges)


def random_cotree(n: int, seed: int) -> Cotree:
    """Arbitrary random normalized cotree with n leaves."""
    rng = random.Random(f"cotree:{n}:{seed}")

    def build(k: int, kind: str) -> Cotree:
        if k == 1:
            return Leaf(0)
        nparts = rng.randint(2, k)
        cuts = sorted(rng.sample(range(1, k), nparts - 1))
        bounds = [0] + cuts + [k]
        parts = [bounds[i + 1] - bounds[i] for i in range(len(bounds) - 1)]
        other = UNION if kind == JOIN else JOIN
        return Internal(kind, tuple(build(p, other) for p in parts))

    tree = build(n, rng.choice([UNION, JOIN]))
    counter = [0]

    def assign(node: Cotree) -> Cotree:
        if isinstance(node, Leaf):
            counter[0] += 1
            return Leaf(counter[0] - 1)
        return Internal(node.kind, tuple(assign(c) for c in node.children))

    return assign(tree)


def random_graph(n: int, seed: int, p: float = 0.5) -> Graph:
    rng = random.Random(f"gnp:{n}:{seed}:{p}")
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def random_omega_preserving_extension(h: Graph, seed: int) -> Graph | None:
    """Random connected cograph supergraph of a connected cograph h.

    Keeps h induced on vertices 0..h.n-1, preserves the clique number and
    adds at most three vertices: either a small clique branch under an
    existing union node (never exceeding a sibling's clique number) or a
    false twin of an existing vertex.  Returns None for K1, which has no
    proper extension with clique number one.
    """
    if h.n == 1:
        return None
    rng = random.Random(f"ext:{h.n}:{seed}")
    root = _mutable(build_cotree(h))
    next_id = [h.n]
    budget = rng.randint(1, 3)
    while budget > 0:
        nodes = _mutable_nodes(root)
        unions = [nd for nd in nodes if nd[0] == UNION]
        leaves = [nd for nd in nodes if nd[0] == _LEAF]
        if unions and rng.random() < 0.5:
            target = rng.choice(unions)
            max_w = max(_mutable_omega(c) for c in target[1])
            size = rng.randint(1, min(max_w, budget))
            if size == 1:
                branch = [_LEAF, next_id[0]]
                next_id[0] += 1
            else:
                branch = [JOIN, []]
                for _ in range(size):
                    branch[1].append([_LEAF, next_id[0]])
                    next_id[0] += 1
            target[1].append(branch)
            budget -= size
        else:
            leaf = rng.choice(leaves)
            v = leaf[1]
            leaf[0] = UNION
            leaf[1] = [[_LEAF, v], [_LEAF, next_id[0]]]
            next_id[0] += 1
            budget -= 1
    if next_id[0] == h.n:
        return None
    return cotree_to_graph(_freeze_mutable(root))


def _mutable(node: Cotree):
    if isinstance(node, Leaf):
        return [_LEAF, node.vertex]
    return [node.kind, [_mutable(c) for c in node.children]]


def _mutable_nodes(root):
    out = []
    stack = [root]
    while stack:
        nd = stack.pop()
        out.append(nd)
        if nd[0] != _LEAF:
            stack.extend(nd[1])
    return out


def _mutable_omega(nd) -> int:
    if nd[0] == _LEAF:
        return 1
    values = [_mutable_omega(c) for c in nd[1]]
    return max(values) if nd[0] == UNION else sum(values)


def _freeze_mutable(nd) -> Cotree:
    from cogret.cotree import normalize

    def freeze(node) -> Cotree:
        if node[0] == _LEAF:
            return Leaf(node[1])
        return Internal(node[0], tuple(freeze(c) for c in node[1]))

    return normalize(freeze(nd))


# ---------------------------------------------------------------------------
# reference graph I/O and graph facts: the straightforward per-edge and
# per-vertex implementations, kept as the oracle for the differential tests
# of the set-based ones in cogret


def reference_parse_edge_list(text: str) -> Graph:
    n: int | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if n is None:
            try:
                n = int(line)
            except ValueError:
                raise ParseError(f"expected vertex count, got {line!r}", lineno)
            if n < 0:
                raise ParseError("vertex count must be nonnegative", lineno)
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected 'u v', got {line!r}", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer vertex in {line!r}", lineno)
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"vertex out of range in {line!r}", lineno)
        if u == v:
            raise ParseError(f"self-loop at vertex {u}", lineno)
        edges.append((u, v))
    if n is None:
        raise ParseError("empty input")
    return Graph(n, edges)


def reference_format_edge_list(g: Graph) -> str:
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def reference_parse_graph6(text: str) -> Graph:
    """The per-bit decoder; it reads a non-ASCII character as byte 63."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :].strip()
    if not s:
        raise ParseError("empty graph6 string")
    data = s.encode("ascii", errors="replace")
    if any(b < 63 or b > 126 for b in data):
        raise ParseError("graph6 byte out of range")
    if data[0] == 126:
        if len(data) >= 2 and data[1] == 126:
            raise ParseError("graph6 strings for n >= 258048 are not supported")
        if len(data) < 4:
            raise ParseError("truncated graph6 size header")
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body = data[4:]
    else:
        n = data[0] - 63
        body = data[1:]
    nbits = n * (n - 1) // 2
    expected = (nbits + 5) // 6
    if len(body) != expected:
        raise ParseError(
            f"graph6 body has {len(body)} bytes, expected {expected} for n={n}"
        )
    bits: list[int] = []
    for b in body:
        val = b - 63
        for shift in range(5, -1, -1):
            bits.append((val >> shift) & 1)
    if any(bits[nbits:]):
        raise ParseError("nonzero padding bits in graph6 body")
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.append((i, j))
            k += 1
    return Graph(n, edges)


def reference_cotree_to_graph(root: Cotree) -> Graph:
    leaves = cotree_leaves(root)
    n = len(leaves)
    if sorted(leaves) != list(range(n)):
        raise CotreeError(
            f"leaf ids must be a permutation of 0..{n - 1}, got {sorted(leaves)}"
        )
    edges: list[tuple[int, int]] = []
    leafsets: dict[int, tuple[int, ...]] = {}
    for node in _postorder(root):
        if isinstance(node, Leaf):
            leafsets[id(node)] = (node.vertex,)
            continue
        childsets = [leafsets[id(c)] for c in node.children]
        if len(childsets) < 2:
            raise CotreeError("internal cotree node with fewer than two children")
        if node.kind == JOIN:
            for i, a in enumerate(childsets):
                for b in childsets[i + 1 :]:
                    edges.extend((u, v) for u in a for v in b)
        elif node.kind != UNION:
            raise CotreeError(f"unknown cotree node kind {node.kind!r}")
        merged = tuple(x for s in childsets for x in s)
        leafsets[id(node)] = merged
    return Graph(n, edges)


def reference_induced_subgraph(g: Graph, vertices) -> tuple[Graph, tuple[int, ...]]:
    old = tuple(sorted(set(vertices)))
    for v in old:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range")
    index = {v: i for i, v in enumerate(old)}
    edges = [
        (index[u], index[v])
        for u in old
        for v in g.adjacency[u]
        if u < v and v in index
    ]
    return Graph(len(old), edges), old


def reference_complement(g: Graph) -> Graph:
    """complement from a list of every non-edge."""
    edges = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if v not in g.adjacency[u]
    ]
    return Graph(g.n, edges)


def reference_components(g: Graph) -> list[tuple[int, ...]]:
    """components by a depth-first search that visits one vertex at a time."""
    seen = [False] * g.n
    out: list[tuple[int, ...]] = []
    for s in range(g.n):
        if seen[s]:
            continue
        comp = [s]
        seen[s] = True
        stack = [s]
        while stack:
            v = stack.pop()
            for u in g.adjacency[v]:
                if not seen[u]:
                    seen[u] = True
                    comp.append(u)
                    stack.append(u)
        out.append(tuple(sorted(comp)))
    return out


def reference_find_induced_p4(
    g: Graph, within: tuple[int, ...] | None = None
) -> tuple[int, int, int, int] | None:
    """find_induced_p4 trying every fourth vertex of every induced P3 in
    turn and walking the four vertices' edges to see if they make a path."""
    vs = within if within is not None else tuple(range(g.n))
    inside = set(vs)
    for b in vs:
        nbrs = sorted(u for u in g.adjacency[b] if u in inside)
        for i, a in enumerate(nbrs):
            for c in nbrs[i + 1 :]:
                if g.has_edge(a, c):
                    continue
                for d in vs:
                    if d in (a, b, c):
                        continue
                    path = _reference_as_p4(g, (a, b, c, d))
                    if path is not None:
                        return path
    return None


def _reference_as_p4(
    g: Graph, quad: tuple[int, int, int, int]
) -> tuple[int, int, int, int] | None:
    inner = [
        (u, v) for i, u in enumerate(quad) for v in quad[i + 1 :] if g.has_edge(u, v)
    ]
    if len(inner) != 3:
        return None
    deg = {v: 0 for v in quad}
    for u, v in inner:
        deg[u] += 1
        deg[v] += 1
    ends = [v for v in quad if deg[v] == 1]
    if len(ends) != 2 or any(deg[v] != 2 for v in quad if v not in ends):
        return None
    # walk from one endpoint
    adj = {v: [] for v in quad}
    for u, v in inner:
        adj[u].append(v)
        adj[v].append(u)
    path = [min(ends)]
    prev = None
    while len(path) < 4:
        nxt = [u for u in adj[path[-1]] if u != prev]
        if not nxt:
            return None
        prev = path[-1]
        path.append(nxt[0])
    return tuple(path)  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# reference solver steps: earlier implementations of threshold elimination,
# Hopcroft-Karp, component matching and the cotree coloring, kept as oracles
# for differential tests


def reference_optimal_coloring(root: Cotree) -> dict[int, int]:
    """optimal_coloring bottom-up: each node merges its children's
    colorings, a join shifting each child's by the clique numbers of the
    children before it."""
    omega: dict[int, int] = {}
    for node in _postorder(root):
        if isinstance(node, Leaf):
            omega[id(node)] = 1
        else:
            got = [omega[id(c)] for c in node.children]
            omega[id(node)] = max(got) if node.kind == UNION else sum(got)
    coloring: dict[int, dict[int, int]] = {}
    for node in _postorder(root):
        if isinstance(node, Leaf):
            coloring[id(node)] = {node.vertex: 0}
        elif node.kind == UNION:
            merged: dict[int, int] = {}
            for c in node.children:
                merged.update(coloring[id(c)])
            coloring[id(node)] = merged
        else:
            merged = {}
            offset = 0
            for c in node.children:
                for v, col in coloring[id(c)].items():
                    merged[v] = col + offset
                offset += omega[id(c)]
            coloring[id(node)] = merged
    return coloring[id(root)]


def reference_threshold_elimination(g: Graph) -> EliminationOrder | None:
    """threshold_elimination with the (degree, id) tuple key."""
    order = sorted(range(g.n), key=lambda v: (g.degree(v), v))
    lo, hi = 0, g.n - 1
    universals_removed = 0
    steps: list[tuple[int, str]] = []
    while lo <= hi:
        remaining = hi - lo + 1
        if g.degree(order[lo]) == universals_removed:
            steps.append((order[lo], ISOLATED))
            lo += 1
        elif g.degree(order[hi]) - universals_removed == remaining - 1:
            steps.append((order[hi], UNIVERSAL))
            hi -= 1
            universals_removed += 1
        else:
            return None
    return EliminationOrder(steps=tuple(steps))


def reference_max_matching(inst: BipartiteInstance) -> Matching:
    """max_matching with the recursive augmenting-path search."""
    adj: list[list[int]] = [[] for _ in range(inst.p)]
    for u, v in sorted(inst.edges):
        adj[u].append(v)
    inf = -1
    pair_left = [inf] * inst.p
    pair_right = [inf] * inst.q
    dist = [0] * inst.p

    def bfs() -> bool:
        queue: deque[int] = deque()
        found = False
        for u in range(inst.p):
            if pair_left[u] == inf:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = inf
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                w = pair_right[v]
                if w == inf:
                    found = True
                elif dist[w] == inf:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found

    def dfs(u: int) -> bool:
        for v in adj[u]:
            w = pair_right[v]
            if w == inf or (dist[w] == dist[u] + 1 and dfs(w)):
                pair_left[u] = v
                pair_right[v] = u
                return True
        dist[u] = inf
        return False

    while bfs():
        for u in range(inst.p):
            if pair_left[u] == inf:
                dfs(u)
    pairs = tuple((u, pair_left[u]) for u in range(inst.p) if pair_left[u] != inf)
    return Matching(pairs=pairs)


class ReferenceCotreePairs(cograph_module._CotreePairs):
    """_CotreePairs whose component matching decides every (host component,
    pattern component) pair, with no vertex-count or independence-number
    test in front."""

    def _decide_components(self, a: int, b: int):
        gcomps = self.kids[a]
        hcomps = self.kids[b] if self.kind[b] == UNION else (b,)
        p, q = len(gcomps), len(hcomps)
        if q > p:
            return "matching-deficit"
        edges = []
        for i in range(p):
            for j in range(q):
                if not isinstance(self.decide(gcomps[i], hcomps[j]), str):
                    edges.append((i, j))
        matching = max_matching(BipartiteInstance(p=p, q=q, edges=tuple(edges)))
        if not saturates_right(matching, q):
            return "matching-deficit"
        return tuple((i, (j,)) for i, j in matching.pairs)


class EagerCotreePairs(cograph_module._CotreePairs):
    """_CotreePairs whose union step decides every pair that passes the
    clique-number, vertex-count and independence-number tests before it
    runs the matching on the edges found: the reference for the solver's
    union step, which decides pairs only as the matching reads them."""

    def _decide_components(self, a: int, b: int):
        gcomps = self.kids[a]
        hcomps = self.kids[b] if self.kind[b] == UNION else (b,)
        p, q = len(gcomps), len(hcomps)
        if q > p:
            return "matching-deficit"
        omega, size, alpha = self.omega, self.size, self.alpha
        edges = []  # in (i, j) order
        for i in range(p):  # a loop, not a generator: one stack frame per level
            x = gcomps[i]
            for j in range(q):
                y = hcomps[j]
                if (
                    omega[y] == omega[x]
                    and size[y] <= size[x]
                    and alpha[y] <= alpha[x]
                    and not isinstance(self.decide(x, y), str)
                ):
                    if q == 1:  # the matching takes the first edge
                        return ((i, (0,)),)
                    edges.append((i, j))
        pairs = max_matching(BipartiteInstance(p, q, tuple(edges))).pairs
        if len(pairs) < q:
            return "matching-deficit"
        return tuple((i, (j,)) for i, j in pairs)


def logged(solver_class):
    """solver_class with every decide call, memo hits included, recorded
    in order in its calls list."""

    class Logged(solver_class):
        def __init__(self, tg, th):
            self.calls: list[tuple[int, int]] = []
            super().__init__(tg, th)

        def decide(self, a, b):
            self.calls.append((a, b))
            return super().decide(a, b)

    return Logged


def solve_on(solver_class, g: Graph, h: Graph, tg, th):
    """cotree_pair_retract run on solver_class: its result and the solver."""
    made = []

    class Kept(solver_class):
        def __init__(self, tg, th):
            super().__init__(tg, th)
            made.append(self)

    solver = cograph_module._CotreePairs
    cograph_module._CotreePairs = Kept
    try:
        result = cograph_module.cotree_pair_retract(g, h, tg, th)
    finally:
        cograph_module._CotreePairs = solver
    return result, made[0]


_Counts = tuple[int, ...]  # a multiset of pattern cocomponents, counted per class


class MultisetCotreePairs(cograph_module._CotreePairs):
    """_CotreePairs whose joins enumerate count vectors with a recursive
    generator, largest first, behind a stack of frames, one per host
    cocomponent: the reference whose decide calls the solver's run search
    must make in the same order."""

    def _decide_join(self, a: int, b: int):
        """Give each host cocomponent a nonempty multiset of pattern
        cocomponents whose clique numbers sum to its own, such that it
        retracts onto their join.

        Host cocomponents are taken in (omega, label) order.  Isomorphic
        ones are interchangeable, so their multisets are non-increasing,
        and the last one takes what is left.  On trivially perfect inputs
        this is forced: universal leaf to universal leaf, the rest to the
        non-leaf child.  A NO carries the reason of the first cocomponent
        pair that failed.
        """
        gk, hk = self.kids[a], self.kids[b]
        p = len(gk)
        if len(hk) < p:
            return "universal-count"
        order = sorted(range(p), key=lambda i: (self.omega[gk[i]], gk[i]))
        hosts = [gk[i] for i in order]
        classes = sorted(set(hk), key=lambda y: (self.omega[y], y))
        parts: list[_Counts] = []  # multisets chosen for hosts[:len(parts)]

        def candidates(i: int, left: _Counts) -> Iterator[_Counts]:
            bound = parts[i - 1] if i and hosts[i] == hosts[i - 1] else None
            if i == p - 1:
                return iter([left] if bound is None or left <= bound else [])
            room = sum(left) - (p - 1 - i)  # leave one for each later host
            return self._parts(classes, left, self.omega[hosts[i]], room, bound)

        tally = Counter(hk)
        start = tuple(tally[c] for c in classes)
        frames = [(candidates(0, start), start)]  # one per host being assigned
        first_no = None
        while frames:
            i = len(frames) - 1
            tries, left = frames[i]
            part = next(tries, None)
            if part is None:
                frames.pop()
                if parts:
                    parts.pop()
                continue
            got = self.decide(
                hosts[i], self.joined([c for c, k in zip(classes, part) for _ in range(k)])
            )
            if isinstance(got, str):
                first_no = first_no or got
                continue
            parts.append(part)
            if i < p - 1:
                rest = tuple(x - y for x, y in zip(left, part))
                frames.append((candidates(i + 1, rest), rest))
                continue
            pool: dict[int, list[int]] = {}
            for j, y in enumerate(hk):
                pool.setdefault(y, []).append(j)
            return tuple(
                (i, tuple(pool[c].pop() for c, k in zip(classes, part) for _ in range(k)))
                for i, part in zip(order, parts)
            )
        return first_no or "universal-count"

    def _parts(
        self, classes: list[int], left: _Counts, target: int, room: int, bound: _Counts | None
    ) -> Iterator[_Counts]:
        """Count vectors over classes, at most `left`, with clique numbers
        summing to target, at most `room` items and lexicographically at
        most `bound`; largest first."""
        counts = [0] * len(classes)

        def fill(c: int, need: int, room: int, tight: bool) -> Iterator[_Counts]:
            if need == 0:
                yield tuple(counts)
                return
            if c == len(classes) or room == 0 or self.omega[classes[c]] > need:
                return  # classes are in omega order: later ones are no lighter
            w = self.omega[classes[c]]
            top = min(left[c], need // w, room)
            if tight:
                top = min(top, bound[c])
            for k in range(top, -1, -1):
                counts[c] = k
                yield from fill(c + 1, need - k * w, room - k, tight and k == bound[c])
            counts[c] = 0

        return fill(0, target, room, bound is not None)


def reference_cotree_pair_retract(g: Graph, h: Graph, tg, th):
    """cotree_pair_retract run on ReferenceCotreePairs."""
    return solve_on(ReferenceCotreePairs, g, h, tg, th)[0]


def reference_build_cotree(g: Graph) -> Cotree:
    """build_cotree as the split builder once assembled it: one split per
    node, then Leaf and Internal values from a dict keyed by vertex tuples,
    children before their parents."""
    if g.n == 0:
        raise ValueError("cannot build a cotree for the empty graph")
    root_vs = tuple(range(g.n))
    plan: dict[tuple[int, ...], tuple[str, list[tuple[int, ...]]]] = {}
    stack: list[tuple[tuple[int, ...], str | None]] = [(root_vs, None)]
    while stack:
        vs, parent = stack.pop()
        if len(vs) == 1:
            continue
        for kind in (UNION, JOIN):
            if kind == parent:
                continue
            parts = cotree_module._split(g, vs, kind == JOIN)
            if len(parts) > 1:
                plan[vs] = (kind, parts)
                stack.extend((p, kind) for p in parts)
                break
        else:
            raise NotCographError(find_induced_p4(g, vs))
    built: dict[tuple[int, ...], Cotree] = {(v,): Leaf(v) for v in root_vs}
    for vs in reversed(plan):
        kind, parts = plan[vs]
        built[vs] = Internal(kind, tuple(built[p] for p in parts))
    return built[root_vs]


def reference_random_cograph(n: int, seed: int) -> Graph:
    """random_cograph as first written: the same draws, realized by
    recursive graph unions and joins and one relabelling."""
    rng = random.Random(f"cograph:{n}:{seed}")

    def build(k: int, join_level: bool) -> Graph:
        if k == 1:
            return Graph(1)
        parts = _random_composition(rng, k)
        sub = [build(p, not join_level) for p in parts]
        acc = sub[0]
        for nxt in sub[1:]:
            acc = graph_join(acc, nxt) if join_level else graph_union(acc, nxt)
        return acc

    g = build(n, rng.random() < 0.5)
    perm = list(range(n))
    rng.shuffle(perm)
    return relabel(g, perm)
