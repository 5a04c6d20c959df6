"""Graph values, parsing, elementary operations and certificate checking.

Vertices are dense integers 0..n-1.  Graphs are immutable once built, so
they are safe to share between threads and to use as dictionary keys.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from itertools import accumulate, compress, count, repeat
from operator import add, eq
from typing import Iterable, Iterator, Sequence


class ParseError(ValueError):
    """Raised for malformed graph input; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


VertexMap = Sequence[int]


class Graph:
    """Simple undirected graph on vertices 0..n-1 with set adjacency."""

    __slots__ = ("n", "adjacency", "_m")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u].add(v)
            adj[v].add(u)
        self._set(n, adj)

    @classmethod
    def _from_sets(cls, n: int, adj: Iterable[Iterable[int]]) -> Graph:
        """The graph whose neighbours of v are adj[v], for v in 0..n-1.

        Checks nothing: adj must hold n symmetric, loop-free sets of ids
        in range, as every caller has already made sure.  Frozensets are
        shared, not copied.
        """
        g = cls.__new__(cls)
        g._set(n, adj)
        return g

    def _set(self, n: int, adj: Iterable[Iterable[int]]) -> None:
        self.n = n
        self.adjacency: tuple[frozenset[int], ...] = tuple(map(frozenset, adj))
        self._m = sum(map(len, self.adjacency)) // 2

    @property
    def m(self) -> int:
        return self._m

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges as (u, v) with u < v, in ascending order."""
        for u in range(self.n):
            for v in sorted(self.adjacency[u]):
                if u < v:
                    yield (u, v)

    def vertices(self) -> range:
        return range(self.n)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adjacency == other.adjacency

    def __hash__(self) -> int:
        return hash((self.n, self.adjacency))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class RetractCertificate:
    """Witness that H is a retract of G.

    rho maps V(G) onto V(H), gamma embeds V(H) into V(G), and
    rho(gamma(y)) = y for every vertex y of H.
    """

    rho: tuple[int, ...]
    gamma: tuple[int, ...]


@dataclass(frozen=True)
class NoRetract:
    """Negative answer from a retract decider, with the failing case named."""

    reason: str
    detail: tuple = ()


# ---------------------------------------------------------------------------
# parsing / serialization


def parse_edge_list(text: str) -> Graph:
    """Parse the plain edge-list format: first line n, then lines "u v".

    Duplicate edges collapse; blank lines are ignored.  Raises ParseError
    naming the offending line for malformed input, out-of-range vertices
    and self-loops.
    """
    lines = enumerate(text.splitlines(), start=1)
    for lineno, raw in lines:
        line = raw.strip()
        if line:
            try:
                n = int(line)
            except ValueError:
                raise ParseError(f"expected vertex count, got {line!r}", lineno)
            if n < 0:
                raise ParseError("vertex count must be nonnegative", lineno)
            break
    else:
        raise ParseError("empty input")
    # keyed by vertex, so a huge n costs nothing until the input is valid
    adj: defaultdict[int, set[int]] = defaultdict(set)
    for lineno, raw in lines:
        parts = raw.split()
        if not parts:
            continue
        if len(parts) != 2:
            raise ParseError(f"expected 'u v', got {raw.strip()!r}", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer vertex in {raw.strip()!r}", lineno)
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"vertex out of range in {raw.strip()!r}", lineno)
        if u == v:
            raise ParseError(f"self-loop at vertex {u}", lineno)
        adj[u].add(v)
        adj[v].add(u)
    return Graph._from_sets(n, map(adj.get, range(n), repeat(())))


def format_edge_list(g: Graph) -> str:
    """First line n, then one line "u v" per edge, u < v, in ascending order."""
    names = list(map(str, range(g.n)))
    lines = [str(g.n)]
    for u, nbrs in enumerate(g.adjacency):
        above = sorted(nbrs)
        above = above[bisect_right(above, u) :]
        if above:
            lines.append(f"{u} " + f"\n{u} ".join(map(names.__getitem__, above)))
    return "\n".join(lines) + "\n"


def _g6_bits(g: Graph) -> list[int]:
    # column-major upper triangle: columns j=1..n-1, rows i=0..j-1
    bits = []
    for j in range(1, g.n):
        for i in range(j):
            bits.append(1 if g.has_edge(i, j) else 0)
    return bits


def format_graph6(g: Graph) -> str:
    """Encode in graph6: header byte n+63 for n <= 62, then packed bits."""
    n = g.n
    if n <= 62:
        head = [n + 63]
    elif n <= 258047:
        head = [126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
    else:
        raise ValueError("graph6 encoding supported for n <= 258047")
    bits = _g6_bits(g)
    while len(bits) % 6:
        bits.append(0)
    body = []
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k : k + 6]:
            val = (val << 1) | b
        body.append(val + 63)
    return bytes(head + body).decode("ascii")


# graph6 data bytes are 63..126; table k maps each to its data bit 5-k, as
# byte 0 or 1, so the bits of a body are six translates laid out with stride 6
_G6_DATA = bytes(range(63, 127))
_G6_BIT_TABLES = [bytes((((b - 63) & 63) >> k) & 1 for b in range(256)) for k in range(5, -1, -1)]


def parse_graph6(text: str) -> Graph:
    """Decode a graph6 string (optional '>>graph6<<' header tolerated)."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :].strip()
    if not s:
        raise ParseError("empty graph6 string")
    if not s.isascii():
        raise ParseError("graph6 byte out of range")
    data = s.encode("ascii")
    if data.translate(None, _G6_DATA):  # what is left is out of range
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
    bits = bytearray(6 * len(body))
    for k, table in enumerate(_G6_BIT_TABLES):
        bits[k::6] = body.translate(table)
    if any(bits[nbits:]):
        raise ParseError("nonzero padding bits in graph6 body")
    # column j of the upper triangle holds rows 0..j-1; it is row j and,
    # strided, column j of the symmetric n x n matrix
    matrix = bytearray(n * n)
    for j in range(1, n):
        column = bits[j * (j - 1) // 2 : j * (j + 1) // 2]
        matrix[j * n : j * n + j] = column
        matrix[j : j * n : n] = column
    ids = tuple(range(n))
    return Graph._from_sets(n, (_ones(matrix[v * n : v * n + n], ids) for v in ids))


def _ones(row: bytearray, ids: tuple[int, ...]) -> frozenset[int]:
    """The ids at whose positions row, of bytes 0 and 1, holds a 1.

    compress pays per byte (over a tuple: a range makes an int per byte),
    split per 1, about six times as much, so sparse rows split.
    """
    if 8 * row.count(1) > len(row):
        return frozenset(compress(ids, row))
    gaps = row.split(b"\1")
    del gaps[-1]
    # the k-th 1 (from 0) follows gaps 0..k and k earlier 1s
    return frozenset(map(add, accumulate(map(len, gaps)), count()))


# ---------------------------------------------------------------------------
# elementary operations


def complement(g: Graph) -> Graph:
    """Edge set becomes exactly the non-edges; an involution."""
    edges = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if v not in g.adjacency[u]
    ]
    return Graph(g.n, edges)


def components(g: Graph) -> list[tuple[int, ...]]:
    """Connected components, each sorted ascending, listed by smallest member."""
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


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on the given set, reindexed to 0..k-1.

    Returns the new graph and the translation table mapping new ids to the
    original ones (ascending).
    """
    keep = set(vertices)
    old = tuple(sorted(keep))
    for v in old:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range")
    index = {v: i for i, v in enumerate(old)}.__getitem__
    adj = g.adjacency
    return Graph._from_sets(len(old), [frozenset(map(index, adj[u] & keep)) for u in old]), old


def graph_union(a: Graph, b: Graph) -> Graph:
    """Disjoint union; b's vertices are shifted by a.n."""
    edges = list(a.edges()) + [(u + a.n, v + a.n) for u, v in b.edges()]
    return Graph(a.n + b.n, edges)


def graph_join(a: Graph, b: Graph) -> Graph:
    """Join: disjoint union plus all edges between the two sides."""
    edges = list(a.edges()) + [(u + a.n, v + a.n) for u, v in b.edges()]
    edges.extend((u, v + a.n) for u in range(a.n) for v in range(b.n))
    return Graph(a.n + b.n, edges)


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """Relabel vertices: new id of vertex v is perm[v]."""
    if sorted(perm) != list(range(g.n)):
        raise ValueError("perm must be a permutation of 0..n-1")
    return Graph(g.n, ((perm[u], perm[v]) for u, v in g.edges()))


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
# homomorphisms and certificates


def is_homomorphism(g: Graph, h: Graph, phi: VertexMap) -> bool:
    """True iff phi maps every edge of g onto an edge of h.

    An edge collapsing to a single vertex fails, since h has no loops.
    """
    if len(phi) != g.n:
        return False
    if phi and not (0 <= min(phi) and max(phi) < h.n):
        return False
    for u, nbrs in enumerate(g.adjacency):
        image = h.adjacency[phi[u]]
        for v in nbrs:
            if u < v and phi[v] not in image:
                return False
    return True


def verify_retract_certificate(g: Graph, h: Graph, cert: RetractCertificate) -> bool:
    """Check rho: G->H and gamma: H->G are homomorphisms with rho . gamma = id."""
    if len(cert.rho) != g.n or len(cert.gamma) != h.n:
        return False
    if not is_homomorphism(g, h, cert.rho):
        return False
    if not is_homomorphism(h, g, cert.gamma):
        return False
    return all(map(eq, map(cert.rho.__getitem__, cert.gamma), range(h.n)))


def compose_certificates(
    cert_ga: RetractCertificate, cert_ab: RetractCertificate
) -> RetractCertificate:
    """Combine witnesses: A retract of G and B retract of A give B retract of G.

    The composed maps are rho_ab . rho_ga and gamma_ga . gamma_ab.
    """
    size_a = len(cert_ga.gamma)
    if len(cert_ab.rho) != size_a:
        raise ValueError(
            f"middle-graph size mismatch: {size_a} vs {len(cert_ab.rho)}"
        )
    rho = tuple(cert_ab.rho[cert_ga.rho[x]] for x in range(len(cert_ga.rho)))
    gamma = tuple(cert_ga.gamma[cert_ab.gamma[y]] for y in range(len(cert_ab.gamma)))
    return RetractCertificate(rho=rho, gamma=gamma)


# ---------------------------------------------------------------------------
# random cographs


def random_cograph(n: int, seed: int) -> Graph:
    """Deterministic random cograph on n vertices.

    A random cotree: every block of k >= 2 vertices splits into a random
    composition of k, unions and joins alternating from a random root
    kind.  Its leaves are shuffled and it is realized once, so the time
    is linear in the size of the graph.  The same (n, seed) always yields
    the same graph.
    """
    from .cotree import JOIN, UNION, Internal, Leaf, cotree_to_graph  # cotree imports this module

    if n < 1:
        raise ValueError("n must be at least 1")
    rng = random.Random(f"cograph:{n}:{seed}")
    plan: list[tuple[str, int]] = []  # (kind, child count) per block, in preorder
    stack = [(n, rng.random() < 0.5)]
    while stack:
        k, join_level = stack.pop()
        if k == 1:
            plan.append(("", 0))
            continue
        parts = _random_composition(rng, k)
        plan.append((JOIN if join_level else UNION, len(parts)))
        stack.extend((p, not join_level) for p in reversed(parts))
    perm = list(range(n))
    rng.shuffle(perm)
    # in reverse preorder each block's children are done right to left, so
    # they sit on the stack leftmost on top; leaf i of the preorder is perm[i]
    built: list = []
    leaf = n
    for kind, arity in reversed(plan):
        if not arity:
            leaf -= 1
            built.append(Leaf(perm[leaf]))
            continue
        kids = tuple(reversed(built[-arity:]))
        del built[-arity:]
        built.append(Internal(kind, kids))
    return cotree_to_graph(built[0])


def _random_composition(rng: random.Random, k: int) -> list[int]:
    """Split k >= 2 into at least two positive parts."""
    nparts = 2 + min(rng.randrange(k - 1), rng.randrange(k - 1))
    cuts = sorted(rng.sample(range(1, k), nparts - 1))
    bounds = [0] + cuts + [k]
    return [bounds[i + 1] - bounds[i] for i in range(len(bounds) - 1)]
