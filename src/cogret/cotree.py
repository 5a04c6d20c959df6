"""Cograph recognition, cotrees, clique/chromatic numbers and class tests.

A cotree is a rooted tree whose leaves are the graph's vertices and whose
internal nodes are labeled UNION (disjoint union of the children) or JOIN
(union plus all edges across children).  Kinds strictly alternate on every
root-to-leaf path and internal nodes have at least two children.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Union

from .graph_core import Graph
from .retract_threshold import UNIVERSAL, threshold_elimination

UNION = "U"
JOIN = "J"


@dataclass(frozen=True)
class Leaf:
    vertex: int


@dataclass(frozen=True)
class Internal:
    kind: str  # UNION or JOIN
    children: tuple["Cotree", ...]


Cotree = Union[Leaf, Internal]


class NotCographError(Exception):
    """The graph has an induced four-vertex path; carries it in path order."""

    def __init__(self, witness: tuple[int, int, int, int]):
        self.witness = witness
        super().__init__(f"not a cograph: induced P4 on {witness}")


class CotreeError(ValueError):
    """Malformed cotree value or text."""


# ---------------------------------------------------------------------------
# traversal helpers (iterative, so deep trees do not hit the recursion limit)


def _postorder(root: Cotree) -> list[Cotree]:
    out: list[Cotree] = []
    stack = [root]
    while stack:
        node = stack.pop()
        out.append(node)
        if isinstance(node, Internal):
            stack.extend(node.children)
    out.reverse()
    return out


def cotree_leaves(root: Cotree) -> tuple[int, ...]:
    """All leaf vertex ids under root, in left-to-right order."""
    out: list[int] = []
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            out.append(node.vertex)
        else:
            stack.extend(reversed(node.children))
    return tuple(out)


# ---------------------------------------------------------------------------
# recognition


def _split(g: Graph, vs: tuple[int, ...], join: bool) -> list[tuple[int, ...]]:
    """Components of g[vs], or of its complement when join is set, as
    sorted tuples ordered by smallest vertex; vs must be sorted.  A part
    grows by one C-level set operation per vertex it takes."""
    adj = g.adjacency
    unvisited = set(vs)
    built = len(vs)
    rest = iter(vs)
    parts = []
    while unvisited:
        s = next(v for v in rest if v in unvisited)
        unvisited.remove(s)
        part, stack = [s], [s]
        while stack and unvisited:  # depth first drains unvisited soonest
            v = stack.pop()
            found = unvisited - adj[v] if join else adj[v] & unvisited
            if found:
                unvisited -= found
                part += found
                stack += found
                if 4 * len(unvisited) < built:
                    unvisited = set(unvisited)
                    built = len(unvisited)
        parts.append(tuple(sorted(part)))
    return parts


def build_cotree(g: Graph) -> Cotree:
    """Decompose g into a cotree, or raise NotCographError with a P4 witness.

    A trivially perfect graph reads its cotree off its rooted-forest model
    in O(n + m) (_forest_cotree).  Any other graph, a cograph with an
    induced C4 or a non-cograph, goes to the split builder.  Children are
    ordered by smallest contained vertex, so both give the same tree.
    """
    return _classed_cotree(g)[0]


def _classed_cotree(g: Graph) -> tuple[Cotree, str]:
    """build_cotree, with the class its builder proves: trivially perfect
    (threshold or not) when the forest pass succeeds, cograph when only
    the split builder does."""
    if g.n == 0:
        raise ValueError("cannot build a cotree for the empty graph")
    tree = _forest_cotree(g)
    if tree is not None:
        return tree, TRIVIALLY_PERFECT
    return _split_cotree(g), COGRAPH


def _forest_cotree(g: Graph) -> Cotree | None:
    """The cotree of a trivially perfect g, or None if g is not one.

    A trivially perfect graph is the comparability graph of a rooted
    forest (Wolk 1962), which the degree order gives in linear time (Yan,
    Chen and Chang 1996): in order of non-increasing degree, each vertex
    hangs under its latest earlier neighbour.  Adjacent vertices of a
    trivially perfect graph have nested closed neighbourhoods, else there
    is an induced P4 or C4, so N[v] lies in N[parent(v)] for every v.
    Conversely, once that holds, each ancestor of v is adjacent to v and
    each earlier neighbour of v is an ancestor of v (by induction along
    the order), so g is the forest's closure and the test is exact.  A
    vertex with children is the join of itself with the union of their
    subtrees; a vertex with one child is its true twin and joins the
    child's join.
    """
    adj = g.adjacency
    neg = [-len(a) for a in adj]
    order = sorted(range(g.n), key=neg.__getitem__)  # stable: ties by id
    rank = [0] * g.n
    for i, v in enumerate(order):
        rank[v] = i
    children: list[list[int]] = [[] for _ in order]
    roots: list[int] = []
    seen: set[int] = set()
    for v in order:
        earlier = adj[v] & seen
        seen.add(v)
        if not earlier:
            roots.append(v)
            continue
        p = max(earlier, key=rank.__getitem__)
        if len(adj[v] - adj[p]) != 1:  # adj[v] holds p; anything else is outside N[p]
            return None
        children[p].append(v)

    # bottom-up: v's subtree is the join of its chain of true twins with
    # the union under the chain, if any; low is its smallest vertex and
    # ulow the union's
    chain: list[list[int]] = [[] for _ in order]
    under: list[Cotree | None] = [None] * g.n
    low = [0] * g.n
    ulow = [0] * g.n

    def finished(v: int) -> Cotree:
        twins = sorted(chain[v])
        leaves: list[Cotree] = [Leaf(t) for t in twins]
        if under[v] is not None:
            leaves.insert(bisect_left(twins, ulow[v]), under[v])
        return leaves[0] if len(leaves) == 1 else Internal(JOIN, tuple(leaves))

    for v in reversed(order):  # children come after their parent in order
        kids = children[v]
        if len(kids) == 1:
            (c,) = kids
            chain[v] = chain[c]
            chain[v].append(v)
            under[v], ulow[v], low[v] = under[c], ulow[c], min(low[c], v)
            continue
        chain[v].append(v)
        low[v] = v
        if kids:
            kids.sort(key=low.__getitem__)
            under[v] = Internal(UNION, tuple(map(finished, kids)))
            ulow[v] = low[kids[0]]
            low[v] = min(ulow[v], v)
    if len(roots) == 1:
        return finished(roots[0])
    roots.sort(key=low.__getitem__)
    return Internal(UNION, tuple(map(finished, roots)))


def _split_cotree(g: Graph) -> Cotree:
    """build_cotree by one split per cotree node, for any nonempty graph.

    Kinds alternate, so a union's children are split only into
    co-components and a join's only into components; only the root tries
    both.  A split copies its set of unplaced vertices once that holds
    under a quarter of the vertices it was built with: a CPython set never
    shrinks its table and every set operation walks it, so without the
    copy a deep cotree would cost its depth times the graph's size.
    """
    root_vs = tuple(range(g.n))
    plan: dict[tuple[int, ...], tuple[str, list[tuple[int, ...]]]] = {}  # in preorder
    stack: list[tuple[tuple[int, ...], str | None]] = [(root_vs, None)]  # part, parent kind
    while stack:
        vs, parent = stack.pop()
        if len(vs) == 1:
            continue
        for kind in (UNION, JOIN):
            if kind == parent:
                continue  # a union's parts are connected, a join's co-connected
            parts = _split(g, vs, kind == JOIN)
            if len(parts) > 1:
                plan[vs] = (kind, parts)
                stack.extend((p, kind) for p in parts)
                break
        else:
            raise NotCographError(find_induced_p4(g, vs))  # type: ignore[arg-type]
    built: dict[tuple[int, ...], Cotree] = {(v,): Leaf(v) for v in root_vs}
    for vs in reversed(plan):  # children before their parents
        kind, parts = plan[vs]
        built[vs] = Internal(kind, tuple(built[p] for p in parts))
    return built[root_vs]


def find_induced_p4(
    g: Graph, within: tuple[int, ...] | None = None
) -> tuple[int, int, int, int] | None:
    """Find an induced P4 (returned in path order), or None if P4-free.

    Scans induced P3s (center plus two nonadjacent neighbors) and tries
    every fourth vertex; every P4 contains such a P3, so the scan is
    complete.  Exits on the first hit.
    """
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
                    path = _as_p4(g, (a, b, c, d))
                    if path is not None:
                        return path
    return None


def _as_p4(g: Graph, quad: tuple[int, int, int, int]) -> tuple[int, int, int, int] | None:
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
# realization and normalization


def cotree_to_graph(root: Cotree) -> Graph:
    """Realize the cotree bottom-up; leaf ids must be a permutation of 0..n-1."""
    leaves = cotree_leaves(root)
    n = len(leaves)
    if sorted(leaves) != list(range(n)):
        raise CotreeError(
            f"leaf ids must be a permutation of 0..{n - 1}, got {sorted(leaves)}"
        )
    adj: list[set[int]] = [set() for _ in range(n)]
    leafsets: dict[int, tuple[int, ...]] = {}
    for node in _postorder(root):
        if isinstance(node, Leaf):
            leafsets[id(node)] = (node.vertex,)
            continue
        childsets = [leafsets[id(c)] for c in node.children]
        if len(childsets) < 2:
            raise CotreeError("internal cotree node with fewer than two children")
        merged = tuple(chain.from_iterable(childsets))
        if node.kind == JOIN:
            everything = frozenset(merged)
            for s in childsets:
                others = everything.difference(s)
                for u in s:
                    adj[u] |= others
        elif node.kind != UNION:
            raise CotreeError(f"unknown cotree node kind {node.kind!r}")
        leafsets[id(node)] = merged
    return Graph._from_sets(n, adj)


def normalize(root: Cotree) -> Cotree:
    """Collapse single-child internals and merge same-kind nested children.

    The result realizes the same graph and satisfies the alternation and
    arity invariants.  Idempotent.
    """
    rebuilt: dict[int, Cotree] = {}
    for node in _postorder(root):
        if isinstance(node, Leaf):
            rebuilt[id(node)] = node
            continue
        flat: list[Cotree] = []
        for child in node.children:
            c = rebuilt[id(child)]
            if isinstance(c, Internal) and c.kind == node.kind:
                flat.extend(c.children)
            else:
                flat.append(c)
        rebuilt[id(node)] = flat[0] if len(flat) == 1 else Internal(node.kind, tuple(flat))
    return rebuilt[id(root)]


# ---------------------------------------------------------------------------
# clique and chromatic numbers, colorings, cliques


def clique_number(root: Cotree) -> int:
    """Max clique size: 1 at leaves, max over union children, sum over join."""
    return omega_table(root)[id(root)]


def chromatic_number(root: Cotree) -> int:
    """Chromatic number: max over union children, sum over join children.

    Cographs are perfect, so this always equals clique_number.
    """
    return omega_table(root)[id(root)]


def omega_table(root: Cotree, within: frozenset[int] | None = None) -> dict[int, int]:
    """Clique number of every subtree, keyed by node identity; given
    `within`, of the subgraph each subtree induces on those vertices."""
    omega: dict[int, int] = {}
    for node in _postorder(root):
        if isinstance(node, Leaf):
            omega[id(node)] = 1 if within is None or node.vertex in within else 0
        elif node.kind == UNION:
            omega[id(node)] = max(omega[id(c)] for c in node.children)
        else:
            omega[id(node)] = sum(omega[id(c)] for c in node.children)
    return omega


def optimal_coloring(root: Cotree) -> dict[int, int]:
    """Proper coloring with chromatic_number(root) colors, as vertex ->
    color: each vertex gets the sum, over the joins above it, of the clique
    numbers of the join's earlier children.  One omega_table pass and one
    walk down."""
    omega = omega_table(root)
    return _walk_down(root, lambda node: omega[id(node)])[0]


def _walk_down(root: Cotree, omega: Callable[[Cotree], int]) -> tuple[dict[int, int], list[int]]:
    """optimal_coloring's colors and clique_table's maximum clique (every
    child of a join, the first widest child of a union) of root, in one
    walk down.  omega gives the clique number of a node below the root;
    the root's own is never asked for."""
    colors: dict[int, int] = {}
    clique: list[int] = []
    stack = [(root, 0, True)]  # node, its color offset, whether on the clique
    while stack:
        node, base, on = stack.pop()
        if isinstance(node, Leaf):
            colors[node.vertex] = base
            if on:
                clique.append(node.vertex)
        elif node.kind == JOIN:
            for c in node.children:
                stack.append((c, base, on))
                base += omega(c)
        else:
            widest = max(node.children, key=omega) if on else None
            stack.extend((c, base, c is widest) for c in node.children)
    return colors, clique


def max_clique_leaves(root: Cotree) -> tuple[int, ...]:
    """Vertices of one maximum clique, chosen deterministically."""
    return clique_table(root)[id(root)]


def clique_table(root: Cotree) -> dict[int, tuple[int, ...]]:
    """One maximum clique of every subtree, keyed by node identity: a
    union takes its first widest child's, a join the concatenation of its
    children's, so a subtree's clique number is the length of its entry."""
    cliques: dict[int, tuple[int, ...]] = {}
    for node in _postorder(root):
        if isinstance(node, Leaf):
            cliques[id(node)] = (node.vertex,)
        elif node.kind == UNION:
            cliques[id(node)] = max((cliques[id(c)] for c in node.children), key=len)
        else:
            # at most one longer than the edges this join adds, so all the
            # cliques together take time linear in the size of the graph
            cliques[id(node)] = tuple(v for c in node.children for v in cliques[id(c)])
    return cliques


# ---------------------------------------------------------------------------
# graph-class recognition


THRESHOLD = "threshold"
TRIVIALLY_PERFECT = "trivially_perfect"
COGRAPH = "cograph"
NOT_COGRAPH = "not_cograph"


@dataclass(frozen=True)
class GraphClass:
    """Smallest applicable class plus a witness against the next-smaller one.

    witness_kind names the forbidden induced subgraph carried by witness:
    "P4" for not_cograph, "C4" for cograph (not trivially perfect), "2K2"
    or "C4" for trivially_perfect (not threshold); threshold has none.
    """

    name: str
    witness_kind: str | None = None
    witness: tuple[int, ...] | None = None


_NO_CLASS = "the empty graph has no cotree and no class"


def classify(g: Graph) -> GraphClass:
    """Report the smallest class among threshold, trivially perfect, cograph.

    Threshold means repeated removal of a universal-or-isolated vertex
    empties the graph; trivially perfect means cograph without an induced
    C4.  The class is the one _PreparedGraph's recognizers prove.
    Witnesses carry the forbidden subgraph blocking the next-smaller class:
    the split builder's P4, or a C4 or 2K2 that _witness reads off the
    cotree.  Raises ValueError on the empty graph.
    """
    if g.n == 0:
        raise ValueError(_NO_CLASS)
    pg = _PreparedGraph(g)
    if pg.name == THRESHOLD:
        return GraphClass(THRESHOLD)
    if pg.name == NOT_COGRAPH:
        return GraphClass(NOT_COGRAPH, "P4", pg.p4)
    return GraphClass(pg.name, *_witness(pg.cotree, pg.name))


class _PreparedGraph:
    """One graph's class, threshold elimination order and cotree.

    The class is the one the accepting recognizer proves, so nothing walks
    the cotree for it: the O(n log n) isolated/universal elimination
    (Chvatal and Hammer, 1977) proves threshold, the forest pass trivially
    perfect and the split builder cograph, and the split builder's induced
    P4 (kept as p4) proves not_cograph.  A threshold graph gets its clique
    number without a cotree.  The cotree is built at most once, so the
    dispatcher, the solvers and the CLI report share it.  The empty graph
    has the empty elimination order, so it is prepared as threshold with
    clique number 0; classify and the cotree routes refuse it.
    """

    def __init__(self, g: Graph):
        self.g = g
        self.order = threshold_elimination(g)
        self._tree: Cotree | None = None
        self.p4: tuple[int, int, int, int] | None = None
        if self.order is not None:
            self.name = THRESHOLD
            return
        try:
            self._tree, self.name = _classed_cotree(g)
        except NotCographError as exc:
            self.name, self.p4 = NOT_COGRAPH, exc.witness

    @property
    def cotree(self) -> Cotree:
        """The cotree, built on first use; NotCographError if there is none."""
        if self._tree is None:
            if self.p4 is not None:
                raise NotCographError(self.p4)
            self._tree = build_cotree(self.g)
        return self._tree

    @property
    def omega(self) -> int:
        """Clique number.  In a nonempty threshold graph the universal steps
        of the elimination and its last vertex form a maximum clique."""
        if self.order is not None:
            universals = sum(1 for _, tag in self.order.steps if tag == UNIVERSAL)
            return universals + min(self.g.n, 1)
        return clique_number(self.cotree)


def _witness(root: Cotree, name: str) -> tuple[str, tuple[int, int, int, int]]:
    """The induced C4 of a cograph (name COGRAPH) or 2K2 of a trivially
    perfect graph that is not threshold, as (witness kind, witness).

    Kinds alternate, so a node's children that hold a non-edge (under a
    join) or an edge (under a union) are exactly its internal ones.  The
    first join, for a C4, or union, for a 2K2, in postorder with two
    internal children gives one from each: the first leaves of the first
    two children of the first node of the other kind in that child's
    postorder.  A C4 is listed in cycle order, a 2K2 edge by edge.
    """
    kind = JOIN if name == COGRAPH else UNION
    for node in _postorder(root):
        if isinstance(node, Leaf) or node.kind != kind:
            continue
        inner = [c for c in node.children if isinstance(c, Internal)]
        if len(inner) < 2:
            continue
        ends = []
        for child in inner[:2]:
            first = next(
                x for x in _postorder(child) if isinstance(x, Internal) and x.kind != kind
            )
            ends += (cotree_leaves(x)[0] for x in first.children[:2])
        a, b, c, d = ends
        return ("C4", (a, c, b, d)) if kind == JOIN else ("2K2", (a, b, c, d))
    raise AssertionError(f"no witness in the cotree of a {name}")


# ---------------------------------------------------------------------------
# canonical keys


def canonical_key(root: Cotree) -> bytes:
    """Canonical bytes: equal iff the trees are isomorphic as unordered
    kind-labeled trees.  Leaf ids are erased, so equal keys imply
    isomorphic graphs.
    """
    keys: dict[int, bytes] = {}
    for node in _postorder(root):
        if isinstance(node, Leaf):
            keys[id(node)] = b"L"
        else:
            child_keys = sorted(keys[id(c)] for c in node.children)
            keys[id(node)] = (
                node.kind.encode("ascii") + b"(" + b"".join(child_keys) + b")"
            )
    return keys[id(root)]


# ---------------------------------------------------------------------------
# text format


def format_cotree(root: Cotree) -> str:
    """Serialize per the grammar: INT or KIND '(' child (',' child)+ ')'."""
    parts: list[str] = []
    stack: list[Cotree | str] = [root]  # nodes still to write, and punctuation
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif isinstance(item, Leaf):
            parts.append(str(item.vertex))
        else:
            parts.append(item.kind + "(")
            stack.append(")")
            for i in range(len(item.children) - 1, -1, -1):
                stack.append(item.children[i])
                if i:
                    stack.append(",")
    return "".join(parts)


def parse_cotree(text: str) -> Cotree:
    """Parse the cotree grammar; whitespace is ignored.

    Leaf ids must form a permutation of 0..n-1.  The result is normalized,
    so same-kind nesting in the input is tolerated.  The parser keeps the
    open internal nodes on a stack, so nesting depth is not limited by the
    recursion limit.
    """
    s = "".join(text.split())
    pos = 0
    open_nodes: list[tuple[str, list[Cotree]]] = []  # (kind, children so far)
    while True:
        if pos >= len(s):
            raise CotreeError("unexpected end of cotree text")
        ch = s[pos]
        if ch in (UNION, JOIN):
            pos += 1
            if pos >= len(s) or s[pos] != "(":
                raise CotreeError(f"expected '(' at position {pos}")
            pos += 1
            open_nodes.append((ch, []))
            continue
        start = pos
        while pos < len(s) and s[pos].isdigit():
            pos += 1
        if pos == start:
            raise CotreeError(f"expected leaf id or kind at position {pos}")
        node: Cotree = Leaf(int(s[start:pos]))
        # attach the finished node; close every parent whose last child it is
        while open_nodes:
            open_nodes[-1][1].append(node)
            if pos < len(s) and s[pos] == ",":
                pos += 1
                break
            if pos >= len(s) or s[pos] != ")":
                raise CotreeError(f"expected ')' at position {pos}")
            pos += 1
            kind, children = open_nodes.pop()
            if len(children) < 2:
                raise CotreeError("internal node needs at least two children")
            node = Internal(kind, tuple(children))
        else:
            break
    if pos != len(s):
        raise CotreeError(f"trailing input at position {pos}")
    root = normalize(node)
    leaves = cotree_leaves(root)
    if sorted(leaves) != list(range(len(leaves))):
        raise CotreeError("leaf ids must be a permutation of 0..n-1")
    return root
