"""Cograph recognition, cotrees, clique/chromatic numbers and class tests.

A cotree is a rooted tree whose leaves are the graph's vertices and whose
internal nodes are labeled UNION (disjoint union of the children) or JOIN
(union plus all edges across children).  Kinds strictly alternate on every
root-to-leaf path and internal nodes have at least two children.

The builders, _PreparedGraph and the solvers hold a cotree as arrays
(_Tree), so per-node facts such as clique numbers are lists indexed by
node, not dicts keyed by object identity.  build_cotree turns the arrays
into the public Leaf/Internal values (_objects); clique_number,
optimal_coloring, max_clique_leaves, cotree_to_graph, normalize and
canonical_key read those back (_arrays) and loop over its node order.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Union

from .graph_core import Graph, _split
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


_LEAF = "L"  # the kind of a leaf in a _Tree


class _Tree:
    """A cotree as arrays.  Nodes 0..n-1 are the leaves, node v being
    vertex v; the internal nodes follow in left-to-right postorder, so the
    root is last and readers loop over range(n, len(kind)), with no walk
    (absolute._with_true_twin only keeps each node after its children).
    kind[v] is _LEAF, UNION or JOIN and kids[v] the children left to
    right, empty at a leaf."""

    def __init__(self, n: int):
        self.n, self.kind, self.kids = n, [_LEAF] * n, [()] * n

    def add(self, kind: str, kids: tuple[int, ...]) -> int:
        """Append an internal node over these children; returns its number."""
        self.kind.append(kind)
        self.kids.append(kids)
        return len(self.kind) - 1

    @property
    def root(self) -> int:
        return len(self.kind) - 1

    @cached_property
    def omega(self) -> list[int]:
        """Clique number of every node's subtree, unless solver labels set it."""
        return _omegas(self)


def _omegas(tree: _Tree, within: frozenset[int] | None = None) -> list[int]:
    """Clique number of every node's subtree, in one pass over the nodes;
    given `within`, of the subgraph each subtree induces on those vertices."""
    omega = [1] * tree.n if within is None else [int(v in within) for v in range(tree.n)]
    kind, kids = tree.kind, tree.kids
    for v in range(tree.n, len(kind)):
        got = map(omega.__getitem__, kids[v])
        omega.append(max(got) if kind[v] == UNION else sum(got))
    return omega


def _subtree(tree: _Tree, v: int) -> list[int]:
    """The nodes of v's subtree in left-to-right postorder."""
    kids, out, stack = tree.kids, [], [v]
    while stack:
        v = stack.pop()
        out.append(v)
        stack.extend(kids[v])
    out.reverse()
    return out


def _objects(tree: _Tree) -> Cotree:
    """tree as Leaf and Internal values."""
    nodes: list[Cotree] = [Leaf(v) for v in range(tree.n)]
    for v in range(tree.n, len(tree.kind)):
        nodes.append(Internal(tree.kind[v], tuple(map(nodes.__getitem__, tree.kids[v]))))
    return nodes[-1]


def _arrays(root: Cotree | _Tree) -> _Tree:
    """root as a _Tree (a _Tree as it is), with a leaf slot per id up to the largest."""
    if isinstance(root, _Tree):
        return root
    order = _postorder(root)
    tree = _Tree(1 + max(node.vertex for node in order if isinstance(node, Leaf)))
    done: list[int] = []  # the finished subtrees not yet attached, left to right
    for node in order:
        if isinstance(node, Leaf):
            done.append(node.vertex)
            continue
        at = len(done) - len(node.children)
        kids = tuple(done[at:])
        del done[at:]
        done.append(tree.add(node.kind, kids))
    return tree


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
    return tuple(node.vertex for node in _postorder(root) if isinstance(node, Leaf))


# ---------------------------------------------------------------------------
# recognition


def build_cotree(g: Graph) -> Cotree:
    """Decompose g into a cotree, or raise NotCographError with a P4 witness.

    A trivially perfect graph reads its cotree off its rooted-forest model
    in O(n + m) (_forest_cotree).  Any other graph, a cograph with an
    induced C4 or a non-cograph, goes to the split builder.  Children are
    ordered by smallest contained vertex and internal nodes numbered in
    left-to-right postorder, so both give the same arrays.
    """
    return _objects(_classed_cotree(g)[0])


def _classed_cotree(g: Graph) -> tuple[_Tree, str]:
    """build_cotree, with the class its builder proves: trivially perfect
    (threshold or not) when the forest pass succeeds, cograph when only
    the split builder does."""
    if g.n == 0:
        raise ValueError("cannot build a cotree for the empty graph")
    tree = _forest_cotree(g)
    if tree is not None:
        return tree, TRIVIALLY_PERFECT
    return _split_cotree(g), COGRAPH


def _forest_cotree(g: Graph) -> _Tree | None:
    """The cotree of a trivially perfect g, or None if g is not one.

    A trivially perfect graph is the comparability graph of a rooted
    forest (Wolk 1962), which the degree order gives in linear time (Yan,
    Chen and Chang 1996): in order of non-increasing degree, each vertex
    hangs under its latest earlier neighbour.  Adjacent vertices of a
    trivially perfect graph have nested closed neighbourhoods, else there
    is an induced P4 or C4, so the d earlier neighbours of v are its
    ancestors, one at each depth below d, and N[v] lies in N[parent(v)].
    The pass takes as parent the one earlier neighbour at depth d - 1 and
    checks both.  Conversely, once they hold for every v, N[v] lies in
    N[parent(v)] and so in N[a] for every ancestor a; by induction along
    the order the ancestors are d earlier neighbours of v, so they are
    all of them, and g is the forest's closure: the test is exact.  A
    vertex with children is the join of itself with the union of their
    subtrees; a vertex with one child is its true twin and joins the
    child's join.  Nodes are numbered as the split builder numbers them.
    """
    adj = g.adjacency
    neg = [-len(a) for a in adj]
    order = sorted(range(g.n), key=neg.__getitem__)  # stable: ties by id
    children: list[list[int]] = [[] for _ in order]
    roots: list[int] = []
    seen: set[int] = set()
    depth: list[set[int]] = []  # the vertices placed at each depth so far
    for v in order:
        earlier = adj[v] & seen
        seen.add(v)
        d = len(earlier)
        while len(depth) <= d:
            depth.append(set())
        depth[d].add(v)
        if not d:
            roots.append(v)
            continue
        parent = earlier & depth[d - 1]
        if len(parent) != 1:
            return None
        (p,) = parent
        if len(adj[v] - adj[p]) != 1:  # adj[v] holds p; anything else is outside N[p]
            return None
        children[p].append(v)

    # low[v] is the smallest vertex of v's forest subtree; children go in
    # low order, as the split builder orders its parts
    low = list(range(g.n))
    for v in reversed(order):  # children come after their parent in order
        kids = children[v]
        if kids:
            kids.sort(key=low.__getitem__)
            low[v] = min(v, low[kids[0]])

    # one walk from the roots, numbering each node when its subtree is
    # done: a frame is a chain of true twins (none for the roots), the
    # children of its last vertex and the nodes built for them so far
    roots.sort(key=low.__getitem__)
    tree = _Tree(g.n)
    stack = [([], iter(roots), [])]
    while stack:
        twins, rest, built = stack[-1]
        for v in rest:
            chain = [v]
            while len(children[v]) == 1:
                (v,) = children[v]
                chain.append(v)
            if children[v]:
                stack.append((chain, iter(children[v]), []))
                break
            chain.sort()
            built.append(chain[0] if len(chain) == 1 else tree.add(JOIN, tuple(chain)))
        else:
            stack.pop()
            node = built[0] if len(built) == 1 else tree.add(UNION, tuple(built))
            if twins:
                at = low[children[twins[-1]][0]]
                twins.sort()
                twins.insert(bisect_left(twins, at), node)
                node = tree.add(JOIN, tuple(twins))
            if stack:
                stack[-1][2].append(node)
    return tree


def _split_cotree(g: Graph) -> _Tree:
    """build_cotree by one split per cotree node, for any nonempty graph.

    Kinds alternate, so a union's children are split only into
    co-components and a join's only into components; only the root tries
    both.  A split copies its set of unplaced vertices once that holds
    under a quarter of the vertices it was built with: a CPython set never
    shrinks its table and every set operation walks it, so without the
    copy a deep cotree would cost its depth times the graph's size.
    """
    plan: dict[tuple[int, ...], tuple[str, list[tuple[int, ...]]]] = {}  # in preorder
    stack: list[tuple[tuple[int, ...], str | None]] = [(tuple(range(g.n)), None)]
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
    tree, node = _Tree(g.n), {}
    for vs in reversed(plan):  # children before their parents
        kind, parts = plan[vs]
        node[vs] = tree.add(kind, tuple(node[p] if len(p) > 1 else p[0] for p in parts))
    return tree


def find_induced_p4(
    g: Graph, within: tuple[int, ...] | None = None
) -> tuple[int, int, int, int] | None:
    """Find an induced P4 of g, or of g[within], in path order; None if P4-free.

    A P4 is an induced P3 a-b-c (a and c not adjacent) and a vertex next
    to exactly one end and not to b, so (N(a) ^ N(c)) - N(b) holds every
    fourth vertex of a P3: one set expression each.  Centres b go in the
    order of `within`, pairs a < c ascending, and d is the first fourth
    vertex in that order; the path is read from its smaller end.
    """
    vs = within if within is not None else tuple(range(g.n))
    inside = frozenset(vs)
    adj = g.adjacency
    for b in vs:
        nbrs = sorted(adj[b] & inside)
        for i, a in enumerate(nbrs):
            near_a = adj[a]
            for c in nbrs[i + 1 :]:
                if c in near_a:
                    continue
                fourth = (near_a ^ adj[c]) - adj[b]
                if fourth.isdisjoint(inside):
                    continue
                d = next(v for v in vs if v in fourth)
                path = (d, a, b, c) if d in near_a else (a, b, c, d)
                return path if path[0] < path[3] else path[::-1]
    return None


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
    tree = _arrays(root)
    adj: list[set[int]] = [set() for _ in range(n)]
    leafsets = [(v,) for v in range(n)]
    for v in range(n, len(tree.kind)):
        childsets = list(map(leafsets.__getitem__, tree.kids[v]))
        if len(childsets) < 2:
            raise CotreeError("internal cotree node with fewer than two children")
        merged = tuple(chain.from_iterable(childsets))
        if tree.kind[v] == JOIN:
            everything = frozenset(merged)
            for s in childsets:
                others = everything.difference(s)
                for u in s:
                    adj[u] |= others
        elif tree.kind[v] != UNION:
            raise CotreeError(f"unknown cotree node kind {tree.kind[v]!r}")
        leafsets.append(merged)
    return Graph._from_sets(n, adj)


def normalize(root: Cotree) -> Cotree:
    """Collapse single-child internals and merge same-kind nested children.

    The result realizes the same graph and satisfies the alternation and
    arity invariants.  Idempotent.
    """
    tree = _arrays(root)
    nodes: list[Cotree] = [Leaf(v) for v in range(tree.n)]
    for v in range(tree.n, len(tree.kind)):
        kind = tree.kind[v]
        flat: list[Cotree] = []
        for c in map(nodes.__getitem__, tree.kids[v]):
            if isinstance(c, Internal) and c.kind == kind:
                flat.extend(c.children)
            else:
                flat.append(c)
        nodes.append(flat[0] if len(flat) == 1 else Internal(kind, tuple(flat)))
    return nodes[-1]


# ---------------------------------------------------------------------------
# clique and chromatic numbers, colorings, cliques


def clique_number(root: Cotree) -> int:
    """Max clique size: 1 at leaves, max over union children, sum over join."""
    return _arrays(root).omega[-1]


def chromatic_number(root: Cotree) -> int:
    """Chromatic number: max over union children, sum over join children.

    Cographs are perfect, so this always equals clique_number.
    """
    return _arrays(root).omega[-1]


def optimal_coloring(root: Cotree) -> dict[int, int]:
    """Proper coloring with chromatic_number(root) colors, as vertex ->
    color: each vertex gets the sum, over the joins above it, of the clique
    numbers of the join's earlier children."""
    tree = _arrays(root)
    return _walk_down(tree, (tree.root,))[0]


def _walk_down(tree: _Tree, tops: tuple[int, ...]) -> tuple[dict[int, int], list[int]]:
    """optimal_coloring's colors and a maximum clique, left to right (every
    child of a join, the first widest child of a union), of the join of the
    subtrees at tops, in one walk down over tree.omega.  The clique's i-th
    vertex has color i."""
    n, kind, kids, omega = tree.n, tree.kind, tree.kids, tree.omega
    colors: dict[int, int] = {}
    clique: list[int] = []
    stack = []  # node, its color offset, whether on the clique
    base = 0
    for v in tops:
        stack.append((v, base, True))
        base += omega[v]
    while stack:
        v, base, on = stack.pop()
        if v < n:
            colors[v] = base
            if on:
                clique.append(v)
        elif kind[v] == JOIN:
            for c in kids[v]:
                stack.append((c, base, on))
                base += omega[c]
        else:
            widest = max(kids[v], key=omega.__getitem__) if on else -1
            stack.extend((c, base, c == widest) for c in kids[v])
    clique.reverse()  # the walk meets the leaves right to left
    return colors, clique


def max_clique_leaves(root: Cotree) -> tuple[int, ...]:
    """Vertices of one maximum clique, chosen deterministically."""
    tree = _arrays(root)
    return tuple(_walk_down(tree, (tree.root,))[1])


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
    return GraphClass(pg.name, *_witness(pg.tree, pg.name))


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
        self._tree: _Tree | None = None
        self.p4: tuple[int, int, int, int] | None = None
        if self.order is not None:
            self.name = THRESHOLD
            return
        try:
            self._tree, self.name = _classed_cotree(g)
        except NotCographError as exc:
            self.name, self.p4 = NOT_COGRAPH, exc.witness

    @property
    def tree(self) -> _Tree:
        """The cotree, built on first use; NotCographError if there is none."""
        if self._tree is None:
            if self.p4 is not None:
                raise NotCographError(self.p4)
            self._tree = _classed_cotree(self.g)[0]
        return self._tree

    @property
    def omega(self) -> int:
        """Clique number.  In a nonempty threshold graph the universal steps
        of the elimination and its last vertex form a maximum clique."""
        if self.order is not None:
            universals = sum(1 for _, tag in self.order.steps if tag == UNIVERSAL)
            return universals + min(self.g.n, 1)
        return self.tree.omega[-1]


def _witness(tree: _Tree, name: str) -> tuple[str, tuple[int, int, int, int]]:
    """The induced C4 of a cograph (name COGRAPH) or 2K2 of a trivially
    perfect graph that is not threshold, as (witness kind, witness).

    Kinds alternate, so a node's children that hold a non-edge (under a
    join) or an edge (under a union) are exactly its internal ones.  The
    first join, for a C4, or union, for a 2K2, in postorder with two
    internal children gives one from each: the first leaves of the first
    two children of the first node of the other kind in that child's
    postorder.  A C4 is listed in cycle order, a 2K2 edge by edge.
    """
    n, kinds, kids = tree.n, tree.kind, tree.kids
    kind = JOIN if name == COGRAPH else UNION
    for v in range(n, len(kinds)):
        if kinds[v] != kind:
            continue
        inner = [c for c in kids[v] if c >= n]
        if len(inner) < 2:
            continue
        ends = []
        for child in inner[:2]:
            first = next(x for x in _subtree(tree, child) if x >= n and kinds[x] != kind)
            ends += (_subtree(tree, x)[0] for x in kids[first][:2])  # first leaves
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
    tree = _arrays(root)
    keys = [b"L"] * tree.n
    for v in range(tree.n, len(tree.kind)):
        child_keys = sorted(map(keys.__getitem__, tree.kids[v]))
        keys.append(tree.kind[v].encode("ascii") + b"(" + b"".join(child_keys) + b")")
    return keys[-1]


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
    leaves: list[int] = []
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
        leaves.append(int(s[start:pos]))
        node: Cotree = Leaf(leaves[-1])
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
    # checked first: normalize gives every id up to the largest a slot
    if sorted(leaves) != list(range(len(leaves))):
        raise CotreeError("leaf ids must be a permutation of 0..n-1")
    return normalize(node)
