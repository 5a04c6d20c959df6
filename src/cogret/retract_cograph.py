"""General cograph machinery: homomorphism test, partitioned retract,
the cotree-pair retract solver and the front-door dispatcher.

Cographs are perfect, so a homomorphism between them exists exactly when
the source's chromatic number is at most the target's clique number.  The
partitioned solver prunes the host's cotree in one pass each way: folding
a pattern-free union child into a sibling at least as wide changes no
clique number, so each union decides which children stay on its own.

One cotree-pair solver serves both the trivially perfect route
(`tp_retract`, a class check in front of it) and the general route
(`fpt_retract`, exponential in |V(H)| only).  It labels every subtree
with an integer interned bottom-up from its kind and child labels, so
isomorphic subtrees share a label and decisions are memoized on label
pairs.  A pair is YES at once when the clique numbers agree and the
pattern is a clique, or when the labels are equal.  Otherwise union
levels match pattern components to host components, and join levels
give each host cocomponent a multiset of pattern cocomponents with the
same clique-number sum, trying isomorphic host cocomponents in
non-increasing order only.  Where both sides of a join have equally many
cocomponents each multiset is one cocomponent, and the search walks
class indices with the same decisions in the same order.  A connected
pattern at a union takes the first host component that retracts onto
it, as the matching would; other unions run the matching module's
private Hopcroft-Karp core on the edge list the solver builds.  Labels
interned during the search, for joins of pattern cocomponents, serve
only as memo keys: every sort key reads labels fixed at construction.

Every label also carries its vertex count and independence number (sums
over a union's children; at a join the count is the sum and the
independence number the maximum).  A retract has its host's clique
number and is an induced subgraph of it, since gamma is injective and
rho carries every non-edge of the copy back, so component matching never
decides a pair whose pattern has another clique number, more vertices or
a larger independence number than its host: such a pair can only be a
missing matching edge.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass

from .cotree import (
    COGRAPH,
    Internal,
    JOIN,
    Leaf,
    NOT_COGRAPH,
    THRESHOLD,
    UNION,
    Cotree,
    NotCographError,
    _NO_CLASS,
    _PreparedGraph,
    _postorder,
    _walk_down,
    build_cotree,
    clique_table,
    cotree_leaves,
    max_clique_leaves,
    optimal_coloring,
)
from .graph_core import (
    Graph,
    NoRetract,
    RetractCertificate,
    induced_subgraph,
    verify_retract_certificate,
)
from .matching import _hopcroft_karp
from .retract_threshold import NotThresholdError, _solve_threshold


# ---------------------------------------------------------------------------
# homomorphism existence (both sides cographs)


def hom_exists(g: Graph, h: Graph) -> tuple[bool, tuple[int, ...] | None]:
    """Homomorphism test via perfection: true iff chi(g) <= omega(h).

    On YES the witness composes an optimal coloring of g with an
    injection of the color classes into a maximum clique of h.
    Raises NotCographError if either input is not a cograph.
    """
    if g.n == 0:
        return True, ()
    coloring = optimal_coloring(build_cotree(g))
    if h.n == 0:
        return False, None  # chi(g) >= 1 > 0 = omega(h)
    clique = sorted(max_clique_leaves(build_cotree(h)))
    if max(coloring.values()) + 1 > len(clique):  # chi(g) > omega(h)
        return False, None
    return True, tuple(clique[coloring[v]] for v in range(g.n))


# ---------------------------------------------------------------------------
# partitioned case: the pattern is an induced subgraph of the host


@dataclass(frozen=True)
class PartitionedInstance:
    """Host graph plus the vertex subset inducing the pattern."""

    g: Graph
    hset: frozenset[int]

    def __post_init__(self):
        for v in self.hset:
            if not (0 <= v < self.g.n):
                raise ValueError(f"pattern vertex {v} out of range")


def partitioned_retract(inst: PartitionedInstance) -> RetractCertificate | NoRetract:
    """Decide a retraction onto an induced-subgraph pattern by cotree pruning.

    A child of a union that has no pattern leaves folds into a sibling of
    at least its clique number.  Such a fold changes no clique number, so
    one pass over the host's cotree decides what repeated folding keeps.
    At a union, every pattern-free child goes except the last one of the
    largest clique number, and that one stays only when its clique number
    exceeds every pattern-bearing child's.  Joins keep all their children.
    YES exactly when only pattern vertices stay; the certificate's
    co-retraction is the inclusion and the retraction colors each pruned
    branch onto a maximum clique of its widest pattern-bearing sibling,
    then follows that sibling's retraction.  Raises NotCographError (with
    a P4 witness) when the host is not a cograph.
    """
    g, hset = inst.g, inst.hset
    if not hset:
        if g.n == 0:
            return RetractCertificate(rho=(), gamma=())
        return NoRetract("empty pattern set")
    return _partitioned_on_cotree(g, build_cotree(g), hset)


def _partitioned_on_cotree(
    g: Graph, tree: Cotree, hset: frozenset[int]
) -> RetractCertificate | NoRetract:
    """partitioned_retract from g's cotree, for a nonempty pattern set.
    The pattern graph is built only to verify a YES."""
    folds, kept = _prune_plan(tree, hset)
    if kept:
        return NoRetract("pruning fixpoint keeps vertices outside the pattern", tuple(kept))
    # a fold's clique lies in its sibling, whose own folds come later in
    # the list, so walking the folds backwards finds the clique resolved
    resolve: dict[int, int] = {v: v for v in hset}
    for branch, clique in reversed(folds):
        if isinstance(branch, Leaf):
            resolve[branch.vertex] = resolve[clique[0]]
        else:
            resolve.update(_coloring_into(branch, [resolve[v] for v in clique]))
    gamma = tuple(sorted(hset))
    index = {v: i for i, v in enumerate(gamma)}
    cert = RetractCertificate(rho=tuple(index[resolve[v]] for v in range(g.n)), gamma=gamma)
    h, _ = induced_subgraph(g, hset)
    if not verify_retract_certificate(g, h, cert):
        raise AssertionError("partitioned solver produced an invalid certificate")
    return cert


def _prune_plan(
    tree: Cotree, hset: frozenset[int]
) -> tuple[list[tuple[Cotree, tuple[int, ...]]], list[int]]:
    """What repeated pruning of tree keeps, from its clique table and one
    pass up and one down.

    Returns the pruned branches, ancestors before descendants, each with a
    maximum clique of the widest kept sibling it folds into, and the
    sorted non-pattern vertices that are kept.
    """
    clique = clique_table(tree)

    def omega(node: Cotree) -> int:
        return len(clique[id(node)])

    has_h: dict[int, bool] = {}
    for node in _postorder(tree):
        if isinstance(node, Leaf):
            has_h[id(node)] = node.vertex in hset
        else:
            has_h[id(node)] = any(has_h[id(c)] for c in node.children)

    folds: list[tuple[Cotree, tuple[int, ...]]] = []
    kept: list[int] = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            if node.vertex not in hset:
                kept.append(node.vertex)
            continue
        if node.kind == JOIN:
            stack.extend(node.children)
            continue
        stay = [c for c in node.children if has_h[id(c)]]
        free = [c for c in node.children if not has_h[id(c)]]
        if free:
            last = max(reversed(free), key=omega)
            if all(omega(c) < omega(last) for c in stay):
                stay.append(last)
                free = [c for c in free if c is not last]
        # ties go to a pattern-bearing child, which comes first in stay
        target = clique[id(max(stay, key=omega))]
        folds.extend((c, target) for c in free)
        stack.extend(stay)
    kept.sort()
    return folds, kept


# ---------------------------------------------------------------------------
# the cotree-pair solver shared by the trivially perfect and general routes

# A decided pair is a NO reason code, or a YES plan: (host child, pattern
# children) pairs over both sides' children sorted by label.  The plan is
# empty when the clique or equal-label shortcut answered.
_Plan = tuple[tuple[int, tuple[int, ...]], ...]
_Counts = tuple[int, ...]  # a multiset of pattern cocomponents, counted per class
_LEAF = "L"


class _CotreePairs:
    """Retract decisions on (host subtree, pattern subtree) pairs.

    Every subtree gets an integer label interned bottom-up from its kind
    and its sorted child labels (Aho, Hopcroft and Ullman's tree
    isomorphism labelling), so equal labels mean isomorphic subgraphs.
    Decisions are memoized on label pairs; a join of some pattern
    cocomponents gets its label from theirs without building a subtree.
    """

    def __init__(self, tg: Cotree, th: Cotree):
        self.index: dict[tuple[str, tuple[int, ...]], int] = {}
        self.kind: list[str] = []
        self.kids: list[tuple[int, ...]] = []
        self.omega: list[int] = []  # clique number; a clique has omega == size
        self.size: list[int] = []  # vertex count
        self.alpha: list[int] = []  # independence number
        self.labels: dict[int, int] = {}  # id(node) -> label, both cotrees
        self.memo: dict[tuple[int, int], str | _Plan] = {}
        self.roots = (tg, th)  # keeps the labelled nodes, and their ids, alive
        index, labels = self.index, self.labels
        leaf = self.intern(_LEAF, ())  # label 0, as every postorder starts at a leaf
        for root in self.roots:
            for node in _postorder(root):
                if isinstance(node, Leaf):
                    labels[id(node)] = leaf
                    continue
                kind = node.kind
                kids = tuple(sorted([labels[id(c)] for c in node.children]))
                label = index.get((kind, kids))
                labels[id(node)] = self.intern(kind, kids) if label is None else label

    def label(self, node: Cotree) -> int:
        return self.labels[id(node)]

    def node_omega(self, node: Cotree) -> int:
        return self.omega[self.labels[id(node)]]

    def intern(self, kind: str, kids: tuple[int, ...]) -> int:
        """Label of a node of this kind over children with these sorted labels."""
        got = self.index.get((kind, kids))
        if got is not None:
            return got
        label = self.index[(kind, kids)] = len(self.kind)
        self.kind.append(kind)
        self.kids.append(kids)
        if kind == _LEAF:
            self.omega.append(1)
            self.size.append(1)
            self.alpha.append(1)
            return label
        omega, alpha = map(self.omega.__getitem__, kids), map(self.alpha.__getitem__, kids)
        self.size.append(sum(map(self.size.__getitem__, kids)))
        if kind == UNION:
            self.omega.append(max(omega))
            self.alpha.append(sum(alpha))
        else:
            self.omega.append(sum(omega))
            self.alpha.append(max(alpha))
        return label

    def joined(self, labels: list[int]) -> int:
        """Label of the join of pattern cocomponents with these labels."""
        if len(labels) == 1:
            return labels[0]
        return self.intern(JOIN, tuple(sorted(labels)))

    # -- decision ------------------------------------------------------------

    def decide(self, a: int, b: int) -> str | _Plan:
        """Does the pattern labelled b retract out of the host labelled a?"""
        key = (a, b)
        got = self.memo.get(key)
        if got is not None:
            return got
        if self.omega[a] != self.omega[b]:
            got = "clique-mismatch"
        elif self.omega[b] == self.size[b] or a == b:
            got = ()
        elif self.kind[a] == UNION:
            got = self._decide_components(a, b)
        elif self.kind[b] == UNION:
            got = "matching-deficit"  # no connected graph has a disconnected retract
        elif len(self.kids[b]) == len(self.kids[a]):
            got = self._decide_equal(a, b)
        else:
            got = self._decide_join(a, b)
        self.memo[key] = got
        return got

    def _decide_components(self, a: int, b: int) -> str | _Plan:
        """Each pattern component needs its own host component retracting
        onto it.  Equal clique numbers let every other host component map
        into a pattern component.

        A retract is an induced subgraph of its host with the same clique
        number, so a pair whose pattern has another clique number, more
        vertices or a larger independence number than its host is no edge
        of the matching and is not decided.  Only a pair's YES or NO counts
        here, so no reported reason changes.  A connected pattern is one
        component, and the matching would take the first host component it
        has an edge to, so host components are decided in order up to the
        first YES."""
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
        pairs = _hopcroft_karp(p, q, edges)
        if len(pairs) < q:
            return "matching-deficit"
        return tuple((i, (j,)) for i, j in pairs)

    def _decide_equal(self, a: int, b: int) -> str | _Plan:
        """_decide_join when host and pattern have equally many
        cocomponents, so each host cocomponent takes exactly one pattern
        cocomponent and a multiset is one class index.

        Hosts go in (omega, label) order.  Each but the last tries, in
        (omega, label) order, the classes of its own clique number that
        still have an item; an isomorphic successor starts at its
        predecessor's class, as the multisets there are non-increasing.
        The last host takes the item left, under the same bound.  This
        makes the decide calls of the multiset search in the same order, so
        the plan and the first NO reason are the same.
        """
        omega = self.omega
        gk, hk = self.kids[a], self.kids[b]  # both sorted by label
        last = len(gk) - 1
        # stable sorts on omega alone keep label order among equals
        order = sorted(range(last + 1), key=list(map(omega.__getitem__, gk)).__getitem__)
        hosts = list(map(gk.__getitem__, order))
        tally = dict.fromkeys(hk, 0)
        for y in hk:
            tally[y] += 1
        classes = sorted(tally, key=omega.__getitem__)
        weights = list(map(omega.__getitem__, classes))
        left = list(map(tally.__getitem__, classes))
        picks: list[int] = []  # class index taken by hosts[:len(picks)]
        k = 0  # the next class index hosts[len(picks)] tries
        first_no = None
        while True:
            i = len(picks)
            x = hosts[i]
            if i < last:
                w = omega[x]
                while k < len(weights) and (weights[k] < w or not left[k]):
                    k += 1
                found = k < len(weights) and weights[k] == w
            else:  # the one item left, if the bound allows it
                j = left.index(1)
                found = j >= k
                k = j
            if found:
                got = self.decide(x, classes[k])
                if isinstance(got, str):
                    first_no = first_no or got
                    k += 1
                    continue
                picks.append(k)
                if i == last:
                    break
                left[k] -= 1
                if hosts[i + 1] != x:
                    k = 0
                continue
            if not picks:
                return first_no or "universal-count"
            k = picks.pop()
            left[k] += 1
            k += 1
        pool: dict[int, list[int]] = {}
        for j, y in enumerate(hk):
            pool.setdefault(y, []).append(j)
        return tuple((i, (pool[classes[c]].pop(),)) for i, c in zip(order, picks))

    def _decide_join(self, a: int, b: int) -> str | _Plan:
        """Give each host cocomponent a nonempty multiset of pattern
        cocomponents whose clique numbers sum to its own, such that it
        retracts onto their join.

        Host cocomponents are taken in (omega, label) order.  Isomorphic
        ones are interchangeable, so their multisets are non-increasing,
        and the last one takes what is left.  On trivially perfect inputs
        this is forced: universal leaf to universal leaf, the rest to the
        non-leaf child.  A NO carries the reason of the first cocomponent
        pair that failed.  decide sends joins with equally many
        cocomponents on both sides to _decide_equal, which makes this
        search's decide calls without its count vectors; here the pattern
        has more cocomponents than the host, or fewer.
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

    # -- certificates ----------------------------------------------------------

    def certify(self, gn: Cotree, hn: Cotree, b: int, rho: dict, gamma: dict) -> None:
        """Add the maps of a YES pair to rho and gamma; hn has label b."""
        if isinstance(gn, Leaf):  # a single vertex retracts onto itself only
            assert isinstance(hn, Leaf)
            rho[gn.vertex] = hn.vertex
            gamma[hn.vertex] = gn.vertex
            return
        a = self.label(gn)
        if self.omega[b] == self.size[b]:
            self._clique_maps(gn, hn, rho, gamma)
            return
        if a == b:
            self._iso_maps(gn, hn, rho, gamma)
            return
        plan = self.memo[(a, b)]
        assert not isinstance(plan, str), "certify called on a NO pair"
        assert isinstance(gn, Internal)
        gkids = sorted(gn.children, key=self.label)
        if self.kind[a] == UNION and self.kind[b] != UNION:
            hkids, hlabels = [hn], [b]
        else:
            assert isinstance(hn, Internal)
            hkids = sorted(hn.children, key=self.label)
            hlabels = [self.label(c) for c in hkids]
        for i, js in plan:
            if len(js) == 1:
                sub: Cotree = hkids[js[0]]
            else:
                sub = Internal(JOIN, tuple(hkids[j] for j in js))
            self.certify(gkids[i], sub, self.joined([hlabels[j] for j in js]), rho, gamma)
        if len(plan) < len(gkids):  # host components left over at a union
            widest = max(range(len(hkids)), key=lambda j: self.omega[hlabels[j]])
            clique = sorted(_walk_down(hkids[widest], self.node_omega)[1])
            matched = {i for i, _ in plan}
            for i, comp in enumerate(gkids):
                if i not in matched:
                    colors = _walk_down(comp, self.node_omega)[0]
                    rho.update((v, clique[c]) for v, c in colors.items())

    def _clique_maps(self, gn: Cotree, hn: Cotree, rho: dict, gamma: dict) -> None:
        """Maps onto a clique pattern with the host's clique number: the
        color class of a maximum clique's i-th vertex goes to the pattern's."""
        colors, clique = _walk_down(gn, self.node_omega)
        clique.sort()
        h_sorted = sorted(cotree_leaves(hn))
        assert len(clique) == len(h_sorted)
        to_h = {colors[v]: y for v, y in zip(clique, h_sorted)}
        rho.update({v: to_h[c] for v, c in colors.items()})
        gamma.update(zip(h_sorted, clique))

    def _iso_maps(self, gn: Cotree, hn: Cotree, rho: dict, gamma: dict) -> None:
        """Isomorphism between equally labelled subtrees, and its inverse."""
        stack = [(gn, hn)]
        while stack:
            x, y = stack.pop()
            if isinstance(x, Leaf):
                assert isinstance(y, Leaf)
                rho[x.vertex] = y.vertex
                gamma[y.vertex] = x.vertex
            else:
                assert isinstance(y, Internal)
                stack.extend(
                    zip(
                        sorted(x.children, key=self.label),
                        sorted(y.children, key=self.label),
                    )
                )


def _coloring_into(gn: Cotree, clique: list[int]) -> dict[int, int]:
    """Edge-preserving map of gn's graph onto a clique of at least its
    chromatic number: an optimal coloring, color i to clique[i]."""
    return {v: clique[c] for v, c in optimal_coloring(gn).items()}


def cotree_pair_retract(
    g: Graph, h: Graph, tg: Cotree, th: Cotree
) -> RetractCertificate | NoRetract:
    """Decide whether h is a retract of g from their cotrees tg and th.

    YES answers carry a verified certificate.  NO answers name the failing
    condition: clique-mismatch (clique numbers differ), universal-count
    (a join level has fewer pattern cocomponents than host cocomponents,
    or none fit their clique numbers) or matching-deficit (a union level
    cannot give every pattern component its own host component).
    """
    solver = _CotreePairs(tg, th)
    b = solver.label(th)
    outcome = solver.decide(solver.label(tg), b)
    if isinstance(outcome, str):
        return NoRetract(outcome)
    rho: dict[int, int] = {}
    gamma: dict[int, int] = {}
    solver.certify(tg, th, b, rho, gamma)
    cert = RetractCertificate(
        rho=tuple(rho[v] for v in range(g.n)),
        gamma=tuple(gamma[y] for y in range(h.n)),
    )
    if not verify_retract_certificate(g, h, cert):
        raise AssertionError("cotree-pair solver produced an invalid certificate")
    return cert


def fpt_retract(g: Graph, h: Graph) -> RetractCertificate | NoRetract:
    """Retract decision for general cograph pairs, parameterized by |V(h)|.

    Runs the shared cotree-pair solver: join levels search multisets of
    pattern cocomponents for the host cocomponents, union levels run
    component matching, and everything is memoized on interned subtree
    labels.  Raises NotCographError on non-cograph input.
    """
    return _routed_retract(_PreparedGraph(g), _PreparedGraph(h), "fpt")[0]


# ---------------------------------------------------------------------------
# dispatcher


class NotTriviallyPerfectError(ValueError):
    """An input graph is not trivially perfect."""


def retract(g: Graph, h: Graph) -> tuple[RetractCertificate | NoRetract, str]:
    """Classify both inputs and dispatch to the right solver.

    Returns (result, route).  Raises NotCographError (with a P4 witness)
    when either input is not a cograph.  Each graph is prepared once:
    threshold graphs are recognized by their elimination order without a
    cotree, and the tp and fpt routes reuse the cotrees that
    classification built.
    """
    return _routed_retract(_PreparedGraph(g), _PreparedGraph(h), "auto")


def _routed_retract(
    pg: _PreparedGraph, ph: _PreparedGraph, route: str
) -> tuple[RetractCertificate | NoRetract, str]:
    """Decide whether ph's graph is a retract of pg's on route "auto",
    "threshold", "tp" or "fpt"; returns (result, route taken).

    Each graph, host first, must be in the route's class: threshold
    raises NotThresholdError, tp NotTriviallyPerfectError naming a P4 or
    C4, and fpt and auto NotCographError.  Every route but threshold
    refuses the empty graph with ValueError.  auto takes the fastest route
    whose class covers both graphs.  The threshold solver walks the two
    elimination orders and the others run on the two cotrees.
    """
    for p, what in ((pg, "host"), (ph, "pattern")):
        if route == "threshold":
            if p.name != THRESHOLD:
                raise NotThresholdError(f"{what} graph is not a threshold graph")
        elif p.g.n == 0:
            raise ValueError(_NO_CLASS)
        elif route == "tp" and p.name == NOT_COGRAPH:
            raise NotTriviallyPerfectError(f"{what} graph contains an induced P4 on {p.p4}")
        elif route == "tp" and p.name == COGRAPH:
            raise NotTriviallyPerfectError(f"{what} graph contains an induced C4")
        elif p.name == NOT_COGRAPH:
            raise NotCographError(p.p4)  # type: ignore[arg-type]
    if route == "auto":
        names = {pg.name, ph.name}
        route = "threshold" if names == {THRESHOLD} else "fpt" if COGRAPH in names else "tp"
    if route == "threshold":
        return _solve_threshold(pg.g, ph.g, pg.order, ph.order), route
    return cotree_pair_retract(pg.g, ph.g, pg.cotree, ph.cotree), route
