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
non-increasing order only.  One iterative search writes each multiset as
a nondecreasing run of class indices and tries the runs in lexicographic
order, with no recursion per class or per host.  A union runs the first
Hopcroft-Karp phase as it decides pairs: each host component takes the
first free pattern component that retracts out of it, so a pair whose
pattern component is already taken is never decided.  Only when that
phase leaves a pattern component free are the other pairs decided, and
then a free one with no partner at all is a deficit at once, before the
matching module's later phases run.  Labels interned during the search,
for joins of pattern cocomponents, serve only as memo keys: every sort
key reads labels fixed at construction.

Both cotrees come as arrays (cotree._Tree): one loop per cotree interns
its labels in left-to-right postorder, host first, and gives every node
its clique number.  A pattern side that joins several cocomponents has
no node of its own, so certify takes it as a tuple of node ids.  Neither
walk recurses: decide runs the union and join steps, generators yielding
the pairs they need decided, off one stack, and certify works off a
stack of pairs, on which a pair with equal labels puts its children,
paired in label order, so the labels of each child pair are equal too.

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

from collections.abc import Generator
from dataclasses import dataclass

from .cotree import (
    COGRAPH,
    JOIN,
    NOT_COGRAPH,
    THRESHOLD,
    UNION,
    NotCographError,
    _LEAF,
    _NO_CLASS,
    _PreparedGraph,
    _Tree,
    _classed_cotree,
    _omegas,
    _walk_down,
)
from .graph_core import (
    Graph,
    NoRetract,
    RetractCertificate,
    induced_subgraph,
    verify_retract_certificate,
)
from .matching import _INF, _augment
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
    tg = _classed_cotree(g)[0]
    coloring = _walk_down(tg, (tg.root,))[0]
    if h.n == 0:
        return False, None  # chi(g) >= 1 > 0 = omega(h)
    th = _classed_cotree(h)[0]
    clique = sorted(_walk_down(th, (th.root,))[1])
    if tg.omega[-1] > len(clique):  # chi(g) > omega(h)
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
    return _partitioned_on_cotree(g, _classed_cotree(g)[0] if hset else None, hset)[0]


def _partitioned_on_cotree(
    g: Graph, tree: _Tree | None, hset: frozenset[int]
) -> tuple[RetractCertificate | NoRetract, int]:
    """partitioned_retract from g's cotree, which is read only when the
    pattern set is nonempty, with the pattern's clique number.  The
    pattern graph is built only to verify a YES."""
    if not hset:
        if g.n == 0:
            return RetractCertificate(rho=(), gamma=()), 0
        return NoRetract("empty pattern set"), 0
    inside = _omegas(tree, hset)
    folds, kept = _prune_plan(tree, inside)
    if kept:
        reason = "pruning fixpoint keeps vertices outside the pattern"
        return NoRetract(reason, tuple(kept)), inside[-1]
    # a fold's clique lies in its sibling, whose own folds come later in
    # the list, so walking the folds backwards finds the clique resolved;
    # the branch's color i goes where the clique's i-th vertex went
    resolve: dict[int, int] = {v: v for v in hset}
    for branches, target in reversed(folds):
        clique = [resolve[v] for v in _walk_down(tree, (target,))[1]]
        for branch in branches:
            resolve.update((v, clique[c]) for v, c in _walk_down(tree, (branch,))[0].items())
    gamma = tuple(sorted(hset))
    index = {v: i for i, v in enumerate(gamma)}
    cert = RetractCertificate(rho=tuple(index[resolve[v]] for v in range(g.n)), gamma=gamma)
    h, _ = induced_subgraph(g, hset)
    if not verify_retract_certificate(g, h, cert):
        raise AssertionError("partitioned solver produced an invalid certificate")
    return cert, inside[-1]


def _prune_plan(tree: _Tree, inside: list[int]) -> tuple[list[tuple[list[int], int]], list[int]]:
    """What repeated pruning of tree keeps, from its clique numbers, the
    pattern's clique numbers in every subtree (inside; a vertex is in the
    pattern iff its own is 1) and one pass down.

    Returns the branches each union prunes, unions before the unions
    below them, with the widest kept sibling they fold into, and the
    sorted non-pattern vertices that are kept.
    """
    n, kind, kids = tree.n, tree.kind, tree.kids
    omega = tree.omega  # and inside[v] > 0: v's subtree meets the pattern
    folds: list[tuple[list[int], int]] = []
    kept: list[int] = []
    stack = [tree.root]
    while stack:
        v = stack.pop()
        if v < n:
            if not inside[v]:
                kept.append(v)
            continue
        if kind[v] == JOIN:
            stack.extend(kids[v])
            continue
        stay = [c for c in kids[v] if inside[c]]
        free = [c for c in kids[v] if not inside[c]]
        if free:
            last = max(reversed(free), key=omega.__getitem__)
            if all(omega[c] < omega[last] for c in stay):
                stay.append(last)
                free.remove(last)
        if free:  # ties go to a pattern-bearing child, which comes first in stay
            folds.append((free, max(stay, key=omega.__getitem__)))
        stack.extend(stay)
    kept.sort()
    return folds, kept


# ---------------------------------------------------------------------------
# the cotree-pair solver shared by the trivially perfect and general routes

# A decided pair is a NO reason code, or a YES plan: (host child, pattern
# children) pairs over both sides' children sorted by label.  The plan is
# empty when the clique or equal-label shortcut answered.  A step, at a
# union or a join, yields the pairs it needs decided and returns its own.
_Plan = tuple[tuple[int, tuple[int, ...]], ...]
_Step = Generator[tuple[int, int], "str | _Plan", "str | _Plan"]


class _CotreePairs:
    """Retract decisions on (host subtree, pattern subtree) pairs.

    Every subtree gets an integer label interned bottom-up from its kind
    and its sorted child labels (Aho, Hopcroft and Ullman's tree
    isomorphism labelling), so equal labels mean isomorphic subgraphs.
    Decisions are memoized on label pairs; a join of some pattern
    cocomponents gets its label from theirs without building a subtree.
    """

    def __init__(self, tg: _Tree, th: _Tree):
        self.index: dict[tuple[str, tuple[int, ...]], int] = {}
        self.kind: list[str] = []
        self.kids: list[tuple[int, ...]] = []
        self.omega: list[int] = []  # clique number; a clique has omega == size
        self.size: list[int] = []  # vertex count
        self.alpha: list[int] = []  # independence number
        self.memo: dict[tuple[int, int], str | _Plan] = {}
        self.intern(_LEAF, ())  # label 0, as every postorder starts at a leaf
        self.g, self.h = tg, th
        self.glab, self.hlab = self._label(self.g), self._label(self.h)  # per node

    def _label(self, tree: _Tree) -> list[int]:
        """Label every node of tree, interning in node order (left-to-right
        postorder), and set the tree's clique numbers from the labels."""
        index, kind, kids = self.index, tree.kind, tree.kids
        labels = [0] * len(kind)  # every leaf has label 0
        for v in range(tree.n, len(kind)):
            key = (kind[v], tuple(sorted(map(labels.__getitem__, kids[v]))))
            got = index.get(key)
            labels[v] = self.intern(*key) if got is None else got
        tree.omega = list(map(self.omega.__getitem__, labels))
        return labels

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
        """Does the pattern labelled b retract out of the host labelled a?
        One loop sends each open step, kept on a stack, the decisions of
        the pairs it yields; memo hits and the shortcut cases make no step."""
        memo, omega, size, kind = self.memo, self.omega, self.size, self.kind
        steps: list = []  # (step, host label, pattern label), innermost last
        while True:
            got = memo.get((a, b))
            if got is None:
                if omega[a] != omega[b]:
                    got = memo[a, b] = "clique-mismatch"
                elif omega[b] == size[b] or a == b:
                    got = memo[a, b] = ()
                elif kind[a] == UNION:
                    steps.append((self._decide_components(a, b), a, b))
                elif kind[b] == UNION:  # no connected graph has a disconnected retract
                    got = memo[a, b] = "matching-deficit"
                else:
                    steps.append((self._decide_join(a, b), a, b))
            while steps:  # got goes to the innermost step; None starts a new one
                step, a, b = steps[-1]
                try:
                    a, b = step.send(got)
                    break
                except StopIteration as done:
                    steps.pop()
                    got = memo[a, b] = done.value
            else:
                return got

    def _decide_components(self, a: int, b: int) -> _Step:
        """Each pattern component needs its own host component retracting
        onto it.  Equal clique numbers let every other host component map
        into a pattern component.

        A retract is an induced subgraph of its host with the same clique
        number, so a pair whose pattern has another clique number, more
        vertices or a larger independence number than its host is no edge
        of the matching and is not decided.  Only a pair's YES or NO counts
        here, so no reported reason changes.

        The first Hopcroft-Karp phase runs as the pairs are decided: each
        host component in turn takes its first free pattern component that
        retracts out of it, so only pairs whose pattern side is still free
        are decided, and the phase stops once every pattern component is
        taken.  Should it fall short, a free pattern component that no
        host component retracts onto is a deficit at once; otherwise every
        pair is decided and the later phases augment the matching."""
        gcomps = self.kids[a]
        hcomps = self.kids[b] if self.kind[b] == UNION else (b,)
        p, q = len(gcomps), len(hcomps)
        if q > p:
            return "matching-deficit"
        omega, size, alpha = self.omega, self.size, self.alpha
        pair_left, pair_right = [_INF] * p, [_INF] * q
        matched = 0
        for i in range(p):
            x = gcomps[i]
            for j in range(q):
                y = hcomps[j]
                if (
                    pair_right[j] == _INF
                    and omega[y] == omega[x]
                    and size[y] <= size[x]
                    and alpha[y] <= alpha[x]
                    and not isinstance((yield x, y), str)
                ):
                    pair_left[i], pair_right[j] = j, i
                    matched += 1
                    break
            if matched == q:
                break
        if matched < q:  # the first phase fell short
            adj: list[list[int]] = [[] for _ in range(p)]
            for j in sorted(range(q), key=pair_right.__getitem__):  # free ones first
                y = hcomps[j]
                seen = pair_right[j] != _INF
                for i in range(p):
                    x = gcomps[i]
                    if (
                        omega[y] == omega[x]
                        and size[y] <= size[x]
                        and alpha[y] <= alpha[x]
                        and not isinstance((yield x, y), str)
                    ):
                        adj[i].append(j)
                        seen = True
                if not seen:
                    return "matching-deficit"
            for row in adj:
                row.sort()
            _augment(adj, pair_left, pair_right)
            if _INF in pair_right:
                return "matching-deficit"
        return tuple((i, (pair_left[i],)) for i in range(p) if pair_left[i] != _INF)

    def _decide_join(self, a: int, b: int) -> _Step:
        """Give each host cocomponent a nonempty multiset of pattern
        cocomponents whose clique numbers sum to its own, such that it
        retracts onto their join.

        Host cocomponents are taken in (omega, label) order.  Isomorphic
        ones are interchangeable, so their multisets are non-increasing,
        and the last one takes what is left.  On trivially perfect inputs
        this is forced: universal leaf to universal leaf, the rest to the
        non-leaf child.  A NO carries the reason of the first cocomponent
        pair that failed.

        One depth-first search writes each multiset as a nondecreasing run
        of class indices, classes in (omega, label) order, and tries the
        runs of a host in lexicographic order: the count vectors, largest
        first.  No run is a prefix of another of the same clique-number
        sum, and a run is at least its isomorphic predecessor's exactly
        when its count vector is at most that one's.  Each host but the
        last leaves an item for every later host.  An item is taken only
        if it completes the run, or leaves at least its own clique number
        to fill with room for another item: later items are no lighter.
        With equally many cocomponents on both sides each run is one class
        index, of the host's own clique number.
        """
        omega = self.omega
        gk, hk = self.kids[a], self.kids[b]  # both sorted by label
        p, q = len(gk), len(hk)
        if q < p:
            return "universal-count"
        last, extra = p - 1, q - p  # extra: items beyond one per host
        # stable sorts on omega alone keep label order among equals
        order = sorted(range(p), key=list(map(omega.__getitem__, gk)).__getitem__)
        hosts = list(map(gk.__getitem__, order))
        tally = dict.fromkeys(hk, 0)
        for y in hk:
            tally[y] += 1
        classes = sorted(tally, key=omega.__getitem__)
        weights = list(map(omega.__getitem__, classes))
        left = list(map(tally.__getitem__, classes))
        top = len(classes)
        picks: list[int] = []  # the runs of the hosts so far, one after another
        starts = [0]  # hosts[i]'s run begins at picks[starts[i]]
        need = omega[hosts[0]]  # clique number the current run still lacks
        k = 0  # the next class index to try at picks[len(picks)]
        lag = 0  # while the run copies its isomorphic predecessor's: that run's length
        first_no = None
        while True:
            i = len(starts) - 1
            x = hosts[i]
            y = -1  # the label of a complete run for x to decide, if there is one
            if i < last:
                while k < top and weights[k] <= need:
                    w = weights[k]
                    # an item that does not complete the run must leave room for another
                    if left[k] and (w == need or need >= 2 * w and len(picks) - i < extra):
                        break
                    k += 1
                else:
                    w = 0
                if w:
                    if lag and k != picks[-lag]:
                        lag = 0
                    picks.append(k)
                    left[k] -= 1
                    need -= w
                    if need:
                        if lag:
                            k = picks[-lag]
                        continue
                    start = starts[i]
                    if len(picks) == start + 1:
                        y = classes[k]
                    else:
                        y = self.joined([classes[c] for c in picks[start:]])
            elif len(picks) == q - 1:  # the last host takes what is left, if it may
                j = left.index(1)
                if j >= k:  # k is the isomorphic predecessor's first class, or 0
                    y = classes[j]
            else:
                run = [c for c in range(top) for _ in range(left[c])]
                if not lag or run >= picks[-lag:]:
                    y = self.joined([classes[c] for c in run])
            if y >= 0:
                got = yield x, y
                if not isinstance(got, str):
                    if i == last:
                        break
                    starts.append(len(picks))
                    need = omega[hosts[i + 1]]
                    lag = len(picks) - starts[i] if hosts[i + 1] == x else 0
                    k = picks[-lag] if lag else 0
                    continue
                first_no = first_no or got
            if len(picks) == starts[-1]:  # back to the previous host's run
                if i == 0:
                    return first_no or "universal-count"
                starts.pop()
                need = 0  # that run was complete
            c = picks.pop()
            left[c] += 1
            need += weights[c]
            k = c + 1
            lag = 0  # every run tried from here on passes c, and so the predecessor's
        pool: dict[int, list[int]] = {}
        for j, y in enumerate(hk):
            pool.setdefault(y, []).append(j)
        picks += [c for c in range(top) for _ in range(left[c])]  # the last host's run
        starts.append(len(picks))
        taken = [pool[classes[c]].pop() for c in picks]
        return tuple([(i, tuple(taken[s:e])) for i, s, e in zip(order, starts, starts[1:])])

    # -- certificates ----------------------------------------------------------

    def certify(self, x: int, ys: tuple[int, ...], b: int, rho: dict, gamma: dict) -> None:
        """Add the maps of a YES pair to rho and gamma: host node x and the
        pattern side ys, the join of these pattern nodes, with label b.

        One loop over a stack of such pairs, each plan's pairs pushed in
        its place, so no cotree depth can exhaust the recursion limit.  A
        pair with equal labels has no plan: its children, sorted by label
        on both sides, pair up one to one with equal labels and are pushed
        instead.  The pairs on the stack have disjoint sides, so every
        vertex is written once."""
        g, h, glab, hlab, omega = self.g, self.h, self.glab, self.hlab, self.omega
        n, kind, size, hkey = g.n, self.kind, self.size, hlab.__getitem__
        tasks = [(x, ys, b)]
        while tasks:
            x, ys, b = tasks.pop()
            if x < n:  # a single vertex retracts onto itself only
                (y,) = ys
                rho[x], gamma[y] = y, x
                continue
            a = glab[x]
            # equally labelled single nodes are walked down even as cliques:
            # both builders list a join's leaves in vertex order, so the walk
            # gives _clique_maps' maps at less cost.  A pattern side of
            # several nodes comes in plan order, so it keeps _clique_maps.
            if omega[b] == size[b] and (a != b or len(ys) > 1):
                self._clique_maps(x, ys, rho, gamma)
                continue
            gkids = sorted(g.kids[x], key=glab.__getitem__)
            if kind[a] == UNION and kind[b] != UNION:
                hkids, hlabels = [ys], [b]
            else:
                hk = sorted(h.kids[ys[0]] if len(ys) == 1 else ys, key=hkey)
                if a == b:  # isomorphic: the children pair up in label order
                    tasks.extend(zip(gkids, zip(hk), map(hkey, hk)))
                    continue
                hkids, hlabels = [(y,) for y in hk], [hlab[y] for y in hk]
            plan = self.memo[(a, b)]
            assert not isinstance(plan, str), "certify called on a NO pair"
            for i, js in plan:
                sub = tuple(y for j in js for y in hkids[j])
                tasks.append((gkids[i], sub, self.joined([hlabels[j] for j in js])))
            if len(plan) < len(gkids):  # host components left over at a union
                widest = max(range(len(hkids)), key=lambda j: omega[hlabels[j]])
                clique = sorted(_walk_down(h, hkids[widest])[1])
                matched = {i for i, _ in plan}
                for i, comp in enumerate(gkids):
                    if i not in matched:
                        rho.update((v, clique[c]) for v, c in _walk_down(g, (comp,))[0].items())

    def _clique_maps(self, x: int, ys: tuple[int, ...], rho: dict, gamma: dict) -> None:
        """Maps onto a clique pattern with the host's clique number: the
        color class of a maximum clique's i-th vertex goes to the pattern's."""
        colors, clique = _walk_down(self.g, (x,))
        clique.sort()
        h_sorted = sorted(_walk_down(self.h, ys)[1])  # all of a clique
        assert len(clique) == len(h_sorted)
        to_h = {colors[v]: y for v, y in zip(clique, h_sorted)}
        rho.update({v: to_h[c] for v, c in colors.items()})
        gamma.update(zip(h_sorted, clique))


def cotree_pair_retract(
    g: Graph, h: Graph, tg: _Tree, th: _Tree
) -> RetractCertificate | NoRetract:
    """Decide whether h is a retract of g from their cotrees tg and th.

    YES answers carry a verified certificate.  NO answers name the failing
    condition: clique-mismatch (clique numbers differ), universal-count
    (a join level has fewer pattern cocomponents than host cocomponents,
    or none fit their clique numbers) or matching-deficit (a union level
    cannot give every pattern component its own host component).
    """
    solver = _CotreePairs(tg, th)
    b = solver.hlab[-1]
    outcome = solver.decide(solver.glab[-1], b)
    if isinstance(outcome, str):
        return NoRetract(outcome)
    rho: dict[int, int] = {}
    gamma: dict[int, int] = {}
    solver.certify(solver.g.root, (solver.h.root,), b, rho, gamma)
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
    return cotree_pair_retract(pg.g, ph.g, pg.tree, ph.tree), route
