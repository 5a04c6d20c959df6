"""Answer digests: every certificate, NO reason and NO detail of the
deterministic solvers over fixed instance families, hashed, so a rewrite
that changes any answer fails here even where the answer stays valid."""

from __future__ import annotations

import hashlib
import random

from itertools import chain, combinations

from cogret import retract_cograph
from cogret.cotree import (
    JOIN,
    UNION,
    Internal,
    Leaf,
    NotCographError,
    _arrays,
    build_cotree,
    classify,
    cotree_to_graph,
    format_cotree,
    max_clique_leaves,
)
from cogret.graph_core import Graph, NoRetract, induced_subgraph, random_cograph, relabel
from cogret.reduction import ThreePartitionInstance, encode
from cogret.retract_cograph import PartitionedInstance, partitioned_retract, retract
from cogret.retract_threshold import UNIVERSAL, threshold_elimination, threshold_retract

from tests.helpers import (
    E,
    EagerCotreePairs,
    K,
    MultisetCotreePairs,
    all_cographs,
    all_threshold_graphs,
    graph_join,
    graph_union,
    logged,
    random_cotree,
    random_forest_graph,
    random_graph,
    random_omega_preserving_extension,
    random_threshold_graph,
    random_tp_graph,
    solve_on,
    sparse_random_threshold_graph,
)


def digest(answers) -> str:
    h = hashlib.sha256()
    for answer in answers:
        h.update(repr(answer).encode())
        h.update(b"\n")
    return h.hexdigest()


def partitioned_answers():
    """Every cograph with n <= 6 against every nonempty pattern set."""
    for n in range(1, 7):
        for g in all_cographs(n):
            for mask in range(1, 1 << n):
                hset = frozenset(v for v in range(n) if mask >> v & 1)
                yield partitioned_retract(PartitionedInstance(g, hset))


def seeded_threshold_pairs(count: int):
    """Threshold hosts with log-uniform n up to 400 and relabelled ids.
    Each faces either another random threshold graph or the subgraph
    induced by its universal steps and some of its isolated ones, which
    is threshold too and often a retract."""
    rng = random.Random("threshold-digest")
    for i in range(count):
        n = int(400 ** rng.random())
        make = random_threshold_graph if i % 2 else sparse_random_threshold_graph
        g = make(n, rng.randrange(10**6))
        perm = list(range(n))
        rng.shuffle(perm)
        g = relabel(g, perm)
        if i % 3 == 0:
            h = random_threshold_graph(rng.randint(1, 60), rng.randrange(10**6))
        else:
            keep = [v for v, tag in threshold_elimination(g).steps if tag == UNIVERSAL]
            keep += [v for v in range(n) if rng.random() < 0.3]
            h, _ = induced_subgraph(g, keep or [0])
        yield g, h


def threshold_answers():
    graphs_g = [g for n in range(1, 8) for g in all_threshold_graphs(n)]
    graphs_h = [h for n in range(1, 7) for h in all_threshold_graphs(n)]
    for g in graphs_g:
        for h in graphs_h:
            yield threshold_retract(g, h)
    for g, h in seeded_threshold_pairs(600):
        yield threshold_retract(g, h)


def seeded_cotree_pairs(count: int):
    """Hosts grown from a random trivially perfect graph or cograph by one
    to three omega-preserving extensions, with shuffled ids, so most pairs
    are YES.  Every fourth pattern is a random induced subgraph instead."""
    rng = random.Random("cotree-pair-digest")
    for i in range(count):
        make = random_tp_graph if i % 2 else random_cograph
        h = make(rng.randint(2, 54), rng.randrange(10**6))
        g = h
        for _ in range(rng.randint(1, 3)):
            g = random_omega_preserving_extension(g, rng.randrange(10**6)) or g
        perm = list(range(g.n))
        rng.shuffle(perm)
        g = relabel(g, perm)
        if i % 4 == 0:
            h, _ = induced_subgraph(g, [v for v in range(g.n) if rng.random() < 0.7] or [0])
        yield g, h


def cotree_pair_answers():
    """retract() on every cograph pair with n(G) <= 6 and n(H) <= 5, again
    with the host's ids shuffled, then on the seeded pairs: the tp and fpt
    routes, with the threshold route where both graphs are threshold."""
    rng = random.Random("cotree-pair-relabel")
    graphs_g = [g for n in range(1, 7) for g in all_cographs(n)]
    graphs_h = [h for n in range(1, 6) for h in all_cographs(n)]
    for g in graphs_g:
        for h in graphs_h:
            yield retract(g, h)
    for g in graphs_g:
        perm = list(range(g.n))
        rng.shuffle(perm)
        g = relabel(g, perm)
        for h in graphs_h:
            yield retract(g, h)
    for g, h in seeded_cotree_pairs(400):
        yield retract(g, h)


def seeded_classify_graphs(count: int):
    """Trivially perfect graphs and cographs with n from 8 to 200 and
    shuffled ids, then half as many random graphs, nearly all with an
    induced P4."""
    rng = random.Random("classify-digest")
    for i in range(count):
        make = random_tp_graph if i % 2 else random_cograph
        g = make(rng.randint(8, 200), rng.randrange(10**6))
        perm = list(range(g.n))
        rng.shuffle(perm)
        yield relabel(g, perm)
    for _ in range(count // 2):
        yield random_graph(rng.randint(4, 30), rng.randrange(10**6))


def classify_answers():
    """classify's name, witness kind and witness on every cograph with
    n <= 7, then on the seeded graphs."""
    graphs = [g for n in range(1, 8) for g in all_cographs(n)]
    for g in graphs + list(seeded_classify_graphs(200)):
        cls = classify(g)
        yield cls.name, cls.witness_kind, cls.witness


def builder_graphs():
    """Every graph with 1 to 5 vertices; random cographs with n up to 120;
    trivially perfect forests with n 100 to 1000, as the benchmark's
    trivially perfect pairs have; and 2K2 with 1000 vertices added
    alternately universal and isolated."""
    for n in range(1, 6):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            yield Graph(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
    for n in range(1, 121):
        for seed in range(3):
            yield random_cograph(n, seed)
    rng = random.Random("builder-digest")
    for i in range(40):
        yield random_forest_graph(rng.randint(100, 1000), i, depth=rng.choice((10, 40)))
    node = Internal(UNION, (Internal(JOIN, (Leaf(0), Leaf(1))), Internal(JOIN, (Leaf(2), Leaf(3)))))
    for i in range(1000):
        node = Internal(UNION if i % 2 else JOIN, (Leaf(4 + i), node))
    yield cotree_to_graph(node)


def builder_answers():
    """build_cotree's tree as text, or the P4 witness it raises."""
    for g in builder_graphs():
        try:
            yield format_cotree(build_cotree(g))
        except NotCographError as exc:
            yield "P4", exc.witness


def test_partitioned_answers_are_pinned():
    answers = list(partitioned_answers())
    assert len(answers) == 5087
    assert digest(answers) == PARTITIONED_DIGEST


def test_threshold_answers_are_pinned():
    answers = list(threshold_answers())
    assert len(answers) == 127 * 63 + 600
    assert digest(answers) == THRESHOLD_DIGEST


def test_cotree_pair_answers_are_pinned():
    answers = list(cotree_pair_answers())
    assert len(answers) == 2 * 107 * 41 + 400
    assert digest(answers) == COTREE_PAIR_DIGEST


def test_multiset_search_gives_the_pinned_cotree_pair_answers(monkeypatch):
    # the reference multiset search must give the pinned answers too
    joins = [0]
    multiset = MultisetCotreePairs._decide_join

    def counted(self, a, b):
        joins[0] += 1
        return multiset(self, a, b)

    monkeypatch.setattr(MultisetCotreePairs, "_decide_join", counted)
    monkeypatch.setattr(retract_cograph, "_CotreePairs", MultisetCotreePairs)
    assert digest(cotree_pair_answers()) == COTREE_PAIR_DIGEST
    assert joins[0] > 1000


def test_classify_answers_are_pinned():
    answers = list(classify_answers())
    assert len(answers) == 287 + 300
    assert digest(answers) == CLASSIFY_DIGEST


def test_builder_answers_are_pinned():
    answers = list(builder_answers())
    assert len(answers) == 1 + 2 + 8 + 64 + 1024 + 360 + 40 + 1
    assert sum(isinstance(a, tuple) for a in answers) > 500
    assert digest(answers) == BUILDER_DIGEST


def dense_cotree_pairs():
    """random_cotree hosts with n from 20 to 80 against one maximum clique
    plus about 60% of the other vertices: joins where the two sides often
    have unequally many cocomponents, so parts of several items."""
    rng = random.Random("dense-join")
    for n in range(20, 81, 10):
        for seed in range(24):
            g = cotree_to_graph(random_cotree(n, seed))
            keep = set(max_clique_leaves(build_cotree(g)))
            keep |= {v for v in range(g.n) if rng.random() < 0.6}
            yield build_cotree(g), build_cotree(induced_subgraph(g, keep)[0])


def encoded_pairs():
    """encode() of YES and NO 3-partition instances with m = 2 and 3."""
    for m, B, items in (
        (2, 16, (5, 5, 5, 5, 6, 6)),
        (2, 16, (5, 5, 5, 5, 5, 7)),
        (3, 13, (4, 4, 4, 5, 5, 5, 4, 4, 4)),
        (3, 13, (4, 4, 4, 5, 4, 4, 6, 4, 4)),
        (3, 19, (5, 5, 5, 7, 6, 7, 7, 9, 6)),
        (3, 19, (6, 6, 5, 6, 7, 6, 6, 9, 6)),
        (3, 22, (8, 7, 6, 6, 8, 9, 10, 6, 6)),
        (3, 22, (7, 7, 7, 7, 10, 6, 7, 9, 6)),
    ):
        pair = encode(ThreePartitionInstance(m, B, items))
        yield pair.g, pair.h


def crowded_join_pairs():
    """Joins where a part of its host's clique number could take the items
    a later host needs: J(2K2, 2K2, 2K2) against J(2K1, 2K1, K4 + K1) and
    against J(2K1, 2K1, 2K1, K3 + K1)."""
    two_k2 = graph_union(K(2), K(2))
    host = graph_join(graph_join(two_k2, two_k2), two_k2)
    for rest in (graph_union(K(4), K(1)), graph_join(E(2), graph_union(K(3), K(1)))):
        yield build_cotree(host), build_cotree(graph_join(graph_join(E(2), E(2)), rest))


def test_join_search_makes_the_multiset_search_calls():
    # the same decide calls in the same order, so the same memo and the
    # same labels interned for joined pattern parts
    trees_g = [build_cotree(g) for n in range(1, 8) for g in all_cographs(n)]
    trees_h = [build_cotree(h) for n in range(1, 6) for h in all_cographs(n)]
    small = ((tg, th) for tg in trees_g for th in trees_h)
    seeded = ((build_cotree(g), build_cotree(h)) for g, h in seeded_cotree_pairs(1000))
    calls = 0
    pairs = chain(small, seeded, dense_cotree_pairs(), encoded_pairs(), crowded_join_pairs())
    for tg, th in pairs:
        runs = []
        for solver_class in (retract_cograph._CotreePairs, MultisetCotreePairs):
            solver = logged(solver_class)(_arrays(tg), _arrays(th))
            solver.decide(solver.glab[-1], solver.hlab[-1])
            runs.append((solver.calls, list(solver.memo.items()), solver.kids))
        assert runs[0] == runs[1]
        calls += len(runs[0][0])
    assert calls > 100000


def forest_pairs():
    """random_forest_graph patterns with n from 100 to 400 in hosts grown
    by one to three omega-preserving extensions with shuffled ids, which
    are YES, then each pair the other way round, which is NO."""
    rng = random.Random("forest-pairs")
    for n in range(100, 401, 100):
        for seed in range(3):
            h = random_forest_graph(n, seed)
            g = h
            for _ in range(rng.randint(1, 3)):
                g = random_omega_preserving_extension(g, rng.randrange(10**6)) or g
            perm = list(range(g.n))
            rng.shuffle(perm)
            yield relabel(g, perm), h
            yield h, g


def _canonical_memo(solver) -> dict:
    """solver.memo with each label interned during the search, for a join
    of pattern cocomponents, keyed by its kind and child labels, which
    were all fixed at construction."""
    fixed = max(solver.glab[-1], solver.hlab[-1])

    def canon(label):
        return label if label <= fixed else (solver.kind[label], solver.kids[label])

    return {(canon(a), canon(b)): got for (a, b), got in solver.memo.items()}


def test_lazy_union_step_agrees_with_the_eager_one():
    # the union step decides only the pairs its matching reads; the eager
    # reference decides every pair that may be an edge first
    graphs_g = [g for n in range(1, 8) for g in all_cographs(n)]
    graphs_h = [h for n in range(1, 6) for h in all_cographs(n)]
    small = ((g, h) for g in graphs_g for h in graphs_h)
    trees = chain(dense_cotree_pairs(), encoded_pairs())
    as_graphs = ((cotree_to_graph(tg), cotree_to_graph(th)) for tg, th in trees)
    pairs = chain(small, seeded_cotree_pairs(400), as_graphs)
    outcomes = set()

    def check(g, h):
        tg, th = _arrays(build_cotree(g)), _arrays(build_cotree(h))
        lazy, solver = solve_on(logged(retract_cograph._CotreePairs), g, h, tg, th)
        eager, reference = solve_on(logged(EagerCotreePairs), g, h, tg, th)
        assert lazy == eager
        memo = _canonical_memo(reference)
        assert all(memo[key] == got for key, got in _canonical_memo(solver).items())
        outcomes.add(getattr(lazy, "reason", "YES"))
        return lazy, solver, reference

    for g, h in pairs:
        check(g, h)
    for i, (g, h) in enumerate(forest_pairs()):
        lazy, solver, reference = check(g, h)
        if i % 2 == 0:  # the saving: fewer pairs decided, memo hits aside
            assert not isinstance(lazy, NoRetract)
            assert len(solver.memo) < len(reference.memo)
    assert outcomes == {"YES", "clique-mismatch", "universal-count", "matching-deficit"}


PARTITIONED_DIGEST = "d5d5088c45e588413f48fce9d86596f705068fd2f41dbdf9ee8246f94f740b6c"
THRESHOLD_DIGEST = "97dd91c0d985b7c5da8b70e4dd9bfaeaace27306e4dc8180dfe24bf61aa6e3cc"
COTREE_PAIR_DIGEST = "3b72f09628fa9d9a9aa43130b42a2aacb36129f76dcfb5a8f885170ae3996e05"
CLASSIFY_DIGEST = "9ec6b64e8f4a70c91c86ea06533d4ed93806db28f67bf088c32201a5f82c1496"
BUILDER_DIGEST = "55eab34c7c0e6298c84816d9fbe611cefe1f35303343cbbc11079601bad7ccbf"
