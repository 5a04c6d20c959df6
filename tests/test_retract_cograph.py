from __future__ import annotations

import random
import sys

import pytest

from cogret.cotree import (
    JOIN,
    UNION,
    NotCographError,
    _Tree,
    _arrays,
    _classed_cotree,
    _omegas,
    _subtree,
    build_cotree,
    clique_number,
    cotree_to_graph,
    max_clique_leaves,
)
from cogret.graph_core import (
    Graph,
    NoRetract,
    RetractCertificate,
    complement,
    induced_subgraph,
    is_homomorphism,
    random_cograph,
    verify_retract_certificate,
)
from cogret.oracle import (
    brute_clique,
    brute_hom,
    brute_partitioned_retract,
    brute_retract,
)
from cogret.retract_tp import tp_retract
from cogret.retract_cograph import (
    _LEAF,
    PartitionedInstance,
    _CotreePairs,
    _partitioned_on_cotree,
    _prune_plan,
    cotree_pair_retract,
    fpt_retract,
    hom_exists,
    partitioned_retract,
    retract,
)

from tests.helpers import (
    BUTTERFLY,
    C4,
    E,
    K,
    K1,
    K2,
    K3,
    P4,
    PAW,
    ReferenceCotreePairs,
    all_cographs,
    all_cotrees,
    cotree_chain,
    TWO_K2,
    count_cotree_builds,
    count_cotree_facts,
    count_eliminations,
    graph_join,
    graph_union,
    random_cotree,
    random_threshold_graph,
    random_tp_graph,
    reference_cotree_pair_retract,
    universal_isolated_chain,
)


class TestHomExists:
    def test_c4_to_k2(self):
        ok, phi = hom_exists(C4, K2)
        assert ok and is_homomorphism(C4, K2, phi)

    def test_k3_to_k2(self):
        assert hom_exists(K3, K2) == (False, None)

    def test_k1_to_anything(self):
        for target in (K1, K3, PAW, BUTTERFLY):
            ok, phi = hom_exists(K1, target)
            assert ok and len(phi) == 1

    def test_non_cograph_rejected(self):
        with pytest.raises(NotCographError):
            hom_exists(P4, K2)

    def test_exhaustive_agreement_with_search(self):
        graphs_g = [Graph(0)] + [g for n in range(1, 6) for g in all_cographs(n)]
        graphs_h = [Graph(0)] + [h for n in range(1, 5) for h in all_cographs(n)]
        for g in graphs_g:
            for h in graphs_h:
                ok, phi = hom_exists(g, h)
                assert ok == (brute_hom(g, h) is not None)
                if ok:
                    assert is_homomorphism(g, h, phi)


class TestPartitioned:
    def test_butterfly_triangle_yes(self):
        cert = partitioned_retract(PartitionedInstance(BUTTERFLY, frozenset({0, 1, 2})))
        assert isinstance(cert, RetractCertificate)
        h, _ = induced_subgraph(BUTTERFLY, {0, 1, 2})
        assert verify_retract_certificate(BUTTERFLY, h, cert)

    def test_butterfly_paw_subset_no(self):
        result = partitioned_retract(
            PartitionedInstance(BUTTERFLY, frozenset({0, 1, 2, 3}))
        )
        assert isinstance(result, NoRetract)
        assert result.detail == (4,)

    def test_no_detail_keeps_last_widest_branch(self):
        # K1 + K2 + K2 onto the K1: of the two equally wide edges, the
        # one later in child order stays
        g = graph_union(K1, graph_union(K2, K2))
        result = partitioned_retract(PartitionedInstance(g, frozenset({0})))
        assert result == NoRetract(
            "pruning fixpoint keeps vertices outside the pattern", (3, 4)
        )

    def test_whole_vertex_set_identity(self):
        cert = partitioned_retract(PartitionedInstance(BUTTERFLY, frozenset(range(5))))
        assert cert.rho == (0, 1, 2, 3, 4)

    def test_random_agreement_with_restricted_search(self):
        rng = random.Random("partitioned-unit")
        for _ in range(400):
            g = random_cograph(rng.randint(1, 8), rng.randrange(10 ** 6))
            hset = frozenset(rng.sample(range(g.n), rng.randint(1, g.n)))
            fast = partitioned_retract(PartitionedInstance(g, hset))
            slow = brute_partitioned_retract(g, hset)
            assert isinstance(fast, NoRetract) == isinstance(slow, NoRetract)
            if isinstance(fast, RetractCertificate):
                h, _ = induced_subgraph(g, hset)
                assert verify_retract_certificate(g, h, fast)

    def test_single_prune_step_preserves_answer(self):
        # removing any one branch the pass prunes never changes the restricted answer
        rng = random.Random("prune-invariance")
        checked = 0
        for _ in range(300):
            g = random_cograph(rng.randint(2, 7), rng.randrange(10 ** 6))
            hset = frozenset(rng.sample(range(g.n), rng.randint(1, g.n)))
            tree = _classed_cotree(g)[0]
            folds, _ = _prune_plan(tree, _omegas(tree, hset))
            if not folds:
                continue
            checked += 1
            before = brute_partitioned_retract(g, hset)
            for branch, target in ((b, t) for branches, t in folds for b in branches):
                assert tree.omega[target] >= tree.omega[branch]
                gone = {v for v in _subtree(tree, branch) if v < g.n}
                reduced, table = induced_subgraph(g, [v for v in range(g.n) if v not in gone])
                after = brute_partitioned_retract(reduced, frozenset(table.index(v) for v in hset))
                assert isinstance(before, NoRetract) == isinstance(after, NoRetract)
        assert checked > 100

    def test_answers_on_deep_cotree_without_recursion(self):
        # chain vertex i hangs at level i: odd levels are joins, even ones unions
        depth = 1200
        tree = _arrays(cotree_chain(depth))
        g = cotree_to_graph(cotree_chain(depth))
        yes_set = frozenset([0] + list(range(1, depth + 1, 2)))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            cert, omega_h = _partitioned_on_cotree(g, tree, yes_set)
            no, omega_no = _partitioned_on_cotree(g, tree, frozenset({0}))
        finally:
            sys.setrecursionlimit(limit)
        assert isinstance(cert, RetractCertificate)
        assert (omega_h, omega_no) == (tree.omega[-1], 1)
        # every union leaf folds into the chain below it; join leaves stay
        assert no == NoRetract(
            "pruning fixpoint keeps vertices outside the pattern",
            tuple(range(1, depth + 1, 2)),
        )


class TestFpt:
    def test_examples(self):
        assert isinstance(fpt_retract(BUTTERFLY, K3), RetractCertificate)
        assert isinstance(fpt_retract(BUTTERFLY, PAW), NoRetract)
        assert isinstance(fpt_retract(C4, C4), RetractCertificate)
        assert isinstance(fpt_retract(C4, K2), RetractCertificate)
        big = graph_join(C4, K(12))
        cert = fpt_retract(big, K(14))
        assert isinstance(cert, RetractCertificate)
        assert verify_retract_certificate(big, K(14), cert)
        assert isinstance(fpt_retract(graph_join(C4, K(8)), graph_join(E(3), K(9))), NoRetract)

    def test_exhaustive_small(self):
        graphs_g = [g for n in range(1, 6) for g in all_cographs(n)]
        graphs_h = [h for n in range(1, 5) for h in all_cographs(n)]
        for g in graphs_g:
            for h in graphs_h:
                fast = fpt_retract(g, h)
                slow = brute_retract(g, h)
                assert isinstance(fast, NoRetract) == isinstance(slow, NoRetract), (
                    list(g.edges()),
                    list(h.edges()),
                )
                if isinstance(fast, RetractCertificate):
                    assert verify_retract_certificate(g, h, fast)

    def test_yes_implies_equal_clique_numbers(self):
        rng = random.Random("fpt-omega")
        for _ in range(200):
            g = random_cograph(rng.randint(1, 8), rng.randrange(10 ** 6))
            h = random_cograph(rng.randint(1, 5), rng.randrange(10 ** 6))
            result = fpt_retract(g, h)
            if isinstance(result, RetractCertificate):
                assert clique_number(build_cotree(g)) == clique_number(build_cotree(h))


def _with_false_twins(h: Graph, k: int, rng: random.Random) -> Graph:
    """h plus k vertices, each a false twin of a random earlier vertex.
    h stays induced and is a retract: each twin maps onto its original."""
    adj = [set(a) for a in h.adjacency]
    for _ in range(k):
        v = rng.randrange(len(adj))
        w = len(adj)
        adj.append(set(adj[v]))
        for u in adj[v]:
            adj[u].add(w)
    return Graph(len(adj), [(u, v) for u in range(len(adj)) for v in adj[u] if u < v])


def _label_graph(solver: _CotreePairs, label: int) -> Graph:
    """The graph a solver label stands for, built from its kind and children."""
    if solver.kind[label] == _LEAF:
        return K1
    combine = graph_union if solver.kind[label] == UNION else graph_join
    graph = _label_graph(solver, solver.kids[label][0])
    for kid in solver.kids[label][1:]:
        graph = combine(graph, _label_graph(solver, kid))
    return graph


class TestComponentPruning:
    """Union levels skip pairs whose pattern has more vertices or a larger
    independence number than its host; answers must not change."""

    def test_label_counts_and_independence_numbers(self):
        for n in range(1, 8):
            for tree in all_cotrees(n):
                graph = cotree_to_graph(tree)
                solver = _CotreePairs(_arrays(tree), _arrays(tree))
                for node in _subtree(solver.g, solver.g.root):
                    label = solver.glab[node]
                    sub, _ = induced_subgraph(graph, [v for v in _subtree(solver.g, node) if v < n])
                    assert solver.size[label] == sub.n
                    assert solver.alpha[label] == brute_clique(complement(sub))

    def test_joined_labels_carry_the_same_invariants(self):
        trees = [t for n in range(1, 6) for t in all_cotrees(n)]
        checked = 0
        for tg in trees:
            for th in trees:
                solver = _CotreePairs(_arrays(tg), _arrays(th))
                tree_labels = set(solver.glab + solver.hlab)
                solver.decide(solver.glab[-1], solver.hlab[-1])
                for label in range(len(solver.kind)):
                    if label in tree_labels:
                        continue
                    graph = _label_graph(solver, label)
                    assert solver.size[label] == graph.n
                    assert solver.alpha[label] == brute_clique(complement(graph))
                    checked += 1
        assert checked

    def test_same_answers_on_every_small_cograph_pair(self):
        graphs = [(g, _arrays(build_cotree(g))) for n in range(1, 7) for g in all_cographs(n)]
        pairs = 0
        for g, tg in graphs:
            for h, th in graphs:
                if h.n <= g.n:
                    pruned = cotree_pair_retract(g, h, tg, th)
                    assert pruned == reference_cotree_pair_retract(g, h, tg, th)
                    pairs += 1
        assert pairs == 8251

    def test_same_answers_on_large_random_pairs(self):
        rng = random.Random("component-pruning")
        outcomes = set()
        for n in (50, 200, 1000):
            for seed in range(2):
                tp = random_tp_graph(n, seed)
                general = cotree_to_graph(random_cotree(n, seed))
                cases = [
                    (_with_false_twins(tp, n // 10, rng), tp),
                    (tp, _with_false_twins(tp, 1, rng)),
                    (_with_false_twins(general, n // 10, rng), general),
                    (general, _with_false_twins(general, 1, rng)),
                    (tp, random_tp_graph(rng.randint(n // 4, n), seed + 1)),
                    (general, cotree_to_graph(random_cotree(rng.randint(n // 4, n), seed + 1))),
                ]
                # the fpt route is exponential in |V(H)|: an induced pattern of
                # a general 1000-vertex cograph can take minutes
                for g in (tp, general) if n <= 200 else (tp,):
                    keep = set(max_clique_leaves(build_cotree(g)))
                    keep |= {v for v in range(g.n) if rng.random() < 0.6}
                    cases.append((g, induced_subgraph(g, keep)[0]))
                for g, h in cases:
                    tg, th = _arrays(build_cotree(g)), _arrays(build_cotree(h))
                    pruned = cotree_pair_retract(g, h, tg, th)
                    assert pruned == reference_cotree_pair_retract(g, h, tg, th)
                    outcomes.add(getattr(pruned, "reason", "YES"))
        assert {"YES", "clique-mismatch", "matching-deficit"} <= outcomes

    def test_fewer_memo_entries_on_a_tp_yes_pair(self):
        h = random_tp_graph(300, 1)
        g = _with_false_twins(h, 30, random.Random("memo"))
        tg, th = _arrays(build_cotree(g)), _arrays(build_cotree(h))
        memo_sizes = []
        for solver_class in (_CotreePairs, ReferenceCotreePairs):
            solver = solver_class(tg, th)
            assert not isinstance(solver.decide(solver.glab[-1], solver.hlab[-1]), str)
            memo_sizes.append(len(solver.memo))
        assert memo_sizes[0] < memo_sizes[1]


class TestArraySolver:
    """The solver labels each cotree once, in one loop that also sets its
    clique numbers, and works on arrays at any depth."""

    def _pairs(self):
        rng = random.Random("facts-once")
        for seed in range(6):
            h = random_tp_graph(rng.randint(5, 60), seed)
            yield _with_false_twins(h, 5, rng), h
            yield h, K(clique_number(build_cotree(h)))
            h = cotree_to_graph(random_cotree(rng.randint(5, 30), seed))
            yield _with_false_twins(h, 5, rng), h
        yield BUTTERFLY, PAW
        yield C4, K2

    def test_each_cotree_labelled_once(self, monkeypatch):
        facts = count_cotree_facts(monkeypatch)
        answers, routes = set(), set()
        for g, h in self._pairs():
            facts.clear()
            result, route = retract(g, h)
            assert sorted(facts.values()) == ([] if route == "threshold" else [1, 1])
            answers.add(type(result))
            routes.add(route)
            for run in [fpt_retract] + ([tp_retract] if route != "fpt" else []):
                facts.clear()
                assert type(run(g, h)) is type(result)
                assert sorted(facts.values()) == [1, 1]
        assert answers == {RetractCertificate, NoRetract}
        assert {"tp", "fpt"} <= routes

    def test_deep_chains_build_and_label_without_recursion(self):
        graphs = [cotree_to_graph(cotree_chain(2000)), universal_isolated_chain(TWO_K2, 2000)]
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            trees = [_classed_cotree(g)[0] for g in graphs]
            solver = _CotreePairs(*trees)
            shapes = [len(_arrays(build_cotree(g)).kind) for g in graphs]
        finally:
            sys.setrecursionlimit(limit)
        assert shapes == [len(t.kind) for t in trees] == [4001, 4007]
        # every level is a new subtree; the 2K2 is a union of two equal K2s
        assert [len(set(solver.glab)), len(set(solver.hlab))] == [1 + 2000, 1 + 2 + 2000]
        assert [solver.size[solver.glab[-1]], solver.size[solver.hlab[-1]]] == [2001, 2004]
        assert trees[0].omega[-1] == 1001 and trees[1].omega[-1] == 1002

    def test_a_join_part_of_300_classes_needs_no_recursion(self):
        # E_k is k isolated vertices; the host J(U(J(E_1..E_300), x),
        # U(J(E_301..E_600), y)) against J(E_1..E_600): the first host
        # cocomponent's part is E_1..E_300, 300 pattern classes of weight 1
        def join_of_edgeless(tree, ids, sizes):
            kids = []
            for k in sizes:
                leaves = tuple(next(ids) for _ in range(k))
                kids.append(leaves[0] if k == 1 else tree.add(UNION, leaves))
            return tree.add(JOIN, tuple(kids))

        n = 600 * 601 // 2
        host, ids = _Tree(n + 2), iter(range(n + 2))
        halves = [
            host.add(UNION, (join_of_edgeless(host, ids, range(lo, lo + 300)), next(ids)))
            for lo in (1, 301)
        ]
        host.add(JOIN, tuple(halves))
        pattern = _Tree(n)
        join_of_edgeless(pattern, iter(range(n)), range(1, 601))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            solver = _CotreePairs(host, pattern)
            plan = solver.decide(solver.glab[-1], solver.hlab[-1])
        finally:
            sys.setrecursionlimit(limit)
        assert plan == ((0, tuple(range(300))), (1, tuple(range(300, 600))))


class TestDispatcher:
    def test_routes(self):
        result, route = retract(PAW, K3)
        assert route == "threshold" and isinstance(result, RetractCertificate)
        result, route = retract(BUTTERFLY, PAW)
        assert route == "tp" and isinstance(result, NoRetract)
        result, route = retract(C4, K2)
        assert route == "fpt" and isinstance(result, RetractCertificate)

    def test_non_cograph_raises_with_witness(self):
        with pytest.raises(NotCographError) as err:
            retract(P4, K2)
        assert len(err.value.witness) == 4

    def test_threshold_pairs_build_no_cotree(self, monkeypatch):
        builds = count_cotree_builds(monkeypatch)
        for seed in range(10):
            g = random_threshold_graph(200, seed)
            h = random_threshold_graph(40, seed + 100)
            assert retract(g, h)[1] == "threshold"
        assert sum(builds.values()) == 0

    def test_threshold_pairs_eliminate_each_graph_once(self, monkeypatch):
        eliminations = count_eliminations(monkeypatch)
        for seed in range(10):
            g = random_threshold_graph(200, seed)
            h = random_threshold_graph(40, seed + 100)
            eliminations.clear()
            assert retract(g, h)[1] == "threshold"
            assert eliminations == {id(g): 1, id(h): 1}

    def test_tp_and_fpt_pairs_build_each_cotree_once(self, monkeypatch):
        builds = count_cotree_builds(monkeypatch)
        pairs = [
            (random_tp_graph(120, seed), random_tp_graph(30, seed + 100))
            for seed in range(5)
        ]
        pairs += [
            (random_threshold_graph(80, seed), random_tp_graph(20, seed)) for seed in range(5)
        ]
        pairs += [
            (random_cograph(40, seed), random_cograph(8, seed + 1)) for seed in range(5)
        ]
        pairs += [(C4, K2), (BUTTERFLY, PAW), (BUTTERFLY, K3)]
        for g, h in pairs:
            builds.clear()
            _, route = retract(g, h)
            assert route in ("tp", "fpt")
            assert set(builds) <= {id(g), id(h)}
            assert max(builds.values()) == 1
            for solve in (fpt_retract, hom_exists):
                builds.clear()
                solve(g, h)
                assert builds == {id(g): 1, id(h): 1}

    def test_solver_agreement_across_routes(self):
        # wherever the specialized solvers apply, all routes agree
        from cogret.retract_threshold import threshold_retract
        from cogret.retract_tp import tp_retract
        from tests.helpers import all_threshold_graphs, all_tp_graphs

        thr_g = [g for n in range(1, 6) for g in all_threshold_graphs(n)]
        thr_h = [h for n in range(1, 4) for h in all_threshold_graphs(n)]
        for g in thr_g:
            for h in thr_h:
                answers = {
                    isinstance(threshold_retract(g, h), NoRetract),
                    isinstance(tp_retract(g, h), NoRetract),
                    isinstance(fpt_retract(g, h), NoRetract),
                }
                assert len(answers) == 1
        tp_g = [g for n in range(1, 6) for g in all_tp_graphs(n)]
        tp_h = [h for n in range(1, 4) for h in all_tp_graphs(n)]
        for g in tp_g:
            for h in tp_h:
                assert isinstance(tp_retract(g, h), NoRetract) == isinstance(
                    fpt_retract(g, h), NoRetract
                )
