from __future__ import annotations

import random
import sys
from collections import Counter

import pytest

from cogret.cotree import build_cotree, chromatic_number
from cogret.folding import (
    FoldError,
    FoldSequence,
    apply_fold,
    folding_number_universal,
    threshold_folding_number,
    verify_fold_sequence,
)
from cogret.graph_core import Graph, components, induced_subgraph, random_cograph
from cogret.oracle import brute_achromatic, brute_chromatic, brute_folding_number
from cogret.retract_threshold import NotThresholdError

from tests.helpers import (
    BUTTERFLY,
    K,
    K1,
    K2,
    K3,
    P3,
    P4,
    PAW,
    TWO_K2,
    all_threshold_graphs,
    count_cotree_builds,
    count_eliminations,
    graph_join,
    random_threshold_graph,
)


class TestApplyFold:
    def test_p3_endpoints(self):
        assert apply_fold(P3, 0, 2) == K2

    def test_c4_opposite(self):
        c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        folded = apply_fold(c4, 0, 2)
        assert folded.n == 3 and folded.m == 2  # a path on three vertices

    def test_adjacent_rejected(self):
        with pytest.raises(FoldError):
            apply_fold(K2, 0, 1)

    def test_distant_rejected(self):
        with pytest.raises(FoldError):
            apply_fold(P4, 0, 3)
        with pytest.raises(FoldError):
            apply_fold(TWO_K2, 0, 2)  # different components

    def test_same_vertex_rejected(self):
        with pytest.raises(FoldError):
            apply_fold(P3, 1, 1)


class TestVerifyFoldSequence:
    def test_p3_to_k2(self):
        assert verify_fold_sequence(P3, [(0, 2)], K2)

    def test_empty_sequence(self):
        assert verify_fold_sequence(K3, [], K3)

    def test_illegal_step_rejected(self):
        assert not verify_fold_sequence(K3, [(0, 1)], K2)

    def test_wrong_target_rejected(self):
        assert not verify_fold_sequence(P3, [(0, 2)], K3)

    def test_matches_a_step_by_step_replay(self):
        rng = random.Random("fold-differential")
        kinds = Counter()
        for trial in range(300):
            n = rng.randint(1, 9)
            if trial % 2:
                g = random_threshold_graph(n, trial)
            else:
                g = random_cograph(n, rng.randrange(10 ** 6))
            comp = max(components(g), key=len) if trial % 3 == 1 else tuple(range(n))
            steps, kind = _random_steps(rng, induced_subgraph(g, comp)[0])
            kinds[kind] += 1
            ref = _reference_replay(g, comp, steps)
            # apply_fold one step at a time agrees with the reference
            current = induced_subgraph(g, comp)[0]
            try:
                for x, y in steps:
                    current = apply_fold(current, x, y)
            except FoldError:
                assert ref is None
            else:
                assert ref is not None and current == Graph(*ref)
            seq = FoldSequence(comp, tuple(steps))
            k = len(comp) - len(steps)
            final = Graph(*ref) if ref is not None else None
            targets = [
                (K(k), final is not None and final.m == k * (k - 1) // 2),
                (Graph(k), final is not None and final.m == 0),
                (final or Graph(k), final is not None),
            ]
            for target, expected in targets:
                assert verify_fold_sequence(g, seq, target) == expected
                if comp == tuple(range(n)):
                    assert verify_fold_sequence(g, steps, target) == expected
        assert set(kinds) == {"legal", "adjacent", "no common neighbor", "same", "out of range"}
        assert min(kinds.values()) >= 10, kinds

    def test_oracle_sequences_always_verify(self):
        rng = random.Random("fold-verify")
        for _ in range(50):
            g = random_cograph(rng.randint(1, 7), rng.randrange(10 ** 6))
            value, seq = brute_folding_number(g)
            assert verify_fold_sequence(g, seq, K(value))


def _random_steps(rng: random.Random, g: Graph) -> tuple[list[tuple[int, int]], str]:
    """Legal folds of g drawn at random, then possibly one illegal step;
    returns the steps and the kind of the last one."""
    steps: list[tuple[int, int]] = []
    for _ in range(rng.randint(0, g.n)):
        pairs = [
            (x, y)
            for x in range(g.n)
            for y in range(g.n)
            if x != y and not g.has_edge(x, y) and g.adjacency[x] & g.adjacency[y]
        ]
        if not pairs:
            break
        steps.append(rng.choice(pairs))
        g = apply_fold(g, *steps[-1])
    bad = {
        "adjacent": [(x, y) for x in range(g.n) for y in g.adjacency[x]],
        "no common neighbor": [
            (x, y)
            for x in range(g.n)
            for y in range(g.n)
            if x != y and not g.has_edge(x, y) and not g.adjacency[x] & g.adjacency[y]
        ],
        "same": [(x, x) for x in range(g.n)],
        # an id that was in range before the folds so far renumbered it away
        "out of range": [(x, g.n) for x in range(g.n)] if steps else [],
    }
    kind = rng.choice(["legal"] + [k for k, pairs in bad.items() if pairs])
    if kind != "legal":
        steps.append(rng.choice(bad[kind]))
    return steps, kind


def _reference_replay(g: Graph, comp, steps) -> tuple[int, set] | None:
    """The folds replayed on an edge set, vertices renumbered after each
    fold; (n, edges) at the end, or None at the first illegal step."""
    index = {v: i for i, v in enumerate(sorted(comp))}
    n = len(index)
    edges = {(index[u], index[v]) for u, v in g.edges() if u in index and v in index}
    for x, y in steps:
        near_x, near_y = ({a + b - v for a, b in edges if v in (a, b)} for v in (x, y))
        if not (0 <= x < n and 0 <= y < n) or x == y or y in near_x or not near_x & near_y:
            return None
        shift = [v - (v > y) for v in range(n)]
        edges = {
            tuple(sorted((shift[x if a == y else a], shift[x if b == y else b])))
            for a, b in edges
        }
        n -= 1
    return n, edges


class TestThresholdFoldingNumber:
    def test_paw(self):
        value, seq = threshold_folding_number(PAW)
        assert value == 3
        assert verify_fold_sequence(PAW, seq, K3)

    def test_k1(self):
        assert threshold_folding_number(K1)[0] == 1

    def test_not_threshold_rejected(self):
        with pytest.raises(NotThresholdError):
            threshold_folding_number(TWO_K2)

    def test_exhaustive_against_oracle(self):
        for n in range(1, 7):
            for g in all_threshold_graphs(n):
                value, seq = threshold_folding_number(g)
                assert value == brute_folding_number(g)[0]
                assert value == brute_achromatic(g)[0]
                assert value == brute_chromatic(g)
                assert verify_fold_sequence(g, seq, K(value))

    def test_random_larger(self):
        rng = random.Random("threshold-fold")
        for _ in range(40):
            g = random_threshold_graph(rng.randint(1, 16), rng.randrange(10 ** 6))
            value, seq = threshold_folding_number(g)
            assert verify_fold_sequence(g, seq, K(value))

    def test_no_cotree_builds(self, monkeypatch):
        builds = count_cotree_builds(monkeypatch)
        eliminations = count_eliminations(monkeypatch)
        graphs = [random_threshold_graph(60, seed, universal_bias=0.3) for seed in range(10)]
        for g in graphs:
            threshold_folding_number(g)
        assert list(eliminations.values()) == [1] * 10
        assert not builds

    def test_class_merge_never_needs_a_fallback(self):
        # every connected threshold graph on up to nine vertices
        for n in range(1, 10):
            for g in all_threshold_graphs(n):
                if len(components(g)) > 1:
                    continue
                value, seq = threshold_folding_number(g)
                assert value == chromatic_number(build_cotree(g))
                assert seq.component == tuple(range(n))
                assert verify_fold_sequence(g, seq, K(value))

    def test_dense_n2000_without_recursion(self):
        g = random_threshold_graph(2000, 1)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            value, seq = threshold_folding_number(g)
            assert verify_fold_sequence(g, seq, K(value))
        finally:
            sys.setrecursionlimit(limit)
        # the vertices that arrived universal, plus one before the first
        assert value == 1 + sum(1 for v in range(1, 2000) if g.adjacency[v].issuperset(range(v)))


class TestFoldingNumberUniversal:
    def test_butterfly(self):
        assert folding_number_universal(BUTTERFLY) == 3

    def test_complete_graphs(self):
        for n in range(1, 7):
            assert folding_number_universal(K(n)) == n

    def test_no_universal_rejected(self):
        with pytest.raises(ValueError):
            folding_number_universal(TWO_K2)

    def test_matches_oracle_on_apex_graphs(self):
        rng = random.Random("universal-fold")
        for _ in range(40):
            base = random_cograph(rng.randint(1, 7), rng.randrange(10 ** 6))
            g = graph_join(K1, base)
            assert folding_number_universal(g) == brute_folding_number(g)[0]


class TestTreeFolding:
    def test_fold_image_of_tree_is_tree(self):
        import networkx as nx

        for n in range(2, 9):
            for t in nx.nonisomorphic_trees(n):
                g = Graph(n, list(t.edges()))
                for x in range(n):
                    for y in range(x + 1, n):
                        try:
                            folded = apply_fold(g, x, y)
                        except FoldError:
                            continue
                        assert folded.m == folded.n - 1
                        assert len(components(folded)) == 1

    def test_tree_folding_number_at_most_two(self):
        import networkx as nx

        for n in range(1, 9):
            trees = [Graph(n, list(t.edges())) for t in nx.nonisomorphic_trees(n)] if n > 1 else [K1]
            for g in trees:
                value, _ = brute_folding_number(g)
                assert value <= 2
                if g.m >= 1:
                    assert value == 2
