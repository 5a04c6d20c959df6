from __future__ import annotations

import random

import pytest

from cogret.folding import (
    FoldError,
    apply_fold,
    folding_number_universal,
    threshold_folding_number,
    verify_fold_sequence,
)
from cogret.graph_core import Graph, components, graph_join, random_cograph
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

    def test_oracle_sequences_always_verify(self):
        rng = random.Random("fold-verify")
        for _ in range(50):
            g = random_cograph(rng.randint(1, 7), rng.randrange(10 ** 6))
            value, seq = brute_folding_number(g)
            assert verify_fold_sequence(g, seq, K(value))


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

    def test_one_cotree_build_per_component(self, monkeypatch):
        builds = count_cotree_builds(monkeypatch)
        for seed in range(10):
            g = random_threshold_graph(60, seed, universal_bias=0.3)
            builds.clear()
            threshold_folding_number(g)
            assert sum(builds.values()) == len(components(g))


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
