from __future__ import annotations

import random

import pytest

from cogret.graph_core import (
    Graph,
    NoRetract,
    RetractCertificate,
    relabel,
    verify_retract_certificate,
)
from cogret.oracle import brute_clique, brute_retract
from cogret.retract_cograph import retract
from cogret.retract_threshold import (
    ISOLATED,
    NotThresholdError,
    UNIVERSAL,
    _degree_order,
    threshold_elimination,
    threshold_retract,
)

from tests.helpers import (
    BUTTERFLY,
    K1,
    K2,
    K3,
    PAW,
    TWO_K2,
    all_threshold_graphs,
    count_degree_sorts,
    random_graph,
    random_threshold_graph,
    reference_threshold_elimination,
    sparse_random_threshold_graph,
    star,
)


def assert_valid_elimination(g: Graph, order) -> None:
    remaining = set(range(g.n))
    for v, tag in order.steps:
        assert v in remaining
        others = remaining - {v}
        degree_inside = sum(1 for u in g.adjacency[v] if u in others)
        if tag == UNIVERSAL:
            assert degree_inside == len(others)
        else:
            assert tag == ISOLATED and degree_inside == 0
        remaining.remove(v)
    assert not remaining


class TestElimination:
    def test_paw(self):
        order = threshold_elimination(PAW)
        assert order is not None
        assert_valid_elimination(PAW, order)
        assert order.steps[0] == (0, UNIVERSAL)  # only the hub qualifies first

    def test_2k2_refused(self):
        assert threshold_elimination(TWO_K2) is None

    def test_k1(self):
        order = threshold_elimination(K1)
        assert order.steps == ((0, ISOLATED),)

    def test_exhaustive_validity(self):
        for n in range(1, 8):
            for g in all_threshold_graphs(n):
                order = threshold_elimination(g)
                assert order is not None
                assert_valid_elimination(g, order)

    def test_random_validity(self):
        for seed in range(80):
            g = random_threshold_graph(seed % 30 + 1, seed)
            order = threshold_elimination(g)
            assert order is not None
            assert_valid_elimination(g, order)

    def test_same_steps_as_tuple_key(self):
        rng = random.Random("elimination-vs-tuple-key")
        for seed in range(60):
            n = rng.randint(1, 300)
            g = (random_threshold_graph if seed % 2 else sparse_random_threshold_graph)(n, seed)
            perm = list(range(n))
            rng.shuffle(perm)
            for graph in (g, relabel(g, perm), random_graph(n % 12 + 1, seed)):
                assert threshold_elimination(graph) == reference_threshold_elimination(graph)
                by_key = sorted(range(graph.n), key=lambda v: (graph.degree(v), v))
                assert _degree_order(graph)[0] == by_key


class TestThresholdRetract:
    def test_star_to_k2(self):
        cert = threshold_retract(star(3), K2)
        assert isinstance(cert, RetractCertificate)
        assert verify_retract_certificate(star(3), K2, cert)

    def test_identity(self):
        cert = threshold_retract(PAW, PAW)
        assert cert == RetractCertificate(rho=(0, 1, 2, 3), gamma=(0, 1, 2, 3))

    def test_k3_vs_k2_no(self):
        assert isinstance(threshold_retract(K3, K2), NoRetract)

    def test_non_threshold_rejected(self):
        with pytest.raises(NotThresholdError):
            threshold_retract(TWO_K2, K2)
        with pytest.raises(NotThresholdError):
            threshold_retract(K3, TWO_K2)
        with pytest.raises(NotThresholdError):
            threshold_retract(BUTTERFLY, K3)  # trivially perfect, not threshold

    def test_exhaustive_agreement_small(self):
        graphs_g = [g for n in range(1, 6) for g in all_threshold_graphs(n)]
        graphs_h = [h for n in range(1, 5) for h in all_threshold_graphs(n)]
        for g in graphs_g:
            for h in graphs_h:
                fast = threshold_retract(g, h)
                slow = brute_retract(g, h)
                assert isinstance(fast, NoRetract) == isinstance(slow, NoRetract)
                if isinstance(fast, RetractCertificate):
                    assert verify_retract_certificate(g, h, fast)

    def test_random_agreement(self):
        rng = random.Random("threshold-random")
        for _ in range(300):
            g = random_threshold_graph(rng.randint(1, 8), rng.randrange(10 ** 6))
            h = random_threshold_graph(rng.randint(1, 6), rng.randrange(10 ** 6))
            fast = threshold_retract(g, h)
            slow = brute_retract(g, h)
            assert isinstance(fast, NoRetract) == isinstance(slow, NoRetract)

    def test_yes_preserves_clique_number(self):
        rng = random.Random("threshold-omega")
        for _ in range(200):
            g = random_threshold_graph(rng.randint(1, 8), rng.randrange(10 ** 6))
            h = random_threshold_graph(rng.randint(1, 6), rng.randrange(10 ** 6))
            result = threshold_retract(g, h)
            if isinstance(result, RetractCertificate):
                assert brute_clique(g) == brute_clique(h)

    def test_each_graph_sorted_once(self, monkeypatch):
        sorts = count_degree_sorts(monkeypatch)
        g, h = random_threshold_graph(60, 1), random_threshold_graph(20, 2)
        threshold_retract(g, h)
        assert sorts == {id(g): 1, id(h): 1}
        sorts.clear()
        assert retract(g, h)[1] == "threshold"
        assert sorts == {id(g): 1, id(h): 1}

    def test_disconnected_pairs(self):
        # 2K1 retracts onto K1? no: single isolated pattern vs edgeless host
        host = Graph(3)  # 3K1
        assert isinstance(threshold_retract(host, Graph(2)), RetractCertificate)
        assert isinstance(threshold_retract(Graph(2), Graph(3)), NoRetract)
        # K2+K1 onto K2
        host = Graph(3, [(0, 1)])
        cert = threshold_retract(host, K2)
        assert isinstance(cert, RetractCertificate)
        assert verify_retract_certificate(host, K2, cert)
