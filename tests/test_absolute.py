from __future__ import annotations

import sys

import pytest

from cogret import absolute
from cogret.absolute import _with_true_twin, counterexample_embedding, is_absolute_retract
from cogret.cotree import (
    NotCographError,
    _arrays,
    _objects,
    build_cotree,
    cotree_to_graph,
    normalize,
)
from cogret.graph_core import Graph, NoRetract, components, induced_subgraph
from cogret.oracle import brute_clique, brute_retract, canonical_graph_key
from cogret.retract_cograph import PartitionedInstance, partitioned_retract

from tests.helpers import (
    BUTTERFLY,
    K,
    K1,
    P4,
    PAW,
    TWO_K2,
    all_connected_cographs,
    bfs_distances,
    cotree_chain,
    count_cotree_builds,
    graph_union,
)


class TestVerdicts:
    def test_paw_not_absolute(self):
        verdict = is_absolute_retract(PAW)
        assert not verdict.is_absolute
        assert verdict.failing_vertices == (1,)  # the pendant-side vertex
        assert verdict.counterexample is not None

    def test_paw_counterexample_is_butterfly(self):
        verdict = is_absolute_retract(PAW)
        assert canonical_graph_key(verdict.counterexample) == canonical_graph_key(
            BUTTERFLY
        )

    def test_cliques_absolute(self):
        for n in range(1, 7):
            verdict = is_absolute_retract(K(n))
            assert verdict.is_absolute
            assert all(len(c) == n for c in verdict.max_cliques.values())

    def test_butterfly_absolute(self):
        verdict = is_absolute_retract(BUTTERFLY)
        assert verdict.is_absolute
        for v, clique in verdict.max_cliques.items():
            assert v in clique and len(clique) == 3

    def test_max_clique_witnesses_are_cliques(self):
        for n in range(1, 8):
            for h in all_connected_cographs(n):
                verdict = is_absolute_retract(h)
                if not verdict.is_absolute:
                    continue
                omega = brute_clique(h)
                for v, clique in verdict.max_cliques.items():
                    assert v in clique and len(clique) == omega
                    for i, a in enumerate(clique):
                        for b in clique[i + 1 :]:
                            assert h.has_edge(a, b)

    def test_deep_chain_without_recursion(self):
        # chain vertex i hangs at level i: odd levels are joins, even ones
        # unions, whose leaf misses the wider chain below it
        h = cotree_to_graph(cotree_chain(1201))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            verdict = is_absolute_retract(h)
        finally:
            sys.setrecursionlimit(limit)
        assert verdict.failing_vertices == tuple(range(2, 1201, 2))
        # the top union's leaf is deficient: the new vertex is its true twin
        g = verdict.counterexample
        assert g.n == h.n + 1 == 1203 and g.m == h.m + 2
        assert g.adjacency[1202] == {1200, 1201}

    def test_one_cotree_build(self, monkeypatch):
        builds = count_cotree_builds(monkeypatch)
        for h in (PAW, BUTTERFLY):
            is_absolute_retract(h)
            assert builds[id(h)] == 1
        assert sum(builds.values()) == 2

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            is_absolute_retract(TWO_K2)

    @pytest.mark.parametrize("test", [is_absolute_retract, counterexample_embedding])
    @pytest.mark.parametrize(
        "h, error, message, searched",
        [
            (Graph(0), ValueError, "empty graph", False),
            (TWO_K2, ValueError, "requires a connected graph", False),  # a cograph
            (graph_union(P4, K1), ValueError, "requires a connected graph", True),
            (P4, NotCographError, "induced P4", True),  # connected, not a cograph
        ],
    )
    def test_input_errors(self, test, h, error, message, searched, monkeypatch):
        searches = []

        def counted(g):
            searches.append(g)
            return components(g)

        monkeypatch.setattr(absolute, "components", counted)
        with pytest.raises(error, match=message):
            test(h)
        # a cograph's connectivity is read off its cotree's root
        assert searches == ([h] if searched else [])

    def test_verdict_matches_maxclique_membership(self):
        # independent route: enumerate maximum cliques by brute force
        from itertools import combinations

        for n in range(1, 7):
            for h in all_connected_cographs(n):
                omega = brute_clique(h)
                in_max_clique = set()
                for subset in combinations(range(h.n), omega):
                    if all(
                        h.has_edge(a, b) for a, b in combinations(subset, 2)
                    ):
                        in_max_clique.update(subset)
                verdict = is_absolute_retract(h)
                assert verdict.is_absolute == (len(in_max_clique) == h.n)
                if not verdict.is_absolute:
                    assert set(verdict.failing_vertices) == set(range(h.n)) - in_max_clique


class TestCounterexamples:
    def test_refused_on_absolute(self):
        with pytest.raises(ValueError):
            counterexample_embedding(K(3))

    def test_construction_properties(self):
        for n in range(2, 7):
            for h in all_connected_cographs(n):
                verdict = is_absolute_retract(h)
                if verdict.is_absolute:
                    continue
                g = verdict.counterexample
                assert g.n == h.n + 1
                sub, _ = induced_subgraph(g, range(h.n))
                assert sub == h
                assert brute_clique(g) == brute_clique(h)
                answer = partitioned_retract(
                    PartitionedInstance(g, frozenset(range(h.n)))
                )
                assert isinstance(answer, NoRetract)

    def test_twin_cotree_realizes_the_counterexample(self):
        for n in range(2, 7):
            for h in all_connected_cographs(n):
                verdict = is_absolute_retract(h)
                if verdict.is_absolute:
                    continue
                g = verdict.counterexample
                twin = next(
                    v for v in g.adjacency[n] if g.adjacency[v] - {n} == g.adjacency[n] - {v}
                )
                tree = _objects(_with_true_twin(_arrays(build_cotree(h)), twin))
                assert cotree_to_graph(tree) == g
                assert tree == normalize(tree)

    def test_general_retract_also_fails_small(self):
        # beyond the inclusion-fixing certificate: no retraction at all
        for n in range(2, 6):
            for h in all_connected_cographs(n):
                verdict = is_absolute_retract(h)
                if verdict.is_absolute:
                    continue
                assert isinstance(brute_retract(verdict.counterexample, h), NoRetract)


class TestDiameter:
    def test_connected_cographs_have_diameter_at_most_two(self):
        for n in range(1, 7):
            for h in all_connected_cographs(n):
                for v in range(h.n):
                    assert max(bfs_distances(h, v)) <= 2
