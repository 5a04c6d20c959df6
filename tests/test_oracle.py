from __future__ import annotations

import random

import pytest

from cogret.folding import verify_fold_sequence
from cogret.graph_core import (
    Graph,
    NoRetract,
    RetractCertificate,
    compose_certificates,
    random_cograph,
    verify_retract_certificate,
)
from cogret.oracle import (
    BudgetExceededError,
    SearchBudget,
    _Meter,
    brute_achromatic,
    brute_chromatic,
    brute_clique,
    brute_folding_number,
    brute_folds_onto,
    brute_hom,
    brute_partitioned_retract,
    brute_retract,
    canonical_graph_key,
)

from tests.helpers import (
    BUTTERFLY,
    C4,
    K,
    K1,
    K2,
    K3,
    P4,
    PAW,
    TWO_K2,
    all_graphs,
    cycle,
    random_graph,
    reference_brute_chromatic,
)


class TestBruteRetract:
    def test_butterfly_k3_yes_and_verifies(self):
        cert = brute_retract(BUTTERFLY, K3)
        assert isinstance(cert, RetractCertificate)
        assert verify_retract_certificate(BUTTERFLY, K3, cert)

    def test_butterfly_paw_no(self):
        assert isinstance(brute_retract(BUTTERFLY, PAW), NoRetract)

    def test_identity(self):
        cert = brute_retract(PAW, PAW)
        assert isinstance(cert, RetractCertificate)

    def test_pattern_larger_is_immediate_no(self):
        assert isinstance(brute_retract(K2, K3), NoRetract)

    def test_yes_implies_equal_invariants(self):
        rng = random.Random("retract-invariants")
        seen_yes = 0
        for _ in range(150):
            g = random_cograph(rng.randint(1, 7), rng.randrange(10 ** 6))
            h = random_cograph(rng.randint(1, 5), rng.randrange(10 ** 6))
            result = brute_retract(g, h)
            if isinstance(result, RetractCertificate):
                seen_yes += 1
                assert brute_hom(g, h) is not None
                assert brute_clique(g) == brute_clique(h)
                assert brute_chromatic(g) == brute_chromatic(h)
        assert seen_yes > 10

    def test_transitivity_via_composition(self):
        rng = random.Random("retract-transitivity")
        checked = 0
        for _ in range(60):
            g = random_cograph(rng.randint(2, 6), rng.randrange(10 ** 6))
            a = _random_retract_of(g, rng)
            b = _random_retract_of(a, rng)
            cert_ga = brute_retract(g, a)
            cert_ab = brute_retract(a, b)
            assert isinstance(cert_ga, RetractCertificate)
            assert isinstance(cert_ab, RetractCertificate)
            checked += 1
            composed = compose_certificates(cert_ga, cert_ab)
            assert verify_retract_certificate(g, b, composed)
            assert isinstance(brute_retract(g, b), RetractCertificate)
        assert checked == 60


class TestBruteHom:
    def test_c4_k2(self):
        phi = brute_hom(C4, K2)
        assert phi is not None
        for u, v in C4.edges():
            assert K2.has_edge(phi[u], phi[v])

    def test_k3_k2_no(self):
        assert brute_hom(K3, K2) is None

    def test_edgeless_to_k1(self):
        assert brute_hom(Graph(3), K1) == (0, 0, 0)


class TestBruteCliqueChromatic:
    def test_examples(self):
        assert brute_clique(BUTTERFLY) == 3
        assert brute_chromatic(C4) == 2
        assert brute_clique(K1) == 1
        assert brute_chromatic(P4) == 2
        assert brute_clique(K(5)) == brute_chromatic(K(5)) == 5

    def test_clique_at_most_chromatic(self):
        for seed in range(120):
            g = random_graph(seed % 8 + 1, seed, p=0.5)
            assert brute_clique(g) <= brute_chromatic(g)

    def test_chromatic_ticks_as_the_recursive_search(self, monkeypatch):
        # the same answer after the same number of states, so every state
        # cap trips at the same point as in the recursive first version
        ticks = [0]
        tick = _Meter.tick

        def counted(meter):
            ticks[0] += 1
            tick(meter)

        monkeypatch.setattr(_Meter, "tick", counted)
        for g in all_graphs(6):
            runs = []
            for search in (brute_chromatic, reference_brute_chromatic):
                ticks[0] = 0
                runs.append((search(g), ticks[0]))
                if ticks[0]:
                    with pytest.raises(BudgetExceededError):
                        search(g, SearchBudget(max_vertices=16, max_states=ticks[0] - 1))
            assert runs[0] == runs[1], list(g.edges())


class TestBruteAchromatic:
    def test_2k2_is_2(self):
        value, coloring = brute_achromatic(TWO_K2)
        assert value == 2
        assert len(coloring.classes) == 2

    def test_k3(self):
        assert brute_achromatic(K3)[0] == 3

    def test_k1(self):
        assert brute_achromatic(K1)[0] == 1

    def test_p4(self):
        # classes {0,3},{1},{2} are pairwise adjacent
        assert brute_achromatic(P4)[0] == 3

    def test_witness_is_complete_coloring(self):
        for seed in range(60):
            g = random_graph(seed % 7 + 1, seed, p=0.5)
            value, coloring = brute_achromatic(g)
            classes = coloring.classes
            assert len(classes) == value
            assert sorted(v for cls in classes for v in cls) == list(range(g.n))
            for cls in classes:
                for i, u in enumerate(cls):
                    for v in cls[i + 1 :]:
                        assert not g.has_edge(u, v)
            for i, a in enumerate(classes):
                for b in classes[i + 1 :]:
                    assert any(g.has_edge(u, v) for u in a for v in b)

    def test_at_least_chromatic(self):
        for seed in range(80):
            g = random_graph(seed % 7 + 1, seed, p=0.4)
            assert brute_achromatic(g)[0] >= brute_chromatic(g)


class TestBruteFolding:
    def test_p4_folds_to_k2(self):
        value, seq = brute_folding_number(P4)
        assert value == 2
        assert verify_fold_sequence(P4, seq, K2)

    def test_k3_already_complete(self):
        value, seq = brute_folding_number(K3)
        assert value == 3 and seq.steps == ()

    def test_butterfly(self):
        value, seq = brute_folding_number(BUTTERFLY)
        assert value == 3
        assert verify_fold_sequence(BUTTERFLY, seq, K3)

    def test_disconnected_takes_max_component(self):
        g = Graph(5, [(0, 1), (0, 2), (1, 2)])  # K3 + 2 K1
        value, seq = brute_folding_number(g)
        assert value == 3
        assert set(seq.component) == {0, 1, 2}

    def test_witnesses_always_verify(self):
        rng = random.Random("folding-witness")
        for _ in range(60):
            g = random_graph(rng.randint(1, 7), rng.randrange(10 ** 6), p=0.45)
            value, seq = brute_folding_number(g)
            target = K(value)
            assert verify_fold_sequence(g, seq, target)

    def test_retraction_implies_folding_for_connected(self):
        rng = random.Random("retract-subsumption")
        checked = 0
        for _ in range(120):
            g = random_cograph(rng.randint(2, 6), rng.randrange(10 ** 6))
            if len(_components(g)) != 1:
                continue
            h = _random_retract_of(g, rng)
            assert isinstance(brute_retract(g, h), RetractCertificate)
            checked += 1
            assert brute_folds_onto(g, h)
        assert checked > 15


def _components(g: Graph):
    from cogret.graph_core import components

    return components(g)


def _random_retract_of(g: Graph, rng: random.Random) -> Graph:
    """An induced subgraph that is a retract of g (possibly g itself)."""
    from cogret.graph_core import induced_subgraph

    for _ in range(12):
        k = rng.randint(1, g.n)
        subset = rng.sample(range(g.n), k)
        sub, _ = induced_subgraph(g, subset)
        if isinstance(brute_retract(g, sub), RetractCertificate):
            return sub
    return g


class TestCanonicalGraphKey:
    def test_iso_invariance(self):
        rng = random.Random("canon")
        from cogret.graph_core import relabel

        for _ in range(200):
            n = rng.randint(1, 8)
            g = random_graph(n, rng.randrange(10 ** 6), p=0.5)
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_graph_key(g) == canonical_graph_key(relabel(g, perm))

    def test_distinguishes_same_degree_sequence(self):
        # C6 vs 2K3: both 2-regular on six vertices
        c6 = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
        two_k3 = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
        assert canonical_graph_key(c6) != canonical_graph_key(two_k3)

    def test_exhaustive_small_counts(self):
        # numbers of nonisomorphic graphs: 1, 2, 4, 11, 34
        from itertools import combinations

        for n, expected in [(1, 1), (2, 2), (3, 4), (4, 11), (5, 34)]:
            pairs = list(combinations(range(n), 2))
            keys = set()
            for mask in range(1 << len(pairs)):
                edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
                keys.add(canonical_graph_key(Graph(n, edges)))
            assert len(keys) == expected


class TestBudgets:
    def test_vertex_cap(self):
        with pytest.raises(BudgetExceededError):
            brute_retract(K(9), K3, SearchBudget(max_vertices=8))

    @pytest.mark.parametrize(
        "search, states",
        [
            (lambda b: brute_retract(K(8), K(4), b), 8800),
            (lambda b: brute_hom(cycle(7), K2, b), 26),
            (lambda b: brute_partitioned_retract(cycle(7), {0, 1, 2}, b), 18),
            (lambda b: brute_folding_number(cycle(7), b), 33),
            (lambda b: brute_folds_onto(cycle(7), K3, b), 32),
        ],
        ids=["retract", "hom", "partitioned", "folding-number", "folds-onto"],
    )
    def test_state_cap(self, search, states):
        """Each search finishes within exactly `states` expansions, so the
        order in which the shared searches tick stays pinned."""
        search(SearchBudget(max_vertices=8, max_states=states))
        with pytest.raises(BudgetExceededError, match=f"state cap {states - 1} exceeded"):
            search(SearchBudget(max_vertices=8, max_states=states - 1))

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            SearchBudget(max_vertices=0)
        with pytest.raises(ValueError):
            SearchBudget(max_seconds=-1)


class TestBrutePartitioned:
    def test_butterfly_cases(self):
        assert isinstance(
            brute_partitioned_retract(BUTTERFLY, {0, 1, 2}), RetractCertificate
        )
        assert isinstance(brute_partitioned_retract(BUTTERFLY, {0, 1, 2, 3}), NoRetract)

    def test_certificate_verifies(self):
        from cogret.graph_core import induced_subgraph

        cert = brute_partitioned_retract(BUTTERFLY, {0, 1, 2})
        h, _ = induced_subgraph(BUTTERFLY, {0, 1, 2})
        assert verify_retract_certificate(BUTTERFLY, h, cert)
