"""Acceptance suite: one test per criterion, each printing a pass line.

Every criterion is exact (verdict equality against an independent
brute-force search, or a stated slope bound); nothing is tuned after the
fact.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

from __future__ import annotations

import math
import random
import time
from itertools import combinations, combinations_with_replacement

import networkx as nx

from cogret.absolute import is_absolute_retract
from cogret.cotree import build_cotree, chromatic_number, cotree_to_graph
from cogret.folding import verify_fold_sequence
from cogret.graph_core import (
    Graph,
    NoRetract,
    RetractCertificate,
    compose_certificates,
    induced_subgraph,
    random_cograph,
    verify_retract_certificate,
)
from cogret.oracle import (
    brute_achromatic,
    brute_folding_number,
    brute_hom,
    brute_partitioned_retract,
    brute_retract,
)
from cogret.reduction import ThreePartitionInstance, brute_3partition, encode
from cogret.retract_cograph import (
    PartitionedInstance,
    fpt_retract,
    hom_exists,
    partitioned_retract,
)
from cogret.retract_threshold import threshold_retract
from cogret.retract_tp import tp_retract

from tests.helpers import (
    BUTTERFLY,
    K3,
    PAW,
    all_cographs,
    all_connected_cographs,
    all_threshold_graphs,
    all_tp_graphs,
    graph_join,
    random_omega_preserving_extension,
    random_tp_graph,
    sparse_random_threshold_graph,
)


def _report(criterion: str, detail: str) -> None:
    print(f"[acceptance] {criterion}: PASS ({detail})")


def _same_verdict(fast, slow) -> bool:
    return isinstance(fast, NoRetract) == isinstance(slow, NoRetract)


def test_criterion_1_threshold_solver_equivalence():
    hosts = [g for n in range(1, 8) for g in all_threshold_graphs(n)]
    patterns = [h for n in range(1, 6) for h in all_threshold_graphs(n)]
    pairs = yes = 0
    for g in hosts:
        for h in patterns:
            fast = threshold_retract(g, h)
            slow = brute_retract(g, h)
            assert _same_verdict(fast, slow), (list(g.edges()), list(h.edges()))
            if isinstance(fast, RetractCertificate):
                yes += 1
                assert verify_retract_certificate(g, h, fast)
            pairs += 1
    _report("criterion 1 (threshold equivalence)", f"{pairs} pairs, {yes} YES")


def test_criterion_2_tp_solver_equivalence():
    hosts = [g for n in range(1, 8) for g in all_tp_graphs(n)]
    patterns = [h for n in range(1, 6) for h in all_tp_graphs(n)]
    pairs = yes = 0
    for g in hosts:
        for h in patterns:
            fast = tp_retract(g, h)
            slow = brute_retract(g, h)
            assert _same_verdict(fast, slow), (list(g.edges()), list(h.edges()))
            if isinstance(fast, RetractCertificate):
                yes += 1
                assert verify_retract_certificate(g, h, fast)
            pairs += 1
    # the named example pair
    assert isinstance(tp_retract(BUTTERFLY, PAW), NoRetract)
    assert isinstance(tp_retract(BUTTERFLY, K3), RetractCertificate)
    _report("criterion 2 (trivially perfect equivalence)", f"{pairs} pairs, {yes} YES")


def test_criterion_3_fpt_solver_equivalence():
    hosts = [g for n in range(1, 8) for g in all_cographs(n)]
    patterns = [h for n in range(1, 5) for h in all_cographs(n)]
    pairs = 0
    for g in hosts:
        for h in patterns:
            fast = fpt_retract(g, h)
            slow = brute_retract(g, h)
            assert _same_verdict(fast, slow), (list(g.edges()), list(h.edges()))
            if isinstance(fast, RetractCertificate):
                assert verify_retract_certificate(g, h, fast)
            pairs += 1
    rng = random.Random("acceptance-fpt")
    for _ in range(2000):
        g = random_cograph(rng.randint(1, 8), rng.randrange(10 ** 9))
        h = random_cograph(rng.randint(1, 5), rng.randrange(10 ** 9))
        assert _same_verdict(fpt_retract(g, h), brute_retract(g, h))
    _report("criterion 3 (fpt equivalence)", f"{pairs} exhaustive + 2000 random pairs")


def test_criterion_4_partitioned_solver_equivalence():
    rng = random.Random("acceptance-partitioned")
    for _ in range(2000):
        g = random_cograph(rng.randint(1, 8), rng.randrange(10 ** 9))
        hset = frozenset(rng.sample(range(g.n), rng.randint(1, g.n)))
        fast = partitioned_retract(PartitionedInstance(g, hset))
        slow = brute_partitioned_retract(g, hset)
        assert _same_verdict(fast, slow), (list(g.edges()), sorted(hset))
        if isinstance(fast, RetractCertificate):
            h, _ = induced_subgraph(g, hset)
            assert verify_retract_certificate(g, h, fast)
    _report("criterion 4 (partitioned equivalence)", "2000 random instances")


def test_criterion_5_hom_lemma_validation():
    hosts = [g for n in range(1, 7) for g in all_cographs(n)]
    patterns = [h for n in range(1, 6) for h in all_cographs(n)]
    pairs = 0
    for g in hosts:
        for h in patterns:
            ok, witness = hom_exists(g, h)
            assert ok == (brute_hom(g, h) is not None), (
                list(g.edges()),
                list(h.edges()),
            )
            if ok:
                from cogret.graph_core import is_homomorphism

                assert is_homomorphism(g, h, witness)
            pairs += 1
    _report("criterion 5 (coloring-vs-clique hom test)", f"{pairs} pairs")


def _all_valid_instances(max_m: int, max_b: int):
    for m in range(1, max_m + 1):
        for b in range(1, max_b + 1):
            lo, hi = b // 4 + 1, (b + 1) // 2 - 1
            if hi < lo:
                continue
            for items in combinations_with_replacement(range(lo, hi + 1), 3 * m):
                if sum(items) == m * b:
                    yield ThreePartitionInstance(m=m, B=b, items=items)


def test_criterion_6_reduction_soundness():
    named_yes = ThreePartitionInstance(m=2, B=16, items=(5, 5, 5, 5, 6, 6))
    named_no = ThreePartitionInstance(m=2, B=16, items=(5, 5, 5, 5, 5, 7))
    instances = list(_all_valid_instances(2, 20))
    assert named_yes in instances and named_no in instances
    solvable = 0
    for inst in instances:
        pair = encode(inst)
        g = cotree_to_graph(pair.g)
        h = cotree_to_graph(pair.h)
        fast_yes = isinstance(fpt_retract(g, h), RetractCertificate)
        slow_yes = brute_3partition(inst) is not None
        assert fast_yes == slow_yes, inst
        solvable += fast_yes
    _report(
        "criterion 6 (3-partition reduction soundness)",
        f"{len(instances)} instances, {solvable} solvable",
    )


def test_criterion_7_folding_theorems():
    # (a) threshold graphs: chromatic = folding = achromatic, independently
    count_a = 0
    for n in range(1, 8):
        for g in all_threshold_graphs(n):
            chi = chromatic_number(build_cotree(g))
            sigma, seq = brute_folding_number(g)
            psi, _ = brute_achromatic(g)
            assert chi == sigma == psi, list(g.edges())
            assert verify_fold_sequence(
                g, seq, Graph(sigma, combinations(range(sigma), 2))
            )
            count_a += 1
    # (b) universal vertex: folding number equals achromatic number
    count_b = 0
    for atlas_graph in nx.graph_atlas_g():
        if atlas_graph.number_of_nodes() > 6:
            continue
        base = Graph(atlas_graph.number_of_nodes(), list(atlas_graph.edges()))
        g = graph_join(Graph(1), base)
        assert brute_folding_number(g)[0] == brute_achromatic(g)[0], list(g.edges())
        count_b += 1
    # (c) trees never fold past K2
    count_c = 0
    for n in range(1, 9):
        trees = (
            [Graph(1)]
            if n == 1
            else [Graph(n, list(t.edges())) for t in nx.nonisomorphic_trees(n)]
        )
        for g in trees:
            sigma, _ = brute_folding_number(g)
            assert sigma <= 2, list(g.edges())
            count_c += 1
    _report(
        "criterion 7 (folding theorems)",
        f"{count_a} threshold + {count_b} apex + {count_c} tree graphs",
    )


def test_criterion_8_absolute_retracts():
    # named example: the paw fails and its counterexample is the butterfly
    verdict = is_absolute_retract(PAW)
    assert not verdict.is_absolute
    from cogret.oracle import canonical_graph_key

    assert canonical_graph_key(verdict.counterexample) == canonical_graph_key(BUTTERFLY)
    assert isinstance(
        partitioned_retract(PartitionedInstance(verdict.counterexample, frozenset(range(4)))),
        NoRetract,
    )
    true_checked = false_checked = 0
    for n in range(1, 7):
        for h in all_connected_cographs(n):
            verdict = is_absolute_retract(h)
            if verdict.is_absolute:
                extensions = 0
                seed = 0
                while extensions < 500 and seed < 2000:
                    g = random_omega_preserving_extension(h, seed)
                    seed += 1
                    if g is None:
                        break  # K1 admits no proper extension
                    extensions += 1
                    result = partitioned_retract(
                        PartitionedInstance(g, frozenset(range(h.n)))
                    )
                    assert isinstance(result, RetractCertificate), (
                        list(h.edges()),
                        list(g.edges()),
                    )
                true_checked += 1
            else:
                g = verdict.counterexample
                assert g is not None and g.n == h.n + 1
                sub, _ = induced_subgraph(g, range(h.n))
                assert sub == h
                result = partitioned_retract(
                    PartitionedInstance(g, frozenset(range(h.n)))
                )
                assert isinstance(result, NoRetract)
                false_checked += 1
    _report(
        "criterion 8 (absolute retracts)",
        f"{true_checked} absolute with 500 extensions each, {false_checked} certified non-absolute",
    )


def _loglog_slope(xs: list[float], ys: list[float]) -> float:
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    n = len(lx)
    sx, sy = sum(lx), sum(ly)
    return (n * sum(a * b for a, b in zip(lx, ly)) - sx * sy) / (
        n * sum(a * a for a in lx) - sx * sx
    )


def _best_time(fn, repeats: int = 3) -> float:
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_criterion_9_scaling_sanity():
    # threshold solver: quasi-linear in input size up to n = 100000
    sizes, times = [], []
    for n in (6250, 12500, 25000, 50000, 100000):
        g = sparse_random_threshold_graph(n, seed=41, avg_degree=6.0)
        t = _best_time(lambda: threshold_retract(g, g))
        sizes.append(n + g.m)
        times.append(max(t, 1e-4))
    threshold_slope = _loglog_slope(sizes, times)
    assert threshold_slope <= 1.3, (threshold_slope, sizes, times)
    # trivially perfect solver: slope in N = |V(G)| * |V(H)| up to 2000 a side
    ns, ts = [], []
    for n in (250, 500, 1000, 2000):
        g = random_tp_graph(n, seed=17)
        t = _best_time(lambda: tp_retract(g, g), repeats=2)
        ns.append(n * n)
        ts.append(max(t, 1e-4))
    tp_slope = _loglog_slope(ns, ts)
    assert tp_slope <= 2.8, (tp_slope, ns, ts)
    _report(
        "criterion 9 (scaling sanity)",
        f"threshold slope {threshold_slope:.2f} <= 1.3, tp slope {tp_slope:.2f} <= 2.8",
    )


def _random_retract_of(g: Graph, rng: random.Random) -> Graph:
    for _ in range(12):
        subset = rng.sample(range(g.n), rng.randint(1, g.n))
        sub, _ = induced_subgraph(g, subset)
        if isinstance(brute_retract(g, sub), RetractCertificate):
            return sub
    return g


def test_criterion_10_certificate_algebra():
    rng = random.Random("acceptance-compose")
    for _ in range(500):
        g = random_cograph(rng.randint(1, 6), rng.randrange(10 ** 9))
        a = _random_retract_of(g, rng)
        b = _random_retract_of(a, rng)
        cert_ga = brute_retract(g, a)
        cert_ab = brute_retract(a, b)
        assert isinstance(cert_ga, RetractCertificate)
        assert isinstance(cert_ab, RetractCertificate)
        composed = compose_certificates(cert_ga, cert_ab)
        assert verify_retract_certificate(g, b, composed)
    _report("criterion 10 (certificate composition)", "500 sampled chains")
