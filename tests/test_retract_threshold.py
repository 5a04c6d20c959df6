from __future__ import annotations

import itertools
import random
from dataclasses import replace

import pytest
from click.testing import CliRunner

from cogret import retract_threshold as threshold_module
from cogret.cli import main
from cogret.graph_core import (
    Graph,
    NoRetract,
    RetractCertificate,
    format_edge_list,
    relabel,
    verify_retract_certificate,
)
from cogret.oracle import brute_clique, brute_retract
from cogret.retract_cograph import retract
from cogret.retract_threshold import (
    ISOLATED,
    NotThresholdError,
    UNIVERSAL,
    EliminationOrder,
    _certified,
    _degree_order,
    _eliminates,
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


def eliminates(g: Graph, order) -> bool:
    """Whether each step removes a vertex still present that is universal
    or isolated, as tagged, in what remains, until nothing remains."""
    remaining = set(range(g.n))
    for v, tag in order.steps:
        if v not in remaining:
            return False
        remaining.remove(v)
        degree_inside = len(g.adjacency[v] & remaining)
        if tag == UNIVERSAL:
            if degree_inside != len(remaining):
                return False
        elif tag != ISOLATED or degree_inside:
            return False
    return not remaining


class TestElimination:
    def test_paw(self):
        order = threshold_elimination(PAW)
        assert order is not None
        assert eliminates(PAW, order)
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
                assert eliminates(g, order)

    def test_random_validity(self):
        for seed in range(80):
            g = random_threshold_graph(seed % 30 + 1, seed)
            order = threshold_elimination(g)
            assert order is not None
            assert eliminates(g, order)

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


def labelled_threshold_graphs(n: int) -> list[Graph]:
    """Every threshold graph on vertices 0..n-1: each isomorphism class
    under every relabelling, once."""
    if n == 0:
        return [Graph(0)]
    graphs: dict[frozenset, Graph] = {}
    for g in all_threshold_graphs(n):
        for perm in itertools.permutations(range(n)):
            r = relabel(g, perm)
            graphs.setdefault(frozenset(r.edges()), r)
    return list(graphs.values())


def realize(steps, n: int) -> Graph:
    """The graph an elimination order describes: u ~ v exactly when the
    one removed first is universal."""
    edges, later = [], []
    for v, tag in reversed(steps):
        if tag == UNIVERSAL:
            edges.extend((v, u) for u in later)
        later.append(v)
    return Graph(n, edges)


def twinned(h: Graph, extra: int, rng: random.Random) -> Graph:
    """h with extra false twins of vertices at its isolated steps, relabelled
    at random.  A twin at an isolated step keeps the graph threshold and
    folds onto its original, so h is a retract of the result."""
    steps = list(threshold_elimination(h).steps)
    for t in range(extra):
        at = rng.choice([k for k, (_, tag) in enumerate(steps) if tag == ISOLATED])
        steps.insert(at + 1, (h.n + t, ISOLATED))
    n = h.n + extra
    perm = list(range(n))
    rng.shuffle(perm)
    return relabel(realize(steps, n), perm)


def mutated(cert: RetractCertificate, n_g: int, n_h: int, rng: random.Random):
    """Copies of cert with one rho or gamma entry changed, two entries
    swapped, an entry negative or out of range, or a wrong length."""
    for field, into in (("rho", n_h), ("gamma", n_g)):
        seq = list(getattr(cert, field))
        variants = [seq[:-1], seq + seq[:1]]
        for _ in range(3):
            i, j = rng.randrange(len(seq)), rng.randrange(len(seq))
            changed, swapped = seq.copy(), seq.copy()
            changed[i] = (seq[i] + rng.randrange(1, into)) % into if into > 1 else 0
            swapped[i], swapped[j] = seq[j], seq[i]
            variants += [changed, swapped]
        for bad in (-1, into, into + 7):
            out_of_range = seq.copy()
            out_of_range[rng.randrange(len(seq))] = bad
            variants.append(out_of_range)
        for values in variants:
            yield replace(cert, **{field: tuple(values)})


def broken_orders(order: EliminationOrder, other: EliminationOrder, rng: random.Random):
    """Orders that fail to eliminate the graph order eliminates: a tag
    flipped before the last step, a universal step swapped with an isolated
    one, a repeated vertex, and the other graph's order."""
    steps = list(order.steps)
    n = len(steps)
    flipped = list(steps)
    i = rng.randrange(n - 1)
    v, tag = steps[i]
    flipped[i] = (v, ISOLATED if tag == UNIVERSAL else UNIVERSAL)
    yield EliminationOrder(tuple(flipped))
    universal = [k for k, (_, tag) in enumerate(steps) if tag == UNIVERSAL]
    isolated = [k for k, (_, tag) in enumerate(steps[:-1]) if tag == ISOLATED]
    if universal and isolated:
        i, k = rng.choice(universal), rng.choice(isolated)
        swapped = list(steps)
        swapped[i], swapped[k] = steps[k], steps[i]
        yield EliminationOrder(tuple(swapped))
    repeated = list(steps)
    i, k = rng.sample(range(n), 2)
    repeated[k] = (steps[i][0], steps[k][1])
    yield EliminationOrder(tuple(repeated))
    if other.steps != order.steps:
        yield other


class TestCertifiedOnOrders:
    """_certified, the threshold solver's own check, against the public
    edge-by-edge verify_retract_certificate."""

    def test_every_certificate_up_to_three_vertices(self):
        graphs = [(g, threshold_elimination(g)) for n in range(4) for g in labelled_threshold_graphs(n)]
        checked = accepted = 0
        for (g, og), (h, oh) in itertools.product(graphs, repeat=2):
            for rho in itertools.product(range(h.n), repeat=g.n):
                for gamma in itertools.product(range(g.n), repeat=h.n):
                    cert = RetractCertificate(rho=rho, gamma=gamma)
                    expected = verify_retract_certificate(g, h, cert)
                    assert _certified(g, h, og, oh, cert) == expected, (g, h, cert)
                    checked += 1
                    accepted += expected
        assert (checked, accepted) == (49082, 95)

    def test_sampled_certificates_on_four_vertices(self):
        rng = random.Random("certified-four")
        four = [(g, threshold_elimination(g)) for g in labelled_threshold_graphs(4)]
        small = [(g, threshold_elimination(g)) for n in range(1, 5) for g in labelled_threshold_graphs(n)]
        accepted = 0
        for (g, og), (h, oh) in itertools.chain(
            itertools.product(four, small), itertools.product(small, four)
        ):
            result = threshold_retract(g, h)
            certs = [RetractCertificate(
                rho=tuple(rng.randrange(h.n) for _ in range(g.n)),
                gamma=tuple(rng.randrange(g.n) for _ in range(h.n)),
            ) for _ in range(2)]
            if isinstance(result, RetractCertificate):
                certs.append(result)
                certs.extend(mutated(result, g.n, h.n, rng))
            for cert in certs:
                expected = verify_retract_certificate(g, h, cert)
                assert _certified(g, h, og, oh, cert) == expected, (g, h, cert)
                accepted += expected
        assert accepted > 1000

    @pytest.mark.parametrize(
        "n, extra, dense",
        [(50, 9, True), (120, 30, True), (300, 40, False), (800, 150, False), (2000, 60, False)],
    )
    def test_mutated_certificates_on_relabelled_pairs(self, n, extra, dense):
        rng = random.Random(f"certified-{n}")
        for seed in range(3):
            h = (random_threshold_graph if dense else sparse_random_threshold_graph)(n, seed)
            perm = list(range(n))
            rng.shuffle(perm)
            h = relabel(h, perm)
            for g in (twinned(h, extra, rng), twinned(h, 0, rng)):
                result = threshold_retract(g, h)
                assert isinstance(result, RetractCertificate)
                og, oh = threshold_elimination(g), threshold_elimination(h)
                verdicts = []
                for cert in (result, *mutated(result, g.n, h.n, rng)):
                    expected = verify_retract_certificate(g, h, cert)
                    assert _certified(g, h, og, oh, cert) == expected, cert
                    verdicts.append(expected)
                assert verdicts[0] and not all(verdicts)
                for bad in broken_orders(og, oh, rng):
                    assert not eliminates(g, bad)
                    assert not _eliminates(g, bad)
                    assert not _certified(g, h, bad, oh, result)
                for bad in broken_orders(oh, og, rng):
                    assert not eliminates(h, bad)
                    assert not _certified(g, h, og, bad, result)

    def test_eliminates_matches_the_residue_check(self):
        rng = random.Random("eliminates-orders")
        for n in range(1, 60):
            g = random_threshold_graph(n, n) if n % 2 else sparse_random_threshold_graph(n, n)
            order = threshold_elimination(g)
            for _ in range(20):
                steps = list(order.steps)
                i, k = rng.randrange(n), rng.randrange(n)
                what = rng.randrange(3)
                if what == 0:
                    steps[i], steps[k] = steps[k], steps[i]
                elif what == 1:
                    steps[i] = (steps[i][0], rng.choice((ISOLATED, UNIVERSAL)))
                else:
                    steps[i] = (steps[k][0], steps[i][1])
                bad = EliminationOrder(tuple(steps))
                assert _eliminates(g, bad) == eliminates(g, bad), bad

    def test_eliminates_on_every_graph_and_order_up_to_four_vertices(self):
        accepted = 0
        for n in range(5):
            pairs = list(itertools.combinations(range(n), 2))
            for chosen in itertools.product((False, True), repeat=len(pairs)):
                g = Graph(n, itertools.compress(pairs, chosen))
                for perm in itertools.permutations(range(n)):
                    for tags in itertools.product((ISOLATED, UNIVERSAL), repeat=n):
                        order = EliminationOrder(tuple(zip(perm, tags)))
                        expected = eliminates(g, order)
                        assert _eliminates(g, order) == expected, (g, order)
                        accepted += expected
        assert accepted == 443  # the orders that do eliminate their graph
    def test_solver_refuses_a_bad_certificate(self, monkeypatch, tmp_path):
        def swapping(rho, gamma):  # the solver's certificate, two rho entries swapped
            rho = (rho[1], rho[0]) + rho[2:]
            return RetractCertificate(rho=rho, gamma=gamma)

        assert threshold_retract(PAW, PAW).rho[:2] == (0, 1)
        monkeypatch.setattr(threshold_module, "RetractCertificate", swapping)
        with pytest.raises(AssertionError, match="threshold solver produced an invalid certificate"):
            threshold_retract(PAW, PAW)
        path = tmp_path / "paw.el"
        path.write_text(format_edge_list(PAW))
        result = CliRunner().invoke(main, ["retract", "--solver", "threshold", str(path), str(path)])
        assert result.exit_code == 2, result.output
        assert "Error: internal error: threshold solver produced an invalid certificate" in result.output
