from __future__ import annotations

import random
import sys

import pytest

from cogret.graph_core import (
    Graph,
    NoRetract,
    RetractCertificate,
    induced_subgraph,
    verify_retract_certificate,
)
from cogret.cotree import _arrays, build_cotree
from cogret.retract_cograph import _CotreePairs, retract
from cogret.oracle import brute_retract
from cogret.retract_threshold import threshold_retract
from cogret.retract_tp import (
    NotTriviallyPerfectError,
    tp_retract,
    universal_vertices,
)

from tests.helpers import (
    BUTTERFLY,
    C4,
    K1,
    K3,
    P4,
    PAW,
    TWO_K2,
    all_threshold_graphs,
    all_tp_graphs,
    graph_union,
    random_tp_graph,
    universal_isolated_chain,
)


class TestUniversalVertices:
    def test_butterfly_hub(self):
        assert universal_vertices(BUTTERFLY) == (0,)

    def test_k3_all(self):
        assert universal_vertices(K3) == (0, 1, 2)

    def test_2k2_none(self):
        assert universal_vertices(TWO_K2) == ()


class TestTpRetract:
    def test_butterfly_k3_yes(self):
        cert = tp_retract(BUTTERFLY, K3)
        assert isinstance(cert, RetractCertificate)
        assert verify_retract_certificate(BUTTERFLY, K3, cert)

    def test_butterfly_paw_no(self):
        result = tp_retract(BUTTERFLY, PAW)
        assert isinstance(result, NoRetract)

    def test_identity(self):
        assert tp_retract(BUTTERFLY, BUTTERFLY) == RetractCertificate(
            rho=(0, 1, 2, 3, 4), gamma=(0, 1, 2, 3, 4)
        )

    def test_class_check(self):
        with pytest.raises(NotTriviallyPerfectError):
            tp_retract(C4, K3)
        with pytest.raises(NotTriviallyPerfectError):
            tp_retract(BUTTERFLY, P4)

    def test_exhaustive_agreement_small(self):
        graphs_g = [g for n in range(1, 6) for g in all_tp_graphs(n)]
        graphs_h = [h for n in range(1, 5) for h in all_tp_graphs(n)]
        for g in graphs_g:
            for h in graphs_h:
                fast = tp_retract(g, h)
                slow = brute_retract(g, h)
                assert isinstance(fast, NoRetract) == isinstance(slow, NoRetract), (
                    list(g.edges()),
                    list(h.edges()),
                )
                if isinstance(fast, RetractCertificate):
                    assert verify_retract_certificate(g, h, fast)

    def test_random_agreement(self):
        rng = random.Random("tp-random")
        for _ in range(250):
            g = random_tp_graph(rng.randint(1, 8), rng.randrange(10 ** 6))
            h = random_tp_graph(rng.randint(1, 6), rng.randrange(10 ** 6))
            fast = tp_retract(g, h)
            slow = brute_retract(g, h)
            assert isinstance(fast, NoRetract) == isinstance(slow, NoRetract)

    def test_agrees_with_threshold_solver(self):
        graphs_g = [g for n in range(1, 7) for g in all_threshold_graphs(n)]
        graphs_h = [h for n in range(1, 5) for h in all_threshold_graphs(n)]
        for g in graphs_g:
            for h in graphs_h:
                via_tp = tp_retract(g, h)
                via_threshold = threshold_retract(g, h)
                assert isinstance(via_tp, NoRetract) == isinstance(
                    via_threshold, NoRetract
                )

    def test_no_reasons_are_informative(self):
        codes = {
            "universal-count",
            "clique-mismatch",
            "matching-deficit",
            "unmatched-component",
        }
        assert tp_retract(BUTTERFLY, PAW).reason in codes
        graphs_g = [g for n in range(1, 6) for g in all_tp_graphs(n)]
        graphs_h = [h for n in range(1, 5) for h in all_tp_graphs(n)]
        for g in graphs_g:
            for h in graphs_h:
                result = tp_retract(g, h)
                if isinstance(result, NoRetract):
                    assert result.reason in codes, (list(g.edges()), list(h.edges()))


def test_deep_chain_pairs_answer_at_the_default_recursion_limit():
    # the solver recurses twice per cotree level; 450 levels must leave
    # room under the default limit of 1000 frames
    g = universal_isolated_chain(TWO_K2, 450)
    patterns = [
        g,
        induced_subgraph(g, range(g.n - 1))[0],
        universal_isolated_chain(Graph(3, [(0, 1)]), 450),
    ]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        answers = [retract(g, h) for h in patterns]
    finally:
        sys.setrecursionlimit(limit)
    assert [route for _, route in answers] == ["tp"] * 3
    assert isinstance(answers[0][0], RetractCertificate)
    assert isinstance(answers[1][0], RetractCertificate)
    assert answers[2][0] == NoRetract("matching-deficit")


def test_deep_chain_certificate_needs_no_recursion():
    # certify walks the plans on a stack of its own, not one frame per
    # level; the chain against itself is certified on isomorphic pairs alone
    chain = universal_isolated_chain(TWO_K2, 450)
    pairs = [(universal_isolated_chain(graph_union(TWO_K2, K1), 450), chain), (chain, chain)]
    for g, h in pairs:
        solver = _CotreePairs(_arrays(build_cotree(g)), _arrays(build_cotree(h)))
        b = solver.hlab[-1]
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            assert not isinstance(solver.decide(solver.glab[-1], b), str)
            sys.setrecursionlimit(200)
            rho: dict[int, int] = {}
            gamma: dict[int, int] = {}
            solver.certify(solver.g.root, (solver.h.root,), b, rho, gamma)
        finally:
            sys.setrecursionlimit(limit)
        cert = RetractCertificate(
            rho=tuple(rho[v] for v in range(g.n)), gamma=tuple(gamma[y] for y in range(h.n))
        )
        assert verify_retract_certificate(g, h, cert)
    assert solver.glab[-1] == b  # the second pair's labels are equal at the root
