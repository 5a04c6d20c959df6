"""Answer digests: every certificate, NO reason and NO detail of the
deterministic solvers over fixed instance families, hashed, so a rewrite
that changes any answer fails here even where the answer stays valid."""

from __future__ import annotations

import hashlib
import random

from cogret import retract_cograph
from cogret.cotree import build_cotree, classify
from cogret.graph_core import induced_subgraph, random_cograph, relabel
from cogret.retract_cograph import PartitionedInstance, partitioned_retract, retract
from cogret.retract_threshold import UNIVERSAL, threshold_elimination, threshold_retract

from tests.helpers import (
    MultisetCotreePairs,
    all_cographs,
    all_threshold_graphs,
    random_graph,
    random_omega_preserving_extension,
    random_threshold_graph,
    random_tp_graph,
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
    # the equal-count path must make the multiset search's decisions
    joins = [0]
    multiset = MultisetCotreePairs._decide_equal

    def counted(self, a, b):
        joins[0] += 1
        return multiset(self, a, b)

    monkeypatch.setattr(MultisetCotreePairs, "_decide_equal", counted)
    monkeypatch.setattr(retract_cograph, "_CotreePairs", MultisetCotreePairs)
    assert digest(cotree_pair_answers()) == COTREE_PAIR_DIGEST
    assert joins[0] > 1000


def test_classify_answers_are_pinned():
    answers = list(classify_answers())
    assert len(answers) == 287 + 300
    assert digest(answers) == CLASSIFY_DIGEST


def _logged(solver_class):
    class Logged(solver_class):
        """Records every decide call, memo hits included."""

        def decide(self, a, b):
            self.calls.append((a, b))
            return super().decide(a, b)

    return Logged


def test_equal_count_joins_make_the_multiset_search_calls():
    # the same decide calls in the same order, so the same memo and the
    # same labels interned for joined pattern parts
    for g, h in seeded_cotree_pairs(400):
        tg, th = build_cotree(g), build_cotree(h)
        runs = []
        for solver_class in (retract_cograph._CotreePairs, MultisetCotreePairs):
            solver = _logged(solver_class)(tg, th)
            solver.calls = []
            solver.decide(solver.label(tg), solver.label(th))
            runs.append((solver.calls, list(solver.memo.items()), solver.kids))
        assert runs[0] == runs[1]


PARTITIONED_DIGEST = "d5d5088c45e588413f48fce9d86596f705068fd2f41dbdf9ee8246f94f740b6c"
THRESHOLD_DIGEST = "97dd91c0d985b7c5da8b70e4dd9bfaeaace27306e4dc8180dfe24bf61aa6e3cc"
COTREE_PAIR_DIGEST = "3b72f09628fa9d9a9aa43130b42a2aacb36129f76dcfb5a8f885170ae3996e05"
CLASSIFY_DIGEST = "9ec6b64e8f4a70c91c86ea06533d4ed93806db28f67bf088c32201a5f82c1496"
