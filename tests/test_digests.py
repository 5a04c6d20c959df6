"""Answer digests: every certificate, NO reason and NO detail of two
deterministic solvers over fixed instance families, hashed, so a rewrite
that changes any answer fails here even where the answer stays valid."""

from __future__ import annotations

import hashlib
import random

from cogret.graph_core import induced_subgraph, relabel
from cogret.retract_cograph import PartitionedInstance, partitioned_retract
from cogret.retract_threshold import UNIVERSAL, threshold_elimination, threshold_retract

from tests.helpers import (
    all_cographs,
    all_threshold_graphs,
    random_threshold_graph,
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


def test_partitioned_answers_are_pinned():
    answers = list(partitioned_answers())
    assert len(answers) == 5087
    assert digest(answers) == PARTITIONED_DIGEST


def test_threshold_answers_are_pinned():
    answers = list(threshold_answers())
    assert len(answers) == 127 * 63 + 600
    assert digest(answers) == THRESHOLD_DIGEST


PARTITIONED_DIGEST = "d5d5088c45e588413f48fce9d86596f705068fd2f41dbdf9ee8246f94f740b6c"
THRESHOLD_DIGEST = "97dd91c0d985b7c5da8b70e4dd9bfaeaace27306e4dc8180dfe24bf61aa6e3cc"
