from __future__ import annotations

import random
import sys
from itertools import combinations

import pytest

from cogret.matching import (
    BipartiteInstance,
    Matching,
    max_matching,
    saturates_right,
)

from tests.helpers import reference_max_matching


def brute_max_matching_size(inst: BipartiteInstance) -> int:
    """Exponential reference: try every subset of edges."""
    best = 0
    edges = list(inst.edges)
    for k in range(min(inst.p, inst.q), 0, -1):
        for subset in combinations(edges, k):
            lefts = {u for u, _ in subset}
            rights = {v for _, v in subset}
            if len(lefts) == k and len(rights) == k:
                return k
    return best


def test_complete_3x3():
    inst = BipartiteInstance(p=3, q=3, edges=tuple((i, j) for i in range(3) for j in range(3)))
    m = max_matching(inst)
    assert m.size == 3
    assert saturates_right(m, 3)


def test_shared_right_vertex():
    inst = BipartiteInstance(p=2, q=1, edges=((0, 0), (1, 0)))
    assert max_matching(inst).size == 1


def test_empty():
    assert max_matching(BipartiteInstance(p=0, q=0, edges=())).size == 0


def test_against_brute_force():
    rng = random.Random("matching-vs-brute")
    for _ in range(200):
        p = rng.randint(1, 8)
        q = rng.randint(1, 8)
        edges = tuple(
            (u, v)
            for u in range(p)
            for v in range(q)
            if rng.random() < 0.35
        )
        inst = BipartiteInstance(p=p, q=q, edges=edges)
        got = max_matching(inst)
        assert got.size == brute_max_matching_size(inst)
        # matching validity
        assert len({u for u, _ in got.pairs}) == got.size
        assert len({v for _, v in got.pairs}) == got.size
        assert set(got.pairs) <= set(edges)
        assert got.size <= min(p, q)


def test_deterministic():
    edges = ((0, 1), (0, 0), (1, 0), (2, 1), (2, 2))
    inst = BipartiteInstance(p=3, q=3, edges=edges)
    assert max_matching(inst) == max_matching(inst)


def test_saturates_right():
    assert saturates_right(Matching(pairs=((0, 0), (1, 1), (2, 2))), 3)
    assert not saturates_right(Matching(pairs=()), 1)
    inst = BipartiteInstance(p=2, q=2, edges=((0, 0), (1, 0)))
    assert not saturates_right(max_matching(inst), 2)


def test_invalid_instances_rejected():
    with pytest.raises(ValueError):
        BipartiteInstance(p=1, q=1, edges=((0, 1),))
    with pytest.raises(ValueError):
        BipartiteInstance(p=2, q=2, edges=((0, 0), (0, 0)))


def test_same_pairs_as_recursive_search():
    rng = random.Random("matching-vs-recursive")
    for trial in range(300):
        p, q = rng.randint(0, 40), rng.randint(0, 40)
        density = rng.choice((0.05, 0.15, 0.4, 0.9))
        edges = [(u, v) for u in range(p) for v in range(q) if rng.random() < density]
        rng.shuffle(edges)
        inst = BipartiteInstance(p=p, q=q, edges=tuple(edges))
        assert max_matching(inst).pairs == reference_max_matching(inst).pairs, trial


def test_private_core_equals_recursive_search():
    # max_matching runs the core alone, here on edges in (left, right) order
    rng = random.Random("matching-core")
    for trial in range(400):
        p, q = rng.randint(0, 30), rng.choice((1, 2, rng.randint(0, 30)))
        density = rng.choice((0.05, 0.15, 0.4, 0.9))
        edges = [(u, v) for u in range(p) for v in range(q) if rng.random() < density]
        inst = BipartiteInstance(p=p, q=q, edges=tuple(edges))
        assert max_matching(inst).pairs == reference_max_matching(inst).pairs, trial


def _chain(k: int) -> BipartiteInstance:
    """Left i sees rights i and i + 1 for i < k, and left k sees right 0:
    the first phase matches i to i, so the second augments along all k."""
    edges = [(i, j) for i in range(k) for j in (i, i + 1)] + [(k, 0)]
    return BipartiteInstance(p=k + 1, q=k + 1, edges=tuple(edges))


def test_long_augmenting_path_without_recursion():
    small = _chain(50)
    assert max_matching(small).pairs == reference_max_matching(small).pairs
    inst = _chain(3000)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        m = max_matching(inst)
    finally:
        sys.setrecursionlimit(limit)
    assert m.pairs == tuple((i, i + 1) for i in range(3000)) + ((3000, 0),)
