from __future__ import annotations

import random
import sys
from itertools import combinations

import pytest

from cogret import cotree as cotree_module
from cogret.cotree import (
    COGRAPH,
    Internal,
    JOIN,
    Leaf,
    NOT_COGRAPH,
    NotCographError,
    THRESHOLD,
    TRIVIALLY_PERFECT,
    UNION,
    _PreparedGraph,
    _forest_cotree,
    _split_cotree,
    build_cotree,
    canonical_key,
    chromatic_number,
    classify,
    clique_number,
    cotree_leaves,
    cotree_to_graph,
    find_induced_p4,
    format_cotree,
    max_clique_leaves,
    normalize,
    omega_table,
    optimal_coloring,
    parse_cotree,
)
from cogret.graph_core import Graph, complement, induced_subgraph, random_cograph, relabel
from cogret.oracle import brute_clique, canonical_graph_key
from cogret.retract_threshold import threshold_elimination

from tests.helpers import (
    BUTTERFLY,
    C4,
    K1,
    P4,
    PAW,
    TWO_K2,
    all_cographs,
    all_cotrees,
    cotree_chain,
    cotree_shape,
    count_cotree_builds,
    random_cotree,
    random_forest_graph,
    random_graph,
    random_threshold_graph,
    random_tp_graph,
    reference_optimal_coloring,
    sparse_random_threshold_graph,
)


def _all_graphs(n: int) -> list[Graph]:
    pairs = list(combinations(range(n), 2))
    return [
        Graph(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
        for mask in range(1 << len(pairs))
    ]


# induced subgraphs on four vertices, by sorted degree sequence
_FOUR_VERTEX_KINDS = {(1, 1, 2, 2): "P4", (2, 2, 2, 2): "C4", (1, 1, 1, 1): "2K2"}
# the edges each witness must induce, as positions in the witness tuple:
# P4 in path order, C4 in cycle order, 2K2 as two pairs
_WITNESS_EDGES = {
    "P4": {(0, 1), (1, 2), (2, 3)},
    "C4": {(0, 1), (1, 2), (2, 3), (0, 3)},
    "2K2": {(0, 1), (2, 3)},
}


def _brute_class(g: Graph) -> str:
    """Smallest class by the forbidden induced subgraphs: P4 for cographs,
    C4 as well for trivially perfect graphs, 2K2 as well for threshold."""
    kinds = set()
    for quad in combinations(range(g.n), 4):
        degrees = tuple(sorted(sum(g.has_edge(v, u) for u in quad) for v in quad))
        kinds.add(_FOUR_VERTEX_KINDS.get(degrees))
    if "P4" in kinds:
        return NOT_COGRAPH
    if "C4" in kinds:
        return COGRAPH
    if "2K2" in kinds:
        return TRIVIALLY_PERFECT
    return THRESHOLD


class TestBuildCotree:
    def test_p4_rejected_with_witness(self):
        with pytest.raises(NotCographError) as err:
            build_cotree(P4)
        a, b, c, d = err.value.witness
        assert P4.has_edge(a, b) and P4.has_edge(b, c) and P4.has_edge(c, d)
        assert not (P4.has_edge(a, c) or P4.has_edge(a, d) or P4.has_edge(b, d))

    def test_single_vertex_is_leaf(self):
        assert build_cotree(K1) == Leaf(0)

    def test_butterfly_shape(self):
        assert format_cotree(build_cotree(BUTTERFLY)) == "J(0,U(J(1,2),J(3,4)))"

    def test_roundtrip_exhaustive_small(self):
        for n in range(1, 8):
            for g in all_cographs(n):
                assert cotree_to_graph(build_cotree(g)) == g

    def test_roundtrip_random_large(self):
        for seed in range(30):
            g = random_cograph(64, seed)
            assert cotree_to_graph(build_cotree(g)) == g

    def test_kinds_alternate(self):
        for seed in range(100):
            g = random_cograph(seed % 10 + 2, seed)
            stack = [(build_cotree(g), None)]
            while stack:
                node, parent_kind = stack.pop()
                if isinstance(node, Internal):
                    assert node.kind != parent_kind
                    assert len(node.children) >= 2
                    stack.extend((c, node.kind) for c in node.children)

    def test_complement_flips_kinds(self):
        def flip(node):
            if isinstance(node, Leaf):
                return node
            kind = UNION if node.kind == JOIN else JOIN
            return Internal(kind, tuple(flip(c) for c in node.children))

        for seed in range(60):
            g = random_cograph(seed % 9 + 2, seed)
            expected = canonical_key(flip(build_cotree(g)))
            assert canonical_key(build_cotree(complement(g))) == expected

    def test_children_ordered_by_smallest_leaf(self):
        graphs = [g for n in range(1, 8) for g in all_cographs(n)]
        graphs += [random_cograph(64, seed) for seed in range(30)]
        for g in graphs:
            stack = [build_cotree(g)]
            while stack:
                node = stack.pop()
                if isinstance(node, Internal):
                    firsts = [min(cotree_leaves(c)) for c in node.children]
                    assert firsts == sorted(firsts)
                    stack.extend(node.children)

    def test_deep_chain(self):
        # the chain with each node's children in smallest-leaf order
        expected: Leaf | Internal = Leaf(0)
        for i in range(1, 1201):
            expected = Internal(JOIN if i % 2 else UNION, (expected, Leaf(i)))
        built = build_cotree(cotree_to_graph(cotree_chain(1200)))
        assert cotree_shape(built) == cotree_shape(expected)

    def test_deep_non_cograph_names_its_p4(self):
        # vertices added universal or isolated lie on no induced P4
        edges = [(0, 1), (1, 2), (2, 3)]
        for v in range(4, 604):
            if v % 2 == 0:
                edges.extend((u, v) for u in range(v))
        with pytest.raises(NotCographError) as err:
            build_cotree(Graph(604, edges))
        assert err.value.witness == (0, 1, 2, 3)


def _shuffled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return relabel(g, perm)


def _count_splits(monkeypatch) -> list[int]:
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return split(*args)

    split = cotree_module._split
    monkeypatch.setattr(cotree_module, "_split", counted)
    return calls


class TestForestPass:
    """Trivially perfect graphs read their cotree off the rooted-forest
    model; the split builder is the reference."""

    def test_same_tree_on_every_small_cograph(self):
        rng = random.Random("forest-small")
        for n in range(1, 8):
            for g in all_cographs(n):
                for h in (g, _shuffled(g, rng), _shuffled(g, rng)):
                    assert build_cotree(h) == _split_cotree(h)

    def test_same_tree_on_random_tp_and_threshold_graphs(self):
        rng = random.Random("forest-large")
        graphs = [
            random_forest_graph(rng.randint(1, 2000 if i % 10 == 0 else 200), i)
            for i in range(200)
        ]
        graphs += [random_tp_graph(rng.randint(2, 300), seed) for seed in range(20)]
        graphs += [
            _shuffled(make(rng.randint(1, 300), seed), rng)
            for seed in range(20)
            for make in (random_threshold_graph, sparse_random_threshold_graph)
        ]
        for g in graphs:
            forest = _forest_cotree(g)
            assert forest is not None
            assert forest == _split_cotree(g)

    def test_accepts_exactly_the_trivially_perfect_graphs(self):
        for n in range(1, 6):
            for g in _all_graphs(n):
                tp = _brute_class(g) in (THRESHOLD, TRIVIALLY_PERFECT)
                assert (_forest_cotree(g) is not None) == tp, g.edges

    def test_split_builder_only_without_a_forest(self, monkeypatch):
        graphs = all_cographs(6)
        with_c4 = [C4] + [g for g in graphs if classify(g).name == COGRAPH]
        tp = [g for g in graphs if classify(g).name != COGRAPH]
        tp += [random_forest_graph(300, seed) for seed in range(5)]
        splits = _count_splits(monkeypatch)
        for g in tp:
            build_cotree(g)
        assert splits[0] == 0
        for g in with_c4:
            before = splits[0]
            build_cotree(g)
            assert splits[0] > before

    def test_deep_chain_without_recursion(self):
        g = cotree_to_graph(cotree_chain(1201))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            built = build_cotree(g)
        finally:
            sys.setrecursionlimit(limit)
        assert cotree_shape(built) == cotree_shape(_split_cotree(g))

    def test_p4_witnesses_unchanged(self):
        graphs = [g for g in _all_graphs(5) if _brute_class(g) == NOT_COGRAPH]
        graphs += [random_graph(40, seed, p) for seed in range(20) for p in (0.1, 0.5, 0.9)]
        for g in graphs:
            with pytest.raises(NotCographError) as built:
                build_cotree(g)
            with pytest.raises(NotCographError) as split:
                _split_cotree(g)
            assert built.value.witness == split.value.witness


class TestWitnessExtraction:
    def test_p4_free_returns_none(self):
        assert find_induced_p4(C4) is None
        assert find_induced_p4(BUTTERFLY) is None

    def test_random_noncographs(self):
        found = 0
        for seed in range(200):
            g = random_graph(seed % 8 + 4, seed, p=0.45)
            quad = find_induced_p4(g)
            if quad is None:
                continue
            found += 1
            a, b, c, d = quad
            sub, _ = induced_subgraph(g, quad)
            assert sub.m == 3
            assert g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(c, d)
        assert found > 100  # most random graphs contain a P4


class TestCotreeToGraph:
    def test_join_of_two_leaves(self):
        assert cotree_to_graph(Internal(JOIN, (Leaf(0), Leaf(1)))) == Graph(2, [(0, 1)])

    def test_union_of_two_leaves(self):
        assert cotree_to_graph(Internal(UNION, (Leaf(0), Leaf(1)))) == Graph(2)

    def test_item_gadget(self):
        # union of one leaf with a 2-clique: K2 plus an isolated vertex
        t = Internal(UNION, (Leaf(0), Internal(JOIN, (Leaf(1), Leaf(2)))))
        assert cotree_to_graph(t) == Graph(3, [(1, 2)])

    def test_duplicate_leaf_ids_rejected(self):
        with pytest.raises(ValueError):
            cotree_to_graph(Internal(JOIN, (Leaf(0), Leaf(0))))


class TestNormalize:
    def test_same_kind_merge(self):
        t = Internal(JOIN, (Internal(JOIN, (Leaf(0), Leaf(1))), Leaf(2)))
        assert normalize(t) == Internal(JOIN, (Leaf(0), Leaf(1), Leaf(2)))

    def test_single_child_collapse(self):
        t = Internal(UNION, (Leaf(0),))
        assert normalize(t) == Leaf(0)

    def test_idempotent_on_built_trees(self):
        for seed in range(50):
            t = build_cotree(random_cograph(seed % 9 + 1, seed))
            assert normalize(t) == t


class TestCliqueChromatic:
    def test_butterfly(self):
        t = build_cotree(BUTTERFLY)
        assert clique_number(t) == brute_clique(BUTTERFLY) == 3

    def test_k1(self):
        assert clique_number(Leaf(0)) == 1

    def test_paw(self):
        t = build_cotree(PAW)
        assert clique_number(t) == chromatic_number(t) == 3

    def test_matches_brute_force_exhaustively(self):
        for n in range(1, 9):
            for g in all_cographs(n):
                t = build_cotree(g)
                assert clique_number(t) == brute_clique(g)
                assert chromatic_number(t) == clique_number(t)

    def test_omega_within_pattern_exhaustively(self):
        for n in range(1, 7):
            for g in all_cographs(n):
                tree = build_cotree(g)
                for mask in range(1, 1 << n):
                    hset = frozenset(v for v in range(n) if mask >> v & 1)
                    h, _ = induced_subgraph(g, hset)
                    assert omega_table(tree, hset)[id(tree)] == clique_number(build_cotree(h))

    def test_optimal_coloring_is_proper_and_tight(self):
        for seed in range(80):
            g = random_cograph(seed % 10 + 1, seed)
            t = build_cotree(g)
            coloring = optimal_coloring(t)
            assert len(coloring) == g.n
            for u, v in g.edges():
                assert coloring[u] != coloring[v]
            assert max(coloring.values()) + 1 == chromatic_number(t)

    def test_optimal_coloring_matches_the_bottom_up_coloring(self):
        trees = [t for n in range(1, 8) for t in all_cotrees(n)]
        trees += [random_cotree(seed % 60 + 1, seed) for seed in range(200)]
        trees.append(cotree_chain(2000))
        for t in trees:
            assert optimal_coloring(t) == reference_optimal_coloring(t)

    def test_max_clique_leaves_is_a_max_clique(self):
        for seed in range(80):
            g = random_cograph(seed % 10 + 1, seed)
            t = build_cotree(g)
            clique = max_clique_leaves(t)
            assert len(clique) == clique_number(t)
            for i, u in enumerate(clique):
                for v in clique[i + 1 :]:
                    assert g.has_edge(u, v)


class TestClassify:
    def test_paw_threshold(self):
        assert classify(PAW).name == THRESHOLD

    def test_butterfly_tp_with_2k2_witness(self):
        cls = classify(BUTTERFLY)
        assert cls.name == TRIVIALLY_PERFECT
        assert cls.witness_kind == "2K2"
        a, b, c, d = cls.witness
        sub, _ = induced_subgraph(BUTTERFLY, {a, b, c, d})
        assert sub.m == 2 and BUTTERFLY.has_edge(a, b) and BUTTERFLY.has_edge(c, d)

    def test_c4_cograph_with_witness(self):
        cls = classify(C4)
        assert cls.name == COGRAPH and cls.witness_kind == "C4"
        sub, _ = induced_subgraph(C4, set(cls.witness))
        assert sub.n == 4 and sub.m == 4 and all(sub.degree(v) == 2 for v in range(4))

    def test_p4_not_cograph(self):
        cls = classify(P4)
        assert cls.name == NOT_COGRAPH and cls.witness_kind == "P4"

    def test_2k2_not_threshold(self):
        assert classify(TWO_K2).name == COGRAPH or classify(TWO_K2).name == TRIVIALLY_PERFECT
        assert classify(TWO_K2).name == TRIVIALLY_PERFECT

    def test_matches_forbidden_subgraph_search_exhaustively(self):
        graphs = [g for n in range(1, 6) for g in _all_graphs(n)] + all_cographs(6)
        expected_kind = {NOT_COGRAPH: "P4", COGRAPH: "C4", TRIVIALLY_PERFECT: "2K2"}
        for g in graphs:
            cls = classify(g)
            assert cls.name == _brute_class(g), g.edges
            if cls.name == THRESHOLD:
                assert cls.witness is None
                continue
            assert cls.witness_kind == expected_kind[cls.name]
            w = cls.witness
            assert len(set(w)) == 4
            induced = {
                (i, j) for i, j in combinations(range(4), 2) if g.has_edge(w[i], w[j])
            }
            assert induced == _WITNESS_EDGES[cls.witness_kind]

    def test_empty_graph_has_no_class(self):
        with pytest.raises(ValueError):
            classify(Graph(0))

    def test_agrees_with_elimination_exhaustively(self):
        for n in range(1, 7):
            for g in all_cographs(n):
                is_threshold = classify(g).name == THRESHOLD
                assert is_threshold == (threshold_elimination(g) is not None)


class TestPreparedGraph:
    def test_omega_matches_cotree_exhaustively(self):
        for n in range(1, 8):
            for g in all_cographs(n):
                assert _PreparedGraph(g).omega == clique_number(build_cotree(g))

    def test_threshold_graphs_build_no_cotree(self, monkeypatch):
        builds = count_cotree_builds(monkeypatch)
        for seed in range(20):
            g = random_threshold_graph(seed * 10 + 1, seed)
            prepared = _PreparedGraph(g)
            assert prepared.name == THRESHOLD
            prepared.omega
        assert sum(builds.values()) == 0

    def test_cotree_built_at_most_once(self, monkeypatch):
        builds = count_cotree_builds(monkeypatch)
        graphs = [
            make(30, seed)
            for seed in range(20)
            for make in (random_threshold_graph, random_tp_graph)
        ]
        for g in graphs:
            prepared = _PreparedGraph(g)
            assert prepared.cotree is prepared.cotree
            assert prepared.omega == clique_number(prepared.cotree)
            assert builds[id(g)] == 1

    def test_not_cograph_keeps_its_witness(self):
        prepared = _PreparedGraph(P4)
        with pytest.raises(NotCographError) as err:
            prepared.cotree
        assert err.value.witness == prepared.p4 == classify(P4).witness


class TestCanonicalKey:
    def test_leaf_ids_erased(self):
        t1 = Internal(JOIN, (Leaf(0), Leaf(1)))
        t2 = Internal(JOIN, (Leaf(5), Leaf(9)))
        assert canonical_key(t1) == canonical_key(t2)

    def test_root_kind_distinguishes(self):
        a = Internal(UNION, (Leaf(0), Internal(JOIN, (Leaf(1), Leaf(2)))))
        b = Internal(JOIN, (Leaf(0), Internal(UNION, (Leaf(1), Leaf(2)))))
        assert canonical_key(a) != canonical_key(b)

    def test_child_order_irrelevant(self):
        x = Internal(JOIN, (Leaf(0), Leaf(1)))
        y = Internal(UNION, (Leaf(2), Leaf(3), Leaf(4)))
        t1 = Internal(UNION, (Leaf(5), Internal(JOIN, (Leaf(6), Leaf(7)))))
        assert canonical_key(Internal(UNION, (x, t1))) == canonical_key(
            Internal(UNION, (t1, x))
        )
        assert y is not None

    def test_key_equality_iff_graph_isomorphism(self):
        # independent check: compare against brute-force graph canonicalization
        import random as _random

        rng = _random.Random("cotree-key-iso")
        for _ in range(500):
            n1 = rng.randint(1, 8)
            n2 = rng.randint(1, 8)
            t1 = random_cotree(n1, rng.randrange(10 ** 6))
            t2 = random_cotree(n2, rng.randrange(10 ** 6))
            keys_equal = canonical_key(t1) == canonical_key(t2)
            graphs_iso = canonical_graph_key(cotree_to_graph(t1)) == canonical_graph_key(
                cotree_to_graph(t2)
            )
            assert keys_equal == graphs_iso

    def test_distinct_shapes_give_distinct_graphs(self):
        for n in range(1, 8):
            trees = all_cotrees(n)
            keys = {canonical_key(t) for t in trees}
            assert len(keys) == len(trees)
            graph_keys = {canonical_graph_key(cotree_to_graph(t)) for t in trees}
            assert len(graph_keys) == len(trees)


class TestTextFormat:
    def test_butterfly_example(self):
        t = parse_cotree("J(0,U(J(1,2),J(3,4)))")
        assert cotree_to_graph(t) == BUTTERFLY

    def test_whitespace_ignored(self):
        assert parse_cotree(" J( 0 , U(J(1,2),\nJ(3,4)) ) ") == parse_cotree(
            "J(0,U(J(1,2),J(3,4)))"
        )

    def test_roundtrip(self):
        for seed in range(60):
            t = build_cotree(random_cograph(seed % 10 + 1, seed))
            assert parse_cotree(format_cotree(t)) == t

    def test_leaf_only(self):
        assert parse_cotree("0") == Leaf(0)

    @pytest.mark.parametrize(
        "bad",
        ["J(0)", "J(0,", "X(0,1)", "J(0,1)extra", "J(1,2)", ""],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_cotree(bad)

    def test_deep_roundtrip(self):
        t = cotree_chain(5000)
        text = format_cotree(t)
        assert text.count("(") == 5000
        back = parse_cotree(text)
        assert cotree_shape(back) == cotree_shape(t)
        assert format_cotree(back) == text

    def test_same_kind_nesting_normalized(self):
        t = parse_cotree("J(0,J(1,2))")
        assert t == Internal(JOIN, (Leaf(0), Leaf(1), Leaf(2)))
