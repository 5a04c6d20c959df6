"""Differential tests of the graph I/O layer against the per-edge reference
implementations in tests.helpers: the same graphs, the same text and the
same errors, message and line included."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogret.cotree import (
    JOIN,
    UNION,
    Internal,
    Leaf,
    NotCographError,
    build_cotree,
    cotree_to_graph,
    format_cotree,
    parse_cotree,
)
from cogret.graph_core import (
    Graph,
    ParseError,
    format_edge_list,
    format_graph6,
    induced_subgraph,
    parse_edge_list,
    parse_graph6,
    random_cograph,
)

from tests.helpers import (
    all_graphs,
    cotree_chain,
    random_cotree,
    random_graph,
    reference_cotree_to_graph,
    reference_format_edge_list,
    reference_induced_subgraph,
    reference_parse_edge_list,
    reference_parse_graph6,
)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:  # ParseError and CotreeError included
        return (type(exc), str(exc), getattr(exc, "line", None))


def _same_graph(got: Graph, want: Graph) -> None:
    assert isinstance(got, Graph)
    assert got == want
    assert hash(got) == hash(want)
    assert (got.n, got.m) == (want.n, want.m)
    assert all(type(s) is frozenset for s in got.adjacency)


def assert_same(new, reference, *args) -> None:
    got, want = _outcome(new, *args), _outcome(reference, *args)
    if isinstance(want, Graph):
        _same_graph(got, want)
    elif isinstance(want, tuple) and want and isinstance(want[0], Graph):
        _same_graph(got[0], want[0])
        assert got[1] == want[1]
    else:
        assert got == want


def check_every_format(g: Graph) -> None:
    text = reference_format_edge_list(g)
    assert format_edge_list(g) == text
    assert_same(parse_edge_list, reference_parse_edge_list, text)
    assert_same(parse_graph6, reference_parse_graph6, format_graph6(g))
    if g.n:
        try:
            tree = build_cotree(g)
        except NotCographError:
            return
        parsed = parse_cotree(format_cotree(tree))
        assert_same(cotree_to_graph, reference_cotree_to_graph, parsed)


def test_every_graph_up_to_five_vertices():
    count = 0
    for g in all_graphs(5):
        check_every_format(g)
        for mask in range(1 << g.n):
            keep = [v for v in range(g.n) if mask >> v & 1]
            assert_same(induced_subgraph, reference_induced_subgraph, g, keep)
        count += 1
    assert count == 1 + 1 + 2 + 8 + 64 + 1024


@st.composite
def edge_list_texts(draw):
    """A random graph with n <= 200, written with shuffled, flipped and
    repeated edges, mixed separators, line ends and blank lines."""
    n = draw(st.integers(0, 200))
    seed = draw(st.integers(0, 10**6))
    p = draw(st.sampled_from([0.0, 0.02, 0.1, 0.5, 0.9, 1.0]))
    rng = random.Random(seed)
    g = random_graph(n, seed, p)
    edges = list(g.edges())
    edges += rng.sample(edges, min(len(edges), draw(st.integers(0, 5))))
    rng.shuffle(edges)
    seps, ends = [" ", "\t", "  ", " \t "], ["\n", "\r\n", "\r"]
    lines = [f" {n}"] + [
        f"{v}{rng.choice(seps)}{u}" if rng.random() < 0.5 else f"{u}{rng.choice(seps)}{v}"
        for u, v in edges
    ]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(["", "  ", "\t"]))
    text = "".join(line + rng.choice(ends) for line in lines)
    return g, text


@settings(max_examples=60, deadline=None)
@given(edge_list_texts())
def test_edge_lists_up_to_200_vertices(drawn):
    g, text = drawn
    assert_same(parse_edge_list, reference_parse_edge_list, text)
    _same_graph(parse_edge_list(text), g)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 200),
    st.integers(0, 10**6),
    st.sampled_from([0.0, 0.05, 0.3, 0.7, 1.0]),
    st.sampled_from(["{}", " {} \n", ">>graph6<<{}", "\t>>graph6<< {}\r\n"]),
)
def test_graph6_and_edge_list_printing_up_to_200_vertices(n, seed, p, wrap):
    g = random_graph(n, seed, p)
    text = wrap.format(format_graph6(g))
    assert_same(parse_graph6, reference_parse_graph6, text)
    _same_graph(parse_graph6(text), g)
    assert format_edge_list(g) == reference_format_edge_list(g)
    rng = random.Random(seed)
    keep = [v for v in range(n) if rng.random() < 0.5]
    assert_same(induced_subgraph, reference_induced_subgraph, g, keep)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 200), st.integers(0, 10**6))
def test_cographs_up_to_200_vertices(n, seed):
    g = random_cograph(n, seed)
    check_every_format(g)


def test_random_cotrees():
    for seed in range(200):
        tree = random_cotree(seed % 60 + 1, seed)
        assert_same(cotree_to_graph, reference_cotree_to_graph, tree)
        assert_same(cotree_to_graph, reference_cotree_to_graph, parse_cotree(format_cotree(tree)))
    assert_same(cotree_to_graph, reference_cotree_to_graph, cotree_chain(300))


EDGE_LIST_CASES = [
    "",
    "\n \n\t\n",
    "x",
    "3.0",
    "-1",
    "3 4",
    "3\n0 5",
    "3\n-1 0",
    "3\n1 1",
    "3\n0 1 2",
    "3\n0",
    "3\n0 one",
    "3\n0 0x1",
    "3\n0 1\n1 2\n2 x",
    "3\n0 1 # note",
    "0",
    "0\n0 0",
    "3\r\n0 1\r\n1 2\r\n",
    "3\n0\t1\n\t1 \t2\t\n",
    "\n\n3\n\n0 1\n\n\n1 2\n\n",
    "+3\n+0 +1",
    "1_0\n0 1_0",
    "1_1\n0 1_0\n0 9",
    "1_0\n0 _1",
    "\uff13\n\uff10 \uff11",
    "\u0663\n\u0660 \u0661",
    "3\n0\u00a01",
    "3\n0\u20281",
    "3\x0b0 1",
    "3\x1c0 1\x851 2",
    "  3  \n  0   2  ",
]


@pytest.mark.parametrize("text", EDGE_LIST_CASES)
def test_edge_list_cases(text):
    assert_same(parse_edge_list, reference_parse_edge_list, text)


GRAPH6_CASES = [
    "",
    "   ",
    ">>graph6<<",
    ">>graph6<<C~",
    ">>graph6<<  C~ ",
    "C~\u3000",
    "\u00a0C~",
    "?",
    "@",
    "C",
    "C~~",
    "C ~",
    "C\t~",
    "C!",
    "C\x7f",
    "A_",
    "A`",
    "A@",
    "A",
    "A??",
    "~",
    "~?",
    "~??",
    "~~",
    "~~??????",
    "~?@?",
    "~?@A" + "?" * 336,
    "~!@?",
    format_graph6(random_graph(64, 1)),
    format_graph6(random_graph(64, 1))[:-1],
    format_graph6(random_graph(64, 1)) + "?",
    format_graph6(random_graph(70, 2))[:-1] + "~",
]


@pytest.mark.parametrize("text", GRAPH6_CASES)
def test_graph6_cases(text):
    assert_same(parse_graph6, reference_parse_graph6, text)


@pytest.mark.parametrize("text", ["C\u00e9", "\u00e9", "C~\u00e9", "\u0130", ">>graph6<<C\u00ff"])
def test_graph6_rejects_non_ascii(text):
    # the reference reads each such character as '?', byte 63
    with pytest.raises(ParseError, match="^graph6 byte out of range$"):
        parse_graph6(text)


COTREE_CASES = [
    Internal(JOIN, (Leaf(0),)),
    Internal(UNION, (Leaf(0), Internal(JOIN, (Leaf(1),)))),
    Internal("X", (Leaf(0), Leaf(1))),
    Internal(JOIN, (Leaf(0), Internal("X", (Leaf(1), Leaf(2))))),
    Internal(JOIN, (Internal("X", (Leaf(1), Leaf(2))), Internal(UNION, (Leaf(0),)))),
    Internal(JOIN, (Leaf(0), Leaf(2))),
    Internal(JOIN, (Leaf(0), Leaf(0))),
    Internal(UNION, (Leaf(1), Internal(JOIN, (Leaf(0), Leaf(2))))),
    Leaf(0),
    Leaf(1),
]


@pytest.mark.parametrize("tree", COTREE_CASES)
def test_cotree_cases(tree):
    assert_same(cotree_to_graph, reference_cotree_to_graph, tree)


@pytest.mark.parametrize("keep", [[0, 7], [-1, 0], [5, 3, -2], [], [2, 2, 0]])
def test_induced_subgraph_cases(keep):
    assert_same(induced_subgraph, reference_induced_subgraph, random_graph(5, 3), keep)


def test_from_sets_equals_checked_constructor():
    for seed in range(100):
        n = seed % 40
        g = random_graph(n, seed, 0.3)
        adj = [set() for _ in range(n)]
        for u, v in g.edges():
            adj[u].add(v)
            adj[v].add(u)
        _same_graph(Graph._from_sets(n, adj), Graph(n, g.edges()))
        _same_graph(Graph._from_sets(n, g.adjacency), g)


def test_checked_constructor_still_checks_each_edge():
    with pytest.raises(ValueError, match="out of range"):
        Graph(3, [(0, 1), (1, 3)])
    with pytest.raises(ValueError, match="self-loop"):
        Graph(3, [(0, 1), (2, 2)])
    with pytest.raises(ValueError, match="nonnegative"):
        Graph(-1)
