"""Tests of the benchmark's own generators and checkers.

Run from the repository root:  PYTHONPATH=src python -m pytest -q perfbench

Small copies of every input family are decided by the brute-force search in
checks.py, so each planted verdict is confirmed once by exhaustive search
and never by cogret's own oracle.
"""

from __future__ import annotations

import random

import pytest

from perfbench import checks, families as fam, workloads
from perfbench.model import (
    PlainGraph,
    format_cotree_text,
    format_edge_list_text,
    format_graph6_text,
    in_max_clique,
    realize,
)

SEEDS = range(6)

SMALL_FAMILIES = {
    "threshold-yes": lambda r: fam.threshold_yes(r, "t", fam.dense_bits(r, 6, 1), 2),
    "threshold-sparse-yes": lambda r: fam.threshold_yes(r, "t", fam.sparse_bits(r, 7, 1), 1),
    "threshold-no-universal": lambda r: fam.threshold_no_universal(r, "t", fam.dense_bits(r, 7, 1), 1),
    "threshold-no-connectivity": lambda r: fam.threshold_no_connectivity(r, "t", fam.sparse_bits(r, 6, 0), 2),
    "tp-yes": lambda r: fam.tp_yes(r, "tp", 6, 2, 3, 1, 1),
    "tp-no-alpha": lambda r: fam.tp_no_alpha(r, "tp", 7, 2, 3, 1, 1),
    "tp-no-universal": lambda r: fam.tp_no_universal(r, "tp", 1, 5, 2, 3),
    "c4-clique": lambda r: fam.c4_clique_yes(r, "c4", 2),
    "c4-alpha": lambda r: fam.c4_alpha_no(r, "c4", 2),
    "extension": lambda r: fam.cograph_yes(r, "ext", 6, 1, 1),
    "cograph-universal": lambda r: fam.cograph_no_universal(r, "u", 1, 6),
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("family", sorted(SMALL_FAMILIES))
def test_planted_verdict_matches_exhaustive_search(family, seed):
    pair = SMALL_FAMILIES[family](random.Random(f"{family}:{seed}"))
    found = checks.brute_retract(pair.g, pair.h)
    assert (found is not None) == (pair.planted == "YES")
    ig, ih = checks.invariants(pair.g), checks.invariants(pair.h)
    if pair.planted == "YES":
        assert checks.certificate_error(pair.g, pair.h, *pair.cert) is None
    else:
        assert checks.planted_no_error(pair.reason, ig, ih) is None


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("yes", [True, False])
def test_partitioned_verdict_matches_exhaustive_search(yes, seed):
    g, expr, ids = workloads.partitioned_instance(random.Random(f"part:{seed}"), 9, yes, omega=4)
    assert realize(expr).adj == g.adj
    h = workloads.induced(g, ids)
    found = checks.extend_rho(g, h, list(ids))
    assert (found is not None) == yes
    assert (checks.no_image_vertex(g, ids) is None) == yes


@pytest.mark.parametrize("items", [(2, 2, 2), (2, 2, 3)])
def test_small_three_partition_encoding_is_a_retract(items):
    cogret = pytest.importorskip("cogret")
    pair = cogret.encode(cogret.ThreePartitionInstance(m=1, B=sum(items), items=items))
    g, h = cogret.cotree_to_graph(pair.g), cogret.cotree_to_graph(pair.h)
    plain_g, plain_h = PlainGraph(g.n, g.edges()), PlainGraph(h.n, h.edges())
    assert checks.brute_retract(plain_g, plain_h) is not None


def test_classes_and_invariants():
    p4 = PlainGraph(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(checks.NotCograph):
        checks.decompose(p4)
    c4 = PlainGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert checks.invariants(c4)["class"] == "cograph"
    two_k2 = PlainGraph(4, [(0, 1), (2, 3)])
    inv = checks.invariants(two_k2)
    assert (inv["class"], inv["alpha"], inv["omega"], inv["connected"]) == ("trivially_perfect", 2, 2, False)
    star = PlainGraph(4, [(0, 1), (0, 2), (0, 3)])
    inv = checks.invariants(star)
    assert (inv["class"], inv["alpha"], inv["omega"], inv["universal"]) == ("threshold", 3, 2, 1)


def test_certificate_checker_rejects_bad_maps():
    k2 = PlainGraph(2, [(0, 1)])
    p3 = PlainGraph(3, [(0, 1), (1, 2)])
    assert checks.certificate_error(p3, k2, (0, 1, 0), (0, 1)) is None
    assert checks.certificate_error(p3, k2, (0, 0, 1), (0, 1)) is not None  # edge collapses
    assert checks.certificate_error(p3, k2, (1, 0, 1), (0, 1)) is not None  # rho.gamma != id


def test_fold_replay():
    p3 = PlainGraph(3, [(0, 1), (1, 2)])
    assert checks.is_complete(checks.replay_folds(p3, (0, 1, 2), [(0, 2)]))
    assert isinstance(checks.replay_folds(p3, (0, 1, 2), [(0, 1)]), str)


def test_absolute_construction():
    rng = random.Random(3)
    assert all(in_max_clique(workloads.absolute_instance(rng, 60, True)).values())
    assert not all(in_max_clique(workloads.absolute_instance(rng, 60, False)).values())


@pytest.mark.parametrize("seed", range(3))
def test_file_formats_read_back(seed):
    cogret = pytest.importorskip("cogret")
    pair = fam.cograph_yes(random.Random(seed), "ext", 12, 2, 2)
    g = pair.g
    readers = {
        format_edge_list_text: cogret.parse_edge_list,
        format_graph6_text: cogret.parse_graph6,
    }
    for write, read in readers.items():
        back = read(write(g))
        assert [set(s) for s in back.adjacency] == g.adj
    back = cogret.cotree_to_graph(cogret.parse_cotree(format_cotree_text(pair.g_expr)))
    assert [set(s) for s in back.adjacency] == g.adj


@pytest.mark.parametrize("workload", ["threshold-dispatch", "tp-dispatch", "fpt-search"])
def test_library_inputs_hold_their_planted_facts(workload):
    cogret = pytest.importorskip("cogret")
    ops = workloads.library_ops(workload, 7, cogret)
    for op in ops:
        assert workloads.verify_planted(op) is None
    planted = {op.planted for op in ops}
    assert planted == {"YES", "NO"}
    routes = {route for op in ops for route in op.routes}
    assert routes == {"threshold-dispatch": {"threshold"}, "tp-dispatch": {"tp"}, "fpt-search": {"fpt"}}[workload]


def test_cli_inputs_hold_their_planted_facts(tmp_path):
    ops = workloads.cli_ops(7, tmp_path)
    for op in ops:
        assert workloads.verify_cli_planted(op) is None
    assert {op.kind for op in ops} == {"batch", "partitioned", "folding", "absolute"}
    suffixes = {f.rsplit(".", 1)[1] for op in ops for f in op.files}
    assert suffixes == {"el", "g6", "ct"}


def test_same_seed_same_inputs():
    a = SMALL_FAMILIES["extension"](random.Random("x"))
    b = SMALL_FAMILIES["extension"](random.Random("x"))
    assert a.g.adj == b.g.adj and a.h.adj == b.h.adj and a.cert == b.cert
