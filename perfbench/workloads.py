"""The four workloads: which inputs each one builds from the seed and how
each operation's output is checked.

Library workloads time one `retract()` call per operation.  The CLI
workload times one `python -m cogret.cli` child per operation.  Every
workload runs whole rounds of a fixed list of operations, so the mix of
families, sizes and planted verdicts is the same in every run; the seed
changes the random graphs and their vertex ids, not the mix.
"""

from __future__ import annotations

import json
import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from . import checks, families as fam
from .model import (
    PlainGraph,
    format_cotree_text,
    format_edge_list_text,
    format_graph6_text,
    in_max_clique,
    postorder,
    realize,
)

# ---------------------------------------------------------------------------
# library workloads

# (family, planted kind, size); sizes are vertex counts of H.  Many sizes
# spread over each range, so the latency quantiles over the round rest on
# several random graphs and barely depend on the seed.
THRESHOLD_MIX = [
    (family, kind, n)
    for family, sizes in (("sparse", range(1000, 2001, 200)), ("dense", range(100, 201, 20)))
    for i, n in enumerate(sizes)
    for kind in ("yes", "no-universal" if i % 2 == 0 else "no-connectivity")
]

TP_MIX = (
    [("tp", "yes", n) for n in range(100, 1001, 60)]
    + [("tp", "no-alpha", n) for n in range(200, 901, 100)]
    + [("tp", "no-universal", n) for n in range(100, 801, 100)]
)

# (family, parameter, pairs timed together); a group holds instances too
# small to time one by one
FPT_MIX = [
    ("c4-clique", 4, 4),
    ("c4-clique", 5, 1),
    ("c4-alpha", 4, 1),
    ("c4-alpha", 4, 1),
    ("c4-alpha", 5, 1),
    ("3-partition", 0, 1),
    ("3-partition", 1, 1),
    ("3-partition", 2, 1),
    ("3-partition", 3, 1),
    ("extension", 12, 8),
    ("extension", 16, 8),
    ("extension", 20, 8),
    ("cograph-universal", 3, 8),
    ("cograph-universal", 4, 8),
]

# solvable m=2 instances: (B, items), two triples summing to B each
THREE_PARTITION = [
    (7, (2, 2, 3, 2, 2, 3)),
    (10, (3, 3, 4, 3, 3, 4)),
    (11, (3, 4, 4, 3, 4, 4)),
    (13, (4, 4, 5, 4, 4, 5)),
]

THRESHOLD_BUILDERS = {
    "yes": fam.threshold_yes,
    "no-universal": fam.threshold_no_universal,
    "no-connectivity": fam.threshold_no_connectivity,
}


def _threshold_pair(rng, family, kind, n):
    bits = (fam.sparse_bits if family == "sparse" else fam.dense_bits)(
        rng, n, 0 if kind == "no-connectivity" else 1
    )
    return THRESHOLD_BUILDERS[kind](rng, family, bits, n // 10)


def _tp_pair(rng, kind, n):
    if kind == "yes":
        return fam.tp_yes(rng, "tp", n, 3, 10, n // 20, 3)
    if kind == "no-alpha":
        return fam.tp_no_alpha(rng, "tp", n, 3, 10, 2, n // 20)
    return fam.tp_no_universal(rng, "tp", 3, n, 3, 10)


def _fpt_pair(rng, family, param, cogret, tracer=None):
    if family == "c4-clique":
        return fam.c4_clique_yes(rng, family, param)
    if family == "c4-alpha":
        return fam.c4_alpha_no(rng, family, param)
    if family == "extension":
        return fam.cograph_yes(rng, family, param, 2, 2)
    if family == "cograph-universal":
        return fam.cograph_no_universal(rng, family, param, 10 * param)
    return encoded_pair(rng, param, cogret, tracer)


def encoded_pair(rng, index, cogret, tracer=None) -> fam.Pair:
    """A solvable 3-partition instance, items in seeded order, encoded by
    cogret.reduction.encode; planted YES because a partition exists."""
    B, items = THREE_PARTITION[index]
    items = list(items)
    rng.shuffle(items)
    inst = cogret.ThreePartitionInstance(m=2, B=B, items=tuple(items))
    with tracer.span("reduction.encode") if tracer else nullcontext():
        pair = cogret.encode(inst)
    g = cogret.cotree_to_graph(pair.g)
    h = cogret.cotree_to_graph(pair.h)
    plain_g, plain_h = PlainGraph(g.n, g.edges()), PlainGraph(h.n, h.edges())
    return fam.Pair("3-partition", None, None, plain_g, plain_h, "YES", "3-partition")


@dataclass
class LibOp:
    label: str
    pairs: list[fam.Pair]
    inputs: list[tuple] = field(default_factory=list)  # cogret graphs (g, h)
    routes: list[str] = field(default_factory=list)  # expected route per pair

    @property
    def planted(self) -> str:
        return self.pairs[0].planted


def library_ops(workload: str, seed: int, cogret, tracer=None) -> list[LibOp]:
    """Build the workload's operations with cogret graphs attached."""
    ops = []
    if workload == "threshold-dispatch":
        for slot, (family, kind, n) in enumerate(THRESHOLD_MIX):
            rng = random.Random(f"{workload}:{seed}:{slot}")
            ops.append(LibOp(f"{family}-{kind}-{n}", [_threshold_pair(rng, family, kind, n)]))
    elif workload == "tp-dispatch":
        for slot, (_, kind, n) in enumerate(TP_MIX):
            rng = random.Random(f"{workload}:{seed}:{slot}")
            ops.append(LibOp(f"tp-{kind}-{n}", [_tp_pair(rng, kind, n)]))
    else:
        for slot, (family, param, group) in enumerate(FPT_MIX):
            rng = random.Random(f"{workload}:{seed}:{slot}")
            pairs = [_fpt_pair(rng, family, param, cogret, tracer) for _ in range(group)]
            ops.append(LibOp(f"{family}-{param}", pairs))
    for op in ops:
        op.inputs = [(to_cogret(cogret, p.g), to_cogret(cogret, p.h)) for p in op.pairs]
    return ops


def to_cogret(cogret, g: PlainGraph):
    return cogret.Graph(g.n, g.edges())


def verify_planted(op: LibOp) -> str | None:
    """Check each pair's planted verdict on the inputs and fix its route.
    Runs once per run, outside the timed region."""
    op.routes = []
    for p in op.pairs:
        ig, ih = checks.invariants(p.g), checks.invariants(p.h)
        op.routes.append(checks.expected_route(ig["class"], ih["class"]))
        if p.planted == "NO":
            err = checks.planted_no_error(p.reason, ig, ih)
        elif p.cert is not None:
            err = checks.certificate_error(p.g, p.h, *p.cert)
        else:
            err = None
        if err:
            return f"{op.label}: planted input is wrong: {err}"
    return None


def check_retract(pair: fam.Pair, expected_route: str, result, route: str, cogret) -> str | None:
    if route != expected_route:
        return f"route {route}, classes give {expected_route}"
    yes = isinstance(result, cogret.RetractCertificate)
    if yes != (pair.planted == "YES"):
        return f"verdict {'YES' if yes else 'NO'}, planted {pair.planted}"
    if yes:
        return checks.certificate_error(pair.g, pair.h, result.rho, result.gamma)
    return None


# ---------------------------------------------------------------------------
# CLI workload

FORMATS = ("el", "g6", "ct")


@dataclass
class CliOp:
    label: str
    kind: str  # batch, partitioned, folding or absolute
    args: list[str]
    planted: str | None  # YES / NO for decision commands, None for folding
    expect: dict
    files: list[str] = field(default_factory=list)


def _write_graph(workdir: Path, name: str, g: PlainGraph, expr, fmt: str) -> str:
    text = {
        "el": lambda: format_edge_list_text(g),
        "g6": lambda: format_graph6_text(g),
        "ct": lambda: format_cotree_text(expr),
    }[fmt]()
    path = workdir / f"{name}.{fmt}"
    path.write_text(text)
    return str(path)


# manifests: (builder, size); each mixes the three routes, formats rotate
# over the files of a manifest
BATCHES = {
    "yes-a": [("dense-yes", 180), ("tp-yes", 500), ("c4-clique", 4)],
    "yes-b": [("sparse-yes", 1500), ("tp-yes", 300), ("extension", 16)],
    "no-a": [("dense-no-universal", 180), ("tp-no-alpha", 500), ("c4-alpha", 4)],
    "no-b": [("sparse-no-connectivity", 1500), ("tp-no-universal", 300), ("cograph-universal", 4)],
}


def _batch_pair(rng, builder, size):
    if builder.startswith(("dense", "sparse")):
        family, kind = builder.split("-", 1)
        return _threshold_pair(rng, family, kind, size)
    if builder.startswith("tp-"):
        return _tp_pair(rng, builder[3:], size)
    return _fpt_pair(rng, builder, size, None)


def cli_ops(seed: int, workdir: Path) -> list[CliOp]:
    """Generate the CLI inputs, write them under workdir, return one round."""
    ops: list[CliOp] = []
    slot = 0

    def rng_for():
        nonlocal slot
        slot += 1
        return random.Random(f"cli-batch:{seed}:{slot}")

    for tag, mix in BATCHES.items():
        lines, expect = [], []
        for i, (builder, size) in enumerate(mix):
            p = _batch_pair(rng_for(), builder, size)
            gi = _write_graph(workdir, f"b{tag}{i}G", p.g, p.g_expr, FORMATS[(2 * i) % 3])
            hi = _write_graph(workdir, f"b{tag}{i}H", p.h, p.h_expr, FORMATS[(2 * i + 1) % 3])
            lines.append(f"{gi} {hi}")
            expect.append(p)
        manifest = workdir / f"batch-{tag}.txt"
        manifest.write_text("\n".join(lines) + "\n")
        ops.append(CliOp(f"batch-{tag}", "batch", ["retract", "--batch", str(manifest)],
                         tag[:-2].upper(), {"pairs": expect},
                         [f for line in lines for f in line.split()]))

    for tag in ("yes", "no"):
        g, expr, ids = partitioned_instance(rng_for(), 400, tag == "yes")
        gpath = _write_graph(workdir, f"part{tag}G", g, expr, "ct" if tag == "yes" else "el")
        idpath = workdir / f"part{tag}.ids"
        idpath.write_text(" ".join(str(v) for v in ids) + "\n")
        ops.append(CliOp(f"partitioned-{tag}", "partitioned",
                         ["retract", gpath, "--partitioned", str(idpath)],
                         tag.upper(), {"g": g, "ids": ids}, [gpath]))

    for i, n in enumerate((130, 130)):
        bits = fam.dense_bits(rng_for(), n, 1)  # connected: ends with a universal vertex
        expr = fam.threshold_expr(bits)
        g = realize(expr)
        path = _write_graph(workdir, f"fold{i}", g, expr, FORMATS[i])
        ops.append(CliOp(f"folding{i}-{n}", "folding", ["folding", path], None,
                         {"g": g, "chi": 1 + sum(bits[1:])}, [path]))

    for tag, n in (("yes", 380), ("no", 620)):
        rng = rng_for()
        expr = absolute_instance(rng, n, tag == "yes")
        g = realize(expr)
        path = _write_graph(workdir, f"abs{tag}", g, expr, "g6" if tag == "yes" else "ct")
        ops.append(CliOp(f"absolute-{tag}", "absolute", ["absolute", path], tag.upper(),
                         {"g": g, "in_max_clique": in_max_clique(expr)}, [path]))
    return ops


def absolute_instance(rng, n, absolute: bool):
    """A connected cograph with clique number 12: balanced (every vertex in
    a maximum clique) or with a short clique added under a union node."""
    if absolute:
        return fam.balanced_cotree(list(range(n)), 12, "J")
    return fam.deficient_cotree(rng, n, 12)[0]


def partitioned_instance(rng, n_h, yes: bool, omega: int = 10):
    """(G, its expression, ids of an induced copy of H).  H is a connected
    cograph with some vertices outside every maximum clique; G is H plus
    twins and dominated branches.  For NO, G also gets a true twin t of
    such a vertex v: a retraction fixing H sends t to a vertex adjacent to
    v and to all of v's neighbours in H, and none exists
    (checks.no_image_vertex)."""
    p = fam.extension(rng, "partitioned", fam.deficient_cotree(rng, n_h, omega)[0], n_h // 10, n_h // 10)
    ids = sorted(p.cert[1])
    if yes:
        return p.g, p.g_expr, ids
    short = sorted(y for y, ok in in_max_clique(p.h_expr).items() if not ok)
    v = p.cert[1][short[rng.randrange(len(short))]]
    t = p.g.n
    g = PlainGraph(t + 1, p.g.edges())
    for u in p.g.adj[v] | {v}:
        g.adj[u].add(t)
        g.adj[t].add(u)
    return g, _true_twin(p.g_expr, v, t), ids


def _true_twin(expr, v, t):
    """Expression with leaf v replaced by the join of v and a new leaf t."""
    done: dict[int, object] = {}
    for node in postorder(expr):
        if isinstance(node, tuple):
            done[id(node)] = (node[0], tuple(done[id(c)] for c in node[1]))
        else:
            done[id(node)] = ("J", (v, t)) if node == v else node
    return fam.normalize(done[id(expr)])


def induced(g: PlainGraph, ids) -> PlainGraph:
    index = {v: i for i, v in enumerate(ids)}
    return PlainGraph(len(ids), ((index[u], index[w]) for u, w in g.edges() if u in index and w in index))


def check_cli(op: CliOp, code: int, out: str) -> str | None:
    """Check one invocation's exit code and JSON report."""
    try:
        report = json.loads(out)
    except ValueError:
        return f"exit {code}, output is not JSON"
    if op.kind == "batch":
        pairs = op.expect["pairs"]
        if not isinstance(report, list) or len(report) != len(pairs):
            return "batch report has the wrong number of entries"
        worst = 0
        for p, rep, route in zip(pairs, report, op.expect["routes"]):
            err = _check_retract_report(p.g, p.h, p.planted, route, rep)
            if err:
                return f"{p.family}: {err}"
            worst = max(worst, 0 if p.planted == "YES" else 1)
        return None if code == worst else f"exit {code}, expected {worst}"
    if op.kind == "partitioned":
        h = induced(op.expect["g"], op.expect["ids"])
        err = _check_retract_report(op.expect["g"], h, op.planted, "partitioned", report)
        if err:
            return err
        return None if code == (0 if op.planted == "YES" else 1) else f"exit {code}"
    if op.kind == "folding":
        return _check_folding(op, code, report)
    return _check_absolute(op, code, report)


def _check_retract_report(g, h, planted, route, rep) -> str | None:
    if rep.get("route") != route:
        return f"route {rep.get('route')}, classes give {route}"
    if rep.get("verdict") != planted:
        return f"verdict {rep.get('verdict')}, planted {planted}"
    if planted == "YES":
        cert = rep.get("certificate") or {}
        return checks.certificate_error(g, h, cert.get("rho", []), cert.get("gamma", []))
    return None


def _check_folding(op: CliOp, code: int, report: dict) -> str | None:
    chi = op.expect["chi"]
    if code != 0 or report.get("sigma") != chi:
        return f"exit {code}, sigma {report.get('sigma')}, chi from the construction {chi}"
    if report.get("route") != "threshold" or report.get("verified") is not True:
        return "folding report is not a verified threshold fold"
    seq = report.get("sequence") or {}
    final = checks.replay_folds(op.expect["g"], seq.get("component", []), seq.get("steps", []))
    if isinstance(final, str):
        return final
    if final.n != chi or not checks.is_complete(final):
        return f"the folds end in a graph on {final.n} vertices that is not K_{chi}"
    return None


def _check_absolute(op: CliOp, code: int, report: dict) -> str | None:
    qualifies = op.expect["in_max_clique"]
    failing = sorted(v for v, ok in qualifies.items() if not ok)
    absolute = not failing
    if report.get("absolute") is not absolute or code != (0 if absolute else 1):
        return f"exit {code}, absolute {report.get('absolute')}, construction says {absolute}"
    if report.get("failing_vertices") != failing:
        return "failing vertices differ from the construction"
    if absolute:
        return None
    text = report.get("counterexample", "")
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    g = op.expect["g"]
    if not lines or int(lines[0][0]) != g.n + 1:
        return "counterexample does not add exactly one vertex"
    counter = PlainGraph(g.n + 1, ((int(a), int(b)) for a, b in lines[1:]))
    if induced(counter, range(g.n)).adj != g.adj:
        return "counterexample does not hold the input as an induced subgraph"
    if checks.invariants(counter)["omega"] != checks.invariants(g)["omega"]:
        return "counterexample changes the clique number"
    return None


def verify_cli_planted(op: CliOp) -> str | None:
    """Planted facts of the CLI inputs, checked once per run."""
    if op.kind == "batch":
        routes = []
        for p in op.expect["pairs"]:
            ig, ih = checks.invariants(p.g), checks.invariants(p.h)
            routes.append(checks.expected_route(ig["class"], ih["class"]))
            err = (checks.planted_no_error(p.reason, ig, ih) if p.planted == "NO"
                   else checks.certificate_error(p.g, p.h, *p.cert))
            if err:
                return f"{op.label}/{p.family}: {err}"
        op.expect["routes"] = routes
        if len(set(routes)) != 3:
            return f"{op.label}: manifest does not mix the three routes"
    elif op.kind == "partitioned":
        g, ids = op.expect["g"], op.expect["ids"]
        if op.planted == "NO" and checks.no_image_vertex(g, ids) is None:
            return f"{op.label}: every outside vertex has a possible image"
    elif op.kind == "folding":
        if checks.threshold_counts(op.expect["g"]) is None or not checks.is_connected(op.expect["g"]):
            return f"{op.label}: input is not a connected threshold graph"
    elif not checks.is_connected(op.expect["g"]):
        return f"{op.label}: input is not connected"
    return None
