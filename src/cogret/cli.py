"""Command-line front end with machine-readable JSON reports.

Exit codes for decision commands: 0 = YES, 1 = NO, 2 = error.  Graph
files are auto-detected by extension: .el edge list, .g6 graph6, .ct
cotree text.  RETRACT_ORACLE_BUDGET ("STATES" or "VERTICES:STATES")
overrides the oracle search caps; any command that runs an oracle
search past its cap exits 2 with the message.  Each command imports only
the modules it runs, so a process starts quickly even without cached
bytecode.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from pathlib import Path

import click

from .cotree import (
    NotCographError,
    _NO_CLASS,
    _PreparedGraph,
    classify,
    cotree_leaves,
    cotree_to_graph,
    format_cotree,
    parse_cotree,
)
from .graph_core import (
    BudgetExceededError,
    Graph,
    NoRetract,
    ParseError,
    RetractCertificate,
    SearchBudget,
    format_edge_list,
    parse_edge_list,
    parse_graph6,
    verify_retract_certificate,
)


class CommandError(click.ClickException):
    exit_code = 2


def _read_text(path: str) -> tuple[str, str]:
    """The file's UTF-8 text and the digest of its bytes, from one read."""
    try:
        data = Path(path).read_bytes()
        return data.decode("utf-8"), hashlib.sha256(data).hexdigest()[:16]
    except OSError as exc:
        raise CommandError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise CommandError(f"{path} is not UTF-8 text: {exc}")


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise CommandError(f"cannot write {path}: {exc}")


def _load_graph(path: str) -> tuple[Graph, str]:
    """The graph in the file and the digest of the file's bytes."""
    suffix = Path(path).suffix
    text, digest = _read_text(path)
    try:
        if suffix == ".g6":
            return parse_graph6(text), digest
        if suffix == ".ct":
            return cotree_to_graph(parse_cotree(text)), digest
        return parse_edge_list(text), digest
    except (ParseError, ValueError) as exc:
        raise CommandError(f"{path}: {exc}")


def _budget_from_env() -> SearchBudget | None:
    raw = os.environ.get("RETRACT_ORACLE_BUDGET")
    if not raw:
        return None
    try:
        if ":" in raw:
            verts, states = raw.split(":", 1)
            return SearchBudget(max_vertices=int(verts), max_states=int(states))
        return SearchBudget(max_vertices=64, max_states=int(raw))
    except ValueError as exc:
        raise CommandError(f"bad RETRACT_ORACLE_BUDGET value {raw!r}: {exc}")


def _cert_payload(result: RetractCertificate | NoRetract) -> dict:
    if isinstance(result, NoRetract):
        return {"verdict": "NO", "reason": result.reason}
    return {
        "verdict": "YES",
        "certificate": {"rho": list(result.rho), "gamma": list(result.gamma)},
    }


def _emit(report: dict, code: int) -> None:
    click.echo(json.dumps(report, indent=2))
    sys.exit(code)


class _Main(click.Group):
    """The command group; an oracle search past its budget or, under a
    raised vertex cap, too deep for its recursion is an error, as is a solver
    whose own certificate check fails: none may exit 1, the code for NO."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except RecursionError as exc:
            raise CommandError(f"input too deep for the solver: {exc}")
        except BudgetExceededError as exc:
            raise CommandError(str(exc))
        except AssertionError as exc:
            raise CommandError(f"internal error: {exc}")


@click.group(cls=_Main)
def main() -> None:
    """Retracts, foldings and absolute retracts in cographs."""


@main.command(name="retract")
@click.argument("g_path", required=False)
@click.argument("h_path", required=False)
@click.option(
    "--solver",
    type=click.Choice(["auto", "threshold", "tp", "fpt", "oracle"]),
    default="auto",
    show_default=True,
)
@click.option(
    "--partitioned",
    "partitioned_path",
    default=None,
    help="File of pattern vertex ids; solves the induced-subgraph case on G.",
)
@click.option(
    "--batch",
    "batch_path",
    default=None,
    help="Manifest with one 'G_PATH H_PATH' pair per line; reports in order.",
)
def cmd_retract(g_path, h_path, solver, partitioned_path, batch_path) -> None:
    """Decide whether the graph in H_PATH is a retract of the one in G_PATH."""
    if batch_path and (g_path or partitioned_path):
        raise CommandError("--batch takes no G_PATH, H_PATH or --partitioned")
    if partitioned_path and (h_path or solver != "auto"):
        raise CommandError("--partitioned takes G_PATH alone, with no H_PATH or --solver")
    if batch_path:
        reports = []
        worst = 0
        for lineno, raw in enumerate(_read_text(batch_path)[0].splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise CommandError(f"{batch_path}:{lineno}: expected 'G H'")
            report, code = _solve_pair(parts[0], parts[1], solver, None)
            reports.append(report)
            worst = max(worst, code)
        click.echo(json.dumps(reports, indent=2))
        sys.exit(worst)
    if not g_path or (not h_path and not partitioned_path):
        raise CommandError("need G_PATH and H_PATH (or --partitioned/--batch)")
    report, code = _solve_pair(g_path, h_path, solver, partitioned_path)
    _emit(report, code)


def _solve_pair(
    g_path: str, h_path: str | None, solver: str, partitioned_path: str | None
) -> tuple[dict, int]:
    from .retract_cograph import (
        PartitionedInstance,
        _partitioned_on_cotree,
        _routed_retract,
    )

    g, g_digest = _load_graph(g_path)
    started = time.perf_counter()
    report: dict = {"command": "retract", "inputs": {"g": g_digest}}
    try:
        if partitioned_path is not None:
            text = _read_text(partitioned_path)[0]
            try:
                inst = PartitionedInstance(g, frozenset(int(tok) for tok in text.split()))
            except ValueError as exc:
                raise CommandError(f"{partitioned_path}: {exc}")
            pg = _PreparedGraph(g)
            result, omega_h = _partitioned_on_cotree(g, pg.tree if inst.hset else None, inst.hset)
            route = "partitioned"
        else:
            assert h_path is not None
            h, report["inputs"]["h"] = _load_graph(h_path)
            if solver == "oracle":
                result, route = _oracle_retract(g, h), solver
                pg, ph = _PreparedGraph(g), _PreparedGraph(h)  # for the report's omegas
            else:
                pg, ph = _PreparedGraph(g), _PreparedGraph(h)
                result, route = _routed_retract(pg, ph, solver)
            # inside the try: the oracle answers on a non-cograph, whose omega raises
            omega_h = ph.omega
        omega_g = pg.omega
    except (NotCographError, ValueError) as exc:
        # ValueError covers the class errors of the forced routes and the
        # empty graph, which has no class
        raise CommandError(str(exc))
    report.update(_cert_payload(result))
    report["route"] = route
    report["omega_g"] = omega_g
    report["omega_h"] = omega_h
    report["millis"] = round(1000 * (time.perf_counter() - started), 3)
    return report, 0 if isinstance(result, RetractCertificate) else 1


@main.command(name="classify")
@click.argument("g_path")
def cmd_classify(g_path) -> None:
    """Report the smallest graph class of the input."""
    g, g_digest = _load_graph(g_path)
    try:
        cls = classify(g)
    except ValueError as exc:
        raise CommandError(f"{g_path}: {exc}")
    report = {
        "command": "classify",
        "inputs": {"g": g_digest},
        "class": cls.name,
        "witness_kind": cls.witness_kind,
        "witness": list(cls.witness) if cls.witness else None,
    }
    _emit(report, 0)


@main.command(name="folding")
@click.argument("g_path")
def cmd_folding(g_path) -> None:
    """Compute the folding number, with a verified fold sequence when cheap."""
    from . import folding as folding_mod

    g, g_digest = _load_graph(g_path)
    started = time.perf_counter()
    budget = _budget_from_env()
    if g.n == 0:
        raise CommandError(f"{g_path}: {_NO_CLASS}")
    prepared = _PreparedGraph(g)
    report: dict = {"command": "folding", "inputs": {"g": g_digest}}
    if prepared.order is not None:
        sigma, seq = folding_mod._threshold_folding(g, prepared.order)
        route = "threshold"
    elif any(g.degree(v) == g.n - 1 for v in range(g.n)):
        sigma = folding_mod.folding_number_universal(g, budget)
        seq = None
        route = "universal"
    else:
        from . import oracle as oracle_mod

        sigma, seq = oracle_mod.brute_folding_number(
            g, budget or oracle_mod.DEFAULT_FOLDING_BUDGET
        )
        route = "oracle"
    report["sigma"] = sigma
    report["route"] = route
    if seq is not None:
        target = Graph(sigma, [(a, b) for a in range(sigma) for b in range(a + 1, sigma)])
        report["sequence"] = {"component": list(seq.component), "steps": [list(s) for s in seq.steps]}
        report["verified"] = folding_mod.verify_fold_sequence(g, seq, target)
    report["millis"] = round(1000 * (time.perf_counter() - started), 3)
    _emit(report, 0)


@main.command(name="absolute")
@click.argument("h_path")
@click.option("--out", "out_path", default=None, help="Write the counterexample here (.el).")
def cmd_absolute(h_path, out_path) -> None:
    """Test whether the input is an absolute retract for cographs."""
    from . import absolute as absolute_mod

    h, h_digest = _load_graph(h_path)
    try:
        verdict = absolute_mod.is_absolute_retract(h)
    except (ValueError, NotCographError) as exc:
        raise CommandError(str(exc))
    report: dict = {
        "command": "absolute",
        "inputs": {"h": h_digest},
        "absolute": verdict.is_absolute,
        "failing_vertices": list(verdict.failing_vertices),
    }
    if verdict.counterexample is not None:
        report["counterexample"] = format_edge_list(verdict.counterexample)
        if out_path:
            _write_text(out_path, format_edge_list(verdict.counterexample))
            report["counterexample_path"] = out_path
    _emit(report, 0 if verdict.is_absolute else 1)


@main.command(name="reduce3p")
@click.argument("instance_path")
@click.argument("out_prefix")
@click.option("--force", is_flag=True, help="Encode even if the instance is invalid.")
def cmd_reduce3p(instance_path, out_prefix, force) -> None:
    """Encode a 3-partition instance as cotree files PREFIX_G.ct, PREFIX_H.ct."""
    from . import reduction as reduction_mod

    text, digest = _read_text(instance_path)
    try:
        inst = reduction_mod.parse_instance(text)
        pair = reduction_mod.encode(inst, force=force)
    except ValueError as exc:
        raise CommandError(f"{instance_path}: {exc}")
    g_path = f"{out_prefix}_G.ct"
    h_path = f"{out_prefix}_H.ct"
    _write_text(g_path, format_cotree(pair.g) + "\n")
    _write_text(h_path, format_cotree(pair.h) + "\n")
    report = {
        "command": "reduce3p",
        "inputs": {"instance": digest},
        "g_path": g_path,
        "h_path": h_path,
        "degenerate": pair.degenerate,
        "valid_triples": len(pair.triples),
        "n_g": len(cotree_leaves(pair.g)),
        "n_h": len(cotree_leaves(pair.h)),
    }
    _emit(report, 0)


@main.group(name="oracle")
def cmd_oracle() -> None:
    """Budgeted exact searches (ground truth for small inputs)."""


def _oracle_budget() -> SearchBudget:
    return _budget_from_env() or SearchBudget(max_vertices=12)


def _oracle_retract(g: Graph, h: Graph) -> RetractCertificate | NoRetract:
    """brute_retract under the oracle budget, its YES checked: it is the one
    solver that does not verify its own certificate."""
    from . import oracle as oracle_mod

    result = oracle_mod.brute_retract(g, h, _oracle_budget())
    if isinstance(result, RetractCertificate) and not verify_retract_certificate(g, h, result):
        raise CommandError("internal error: certificate failed verification")
    return result


@cmd_oracle.command(name="retract")
@click.argument("g_path")
@click.argument("h_path")
def cmd_oracle_retract(g_path, h_path) -> None:
    (g, g_digest), (h, h_digest) = _load_graph(g_path), _load_graph(h_path)
    result = _oracle_retract(g, h)
    report = {
        "command": "oracle retract",
        "inputs": {"g": g_digest, "h": h_digest},
    }
    report.update(_cert_payload(result))
    _emit(report, 0 if isinstance(result, RetractCertificate) else 1)


@cmd_oracle.command(name="hom")
@click.argument("g_path")
@click.argument("h_path")
def cmd_oracle_hom(g_path, h_path) -> None:
    from . import oracle as oracle_mod

    (g, g_digest), (h, h_digest) = _load_graph(g_path), _load_graph(h_path)
    phi = oracle_mod.brute_hom(g, h, _oracle_budget())
    report = {
        "command": "oracle hom",
        "inputs": {"g": g_digest, "h": h_digest},
        "verdict": "YES" if phi is not None else "NO",
        "map": list(phi) if phi is not None else None,
    }
    _emit(report, 0 if phi is not None else 1)


def _oracle_value_command(name: str, compute):
    """An oracle command printing compute(oracle module, graph)."""

    @cmd_oracle.command(name=name)
    @click.argument("g_path")
    def _cmd(g_path):
        from . import oracle as oracle_mod

        g, g_digest = _load_graph(g_path)
        try:
            value = compute(oracle_mod, g)
        except ValueError as exc:  # the folding number of the empty graph
            raise CommandError(f"{g_path}: {exc}")
        _emit(
            {
                "command": f"oracle {name}",
                "inputs": {"g": g_digest},
                "value": value,
            },
            0,
        )

    return _cmd


_oracle_value_command("clique", lambda oracle, g: oracle.brute_clique(g, _oracle_budget()))
_oracle_value_command(
    "chromatic", lambda oracle, g: oracle.brute_chromatic(g, _oracle_budget())
)
_oracle_value_command(
    "achromatic", lambda oracle, g: oracle.brute_achromatic(g, _oracle_budget())[0]
)
_oracle_value_command(
    "folding", lambda oracle, g: oracle.brute_folding_number(g, _oracle_budget())[0]
)


if __name__ == "__main__":
    main()
