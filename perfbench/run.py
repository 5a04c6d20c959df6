"""Run one workload of the cogret benchmark and print its metrics.

    python3 perfbench/run.py --workload threshold-dispatch --seed 1 --seconds 25 --trace 0

Workloads: threshold-dispatch, tp-dispatch, fpt-search (one `retract()`
call per operation, in this process) and cli-batch (one
`python -m cogret.cli` child per operation, one at a time).  The run sets
up its inputs several times and reports the median set-up time, then
repeats whole rounds of the workload's operations until --seconds have
passed, checking every output.  With --trace 0 the last line of standard
output is a JSON object with the end-to-end metrics; with --trace 1 the run
spends half its time untraced and half replaying each operation's layer
calls under spans, and prints the per-layer metrics instead.  Spans are
written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("threshold-dispatch", "tp-dispatch", "fpt-search", "cli-batch")
SETUP_REPEATS = 5

SOLVER_SPAN = {
    "threshold": "retract_threshold.solve",
    "tp": "retract_tp.solve",
    "fpt": "retract_cograph.fpt",
}

# per-layer metric -> span name; each value is the median span time
LAYER_SPANS = {
    "cotree.classify_ms": "cotree.classify",
    "cotree.build_ms": "cotree.build",
    "cotree.parse_ms": "cotree.parse",
    "graph_core.parse_ms": "graph_core.parse",
    "graph_core.verify_ms": "graph_core.verify",
    "retract_threshold.elimination_ms": "retract_threshold.elimination",
    "retract_threshold.solve_ms": "retract_threshold.solve",
    "retract_tp.solve_ms": "retract_tp.solve",
    "retract_cograph.fpt_ms": "retract_cograph.fpt",
    "retract_cograph.partitioned_ms": "retract_cograph.partitioned",
    "reduction.encode_ms": "reduction.encode",
    "folding.threshold_ms": "folding.threshold",
    "folding.verify_ms": "folding.verify",
    "absolute.test_ms": "absolute.test",
    "cli.start_ms": "cli.start",
}

# spans that replay, in process, the library work a CLI command does
IN_PROCESS = {
    "batch": {"graph_core.parse", "cotree.parse", "retract_cograph.retract", "cli.omega_build", "graph_core.verify"},
    "partitioned": {"graph_core.parse", "cotree.parse", "retract_cograph.partitioned", "cli.omega_build",
                    "graph_core.verify"},
    "folding": {"graph_core.parse", "cotree.parse", "folding.classify", "folding.threshold", "folding.verify"},
    "absolute": {"graph_core.parse", "cotree.parse", "absolute.test"},
}


def fresh_import():
    """Import cogret from source as a new process would."""
    for name in [m for m in sys.modules if m == "cogret" or m.startswith("cogret.")]:
        del sys.modules[name]
    return importlib.import_module("cogret")


class Run:
    def __init__(self, args, workdir: Path):
        from perfbench import workloads

        self.W = workloads
        self.args = args
        self.workdir = workdir
        self.cli = args.workload == "cli-batch"
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.tracer = None
        self.cogret = None
        self.ops: list = []
        self.setup_s: list[float] = []
        self.ratios: list[float] = []  # retract() time over its solver's, per traced pair

    # -- set-up --------------------------------------------------------------

    def setup(self) -> None:
        for _ in range(SETUP_REPEATS):
            self.ops = []
            gc.collect()
            start = perf_counter()
            self.cogret = fresh_import()
            if self.cli:
                self.ops = self.W.cli_ops(self.args.seed, self.workdir)
            else:
                self.ops = self.W.library_ops(self.args.workload, self.args.seed, self.cogret, self.tracer)
            self.setup_s.append(perf_counter() - start)
        for op in self.ops:
            err = self.W.verify_cli_planted(op) if self.cli else self.W.verify_planted(op)
            if err:
                raise SystemExit(f"benchmark input is wrong: {err}")
        gc.collect()
        gc.freeze()

    # -- one operation -------------------------------------------------------

    def record(self, label: str, count: int, error: str | None, raised: bool) -> None:
        self.attempted += count
        if error:
            self.failed += count
            if not raised:
                self.wrong.append(f"{label}: {error}")
            print(f"operation failed: {label}: {error}", file=sys.stderr)

    def library_op(self, op) -> float:
        """Time the op's retract() calls together; check each answer."""
        retract = self.cogret.retract
        try:
            start = perf_counter()
            results = [retract(g, h) for g, h in op.inputs]
            elapsed = perf_counter() - start
        except Exception as exc:  # an operation that raises is a failed one
            self.record(op.label, len(op.pairs), repr(exc), True)
            return -1.0
        error = None
        for pair, route, (result, got) in zip(op.pairs, op.routes, results):
            error = error or self.W.check_retract(pair, route, result, got, self.cogret)
        self.record(op.label, len(op.pairs), error, False)
        return -1.0 if error else elapsed

    def cli_op(self, op) -> float:
        start = perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "cogret.cli", *op.args],
                capture_output=True, text=True, env=self.child_env(), cwd=ROOT, timeout=120,
            )
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            self.record(op.label, 1, "no answer within 120 s", True)
            return -1.0
        elapsed = perf_counter() - start
        error = self.W.check_cli(op, proc.returncode, proc.stdout)
        raised = proc.returncode not in (0, 1) or "Traceback" in proc.stderr
        if error and raised:
            error += ": " + proc.stderr.strip()[-300:]
        self.record(op.label, 1, error, raised)
        return -1.0 if error else elapsed

    @staticmethod
    def child_env() -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        return env

    # -- untraced rounds -----------------------------------------------------

    def measure(self, seconds: float) -> dict[int, list[float]]:
        """Whole rounds until `seconds` pass; for each operation of the
        round, the ms per call of every time it ran."""
        samples: dict[int, list[float]] = {i: [] for i in range(len(self.ops))}
        deadline = perf_counter() + seconds
        while True:
            gc.collect()
            for i, op in enumerate(self.ops):
                elapsed = self.cli_op(op) if self.cli else self.library_op(op)
                if elapsed >= 0:
                    samples[i].append(1000.0 * elapsed / self.calls(op))
            if perf_counter() >= deadline:
                return samples

    def calls(self, op) -> int:
        return 1 if self.cli else len(op.pairs)

    def end_to_end(self, samples: dict[int, list[float]]) -> dict:
        """Throughput and the YES and NO means over every call of the run;
        latency quantiles over the round's operations, each taken at its
        mean over the rounds (a group of small pairs counts once per pair).

        Means, not medians, wherever a value rests on few random graphs or
        on few rounds.  A round's YES pairs span a range of sizes, so their
        median is one or two graphs in the middle of it and moves with the
        seed; their mean per call averages every one of them.  And on a
        shared host a sample runs either at full speed or markedly slower:
        a median of an operation's rounds jumps between the two when the
        share of slow samples nears one half, where a mean moves in
        proportion to it."""
        typical = {i: statistics.fmean(xs) for i, xs in samples.items() if xs}

        def per_call(planted=None):
            return [ms for i, ms in typical.items() if planted in (None, self.ops[i].planted)
                    for _ in range(self.calls(self.ops[i]))]

        def mean_ms(planted=None):
            chosen = [i for i in samples if planted in (None, self.ops[i].planted)]
            total_ms = sum(ms * self.calls(self.ops[i]) for i in chosen for ms in samples[i])
            return total_ms / sum(len(samples[i]) * self.calls(self.ops[i]) for i in chosen)

        usage = resource.getrusage(resource.RUSAGE_CHILDREN if self.cli else resource.RUSAGE_SELF)
        return {
            "setup_s": (statistics.median(self.setup_s), "s"),
            "ops_per_s": (1000.0 / mean_ms(), "1/s"),
            "latency_ms_p50": (statistics.median(per_call()), "ms"),
            "latency_ms_p90": (statistics.quantiles(per_call(), n=10)[8], "ms"),
            "yes_ms_mean": (mean_ms("YES"), "ms"),
            "no_ms_mean": (mean_ms("NO"), "ms"),
            "peak_rss_mb": (usage.ru_maxrss / 1024.0, "MB"),
        }

    # -- traced rounds -------------------------------------------------------

    def measure_traced(self, seconds: float) -> dict:
        untraced = self.measure(seconds / 2)
        plain_ms = statistics.median(ms for i, xs in untraced.items() for ms in xs
                                     for _ in range(self.calls(self.ops[i])))
        tracer = self.tracer
        deadline = perf_counter() + seconds / 2
        op_id = 0
        main_spans, overheads = [], []
        while True:
            gc.collect()
            if self.cli:
                with tracer.span("cli.start"):
                    subprocess.run([sys.executable, "-m", "cogret.cli", "--help"], capture_output=True,
                                   env=self.child_env(), cwd=ROOT, timeout=120)
            for op in self.ops:
                if self.cli:
                    op_id += 1
                    tracer.op = op_id
                    with tracer.span("op"):
                        with tracer.span("cli.invoke") as invoke:
                            self.cli_op(op)
                        self.replay_cli(op)
                    main_spans.append(tracer.ms(invoke))
                    inside = sum(tracer.ms(i) for i, s in enumerate(tracer.spans)
                                 if s[4] == op_id and s[0] in IN_PROCESS[op.kind])
                    overheads.append(tracer.ms(invoke) - inside)
                    continue
                for pair, route, (g, h) in zip(op.pairs, op.routes, op.inputs):
                    op_id += 1
                    tracer.op = op_id
                    with tracer.span("op"):
                        times = self.replay_pair(op.label, pair, route, g, h)
                    if times is not None:
                        main_spans.append(times[0])
            if perf_counter() >= deadline:
                break
        layers = {name: (tracer.median_ms(span), "ms") for name, span in LAYER_SPANS.items()}
        layers["retract_cograph.dispatch_over_solver"] = (statistics.median(self.ratios), "ratio")
        layers["cli.overhead_ms"] = (statistics.median(overheads) if overheads else 0.0, "ms")
        layers["trace.overhead_ms"] = (statistics.median(main_spans) - plain_ms, "ms")
        out = ROOT / "perfbench" / "out"
        out.mkdir(parents=True, exist_ok=True)
        tracer.write(out / f"trace-{self.args.workload}-{self.args.seed}.jsonl")
        return layers

    def replay_pair(self, label, pair, route, g, h, count=True) -> tuple[float, float] | None:
        """retract() under a span, then each layer it goes through, each
        under its own span; returns the retract and solver times in ms.
        With count=False the call is a replay of a CLI operation and is
        not counted as an operation of its own."""
        c, t = self.cogret, self.tracer
        solver = {"threshold": c.threshold_retract, "tp": c.tp_retract, "fpt": c.fpt_retract}[route]
        try:
            with t.span("retract_cograph.retract") as main:
                result, got = c.retract(g, h)
            with t.span("cotree.classify"):
                c.classify(g)
                c.classify(h)
            with t.span("cotree.build"):
                c.build_cotree(g)
                c.build_cotree(h)
            with t.span("retract_threshold.elimination"):
                c.threshold_elimination(g)
                c.threshold_elimination(h)
            with t.span(SOLVER_SPAN[route]) as solve:
                solver(g, h)
            if isinstance(result, c.RetractCertificate):
                with t.span("graph_core.verify"):
                    c.verify_retract_certificate(g, h, result)
        except Exception as exc:  # an operation that raises is a failed one
            if count:
                self.record(label, 1, repr(exc), True)
            return None
        if count:
            self.record(label, 1, self.W.check_retract(pair, route, result, got, c), False)
        self.ratios.append(t.ms(main) / t.ms(solve))
        return t.ms(main), t.ms(solve)

    def load(self, path: str):
        c, t = self.cogret, self.tracer
        if path.endswith(".ct"):
            with t.span("cotree.parse"):
                return c.cotree_to_graph(c.parse_cotree(Path(path).read_text()))
        with t.span("graph_core.parse"):
            text = Path(path).read_text()
            return c.parse_graph6(text) if path.endswith(".g6") else c.parse_edge_list(text)

    def replay_cli(self, op) -> None:
        """The library calls the command makes, in this process."""
        c, t = self.cogret, self.tracer
        if op.kind == "batch":
            for pair, route, (gpath, hpath) in zip(op.expect["pairs"], op.expect["routes"],
                                                   zip(op.files[::2], op.files[1::2])):
                g, h = self.load(gpath), self.load(hpath)
                self.replay_pair(op.label, pair, route, g, h, count=False)
                # the command builds both cotrees again for omega_g / omega_h
                with t.span("cli.omega_build"):
                    c.build_cotree(g)
                    c.build_cotree(h)
        elif op.kind == "partitioned":
            g = self.load(op.files[0])
            ids = frozenset(op.expect["ids"])
            with t.span("retract_cograph.partitioned"):
                result = c.partitioned_retract(c.PartitionedInstance(g, ids))
            h, _ = c.induced_subgraph(g, ids)
            with t.span("cli.omega_build"):
                c.build_cotree(g)
                c.build_cotree(h)
            if isinstance(result, c.RetractCertificate):
                with t.span("graph_core.verify"):
                    c.verify_retract_certificate(g, h, result)
        elif op.kind == "folding":
            g = self.load(op.files[0])
            with t.span("folding.classify"):
                c.classify(g)
            with t.span("folding.threshold"):
                sigma, seq = c.threshold_folding_number(g)
            target = c.Graph(sigma, [(a, b) for a in range(sigma) for b in range(a + 1, sigma)])
            with t.span("folding.verify"):
                c.verify_fold_sequence(g, seq, target)
        else:
            g = self.load(op.files[0])
            with t.span("absolute.test"):
                c.is_absolute_retract(g)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cogret" / "__init__.py").is_file():
        print(f"error: no cogret sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    workdir = ROOT / "perfbench" / "out" / f"inputs-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(args, workdir)
        if args.trace:
            from perfbench.trace import Tracer

            run.tracer = Tracer()
            run.setup()
            metrics = run.measure_traced(args.seconds)
        else:
            run.setup()
            metrics = run.end_to_end(run.measure(args.seconds))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": not run.wrong,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
