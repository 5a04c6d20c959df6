from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import cogret
from cogret import cotree as cotree_module
from cogret import retract_cograph
from cogret.cli import main
from cogret.cotree import (
    JOIN,
    UNION,
    Internal,
    Leaf,
    _PreparedGraph,
    build_cotree,
    classify,
    clique_number,
    format_cotree,
)
from cogret.graph_core import (
    Graph,
    format_edge_list,
    format_graph6,
    induced_subgraph,
    parse_edge_list,
    random_cograph,
)

from tests.helpers import (
    BUTTERFLY,
    C4,
    K1,
    K2,
    K3,
    P4,
    PAW,
    TWO_K2,
    all_cographs,
    cotree_chain,
    count_cotree_builds,
    count_eliminations,
)


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def files(tmp_path):
    paths = {}

    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)

    write("butterfly.ct", format_cotree(build_cotree(BUTTERFLY)) + "\n")
    write("k3.ct", format_cotree(build_cotree(K3)) + "\n")
    write("paw.el", format_edge_list(PAW))
    write("k2.g6", format_graph6(K2) + "\n")
    write("p4.el", format_edge_list(P4))
    write("inst.txt", "2 16\n5 5 5 5 6 6\n")
    write("hset.txt", "0 1 2\n")
    write("ids_word.txt", "0 x 1\n")
    write("ids_range.txt", "5\n")
    write("inst_bad.txt", "2 16\n5 five 5 5 6 6\n")
    write("empty.el", "0\n")
    write("k2.el", format_edge_list(K2))
    write("k1.el", format_edge_list(K1))
    write("c4.el", format_edge_list(C4))
    # K1 joined with 6K2: 13 vertices, one of them universal
    spokes = [(0, v) for v in range(1, 13)]
    rims = [(v, v + 1) for v in range(1, 13, 2)]
    write("k1_6k2.el", format_edge_list(Graph(13, spokes + rims)))
    paths["dir"] = str(tmp_path)
    return paths


def run_json(runner, args):
    result = runner.invoke(main, args)
    assert result.output, result.exception
    return result.exit_code, json.loads(result.output)


class TestRetractCommand:
    def test_yes_with_route(self, runner, files):
        code, report = run_json(runner, ["retract", files["butterfly.ct"], files["k3.ct"]])
        assert code == 0
        assert report["verdict"] == "YES"
        assert report["route"] == "tp"
        assert report["omega_g"] == report["omega_h"] == 3
        assert len(report["certificate"]["rho"]) == 5
        assert len(report["certificate"]["gamma"]) == 3

    def test_no(self, runner, files):
        code, report = run_json(runner, ["retract", files["butterfly.ct"], files["paw.el"]])
        assert code == 1
        assert report["verdict"] == "NO"

    def test_routes_look_for_no_witness(self, runner, files, monkeypatch):
        # the recognizers give every class; only classify looks for a C4 or 2K2
        from cogret.retract_tp import NotTriviallyPerfectError, tp_retract

        def refuse(root, name):
            raise AssertionError("a retract route looked for a witness")

        monkeypatch.setattr(cotree_module, "_witness", refuse)
        for g, h, yes in ((BUTTERFLY, K3, True), (BUTTERFLY, PAW, False), (TWO_K2, K2, True)):
            result, route = retract_cograph.retract(g, h)
            assert route == "tp" and isinstance(result, cogret.RetractCertificate) == yes
            assert isinstance(tp_retract(g, h), cogret.RetractCertificate) == yes
            assert isinstance(retract_cograph.fpt_retract(g, h), cogret.RetractCertificate) == yes
        for g, h, yes in ((C4, K2, True), (C4, TWO_K2, False), (K2, C4, False)):
            result, route = retract_cograph.retract(g, h)
            assert route == "fpt" and isinstance(result, cogret.RetractCertificate) == yes
            assert isinstance(retract_cograph.fpt_retract(g, h), cogret.RetractCertificate) == yes
            with pytest.raises(NotTriviallyPerfectError, match="induced C4"):
                tp_retract(g, h)
        for g, h, route, verdict in (
            ("butterfly.ct", "k3.ct", "tp", "YES"),
            ("butterfly.ct", "paw.el", "tp", "NO"),
            ("c4.el", "k2.el", "fpt", "YES"),
        ):
            _, report = run_json(runner, ["retract", files[g], files[h]])
            assert report["route"] == route and report["verdict"] == verdict
        result = runner.invoke(main, ["retract", files["c4.el"], files["k2.el"], "--solver", "tp"])
        assert result.exit_code == 2 and "induced C4" in result.output
        with pytest.raises(AssertionError, match="witness"):
            classify(C4)
        monkeypatch.undo()
        assert classify(C4).witness == (0, 1, 2, 3)
        assert classify(BUTTERFLY).witness == (1, 2, 3, 4)

    def test_not_cograph_is_error(self, runner, files):
        result = runner.invoke(main, ["retract", files["p4.el"], files["k2.g6"]])
        assert result.exit_code == 2
        assert "P4" in result.output or "not a cograph" in result.output

    @pytest.mark.parametrize(
        "g, h",
        [(BUTTERFLY, K3), (BUTTERFLY, PAW), (random_cograph(14, 3), random_cograph(5, 9))],
        ids=["tp-yes", "no", "fpt-yes"],
    )
    def test_reports_agree_across_formats(self, runner, tmp_path, g, h):
        writers = {
            "el": format_edge_list,
            "g6": format_graph6,
            "ct": lambda x: format_cotree(build_cotree(x)) + "\n",
        }
        reports = []
        for ext, write in writers.items():
            paths = []
            for name, graph in (("g", g), ("h", h)):
                path = tmp_path / f"{name}.{ext}"
                path.write_text(write(graph))
                paths.append(str(path))
            code, report = run_json(runner, ["retract", *paths])
            del report["inputs"], report["millis"]
            reports.append((code, report))
        assert reports[0] == reports[1] == reports[2]

    def test_solver_forcing(self, runner, files):
        code, report = run_json(
            runner,
            ["retract", files["butterfly.ct"], files["k3.ct"], "--solver", "fpt"],
        )
        assert code == 0 and report["route"] == "fpt"
        code, report = run_json(
            runner,
            ["retract", files["butterfly.ct"], files["k3.ct"], "--solver", "oracle"],
        )
        assert code == 0 and report["route"] == "oracle"

    def test_forced_class_mismatch_errors(self, runner, files):
        result = runner.invoke(
            main,
            ["retract", files["butterfly.ct"], files["k3.ct"], "--solver", "threshold"],
        )
        assert result.exit_code == 2

    def test_partitioned_flag(self, runner, files):
        code, report = run_json(
            runner,
            ["retract", files["butterfly.ct"], "--partitioned", files["hset.txt"]],
        )
        assert code == 0
        assert report["route"] == "partitioned"
        assert report["verdict"] == "YES"

    def test_determinism_modulo_millis(self, runner, files):
        _, a = run_json(runner, ["retract", files["butterfly.ct"], files["k3.ct"]])
        _, b = run_json(runner, ["retract", files["butterfly.ct"], files["k3.ct"]])
        a.pop("millis")
        b.pop("millis")
        assert a == b

    def test_batch_order(self, runner, files, tmp_path):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(
            f"{files['butterfly.ct']} {files['k3.ct']}\n"
            f"{files['butterfly.ct']} {files['paw.el']}\n"
        )
        result = runner.invoke(main, ["retract", "--batch", str(manifest)])
        reports = json.loads(result.output)
        assert [r["verdict"] for r in reports] == ["YES", "NO"]
        assert result.exit_code == 1  # worst exit code across the batch

    def test_oracle_and_auto_agree(self, runner, files):
        for pair in (("butterfly.ct", "k3.ct"), ("butterfly.ct", "paw.el")):
            code_a, _ = run_json(
                runner, ["retract", files[pair[0]], files[pair[1]], "--solver", "auto"]
            )
            code_o, _ = run_json(
                runner, ["retract", files[pair[0]], files[pair[1]], "--solver", "oracle"]
            )
            assert code_a == code_o


class TestInputErrors:
    @pytest.mark.parametrize(
        "args",
        [
            ["retract", "@k3.ct", "--partitioned", "@ids_word.txt"],
            ["retract", "@k3.ct", "--partitioned", "@ids_range.txt"],
            ["retract", "@k3.ct", "--partitioned", "@missing.txt"],
            ["retract", "--batch", "@missing.txt"],
            ["reduce3p", "@inst_bad.txt", "@out"],
            ["retract", "@p4.el", "@k1.el", "--solver", "oracle"],
            ["retract", "@k1_6k2.el", "@k1.el", "--solver", "oracle"],
            ["folding", "@k1_6k2.el"],
        ],
        ids=[
            "ids-not-integer",
            "id-out-of-range",
            "ids-missing",
            "batch-missing",
            "bad-instance",
            "oracle-not-cograph",
            "oracle-host-over-vertex-cap",
            "folding-universal-over-achromatic-cap",
        ],
    )
    def test_exit_2_with_message(self, runner, files, args):
        args = [str(Path(files["dir"]) / a[1:]) if a.startswith("@") else a for a in args]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Error:" in result.output

    @pytest.mark.parametrize(
        "args",
        [
            ["absolute", "@paw.el", "--out", "@no_such_dir/x.el"],
            ["reduce3p", "@inst.txt", "@no_such_dir/pre"],
        ],
        ids=["absolute-out-unwritable", "reduce3p-prefix-unwritable"],
    )
    def test_unwritable_output_exit_2(self, runner, files, args):
        args = [str(Path(files["dir"]) / a[1:]) if a.startswith("@") else a for a in args]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Error: cannot write" in result.output
        assert "no_such_dir" in result.output

    def test_too_deep_for_the_solver_exit_2(self, runner, tmp_path):
        # 2K2 against K2+K1, each under 500 vertices added alternately
        # universal and isolated: a NO the recursive cotree-pair solver
        # cannot reach
        paths = []
        for name, base in (("g", TWO_K2), ("h", Graph(3, [(0, 1)]))):
            node = build_cotree(base)
            for i in range(500):
                node = Internal(UNION if i % 2 else JOIN, (Leaf(base.n + i), node))
            path = tmp_path / f"{name}.ct"
            path.write_text(format_cotree(node) + "\n")
            paths.append(str(path))
        result = runner.invoke(main, ["retract", *paths])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Error: input too deep" in result.output

    @pytest.mark.parametrize(
        "args",
        [
            ["retract", "@empty.el", "@empty.el"],
            ["retract", "@k2.el", "@empty.el"],
            ["retract", "@empty.el", "@empty.el", "--solver", "tp"],
            ["retract", "@k2.el", "@empty.el", "--solver", "tp"],
            ["retract", "@empty.el", "@empty.el", "--solver", "fpt"],
            ["retract", "@k2.el", "@empty.el", "--solver", "fpt"],
            ["classify", "@empty.el"],
            ["folding", "@empty.el"],
            ["absolute", "@empty.el"],
            ["oracle", "folding", "@empty.el"],
        ],
        ids=[
            "retract-empty-empty",
            "retract-k2-empty",
            "retract-tp-empty-empty",
            "retract-tp-k2-empty",
            "retract-fpt-empty-empty",
            "retract-fpt-k2-empty",
            "classify-empty",
            "folding-empty",
            "absolute-empty",
            "oracle-folding-empty",
        ],
    )
    def test_empty_graph_exit_2(self, runner, files, args):
        args = [str(Path(files["dir"]) / a[1:]) if a.startswith("@") else a for a in args]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Error:" in result.output and "empty graph" in result.output

    @pytest.mark.parametrize("solver", ["threshold", "oracle"])
    def test_empty_graph_answered_by_threshold_and_oracle(self, runner, files, solver):
        code, report = run_json(
            runner, ["retract", files["empty.el"], files["empty.el"], "--solver", solver]
        )
        assert code == 0 and report["route"] == solver
        assert report["certificate"] == {"rho": [], "gamma": []}
        assert report["omega_g"] == report["omega_h"] == 0
        code, report = run_json(
            runner, ["retract", files["k2.el"], files["empty.el"], "--solver", solver]
        )
        assert code == 1 and report["verdict"] == "NO" and report["route"] == solver
        assert report["omega_g"] == 2 and report["omega_h"] == 0


class TestCotreeBuilds:
    @pytest.mark.parametrize(
        "g, h, solver, route, most",
        [
            ("paw.el", "k2.g6", "auto", "threshold", 0),
            ("butterfly.ct", "k3.ct", "auto", "tp", 2),
            ("c4.el", "k2.el", "auto", "fpt", 2),
            ("butterfly.ct", "k3.ct", "tp", "tp", 2),
            ("butterfly.ct", "paw.el", "fpt", "fpt", 2),
        ],
    )
    def test_each_graph_built_at_most_once(
        self, runner, files, monkeypatch, g, h, solver, route, most
    ):
        builds = count_cotree_builds(monkeypatch)
        code, report = run_json(runner, ["retract", files[g], files[h], "--solver", solver])
        assert code in (0, 1) and report["route"] == route
        assert sum(builds.values()) <= most
        assert all(count == 1 for count in builds.values())

    def test_partitioned_builds_host_once(self, runner, files, monkeypatch):
        builds = count_cotree_builds(monkeypatch)
        patterns = []

        def induced(g, vertices):
            patterns.append(sorted(vertices))
            return induced_subgraph(g, vertices)

        monkeypatch.setattr(retract_cograph, "induced_subgraph", induced)
        # 2 and 4 hang off the pattern's 1 and 3 in the butterfly's two
        # triangles, so no retraction folds them away
        no_set = Path(files["dir"]) / "hset_no.txt"
        no_set.write_text("0 1 3\n")
        code, report = run_json(
            runner, ["retract", files["butterfly.ct"], "--partitioned", str(no_set)]
        )
        assert code == 1 and report["route"] == "partitioned"
        assert list(builds.values()) == [1]
        assert patterns == []  # a NO needs no pattern graph
        builds.clear()
        code, report = run_json(
            runner, ["retract", files["butterfly.ct"], "--partitioned", files["hset.txt"]]
        )
        assert code == 0 and report["route"] == "partitioned"
        assert report["omega_g"] == report["omega_h"] == 3
        # the host is trivially perfect, so classifying it builds its
        # cotree; the pattern is a triangle, which is threshold
        assert list(builds.values()) == [1]
        # the YES is verified against the one pattern graph built
        assert patterns == [[0, 1, 2]]

    def test_threshold_solver_eliminates_each_graph_once(self, runner, files, monkeypatch):
        eliminations = count_eliminations(monkeypatch)
        code, report = run_json(
            runner, ["retract", files["paw.el"], files["k3.ct"], "--solver", "threshold"]
        )
        assert code == 0 and report["route"] == "threshold"
        assert report["omega_g"] == report["omega_h"] == 3
        assert sorted(eliminations.values()) == [1, 1]

    def test_omegas_match_cotree_on_exhaustive_pairs(self, monkeypatch):
        graphs_g = [g for n in range(1, 6) for g in all_cographs(n)]
        graphs_h = [h for n in range(1, 5) for h in all_cographs(n)]
        # reference values before the counting starts
        omega = {id(g): clique_number(build_cotree(g)) for g in graphs_g + graphs_h}
        builds = count_cotree_builds(monkeypatch)
        for g in graphs_g:
            for h in graphs_h:
                pg, ph = _PreparedGraph(g), _PreparedGraph(h)
                _, route = retract_cograph._routed_retract(pg, ph, "auto")
                before = sum(builds.values())
                assert pg.omega == omega[id(g)]
                assert ph.omega == omega[id(h)]
                assert sum(builds.values()) == before  # the report adds no builds
                assert before == 0 if route == "threshold" else max(builds.values()) == 1
                builds.clear()


class TestOtherCommands:
    def test_classify(self, runner, files):
        code, report = run_json(runner, ["classify", files["paw.el"]])
        assert code == 0 and report["class"] == "threshold"
        code, report = run_json(runner, ["classify", files["p4.el"]])
        assert report["class"] == "not_cograph" and len(report["witness"]) == 4

    def test_classify_deep_cotree_file(self, runner, tmp_path):
        deep = tmp_path / "deep.ct"
        deep.write_text(format_cotree(cotree_chain(1300)) + "\n")
        code, report = run_json(runner, ["classify", str(deep)])
        assert code == 0 and report["class"] == "threshold"

    def test_folding(self, runner, files):
        code, report = run_json(runner, ["folding", files["paw.el"]])
        assert code == 0
        assert report["sigma"] == 3
        assert report["route"] == "threshold"
        assert report["verified"] is True

    def test_folding_eliminates_once_and_builds_no_cotree(self, runner, files, monkeypatch):
        eliminations = count_eliminations(monkeypatch)
        builds = count_cotree_builds(monkeypatch)
        code, report = run_json(runner, ["folding", files["paw.el"]])
        assert code == 0 and report["route"] == "threshold" and report["verified"]
        assert list(eliminations.values()) == [1]
        assert not builds

    def test_absolute_false_writes_counterexample(self, runner, files, tmp_path):
        out = tmp_path / "counter.el"
        code, report = run_json(
            runner, ["absolute", files["paw.el"], "--out", str(out)]
        )
        assert code == 1
        assert report["absolute"] is False
        counter = parse_edge_list(out.read_text())
        assert counter.n == 5

    def test_absolute_true(self, runner, files):
        code, report = run_json(runner, ["absolute", files["k3.ct"]])
        assert code == 0 and report["absolute"] is True

    def test_reduce3p_then_retract(self, runner, files, tmp_path):
        prefix = str(tmp_path / "out")
        code, report = run_json(runner, ["reduce3p", files["inst.txt"], prefix])
        assert code == 0
        assert report["n_h"] == 38 and report["degenerate"] is False
        code, verdict_report = run_json(
            runner, ["retract", f"{prefix}_G.ct", f"{prefix}_H.ct"]
        )
        assert code == 0 and verdict_report["verdict"] == "YES"

    def test_oracle_subcommands(self, runner, files):
        code, report = run_json(
            runner, ["oracle", "retract", files["butterfly.ct"], files["k3.ct"]]
        )
        assert code == 0 and report["verdict"] == "YES"
        code, report = run_json(
            runner, ["oracle", "hom", files["k3.ct"], files["k2.g6"]]
        )
        assert code == 1 and report["verdict"] == "NO"
        code, report = run_json(runner, ["oracle", "clique", files["butterfly.ct"]])
        assert report["value"] == 3
        code, report = run_json(runner, ["oracle", "achromatic", files["paw.el"]])
        assert report["value"] == 3
        code, report = run_json(runner, ["oracle", "folding", files["paw.el"]])
        assert report["value"] == 3
        code, report = run_json(runner, ["oracle", "chromatic", files["paw.el"]])
        assert report["value"] == 3

    def test_budget_env_var(self, runner, files, monkeypatch):
        monkeypatch.setenv("RETRACT_ORACLE_BUDGET", "4:100")
        result = runner.invoke(
            main, ["oracle", "retract", files["butterfly.ct"], files["k3.ct"]]
        )
        assert result.exit_code == 2  # five vertices exceed the forced cap
        monkeypatch.setenv("RETRACT_ORACLE_BUDGET", "1000000")
        result = runner.invoke(
            main, ["oracle", "retract", files["butterfly.ct"], files["k3.ct"]]
        )
        assert result.exit_code == 0


class TestImports:
    def test_retract_child_imports_only_what_it_runs(self, files):
        env = dict(os.environ, PYTHONPATH=str(Path(cogret.__file__).parent.parent))
        child = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "cogret.cli", "retract",
             files["butterfly.ct"], files["k3.ct"]],
            capture_output=True, text=True, env=env,
        )
        assert child.returncode == 0, child.stderr
        assert json.loads(child.stdout)["verdict"] == "YES"
        imported = {
            line.rsplit("|", 1)[1].strip()
            for line in child.stderr.splitlines()
            if line.startswith("import time:")
        }
        assert "cogret.retract_cograph" in imported
        unused = {"cogret.oracle", "cogret.reduction", "cogret.folding", "cogret.absolute"}
        assert not imported & unused

    def test_star_import_binds_every_public_name(self):
        namespace: dict = {}
        exec("from cogret import *", namespace)
        assert all(name in namespace for name in cogret.__all__)
        assert set(cogret.__all__) <= set(dir(cogret))
        # every lazily resolved name is public, and no public name is missing
        assert sorted(cogret._SOURCE_OF) == sorted(cogret.__all__)
