"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main, build_parser
from repro.graph.graph import Graph
from repro.graph.io import write_edge_list, write_json_graph
from repro.datasets.paper import figure1_graph
from tests.helpers import LEGACY_V, legacy_json_store


@pytest.fixture
def figure1_file(tmp_path):
    """Figure 1 graph with integer labels, as an edge-list file."""
    g = figure1_graph()
    relabel = {v: i for i, v in enumerate(g.vertices())}
    relabelled = Graph(edges=[(relabel[u], relabel[v]) for u, v in g.edges()])
    path = tmp_path / "figure1.txt"
    write_edge_list(relabelled, path)
    return str(path), relabel["v"]


class TestStats:
    def test_stats(self, figure1_file, capsys):
        path, _ = figure1_file
        assert main(["stats", path]) == 0
        out = capsys.readouterr().out
        assert "17" in out and "43" in out

    def test_stats_fast(self, figure1_file, capsys):
        path, _ = figure1_file
        assert main(["stats", path, "--fast"]) == 0
        assert "-" in capsys.readouterr().out


class TestTopr:
    @pytest.mark.parametrize("method", ["baseline", "bound", "tsd", "gct",
                                        "hybrid", "auto"])
    def test_methods_agree(self, figure1_file, capsys, method):
        path, v_id = figure1_file
        assert main(["topr", path, "-k", "4", "-r", "1",
                     "--method", method]) == 0
        out = capsys.readouterr().out
        assert f"{v_id}: score=3" in out

    def test_auto_prints_planner_reason(self, figure1_file, capsys):
        path, _ = figure1_file
        assert main(["topr", path, "-k", "4", "-r", "1",
                     "--method", "auto"]) == 0
        assert "planner:" in capsys.readouterr().out

    def test_contexts_flag(self, figure1_file, capsys):
        path, _ = figure1_file
        assert main(["topr", path, "-k", "4", "-r", "1", "--contexts"]) == 0
        assert "context:" in capsys.readouterr().out


class TestEngineStats:
    def test_engine_stats_workload(self, figure1_file, capsys):
        path, v_id = figure1_file
        assert main(["engine-stats", path,
                     "--queries", "4:1,3:2,4:3"]) == 0
        out = capsys.readouterr().out
        assert "queries served:    3" in out
        assert "planner decisions" in out
        assert "score-map cache" in out
        assert f"{v_id!r}:3" in out or "top=" in out

    def test_engine_stats_forced_method(self, figure1_file, capsys):
        path, _ = figure1_file
        assert main(["engine-stats", path, "--queries", "4:1",
                     "--method", "baseline"]) == 0
        assert "baseline=1" in capsys.readouterr().out


class TestScore:
    def test_score(self, figure1_file, capsys):
        path, v_id = figure1_file
        assert main(["score", path, str(v_id), "-k", "4"]) == 0
        out = capsys.readouterr().out
        assert "= 3" in out
        assert out.count("context:") == 3


class TestIndexCommands:
    def test_build_and_query_tsd(self, figure1_file, tmp_path, capsys):
        path, v_id = figure1_file
        out_path = str(tmp_path / "tsd.json")
        assert main(["build-index", path, out_path, "--type", "tsd"]) == 0
        assert main(["query-index", out_path, "-k", "4", "-r", "1"]) == 0
        assert f"{v_id}: score=3" in capsys.readouterr().out

    def test_build_and_query_gct(self, figure1_file, tmp_path, capsys):
        path, v_id = figure1_file
        out_path = str(tmp_path / "gct.json")
        assert main(["build-index", path, out_path, "--type", "gct"]) == 0
        assert main(["query-index", out_path, "-k", "4", "-r", "1"]) == 0
        assert f"{v_id}: score=3" in capsys.readouterr().out


class TestServeCommands:
    def test_serve_build_then_warm(self, figure1_file, tmp_path, capsys):
        path, v_id = figure1_file
        store = str(tmp_path / "store")
        assert main(["serve-build", path, store]) == 0
        out = capsys.readouterr().out
        assert "stored gct for graph" in out and "as v1" in out
        assert main(["serve-warm", path, store, "--queries", "4:1"]) == 0
        out = capsys.readouterr().out
        assert f"{v_id}:3" in out
        assert "warm (from store)" in out

    def test_serve_warm_unknown_graph_fails(self, figure1_file, tmp_path,
                                            capsys):
        path, _ = figure1_file
        store = str(tmp_path / "store")
        assert main(["serve-warm", path, store]) == 1
        assert "serve-build" in capsys.readouterr().err

    def test_serve_warm_with_updates(self, figure1_file, tmp_path, capsys):
        path, v_id = figure1_file
        store = str(tmp_path / "store")
        assert main(["serve-build", path, store]) == 0
        capsys.readouterr()
        assert main(["serve-warm", path, store, "--queries", "4:1",
                     "--updates", "+0:1000,-0:1000"]) == 0
        out = capsys.readouterr().out
        assert "applied 2 update(s)" in out
        assert "updates applied:   2" in out

    def test_serve_build_takes_no_artifacts_option(self, figure1_file,
                                                   tmp_path):
        """The served GCT is the one artifact there is to build."""
        path, _ = figure1_file
        with pytest.raises(SystemExit):
            main(["serve-build", path, str(tmp_path / "store"),
                  "--artifacts", "gct"])

    def test_bad_update_spec(self, figure1_file, tmp_path):
        from repro.errors import InvalidParameterError
        path, _ = figure1_file
        store = str(tmp_path / "store")
        assert main(["serve-build", path, store]) == 0
        with pytest.raises(InvalidParameterError):
            main(["serve-warm", path, store, "--updates", "bogus"])

    def test_serve_build_writes_binary_artifacts(self, figure1_file,
                                                 tmp_path):
        path, _ = figure1_file
        store = tmp_path / "store"
        assert main(["serve-build", path, str(store)]) == 0
        assert sorted(p.name for p in store.rglob("v1/*")) == ["gct.bin"]

    @pytest.mark.parametrize("command", ["serve-build", "serve"])
    def test_no_format_option(self, command, capsys):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert "--codec" not in capsys.readouterr().out


class TestStoreCommands:
    @pytest.fixture
    def legacy(self, tmp_path):
        graph_file, store = legacy_json_store(tmp_path)
        return str(graph_file), str(store)

    def test_convert_index_migrates_legacy_json(self, legacy, capsys):
        path, store = legacy
        assert main(["convert-index", store]) == 0
        out = capsys.readouterr().out
        assert "migrated 3 legacy JSON artifact file(s)" in out
        assert main(["serve-warm", path, store, "--queries", "4:1"]) == 0
        out = capsys.readouterr().out
        assert f"{LEGACY_V}:3" in out and "warm (from store)" in out
        assert main(["convert-index", store]) == 0
        assert "migrated 0 legacy" in capsys.readouterr().out

    def test_convert_index_takes_no_target(self, legacy):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["convert-index", legacy[1],
                                       "--to", "bin"])

    def test_store_inspect_root(self, legacy, capsys):
        _, store = legacy
        assert main(["store-inspect", store]) == 0
        out = capsys.readouterr().out
        assert "1 graph lineage(s)\n" in out
        assert "v2: tsd[json, " in out and "hybrid[json, " in out
        assert main(["convert-index", store]) == 0
        capsys.readouterr()
        assert main(["store-inspect", store]) == 0
        out = capsys.readouterr().out
        assert "v2: tsd[bin, " in out and "gct[bin, " in out

    def test_store_inspect_bin_artifact(self, figure1_file, tmp_path,
                                        capsys):
        from pathlib import Path
        path, _ = figure1_file
        store = str(tmp_path / "store")
        assert main(["serve-build", path, store]) == 0
        capsys.readouterr()
        artifact = next(Path(store).rglob("gct.bin"))
        assert main(["store-inspect", str(artifact), "--verify"]) == 0
        out = capsys.readouterr().out
        assert "num_vertices" in out and "17" in out
        assert "checksum: ok" in out

    def test_store_inspect_rejects_garbage(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.bin"
        bogus.write_bytes(b"not an artifact")
        assert main(["store-inspect", str(bogus)]) == 1
        assert "error" in capsys.readouterr().err


class TestSparsifyCommand:
    def test_sparsify(self, figure1_file, tmp_path, capsys):
        path, _ = figure1_file
        out_path = str(tmp_path / "reduced.txt")
        assert main(["sparsify", path, out_path, "-k", "4"]) == 0
        assert "removed" in capsys.readouterr().out


class TestGenerate:
    def test_generate_json(self, tmp_path, capsys):
        out_path = str(tmp_path / "wiki.json")
        assert main(["generate", "wiki-vote", out_path]) == 0
        payload = json.loads((tmp_path / "wiki.json").read_text())
        assert payload["format"] == "repro-graph"

    def test_generate_edge_list(self, tmp_path, capsys):
        out_path = str(tmp_path / "wiki.txt")
        assert main(["generate", "wiki-vote", out_path]) == 0
        assert "|V|" in capsys.readouterr().out


class TestCommunities:
    def test_communities(self, tmp_path, capsys):
        from repro.datasets.paper import figure18_graph
        g = figure18_graph()
        relabel = {v: i for i, v in enumerate(g.vertices())}
        relabelled = Graph(edges=[(relabel[u], relabel[v])
                                  for u, v in g.edges()])
        path = str(tmp_path / "f18.txt")
        write_edge_list(relabelled, path)
        assert main(["communities", path, str(relabel["q1"]),
                     "-k", "4", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "1 k-truss communities" in out


class TestAnalyze:
    def test_analyze(self, figure1_file, capsys):
        path, _ = figure1_file
        assert main(["analyze", path, "-k", "4"]) == 0
        out = capsys.readouterr().out
        assert "structural diversity at k=4" in out
        assert "max score: 3" in out


class TestDot:
    def test_dot_export(self, figure1_file, tmp_path, capsys):
        path, v_id = figure1_file
        out_path = str(tmp_path / "ego.dot")
        assert main(["dot", path, str(v_id), out_path, "-k", "4"]) == 0
        text = (tmp_path / "ego.dot").read_text()
        assert text.startswith("graph")
        assert "palegreen" in text
        assert "3 social context(s)" in capsys.readouterr().out

    def test_dot_with_center(self, figure1_file, tmp_path, capsys):
        path, v_id = figure1_file
        out_path = str(tmp_path / "ego2.dot")
        assert main(["dot", path, str(v_id), out_path, "-k", "4",
                     "--center"]) == 0
        assert f'"{v_id}"' in (tmp_path / "ego2.dot").read_text()


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_json_graph_loading(self, tmp_path, capsys):
        g = Graph(edges=[("a", "b"), ("b", "c"), ("a", "c")])
        path = str(tmp_path / "tri.json")
        write_json_graph(g, path)
        # Ego of "a" is the single edge (b, c): one 2-truss context.
        assert main(["score", path, "a", "-k", "2"]) == 0
        assert "= 1" in capsys.readouterr().out


class TestReplicate:
    def _seed_store(self, tmp_path):
        from repro.service.service import DiversityService
        from repro.service.store import IndexStore
        g = Graph(edges=[(0, 1), (1, 2), (0, 2), (2, 3)])
        DiversityService.cold(g, store=IndexStore(tmp_path / "primary"))
        return str(tmp_path / "primary"), str(tmp_path / "replica")

    def test_replicate_then_idempotent_pass(self, tmp_path, capsys):
        source, dest = self._seed_store(tmp_path)
        assert main(["replicate", source, dest]) == 0
        out = capsys.readouterr().out
        assert "replicated 1 lineage(s)" in out
        # Second pass ships nothing: every artifact verifies in place.
        assert main(["replicate", source, dest]) == 0
        assert "0 B shipped" in capsys.readouterr().out

    def test_replicate_unknown_key(self, tmp_path, capsys):
        source, dest = self._seed_store(tmp_path)
        assert main(["replicate", source, dest, "--key", "nope"]) == 1
        assert "error" in capsys.readouterr().err

    def test_replicate_missing_source(self, tmp_path, capsys):
        assert main(["replicate", str(tmp_path / "nowhere"),
                     str(tmp_path / "replica")]) == 1
        assert "error" in capsys.readouterr().err

    def test_serve_replicas_requires_workers(self, tmp_path, capsys):
        g = Graph(edges=[(0, 1), (1, 2), (0, 2)])
        path = str(tmp_path / "tri.txt")
        write_edge_list(g, path)
        assert main(["serve", "--http", "0", "--graph", f"tri={path}",
                     "--replicas", "1"]) == 1
        assert "--workers" in capsys.readouterr().err

    def test_serve_replicas_negative(self, tmp_path, capsys):
        g = Graph(edges=[(0, 1), (1, 2), (0, 2)])
        path = str(tmp_path / "tri.txt")
        write_edge_list(g, path)
        assert main(["serve", "--http", "0", "--graph", f"tri={path}",
                     "--workers", "1", "--replicas", "-2"]) == 1
        assert ">= 0" in capsys.readouterr().err
