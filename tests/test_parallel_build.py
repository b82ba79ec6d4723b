"""Build-equivalence properties of the :mod:`repro.build` pipeline.

The contract under test: every build strategy — legacy per-vertex,
serial shared-pass, and true multi-process — produces indexes whose
payloads are byte-identical (modulo the wall-clock build profile), and
the ``compress``-equals-``build`` invariant survives parallelism.
"""

import json

import pytest

from repro.errors import InvalidParameterError
from repro.graph.graph import Graph
from repro.core.tsd import TSDIndex
from repro.core.gct import GCTIndex
from repro.build import (
    MODE_PARALLEL,
    MODE_PER_VERTEX,
    MODE_SERIAL,
    BuildPlan,
    ParallelIndexBuilder,
    build_indexes,
    repair_forests,
)
from repro.service.snapshot import Snapshot
from repro.service.updates import apply_batch, insert, delete
from repro.engine import EngineConfig, QueryEngine
from repro.datasets.paper import figure1_graph
from repro.datasets.synthetic import (
    erdos_renyi,
    power_law_graph,
    powerlaw_cluster,
)


def payload_bytes(index) -> bytes:
    """Byte form of an index payload, build profile stripped (the one
    wall-clock-dependent field)."""
    return json.dumps(index.to_payload(include_profile=False),
                      sort_keys=False).encode()


def forced(jobs: int) -> BuildPlan:
    """A plan that really spawns ``jobs`` workers, bypassing the
    small-graph and CPU-budget downgrades — the point of these tests is
    to exercise the pool even on tiny graphs and 1-CPU CI runners."""
    return BuildPlan(MODE_PARALLEL, jobs, "forced by test")


def random_graphs():
    yield figure1_graph()
    yield Graph()                                    # empty
    yield Graph(vertices=[0, 1, 2])                  # edgeless
    yield Graph(edges=[(0, 1)])                      # single edge
    yield Graph(edges=[(0, 1), (1, 2), (0, 2)])      # one triangle
    for seed in (1, 2, 3):
        yield erdos_renyi(60, 0.12, seed=seed)
        yield powerlaw_cluster(120, 3, 0.6, seed=seed)
    yield power_law_graph(400, 5, seed=9)
    # Non-integer, insertion-order-sensitive labels.
    yield Graph(edges=[("b", "a"), ("a", "c"), ("b", "c"), ("c", "d"),
                       ("d", "b"), ("a", "d"), ("x", "y")])


class TestTSDBuildEquivalence:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_parallel_matches_serial(self, jobs):
        for graph in random_graphs():
            serial = TSDIndex.build(graph)
            parallel = TSDIndex.build(graph, jobs=jobs, plan=forced(jobs))
            assert payload_bytes(parallel) == payload_bytes(serial)

    def test_shared_serial_matches_per_vertex(self):
        for graph in random_graphs():
            assert (payload_bytes(TSDIndex.build(graph, jobs=1))
                    == payload_bytes(TSDIndex.build(graph)))

    def test_public_jobs_api_matches_serial(self):
        # Whatever plan jobs=2 or jobs=4 resolves to on this machine,
        # the payload must not change.
        graph = powerlaw_cluster(150, 3, 0.5, seed=4)
        serial = payload_bytes(TSDIndex.build(graph))
        for jobs in (2, 4):
            assert payload_bytes(TSDIndex.build(graph, jobs=jobs)) == serial

    def test_parallel_build_profile_present(self):
        graph = powerlaw_cluster(100, 3, 0.5, seed=1)
        index = TSDIndex.build(graph, plan=forced(2))
        profile = index.build_profile
        assert profile is not None
        assert profile.total_seconds >= 0.0


class TestGCTBuildEquivalence:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_parallel_matches_serial(self, jobs):
        for graph in random_graphs():
            serial = GCTIndex.build(graph)
            parallel = GCTIndex.build(graph, jobs=jobs, plan=forced(jobs))
            assert payload_bytes(parallel) == payload_bytes(serial)

    def test_shared_serial_matches_legacy(self):
        for graph in random_graphs():
            assert (payload_bytes(GCTIndex.build(graph, jobs=1))
                    == payload_bytes(GCTIndex.build(graph)))

    def test_compress_of_parallel_tsd_matches_build(self):
        # The PR 1 invariant must survive parallelism: compressing a
        # parallel-built TSD still equals a from-scratch GCT build.
        for graph in random_graphs():
            parallel_tsd = TSDIndex.build(graph, plan=forced(2))
            assert (payload_bytes(GCTIndex.compress(parallel_tsd))
                    == payload_bytes(GCTIndex.build(graph)))


class TestBuildBoth:
    def test_shares_one_decomposition(self):
        for graph in random_graphs():
            tsd, gct = build_indexes(graph, plan=forced(2))
            assert payload_bytes(tsd) == payload_bytes(TSDIndex.build(graph))
            serial_tsd = TSDIndex.build(graph)
            assert (payload_bytes(gct)
                    == payload_bytes(GCTIndex.compress(serial_tsd)))

    def test_per_vertex_plan_falls_back(self):
        graph = figure1_graph()
        tsd, gct = build_indexes(graph, jobs=None)
        assert payload_bytes(tsd) == payload_bytes(TSDIndex.build(graph))
        assert gct.build_profile is None  # compress never has one

    def test_builder_caches_extraction(self):
        builder = ParallelIndexBuilder(powerlaw_cluster(80, 3, 0.5, seed=2),
                                       jobs=1)
        tsd = builder.build_tsd()
        gct = builder.build_gct()
        # Same extraction seconds reported by both profiles — one pass.
        assert (tsd.build_profile.extraction_seconds
                == gct.build_profile.extraction_seconds)


class TestBuildPlan:
    def test_jobs_none_is_per_vertex(self):
        assert BuildPlan.decide(10**6, jobs=None).mode == MODE_PER_VERTEX

    def test_jobs_one_is_serial(self):
        assert BuildPlan.decide(10**6, jobs=1).mode == MODE_SERIAL

    def test_small_graph_never_spawns(self):
        plan = BuildPlan.decide(500, jobs=8, cpu_budget=8)
        assert plan.mode == MODE_SERIAL
        assert plan.jobs == 1

    def test_clamped_to_cpu_budget(self):
        plan = BuildPlan.decide(10**6, jobs=16, cpu_budget=4)
        assert plan.mode == MODE_PARALLEL
        assert plan.jobs == 4

    def test_one_cpu_downgrades_to_serial(self):
        assert BuildPlan.decide(10**6, jobs=4, cpu_budget=1).mode == MODE_SERIAL

    def test_auto_uses_budget(self):
        plan = BuildPlan.decide(10**6, jobs=0, cpu_budget=3)
        assert plan.mode == MODE_PARALLEL
        assert plan.jobs == 3

    def test_negative_jobs_rejected(self):
        with pytest.raises(InvalidParameterError):
            BuildPlan.decide(100, jobs=-1)

    def test_invalid_plans_rejected(self):
        with pytest.raises(InvalidParameterError):
            BuildPlan("bogus", 1, "?")
        with pytest.raises(InvalidParameterError):
            BuildPlan(MODE_SERIAL, 2, "serial cannot have 2 jobs")
        with pytest.raises(InvalidParameterError):
            BuildPlan(MODE_PARALLEL, 0, "no workers")

    def test_builder_rejects_per_vertex_plan(self):
        with pytest.raises(InvalidParameterError):
            ParallelIndexBuilder(figure1_graph(),
                                 plan=BuildPlan.decide(10, jobs=None))


class TestRepairForests:
    def test_matches_serial_repair(self):
        graph = powerlaw_cluster(120, 3, 0.6, seed=5)
        targets = list(graph.vertices())[:30]
        serial = repair_forests(graph, targets)            # jobs=None
        pooled = repair_forests(graph, targets, plan=forced(2))
        assert pooled == serial

    def test_skips_vertices_not_in_graph(self):
        graph = Graph(edges=[(0, 1), (1, 2), (0, 2)])
        forests = repair_forests(graph, [0, 99])
        assert set(forests) == {0}


class TestUpdatePathEquivalence:
    def test_apply_batch_parallel_matches_serial(self):
        graph = powerlaw_cluster(100, 3, 0.6, seed=6)
        base = Snapshot.build(graph)
        vertices = list(graph.vertices())
        updates = [insert("n1", vertices[0]), insert("n1", vertices[1]),
                   insert(vertices[0], "n2"),
                   delete(*next(iter(graph.edges())))]
        serial_next, serial_report = apply_batch(base, updates)
        pooled_next, pooled_report = apply_batch(base, updates, jobs=2)
        assert (payload_bytes(pooled_next.gct)
                == payload_bytes(serial_next.gct))
        assert (pooled_report.affected_vertices
                == serial_report.affected_vertices)
        assert pooled_report.rebuilt_forests == serial_report.rebuilt_forests


class TestEngineAndServiceJobs:
    def test_engine_build_jobs_rank_identical(self):
        graph = powerlaw_cluster(90, 3, 0.5, seed=7)
        default = QueryEngine(graph)
        legacy = QueryEngine(graph, EngineConfig(build_jobs=None))
        queries = [(3, 5), (4, 5), (5, 3)]
        for a, b in zip(default.top_r_many(queries),
                        legacy.top_r_many(queries)):
            assert a.vertices == b.vertices
            assert a.scores == b.scores
        assert (payload_bytes(default.tsd_index)
                == payload_bytes(legacy.tsd_index))

    def test_snapshot_build_jobs_identical(self):
        graph = powerlaw_cluster(90, 3, 0.5, seed=8)
        auto = Snapshot.build(graph)            # jobs=0 auto (default)
        legacy = Snapshot.build(graph, jobs=None)
        assert payload_bytes(auto.gct) == payload_bytes(legacy.gct)
