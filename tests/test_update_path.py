"""The one update path against the reference algorithms, per family graph.

:func:`repro.service.updates.apply_batch` is the library's only way to
maintain an index under edge updates.  On every graph of the seeded
differential family (see :mod:`tests.test_property_random`) these tests
check it against the paper's reference chain and against itself:

* each repaired ego forest — peeled by the compact-id production
  pipeline — equals Algorithm 1 (the hash peeler) followed by Kruskal,
  and the maintained GCT encodes like the compression of that TSD;
* inserting a batch and then deleting the same edges gives every
  original record back.
"""

import random

import pytest

from repro.build import build_indexes, repair_forests
from repro.core.gct import GCTIndex
from repro.core.online import online_search
from repro.core.tsd import TSDIndex
from repro.service.snapshot import Snapshot
from repro.service.updates import apply_batch

from tests.test_property_random import (
    FAMILY,
    _batches,
    _canonical,
    _gct_bytes,
    _sweep,
)


@pytest.fixture(scope="module", params=[name for name, _ in FAMILY])
def case(request):
    return request.param, dict(FAMILY)[request.param]


class TestOneUpdatePath:
    def test_repaired_forests_equal_the_algorithm1_chain(self, case):
        """After every batch each affected vertex's repaired forest
        equals its ego network peeled by Algorithm 1, then Kruskal, edge
        for edge, and the maintained GCT encodes like the compression of
        that reference TSD."""
        name, graph = case
        current = Snapshot.build(graph)
        for batch in _batches(graph, random.Random(f"algorithm1-{name}")):
            current, report = apply_batch(current, batch)
            after = current.graph_view
            reference = TSDIndex.build(after)
            position = {v: i for i, v in enumerate(after.vertices())}
            targets = sorted(report.affected_vertices,
                             key=position.__getitem__)
            repaired = repair_forests(after, targets)
            for v in targets:
                assert repaired[v] == reference.forest(v), (name, batch, v)
            assert _gct_bytes(current.gct) == \
                _gct_bytes(GCTIndex.compress(reference)), (name, batch)

    def test_insert_then_delete_round_trips_the_index(self, case):
        """Inserting a batch and then deleting the same edges leaves
        the graph plus two isolated newcomers.  Every original vertex
        gets its record back, the newcomers score 0, and the index
        encodes and ranks like a scratch build of that graph."""
        name, graph = case
        rng = random.Random(f"round-trip-{name}")
        vertices = list(graph.vertices())
        a, b = "rt-a", "rt-b"
        absent = [(u, v) for i, u in enumerate(vertices)
                  for v in vertices[i + 1:] if not graph.has_edge(u, v)]
        edits = [(a, b)]
        edits += [(anchor, a) for anchor in
                  rng.sample(vertices, min(2, len(vertices)))]
        edits += rng.sample(absent, min(3, len(absent)))
        start = Snapshot.build(graph)
        grown, _ = apply_batch(start, [("insert", u, v) for u, v in edits])
        back, report = apply_batch(
            grown, [("delete", u, v) for u, v in reversed(edits)])
        expected = graph.copy()
        expected.add_vertex(a)
        expected.add_vertex(b)
        assert back.graph == expected, name
        assert not report.vertex_set_changed, name
        for v in vertices:
            assert back.gct.supernodes(v) == start.gct.supernodes(v), \
                (name, v)
            assert back.gct.superedges(v) == start.gct.superedges(v), \
                (name, v)
        assert back.gct.score_profile(a) == {} == \
            back.gct.score_profile(b), name
        assert _gct_bytes(back.gct) == \
            _gct_bytes(build_indexes(expected)[1]), name
        for k, r in _sweep(expected):
            assert _canonical(back.top_r(k, r, False)) == \
                _canonical(online_search(expected, k, r)), (name, k, r)
