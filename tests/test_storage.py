"""The paged binary artifact format: round trips, errors, concurrency.

Four contracts under test:

* **Round trip.**  For every index in a seeded graph family, payload →
  binary artifact → payload is the identity, and equals the JSON
  round trip bit-for-bit — the binary format may never change what an
  index *says*, only how its bytes are laid out.
* **Typed failures.**  A truncated, corrupt, or version-skewed artifact
  raises :class:`~repro.errors.ArtifactFormatError` (a
  :class:`~repro.errors.StoreError`), never a bare struct/IndexError.
* **Laziness + LRU.**  The mmap reader decodes only touched records,
  evicts beyond its cache budget, and stays correct when many threads
  hammer eviction and re-query concurrently.
* **Delta + compaction.**  ``write_delta`` supersedes only the changed
  records (dead bytes accounted), relays the heap when the vertex list
  grew by appends (a full encode's bytes, no dead ones) and refuses
  any other vertex list, ``compact_artifact`` reclaims dead bytes, and
  the store's ``convert`` migrates legacy JSON lineages to ``.bin`` in
  place — all answer-preserving.
* **Restricted delta payloads.**  The store hands ``write_delta`` only
  the changed vertices' records; the bytes equal a delta over the full
  payload, and every refused delta still ends in a complete artifact.
"""

import dataclasses
import json
import random
import re
import threading

import pytest

from repro.core.gct import GCTIndex
from repro.core.tsd import TSDIndex
from repro.datasets.synthetic import add_planted_cliques, erdos_renyi
from repro.errors import ArtifactFormatError, StoreError
from repro.graph.graph import Graph
from repro.storage import (
    HEADER_SIZE,
    ArtifactReader,
    Header,
    compact_artifact,
    encode_artifact,
    read_payload,
    write_artifact,
    write_delta,
)
from repro.storage.lazy import open_gct_artifact, open_tsd_artifact
from repro.util.jsonio import dumps_payload
from tests.helpers import LEGACY_V, legacy_json_store


def _family():
    graphs = [("empty", Graph()),
              ("noedges", Graph(vertices=range(5))),
              ("triangle", Graph(edges=[(0, 1), (1, 2), (0, 2)]))]
    for i, (n, p) in enumerate([(12, 0.3), (18, 0.25), (24, 0.2)]):
        graphs.append((f"er{i}", erdos_renyi(n, p, seed=50 + i)))
    for i, (n, p, sizes) in enumerate([(16, 0.1, [5]), (20, 0.12, [6, 4])]):
        base = erdos_renyi(n, p, seed=70 + i)
        graphs.append((f"pc{i}", add_planted_cliques(base, sizes,
                                                     seed=90 + i)))
    return graphs


FAMILY = _family()


@pytest.fixture(params=[name for name, _ in FAMILY])
def graph(request):
    return dict(FAMILY)[request.param]


# ----------------------------------------------------------------------
# Round trips: binary ≡ JSON, eager ≡ lazy
# ----------------------------------------------------------------------
class TestRoundTrip:
    def test_tsd_binary_round_trip_is_identity(self, graph, tmp_path):
        payload = TSDIndex.build(graph).to_payload()
        write_artifact(tmp_path / "tsd.bin", payload)
        assert read_payload(tmp_path / "tsd.bin") == payload

    def test_gct_binary_round_trip_is_identity(self, graph, tmp_path):
        payload = GCTIndex.build(graph).to_payload()
        write_artifact(tmp_path / "gct.bin", payload)
        assert read_payload(tmp_path / "gct.bin") == payload

    def test_binary_equals_json_round_trip(self, graph, tmp_path):
        """JSON and binary files hand ``from_payload`` identical dicts."""
        import json
        for build, name in ((TSDIndex.build, "tsd"), (GCTIndex.build,
                                                      "gct")):
            payload = build(graph).to_payload()
            json_path = tmp_path / f"{name}.json"
            json_path.write_text(dumps_payload(payload), encoding="utf-8")
            write_artifact(tmp_path / f"{name}.bin", payload)
            assert (read_payload(tmp_path / f"{name}.bin")
                    == json.loads(json_path.read_text(encoding="utf-8")))

    def test_encode_is_deterministic(self, graph):
        payload = TSDIndex.build(graph).to_payload(include_profile=False)
        assert encode_artifact(payload) == encode_artifact(payload)

    def test_lazy_indexes_rank_identically(self, graph, tmp_path):
        """mmap-backed lazy indexes obey the canonical ranking contract
        query-for-query against the in-memory builds."""
        tsd = TSDIndex.build(graph)
        gct = GCTIndex.build(graph)
        write_artifact(tmp_path / "tsd.bin", tsd.to_payload())
        write_artifact(tmp_path / "gct.bin", gct.to_payload())
        lazy_tsd = open_tsd_artifact(tmp_path / "tsd.bin")
        lazy_gct = open_gct_artifact(tmp_path / "gct.bin")
        n = graph.num_vertices
        for k in (2, 3, 4, 9):
            for r in (1, 3, n + 5):
                expected = tsd.top_r(k, r)
                got = lazy_tsd.top_r(k, r)
                assert got.vertices == expected.vertices, (k, r)
                assert got.scores == expected.scores, (k, r)
                expected = gct.top_r(k, r)
                got = lazy_gct.top_r(k, r)
                assert got.vertices == expected.vertices, (k, r)
                assert got.scores == expected.scores, (k, r)

    def test_lazy_index_to_payload_round_trips(self, graph, tmp_path):
        payload = GCTIndex.build(graph).to_payload()
        write_artifact(tmp_path / "gct.bin", payload)
        assert open_gct_artifact(tmp_path / "gct.bin").to_payload() \
            == payload

    def test_tuple_labels_round_trip(self, tmp_path):
        g = Graph(edges=[(("a", 1), ("b", 2)), (("b", 2), ("c", 3)),
                         (("a", 1), ("c", 3))])
        tsd = TSDIndex.build(g)
        write_artifact(tmp_path / "tsd.bin", tsd.to_payload())
        lazy = open_tsd_artifact(tmp_path / "tsd.bin")
        assert lazy.score(("a", 1), 3) == tsd.score(("a", 1), 3)

    def test_fingerprint_survives(self, tmp_path):
        payload = TSDIndex.build(dict(FAMILY)["triangle"]).to_payload()
        digest = "ab" * 32
        write_artifact(tmp_path / "tsd.bin", payload, fingerprint=digest)
        with ArtifactReader(tmp_path / "tsd.bin") as reader:
            assert reader.fingerprint == digest


# ----------------------------------------------------------------------
# Typed failures
# ----------------------------------------------------------------------
class TestCorruptArtifacts:
    @pytest.fixture
    def artifact(self, tmp_path):
        payload = TSDIndex.build(dict(FAMILY)["er1"]).to_payload()
        path = tmp_path / "tsd.bin"
        write_artifact(path, payload)
        return path

    def test_truncated_file_raises_typed_error(self, artifact):
        data = artifact.read_bytes()
        artifact.write_bytes(data[:len(data) // 2])
        with pytest.raises(ArtifactFormatError):
            ArtifactReader(artifact)

    def test_shorter_than_header_raises(self, artifact):
        artifact.write_bytes(artifact.read_bytes()[:HEADER_SIZE - 8])
        with pytest.raises(ArtifactFormatError):
            ArtifactReader(artifact)

    def test_trailing_garbage_raises(self, artifact):
        artifact.write_bytes(artifact.read_bytes() + b"xx")
        with pytest.raises(ArtifactFormatError):
            ArtifactReader(artifact)

    def test_bad_magic_raises(self, artifact):
        data = bytearray(artifact.read_bytes())
        data[:4] = b"NOPE"
        artifact.write_bytes(bytes(data))
        with pytest.raises(ArtifactFormatError):
            ArtifactReader(artifact)

    def test_future_format_version_raises(self, artifact):
        data = bytearray(artifact.read_bytes())
        data[4:6] = (99).to_bytes(2, "little")
        artifact.write_bytes(bytes(data))
        with pytest.raises(ArtifactFormatError):
            ArtifactReader(artifact)

    def test_corrupt_payload_fails_checksum(self, artifact):
        data = bytearray(artifact.read_bytes())
        data[-1] ^= 0xFF  # flip one heap byte, keep the length
        artifact.write_bytes(bytes(data))
        reader = ArtifactReader(artifact)  # open succeeds: lazy verify
        with pytest.raises(ArtifactFormatError):
            reader.verify_checksum()
        reader.close()

    def test_errors_are_store_errors(self, artifact):
        """The service layer catches StoreError; the binary format's
        failures must be inside that hierarchy."""
        artifact.write_bytes(b"garbage")
        with pytest.raises(StoreError):
            ArtifactReader(artifact)

    def test_kind_mismatch_raises(self, artifact):
        """Opening a TSD artifact through the GCT lazy maps is a typed
        error, not garbage decoding."""
        with pytest.raises(ArtifactFormatError):
            open_gct_artifact(artifact)


# ----------------------------------------------------------------------
# Laziness and the LRU record cache
# ----------------------------------------------------------------------
class TestLazyReader:
    @pytest.fixture
    def pair(self, tmp_path):
        graph = dict(FAMILY)["pc1"]
        index = GCTIndex.build(graph)
        path = tmp_path / "gct.bin"
        write_artifact(path, index.to_payload())
        return graph, index, path

    def test_point_lookup_decodes_one_record(self, pair):
        graph, index, path = pair
        lazy = open_gct_artifact(path)
        reader = lazy._supernodes.reader
        v = next(iter(graph.vertices()))
        assert lazy.score(v, 3) == index.score(v, 3)
        # labels + at most the touched vertex's summary records.
        assert reader.cache_len() <= 2

    def test_eviction_then_requery_is_correct(self, pair):
        graph, index, path = pair
        reader = ArtifactReader(path, cache_records=4)
        expected = {pos: reader.summary(pos)
                    for pos in range(reader.num_vertices)}
        assert reader.cache_len() <= 4  # evicted down to the budget
        # Re-query everything in reverse: every answer must re-decode
        # to the same value it had before eviction.
        for pos in reversed(range(reader.num_vertices)):
            assert reader.summary(pos) == expected[pos], pos
        reader.close()

    def test_concurrent_eviction_and_requery(self, pair):
        """Many threads, a cache far smaller than the record count:
        decode-outside-lock + LRU insert must never hand any thread a
        wrong or torn record."""
        graph, index, path = pair
        reader = ArtifactReader(path, cache_records=3)
        expected = {pos: reader.summary(pos)
                    for pos in range(reader.num_vertices)}
        errors = []

        def worker(seed):
            order = list(range(reader.num_vertices))
            import random
            random.Random(seed).shuffle(order)
            for _ in range(20):
                for pos in order:
                    if reader.summary(pos) != expected[pos]:
                        errors.append(pos)
                        return

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert reader.cache_len() <= 3
        reader.close()

    def test_concurrent_lazy_service_queries(self, pair, tmp_path):
        """The full lazy index under thread pressure: scores computed
        through a tiny LRU match the eager index for every vertex."""
        graph, index, path = pair
        lazy = open_gct_artifact(path)
        # Shrink both caches to force constant eviction.
        lazy._supernodes.reader._cache.clear()
        expected = {v: index.score(v, 3) for v in graph.vertices()}
        mismatches = []

        def worker():
            for v, want in expected.items():
                if lazy.score(v, 3) != want:
                    mismatches.append(v)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not mismatches


class TestScanWorkCounts:
    """Exact counts of what a GCT scan over an mmap index decodes."""

    def test_scans_after_the_first_decode_only_the_winners(self, tmp_path,
                                                           monkeypatch):
        """The first scan of a lazy index is one bulk summary pass that
        stays out of the LRU; every later threshold decodes no summary
        at all and at most one record per positive-score winner (its
        contexts)."""
        from repro.build import build_indexes
        from repro.datasets.synthetic import powerlaw_cluster
        from repro.storage import reader as reader_module
        n = 3000
        graph = powerlaw_cluster(n, 5, 0.5, seed=7)
        eager = build_indexes(graph, jobs=1)[1]
        path = tmp_path / "gct.bin"
        write_artifact(path, eager.to_payload())
        calls = {}
        for name in ("decode_gct_summary", "decode_gct_block"):
            def counted(*args, _name=name,
                        _decode=getattr(reader_module, name)):
                calls[_name] = calls.get(_name, 0) + 1
                return _decode(*args)
            monkeypatch.setattr(reader_module, name, counted)

        def winners(result):
            return sum(1 for score in result.scores if score > 0)

        lazy = open_gct_artifact(path)
        reader = lazy._supernodes.reader
        warm_up = lazy.top_r(2, 10)
        assert calls == {"decode_gct_summary": n,
                         "decode_gct_block": winners(warm_up)}
        assert 0 < reader.cache_len() <= winners(warm_up)

        calls.clear()
        decodable = 0
        for k in (3, 4, 5, 6):
            result = lazy.top_r(k, 10)
            want = eager.top_r(k, 10)
            assert (result.vertices, result.scores) == \
                (want.vertices, want.scores), k
            decodable += winners(result)
        assert calls.get("decode_gct_summary", 0) == 0
        assert 0 < calls["decode_gct_block"] <= decodable
        reader.close()


# ----------------------------------------------------------------------
# Delta writes and page compaction
# ----------------------------------------------------------------------
def assert_equals_a_full_encode(written: bytes, full: bytes) -> None:
    """``written`` is ``full`` but for the header's ``max_weight``, which
    a delta keeps as an upper bound (never below the exact one)."""
    assert written[HEADER_SIZE:] == full[HEADER_SIZE:]
    got, want = Header.unpack(written), Header.unpack(full)
    assert got.max_weight >= want.max_weight
    assert dataclasses.replace(got, max_weight=want.max_weight) == want
    assert got.dead_bytes == 0


def relabelled(graph, mapping):
    """``graph`` with the vertices in ``mapping`` renamed, in place."""
    return Graph(vertices=[mapping.get(v, v) for v in graph.vertices()],
                 edges=[(mapping.get(u, u), mapping.get(v, v))
                        for u, v in graph.edges()])


class TestDeltaAndCompact:
    def _payloads(self):
        """Two same-vertex-set payloads differing in a few records."""
        g1 = erdos_renyi(20, 0.35, seed=11)
        g2 = g1.copy()
        edge = next(iter(g1.edges()))
        g2.remove_edge(*edge)
        p1 = TSDIndex.build(g1).to_payload(include_profile=False)
        p2 = TSDIndex.build(g2).to_payload(include_profile=False)
        assert p1 != p2
        return p1, p2, list(g1.vertices())

    def test_delta_supersedes_only_changed_records(self, tmp_path):
        p1, p2, vertices = self._payloads()
        base = tmp_path / "v1.bin"
        write_artifact(base, p1)
        out = tmp_path / "v2.bin"
        assert write_delta(base, out, p2, vertices) is True
        with ArtifactReader(out) as reader:
            assert reader.stats()["dead_bytes"] > 0
            reader.verify_checksum()
        assert read_payload(out) == p2
        assert read_payload(base) == p1  # the base is untouched

    def test_compact_reclaims_dead_bytes(self, tmp_path):
        p1, p2, vertices = self._payloads()
        base = tmp_path / "v1.bin"
        out = tmp_path / "v2.bin"
        write_artifact(base, p1)
        write_delta(base, out, p2, vertices)
        before = out.stat().st_size
        reclaimed = compact_artifact(out)
        assert reclaimed > 0
        assert out.stat().st_size == before - reclaimed
        with ArtifactReader(out) as reader:
            assert reader.stats()["dead_bytes"] == 0
            reader.verify_checksum()
        assert read_payload(out) == p2
        assert compact_artifact(out) == 0  # idempotent

    def test_delta_accepts_an_appended_vertex_list(self, tmp_path):
        """g3's labels 0..20 extend the base's 0..19: an edge batch's
        vertex append.  The delta relays the heap out — no dead bytes."""
        p1, _, _ = self._payloads()
        g3 = erdos_renyi(21, 0.3, seed=12)
        p3 = TSDIndex.build(g3).to_payload(include_profile=False)
        base = tmp_path / "v1.bin"
        write_artifact(base, p1)
        out = tmp_path / "v2.bin"
        assert write_delta(base, out, p3, list(g3.vertices())) is True
        assert read_payload(out) == p3
        assert_equals_a_full_encode(out.read_bytes(), encode_artifact(p3))
        assert read_payload(base) == p1

    def test_appended_vertices_are_encoded_without_being_named(
            self, tmp_path):
        """Appended positions come from the payload whether or not
        ``changed`` names them: ``new`` gets its record, ``loner`` (no
        record) a ``(0, 0)`` entry."""
        g1 = erdos_renyi(20, 0.35, seed=11)
        g2 = g1.copy()
        g2.add_edge(0, "new")
        g2.add_vertex("loner")
        p1 = TSDIndex.build(g1).to_payload(include_profile=False)
        p2 = TSDIndex.build(g2).to_payload(include_profile=False)
        base, out = tmp_path / "v1.bin", tmp_path / "v2.bin"
        write_artifact(base, p1)
        assert write_delta(base, out, p2, [0]) is True
        assert_equals_a_full_encode(out.read_bytes(), encode_artifact(p2))
        assert read_payload(out) == p2

    def test_grown_delta_over_a_delta_chain_drops_its_dead_bytes(
            self, tmp_path):
        p1, p2, vertices = self._payloads()
        base, mid, out = (tmp_path / f"v{i}.bin" for i in (1, 2, 3))
        write_artifact(base, p1)
        assert write_delta(base, mid, p2, vertices)
        grown = dict(p2, vertices=p2["vertices"] + ["loner"])
        assert write_delta(mid, out, grown, [vertices[0]]) is True
        assert_equals_a_full_encode(out.read_bytes(), encode_artifact(grown))

    @pytest.mark.parametrize("shape", ["reordered", "shrunk", "relabelled",
                                       "relabelled-and-grown"])
    def test_delta_refuses_a_vertex_list_it_does_not_extend(self, tmp_path,
                                                            shape):
        g1 = erdos_renyi(20, 0.35, seed=11)
        vertices = list(g1.vertices())
        if shape == "reordered":
            g = Graph(vertices=vertices[::-1], edges=list(g1.edges()))
        elif shape == "shrunk":
            g = g1.copy()
            g.remove_vertex(vertices[-1])
        elif shape == "relabelled":
            g = relabelled(g1, {vertices[5]: "five"})
        else:
            g = relabelled(g1, {vertices[-1]: "last"})
            g.add_edge("last", "appended")
        base, out = tmp_path / "v1.bin", tmp_path / "v2.bin"
        write_artifact(base, TSDIndex.build(g1).to_payload())
        payload = TSDIndex.build(g).to_payload(include_profile=False)
        assert write_delta(base, out, payload, list(g.vertices())) is False
        assert not out.exists()

    @pytest.mark.parametrize("grown", [False, True], ids=["same", "grown"])
    def test_delta_refuses_a_kind_mismatch(self, tmp_path, grown):
        g = erdos_renyi(20, 0.35, seed=11)
        base, out = tmp_path / "v1.bin", tmp_path / "v2.bin"
        write_artifact(base, TSDIndex.build(g).to_payload())
        if grown:
            g.add_edge(0, "appended")
        payload = GCTIndex.build(g).to_payload(include_profile=False)
        assert write_delta(base, out, payload, list(g.vertices())) is False
        assert not out.exists()

    @pytest.mark.parametrize("grown", [False, True], ids=["same", "grown"])
    def test_delta_refuses_a_different_build_profile(self, tmp_path, grown):
        g = erdos_renyi(20, 0.35, seed=11)
        base, out = tmp_path / "v1.bin", tmp_path / "v2.bin"
        full = TSDIndex.build(g).to_payload()
        write_artifact(base, full)
        if grown:
            g.add_edge(0, "appended")
        payload = TSDIndex.build(g).to_payload(include_profile=False)
        payload["build_profile"] = dict(full["build_profile"],
                                        extraction_seconds=-1.0)
        assert write_delta(base, out, payload, list(g.vertices())) is False
        assert not out.exists()

    @pytest.mark.parametrize("grown", [False, True], ids=["same", "grown"])
    def test_delta_keeps_base_build_profile(self, tmp_path, grown):
        """A repaired index carries no build profile; the delta file
        inherits the base's (the original build's provenance)."""
        g = erdos_renyi(15, 0.4, seed=13)
        full = TSDIndex.build(g).to_payload()
        assert "build_profile" in full
        base = tmp_path / "v1.bin"
        write_artifact(base, full)
        if grown:
            g.add_edge(0, "appended")
        stripped = TSDIndex.build(g).to_payload(include_profile=False)
        out = tmp_path / "v2.bin"
        assert write_delta(base, out, stripped, list(g.vertices()))
        assert read_payload(out)["build_profile"] \
            == full["build_profile"]

    @pytest.mark.parametrize("grown", [False, True], ids=["same", "grown"])
    def test_delta_refuses_missing_or_torn_base(self, tmp_path, grown):
        p1, p2, vertices = self._payloads()
        if grown:
            p2 = dict(p2, vertices=p2["vertices"] + ["loner"])
        assert write_delta(tmp_path / "absent.bin", tmp_path / "v2.bin",
                           p2, vertices) is False
        base = tmp_path / "v1.bin"
        write_artifact(base, p1)
        base.write_bytes(base.read_bytes()[:-10])  # torn
        assert write_delta(base, tmp_path / "v2.bin", p2,
                           vertices) is False
        assert not (tmp_path / "v2.bin").exists()


# ----------------------------------------------------------------------
# Store integration: one format per kind, legacy JSON, manifest cache
# ----------------------------------------------------------------------
class TestStoreArtifacts:
    @pytest.fixture
    def graph(self):
        return add_planted_cliques(erdos_renyi(18, 0.15, seed=21), [5],
                                   seed=22)

    def test_tsd_and_gct_are_written_as_bin(self, graph, tmp_path):
        from repro.service.store import IndexStore
        from repro.storage.lazy import LazyForestMap
        tsd, gct = TSDIndex.build(graph), GCTIndex.build(graph)
        store = IndexStore(tmp_path)
        version = store.put(graph, tsd=tsd, gct=gct)
        for name, index in (("tsd", tsd), ("gct", gct)):
            assert version.artifacts[name].endswith(f"{name}.bin")
            assert (store.root / version.artifacts[name]).read_bytes() == \
                encode_artifact(index.to_payload(), fingerprint=version.key)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        record = manifest["graphs"][version.key]["versions"]["1"]
        assert set(record) == {"tsd", "gct"}  # no per-artifact format key
        loaded = store.load(graph)
        assert isinstance(loaded.tsd._forests, LazyForestMap)
        n = graph.num_vertices
        for k in (2, 3, 4):
            for r in (1, 5, n + 3):
                for built, lazy in ((tsd, loaded.tsd), (gct, loaded.gct)):
                    expected, got = built.top_r(k, r), lazy.top_r(k, r)
                    assert (got.vertices, got.scores) \
                        == (expected.vertices, expected.scores), (k, r)

    def test_lazy_false_materialises(self, graph, tmp_path):
        from repro.service.store import IndexStore
        store = IndexStore(tmp_path)
        store.put(graph, tsd=TSDIndex.build(graph))
        loaded = store.load(graph, lazy=False)
        assert isinstance(loaded.tsd._forests, dict)

    def test_update_batch_delta_writes_under_bin(self, graph, tmp_path):
        """The service's apply_updates path reaches write_delta: the
        re-versioned artifact accounts dead bytes for the superseded
        records and still round-trips every ranking."""
        from repro.service import DiversityService
        from repro.service.store import IndexStore
        store = IndexStore(tmp_path)
        service = DiversityService.start(graph, store=store)
        edge = next(iter(graph.edges()))
        service.apply_updates([("delete", edge[0], edge[1])])
        version = store.current(service.snapshot.graph_view,
                                key=service.snapshot.key)
        with ArtifactReader(store.root / version.artifacts["gct"]) as r:
            assert r.stats()["dead_bytes"] > 0
            r.verify_checksum()
        after = service.top_r(3, graph.num_vertices)
        warm = DiversityService.warm(service.snapshot.graph,
                                     IndexStore(tmp_path))
        got = warm.top_r(3, graph.num_vertices)
        assert (got.vertices, got.scores) == (after.vertices, after.scores)

    def test_store_compact_rewrites_bin_pages(self, graph, tmp_path):
        from repro.service import DiversityService
        from repro.service.store import IndexStore
        store = IndexStore(tmp_path)
        service = DiversityService.start(graph, store=store)
        edge = next(iter(graph.edges()))
        service.apply_updates([("delete", edge[0], edge[1])])
        key = service.snapshot.key
        IndexStore(tmp_path).compact(keep=[key])
        store2 = IndexStore(tmp_path)
        version = store2.current(service.snapshot.graph_view, key=key)
        with ArtifactReader(store2.root / version.artifacts["gct"]) as r:
            assert r.stats()["dead_bytes"] == 0
            r.verify_checksum()

    def test_manifest_parse_cache_hits_on_unchanged_file(self, graph,
                                                         tmp_path):
        from repro.service.store import IndexStore
        store = IndexStore(tmp_path)
        store.put(graph, tsd=TSDIndex.build(graph))
        first = store._read_manifest()
        assert store._read_manifest() is first  # stamp unchanged: cached

    def test_manifest_cache_sees_foreign_writes(self, graph, tmp_path):
        """A second store instance committing to the same root must
        invalidate the first instance's parse cache (mtime/size stamp)."""
        from repro.service.store import IndexStore
        store_a = IndexStore(tmp_path)
        store_b = IndexStore(tmp_path)
        store_a.put(graph, tsd=TSDIndex.build(graph))
        other = erdos_renyi(9, 0.5, seed=33)
        store_b.put(other, tsd=TSDIndex.build(other))
        store_a.refresh()
        assert store_a.has(other)


# ----------------------------------------------------------------------
# The store's delta path: restricted payloads, full-write fallbacks
# ----------------------------------------------------------------------
class TestRestrictedDeltaWrites:
    @pytest.fixture
    def graph(self):
        return add_planted_cliques(erdos_renyi(22, 0.15, seed=41), [6, 4],
                                   seed=42)

    @staticmethod
    def _batch(graph, rng):
        """2 deletes + 2 inserts among the vertices ``graph`` has."""
        vertices = list(graph.vertices())
        absent = [(u, v) for i, u in enumerate(vertices)
                  for v in vertices[i + 1:] if not graph.has_edge(u, v)]
        return ([("delete", u, v) for u, v in
                 rng.sample(sorted(graph.edges()), 2)]
                + [("insert", u, v) for u, v in rng.sample(absent, 2)])

    @staticmethod
    def _current(service):
        snapshot = service.snapshot
        return service.store.current(snapshot.graph_view, key=snapshot.key)

    def _indexes(self, service):
        return (("gct", service.snapshot.gct),)

    def test_store_deltas_equal_deltas_over_the_full_payload(self, graph,
                                                             tmp_path):
        """Over a seeded batch sequence every ``gct.bin`` the store
        writes from ``to_payload(only=changed)`` is byte for
        byte what ``write_delta`` makes of the complete payload."""
        from repro.service import DiversityService
        from repro.service.store import IndexStore
        store = IndexStore(tmp_path / "store")
        service = DiversityService.start(graph, store=store)
        rng = random.Random(43)
        for step in range(5):
            before = self._current(service)
            report = service.apply_updates(
                self._batch(service.snapshot.graph_view, rng))
            after = self._current(service)
            assert after.version == before.version + 1
            for name, index in self._indexes(service):
                reference = tmp_path / f"reference-{step}-{name}.bin"
                assert write_delta(store.root / before.artifacts[name],
                                   reference, index.to_payload(),
                                   report.affected_vertices,
                                   fingerprint=after.key)
                written = store.root / after.artifacts[name]
                assert written.read_bytes() == reference.read_bytes(), \
                    (step, name)
        for name, index in self._indexes(service):
            with ArtifactReader(store.root / after.artifacts[name]) as r:
                assert r.stats()["dead_bytes"] > 0  # a delta chain
                r.verify_checksum()
            stored = read_payload(store.root / after.artifacts[name])
            stored.pop("build_profile", None)  # a delta keeps its base's
            assert stored == index.to_payload()

    def test_restricted_payload_holds_only_the_changed_records(self, graph):
        tsd, gct = TSDIndex.build(graph), GCTIndex.build(graph)
        vertices = list(graph.vertices())
        changed = {vertices[7], vertices[2], "not-a-vertex"}
        for index, sections in ((tsd, ["forests"]),
                                (gct, ["supernodes", "superedges"])):
            full = index.to_payload()
            part = index.to_payload(only=changed)
            assert part["vertices"] == full["vertices"]
            for section in sections:
                assert list(part[section]) == ["2", "7"]  # position order
                assert all(part[section][key] == full[section][key]
                           for key in part[section])

    def test_growing_batch_writes_a_delta_equal_to_a_full_encode(
            self, graph, tmp_path):
        """A batch that attaches a vertex re-versions as a delta: the
        grown file is a full encode of the payload with the base's build
        profile (header equal but for the ``max_weight`` bound), with no
        dead bytes — and serves a later same-set delta."""
        from repro.service import DiversityService
        from repro.service.store import IndexStore
        store = IndexStore(tmp_path)
        service = DiversityService.start(graph, store=store)
        before = self._current(service)
        anchor = next(iter(graph.vertices()))
        service.apply_updates([("insert", anchor, "newcomer")])
        after = self._current(service)
        for name, index in self._indexes(service):
            base = read_payload(store.root / before.artifacts[name])
            full = index.to_payload()
            if "build_profile" in base:
                full["build_profile"] = base["build_profile"]
            assert_equals_a_full_encode(
                (store.root / after.artifacts[name]).read_bytes(),
                encode_artifact(full, fingerprint=after.key))
        # Edges among the original vertices are untouched by the append.
        service.apply_updates(self._batch(graph, random.Random(47)))
        for name, index in self._indexes(service):
            path = store.root / self._current(service).artifacts[name]
            with ArtifactReader(path) as r:
                assert r.stats()["dead_bytes"] > 0  # same-set: patched
                r.verify_checksum()
            stored = read_payload(path)
            stored.pop("build_profile", None)
            assert stored == index.to_payload()

    @pytest.mark.parametrize("shape", ["reordered", "shrunk", "relabelled"])
    def test_refused_delta_writes_a_complete_artifact(self, graph, tmp_path,
                                                      shape):
        """A vertex list the base's does not prefix (no edge batch makes
        one) is refused by ``write_delta``; ``put`` then writes the full
        artifact."""
        from repro.service.store import IndexStore
        store = IndexStore(tmp_path)
        first = store.put(graph, tsd=TSDIndex.build(graph),
                          gct=GCTIndex.build(graph))
        vertices = list(graph.vertices())
        if shape == "reordered":
            other = Graph(vertices=vertices[::-1], edges=list(graph.edges()))
        elif shape == "shrunk":
            other = graph.copy()
            other.remove_vertex(vertices[-1])
        else:
            other = relabelled(graph, {vertices[3]: "three"})
        tsd, gct = TSDIndex.build(other), GCTIndex.build(other)
        version = store.put(other, tsd=tsd, gct=gct, previous=first,
                            changed_vertices=list(other.vertices()))
        for name, index in (("tsd", tsd), ("gct", gct)):
            assert (store.root / version.artifacts[name]).read_bytes() == \
                encode_artifact(index.to_payload(), fingerprint=version.key)

    def test_missing_base_falls_back_to_a_full_artifact(self, graph,
                                                        tmp_path):
        from repro.service import DiversityService
        from repro.service.store import IndexStore
        store = IndexStore(tmp_path)
        service = DiversityService.start(graph, store=store)
        before = self._current(service)
        (store.root / before.artifacts["gct"]).unlink()
        service.apply_updates(self._batch(graph, random.Random(44)))
        after = self._current(service)
        for name, index in self._indexes(service):
            assert (store.root / after.artifacts[name]).read_bytes() == \
                encode_artifact(index.to_payload(), fingerprint=after.key)

    def test_legacy_json_base_gets_a_full_bin_write(self, tmp_path):
        """A JSON gct from an older release has no record dictionary to
        patch: the first batch writes a complete ``.bin`` GCT, and the
        legacy ``tsd``/``hybrid`` are not carried into the new version."""
        from repro.graph.io import read_edge_list
        from repro.service import DiversityService
        from repro.service.store import IndexStore
        graph_file, root = legacy_json_store(tmp_path)
        graph = read_edge_list(graph_file)
        service = DiversityService.warm(graph, IndexStore(root))
        before = self._current(service)
        assert before.artifacts["gct"].endswith(".json")
        service.apply_updates(self._batch(graph, random.Random(45)))
        after = self._current(service)
        assert after.artifact_names == ["gct"]
        for name, index in self._indexes(service):
            assert after.artifacts[name].endswith(f"{name}.bin")
            assert (root / after.artifacts[name]).read_bytes() == \
                encode_artifact(index.to_payload(), fingerprint=after.key)

    def test_warm_mmap_service_applies_its_first_batch_as_a_delta(
            self, graph, tmp_path):
        """A warm-started service still serving from the mmap applies a
        batch: oracle-identical rankings, a delta (not full) artifact,
        and the lazy predecessor snapshot is neither materialised nor
        disturbed."""
        from repro.core.online import online_search
        from repro.service import DiversityService
        from repro.service.store import IndexStore
        DiversityService.start(graph, store=IndexStore(tmp_path))
        store = IndexStore(tmp_path)
        warm = DiversityService.warm(graph, store)
        held = warm.snapshot
        assert held.gct._tau_sorted is None

        def look():
            answers = [held.gct.top_r(k, 30, collect_contexts=False)
                       for k in (2, 3, 4)]
            return [(a.vertices, a.scores) for a in answers]

        seen = look()
        before = self._current(warm)

        batch = self._batch(graph, random.Random(46))
        report = warm.apply_updates(batch)
        expected = graph.copy()
        for op, u, v in batch:
            (expected.add_edge if op == "insert"
             else expected.remove_edge)(u, v)
        for k in (2, 3, 4, 5):
            got = warm.top_r(k, 30, collect_contexts=False)
            oracle = online_search(expected, k, 30)
            assert (got.vertices, got.scores) == \
                (oracle.vertices, oracle.scores), k

        after = self._current(warm)
        for name, index in self._indexes(warm):
            reference = tmp_path / f"reference-{name}.bin"
            assert write_delta(store.root / before.artifacts[name],
                               reference, index.to_payload(),
                               report.affected_vertices,
                               fingerprint=after.key)
            assert (store.root / after.artifacts[name]).read_bytes() == \
                reference.read_bytes()
            with ArtifactReader(store.root / after.artifacts[name]) as r:
                assert r.stats()["dead_bytes"] > 0

        assert held.gct._tau_sorted is None
        assert look() == seen


# ----------------------------------------------------------------------
# Legacy stores: JSON tsd/gct still load, migrate one way to .bin
# ----------------------------------------------------------------------
class TestLegacyJsonStore:
    KRS = [(k, r) for k in (2, 3, 4, 5) for r in (1, 3, 17, 20)]

    @pytest.fixture
    def legacy(self, tmp_path):
        from repro.graph.io import read_edge_list
        graph_file, root = legacy_json_store(tmp_path)
        return read_edge_list(graph_file), root

    def _assert_ranks_like_a_cold_build(self, graph, service):
        from repro.engine import QueryEngine
        cold = QueryEngine(graph)
        for k, r in self.KRS:
            got, want = service.top_r(k, r), cold.top_r(k, r)
            assert (got.vertices, got.scores) == \
                (want.vertices, want.scores), (k, r)

    def test_warm_start_ranks_like_a_cold_build(self, legacy):
        from repro.service import DiversityService
        from repro.service.store import IndexStore
        graph, root = legacy
        warm = DiversityService.warm(graph, IndexStore(root))
        assert warm.warm_started
        assert isinstance(warm.snapshot.gct._supernodes, dict)  # eager
        assert warm.top_r(4, 1).vertices == [LEGACY_V]
        self._assert_ranks_like_a_cold_build(graph, warm)

    def test_convert_migrates_to_bin_once(self, legacy):
        from repro.service import DiversityService
        from repro.service.store import IndexStore
        from repro.storage.lazy import LazySupernodeMap
        graph, root = legacy
        assert IndexStore(root).convert() == 3  # v1 tsd + gct, v2 gct
        store = IndexStore(root)
        version = store.current(graph)
        for name in ("tsd", "gct"):
            assert version.artifacts[name].endswith(f"{name}.bin")
            with ArtifactReader(root / version.artifacts[name]) as reader:
                reader.verify_checksum()
                assert reader.fingerprint == version.key
        assert version.artifacts["hybrid"].endswith("hybrid.json")
        assert sorted(p.name for p in root.rglob("*.json")) == \
            ["hybrid.json", "manifest.json"]  # legacy files unlinked
        warm = DiversityService.warm(graph, store)
        assert isinstance(warm.snapshot.gct._supernodes, LazySupernodeMap)
        self._assert_ranks_like_a_cold_build(graph, warm)
        assert IndexStore(root).convert() == 0  # nothing left to migrate

    def test_convert_rewires_carried_forward_references(self, legacy):
        """Two versions sharing one carried-forward artifact file must
        both point at the single migrated file afterwards."""
        from repro.service.store import IndexStore
        graph, root = legacy
        store = IndexStore(root)
        v1, v2 = store.versions(store.current(graph).key)
        assert v1.artifacts["tsd"] == v2.artifacts["tsd"]  # carried
        assert v1.artifacts["gct"] != v2.artifacts["gct"]
        store.convert()
        v1, v2 = store.versions(v2.key)
        assert v1.artifacts["tsd"] == v2.artifacts["tsd"]
        assert v2.artifacts["tsd"].endswith("v1/tsd.bin")
        assert (root / v2.artifacts["tsd"]).is_file()

    @pytest.mark.parametrize("name, payload", [
        ("hybrid", {"format": "nope"}),
        ("tsd", {"format": "nope"}),
        ("gct", ["not", "a", "payload"]),
    ], ids=["hybrid", "tsd", "gct"])
    def test_damaged_artifacts_raise_store_errors(self, legacy, name,
                                                  payload):
        """Every artifact decode in ``load`` fails typed, naming the
        file — never a bare ValueError or a foreign error class."""
        from repro.service.store import IndexStore
        graph, root = legacy
        store = IndexStore(root)
        path = root / store.current(graph).artifacts[name]
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(StoreError, match=re.escape(str(path))):
            store.load(graph)
