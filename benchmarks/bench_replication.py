"""Follower sync cost: binary delta shipping vs a full mirror.

The replication layer (``repro.replication.sync``) keeps follower
store roots warm by shipping binary re-versions as byte ranges —
header + offset dictionary + appended heap tail — re-deriving the
base-resident regions from the follower's own copy of the parent
artifact.  The alternative every naive design picks is re-mirroring
the whole store after each update batch.

This bench builds an ``IndexStore`` over power-law graphs
(``power_law_graph``, |E| = 5|V|), applies a chain of live-update
batches, and measures three sync passes per size:

* ``bootstrap`` — first replication to an empty follower (everything
  ships whole; this is the unavoidable cost and the naive baseline's
  recurring cost).
* ``delta``     — one incremental pass per update batch (the cadence
  of the background replication thread): only the re-versioned
  artifacts move, and of those only the non-base bytes.
* ``repeat``    — a second incremental pass: nothing moves (the pass
  is pure verification; this is what the background replication
  thread pays at steady state).

Acceptance bars (asserted at the largest size):

* the whole delta chain ships at most ``MAX_DELTA_SHARE`` of the
  bytes ONE fresh full mirror of the final store would ship (a naive
  design pays that mirror per batch, so this bar is conservative);
* the delta chain reuses at least as many follower-local bytes as it
  ships (the base regions dominate the tail for small batches);
* the repeat pass ships zero bytes and syncs zero files;
* after every pass the follower's artifact tree is byte-identical to
  the primary's (the canonical contract, file by file).

Results land in ``benchmarks/out/BENCH_replication.json``
(``make bench-replication``).
"""

from __future__ import annotations

import hashlib
import json
import tempfile
import time
from pathlib import Path

import pytest

from repro.bench.reporting import format_table
from repro.datasets.synthetic import power_law_graph
from repro.replication import replicate_store
from repro.service import DiversityService
from repro.service.store import IndexStore

SIZES = [2_000, 8_000]
UPDATE_BATCHES = 4          # delta chain length per size
EDGES_PER_BATCH = 3         # fresh-vertex inserts per batch
MAX_DELTA_SHARE = 0.5       # delta ships <= 50% of a full mirror
OUT_PATH = Path(__file__).parent / "out" / "BENCH_replication.json"


def _digest_tree(root: Path):
    """{relpath: sha256} over every artifact file under ``root``
    (the store's ``.lock`` and ``manifest.json`` are per-root
    metadata, not replicated bytes)."""
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file() and path.name not in (".lock", "manifest.json"):
            rel = str(path.relative_to(root))
            out[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def _absent_edges(graph, n, count):
    """``count`` vertex pairs from the sparse tail that are not yet
    adjacent.  Label-stable inserts (no new vertices) are the delta
    layer's fast path: the label and profile regions stay
    base-resident and only the heap tail ships."""
    out = []
    for step in range(1, n):
        for i in range(n // 2, n - step):
            j = i + step
            if not graph.has_edge(i, j):
                out.append((i, j))
                if len(out) == count:
                    return out
    raise AssertionError("graph too dense for update batches")


def _timed_pass(source: Path, dest: Path):
    start = time.perf_counter()
    report = replicate_store(source, dest)
    return report, time.perf_counter() - start


@pytest.mark.benchmark(group="replication")
def test_bench_replication_delta_vs_full(benchmark, report):
    rows = []
    sizes_out = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for n in SIZES:
            primary = tmp / f"primary-{n}"
            follower = tmp / f"follower-{n}"
            graph = power_law_graph(n, edges_per_vertex=5, seed=42)
            service = DiversityService.cold(
                graph, store=IndexStore(primary))

            bootstrap, boot_s = _timed_pass(primary, follower)
            assert bootstrap.files_full >= 2, bootstrap.summary()
            assert _digest_tree(primary) == _digest_tree(follower)

            # Live-update chain, synced after each batch the way the
            # background replication thread runs: every re-version's
            # parent is already follower-resident, so only the header,
            # offset dictionary and appended heap tail ship.
            edges = _absent_edges(graph, n,
                                  UPDATE_BATCHES * EDGES_PER_BATCH)
            delta_shipped = delta_reused = delta_files = 0
            delta_s = 0.0
            for batch in range(UPDATE_BATCHES):
                service.apply_updates([
                    ("insert", u, v)
                    for u, v in edges[batch * EDGES_PER_BATCH:
                                      (batch + 1) * EDGES_PER_BATCH]])
                delta, pass_s = _timed_pass(primary, follower)
                assert delta.files_delta >= 1, delta.summary()
                delta_shipped += delta.bytes_shipped
                delta_reused += delta.bytes_reused
                delta_files += delta.files_delta
                delta_s += pass_s
            assert _digest_tree(primary) == _digest_tree(follower)

            # The naive baseline: a fresh mirror of the now-larger
            # store (what a design without standing followers pays to
            # bring a replacement up).  Even here the sync layer
            # deltas later versions against earlier ones shipped in
            # the same pass, so this baseline is conservative.
            mirror, mirror_s = _timed_pass(primary, tmp / f"mirror-{n}")
            assert mirror.files_skipped == 0, mirror.summary()

            repeat, repeat_s = _timed_pass(primary, follower)
            assert repeat.bytes_shipped == 0, repeat.summary()
            assert repeat.files_synced == 0, repeat.summary()

            share = delta_shipped / max(mirror.bytes_shipped, 1)
            rows.append([n, UPDATE_BATCHES,
                         f"{mirror.bytes_shipped:,}",
                         f"{delta_shipped:,} ({share:.1%})",
                         f"{delta_reused:,}",
                         f"{delta_s:.3f}s", f"{mirror_s:.3f}s"])
            sizes_out.append({
                "n": n,
                "update_batches": UPDATE_BATCHES,
                "bootstrap_bytes": bootstrap.bytes_shipped,
                "bootstrap_seconds": round(boot_s, 4),
                "full_mirror_bytes": mirror.bytes_shipped,
                "full_mirror_seconds": round(mirror_s, 4),
                "delta_bytes_shipped": delta_shipped,
                "delta_bytes_reused": delta_reused,
                "delta_files": delta_files,
                "delta_seconds": round(delta_s, 4),
                "delta_share_of_full": round(share, 4),
                "repeat_bytes": repeat.bytes_shipped,
                "repeat_seconds": round(repeat_s, 4),
            })

        largest = sizes_out[-1]
        assert largest["delta_share_of_full"] <= MAX_DELTA_SHARE, largest
        assert (largest["delta_bytes_reused"]
                >= largest["delta_bytes_shipped"]), largest
        assert largest["repeat_bytes"] == 0, largest

        # Steady-state verification scan is the hot recurring path of
        # the background replication thread — that's what we time.
        biggest = tmp / f"primary-{SIZES[-1]}"
        target = tmp / f"follower-{SIZES[-1]}"
        benchmark(lambda: replicate_store(biggest, target))

        OUT_PATH.parent.mkdir(exist_ok=True)
        OUT_PATH.write_text(json.dumps({
            "bench": "follower sync: delta shipping vs full mirror",
            "max_delta_share_bar": MAX_DELTA_SHARE,
            "sizes": sizes_out,
        }, indent=2) + "\n", encoding="utf-8")

    report.add(
        "Follower sync: delta shipping vs full mirror (|E| = 5|V|)",
        format_table(
            ["n", "batches", "full mirror B", "delta B (share)",
             "reused B", "delta t", "mirror t"],
            rows))
