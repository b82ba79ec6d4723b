"""Cross-process :class:`IndexStore` stress: the on-disk lock under fire.

PR 3 gave the store an on-disk ``flock`` + manifest re-read so that two
*processes* sharing a root never lose each other's versions.  The
cluster now makes that scenario routine (every worker owns a store
root, operators point tools at them), so this test drives it with real
processes — not threads, which the in-process mutex alone would save —
hammering ``put`` / ``compact`` on one shared root.

Invariants checked after the dust settles:

* **No lost versions.**  Both processes ``put`` to one *shared* lineage
  (same graph content); its final version number must equal the total
  number of puts — a torn manifest write would swallow increments.
* **No orphaned heads.**  Each process's private lineage must be
  loadable (its artifacts exist on disk) even though the *other*
  process was compacting while it wrote.
* **No dangling references.**  Every artifact path the final manifest
  mentions exists on disk — compaction must never delete a file a
  surviving record references.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from repro.graph.graph import Graph
from repro.service import IndexStore

ITERATIONS = 10

_WORKER_SCRIPT = """
import json, sys, time
from pathlib import Path

from repro.graph.graph import Graph
from repro.core.gct import GCTIndex
from repro.core.tsd import TSDIndex
from repro.service import IndexStore

root, worker, iterations, go_file = (
    sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4])

def shared_graph():
    return Graph(edges=[(0, 1), (1, 2), (0, 2), (2, 3)])

def own_graph():
    # Distinct content per worker: a clique on worker-specific labels.
    labels = [f"w{worker}_{i}" for i in range(4)]
    g = Graph()
    for i in range(4):
        for j in range(i + 1, 4):
            g.add_edge(labels[i], labels[j])
    return g

shared, mine = shared_graph(), own_graph()
shared_tsd, my_tsd = TSDIndex.build(shared), TSDIndex.build(mine)
my_gct = GCTIndex.compress(my_tsd)
store = IndexStore(root)

while not Path(go_file).exists():  # start line: maximise overlap
    time.sleep(0.001)

for i in range(iterations):
    store.put(shared, tsd=shared_tsd)
    store.put(mine, tsd=my_tsd, gct=my_gct)
    if i % 3 == worker:  # compaction passes interleave with puts
        store.compact()

print(json.dumps({"worker": worker, "final_own_version":
                  store.current(mine).version}))
"""


def test_two_processes_hammering_one_store_root(tmp_path):
    root = tmp_path / "store"
    go_file = tmp_path / "go"
    script = tmp_path / "worker.py"
    script.write_text(_WORKER_SCRIPT, encoding="utf-8")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))

    processes = [
        subprocess.Popen(
            [sys.executable, str(script), str(root), str(worker),
             str(ITERATIONS), str(go_file)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        for worker in (0, 1)
    ]
    time.sleep(0.5)  # both processes importing/building; then: go
    go_file.write_text("go", encoding="utf-8")
    outputs = []
    for process in processes:
        out, err = process.communicate(timeout=120)
        assert process.returncode == 0, err
        outputs.append(json.loads(out))

    store = IndexStore(root)  # the manifest must still parse

    # No lost versions on the shared lineage: every put incremented it.
    shared = Graph(edges=[(0, 1), (1, 2), (0, 2), (2, 3)])
    assert store.current(shared).version == 2 * ITERATIONS

    # Each worker's own lineage: right version, loadable artifacts.
    for payload in outputs:
        worker = payload["worker"]
        assert payload["final_own_version"] == ITERATIONS
        labels = [f"w{worker}_{i}" for i in range(4)]
        mine = Graph()
        for i in range(4):
            for j in range(i + 1, 4):
                mine.add_edge(labels[i], labels[j])
        assert store.current(mine).version == ITERATIONS
        loaded = store.load(mine)
        assert loaded.tsd is not None
        assert loaded.tsd.score(labels[0], 3) == 1

    # Every artifact path the final manifest references exists on disk.
    manifest = json.loads((root / "manifest.json").read_text())
    for entry in manifest["graphs"].values():
        for record in entry["versions"].values():
            for name in ("tsd", "gct", "hybrid"):
                if name in record:
                    assert (root / record[name]).is_file(), record[name]


def test_single_process_writers_unaffected_by_stress_shape(tmp_path):
    """The stress scenario, minus concurrency: the same op sequence in
    one process yields the same invariants (guards against the test
    passing only because of scheduling accidents)."""
    from repro.core.gct import GCTIndex
    from repro.core.tsd import TSDIndex

    store = IndexStore(tmp_path / "store")
    shared = Graph(edges=[(0, 1), (1, 2), (0, 2), (2, 3)])
    tsd = TSDIndex.build(shared)
    gct = GCTIndex.compress(tsd)
    for i in range(ITERATIONS):
        store.put(shared, tsd=tsd, gct=gct)
        if i % 3 == 0:
            store.compact()
    assert store.current(shared).version == ITERATIONS
    assert store.load(shared).tsd is not None
