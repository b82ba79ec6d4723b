"""Dynamic graphs: keeping the index fresh under edge updates.

The paper's Section 5.3 notes that index updates are possible with
local recomputation; this example exercises that extension through
:func:`repro.service.apply_batch`, the library's update path.  A social
group forms edge by edge around a user, and each batch yields the next
immutable snapshot, tracking the user's structural diversity after
every change — plus index persistence to disk.

Run:  python examples/dynamic_maintenance.py
"""

import tempfile
from itertools import combinations

from repro import GCTIndex
from repro.datasets import planted_context_graph
from repro.service import IndexStore, Snapshot, apply_batch, delete, insert


def main() -> None:
    # Start with two established friend groups around "ego".
    graph = planted_context_graph(num_contexts=2, context_size=5,
                                  num_bridges=0, extra_neighbors=0, seed=1)
    snap = Snapshot.build(graph)
    rebuilt = 0
    print(f"initial score(ego) at k=4: {snap.score('ego', 4)}")

    def update(batch):
        nonlocal snap, rebuilt
        snap, report = apply_batch(snap, batch)
        rebuilt += report.rebuilt_forests

    # A third group of friends joins one member at a time.
    newcomers = [f"new_{i}" for i in range(5)]
    for person in newcomers:
        update([insert("ego", person)])
    print(f"after meeting 5 people (no ties among them): "
          f"{snap.score('ego', 4)}")

    for a, b in combinations(newcomers, 2):
        update([insert(a, b)])
    print(f"after they all befriend each other: {snap.score('ego', 4)}")
    print(f"ego-forests rebuilt so far: {rebuilt} "
          f"(local repairs, not full rebuilds)")

    # A bridge forms between two groups: diversity at k=2 collapses.
    print(f"\nscore(ego) at k=2 before bridging: {snap.score('ego', 2)}")
    update([insert("c0_0", "c1_0")])
    print(f"after one bridge between groups:     {snap.score('ego', 2)}")
    update([delete("c0_0", "c1_0")])
    print(f"after the bridge dissolves:          {snap.score('ego', 2)}")

    # The maintained index matches a from-scratch build, always.
    current = snap.graph
    fresh = GCTIndex.build(current)
    assert all(snap.score(v, 4) == fresh.score(v, 4)
               for v in current.vertices())
    print("\nmaintained index == from-scratch rebuild: verified")

    # Persist and reload.
    with tempfile.TemporaryDirectory() as tmp:
        store = IndexStore(tmp)
        version = store.put(current, gct=snap.gct)
        loaded = store.load(current).gct
        assert loaded.score("ego", 4) == snap.score("ego", 4)
        print(f"round-tripped index as store v{version.version}: "
              f"score(ego)={loaded.score('ego', 4)}")


if __name__ == "__main__":
    main()
