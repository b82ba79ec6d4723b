"""Everything one run needs before the first epoch: inputs and answers.

Built once per run from ``(workload, seed)``; every epoch replays it.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, NamedTuple, Tuple

from . import oracle
from .inputs import Fleet, Update
from .workloads import SWEEP, Workload

Query = Tuple[str, int, int]


class Step(NamedTuple):
    """One step of the churn plan: a batch, then reads on the same graph."""
    name: str
    updates: List[Update]
    expected: List[oracle.Answer]


class Scenario:
    def __init__(self, workload: Workload, seed: int, directory: Path,
                 batches: int) -> None:
        self.workload = workload
        self.seed = seed
        fleet = Fleet(seed, workload.graphs, workload.n)
        self.names = fleet.names
        self.n = workload.n
        self.initial_paths = fleet.write_initial(directory)
        self.cycle: List[Query] = fleet.query_cycle(workload.pairs,
                                                    workload.shuffle)
        queries = set(workload.pairs) | set(SWEEP)
        self.expected_initial: Dict[str, Dict[Tuple[int, int], oracle.Answer]] = {
            name: oracle.answers(self.n, fleet.initial[name], queries)
            for name in self.names}

        order = [self.names[i % len(self.names)] for i in range(batches)]
        self.batches = fleet.update_batches(order, workload.grow_every)
        self.steps: List[Step] = []
        if workload.shape == "churn":
            self.steps = self._churn_steps(fleet)
        self.updated_paths = fleet.write_current(directory)
        self.expected_final = {
            name: oracle.answers(fleet.models[name].n, fleet.models[name].edges,
                                 SWEEP)
            for name in self.names}

    def _churn_steps(self, fleet: Fleet) -> List[Step]:
        """Expected reads after each batch, from an in-memory service.

        Rebuilding an index from scratch after every batch would cost
        more than the run itself, so the *intermediate* answers come
        from a store-less in-memory service fed the same batches; the
        state the plan ends in is checked against a from-scratch build
        (``expected_final``) like everything else.
        """
        from repro import DiversityService
        services = {name: DiversityService.start(
            oracle.build_graph(self.n, fleet.initial[name]))
            for name in self.names}
        steps = []
        for name, updates in self.batches:
            services[name].apply_updates(updates)
            expected = []
            for k, r in self.workload.pairs:
                result = services[name].top_r(k, r, collect_contexts=False)
                expected.append((list(result.vertices), list(result.scores)))
            steps.append(Step(name, updates, expected))
        return steps
