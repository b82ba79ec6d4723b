# Development entry points.  CI (.github/workflows/ci.yml) runs
# `make check`, which is the tier-1 suite plus the executable-docs run —
# the pair that keeps the canonical ranking contract enforced.

PY ?= python

.PHONY: lint test doctest check smoke-service smoke-server smoke-cluster smoke-parallel-build smoke-mmap smoke-chaos examples bench-e2e-quick benchmarks

lint:           ## AST invariant checks (determinism, locks, exceptions, wire, ranking)
	PYTHONPATH=src $(PY) -m repro.lint

test:           ## tier-1 verify (ROADMAP)
	PYTHONPATH=src $(PY) -m pytest -x -q

doctest:        ## every module docstring example, executed
	PYTHONPATH=src $(PY) -m pytest -q tests/test_doctests.py

check: lint test doctest

smoke-service:  ## end-to-end service: store build, warm start, live updates
	PYTHONPATH=src $(PY) examples/diversity_service.py
	PYTHONPATH=src $(PY) -m pytest -q tests/test_service.py

smoke-server:   ## end-to-end HTTP: start server, query, update, compact, stop
	PYTHONPATH=src $(PY) examples/http_service.py
	PYTHONPATH=src $(PY) -m pytest -q tests/test_server.py

smoke-cluster:  ## end-to-end cluster: start 2 workers, query, kill one, recover, stop
	PYTHONPATH=src $(PY) examples/cluster_service.py
	PYTHONPATH=src $(PY) -m pytest -q tests/test_cluster.py tests/test_store_concurrency.py tests/test_property_random.py

smoke-parallel-build:  ## jobs=2 builds must byte-match serial builds
	PYTHONPATH=src $(PY) -m pytest -q tests/test_parallel_build.py

smoke-mmap:     ## binary format: round-trips, corrupt artifacts, lazy LRU, delta/compact
	PYTHONPATH=src $(PY) -m pytest -q tests/test_storage.py

smoke-chaos:    ## replication + fault injection: follower sync, rolling restarts, zero-503 moves, kill-during-update, journal truncation
	PYTHONPATH=src $(PY) -m pytest -q tests/test_replication.py tests/test_chaos.py tests/test_journal_checkpoint.py

examples:       ## every example script, executed (they assert their claims)
	for script in examples/*.py; do \
		echo "== $$script"; \
		PYTHONPATH=src $(PY) $$script || exit 1; \
	done

bench-e2e-quick:  ## BENCHMARK.json's benchmark, all four workloads briefly (~10 s): oracle, durability, metric contract
	python3 benchmarks/e2e/run.py --quick

benchmarks:     ## full paper-reproduction report (slow)
	PYTHONPATH=src $(PY) -m pytest -q benchmarks/bench_*.py --benchmark-disable
