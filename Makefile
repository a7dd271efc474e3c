# Developer entry points.  Everything runs against the in-tree sources
# (PYTHONPATH=src); nothing needs to be installed.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test bench-smoke bench-synthesis bench bench-parallel \
	bench-planner bench-join-order bench-vectorized-scan fuzz-smoke \
	serve-smoke chaos-smoke pool-smoke obs-smoke profile-smoke docs-check

# Tier-1 verification: the full unit/property/regression suite.
test:
	$(PYTHON) -m pytest -x -q

# Fast perf canary: the synthesis-speed comparison with a single
# timing repeat (fails below 2x wall-clock / 3x evaluator-call
# reduction vs. the seed implementation, or on three exact counts per
# corpus QBS pass: above half the Fourier-Motzkin runs the prover made
# before it memoised entailment, above 1/20 of the resolve_path plus
# _scalar_binop calls made before TOR compilation resolved paths and
# operators once, above two thirds of the rewrite passes made before
# the prover memoised them; or if any outcome differs from the
# memo-free oracle prover's), then the query-planner
# floors (>= 3x for the hash-join chain on the three-table corpus
# fragment and for index scans vs. full scans, >= 2x for the statement
# cache vs. planning every call, and at most 12 Python calls per warm
# statement-cache hit of a point lookup planned as a bare IndexScan, an
# exact count that was 42 before the hit path was trimmed and 18
# while a Project sat above the scan), the cost-based
# join-order floor (>= 2x vs. the greedy FROM-order chain on a skewed
# four-table corpus), the batch-execution floors (>= 2x over
# the seed pipeline on a 200k-row scan+filter+aggregate and on an
# ORM-shaped stream of small indexed lookups, both asserted
# unconditionally), the ORM entity-read
# floor (reading every column of 2,000 lazily loaded entities takes at
# most 2x the time of the same reads on plain objects, asserted
# unconditionally), the ORM bytecode-read ceiling (the same reads from
# a generated Python loop take at most 1.3x that loop's time over a
# plain __slots__ class: 4.7-5.1x while Entity.__getattr__ existed), and
# the ORM eager-load floors (an eager load of
# 2,000 Participants over 20 roles and 200 projects issues at most 221
# queries, an exact count that was 4,001 before a session resolved
# each association key once, and enters at most 3,625 Python functions
# after a warm-up load, an exact count that was 10,875 before hydration
# went a result at a time).  Perf regressions surface in seconds.
bench-smoke:
	$(PYTHON) benchmarks/bench_synthesis_speed.py --smoke
	$(PYTHON) benchmarks/bench_planner.py --smoke
	$(PYTHON) benchmarks/bench_join_order.py --smoke
	$(PYTHON) benchmarks/bench_vectorized_scan.py --smoke
	$(PYTHON) benchmarks/bench_orm_entities.py --smoke

# Query-planner comparison at full size (best of 3 repeats).
bench-planner:
	$(PYTHON) benchmarks/bench_planner.py

# Cost-based join ordering vs. the greedy FROM-order chain.
bench-join-order:
	$(PYTHON) benchmarks/bench_join_order.py

# Batch execution vs. the seed pipeline at full size: the 200k-row
# scan floor and the small-query floor.
bench-vectorized-scan:
	$(PYTHON) benchmarks/bench_vectorized_scan.py

# Cross-mode differential fuzzing canary: a fixed-seed subset of the
# generative SQL fuzzer plus the metamorphic relations.  Full scale
# runs in tier-1 (200 cases); crank REPRO_FUZZ_ITERS for soak runs.
fuzz-smoke:
	REPRO_FUZZ_ITERS=40 $(PYTHON) -m pytest \
		tests/sql/test_differential_fuzz.py \
		tests/sql/test_metamorphic.py -q

# Full synthesis-speed table (per-fragment rows, best of 3 repeats).
bench-synthesis:
	$(PYTHON) benchmarks/bench_synthesis_speed.py

# Sequential-vs-parallel corpus service comparison.  Outcome identity
# and warm-cache behaviour are asserted everywhere; the 1.8x speedup
# floor at 4 workers is asserted when >= 4 cores are usable.
bench-parallel:
	$(PYTHON) benchmarks/bench_qbs_parallel.py

# Service smoke: the CLI over a 3-fragment slice with 2 workers, twice
# against a throwaway cache — the second run must be answered entirely
# from it (--expect-cached), and --check makes outcome mismatches and
# failed jobs exit non-zero.
serve-smoke:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(PYTHON) -m repro.service.cli run --fragments w40,w42,i2 \
		--workers 2 --check --cache-dir "$$dir" && \
	$(PYTHON) -m repro.service.cli run --fragments w40,w42,i2 \
		--workers 2 --check --expect-cached --cache-dir "$$dir" && \
	$(PYTHON) -m repro.service.cli status --fragments w40,w42,i2 \
		--cache-dir "$$dir"

# Chaos canary: deterministic fault injection against the scheduler and
# its worker pool — retries with exact attempt counts, circuit breaker,
# deadlines, shutdown escalation, and the inline run when the pool
# cannot start.
chaos-smoke:
	$(PYTHON) -m pytest tests/service/test_faults.py -q

# Worker-pool canary: the pool's full test surface — protocol unit
# tests, hung-worker replacement, the fd budget, and seeded chaos
# against the scheduler's QBS batches (respawn + retry with exact
# attempt counts).
pool-smoke:
	$(PYTHON) -m pytest tests/service/test_pool.py \
		tests/service/test_faults.py -q

# Observability canary: golden span trees, metrics exposition format,
# untraced-off byte-identity, and one real traced benchmark run
# validated against the BENCH_*.json schema.
obs-smoke:
	$(PYTHON) -m pytest tests/obs -q

# Profiler canary: one profiled corpus run through the CLI (the
# collapsed-stack file must come out non-empty), then the profiler's
# own contract suite — off-path byte-identity, masked span-universe
# goldens, and merging sample buffers between profilers.
profile-smoke:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(PYTHON) -m repro.service.cli run --fragments w40 --workers 1 \
		--no-cache --quiet --profile "$$dir/profile.txt" && \
	test -s "$$dir/profile.txt"
	$(PYTHON) -m pytest tests/obs/test_profile.py -q

# The complete paper-figure benchmark suite (pytest-benchmark).
# Files are passed explicitly: they use the bench_* naming scheme,
# which directory collection would skip.
bench:
	$(PYTHON) -m pytest benchmarks/bench_*.py -q

# Executable documentation: doctest every README / docs example,
# verify the EXPLAIN snippets in docs/explain.md against freshly
# rendered plans, and run every script under examples/ (each must
# exit 0).
docs-check:
	$(PYTHON) tools/check_docs.py
	@for example in examples/*.py; do \
		echo "== $$example"; \
		$(PYTHON) "$$example" || exit 1; \
	done
