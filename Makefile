# Developer entry points. Everything runs from the repo root and uses
# PYTHONPATH=src so no install step is required.

PYTHON      ?= python
PYTHONPATH  := src
export PYTHONPATH

.PHONY: test bench bench-scaling bench-record perf-smoke perfbench lint verify sweep trace-smoke chaos-smoke chaos-harness-smoke serve-smoke stream-smoke profile obs-smoke all

# Knobs for `make profile` (self-profiler tier/scheduler).
PROFILE_TIER      ?= full
PROFILE_SCHEDULER ?= chronus

# Knobs for `make sweep` (scenario library + parallel experiment engine).
SCENARIO ?= burst
WORKERS  ?= 4
SCALE    ?= small

# Workdir for `make trace-smoke` (trace ingestion end-to-end check).
TRACE_DIR ?= .trace-smoke

## Tier-1 verify: the full unit suite + every benchmark at reduced scale.
verify:
	$(PYTHON) -m pytest -x -q

## Unit/integration tests only (fast).
test:
	$(PYTHON) -m pytest tests -q

## Paper-artifact benchmarks + the scheduling-core scaling benchmark.
bench:
	$(PYTHON) -m pytest benchmarks -q -s

## Just the scaling benchmark (legacy-vs-optimized engine comparison).
bench-scaling:
	$(PYTHON) -m pytest benchmarks/test_bench_scaling.py -q -s

## Full placement-bound benchmark (512 nodes, >=20k tasks) with the
## legacy search comparison, the full churn tier (256 nodes under
## node_churn) and the full service load tier (streaming session over
## HTTP); writes the machine-readable BENCH_4.json, BENCH_5.json and
## BENCH_6.json perf records at the repo root and fails on any regression.
bench-record:
	REPRO_BENCH_PLACEMENT_TIER=full REPRO_BENCH_RECORD=1 REPRO_BENCH_ENFORCE=1 \
		$(PYTHON) -m pytest benchmarks/test_bench_scaling.py -q -s -k placement
	REPRO_BENCH_DYNAMICS_TIER=full REPRO_BENCH_RECORD=1 REPRO_BENCH_ENFORCE=1 \
		$(PYTHON) -m pytest benchmarks/test_bench_dynamics.py -q -s
	REPRO_BENCH_SERVICE_TIER=full REPRO_BENCH_RECORD=1 REPRO_BENCH_ENFORCE=1 \
		$(PYTHON) -m pytest benchmarks/test_bench_service.py -q -s
	REPRO_BENCH_OBS_TIER=full REPRO_BENCH_RECORD=1 REPRO_BENCH_ENFORCE=1 \
		$(PYTHON) -m pytest benchmarks/test_bench_obs.py -q -s
	REPRO_BENCH_STREAM_TIER=full REPRO_BENCH_RECORD=1 REPRO_BENCH_ENFORCE=1 \
		$(PYTHON) -m pytest benchmarks/test_bench_stream.py -q -s

## Reduced placement benchmark used by the CI perf gate: fails when the
## measured speedup ratio regresses >20% vs the checked-in reference.
perf-smoke:
	REPRO_BENCH_PLACEMENT_TIER=smoke REPRO_BENCH_ENFORCE=1 \
		$(PYTHON) -m pytest benchmarks/test_bench_scaling.py -q -s -k placement

## Repository benchmark (perfbench/README.md): each of the four workloads
## once on the held-out seed 1009, untraced; fails unless every result is
## correct (digest matches its pin) with zero failed operations.
perfbench:
	@set -e; for w in gfs-replay gfs-storm chronus-replay gfs-whatif; do \
		$(PYTHON) perfbench/run.py --workload $$w --seed 1009 --seconds 30 --trace 0 \
			| tail -n 1 | $(PYTHON) -c 'import json, sys; r = json.load(sys.stdin); \
			ok = r["correct"] is True and r["failed"] == 0; \
			print(sys.argv[1], "correct:", r["correct"], "failed:", r["failed"]); \
			sys.exit(0 if ok else 1)' $$w; \
	done

## Scenario sweep through the parallel experiment engine, e.g.
##   make sweep SCENARIO=spot_heavy WORKERS=8 SCALE=medium
sweep:
	$(PYTHON) -m repro.experiments.cli sweep --scenario $(SCENARIO) \
		--scale $(SCALE) --workers $(WORKERS) --cache-dir .repro-cache

## Trace-ingest smoke: convert a fixture trace, validate it, inspect it,
## then run one simulation cell on it through the engine (cached).
trace-smoke:
	$(PYTHON) -m repro.experiments.cli trace convert \
		tests/fixtures/philly_small.csv $(TRACE_DIR)/philly.json.gz \
		--fleet-model A100
	$(PYTHON) -m repro.experiments.cli trace validate $(TRACE_DIR)/philly.json.gz
	$(PYTHON) -m repro.experiments.cli trace stats $(TRACE_DIR)/philly.json.gz
	$(PYTHON) -m repro.experiments.cli sweep \
		--scenario trace:$(TRACE_DIR)/philly.json.gz \
		--schedulers GFS --workers 1 --cache-dir $(TRACE_DIR)/cache

## Chaos smoke: one fast node_churn sweep covering every scheduler
## family (Chronus/YARN-CS/FGD/Lyra/PTS/GFS) through the parallel
## engine, plus the dynamics overhead/determinism benchmark.
chaos-smoke:
	$(PYTHON) -m repro.experiments.cli sweep --scenario node_churn \
		--scale small --workers 2 --spot-scale 2.0
	$(PYTHON) -m pytest benchmarks/test_bench_dynamics.py tests/test_chaos_scenarios.py -q

## Fault-tolerance smoke: kill-and-resume scenarios (SIGINT drain,
## kill -9 + journal resume, seeded worker chaos, durable service
## restart — each asserting byte-identity with an uninterrupted
## reference), then the crash-safety suites.
chaos-harness-smoke:
	$(PYTHON) -m repro.runtime.smoke
	$(PYTHON) -m pytest tests/test_runtime.py tests/test_resume.py \
		tests/test_chaos_harness.py tests/test_service_durability.py -q

## Self-profiler: wall-clock phase breakdown (event dispatch vs placement
## search vs metric accrual) of the placement-bound benchmark tier, with
## the instrumentation-off baseline and metric-parity check.  E.g.
##   make profile PROFILE_TIER=smoke
profile:
	$(PYTHON) -m repro.experiments.cli profile \
		--tier $(PROFILE_TIER) --scheduler $(PROFILE_SCHEDULER) --check-overhead

## Observability smoke for CI: profile + trace export on the smoke tier,
## plus the /metrics scrape exercised by the service smoke.
obs-smoke:
	$(PYTHON) -m repro.experiments.cli profile --tier smoke --check-overhead
	$(PYTHON) -m repro.experiments.cli trace-viz --scenario node_churn \
		--nodes 16 --hours 4.0 --trace-out .obs-smoke-trace.json
	$(PYTHON) -m repro.service.smoke

## Live-telemetry smoke: SSE subscribe + mid-stream disconnect +
## Last-Event-ID resume against a real server (byte-for-byte lossless
## vs an uninterrupted witness), the /dashboard page, then a --progress
## sweep whose JSONL telemetry capture is validated against the
## documented schema (see docs/observability.md).
stream-smoke:
	$(PYTHON) -m repro.service.stream_smoke

## Service smoke: boot the streaming scheduler server in-process, drive
## one full session lifecycle over HTTP (create, stream submissions,
## advance, occupancy/quota/what-if queries, snapshot/restore, shutdown).
serve-smoke:
	$(PYTHON) -m repro.service.smoke

## Lint: ruff when available, otherwise a byte-compile syntax sweep.
lint:
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed; falling back to compileall"; \
		$(PYTHON) -m compileall -q src tests benchmarks examples; \
	fi

all: lint test bench
