# Convenience targets for the SpiderCache reproduction.

PYTHON ?= python

# Every target runs from the source tree, installed or not.
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: install test coverage shapes bench perfbench perfbench-compare perfbench-selftest examples smoke faults dist transport report all

# Where `make report` writes (and reads back) its traced demo run.
REPORT_DIR ?= results/traced-run
# Where `make transport` writes its smoke run, once per transport.
TRANSPORT_DIR ?= results/transport-smoke

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# Tier-1 suite with the CI coverage gate (needs pytest-cov from [dev]).
coverage:
	$(PYTHON) -m pytest tests/ \
		--cov=repro --cov-report=term-missing:skip-covered \
		--cov-fail-under=80

# The paper-shape claims (every figure/table test in benchmarks/), each
# measurement run once, shape assertions kept — what the CI `shapes` job
# gates merges on (~2 min).
shapes:
	$(PYTHON) -m pytest benchmarks/ --benchmark-disable -q

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# The repo's wall-clock benchmark (perfbench/README.md, BENCHMARK.json):
# every workload, untraced + traced pass, one result file per commit.
# `perfbench-compare A=parent.json B=change.json` prints the verdict per
# workload and end-to-end metric; `perfbench-selftest` runs the same code
# at tiny sizes.
perfbench:
	python3 -m perfbench run --seed 0 --out perfbench-$$(git rev-parse --short HEAD).json

perfbench-compare:
	python3 -m perfbench compare $(A) $(B)

perfbench-selftest:
	python3 -m pytest perfbench/tests -q

examples:
	for ex in examples/*.py; do echo "== $$ex"; $(PYTHON) $$ex || exit 1; done

smoke:
	$(PYTHON) -m repro train --policy spidercache --samples 600 --epochs 3

# Traced demo run + rendered observability report.
report:
	$(PYTHON) -m repro train --policy spidercache --samples 600 --epochs 3 \
		--trace-dir $(REPORT_DIR)
	$(PYTHON) -m repro report $(REPORT_DIR)

# Sharded cache-service suite — every dist-marked test (differential
# oracle, retry/backoff, chaos) under the increased Hypothesis budget,
# plus a sharded smoke run for one policy per cache-layer stack, whose report must reconcile (hit and
# substitute ratios) and count every request, and a one-worker run on the
# shard tier whose report reconciles every stage time.
DIST_DIR ?= results/dist-smoke
dist:
	REPRO_HYPOTHESIS_PROFILE=ci $(PYTHON) -m pytest -m dist
	for policy in spidercache baseline icache shade; do \
		$(PYTHON) -m repro train --policy $$policy --samples 600 --epochs 3 \
			--world-size 2 --shared-cache --cache-shards 2 \
			--trace-dir $(DIST_DIR)/$$policy || exit 1; \
		$(PYTHON) -m repro report $(DIST_DIR)/$$policy > $(DIST_DIR)/$$policy.txt || exit 1; \
		grep -q "trace vs per-epoch metrics: OK" $(DIST_DIR)/$$policy.txt || exit 1; \
		if grep -q "MISMATCH\| rows=" $(DIST_DIR)/$$policy.txt; then exit 1; fi; \
		grep -q " fetch=1350," $(DIST_DIR)/$$policy.txt || exit 1; \
	done
	$(PYTHON) -m repro train --policy spidercache --samples 600 --epochs 3 \
		--world-size 1 --shared-cache --cache-shards 2 \
		--trace-dir $(DIST_DIR)/one-worker
	$(PYTHON) -m repro report $(DIST_DIR)/one-worker > $(DIST_DIR)/one-worker.txt
	grep -q "trace vs per-epoch metrics: OK over 3 epoch(s)$$" $(DIST_DIR)/one-worker.txt
	grep -q " fetch=1350," $(DIST_DIR)/one-worker.txt

# Real-process transport suite (-m wallclock: sim/real parity oracle +
# real-process chaos) with a hard timeout and NO retries — these tests
# spawn real worker processes, and a flake here is a bug, not weather.
# Plus a sharded train smoke on both transports: RPC time is modelled
# on both, so the two epochs.jsonl must be identical.
transport:
	timeout 300 $(PYTHON) -m pytest -m wallclock -p no:cacheprovider
	timeout 120 $(PYTHON) -m repro train --policy spidercache --samples 600 \
		--epochs 2 --world-size 2 --shared-cache --cache-shards 2 \
		--transport real \
		--trace-dir $(TRANSPORT_DIR)/real
	timeout 120 $(PYTHON) -m repro train --policy spidercache --samples 600 \
		--epochs 2 --world-size 2 --shared-cache --cache-shards 2 \
		--transport sim \
		--trace-dir $(TRANSPORT_DIR)/sim
	cmp $(TRANSPORT_DIR)/sim/epochs.jsonl $(TRANSPORT_DIR)/real/epochs.jsonl

# Tier-2 fault-injection suite plus the scenario sweep CLI.
faults:
	$(PYTHON) -m pytest tests/ -m resilience
	$(PYTHON) -m repro faults --samples 600 --epochs 3

all: test bench
