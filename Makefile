# Convenience targets for the reproduction.

PYTHON ?= python3
STORE ?= .repro-store

.PHONY: install test test-fast test-explore explore-smoke e2e-bench experiments experiments-e5 examples store-report all

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

test-fast:
	$(PYTHON) -m pytest tests/ -m "not slow"

# The deep model-checking suite: full assignment/crash frontiers, the
# crash frontier once more on the reference network.  Opt-in (minutes
# of CPU).
test-explore:
	REPRO_EXPLORE_DEEP=1 $(PYTHON) -m pytest tests/explore -m explore

# Shallow exhaustive sweep of every clean target, plus mutant detection
# — what the explore-smoke CI job runs.  (The reference-network
# differential over the same walks is tier-1:
# tests/explore/test_engine_equivalence.py.)
explore-smoke:
	$(PYTHON) -m repro.explore --target all --depth 5 --stats
	$(PYTHON) -m repro.explore --target eagerquit --expect-violation --stop-on-first
	$(PYTHON) -m repro.explore --target hastycommit --expect-violation --stop-on-first
	$(PYTHON) -m repro.explore --target submajority --expect-violation --stop-on-first --max-runs 2500
	$(PYTHON) -m repro.explore --target redcommit --depth 5 --expect-violation --stop-on-first
	$(PYTHON) -m repro.explore --target nbac --depth 5 --detector-switches --crashes 1 --symmetry --require-complete --stats
	$(PYTHON) -m repro.explore --target nbac --procs 3 --symmetry --require-complete --stats
	$(PYTHON) -m repro.explore --target hastycommit --procs 3 --symmetry --expect-violation --stop-on-first --workers 2

# The repo benchmark (BENCHMARK.json): four end-to-end workloads in
# fresh processes, wall/cpu/set-up medians only.  Drop --no-trace for
# the per-layer pass as well; e2e_bench/README.md explains the metrics.
e2e-bench:
	$(PYTHON) -m e2e_bench --no-trace

experiments:
	$(PYTHON) -m repro.experiments

# The heaviest experiment alone (E5: the Figure 3 extraction), with the
# per-campaign perf counters dumped to PROFILE_sim.json (docs/PERF.md).
experiments-e5:
	$(PYTHON) -m repro.experiments E5 --profile

# The persistent campaign database (docs/STORE.md).  STORE overrides
# the directory: `make store-report STORE=/tmp/db`.
store-report:
	PYTHONPATH=src $(PYTHON) -m repro.store --db $(STORE) summarise

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/detector_zoo.py
	$(PYTHON) examples/atomic_commit.py
	$(PYTHON) examples/replicated_kv_store.py
	$(PYTHON) examples/consensus_showdown.py
	$(PYTHON) examples/weakest_detector_tour.py

all: test experiments
