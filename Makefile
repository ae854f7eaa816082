# One-word entry points for the verify / benchmark / demo workflows.
#
#   make test          - the smoke bench-compare gate, then one pytest run of
#                        the tier-1 suite (tests/, perfbench/) plus the 12
#                        E1-E12 paper-claim checks (benchmarks/bench_e*.py)
#   make bench         - pinned perf scenarios -> BENCH_<date>.json
#   make bench-compare - same, plus a diff against the previous BENCH file
#                        (exits nonzero on a >10% wall-clock regression)
#   make bench-smoke   - reduced bench suite, no file written (~sub-minute)
#   make bench-smoke-compare - smoke suite diffed against the committed
#                        benchmarks/BENCH_SMOKE.json baseline
#   make bench-pair    - perfbench WORKLOAD at SEED, this tree against BASE
#                        (a git revision), PAIRS alternated pairs of runs;
#                        prints medians, ratio, wins and quartiles per metric
#   make profile       - smoke bench under cProfile; writes the top-25
#                        cumulative report to profile_report.txt
#   make sweep-demo    - cached parallel sweep of E3 (re-run it to see the
#                        artifact cache short-circuit the work)
#
# The *-demo gates below are aliases: each runs the pytest tests that check
# its story (`make test` already runs all of them once).
#
#   make scenario-demo - the committed E2 scenario spec regenerates its golden
#   make dist-demo     - a loopback distributed sweep is byte-identical to serial
#   make churn-demo    - explicit churn=none keeps the E2 golden; the committed
#                        churn example re-converges on every seed
#   make chaos-demo    - a loopback sweep under a fault plan, SIGKILLed
#                        mid-sweep and resumed, is byte-identical to serial
#   make hub-demo      - the same kill/resume through a hub, plus concurrent
#                        hub sweeps, hub status and worker drain
#   make hub-chaos-demo - SIGKILL the hub mid-sweep, restart it with --state;
#                        clients self-heal with tables identical to serial
#   make zoo-demo      - the cross-protocol suite and the E2 suite regenerate
#                        their goldens

PYTHON ?= python
WORKERS ?= 4
ARTIFACT_DIR ?= .sweep-artifacts
BENCH_DIR ?= .
BENCH_REPEATS ?= 3
SMOKE_BASELINE ?= benchmarks/BENCH_SMOKE.json
# Wall-clock tolerance of the smoke gate.  The committed baseline is a
# conservative envelope from the benching machine; on substantially slower
# hardware run e.g. `make test SMOKE_THRESHOLD=0.5` (the machine-independent
# rounds/messages drift check still applies) or regenerate the baseline.
SMOKE_THRESHOLD ?= 0.10
PROFILE_OUT ?= profile_report.txt
BASE ?= HEAD
WORKLOAD ?= alg1-local
SEED ?= 0
PAIRS ?= 10

PYTEST = PYTHONPATH=src $(PYTHON) -m pytest -q
E2_GOLDEN = tests/test_scenarios.py::TestScenarioCli::test_scenario_run_reproduces_e2_golden_table
KILL_RESUME = tests/test_faults.py::TestSigkillResume::test_sigkilled_sweep_resumes_byte_identical_to_serial
WORKER_DRAIN = tests/test_hub.py::TestGracefulShutdown

.PHONY: test bench bench-compare bench-smoke bench-smoke-compare bench-pair profile sweep-demo scenario-demo dist-demo churn-demo chaos-demo hub-demo hub-chaos-demo zoo-demo clean-artifacts

test: bench-smoke-compare
	$(PYTEST) -x -o python_files='test_*.py bench_*.py'

scenario-demo:
	$(PYTEST) $(E2_GOLDEN)

dist-demo:
	$(PYTEST) tests/test_distributed.py::TestCliDistributed::test_scenario_run_distributed_matches_serial

churn-demo:
	$(PYTEST) $(E2_GOLDEN) tests/test_churn.py::TestChurnMetrics::test_committed_churn_example_reconverges_on_every_seed

chaos-demo:
	$(PYTEST) '$(KILL_RESUME)[loopback]'

hub-demo:
	$(PYTEST) '$(KILL_RESUME)[connect]' $(WORKER_DRAIN) \
		tests/test_hub.py::TestHubSubmissions::test_two_concurrent_connect_sweeps_identical_to_serial \
		tests/test_hub.py::TestHubSubmissions::test_cross_sweep_dedupe_through_shared_store \
		tests/test_hub.py::TestHubSubmissions::test_status_query_reports_sweeps_and_workers

hub-chaos-demo:
	$(PYTEST) tests/test_hub_ha.py::TestHubSigkillRestart $(WORKER_DRAIN)

zoo-demo:
	$(PYTEST) tests/test_protocol_zoo.py::TestZooGolden $(E2_GOLDEN)

bench:
	PYTHONPATH=src $(PYTHON) -m repro.cli bench --repeats $(BENCH_REPEATS) --output-dir $(BENCH_DIR)

bench-compare:
	PYTHONPATH=src $(PYTHON) -m repro.cli bench --repeats $(BENCH_REPEATS) --output-dir $(BENCH_DIR) --compare

bench-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.cli bench --scenarios smoke --repeats 1 --no-write

bench-smoke-compare:
	PYTHONPATH=src $(PYTHON) -m repro.cli bench --scenarios smoke --repeats 2 --no-write --compare-to $(SMOKE_BASELINE) --threshold $(SMOKE_THRESHOLD)

bench-pair:
	$(PYTHON) benchmarks/pair.py --base $(BASE) --workload $(WORKLOAD) --seed $(SEED) --pairs $(PAIRS)

profile:
	PYTHONPATH=src $(PYTHON) -m repro.cli bench --scenarios smoke --repeats 1 --no-write --profile $(PROFILE_OUT)

sweep-demo:
	PYTHONPATH=src $(PYTHON) -m repro.cli sweep e3 --workers $(WORKERS) --artifact-dir $(ARTIFACT_DIR)

clean-artifacts:
	rm -rf $(ARTIFACT_DIR)
