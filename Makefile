# One-word entry points for the verify / benchmark / demo workflows.
#
#   make test          - tier-1 test suite (the verify command of ROADMAP.md);
#                        runs scenario-demo and the smoke-sized bench-compare
#                        gate first, so >10% wall-clock regressions on the
#                        smoke suite fail locally before a PR lands
#   make bench         - pinned perf scenarios -> BENCH_<date>.json
#   make bench-compare - same, plus a diff against the previous BENCH file
#                        (exits nonzero on a >10% wall-clock regression)
#   make bench-smoke   - reduced bench suite, no file written (~sub-minute)
#   make bench-smoke-compare - smoke suite diffed against the committed
#                        benchmarks/BENCH_SMOKE.json baseline
#   make profile       - smoke bench under cProfile; writes the top-25
#                        cumulative report to profile_report.txt
#   make sweep-demo    - cached parallel sweep of E3 (re-run it to see the
#                        artifact cache short-circuit the work)
#   make scenario-demo - run the committed declarative scenario spec
#                        (examples/scenario_e2_small.json) end to end
#                        (sub-minute; a prerequisite of `make test`)
#   make dist-demo     - run a scenario sweep over the distributed backend
#                        (loopback broker + 2 forked worker daemons) and
#                        assert the table is byte-identical to the serial
#                        run (seconds; a prerequisite of `make test`)
#   make churn-demo    - dynamic-topology gate: assert an explicit churn=none
#                        suite regenerates the E2 golden table byte-for-byte,
#                        then run the committed churn example and assert its
#                        re-convergence metrics are non-trivial (sub-minute;
#                        a prerequisite of `make test`)
#   make chaos-demo    - chaos-hardening gate: run a seeded E3 mini-sweep on
#                        the distributed backend under a randomized fault
#                        schedule, SIGKILL the broker mid-sweep, resume with
#                        --resume, and assert the final table is byte-identical
#                        to the serial run (a couple of minutes worst case;
#                        wrapped in a hard `timeout`; a prerequisite of
#                        `make test`)
#   make hub-demo      - sweep-hub gate: start a standing hub + 2 persistent
#                        workers, submit two overlapping sweeps concurrently
#                        against one shared artifact root, SIGKILL one client
#                        mid-sweep and recover it with --resume, and assert
#                        both tables are byte-identical to the serial run
#                        (sub-minute typical; wrapped in a hard `timeout`;
#                        a prerequisite of `make test`)
#   make zoo-demo      - protocol-zoo gate: run the committed cross-protocol
#                        suite (examples/scenario_zoo_compare.json) and assert
#                        it regenerates tests/golden/zoo_compare_table.txt
#                        byte-for-byte, then regenerate the E2 paper golden to
#                        prove the protocol-registry refactor is inert
#                        (sub-minute; a prerequisite of `make test`)
#   make hub-chaos-demo - hub high-availability gate: hub serve --state + 2
#                        workers + 2 concurrent clients, SIGKILL the *hub*
#                        mid-sweep, restart it on the same port, and assert
#                        the clients self-heal (reconnect + re-adoption, no
#                        --resume) with tables byte-identical to serial and
#                        no artifact-backed task executed twice (sub-minute
#                        typical; wrapped in a hard `timeout`; a
#                        prerequisite of `make test`)

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

DIST_DEMO_SPEC ?= examples/scenario_benign_congest.json
# Hard wall-clock ceiling for the chaos gate: the demo injects hangs and
# kills a broker, so a wedged resume must become a loud timeout, not a
# stuck CI job.
CHAOS_TIMEOUT ?= 240
# Same idea for the hub gate: a hub that never drains a submission or a
# worker that ignores SIGTERM must fail fast, not hang CI.
HUB_TIMEOUT ?= 240
# And for the hub HA gate: a client that never self-heals after the hub
# SIGKILL must become a loud timeout.
HUB_CHAOS_TIMEOUT ?= 240

.PHONY: test bench bench-compare bench-smoke bench-smoke-compare profile sweep-demo scenario-demo dist-demo churn-demo chaos-demo hub-demo hub-chaos-demo zoo-demo clean-artifacts

test: scenario-demo dist-demo churn-demo chaos-demo hub-demo hub-chaos-demo zoo-demo bench-smoke-compare
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

scenario-demo:
	PYTHONPATH=src $(PYTHON) -m repro.cli scenario run examples/scenario_e2_small.json

dist-demo:
	PYTHONPATH=src $(PYTHON) -m repro.cli scenario run $(DIST_DEMO_SPEC) > .dist-demo-serial.txt
	PYTHONPATH=src $(PYTHON) -m repro.cli scenario run $(DIST_DEMO_SPEC) --backend distributed --spawn-workers 2 > .dist-demo-distributed.txt
	@diff .dist-demo-serial.txt .dist-demo-distributed.txt; status=$$?; \
	rm -f .dist-demo-serial.txt .dist-demo-distributed.txt; \
	if [ $$status -ne 0 ]; then echo "dist-demo FAIL: distributed table differs from serial"; exit $$status; fi; \
	echo "dist-demo ok: distributed (loopback broker + 2 workers) table identical to serial"

churn-demo:
	PYTHONPATH=src $(PYTHON) -m repro.tools.churn_demo

zoo-demo:
	PYTHONPATH=src $(PYTHON) -m repro.tools.zoo_demo

chaos-demo:
	PYTHONPATH=src timeout -k 10 $(CHAOS_TIMEOUT) $(PYTHON) -m repro.tools.chaos_demo

hub-demo:
	PYTHONPATH=src timeout -k 10 $(HUB_TIMEOUT) $(PYTHON) -m repro.tools.hub_demo

hub-chaos-demo:
	PYTHONPATH=src timeout -k 10 $(HUB_CHAOS_TIMEOUT) $(PYTHON) -m repro.tools.hub_chaos_demo

bench:
	PYTHONPATH=src $(PYTHON) -m repro.cli bench --repeats $(BENCH_REPEATS) --output-dir $(BENCH_DIR)

bench-compare:
	PYTHONPATH=src $(PYTHON) -m repro.cli bench --repeats $(BENCH_REPEATS) --output-dir $(BENCH_DIR) --compare

bench-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.cli bench --scenarios smoke --repeats 1 --no-write

bench-smoke-compare:
	PYTHONPATH=src $(PYTHON) -m repro.cli bench --scenarios smoke --repeats 2 --no-write --compare-to $(SMOKE_BASELINE) --threshold $(SMOKE_THRESHOLD)

profile:
	PYTHONPATH=src $(PYTHON) -m repro.cli bench --scenarios smoke --repeats 1 --no-write --profile $(PROFILE_OUT)

sweep-demo:
	PYTHONPATH=src $(PYTHON) -m repro.cli sweep e3 --workers $(WORKERS) --artifact-dir $(ARTIFACT_DIR)

clean-artifacts:
	rm -rf $(ARTIFACT_DIR)
