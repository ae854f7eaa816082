"""Tests for the protocol zoo (src/repro/protocols/) and its registry surface.

Covers the PR-10 cross-protocol properties:

- consistent-hash grouping is a deterministic partition;
- spec-time protocol-param validation rejects out-of-envelope params with the
  offending ``scenario.protocol.params.<key>`` path;
- every registered protocol is deterministic per seed;
- zoo aggregates are identical across the serial / pool / distributed
  backends on a mini-grid;
- Ben-Or decides with probability 1 within the round budget on benign runs;
- ``scenario list`` surfaces the zoo with per-protocol parameter surfaces;
- the committed cross-protocol suite regenerates its golden table.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.comparison import render_protocol_comparison
from repro.cli import main
from repro.graphs import complete_graph, hnd_random_regular_graph
from repro.protocols import (
    assign_groups,
    ring_hash,
    run_benor,
    run_grouped_bft,
)
from repro.runner.distributed import DistributedBackend
from repro.runner.sweep import SweepRunner
from repro.scenarios import PROTOCOLS, Scenario, ScenarioSuite, materialize

EXAMPLES = Path(__file__).parent.parent / "examples"
GOLDEN = Path(__file__).parent / "golden"

#: Mini-scenario protocol params per registered protocol (n=16, degree 4).
MINI_PARAMS = {
    "local": {"gamma": 0.7, "max_degree": 4},
    "congest": {"gamma": 0.5, "d": 4, "max_rounds": 150},
    "benor": {"f": 1, "max_phases": 30},
    "grouped-bft": {"f": 1, "groups": 1},
    "flooding": {},
    "geometric": {},
    "spanning-tree": {},
    "support-estimation": {},
}


def mini_scenario(protocol, params, *, n=16, count=0, behaviour="silent"):
    return {
        "name": f"mini-{protocol}",
        "graph": {"name": "hnd", "params": {"n": n, "degree": 4}, "seed_offset": 0},
        "adversary": {"name": behaviour, "params": {}, "seed_offset": 0},
        "placement": {"name": "spread", "params": {"count": count}, "seed_offset": 0},
        "protocol": {"name": protocol, "params": dict(params), "seed_offset": 0},
        "params": {},
    }


class TestGrouping:
    def test_assign_groups_partitions_nodes(self):
        nodes = tuple(range(40))
        assignment = assign_groups(nodes, 5)
        assert assignment.num_groups == 5
        seen = [u for members in assignment.members for u in members]
        assert sorted(seen) == list(nodes)
        for g, members in enumerate(assignment.members):
            for u in members:
                assert assignment.group_of[u] == g

    def test_leaders_are_min_ring_position_members(self):
        assignment = assign_groups(tuple(range(24)), 3)
        for g, members in enumerate(assignment.members):
            if not members:
                assert assignment.leaders[g] is None
                continue
            expected = min(members, key=lambda u: (ring_hash(("node", u)), u))
            assert assignment.leaders[g] == expected

    def test_assignment_is_deterministic(self):
        a = assign_groups(tuple(range(64)), 4)
        b = assign_groups(tuple(range(64)), 4)
        assert a.members == b.members and a.leaders == b.leaders

    def test_single_group_takes_everything(self):
        assignment = assign_groups((3, 7, 11), 1)
        assert assignment.members == ((3, 7, 11),)


class TestSpecTimeValidation:
    """Satellite 1: invalid protocol params are rejected at spec time with
    the offending path, before any graph is built."""

    def _validate(self, protocol, params, *, n=16):
        Scenario.from_dict(mini_scenario(protocol, params, n=n)).validate()

    def test_unknown_param_names_offending_path(self):
        with pytest.raises(ValueError, match=r"scenario\.protocol\.params\.bogus"):
            self._validate("benor", {"bogus": 1})

    def test_benor_envelope_names_f(self):
        with pytest.raises(ValueError, match=r"scenario\.protocol\.params\.f"):
            self._validate("benor", {"f": 8}, n=16)

    def test_grouped_bft_envelope_names_f(self):
        with pytest.raises(ValueError, match=r"scenario\.protocol\.params\.f"):
            self._validate("grouped-bft", {"f": 6}, n=16)

    def test_grouped_bft_too_many_groups_names_groups(self):
        with pytest.raises(ValueError, match=r"scenario\.protocol\.params\.groups"):
            self._validate("grouped-bft", {"f": 1, "groups": 9}, n=16)

    def test_valid_params_pass(self):
        self._validate("benor", {"f": 3}, n=16)
        self._validate("grouped-bft", {"f": 1, "groups": 2}, n=16)

    def test_validation_runs_before_materialization(self):
        with pytest.raises(ValueError, match=r"scenario\.protocol\.params\."):
            materialize(mini_scenario("benor", {"f": 8}), seed=0)


class TestPerSeedDeterminism:
    """Satellite 3: every registered protocol is a pure function of its
    scenario + seed."""

    @pytest.mark.parametrize("protocol", sorted(MINI_PARAMS))
    def test_registered_protocol_deterministic(self, protocol):
        spec = mini_scenario(protocol, MINI_PARAMS[protocol], count=1)
        first = materialize(spec, seed=3).metrics
        second = materialize(spec, seed=3).metrics
        assert first == second
        # The metrics dict must survive the artifact layer (JSON round-trip).
        assert json.loads(json.dumps(first)) == json.loads(json.dumps(first))

    def test_every_registered_protocol_is_covered(self):
        assert sorted(MINI_PARAMS) == PROTOCOLS.names()


class TestBackendsIdentical:
    def test_zoo_mini_grid_identical_across_backends(self):
        """Serial, pool and distributed execution of the same zoo mini-grid
        produce byte-identical aggregates."""
        configs = []
        for protocol in ("benor", "grouped-bft", "flooding"):
            scenario = Scenario.from_dict(
                {
                    **mini_scenario(protocol, MINI_PARAMS[protocol], count=1),
                    "seeds": [0, 1],
                }
            )
            configs.extend(scenario.compile())
        backends = {
            "serial": SweepRunner(),
            "pool": SweepRunner(workers=2),
            "distributed": SweepRunner(
                backend=DistributedBackend(spawn_workers=2, quiet=True)
            ),
        }
        rows = {
            name: json.dumps(runner.run(configs), sort_keys=True)
            for name, runner in backends.items()
        }
        assert rows["serial"] == rows["pool"] == rows["distributed"]


class TestBenOr:
    def test_decides_with_probability_one_on_benign_runs(self):
        """On a benign complete graph every node decides within the round
        budget, on every seed, and all decisions agree."""
        graph = complete_graph(12)
        for seed in range(6):
            run = run_benor(graph, byzantine=set(), seed=seed, f=1)
            outcome = run.outcome
            assert outcome.decided_fraction() == 1.0, f"seed {seed}"
            assert run.extra_metrics["agreement_reached"] == 1.0, f"seed {seed}"
            assert run.result.rounds_executed <= run.params["max_rounds"]

    def test_deciders_agree_under_silent_byzantine(self):
        graph = complete_graph(16)
        run = run_benor(graph, byzantine={0, 1}, seed=5, f=2)
        assert run.extra_metrics["agreement_reached"] == 1.0


class TestGroupedBft:
    def test_all_honest_nodes_agree(self):
        graph = hnd_random_regular_graph(32, 6, seed=9)
        run = run_grouped_bft(graph, byzantine={0}, seed=2, f=1, groups=2)
        outcome = run.outcome
        assert outcome.decided_fraction() == 1.0
        assert run.extra_metrics["agreement_reached"] == 1.0
        assert run.extra_metrics["groups"] == 2


class TestScenarioListSurface:
    def test_list_shows_zoo_protocols_and_params(self, capsys):
        """Satellite 2: ``scenario list`` names every zoo protocol with its
        docstring one-liner and parameter surface."""
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for name in PROTOCOLS.names():
            assert name in out
        # Docstring one-liners.
        assert "randomized binary consensus" in out
        assert "OM" in out
        # Optional params render with a trailing "?".
        assert "f?" in out
        assert "groups?" in out
        assert "max_phases?" in out


class TestZooGolden:
    def test_committed_suite_regenerates_golden_table(self, capsys):
        """The committed cross-protocol suite is reproducible from the spec
        alone, byte for byte."""
        code = main(["scenario", "run", str(EXAMPLES / "scenario_zoo_compare.json")])
        assert code == 0
        out = capsys.readouterr().out
        golden = (GOLDEN / "zoo_compare_table.txt").read_text(encoding="utf-8")
        assert out == golden

    def test_protocol_comparison_has_one_line_per_family(self):
        suite = ScenarioSuite.from_json(
            (EXAMPLES / "scenario_zoo_compare.json").read_text(encoding="utf-8")
        )
        rows = suite.run().rows
        rendered = render_protocol_comparison(rows)
        assert render_protocol_comparison(rows) == rendered
        families = list(dict.fromkeys(row["protocol"] for row in rows))
        assert len(families) == 5
        # Title, header and rule, then one line per family in suite order.
        body = rendered.splitlines()[3:]
        assert [line.split("|")[0].strip() for line in body] == families
