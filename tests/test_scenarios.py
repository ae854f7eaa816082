"""Tests for the declarative scenario API (src/repro/scenarios/)."""

import json
import random
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.parameters import CongestParameters, LocalParameters
from repro.scenarios import (
    ADVERSARIES,
    GRAPHS,
    PLACEMENTS,
    PROTOCOLS,
    ComponentRegistry,
    ComponentSpec,
    Scenario,
    ScenarioSuite,
    UnknownComponentError,
    all_registries,
    make_adversary,
    materialize,
    place_byzantine,
)
from repro.scenarios.spec import SCENARIO_TASK

EXAMPLES = Path(__file__).parent.parent / "examples"
GOLDEN = Path(__file__).parent / "golden"


class TestRegistries:
    def test_expected_components_registered(self):
        assert "hnd" in GRAPHS and "margulis" in GRAPHS
        assert "beacon-flood" in ADVERSARIES and "silent" in ADVERSARIES
        assert "spread" in PLACEMENTS and "high-degree" in PLACEMENTS
        # PR 10 folded the protocol zoo into the registry alongside the
        # paper's two algorithms.
        assert PROTOCOLS.names() == [
            "benor",
            "congest",
            "flooding",
            "geometric",
            "grouped-bft",
            "local",
            "spanning-tree",
            "support-estimation",
        ]

    def test_unknown_name_raises_with_valid_names(self):
        with pytest.raises(UnknownComponentError) as excinfo:
            GRAPHS.get("nope")
        message = str(excinfo.value)
        assert "nope" in message
        for name in GRAPHS.names():
            assert name in message
        # The error is a ValueError, so legacy `raises(ValueError)` call
        # sites keep working.
        assert isinstance(excinfo.value, ValueError)

    def test_duplicate_registration_rejected(self):
        registry = ComponentRegistry("thing")
        registry.register("x")(lambda: 1)
        with pytest.raises(ValueError, match="registered twice"):
            registry.register("x")(lambda: 2)

    def test_entries_carry_descriptions(self):
        for registry in all_registries().values():
            for entry in registry.entries():
                assert entry.description, f"{registry.kind} {entry.name} lacks a docstring"


class TestUniformAdversaryConstruction:
    """The behaviour registry owns construction: call sites never branch."""

    def test_silent_ignores_protocol_params(self):
        adversary = make_adversary("silent", CongestParameters())
        assert type(adversary).__name__ == "SilentAdversary"

    def test_scheduled_attack_reads_congest_schedule(self):
        params = CongestParameters(gamma=0.5, d=8)
        adversary = make_adversary("beacon-flood", params)
        assert adversary.params is params

    def test_scheduled_attack_defaults_without_congest_params(self):
        # Local-protocol parameter objects (and None) leave the scheduled
        # attack with its own default schedule, like the historical CLI.
        for protocol_params in (None, LocalParameters()):
            adversary = make_adversary("beacon-flood", protocol_params)
            assert isinstance(adversary.params, CongestParameters)

    def test_behaviour_kwargs_forwarded(self):
        adversary = make_adversary("path-tamper", None, fake_path_length=5)
        assert adversary.fake_path_length == 5


class TestPlacement:
    def test_zero_count_is_empty_but_still_validates(self):
        from repro.graphs.generators import cycle_graph

        graph = cycle_graph(8)
        assert place_byzantine("random", graph, 0, seed=0) == set()
        with pytest.raises(UnknownComponentError):
            place_byzantine("nope", graph, 0, seed=0)

    def test_matches_direct_strategy_call(self):
        from repro.adversary.placement import spread_placement
        from repro.graphs.hnd import hnd_random_regular_graph

        graph = hnd_random_regular_graph(64, 8, seed=3)
        assert place_byzantine("spread", graph, 4, seed=7) == spread_placement(
            graph, 4, seed=7
        )


def _random_scenario(rng: random.Random) -> Scenario:
    """A random-but-valid scenario for the round-trip property test."""
    def params(depth=0):
        out = {}
        for _ in range(rng.randrange(0, 4)):
            key = f"k{rng.randrange(10)}"
            choice = rng.randrange(6 if depth < 2 else 4)
            if choice == 0:
                out[key] = rng.randrange(-100, 100)
            elif choice == 1:
                out[key] = rng.choice([True, False, None])
            elif choice == 2:
                out[key] = round(rng.uniform(-5, 5), 6)
            elif choice == 3:
                out[key] = f"s{rng.randrange(100)}"
            elif choice == 4:
                out[key] = [rng.randrange(10) for _ in range(rng.randrange(3))]
            else:
                out[key] = params(depth + 1)
        return out

    return Scenario(
        name=f"random-{rng.randrange(1000)}",
        graph=ComponentSpec(
            rng.choice(GRAPHS.names()), params(), seed_offset=rng.randrange(-5, 50)
        ),
        adversary=ComponentSpec(rng.choice(ADVERSARIES.names()), params()),
        placement=ComponentSpec(
            rng.choice(PLACEMENTS.names()), params(), seed_offset=rng.randrange(0, 9)
        ),
        protocol=ComponentSpec(rng.choice(PROTOCOLS.names()), params()),
        params=params(),
        seeds=tuple(rng.randrange(0, 10_000) for _ in range(rng.randrange(1, 5))),
    )


class TestScenarioSpec:
    def test_round_trip_identity_property(self):
        # Property test: Scenario -> dict -> json -> Scenario is the identity
        # for any JSON-shaped parameterization.
        rng = random.Random(42)
        for _ in range(200):
            scenario = _random_scenario(rng)
            assert Scenario.from_json(scenario.to_json()) == scenario
            assert Scenario.from_dict(
                json.loads(json.dumps(scenario.to_dict()))
            ) == scenario

    def test_tuples_normalize_to_lists(self):
        a = Scenario(
            graph=ComponentSpec("hnd", {"sizes": (1, 2)}),
            adversary=ComponentSpec("silent"),
            placement=ComponentSpec("random"),
            protocol=ComponentSpec("congest"),
        )
        b = Scenario(
            graph=ComponentSpec("hnd", {"sizes": [1, 2]}),
            adversary=ComponentSpec("silent"),
            placement=ComponentSpec("random"),
            protocol=ComponentSpec("congest"),
        )
        assert a == b

    @pytest.mark.parametrize("axis", ["graph", "adversary", "placement", "protocol"])
    def test_unknown_component_raises_with_options(self, axis):
        fields = {
            "graph": ComponentSpec("hnd", {"n": 16}),
            "adversary": ComponentSpec("silent"),
            "placement": ComponentSpec("random", {"count": 0}),
            "protocol": ComponentSpec("congest"),
        }
        fields[axis] = ComponentSpec("definitely-not-registered")
        scenario = Scenario(**fields)
        with pytest.raises(UnknownComponentError) as excinfo:
            scenario.validate()
        registry = all_registries()[axis]
        for name in registry.names():
            assert name in str(excinfo.value)

    def test_compile_one_config_per_seed(self):
        scenario = Scenario(
            graph=ComponentSpec("hnd", {"n": 16, "degree": 4}),
            adversary=ComponentSpec("silent"),
            placement=ComponentSpec("random", {"count": 0}),
            protocol=ComponentSpec("congest"),
            seeds=(3, 4, 5),
        )
        configs = scenario.compile()
        assert [config.task for config in configs] == [SCENARIO_TASK] * 3
        assert [config.params["seed"] for config in configs] == [3, 4, 5]
        # Cells with different seeds hash differently; the spec part agrees.
        assert len({config.key() for config in configs}) == 3
        assert all(
            config.params["spec"] == configs[0].params["spec"] for config in configs
        )

    def test_compile_rejects_non_finite_spec_params(self):
        scenario = Scenario(
            graph=ComponentSpec("hnd", {"n": 16}),
            adversary=ComponentSpec("silent"),
            placement=ComponentSpec("random", {"count": 0}),
            protocol=ComponentSpec("congest", {"gamma": float("nan")}),
        )
        with pytest.raises(ValueError, match="finite"):
            scenario.compile()

    def test_component_spec_requires_name(self):
        with pytest.raises(ValueError, match="missing 'name'"):
            ComponentSpec.from_dict({"params": {"n": 8}})

    def test_compiled_params_omit_display_name(self):
        # The cache content hash must not depend on the cosmetic name.
        def build(name):
            return Scenario(
                name=name,
                graph=ComponentSpec("hnd", {"n": 16, "degree": 4}),
                adversary=ComponentSpec("silent"),
                placement=ComponentSpec("random", {"count": 0}),
                protocol=ComponentSpec("congest"),
                seeds=(1,),
            ).compile()[0]

        assert build("a").key() == build("b").key()

    def test_scenario_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown scenario spec keys"):
            Scenario.from_dict(
                {
                    "graph": "hnd",
                    "adversary": "silent",
                    "placement": "random",
                    "protocol": "congest",
                    "typo_field": 1,
                }
            )


class TestLegacyDriverEquivalence:
    """A compiled scenario run equals the legacy driver path row-for-row."""

    @staticmethod
    def _legacy_e2_trial(
        *, n, degree, num_byz, behaviour, placement, gamma, round_budget, trial_seed
    ):
        """The pre-scenario E2 trial, verbatim (hand-wired dicts and all)."""
        from repro.adversary.placement import random_placement, spread_placement
        from repro.adversary.strategies import BeaconFloodAdversary, PathTamperAdversary
        from repro.analysis.accuracy import theorem2_check
        from repro.core.congest_counting import run_congest_counting
        from repro.graphs.hnd import hnd_random_regular_graph
        from repro.graphs.neighborhoods import ball_of_set
        from repro.simulator.byzantine import SilentAdversary

        behaviours = {
            "silent": SilentAdversary,
            "beacon-flood": BeaconFloodAdversary,
            "path-tamper": PathTamperAdversary,
        }
        placements = {"random": random_placement, "spread": spread_placement}
        params = CongestParameters(gamma=gamma, d=degree)
        graph = hnd_random_regular_graph(n, degree, seed=trial_seed)
        byz = placements[placement](graph, num_byz, seed=trial_seed)
        behaviour_cls = behaviours[behaviour]
        adversary = behaviour_cls() if behaviour == "silent" else behaviour_cls(params)
        contaminated = ball_of_set(graph, byz, 1)
        evaluation = {
            u for u in range(graph.n) if u not in contaminated and u not in byz
        }
        run = run_congest_counting(
            graph,
            byzantine=byz,
            adversary=adversary,
            params=params,
            seed=trial_seed,
            max_rounds=round_budget,
            evaluation_set=evaluation,
        )
        outcome = run.outcome
        check = theorem2_check(
            outcome, beta=0.25, num_byzantine=num_byz, round_budget=round_budget
        )
        return {
            "decided": outcome.decided_fraction(over_evaluation_set=False),
            "in_band": outcome.fraction_within_band(
                0.35, 1.6, over_evaluation_set=False
            ),
            "far_in_band": outcome.fraction_within_band(0.35, 1.6),
            "median": outcome.median_estimate(),
            "rounds": outcome.max_decision_round(),
            "small": outcome.small_message_fraction,
            "passed": 1.0 if check.passed else 0.0,
        }

    def test_e2_small_rows_match_legacy(self):
        from repro.experiments import e2_congest_theorem2
        from repro.runner import SweepRunner

        suite = e2_congest_theorem2.scenario_suite(sizes=(64,), trials=1, seed=0)
        flat = SweepRunner().run(suite.compile())
        mapping = {
            "decided": "decided_fraction_all",
            "in_band": "fraction_in_band_all",
            "far_in_band": "fraction_in_band",
            "median": "median_estimate",
            "rounds": "max_decision_round",
            "small": "small_message_fraction",
            "passed": "check_passed",
        }
        for row, metrics in zip(suite.rows, flat):
            (trial_seed,) = row.scenario.seeds
            legacy = self._legacy_e2_trial(
                n=row.static["n"],
                degree=8,
                num_byz=row.static["byzantine"],
                behaviour=row.static["behaviour"],
                placement="spread",
                gamma=0.5,
                round_budget=row.static["round_budget"],
                trial_seed=trial_seed,
            )
            assert {key: metrics[mapping[key]] for key in legacy} == legacy


class TestScenarioSuite:
    def test_suite_round_trips_through_json(self):
        from repro.experiments import e2_congest_theorem2

        suite = e2_congest_theorem2.scenario_suite(sizes=(64, 128), trials=2, seed=5)
        assert ScenarioSuite.from_json(suite.to_json()) == suite

    def test_committed_example_matches_driver_suite(self):
        # The committed spec IS the driver's small configuration; drifting
        # either breaks this lock.
        from repro.experiments import e2_congest_theorem2

        committed = json.loads((EXAMPLES / "scenario_e2_small.json").read_text())
        suite = e2_congest_theorem2.scenario_suite(sizes=(64, 128), trials=1, seed=0)
        assert committed == suite.to_dict()

    def test_unknown_metric_key_rejected(self):
        from repro.experiments import e3_benign

        suite = e3_benign.scenario_suite(sizes=(16,), trials=1)
        broken = ScenarioSuite(
            experiment=suite.experiment,
            claim=suite.claim,
            rows=[
                type(suite.rows[0])(
                    scenario=suite.rows[0].scenario,
                    static={},
                    columns={"decided": "decided_fractoin"},
                )
            ],
        )
        with pytest.raises(ValueError, match="unknown metric 'decided_fractoin'"):
            broken.run()

    def test_unknown_reducer_rejected(self):
        from repro.scenarios.suite import _reduce

        with pytest.raises(ValueError, match="unknown reducer"):
            _reduce({"metric": "x", "reduce": "mode"}, [1, 2])

    def test_reducers(self):
        from repro.scenarios.suite import _reduce

        assert _reduce("x", [1.0, None, 3.0]) == 2.0
        assert _reduce({"metric": "x", "reduce": "first"}, [7, 8]) == 7
        assert _reduce({"metric": "x", "reduce": "first"}, []) is None
        assert _reduce({"metric": "x", "reduce": "median"}, [1, 9, 2]) == 2
        assert _reduce({"metric": "x", "reduce": "max", "round": 1}, [1.26, 3.14]) == 3.1
        assert _reduce("x", [None, None]) is None


class TestScenarioCli:
    def test_scenario_run_reproduces_e2_golden_table(self, capsys, tmp_path):
        # Acceptance: the E2 small table regenerates from the JSON spec alone,
        # and an explicit churn=none axis on every row leaves it unchanged.
        committed = EXAMPLES / "scenario_e2_small.json"
        document = json.loads(committed.read_text())
        for row in document["rows"]:
            row["scenario"]["churn"] = {"name": "none", "params": {}, "seed_offset": 0}
        explicit = tmp_path / "scenario_e2_small_churn_none.json"
        explicit.write_text(json.dumps(document))
        golden = (GOLDEN / "e2_small_table.txt").read_text()
        for spec in (committed, explicit):
            assert main(["scenario", "run", str(spec)]) == 0
            assert capsys.readouterr().out == golden, spec.name

    def test_committed_benign_example_runs(self, capsys):
        # The first-contact example in SCENARIOS.md must keep working.
        code = main(["scenario", "run", str(EXAMPLES / "scenario_benign_congest.json")])
        assert code == 0
        out = capsys.readouterr().out
        assert "benign-congest-n64" in out
        assert out.count("1.000") >= 3  # every seed decides and passes

    def test_scenario_run_malformed_json_exits_cleanly(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["scenario", "run", str(path)]) == 2
        assert "invalid scenario spec" in capsys.readouterr().out

    def test_scenario_run_missing_component_name_exits_cleanly(self, capsys, tmp_path):
        path = tmp_path / "noname.json"
        path.write_text(
            json.dumps(
                {
                    "graph": {"params": {"n": 8}},
                    "adversary": "silent",
                    "placement": "random",
                    "protocol": "congest",
                }
            )
        )
        assert main(["scenario", "run", str(path)]) == 2
        assert "missing 'name'" in capsys.readouterr().out

    def test_scenario_run_single_scenario_spec(self, capsys, tmp_path):
        spec = {
            "name": "tiny",
            "graph": {"name": "hnd", "params": {"n": 32, "degree": 4}},
            "adversary": "silent",
            "placement": {"name": "random", "params": {"count": 0}},
            "protocol": {"name": "congest", "params": {"d": 4}},
            "seeds": [0, 1],
        }
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(spec))
        assert main(["scenario", "run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "tiny" in out and "decided_fraction" in out

    def test_scenario_run_caches_artifacts(self, capsys, tmp_path):
        spec_path = tmp_path / "tiny.json"
        spec_path.write_text(
            json.dumps(
                {
                    "graph": {"name": "hnd", "params": {"n": 32, "degree": 4}},
                    "adversary": "silent",
                    "placement": {"name": "random", "params": {"count": 0}},
                    "protocol": {"name": "congest", "params": {"d": 4}},
                    "seeds": [0],
                }
            )
        )
        cache = tmp_path / "artifacts"
        assert main(["scenario", "run", str(spec_path), "--artifact-dir", str(cache)]) == 0
        assert "0 cached, 1 executed" in capsys.readouterr().out
        assert main(["scenario", "run", str(spec_path), "--artifact-dir", str(cache)]) == 0
        assert "1 cached, 0 executed" in capsys.readouterr().out

    def test_scenario_run_invalid_spec_exits_cleanly(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "graph": "nope",
                    "adversary": "silent",
                    "placement": "random",
                    "protocol": "congest",
                }
            )
        )
        assert main(["scenario", "run", str(path)]) == 2
        out = capsys.readouterr().out
        assert "invalid scenario spec" in out and "hnd" in out

    def test_scenario_list_enumerates_registries(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for registry in all_registries().values():
            for name in registry.names():
                assert name in out

    def test_help_epilog_lists_components(self):
        from repro.cli import build_parser

        help_text = build_parser().format_help()
        assert "registered scenario components" in help_text
        assert "beacon-flood" in help_text and "hnd" in help_text


class TestMaterialize:
    def test_cli_equivalent_scenario_runs(self):
        scenario = Scenario(
            graph=ComponentSpec("hnd", {"n": 64, "degree": 8}),
            adversary=ComponentSpec("beacon-flood"),
            placement=ComponentSpec("spread", {"count": 2}),
            protocol=ComponentSpec("congest", {"gamma": 0.5, "max_rounds": 400}),
            seeds=(1,),
        )
        cell = materialize(scenario, 1)
        assert cell.graph.n == 64
        assert len(cell.byzantine) == 2
        assert cell.metrics["decided_fraction"] > 0.0
        assert cell.metrics["check_passed"] is None

    def test_unknown_evaluation_kind_rejected(self):
        scenario = Scenario(
            graph=ComponentSpec("hnd", {"n": 16, "degree": 4}),
            adversary=ComponentSpec("silent"),
            placement=ComponentSpec("random", {"count": 0}),
            protocol=ComponentSpec("congest", {"d": 4}),
            params={"evaluation": {"kind": "mystery"}},
        )
        with pytest.raises(ValueError, match="unknown evaluation kind"):
            materialize(scenario, 0)

    def test_unknown_check_rejected(self):
        scenario = Scenario(
            graph=ComponentSpec("hnd", {"n": 16, "degree": 4}),
            adversary=ComponentSpec("silent"),
            placement=ComponentSpec("random", {"count": 0}),
            protocol=ComponentSpec("congest", {"d": 4}),
            params={"check": {"name": "theorem99"}},
        )
        with pytest.raises(ValueError, match="unknown check"):
            materialize(scenario, 0)
