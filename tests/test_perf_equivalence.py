"""Regression locks for the incremental-hot-path refactor.

``tests/golden/*.txt`` were rendered by the pre-refactor implementation
(PR 1); the refactored engine/protocol stack must reproduce them *byte for
byte* -- the optimization contract is "same tables, less time".  Also locks
the incremental delta-message size accounting against the documented
``estimate_payload_bits`` recursion and the geometric phase-schedule
extension against a brute-force reference.
"""

import random
from pathlib import Path

from repro.core.congest_counting import PhaseSchedule
from repro.core.local_counting import LocalCountingProtocol
from repro.core.parameters import CongestParameters, LocalParameters
from repro.experiments import (
    e2_congest_theorem2,
    e3_benign,
    e7_baselines,
    e8_blacklist_ablation,
    e9_adversary_grid,
    e10_message_size,
    e11_estimate_distribution,
    e12_scaling,
)
from repro.simulator.messages import estimate_payload_bits
from repro.simulator.node import NodeContext

GOLDEN = Path(__file__).parent / "golden"


class TestGoldenTables:
    """Byte-identical table regressions.

    The E2/E12 goldens were rendered by the PR 1 implementation, the E3/E9
    goldens by the PR 2 implementation (before the drivers were re-expressed
    as declarative scenarios), the E7 golden before the baselines lost their
    second run layer, and the E8/E10/E11 goldens before those drivers moved
    onto scenario cells; every later refactor must reproduce all eight byte
    for byte.
    """

    def test_e2_table_byte_identical(self):
        result = e2_congest_theorem2.run_experiment(sizes=(64, 128), trials=1, seed=0)
        assert result.render() + "\n" == (GOLDEN / "e2_small_table.txt").read_text()

    def test_e3_table_byte_identical(self):
        result = e3_benign.run_experiment(sizes=(64, 128), trials=1, seed=0)
        assert result.render() + "\n" == (GOLDEN / "e3_small_table.txt").read_text()

    def test_e7_table_byte_identical(self):
        # The support-estimation rows under attack ("-" median, decided
        # 0.000) pin E7's finite-only statistics: a decided ``inf`` estimate
        # counts as no estimate.
        result = e7_baselines.run_experiment(n=64, byzantine_counts=(0, 1, 4), seed=0)
        assert result.render() + "\n" == (GOLDEN / "e7_small_table.txt").read_text()

    def test_e8_table_byte_identical(self):
        result = e8_blacklist_ablation.run_experiment(
            sizes=(64,), trials=1, num_byzantine=2
        )
        assert result.render() + "\n" == (GOLDEN / "e8_small_table.txt").read_text()

    def test_e9_table_byte_identical(self):
        result = e9_adversary_grid.run_experiment(
            n=64, placements=("random",), congest_byzantine=2
        )
        assert result.render() + "\n" == (GOLDEN / "e9_small_table.txt").read_text()

    def test_e10_table_byte_identical(self):
        result = e10_message_size.run_experiment(sizes=(64, 128))
        assert result.render() + "\n" == (GOLDEN / "e10_small_table.txt").read_text()

    def test_e11_table_byte_identical(self):
        result = e11_estimate_distribution.run_experiment(sizes=(64, 128), trials=2)
        assert result.render() + "\n" == (GOLDEN / "e11_small_table.txt").read_text()

    def test_e12_table_byte_identical(self):
        result = e12_scaling.run_experiment(
            local_sizes=(64, 128), congest_sizes=(64,), congest_byzantine_counts=(1, 2), seed=0
        )
        assert result.render() + "\n" == (GOLDEN / "e12_small_table.txt").read_text()


class TestDeltaSizeAccounting:
    """The accumulated size_bits equals estimate_payload_bits over the payload."""

    def _protocol(self, neighbors=(101, 102, 103)):
        ctx = NodeContext(
            index=0,
            node_id=100,
            neighbors=tuple(range(1, len(neighbors) + 1)),
            neighbor_ids=dict(enumerate(neighbors, start=1)),
            rng=random.Random(0),
            round=0,
        )
        return LocalCountingProtocol(ctx, LocalParameters(max_degree=8))

    def test_initial_delta_matches_documented_accounting(self):
        protocol = self._protocol()
        message = protocol._delta_message()
        assert message.size_bits == estimate_payload_bits(message.payload)
        edges, vertices = message.payload
        assert message.num_ids == sum(1 + len(e) for _, e in edges) + len(vertices)

    def test_random_deltas_match_documented_accounting(self):
        rng = random.Random(7)
        for _ in range(30):
            protocol = self._protocol()
            protocol._delta_message()  # drain the initial delta
            for _ in range(rng.randrange(1, 4)):
                entries = [
                    (
                        rng.randrange(0, 1 << rng.randrange(1, 40)),
                        tuple(
                            sorted(
                                rng.randrange(0, 1 << rng.randrange(1, 40))
                                for _ in range(rng.randrange(0, 5))
                            )
                        ),
                    )
                    for _ in range(rng.randrange(0, 4))
                ]
                vertices = [
                    rng.randrange(0, 1 << rng.randrange(1, 40))
                    for _ in range(rng.randrange(0, 5))
                ]
                protocol.view.integrate(entries, vertices, max_degree=8)
            message = protocol._delta_message()
            assert message.size_bits == estimate_payload_bits(message.payload)
            edges, vertices = message.payload
            assert message.num_ids == sum(1 + len(e) for _, e in edges) + len(vertices)

    def test_zero_valued_ids_cost_one_bit(self):
        protocol = self._protocol()
        protocol._delta_message()
        protocol.view.integrate([(0, (1,))], [0, 2], max_degree=8)
        message = protocol._delta_message()
        assert message.payload == (((0, (1,)),), (0, 1, 2))
        assert message.size_bits == estimate_payload_bits(message.payload)


class TestGeometricSchedule:
    """The geometrically extending schedule equals the brute-force reference."""

    @staticmethod
    def _reference_positions(params, max_round):
        positions = {}
        round_number = 1
        phase = params.first_phase
        while round_number <= max_round:
            rpi = params.rounds_per_iteration(phase)
            for iteration in range(1, params.iterations_in_phase(phase) + 1):
                for step in range(1, rpi + 1):
                    positions[round_number] = (phase, iteration, step)
                    round_number += 1
            phase += 1
        return positions

    def test_locate_matches_reference_sequentially(self):
        params = CongestParameters()
        schedule = PhaseSchedule(params)
        reference = self._reference_positions(params, 600)
        for r in range(1, 601):
            position = schedule.locate(r)
            assert (position.phase, position.iteration, position.step) == reference[r]

    def test_locate_matches_reference_random_access(self):
        params = CongestParameters()
        schedule = PhaseSchedule(params)
        reference = self._reference_positions(params, 2000)
        rng = random.Random(3)
        rounds = [rng.randrange(1, 2001) for _ in range(200)]
        for r in rounds:
            position = schedule.locate(r)
            assert (position.phase, position.iteration, position.step) == reference[r]

    def test_phase_start_round_consistent_with_locate(self):
        params = CongestParameters()
        schedule = PhaseSchedule(params)
        for phase in range(params.first_phase, params.first_phase + 8):
            start = schedule.phase_start_round(phase)
            position = schedule.locate(start)
            assert (position.phase, position.iteration, position.step) == (phase, 1, 1)
            end = schedule.end_of_phase_round(phase)
            last = schedule.locate(end)
            assert last.phase == phase
            assert last.step == params.rounds_per_iteration(phase)

    def test_extension_is_geometric(self):
        params = CongestParameters()
        schedule = PhaseSchedule(params)
        schedule.locate(1)
        covered_after_first = schedule._phase_end(schedule._phase_starts[-1])
        schedule.locate(covered_after_first + 1)
        covered_after_second = schedule._phase_end(schedule._phase_starts[-1])
        # One lookup past the horizon at least doubles the covered rounds.
        assert covered_after_second >= 2 * covered_after_first
