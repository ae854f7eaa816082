"""BenOr's per-phase tally against a naive oracle.

``BenOrProtocol._tally`` counts the run's shared honest payloads by
identity and validates every other payload as sent.  The oracle below is
the tally that validates every message; on inboxes that mix shared honest
messages with Byzantine shapes (lists, tuple subclasses, bool and float
values, wrong tag or phase, other message kinds, unhashable members, honest
payload objects under another kind) both must count exactly alike.
"""

from typing import Dict, List

from hypothesis import given, settings, strategies as st

from repro.protocols.benor import BenOrProtocol
from repro.simulator.messages import DeliveredMessage, Message

TAGS = ("R1", "R2")
PHASES = (1, 2, 3)


def oracle_tally(inbox: List[Message], tag: str, phase: int) -> Dict[int, int]:
    counts = {0: 0, 1: 0}
    for message in inbox:
        if message.kind != "benor":
            continue
        payload = message.payload
        if (
            isinstance(payload, tuple)
            and len(payload) == 3
            and payload[0] == tag
            and payload[1] == phase
            and payload[2] in (0, 1)
        ):
            counts[payload[2]] += 1
    return counts


class Sneaky(tuple):
    """A tuple subclass a Byzantine sender may forge."""


class LongLen(tuple):
    """A tuple subclass that misreports its length."""

    def __len__(self):
        return 3


def _node(table):
    node = BenOrProtocol.__new__(BenOrProtocol)
    node._messages = table
    return node


honest_keys = st.tuples(st.sampled_from(TAGS), st.sampled_from(PHASES), st.sampled_from((0, 1, "?")))
values = st.sampled_from((0, 1, 2, -1, True, False, 0.0, 1.0, 0.5, "0", None, "?"))
tags = st.sampled_from(TAGS + ("R3", "", None))
phases = st.one_of(st.sampled_from(PHASES), st.sampled_from((0, 1.0, 2.0, "1", True)))
byzantine_payloads = st.one_of(
    st.tuples(tags, phases, values),
    st.builds(lambda t, p, v: [t, p, v], tags, phases, values),
    st.builds(lambda t, p, v: Sneaky((t, p, v)), tags, phases, values),
    st.builds(lambda t, p, v: LongLen((t, p, v, "extra")), tags, phases, values),
    st.tuples(tags, phases, st.just([0])),
    st.tuples(tags, st.just({"phase": 1}), values),
    st.tuples(tags, phases),
    st.tuples(tags, phases, values, values),
    st.sampled_from((None, 0, 1, "R1", ("R1",), {"tag": "R1"})),
)
kinds = st.sampled_from(("benor", "benor", "other", "Benor", ""))


@st.composite
def inboxes(draw):
    table: Dict = {}
    node = _node(table)
    shared = [node._message(*key) for key in draw(st.lists(honest_keys, max_size=6))]
    inbox: List[Message] = []
    for sender in range(draw(st.integers(0, 14))):
        shape = draw(st.sampled_from(("honest", "honest", "forged", "relabelled")))
        if shape == "honest" and shared:
            template = draw(st.sampled_from(shared))
        elif shape == "relabelled" and shared:
            # An honest payload object under a kind of the sender's choice.
            template = Message(draw(kinds), payload=draw(st.sampled_from(shared)).payload)
        else:
            template = Message(draw(kinds), payload=draw(byzantine_payloads))
        inbox.append(DeliveredMessage(template, sender, sender))
    return table, inbox


class TestTallyOracle:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(inboxes(), st.sampled_from(TAGS), st.sampled_from(PHASES))
    def test_counts_match_the_per_message_tally(self, drawn, tag, phase):
        table, inbox = drawn
        assert _node(table)._tally(inbox, tag, phase) == oracle_tally(inbox, tag, phase)

    def test_honest_payload_under_another_kind_is_not_counted(self):
        table: Dict = {}
        node = _node(table)
        honest = node._message("R1", 1, 1)
        inbox = [
            DeliveredMessage(honest, 0, 0),
            DeliveredMessage(Message("other", payload=honest.payload), 1, 1),
            DeliveredMessage(Message("benor", payload=("R1", 1, True)), 2, 2),
        ]
        assert node._tally(inbox, "R1", 1) == {0: 0, 1: 2}
