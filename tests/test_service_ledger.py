"""Property tests for the trust ledger (digest application + dedup).

Both serving tiers apply flush digests through one ``TrustLedger``: the
in-process engine hands it Python dicts with int keys, the cluster
coordinator hands it digests that crossed the JSON framing (string
keys).  These properties pin that the two routes are the same
computation bit for bit, that a redelivered digest is a no-op, and
that the snapshot state survives a JSON round trip exactly.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.config import ServiceConfig
from repro.service.ledger import TrustLedger

raters = st.integers(min_value=0, max_value=15)
counts = st.dictionaries(raters, st.integers(min_value=0, max_value=6), max_size=6)
masses = st.dictionaries(
    raters,
    st.floats(min_value=0.0, max_value=4.0, allow_nan=False, allow_infinity=False),
    max_size=6,
)


@st.composite
def digest_streams(draw):
    """A config plus ``(origin, digest, is_redelivery)`` events.

    Each origin numbers its digests 1, 2, 3, ...; a redelivery resends
    one of that origin's earlier digests verbatim, as a worker does
    when it replays its WAL after a crash.
    """
    config = ServiceConfig(
        trust_badness_weight=draw(st.sampled_from([0.5, 1.0, 2.0])),
        trust_forgetting_factor=draw(st.sampled_from([1.0, 0.9])),
    )
    sent = {0: [], 1: [], 2: []}
    events = []
    for _ in range(draw(st.integers(min_value=1, max_value=25))):
        origin = draw(st.integers(min_value=0, max_value=2))
        if sent[origin] and draw(st.booleans()):
            events.append((origin, draw(st.sampled_from(sent[origin])), True))
            continue
        digest = {
            "seq": len(sent[origin]) + 1,
            "provided": draw(counts),
            "suspicion": draw(masses),
            "flagged": draw(counts),
        }
        sent[origin].append(digest)
        events.append((origin, digest, False))
    return config, events


def over_the_wire(payload):
    return json.loads(json.dumps(payload, separators=(",", ":")))


def exact(state):
    """Text form that distinguishes every float bit pattern."""
    return json.dumps(state)


def replay(config, events, wire):
    ledger = TrustLedger(config)
    for origin, digest, _ in events:
        ledger.apply(over_the_wire(digest) if wire else digest, origin)
    return ledger


class TestTrustLedgerProperties:
    @settings(max_examples=60, deadline=None)
    @given(digest_streams())
    def test_wire_and_direct_application_agree(self, stream):
        config, events = stream
        direct = replay(config, events, wire=False)
        wired = replay(config, events, wire=True)
        assert direct.state_dict() == wired.state_dict()
        assert exact(direct.state_dict()) == exact(wired.state_dict())
        assert direct.trust_table() == wired.trust_table()

    @settings(max_examples=60, deadline=None)
    @given(digest_streams())
    def test_redelivered_digest_changes_nothing(self, stream):
        config, events = stream
        ledger = TrustLedger(config)
        for origin, digest, is_redelivery in events:
            before = exact(ledger.state_dict())
            new, table = ledger.apply(over_the_wire(digest), origin)
            assert new is not is_redelivery
            assert table == ledger.trust_table()
            if is_redelivery:
                assert exact(ledger.state_dict()) == before

    @settings(max_examples=60, deadline=None)
    @given(digest_streams(), st.integers(min_value=0, max_value=25))
    def test_state_round_trips_through_json(self, stream, cut):
        config, events = stream
        live = replay(config, events[:cut], wire=False)
        restored = TrustLedger(config)
        restored.load_state(over_the_wire(live.state_dict()))
        assert exact(restored.state_dict()) == exact(live.state_dict())
        assert restored.trust_table() == live.trust_table()
        # The restored dedup seqs keep admitting and refusing exactly
        # what the live ledger does.
        for origin, digest, _ in events[cut:]:
            assert restored.apply(digest, origin) == live.apply(digest, origin)
        assert exact(restored.state_dict()) == exact(live.state_dict())


def test_state_without_digest_seqs_loads():
    """Engine snapshots written before the ledger carry no dedup seqs."""
    ledger = TrustLedger(ServiceConfig())
    ledger.load_state(
        {
            "trust": {"3": {"successes": 2.0, "failures": 1.0}},
            "suspicion_totals": {"3": 0.25},
            "n_trust_updates": 4,
        }
    )
    assert ledger.trust_table() == {3: 0.6}
    assert ledger.suspicion_table() == {3: 0.25}
    assert ledger.counts() == (1, 4)
    assert ledger.apply(
        {"seq": 5, "provided": {}, "suspicion": {}, "flagged": {}}, 0
    )[0]
