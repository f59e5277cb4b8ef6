"""Property tests for the trust ledger (digest application + dedup).

Both serving tiers apply flush digests through one ``TrustLedger``: the
in-process engine hands it Python dicts with int keys, the cluster
coordinator hands it digests that crossed the JSON framing (string
keys).  These properties pin that the two routes are the same
computation bit for bit, that a redelivered digest is a no-op, that
the replies (only the trusts an origin's mirror lacks) keep every
origin's merged mirror equal to the full table, and that the snapshot
state survives a JSON round trip exactly.
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


PARTS = ("provided", "suspicion", "flagged")


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
            new, _ = ledger.apply(over_the_wire(digest), origin)
            assert new is not is_redelivery
            if is_redelivery:
                assert exact(ledger.state_dict()) == before

    @settings(max_examples=60, deadline=None)
    @given(digest_streams(), st.sets(st.integers(min_value=0, max_value=25)))
    def test_merged_replies_equal_the_full_table(self, stream, welcomes):
        """Each origin merges its replies into a mirror of its own (as
        a worker engine does); right after a reply that mirror equals
        the ledger's whole table.  A ``welcome`` at the drawn positions
        replaces the mirror, as on a worker (re)connect.

        The reply itself is the delta: the raters this digest named
        (every rater under forgetting) plus those other origins'
        digests named since this origin's last reply, or the whole
        table on an origin's first contact.
        """
        config, events = stream
        ledger = TrustLedger(config)
        mirrors, pending = {}, {}
        for position, (origin, digest, _) in enumerate(events):
            if position in welcomes:
                mirrors[origin] = ledger.welcome(origin)
                pending[origin] = set()
            new, changed = ledger.apply(over_the_wire(digest), origin)
            table = ledger.trust_table()
            named = set()
            if new and config.trust_forgetting_factor < 1.0:
                named = set(table)
            elif new:
                named = {int(rid) for part in PARTS for rid in digest[part]}
            for other, raters in pending.items():
                if other != origin:
                    raters |= named
            expected = pending.get(origin, set(table)) | named
            pending[origin] = set()
            assert set(changed) == expected
            mirror = mirrors.setdefault(origin, {})
            mirror.update({int(k): v for k, v in over_the_wire(changed).items()})
            assert mirror == table

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
        # what the live ledger does.  A restarted coordinator welcomes
        # every worker first, which leaves nothing pending anywhere.
        for origin in sent_origins(events):
            assert restored.welcome(origin) == live.welcome(origin)
        for origin, digest, _ in events[cut:]:
            assert restored.apply(digest, origin) == live.apply(digest, origin)
        assert exact(restored.state_dict()) == exact(live.state_dict())


def sent_origins(events):
    return sorted({origin for origin, _, _ in events})


def make_digest(seq, provided=(), flagged=()):
    return {
        "seq": seq,
        "provided": {rid: 2 for rid in provided},
        "suspicion": {},
        "flagged": {rid: 1 for rid in flagged},
    }


class TestTrustLedgerReplies:
    def test_reply_carries_own_changes_plus_other_origins_pending(self):
        ledger = TrustLedger(ServiceConfig())
        # An origin's first reply is the full table.
        assert ledger.apply(make_digest(1, provided=[1, 2]), 0) == (
            True,
            {1: 0.75, 2: 0.75},
        )
        assert set(ledger.apply(make_digest(1, provided=[3]), 1)[1]) == {1, 2, 3}
        # Origin 0 lacks only rater 3 (origin 1's) and its own rater 4.
        new, changed = ledger.apply(make_digest(2, provided=[4], flagged=[1]), 0)
        assert new and changed == {3: 0.75, 4: 0.75, 1: ledger.trust(1)}
        assert ledger.trust(1) < 0.75

    def test_redelivered_digest_replies_with_the_pending_set_only(self):
        ledger = TrustLedger(ServiceConfig())
        ledger.apply(make_digest(1, provided=[1]), 0)
        ledger.apply(make_digest(1, provided=[2]), 1)
        ledger.apply(make_digest(2, provided=[3, 4]), 0)
        # Origin 1's replayed seq 1 changes nothing; it is owed 3 and 4.
        assert ledger.apply(make_digest(1, provided=[2]), 1) == (
            False,
            {3: 0.75, 4: 0.75},
        )
        assert ledger.apply(make_digest(1, provided=[2]), 1) == (False, {})

    def test_welcome_sends_the_table_and_clears_the_pending_set(self):
        ledger = TrustLedger(ServiceConfig())
        ledger.apply(make_digest(1, provided=[1]), 0)
        ledger.apply(make_digest(1, provided=[2]), 1)
        ledger.apply(make_digest(2, provided=[3]), 0)
        assert ledger.welcome(1) == ledger.trust_table()
        assert ledger.apply(make_digest(2, provided=[2]), 1) == (True, {2: 5 / 6})

    def test_forgetting_replies_with_every_rater(self):
        ledger = TrustLedger(ServiceConfig(trust_forgetting_factor=0.9))
        ledger.apply(make_digest(1, provided=[1, 2]), 0)
        new, changed = ledger.apply(make_digest(2, provided=[3]), 0)
        assert new and set(changed) == {1, 2, 3}
        assert changed == ledger.trust_table()


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
