"""Tests for trust records, beta trust, and record maintenance."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.trust.records import RecordMaintenance, TrustRecord, beta_trust


class TestBetaTrust:
    def test_neutral_prior(self):
        assert beta_trust(0, 0) == 0.5

    def test_all_successes(self):
        assert beta_trust(8, 0) == pytest.approx(0.9)

    def test_all_failures(self):
        assert beta_trust(0, 8) == pytest.approx(0.1)

    def test_monotone_in_successes(self):
        assert beta_trust(5, 2) < beta_trust(6, 2)

    def test_monotone_in_failures(self):
        assert beta_trust(5, 2) > beta_trust(5, 3)

    def test_fractional_evidence_allowed(self):
        assert 0.0 < beta_trust(0.5, 1.7) < 0.5

    def test_negative_evidence_rejected(self):
        with pytest.raises(ConfigurationError):
            beta_trust(-1, 0)

    def test_bounded(self):
        assert 0.0 < beta_trust(1e9, 0) < 1.0
        assert 0.0 < beta_trust(0, 1e9) < 1.0


class TestTrustRecord:
    def test_initial_trust_is_neutral(self):
        assert TrustRecord(rater_id=0).trust == 0.5

    def test_add_evidence(self):
        record = TrustRecord(rater_id=0)
        record.add_evidence(successes=3, failures=1)
        assert record.trust == pytest.approx(4.0 / 6.0)

    def test_evidence_clipped_at_zero(self):
        record = TrustRecord(rater_id=0, successes=1.0)
        record.add_evidence(successes=-5.0, failures=0.0)
        assert record.successes == 0.0

    def test_forgetting_discounts(self):
        record = TrustRecord(rater_id=0, successes=10.0, failures=2.0)
        record.forget(0.5)
        assert record.successes == 5.0
        assert record.failures == 1.0

    def test_forgetting_moves_trust_toward_neutral(self):
        record = TrustRecord(rater_id=0, successes=100.0)
        before = record.trust
        record.forget(0.1)
        assert 0.5 < record.trust < before

    def test_invalid_forgetting_factor(self):
        with pytest.raises(ConfigurationError):
            TrustRecord(rater_id=0).forget(1.5)


class TestRecordMaintenance:
    def test_new_record_neutral_by_default(self):
        record = RecordMaintenance().new_record(3)
        assert record.trust == 0.5
        assert record.rater_id == 3

    def test_initial_evidence(self):
        maintenance = RecordMaintenance(initial_successes=2.0)
        assert maintenance.new_record(0).trust == pytest.approx(0.75)

    def test_forgetting_applied_to_all(self):
        maintenance = RecordMaintenance(forgetting_factor=0.5)
        records = {
            0: TrustRecord(rater_id=0, successes=4.0),
            1: TrustRecord(rater_id=1, failures=4.0),
        }
        maintenance.apply_forgetting(records)
        assert records[0].successes == 2.0
        assert records[1].failures == 2.0

    def test_no_forgetting_is_noop(self):
        maintenance = RecordMaintenance(forgetting_factor=1.0)
        records = {0: TrustRecord(rater_id=0, successes=4.0)}
        maintenance.apply_forgetting(records)
        assert records[0].successes == 4.0

    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            RecordMaintenance(forgetting_factor=1.2)
        with pytest.raises(ConfigurationError):
            RecordMaintenance(initial_successes=-1.0)
