"""Tests for the trust manager (Procedure 2) and the recommendation graph."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, UnknownRaterError
from repro.trust.manager import TrustManager, TrustManagerConfig
from repro.trust.propagation import SYSTEM_NODE, RecommendationGraph
from repro.trust.entropy_trust import entropy_trust


class TestTrustManagerConfig:
    def test_defaults_match_paper(self):
        config = TrustManagerConfig()
        assert config.badness_weight == 1.0
        assert config.detection_threshold == 0.5

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigurationError):
            TrustManagerConfig(badness_weight=-1.0)
        with pytest.raises(ConfigurationError):
            TrustManagerConfig(detection_threshold=1.5)
        with pytest.raises(ConfigurationError):
            TrustManagerConfig(forgetting_factor=2.0)
        with pytest.raises(ConfigurationError):
            TrustManagerConfig(indirect_weight=-0.1)


class TestProcedure2:
    def test_unseen_rater_sits_at_prior(self):
        assert TrustManager().trust(99) == 0.5

    def test_clean_ratings_raise_trust(self):
        manager = TrustManager()
        manager.observations.record_provided(1, count=5)
        manager.update()
        assert manager.trust(1) == pytest.approx(6.0 / 7.0)

    def test_filtered_ratings_lower_trust(self):
        manager = TrustManager()
        manager.observations.record_provided(1, count=2)
        manager.observations.record_filtered(1, count=2)
        manager.update()
        # S += 2 - 2 = 0, F += 2 -> trust (0+1)/(0+2+2).
        assert manager.trust(1) == pytest.approx(0.25)

    def test_suspicious_ratings_count_against_success(self):
        manager = TrustManager()
        manager.observations.record_provided(1, count=3)
        manager.observations.record_suspicious(1, count=3)
        manager.update()
        # S += 0, F += 0 (no suspicion value): trust stays neutral.
        assert manager.trust(1) == 0.5

    def test_suspicion_value_feeds_failures(self):
        manager = TrustManager(TrustManagerConfig(badness_weight=2.0))
        manager.observations.record_provided(1, count=1)
        manager.observations.record_suspicious(1, count=1)
        manager.observations.record_suspicion_value(1, 0.5)
        manager.update()
        # S += 0, F += b * 0.5 = 1.0.
        assert manager.trust(1) == pytest.approx(1.0 / 3.0)

    def test_evidence_accumulates_across_updates(self):
        manager = TrustManager()
        for _ in range(3):
            manager.observations.record_provided(1, count=2)
            manager.update()
        assert manager.trust(1) == pytest.approx(7.0 / 8.0)

    def test_forgetting_factor_applied_each_update(self):
        manager = TrustManager(TrustManagerConfig(forgetting_factor=0.5))
        manager.observations.record_provided(1, count=8)
        manager.update()
        trust_before = manager.trust(1)
        manager.update()  # no new evidence; S halves
        assert manager.trust(1) < trust_before

    def test_update_returns_only_the_raters_it_changed(self):
        manager = TrustManager()
        manager.observations.record_provided(1, count=2)
        manager.observations.record_provided(2, count=1)
        assert manager.update() == {1: 0.75, 2: 2.0 / 3.0}
        manager.observations.record_provided(3, count=1)
        manager.observations.record_suspicious(2, count=0)
        assert manager.update() == {2: 2.0 / 3.0, 3: 2.0 / 3.0}
        assert manager.update() == {}
        assert manager.trust_table() == {1: 0.75, 2: 2.0 / 3.0, 3: 2.0 / 3.0}

    def test_update_under_forgetting_returns_every_rater(self):
        manager = TrustManager(TrustManagerConfig(forgetting_factor=0.5))
        manager.observations.record_provided(1, count=8)
        manager.observations.record_provided(2, count=2)
        manager.update()
        manager.observations.record_provided(2, count=1)
        changed = manager.update()  # rater 1 has no news but decays
        assert set(changed) == {1, 2}
        assert changed == manager.trust_table()

    def test_record_unknown_rater_raises(self):
        with pytest.raises(UnknownRaterError):
            TrustManager().record(7)

    def test_trust_table(self):
        manager = TrustManager()
        manager.register_raters([1, 2])
        table = manager.trust_table()
        assert table == {1: 0.5, 2: 0.5}

    def test_n_updates(self):
        manager = TrustManager()
        assert manager.n_updates == 0
        manager.update()
        assert manager.n_updates == 1


class TestMaliciousDetection:
    def test_low_trust_raters_flagged(self):
        manager = TrustManager()
        manager.observations.record_provided(1, count=4)
        manager.observations.record_filtered(1, count=4)
        manager.observations.record_provided(2, count=4)
        manager.update()
        assert manager.detected_malicious() == [1]

    def test_threshold_configurable(self):
        manager = TrustManager(TrustManagerConfig(detection_threshold=0.9))
        manager.register_rater(1)
        manager.update()
        assert manager.detected_malicious() == [1]


class TestRecommendationGraph:
    def test_direct_path(self):
        graph = RecommendationGraph()
        graph.set_system_trust(1, 0.9)
        assert graph.indirect_trust(1) == pytest.approx(entropy_trust(0.9))

    def test_two_hop_concatenation(self):
        graph = RecommendationGraph()
        graph.set_system_trust(1, 0.9)
        graph.add_recommendation(1, 2, 0.9)
        expected = entropy_trust(0.9) * entropy_trust(0.9)
        assert graph.indirect_trust(2) == pytest.approx(expected)

    def test_unknown_target_is_uninformative(self):
        assert RecommendationGraph().indirect_trust(42) == 0.0

    def test_multipath_fusion(self):
        graph = RecommendationGraph()
        graph.set_system_trust(1, 0.95)
        graph.set_system_trust(2, 0.95)
        graph.add_recommendation(1, 3, 0.9)
        graph.add_recommendation(2, 3, 0.5)
        trust = graph.indirect_trust(3)
        # Fused between the strong and the uninformative path.
        assert 0.0 < trust < entropy_trust(0.9)

    def test_path_length_cap(self):
        graph = RecommendationGraph(max_path_length=2)
        graph.set_system_trust(1, 0.9)
        graph.add_recommendation(1, 2, 0.9)
        graph.add_recommendation(2, 3, 0.9)
        assert graph.indirect_trust(3) == 0.0  # needs 3 hops

    def test_self_recommendation_rejected(self):
        with pytest.raises(ConfigurationError):
            RecommendationGraph().add_recommendation(1, 1, 0.5)

    def test_invalid_probability_rejected(self):
        with pytest.raises(ConfigurationError):
            RecommendationGraph().set_system_trust(1, 1.5)


class TestIndirectBlend:
    def test_blend_disabled_by_default(self):
        manager = TrustManager()
        manager.register_rater(1)
        graph = manager.build_recommendation_graph()
        assert manager.blended_trust(1, graph) == manager.trust(1)

    def test_blend_moves_toward_indirect(self):
        manager = TrustManager(TrustManagerConfig(indirect_weight=0.5))
        manager.observations.record_provided(1, count=8)  # direct ~0.9
        manager.update()
        manager.recommendations.record(1, 2, 0.95)
        graph = manager.build_recommendation_graph()
        blended = manager.blended_trust(2, graph)
        assert blended != manager.trust(2)
        assert 0.5 <= blended <= 1.0

    def test_graph_drains_recommendation_buffer(self):
        manager = TrustManager()
        manager.register_rater(1)
        manager.recommendations.record(1, 2, 0.9)
        manager.build_recommendation_graph()
        assert len(manager.recommendations) == 0
