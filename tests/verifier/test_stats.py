"""Unit tests for the latency histogram behind the daemon's ``metrics`` op
and the portfolio counters behind its ``stats`` and ``metrics`` ops."""

from __future__ import annotations

import json

import pytest

from repro.logic.terms import term_stats
from repro.provers.result import PortfolioStatistics
from repro.verifier.stats import LATENCY_BUCKETS, LatencyHistogram

#: The ``counters`` keys the daemon's ``stats`` and ``metrics`` ops ship.
COUNTER_KEYS = {
    "terms_allocated",
    "terms_interned",
    "intern_hit_rate",
    "proof_cache_hits",
    "proof_cache_hits_memory",
    "proof_cache_hits_disk",
    "proof_cache_misses",
    "proof_cache_hit_rate",
    "sequents_attempted",
    "sequents_proved",
}


class TestLatencyHistogram:
    def test_bands_and_summary(self):
        histogram = LatencyHistogram()
        histogram.add(0.005)   # first band
        histogram.add(0.05)    # <= 0.1
        histogram.add(2.0)     # <= 3
        histogram.add(1000.0)  # overflow
        payload = histogram.as_dict()
        assert payload["count"] == 4
        assert payload["max"] == 1000.0
        assert payload["buckets"][-1] == ["inf", 1]
        by_bound = dict(tuple(pair) for pair in payload["buckets"][:-1])
        assert by_bound[0.01] == 1
        assert by_bound[0.1] == 1
        assert by_bound[3.0] == 1
        assert sum(count for _, count in payload["buckets"]) == 4

    def test_mean_tracks_total(self):
        histogram = LatencyHistogram()
        for value in (1.0, 2.0, 3.0):
            histogram.add(value)
        assert histogram.mean == 2.0

    def test_bucket_bounds_are_sorted(self):
        assert list(LATENCY_BUCKETS) == sorted(LATENCY_BUCKETS)

    def test_empty_histogram_summary_is_zero(self):
        payload = LatencyHistogram().as_dict()
        assert payload["count"] == 0
        assert payload["mean"] == payload["max"] == 0.0
        assert payload["p50"] == payload["p95"] == payload["p99"] == 0.0
        assert len(payload["buckets"]) == len(LATENCY_BUCKETS) + 1
        assert all(count == 0 for _, count in payload["buckets"])

    def test_sample_on_a_bound_falls_in_the_lower_band(self):
        histogram = LatencyHistogram()
        histogram.add(LATENCY_BUCKETS[0])
        histogram.add(LATENCY_BUCKETS[-1])
        assert histogram.counts[0] == 1
        assert histogram.counts[len(LATENCY_BUCKETS) - 1] == 1
        assert histogram.counts[-1] == 0

    def test_percentile_interpolates_inside_the_band(self):
        histogram = LatencyHistogram()
        for _ in range(4):
            histogram.add(0.2)  # all in (0.1, 0.3]
        # Linear across the band's width, clamped to the largest sample.
        assert histogram.percentile(0.5) == pytest.approx(0.2)
        assert histogram.percentile(0.25) == pytest.approx(0.15)

    def test_percentile_never_exceeds_the_peak(self):
        histogram = LatencyHistogram()
        histogram.add(1.1)  # band (1, 3]
        assert histogram.percentile(0.99) == pytest.approx(1.1)
        assert histogram.percentile(1.0) <= histogram.peak

    def test_overflow_percentile_is_the_peak(self):
        histogram = LatencyHistogram()
        histogram.add(0.005)
        histogram.add(120.0)
        assert histogram.percentile(1.0) == 120.0
        assert histogram.percentile(0.5) <= LATENCY_BUCKETS[0]

    def test_percentiles_are_monotone(self):
        histogram = LatencyHistogram()
        for value in (0.002, 0.02, 0.2, 0.5, 2.0, 5.0, 20.0, 50.0):
            histogram.add(value)
        quantiles = [histogram.percentile(q) for q in (0.1, 0.5, 0.9, 0.95, 0.99)]
        assert quantiles == sorted(quantiles)

    def test_as_dict_is_json_ready(self):
        histogram = LatencyHistogram()
        histogram.add(0.123456789)
        payload = histogram.as_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["mean"] == round(0.123456789, 6)


class TestPortfolioCounters:
    def test_rates_are_zero_without_traffic(self):
        statistics = PortfolioStatistics()
        assert statistics.cache_hit_rate == 0.0
        assert statistics.cache_hits_memory == 0
        payload = statistics.as_dict()
        assert payload["proof_cache_hit_rate"] == 0.0
        assert payload["sequents_attempted"] == payload["sequents_proved"] == 0

    def test_derived_counters(self):
        statistics = PortfolioStatistics(
            cache_hits=6, cache_misses=2, cache_hits_disk=4
        )
        assert statistics.cache_hit_rate == pytest.approx(0.75)
        assert statistics.cache_hits_memory == 2
        assert statistics.cache_lookups == 8

    def test_as_dict_carries_every_counter_and_rate(self):
        statistics = PortfolioStatistics(
            sequents_attempted=10,
            sequents_proved=9,
            cache_hits=7,
            cache_misses=3,
            cache_hits_disk=5,
        )
        payload = statistics.as_dict()
        assert set(payload) == COUNTER_KEYS
        assert json.loads(json.dumps(payload)) == payload
        assert payload["proof_cache_hits"] == 7
        assert payload["proof_cache_misses"] == 3
        assert payload["proof_cache_hits_disk"] == 5
        assert payload["proof_cache_hits_memory"] == 2
        assert payload["proof_cache_hit_rate"] == pytest.approx(0.7)
        assert payload["sequents_attempted"] == 10
        assert payload["sequents_proved"] == 9

    def test_term_counters_come_from_the_kernel(self):
        before = term_stats()
        payload = PortfolioStatistics().as_dict()
        after = term_stats()
        assert before.allocated <= payload["terms_allocated"] <= after.allocated
        assert before.interned_hits <= payload["terms_interned"] <= after.interned_hits
        total = payload["terms_allocated"] + payload["terms_interned"]
        expected = payload["terms_interned"] / total if total else 0.0
        assert payload["intern_hit_rate"] == pytest.approx(expected)
