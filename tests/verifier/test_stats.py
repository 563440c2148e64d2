"""Unit tests for the latency histogram behind the daemon's ``metrics`` op
and the performance counters behind its ``stats`` op."""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from repro.verifier.stats import (
    LATENCY_BUCKETS,
    LatencyHistogram,
    PerformanceCounters,
    performance_counters,
)


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


class TestPerformanceCounters:
    def test_rates_are_zero_without_traffic(self):
        counters = PerformanceCounters()
        assert counters.intern_hit_rate == 0.0
        assert counters.proof_cache_hit_rate == 0.0
        assert counters.proof_cache_hits_memory == 0

    def test_derived_counters(self):
        counters = PerformanceCounters(
            terms_allocated=30,
            terms_interned=10,
            proof_cache_hits=6,
            proof_cache_misses=2,
            proof_cache_hits_disk=4,
        )
        assert counters.intern_hit_rate == pytest.approx(0.25)
        assert counters.proof_cache_hit_rate == pytest.approx(0.75)
        assert counters.proof_cache_hits_memory == 2

    def test_as_dict_carries_every_counter_and_rate(self):
        counters = PerformanceCounters(proof_cache_hits=3, proof_cache_misses=1)
        payload = counters.as_dict()
        assert json.loads(json.dumps(payload)) == payload
        for name in (
            "terms_allocated",
            "terms_interned",
            "proof_cache_hits",
            "proof_cache_hits_disk",
            "proof_cache_misses",
            "sequents_attempted",
            "sequents_proved",
        ):
            assert payload[name] == getattr(counters, name)
        assert payload["proof_cache_hits_memory"] == 3
        assert payload["proof_cache_hit_rate"] == pytest.approx(0.75)

    def test_collection_without_a_portfolio_has_term_counters_only(self):
        counters = performance_counters()
        assert counters.terms_allocated >= 0
        assert counters.proof_cache_hits == counters.proof_cache_misses == 0
        assert counters.sequents_attempted == 0

    def test_collection_copies_portfolio_statistics(self):
        portfolio = SimpleNamespace(
            statistics=SimpleNamespace(
                cache_hits=7,
                cache_misses=3,
                cache_hits_disk=5,
                sequents_attempted=10,
                sequents_proved=9,
            )
        )
        counters = performance_counters(portfolio)
        assert counters.proof_cache_hits == 7
        assert counters.proof_cache_misses == 3
        assert counters.proof_cache_hits_disk == 5
        assert counters.proof_cache_hits_memory == 2
        assert counters.sequents_attempted == 10
        assert counters.sequents_proved == 9
