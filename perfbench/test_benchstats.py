"""Tests for the benchmark's own statistics helpers (no program import)."""

import math

import pytest

from benchstats import (
    FailureCount,
    OpenLoopSchedule,
    Span,
    SpanRecorder,
    covered,
    latencies_with_failures,
    percentile,
    self_times,
    tail_level,
    tail_percentile,
)
from harness import class_summary


class TestTailPercentile:
    def test_highest_level_with_ten_beyond(self):
        assert tail_level(200) == 95.0
        assert tail_level(100) == 90.0
        assert tail_level(1000) == 99.0

    def test_short_runs_fall_back_to_the_median(self):
        assert tail_level(19) == 50.0
        assert tail_level(5) == 50.0
        assert tail_level(0) == 50.0
        q, value = tail_percentile([3.0, 1.0, 2.0])
        assert (q, value) == (50.0, 2.0)

    def test_twenty_samples_support_the_median_exactly(self):
        assert tail_level(20) == 50.0
        assert tail_level(21) == 52.0

    def test_value_interpolates_between_ranks(self):
        values = list(range(1, 101))  # 1..100
        q, value = tail_percentile(values)
        assert q == 90.0
        assert value == pytest.approx(percentile(values, 90.0))
        assert value == pytest.approx(90.1)

    def test_empty_sample(self):
        q, value = tail_percentile([])
        assert q == 50.0 and math.isnan(value)


class TestSelfTime:
    def test_overlapping_children_are_subtracted_once(self):
        spans = [
            Span("parent", 0.0, 10.0, 1, None, "r"),
            Span("a", 1.0, 4.0, 2, 1, "r"),
            Span("b", 3.0, 6.0, 3, 1, "r"),  # overlaps a by 1
            Span("c", 8.0, 12.0, 4, 1, "r"),  # outlives the parent by 2
        ]
        own = self_times(spans)
        assert own[1] == pytest.approx(10.0 - (5.0 + 2.0))
        assert own[2] == pytest.approx(3.0)
        assert own[4] == pytest.approx(4.0)

    def test_covered_ignores_parts_outside_the_interval(self):
        assert covered((0.0, 1.0), [(2.0, 3.0), (-2.0, -1.0)]) == 0.0
        assert covered((0.0, 4.0), [(1.0, 2.0), (1.5, 3.0)]) == pytest.approx(2.0)

    def test_recorder_nests_and_inherits_the_request_id(self):
        rec = SpanRecorder()
        with rec.span("outer", request_id="req-1"):
            with rec.span("inner"):
                pass
        inner, outer = rec.spans  # inner closes first
        assert inner.parent == outer.span_id
        assert inner.request_id == outer.request_id == "req-1"
        assert rec.self_ms("outer")[0] <= outer.duration * 1000.0


class TestOpenLoop:
    def test_due_times_follow_the_rate(self):
        schedule = OpenLoopSchedule(rate=10.0, n_requests=3, start=100.0)
        assert [schedule.due(i) for i in range(3)] == pytest.approx([100.0, 100.1, 100.2])
        assert [schedule.claim() for _ in range(4)] == [0, 1, 2, None]

    def test_latency_counts_from_the_due_time_including_lateness(self):
        schedule = OpenLoopSchedule(rate=10.0, n_requests=2, start=0.0)
        schedule.record(0, sent=0.0, done=0.05)
        # Request 1 was due at 0.1 but only sent at 0.3 (the generator was
        # stalled); its 0.05 s service time is charged 0.2 s of waiting.
        schedule.record(1, sent=0.3, done=0.35)
        assert schedule.latency(0) == pytest.approx(0.05)
        assert schedule.latency(1) == pytest.approx(0.25)
        assert sorted(schedule.lateness()) == pytest.approx([0.0, 0.2])

    def test_early_send_is_not_negative_lateness(self):
        schedule = OpenLoopSchedule(rate=1.0, n_requests=1, start=5.0)
        schedule.record(0, sent=4.9, done=5.2)
        assert schedule.lateness() == [0.0]

    def test_rate_must_be_positive(self):
        with pytest.raises(ValueError):
            OpenLoopSchedule(rate=0.0, n_requests=1, start=0.0)


class TestFailures:
    def test_failed_frac_counts_against_attempts(self):
        failures = FailureCount()
        for _ in range(8):
            failures.attempt()
        failures.fail("http 429")
        failures.fail("TimeoutError")
        assert failures.failed_frac == pytest.approx(0.25)
        assert failures.reasons == {"http 429": 1, "TimeoutError": 1}

    def test_no_attempts_means_no_failures(self):
        assert FailureCount().failed_frac == 0.0

    def test_failed_requests_miss_every_percentile(self):
        values = latencies_with_failures([1.0, 2.0, 3.0], n_failed=4)
        assert math.isinf(percentile(values, 50.0))
        assert percentile(latencies_with_failures([1.0, 2.0, 3.0], 0), 50.0) == 2.0


def test_class_summary_weighs_every_class_the_same():
    p50, tail, rows = class_summary({"fast": [1.0] * 5, "slow": [4.0] * 50})
    assert p50 == pytest.approx(2.0)
    assert rows["slow"][0] == 50 and rows["fast"][2] == 50.0
    assert tail == pytest.approx(2.0)
