"""Tests for busy-until resources and outstanding windows."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.sim.resource import BankedResource, OutstandingWindow, TimedResource


class TestTimedResource:
    def test_idle_resource_serves_immediately(self):
        res = TimedResource()
        assert res.reserve(10.0, 5.0) == 15.0

    def test_back_to_back_requests_queue(self):
        res = TimedResource()
        assert res.reserve(0.0, 10.0) == 10.0
        # Arrives at t=2 while busy until 10: served 10..15.
        assert res.reserve(2.0, 5.0) == 15.0

    def test_late_arrival_after_idle_gap(self):
        res = TimedResource()
        res.reserve(0.0, 10.0)
        assert res.reserve(100.0, 5.0) == 105.0

    def test_negative_service_rejected(self):
        res = TimedResource()
        with pytest.raises(ConfigError):
            res.reserve(0.0, -1.0)

    def test_busy_time_accumulates(self):
        res = TimedResource()
        res.reserve(0.0, 3.0)
        res.reserve(0.0, 4.0)
        assert res.busy_until == 7.0
        assert res.reservations == 2

    @given(st.lists(st.tuples(st.floats(min_value=0, max_value=1e6),
                              st.floats(min_value=0, max_value=1e4)),
                    min_size=1, max_size=50))
    def test_completions_monotone_for_sorted_arrivals(self, items):
        """FIFO service: completion times never decrease when arrivals
        are fed in time order."""
        res = TimedResource()
        last = 0.0
        for arrival, service in sorted(items):
            done = res.reserve(arrival, service)
            assert done >= last
            assert done >= arrival + service
            last = done


class TestBankedResource:
    def test_different_banks_overlap(self):
        banks = BankedResource("m", 2, interleave_bytes=64)
        done0 = banks.reserve(0, 0.0, 10.0)
        done1 = banks.reserve(64, 0.0, 10.0)
        assert done0 == 10.0
        assert done1 == 10.0  # different bank: no queueing

    def test_same_bank_serializes(self):
        banks = BankedResource("m", 2, interleave_bytes=64)
        assert banks.reserve(0, 0.0, 10.0) == 10.0
        assert banks.reserve(128, 0.0, 10.0) == 20.0  # 128 -> bank 0

    def test_rejects_bad_interleave(self):
        with pytest.raises(ConfigError):
            BankedResource("m", 4, interleave_bytes=48)

    def test_rejects_zero_banks(self):
        with pytest.raises(ConfigError):
            BankedResource("m", 0)


class TestOutstandingWindow:
    def test_admit_when_empty(self):
        window = OutstandingWindow(2)
        assert window.admit(5.0) == 5.0

    def test_blocks_when_full(self):
        window = OutstandingWindow(2)
        window.admit(0.0)
        window.record(100.0)
        window.admit(0.0)
        window.record(200.0)
        # Third request must wait for the t=100 completion.
        assert window.admit(0.0) == 100.0

    def test_drain_frees_slots(self):
        window = OutstandingWindow(1)
        window.admit(0.0)
        window.record(50.0)
        # At t=60 the request has completed; no waiting.
        assert window.admit(60.0) == 60.0

    def test_stall_time_tracked(self):
        window = OutstandingWindow(1)
        window.admit(0.0)
        window.record(30.0)
        window.admit(10.0)
        assert window.stall_time == 20.0

    def test_latest_completion(self):
        window = OutstandingWindow(4)
        for t in (30.0, 10.0, 20.0):
            window.admit(0.0)
            window.record(t)
        assert window.latest_completion() == 30.0

    def test_rejects_zero_capacity(self):
        with pytest.raises(ConfigError):
            OutstandingWindow(0)

    @given(st.integers(min_value=1, max_value=8),
           st.lists(st.floats(min_value=0.1, max_value=100.0),
                    min_size=1, max_size=60))
    @settings(max_examples=50)
    def test_never_exceeds_capacity(self, capacity, latencies):
        """Invariant: in-flight count stays within capacity."""
        window = OutstandingWindow(capacity)
        now = 0.0
        for latency in latencies:
            issue = window.admit(now)
            assert issue >= now
            window.record(issue + latency)
            assert len(window) <= capacity
            now = issue
