"""Tests for the frame allocators."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.broker.allocator import FrameAllocator
from repro.errors import AllocationError, ConfigError


class TestContiguousPolicy:
    def test_ascending_addresses(self):
        alloc = FrameAllocator(0, 10, policy="contiguous")
        addrs = [alloc.allocate() for _ in range(3)]
        assert addrs == [0, 4096, 8192]

    def test_base_offset(self):
        alloc = FrameAllocator(8192, 4, policy="contiguous")
        assert alloc.allocate() == 8192


class TestRandomPolicy:
    def test_deterministic_per_seed(self):
        def run(seed):
            alloc = FrameAllocator(0, 100, policy="random", seed=seed)
            return [alloc.allocate() for _ in range(20)]
        assert run(3) == run(3)
        assert run(3) != run(4)

    def test_not_simply_ascending(self):
        alloc = FrameAllocator(0, 1000, policy="random", seed=1)
        addrs = [alloc.allocate() for _ in range(50)]
        assert addrs != sorted(addrs)

    def test_no_duplicates(self):
        alloc = FrameAllocator(0, 500, policy="random", seed=2)
        addrs = [alloc.allocate() for _ in range(500)]
        assert len(set(addrs)) == 500

    def test_large_pool_constructs_quickly(self):
        """Lazy Fisher-Yates: a 16GB pool must not be shuffled up
        front."""
        import time
        start = time.time()
        alloc = FrameAllocator(0, 4_000_000, policy="random", seed=1)
        alloc.allocate()
        assert time.time() - start < 0.5


class TestExhaustionAndFree:
    def test_exhaustion_raises(self):
        alloc = FrameAllocator(0, 2, policy="contiguous")
        alloc.allocate()
        alloc.allocate()
        with pytest.raises(AllocationError):
            alloc.allocate()

    def test_free_enables_reuse(self):
        alloc = FrameAllocator(0, 1, policy="contiguous")
        addr = alloc.allocate()
        alloc.free(addr)
        assert alloc.allocate() == addr

    def test_double_free_rejected(self):
        alloc = FrameAllocator(0, 4)
        addr = alloc.allocate()
        alloc.free(addr)
        with pytest.raises(AllocationError):
            alloc.free(addr)

    def test_foreign_free_rejected(self):
        alloc = FrameAllocator(0, 4)
        with pytest.raises(AllocationError):
            alloc.free(4096 * 100)

    def test_unaligned_free_rejected(self):
        alloc = FrameAllocator(0, 4)
        alloc.allocate()
        with pytest.raises(AllocationError):
            alloc.free(7)

    def test_len_and_utilization(self):
        alloc = FrameAllocator(0, 4)
        assert len(alloc) == 4
        alloc.allocate()
        assert len(alloc) == 3
        assert alloc.utilization == 0.25

    def test_is_allocated(self):
        alloc = FrameAllocator(0, 4, policy="contiguous")
        addr = alloc.allocate()
        assert alloc.is_allocated(addr)
        assert not alloc.is_allocated(addr + 4096)


class TestContiguousRuns:
    def test_run_is_consecutive(self):
        alloc = FrameAllocator(0, 64, policy="random", seed=9)
        run = alloc.allocate_contiguous_run(8)
        assert [run[i + 1] - run[i] for i in range(7)] == [4096] * 7

    def test_run_avoids_allocated_frames(self):
        alloc = FrameAllocator(0, 64, policy="random", seed=9)
        taken = [alloc.allocate() for _ in range(10)]
        run = alloc.allocate_contiguous_run(8)
        assert not set(run) & set(taken)

    def test_run_too_large_raises(self):
        alloc = FrameAllocator(0, 4)
        with pytest.raises(AllocationError):
            alloc.allocate_contiguous_run(5)

    def test_run_frames_marked_allocated(self):
        alloc = FrameAllocator(0, 16, policy="random", seed=1)
        run = alloc.allocate_contiguous_run(4)
        for addr in run:
            assert alloc.is_allocated(addr)

    def test_allocation_after_run_avoids_run(self):
        alloc = FrameAllocator(0, 16, policy="random", seed=1)
        run = set(alloc.allocate_contiguous_run(4))
        rest = [alloc.allocate() for _ in range(12)]
        assert not run & set(rest)
        with pytest.raises(AllocationError):
            alloc.allocate()


class TestValidation:
    def test_rejects_zero_frames(self):
        with pytest.raises(ConfigError):
            FrameAllocator(0, 0)

    def test_rejects_unaligned_base(self):
        with pytest.raises(ConfigError):
            FrameAllocator(100, 4)

    def test_rejects_unknown_policy(self):
        with pytest.raises(ConfigError):
            FrameAllocator(0, 4, policy="buddy")


class TestAllocateFreeProperty:
    @given(st.lists(st.sampled_from(["alloc", "free"]),
                    min_size=1, max_size=200),
           st.sampled_from(["random", "contiguous"]))
    @settings(max_examples=40)
    def test_no_double_allocation_ever(self, ops, policy):
        """Invariant: a frame is never handed out twice while live."""
        alloc = FrameAllocator(0, 16, policy=policy, seed=11)
        live = set()
        for op in ops:
            if op == "alloc":
                try:
                    addr = alloc.allocate()
                except AllocationError:
                    assert len(live) == 16
                    continue
                assert addr not in live
                live.add(addr)
            elif live:
                addr = live.pop()
                alloc.free(addr)
        assert alloc.total_frames - len(alloc) == len(live)
