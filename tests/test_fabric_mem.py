"""Tests for the fabric network and memory devices."""

import pytest

from repro.config.system import FabricConfig, FamConfig, GIB, LocalMemoryConfig
from repro.fabric.network import FabricNetwork
from repro.mem.device import DramDevice, NvmDevice
from repro.mem.request import RequestKind


class TestFabricNetwork:
    def test_hop_latencies(self):
        fabric = FabricNetwork(FabricConfig(node_to_stu_ns=100,
                                            stu_to_fam_ns=400,
                                            port_occupancy_ns=0))
        assert fabric.node_to_stu_arrival(0.0) == 100.0
        assert fabric.stu_to_fam_arrival(100.0) == 500.0
        assert fabric.fam_to_stu_arrival(0.0) == 400.0
        assert fabric.stu_to_node_arrival(0.0) == 100.0

    def test_port_contention_serializes(self):
        fabric = FabricNetwork(FabricConfig(port_occupancy_ns=20))
        first = fabric.stu_to_fam_arrival(0.0)
        second = fabric.stu_to_fam_arrival(0.0)
        assert second == first + 20.0

    def test_response_path_uncontended(self):
        fabric = FabricNetwork(FabricConfig(port_occupancy_ns=20))
        a = fabric.fam_to_stu_arrival(0.0)
        b = fabric.fam_to_stu_arrival(0.0)
        assert a == b

    def test_with_total_latency_preserves_sum(self):
        config = FabricConfig.with_total_latency(1000.0)
        assert config.total_latency_ns == pytest.approx(1000.0)

    def test_composite_node_to_fam(self):
        fabric = FabricNetwork(FabricConfig(port_occupancy_ns=0))
        assert fabric.node_to_fam_arrival(0.0) == 500.0

    def test_message_counters(self):
        fabric = FabricNetwork(FabricConfig())
        fabric.node_to_fam_arrival(0.0)
        assert fabric.stats.get("node_to_stu") == 1
        assert fabric.stats.get("stu_to_fam") == 1


class TestDramDevice:
    def test_access_latency(self):
        dram = DramDevice(LocalMemoryConfig(access_ns=50))
        assert dram.access(0, 0.0) == 50.0

    def test_bank_conflict(self):
        dram = DramDevice(LocalMemoryConfig(access_ns=50, banks=2))
        dram.access(0, 0.0)
        assert dram.access(128, 0.0) == 100.0  # same bank

    def test_bank_parallelism(self):
        dram = DramDevice(LocalMemoryConfig(access_ns=50, banks=2))
        dram.access(0, 0.0)
        assert dram.access(64, 0.0) == 50.0  # other bank

    def test_counters(self):
        dram = DramDevice(LocalMemoryConfig())
        dram.access(0, 0.0, is_write=True)
        dram.access(64, 0.0, kind=RequestKind.NODE_PTW)
        snap = dram.snapshot()
        assert snap["writes"] == 1
        assert snap["at_accesses"] == 1
        assert snap["accesses"] == 2


class TestNvmDevice:
    def test_asymmetric_latency(self):
        fam = NvmDevice(FamConfig(capacity_bytes=GIB))
        assert fam.access(0, 0.0, is_write=False) == 60.0
        assert fam.access(64, 0.0, is_write=True) == 150.0

    def test_outstanding_limit_backpressure(self):
        fam = NvmDevice(FamConfig(capacity_bytes=GIB, max_outstanding=2,
                                  banks=64))
        fam.access(0, 0.0)
        fam.access(64, 0.0)
        # Third access must wait for the first completion (t=60).
        done = fam.access(128, 0.0)
        assert done >= 60.0 + 60.0

    def test_at_census(self):
        fam = NvmDevice(FamConfig(capacity_bytes=GIB))
        fam.access(0, 0.0, kind=RequestKind.DATA)
        fam.access(64, 0.0, kind=RequestKind.FAM_PTW)
        fam.access(128, 0.0, kind=RequestKind.ACM)
        snap = fam.snapshot()
        assert snap["at_accesses"] == 2
        assert snap["kind.fam_ptw"] == 1
        assert snap["kind.acm"] == 1
        assert snap["non_at_accesses"] == 1

    def test_per_node_census(self):
        fam = NvmDevice(FamConfig(capacity_bytes=GIB))
        fam.access(0, 0.0, node_id=3)
        fam.access(64, 0.0, node_id=3)
        assert fam.snapshot()["node.3.accesses"] == 2

    def test_snapshot_keys_order_and_counts(self):
        # RequestKind hashes by identity; the census it keys must keep
        # the declaration order of the kinds and count each exactly.
        fam = NvmDevice(FamConfig(capacity_bytes=GIB))
        kinds = (RequestKind.ACM, RequestKind.DATA, RequestKind.DATA,
                 RequestKind.WRITEBACK, RequestKind.FAM_PTW,
                 RequestKind.DATA, RequestKind.NODE_PTW, RequestKind.ACM)
        for index, kind in enumerate(kinds):
            fam.access(64 * index, 0.0, is_write=kind is RequestKind.WRITEBACK,
                       kind=kind, node_id=index % 2)
        assert list(fam.snapshot().items()) == [
            ("accesses", 8.0), ("reads", 7.0), ("writes", 1.0),
            ("at_accesses", 4.0), ("non_at_accesses", 4.0),
            ("kind.data", 3.0), ("kind.node_ptw", 1.0),
            ("kind.fam_ptw", 1.0), ("kind.acm", 2.0),
            ("kind.writeback", 1.0),
            ("node.0.accesses", 4.0), ("node.1.accesses", 4.0)]

    def test_reset(self):
        fam = NvmDevice(FamConfig(capacity_bytes=GIB))
        fam.access(0, 0.0)
        fam.reset()
        assert fam.accesses == 0
        assert fam.access(0, 0.0) == 60.0


class TestRequestKinds:
    def test_translation_classification(self):
        assert RequestKind.NODE_PTW.is_translation
        assert RequestKind.FAM_PTW.is_translation
        assert RequestKind.ACM.is_translation
        assert not RequestKind.DATA.is_translation
        assert not RequestKind.WRITEBACK.is_translation

    def test_identity_hash(self):
        # Members are singletons, so the identity hash is exact and
        # every kind still finds its own dict slot.
        counts = {kind: 0 for kind in RequestKind}
        for kind in RequestKind:
            assert hash(kind) == object.__hash__(kind)
            counts[kind] += 1
        assert list(counts) == list(RequestKind)
        assert set(counts.values()) == {1}
