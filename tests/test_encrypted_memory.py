"""Tests for the encrypted-memory read optimization (Section III-A
aside): with per-node encryption keys, reads skip verification; writes
are still vetted."""

from dataclasses import replace

import pytest

from repro.acm.metadata import Permission
from repro.config.presets import small_config
from repro.core.system import FamSystem
from repro.errors import AccessViolationError
from repro.workloads.synthetic import PatternSpec, generate_trace

PAGE = 4096


def encrypted_config():
    config = small_config()
    return config.replace(
        stu=replace(config.stu, encrypted_memory_mode=True))


def trace(seed=1):
    return generate_trace(
        "enc", 1200, 500,
        [PatternSpec("zipf", 1.0, {"alpha": 0.5})],
        gap_mean=4.0, write_fraction=0.3, dependent_fraction=0.5,
        seed=seed, reuse_fraction=0.5, reuse_window=256)


class TestEncryptedMode:
    def test_reads_skip_acm(self):
        config = encrypted_config()
        system = FamSystem(config, "deact-n", seed=5)
        system.run(trace(), benchmark="enc")
        node = system.nodes[0]
        assert node.stats.get("stu.reads_unverified") > 0
        # Only write verifications reached the ACM cache.
        acm_lookups = node.stu.organization.hits + \
            node.stu.organization.misses
        assert acm_lookups < node.stats.get("mem.fam")

    def test_writes_still_verified(self):
        config = encrypted_config()
        system = FamSystem(config, "deact-n", seed=5)
        fam_page = system.broker.allocate_for_node(0, node_page=0x99)
        # A foreign node's *write* must still be caught.
        other = FamSystem(encrypted_config(), "deact-n", seed=6)
        with pytest.raises(AccessViolationError):
            system.nodes[0].stu.verify_access(
                (fam_page + 10_000) * PAGE, now=0.0,
                needed=Permission.WRITE)

    def test_encrypted_mode_not_slower(self):
        """Skipping read verification can only reduce latency."""
        plain = FamSystem(small_config(), "deact-n", seed=5)
        plain_result = plain.run(trace(), benchmark="enc")
        enc = FamSystem(encrypted_config(), "deact-n", seed=5)
        enc_result = enc.run(trace(), benchmark="enc")
        assert enc_result.ipc >= plain_result.ipc * 0.999

    def test_default_is_disabled(self):
        system = FamSystem(small_config(), "deact-n", seed=5)
        system.run(trace(), benchmark="enc")
        assert system.nodes[0].stats.get("stu.reads_unverified") == 0

    def test_fewer_acm_fetches_at_fam(self):
        plain = FamSystem(small_config(), "deact-n", seed=5)
        plain.run(trace(), benchmark="enc")
        enc = FamSystem(encrypted_config(), "deact-n", seed=5)
        enc.run(trace(), benchmark="enc")
        from repro.mem.request import RequestKind
        assert enc.fam.kind_counts[RequestKind.ACM] <= \
            plain.fam.kind_counts[RequestKind.ACM]
