"""Integration tests: whole-system runs across architectures."""

import pytest

from repro.config.presets import small_config, with_nodes
from repro.core.system import FamSystem
from repro.errors import ConfigError
from repro.workloads.catalog import get_profile
from repro.workloads.synthetic import PatternSpec, generate_trace


def quick_trace(seed=1, n=1500, pages=600, reuse=0.6):
    return generate_trace(
        "it", n, pages,
        [PatternSpec("zipf", 0.7, {"alpha": 0.7}),
         PatternSpec("sequential", 0.3)],
        gap_mean=5.0, write_fraction=0.3, dependent_fraction=0.5,
        seed=seed, reuse_fraction=reuse, reuse_window=256)


class TestSingleNodeRuns:
    @pytest.mark.parametrize("arch", ["e-fam", "i-fam", "deact-w",
                                      "deact-n"])
    def test_run_completes_with_sane_metrics(self, arch):
        system = FamSystem(small_config(), arch, seed=2)
        result = system.run(quick_trace(), benchmark="it")
        assert result.architecture == arch
        node = result.nodes[0]
        assert node.instructions == quick_trace().instructions
        assert node.memory_accesses == 1500
        assert 0 < result.ipc < 16  # bounded by issue slots
        assert result.runtime_ns > 0

    def test_determinism(self):
        """Identical config + trace + seed -> identical results."""
        def run():
            system = FamSystem(small_config(), "deact-n", seed=9)
            return system.run(quick_trace(), benchmark="it")
        a, b = run(), run()
        assert a.ipc == b.ipc
        assert a.fam_counters == b.fam_counters
        assert a.nodes[0].runtime_ns == b.nodes[0].runtime_ns

    def test_unknown_execution_mode_rejected(self):
        system = FamSystem(small_config(), "deact-n", seed=9)
        with pytest.raises(ConfigError, match="choose from fast, reference"):
            system.run(quick_trace(), benchmark="it", mode="batch")

    def test_efam_fastest_overall(self):
        results = {}
        for arch in ("e-fam", "i-fam", "deact-n"):
            system = FamSystem(small_config(), arch, seed=2)
            results[arch] = system.run(quick_trace(), benchmark="it")
        assert results["e-fam"].ipc > results["i-fam"].ipc
        assert results["e-fam"].ipc > results["deact-n"].ipc

    def test_ifam_has_more_at_traffic_than_efam(self):
        results = {}
        for arch in ("e-fam", "i-fam"):
            system = FamSystem(small_config(), arch, seed=2)
            results[arch] = system.run(quick_trace(), benchmark="it")
        assert results["i-fam"].fam_at_fraction > \
            results["e-fam"].fam_at_fraction

    def test_no_access_violations_in_honest_runs(self):
        """An unmodified workload never trips access control."""
        system = FamSystem(small_config(), "deact-n", seed=2)
        system.run(quick_trace(), benchmark="it")  # would raise
        assert system.nodes[0].stu.stats.get("violations") == 0


class TestMultiNodeRuns:
    def test_per_node_traces(self):
        config = with_nodes(small_config(), 2)
        system = FamSystem(config, "deact-n", seed=2)
        traces = [quick_trace(seed=1), quick_trace(seed=2)]
        result = system.run(traces, benchmark="pair")
        assert len(result.nodes) == 2
        assert all(n.memory_accesses == 1500 for n in result.nodes)

    def test_trace_count_mismatch_rejected(self):
        config = with_nodes(small_config(), 2)
        system = FamSystem(config, "i-fam", seed=2)
        with pytest.raises(ConfigError):
            system.run([quick_trace()], benchmark="bad")

    def test_single_trace_replicated(self):
        config = with_nodes(small_config(), 2)
        system = FamSystem(config, "i-fam", seed=2)
        result = system.run(quick_trace(), benchmark="rep")
        assert len(result.nodes) == 2

    def test_nodes_isolated_in_fam(self):
        """Two nodes never receive the same FAM frame."""
        config = with_nodes(small_config(), 2)
        system = FamSystem(config, "i-fam", seed=2)
        system.run([quick_trace(seed=1), quick_trace(seed=2)],
                   benchmark="iso")
        frames = [set(), set()]
        for node_id in range(2):
            table = system.broker.system_table(node_id)
            frames[node_id] = {e.frame for _v, e in table.iter_mappings()}
        assert not frames[0] & frames[1]

    def test_contention_slows_shared_fam(self):
        """8 nodes sharing the pool run no faster per node than 1."""
        solo = FamSystem(small_config(), "i-fam", seed=2)
        solo_result = solo.run(quick_trace(seed=1), benchmark="c")
        crowd = FamSystem(with_nodes(small_config(), 4), "i-fam", seed=2)
        crowd_result = crowd.run(
            [quick_trace(seed=i) for i in range(4)], benchmark="c")
        assert crowd_result.nodes[0].runtime_ns >= \
            solo_result.nodes[0].runtime_ns

    def test_deact_speedup_grows_with_nodes(self):
        """The Figure 16 trend at miniature scale."""
        def speedup(nodes):
            config = with_nodes(small_config(), nodes)
            traces = [quick_trace(seed=i, reuse=0.4) for i in range(nodes)]
            ifam = FamSystem(config, "i-fam", seed=2).run(
                traces, benchmark="f16")
            deact = FamSystem(config, "deact-n", seed=2).run(
                traces, benchmark="f16")
            return deact.speedup_over(ifam)

        assert speedup(4) > speedup(1) * 0.9  # allow noise, expect gain


class TestRunResultDerivations:
    def make(self, arch):
        system = FamSystem(small_config(), arch, seed=2)
        return system.run(quick_trace(), benchmark="it")

    def test_speedup_and_slowdown_consistent(self):
        efam = self.make("e-fam")
        ifam = self.make("i-fam")
        assert ifam.slowdown_vs(efam) == pytest.approx(
            1.0 / ifam.normalized_performance(efam))
        assert efam.speedup_over(ifam) == pytest.approx(
            ifam.slowdown_vs(efam))

    def test_mpki_positive(self):
        assert self.make("e-fam").mpki > 0

    def test_node_accessor(self):
        result = self.make("e-fam")
        assert result.node(0) is result.nodes[0]
        assert result.node(99) is None
