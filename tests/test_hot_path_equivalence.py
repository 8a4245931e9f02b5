"""The hot-path equivalence guarantee.

The production execution tier — the vectorized ``Trace.decoded``
front-end, each node's node-side pass (``Node.node_pass``) and the
memory-side replay of its stream (``Node.run_events``), over the
allocation-free probe entry points — must produce **bit-identical**
run stats to the seed implementation preserved in
:mod:`repro.core.refpath`, and so must a run whose nodes replay
streams other cells built (``TestStreamReuse``).  This
suite pins that down across every catalog benchmark, every
architecture, and the multi-node interleaved driver — comparing full
serialized result dicts, so a single drifting counter anywhere in the
system fails loudly.  Each comparison also covers what the result
dict does not carry: every tag store's hit and miss counts, the
system's tag-store probe total, and the state of each node's
placement draws (the reference path takes its own page-fault route).
"""

import dataclasses
import heapq

import pytest

from repro.cache.cache import SetAssociativeCache
from repro.config.presets import default_config, with_nodes, \
    with_stu_entries
from repro.core.refpath import _ref_fill
from repro.core.system import FamSystem
from repro.experiments.runner import (
    RunSettings,
    _result_to_dict,
    build_traces,
)
from repro.workloads.catalog import benchmark_names

#: Small but non-trivial: enough events to exercise walks, evictions,
#: write-backs and FAM contention on every benchmark.
FAST = RunSettings(n_events=1000, footprint_scale=0.01, seed=5)

ARCHITECTURES = ("e-fam", "i-fam", "deact-w", "deact-n")


def _tag_stores(node):
    """Every tag store ``node`` probes: L1/L2/L3, both TLB levels, the
    node and STU walk caches, the STU organization's store and the
    translation cache."""
    stores = [*node.caches.levels, node.mmu.tlb.l1, node.mmu.tlb.l2,
              *node.mmu.walker._caches]
    if node.stu is not None:
        stores += node.stu.walker._caches
        if node.stu.organization is not None:
            stores.append(node.stu.organization._cache)
    if node.fam_translator is not None:
        stores.append(node.fam_translator.cache._cache)
    return stores


def _outcome(system, bench, traces, reference=False, streams=None):
    """Run ``system``; return its serialized result plus the state the
    result does not carry: each tag store's (hits, misses), the
    system's tag-store probe total, and where each node's placement
    draws stand."""
    outcome = _result_to_dict(system.run(traces, benchmark=bench,
                                         reference=reference,
                                         streams=streams))
    outcome["tag_stores"] = [
        [(store.name, store.hits, store.misses)
         for store in _tag_stores(node)]
        for node in system.nodes]
    outcome["tag_store_probes"] = system.tag_store_probes()
    outcome["placement_draws"] = [node._rng.getstate()
                                  for node in system.nodes]
    return outcome


def _run_both(bench, architecture, config):
    """Run both tiers on fresh systems; return their outcomes
    ``(fast, reference)``."""
    traces = build_traces(bench, config.nodes, FAST)
    seed = FAST.seed * 31 + 5
    fast = _outcome(FamSystem(config, architecture, seed=seed), bench,
                    traces)
    reference = _outcome(FamSystem(config, architecture, seed=seed), bench,
                         traces, reference=True)
    return fast, reference


class TestCatalogEquivalence:
    """Every catalog benchmark under the Table II configuration.

    The architecture rotates per benchmark so all four access
    procedures are exercised across the catalog without running the
    full 14 × 4 matrix.
    """

    @pytest.mark.parametrize("bench", benchmark_names())
    def test_fast_matches_seed_path(self, bench):
        index = benchmark_names().index(bench)
        architecture = ARCHITECTURES[index % len(ARCHITECTURES)]
        fast, reference = _run_both(bench, architecture, default_config())
        assert fast == reference

    # mcf is translation-heavy; lu and bc are the cache-resident
    # control workloads, so the hit path is covered on all four
    # architectures too.
    @pytest.mark.parametrize("bench", ("mcf", "lu", "bc"))
    def test_all_architectures_one_benchmark(self, bench):
        for architecture in ARCHITECTURES:
            fast, reference = _run_both(bench, architecture,
                                        default_config())
            assert fast == reference

    def test_multi_node_interleaved_driver(self):
        # nodes > 1 goes through the heap-interleaved driver, which
        # runs each node until its key reaches the heap's next key.
        fast, reference = _run_both("dc", "deact-n",
                                    with_nodes(default_config(), 3))
        assert fast == reference

    def test_multi_node_translation_heavy(self):
        # The interleaved driver on a translation-heavy workload under
        # the other DeACT variant: STU walks and translator misses
        # interleave across nodes on the shared fabric and FAM.
        fast, reference = _run_both("canl", "deact-w",
                                    with_nodes(default_config(), 3))
        assert fast == reference

    @pytest.mark.parametrize("architecture", ARCHITECTURES)
    def test_tag_store_counts_cover_every_store(self, architecture):
        # The compared outcome carries every store the architecture
        # has, and the run probed each of them.  The STU walk caches
        # (off in Table II) are on, as in the walk-cache ablation.
        config = default_config()
        config = config.replace(stu=dataclasses.replace(
            config.stu, walk_cache_entries=32))
        fast, reference = _run_both("canl", architecture, config)
        assert fast == reference
        (stores,) = fast["tag_stores"]
        expected = {"e-fam": 8, "i-fam": 12}.get(architecture, 13)
        assert len(stores) == expected
        assert all(hits + misses for _name, hits, misses in stores)
        assert fast["tag_store_probes"] == sum(
            hits + misses for _name, hits, misses in stores)

    def test_local_frames_run_out(self):
        # Local DRAM with room for 16 frames besides the translation
        # cache: first touches use them up early, after which every
        # frame comes from the FAM zone while the placement draws go
        # on.
        config = default_config()
        config = config.replace(local_memory=dataclasses.replace(
            config.local_memory,
            size_bytes=config.translation_cache.size_bytes + 16 * 4096))
        fast, reference = _run_both("mcf", "deact-n", config)
        assert fast == reference
        (counters,) = (node["counters"] for node in fast["nodes"])
        assert counters["frames.local"] == 16
        assert counters["frames.fam"] > 16

    def test_encrypted_memory_mode(self):
        config = default_config()
        config = config.replace(
            stu=dataclasses.replace(config.stu, encrypted_memory_mode=True))
        fast, reference = _run_both("canl", "deact-n", config)
        assert fast == reference

    def test_not_vacuous(self):
        # Different seeds must differ, or the comparisons above would
        # pass for a runner that ignores its inputs.
        traces = build_traces("mcf", 1, FAST)
        base = FamSystem(default_config(), "deact-n", seed=1).run(
            traces, benchmark="mcf")
        other = FamSystem(default_config(), "deact-n", seed=2).run(
            traces, benchmark="mcf")
        assert _result_to_dict(base) != _result_to_dict(other)


#: Short traces for the multi-node ordering cases (8 nodes x 2 tiers).
SHORT = RunSettings(n_events=600, footprint_scale=0.01, seed=5)

#: Architecture per node count, so the ordering cases cover all four.
NODE_ARCH = {2: "e-fam", 3: "i-fam", 8: "deact-n"}


def _run_traces_both(traces, architecture, bench):
    """Fast and reference outcomes of explicit per-node ``traces``."""
    config = with_nodes(default_config(), len(traces))
    fast = _outcome(FamSystem(config, architecture, seed=11), bench,
                    traces)
    reference = _outcome(FamSystem(config, architecture, seed=11), bench,
                         traces, reference=True)
    return fast, reference


class TestMultiNodeOrdering:
    """The interleaved driver runs each node until its
    ``(core_time, index)`` key reaches the heap's next key; these cases
    stress the boundary of that rule against the reference driver's
    one-pop-per-event order."""

    @pytest.mark.parametrize("nodes", sorted(NODE_ARCH))
    @pytest.mark.parametrize("bench", ("lu", "dc"))
    def test_identical_traces_tie_keys(self, bench, nodes, monkeypatch):
        # The same trace on every node: every key ties at t=0, and some
        # tie again later, so the index tie-break decides the order.
        pops = []
        real_pop = heapq.heappop

        def spy(heap):
            item = real_pop(heap)
            if type(item) is tuple and heap:
                pops.append((item[0], heap[0][0]))
            return item

        monkeypatch.setattr(heapq, "heappop", spy)
        trace = build_traces(bench, 1, SHORT)[0]
        fast, reference = _run_traces_both([trace] * nodes,
                                           NODE_ARCH[nodes], bench)
        assert fast == reference
        ties = [popped for popped, top in pops if popped == top]
        assert ties.count(0.0) == nodes - 1
        assert len(ties) > nodes - 1, "no tie after t=0"

    @pytest.mark.parametrize("nodes", sorted(NODE_ARCH))
    def test_uneven_trace_lengths(self, nodes):
        # Node 0 gets the shortest trace and finishes first; the others
        # keep running with one node fewer in the heap.
        traces = build_traces("dc", nodes, SHORT)
        traces = [trace.slice(0, len(trace) * (index + 1) // nodes)
                  for index, trace in enumerate(traces)]
        fast, reference = _run_traces_both(traces, NODE_ARCH[nodes], "dc")
        assert fast == reference
        lengths = [node["memory_accesses"] for node in fast["nodes"]]
        assert lengths == [len(trace) for trace in traces]

    @pytest.mark.parametrize("nodes", sorted(NODE_ARCH))
    def test_empty_trace_on_one_node(self, nodes):
        traces = build_traces("canl", nodes, SHORT)
        traces[1] = traces[1].slice(0, 0)
        fast, reference = _run_traces_both(traces, "deact-w", "canl")
        assert fast == reference
        assert fast["nodes"][1]["memory_accesses"] == 0


def _reuse_outcome(system, bench, traces, reuse):
    """Run ``system`` on ``traces``, each node offered ``reuse[i]``;
    return the outcome (without the placement draws, which a node that
    adopts a stream never makes) and the streams the run replayed."""
    streams = system.node_streams(traces, reuse)
    outcome = _outcome(system, bench, traces, streams=streams)
    del outcome["placement_draws"]
    return outcome, streams


def _fresh_outcome(config, architecture, bench, traces, seed):
    outcome = _outcome(FamSystem(config, architecture, seed=seed), bench,
                       traces)
    del outcome["placement_draws"]
    return outcome


class TestStreamReuse:
    """A node-side stream built by one cell replays in any cell with the
    same node-side inputs: the result, every tag store's counts and the
    probe total equal a run that made its own passes."""

    @pytest.mark.parametrize("architecture", ARCHITECTURES)
    def test_stream_of_another_cell(self, architecture):
        traces = build_traces("canl", 1, FAST)
        seed = FAST.seed * 31 + 5
        fresh = _fresh_outcome(default_config(), architecture, "canl",
                               traces, seed)
        other_arch = ARCHITECTURES[(ARCHITECTURES.index(architecture) + 1)
                                   % len(ARCHITECTURES)]
        donors = (
            (default_config(), other_arch),
            (with_stu_entries(default_config(), 256), architecture),
        )
        for donor_config, donor_arch in donors:
            donor = FamSystem(donor_config, donor_arch, seed=seed)
            (stream,) = donor.node_streams(traces)
            reused, (replayed,) = _reuse_outcome(
                FamSystem(default_config(), architecture, seed=seed),
                "canl", traces, [stream])
            assert replayed is stream
            assert reused == fresh

    def test_two_node_streams_replay_in_eight_nodes(self):
        # build_traces seeds node k alike at every node count, so nodes
        # 0 and 1 of an 8-node run can replay a 2-node run's streams.
        traces = build_traces("dc", 8, SHORT)
        two = FamSystem(with_nodes(default_config(), 2), "i-fam", seed=11)
        donated = two.node_streams(traces[:2])
        config = with_nodes(default_config(), 8)
        fresh = _fresh_outcome(config, "deact-n", "dc", traces, 11)
        reused, replayed = _reuse_outcome(
            FamSystem(config, "deact-n", seed=11), "dc", traces,
            donated + [None] * 6)
        assert replayed[:2] == donated
        assert reused == fresh

    def test_local_frames_run_out(self):
        # Local DRAM with room for 16 frames besides DeACT's
        # translation cache: DeACT-N's pass runs out of local frames
        # and E-FAM's places more than DeACT-N has, so neither node may
        # adopt the other's stream.
        config = default_config()
        config = config.replace(local_memory=dataclasses.replace(
            config.local_memory,
            size_bytes=config.translation_cache.size_bytes + 16 * 4096))
        traces = build_traces("mcf", 1, FAST)
        seed = FAST.seed * 31 + 5
        streams = {}
        for architecture in ("e-fam", "deact-n"):
            system = FamSystem(config, architecture, seed=seed)
            (streams[architecture],) = system.node_streams(traces)
        (deact_free, _, _) = streams["deact-n"].start
        assert streams["deact-n"].local_frames == deact_free
        assert streams["e-fam"].local_frames > deact_free
        for architecture, donor in (("e-fam", "deact-n"),
                                    ("deact-n", "e-fam")):
            node = FamSystem(config, architecture, seed=seed).nodes[0]
            assert not node.can_adopt(streams[donor])
            reused, (replayed,) = _reuse_outcome(
                FamSystem(config, architecture, seed=seed), "mcf", traces,
                [streams[donor]])
            assert replayed is not streams[donor]
            fast, reference = _run_both("mcf", architecture, config)
            del fast["placement_draws"]
            assert reused == fast
            del reference["placement_draws"]
            assert reused == reference

    def test_budget_that_never_ran_out_is_shared(self):
        # At Table II sizes the pool never runs dry, so E-FAM's stream
        # serves DeACT-N, whose translation cache leaves fewer frames.
        traces = build_traces("mcf", 1, FAST)
        seed = FAST.seed * 31 + 5
        (stream,) = FamSystem(default_config(), "e-fam",
                              seed=seed).node_streams(traces)
        node = FamSystem(default_config(), "deact-n", seed=seed).nodes[0]
        assert node._local_frames_free < stream.start[0]
        assert node.can_adopt(stream)


class TestStepFast:
    def test_step_fast_is_a_one_event_run(self):
        # Node.step_fast per event must leave a node exactly as one
        # pass and one replay over the whole trace do.
        trace = build_traces("mcf", 1, SHORT)[0]
        decoded = trace.decoded()
        whole = FamSystem(default_config(), "deact-n", seed=3)
        stream = whole.nodes[0].node_pass(decoded)
        whole.nodes[0].run_events(zip(stream.gaps, stream.records))
        stepped = FamSystem(default_config(), "deact-n", seed=3)
        node = stepped.nodes[0]
        for event in zip(*decoded):
            assert node.step_fast(*event) == node.core_time_ns
        for system in (whole, stepped):
            system.nodes[0].drain()
        assert whole.nodes[0].metrics() == stepped.nodes[0].metrics()
        assert whole.fam.snapshot() == stepped.fam.snapshot()


class TestDecodedFrontEnd:
    """The vectorized decode must agree with per-event derivation."""

    def test_decode_matches_scalar_derivation(self):
        trace = build_traces("mcf", 1, FAST)[0]
        decoded = trace.decoded(4096, 64)
        assert len(decoded) == len(trace)
        for vaddr, vpn, offset, block in zip(
                trace.vaddrs, decoded.vpns, decoded.offsets,
                decoded.blocks):
            assert vpn == vaddr // 4096
            assert offset == vaddr % 4096
            assert block == (vaddr % 4096) // 64
            # Physical-block recomposition identity used by run_events.
            for frame in (0, 7, 123456):
                npa = (frame << 12) | offset
                assert npa // 64 == (frame << 6) | block

    def test_decode_is_cached_per_geometry(self):
        from repro.errors import TraceError

        trace = build_traces("mg", 1, FAST)[0]
        assert trace.decoded(4096, 64) is trace.decoded(4096, 64)
        with pytest.raises(TraceError):
            trace.decoded(4096, 128)

    def test_decode_rejects_non_power_of_two(self):
        from repro.errors import TraceError

        trace = build_traces("mg", 1, FAST)[0]
        with pytest.raises(TraceError):
            trace.decoded(page_bytes=4095)
        with pytest.raises(TraceError):
            trace.decoded(block_bytes=48)

    def test_columns_are_plain_python_scalars(self):
        # The per-event loop relies on plain ints/bools (NumPy scalar
        # attribute access is an order of magnitude slower).
        trace = build_traces("bc", 1, FAST)[0]
        decoded = trace.decoded()
        assert type(decoded.vpns[0]) is int
        assert type(decoded.offsets[0]) is int
        assert type(decoded.blocks[0]) is int
        assert type(trace.gaps[0]) is int
        assert type(trace.writes[0]) is bool


class TestTagStoreEquivalence:
    """Property test: the slim ``fill_line`` and the seed's boxed fill
    (preserved as ``refpath._ref_fill``) stay in lockstep — same
    contents, hit/miss counts, victims and RNG draws — under random
    operation sequences, for LRU and for random replacement."""

    @pytest.mark.parametrize("policy", ("lru", "random"))
    @pytest.mark.parametrize("seed", range(3))
    def test_random_operation_sequences(self, policy, seed):
        import random

        rng = random.Random(1000 * seed + (policy == "random"))
        random_seed = seed if policy == "random" else None
        fast = SetAssociativeCache("fast", 4, 2, random_seed=random_seed)
        reference = SetAssociativeCache("ref", 4, 2,
                                        random_seed=random_seed)
        for _ in range(600):
            key = rng.randrange(64)
            op = rng.random()
            if op < 0.5:
                fast_payload = fast.get_line(key, write=op < 0.1)
                ref_payload = reference.get_line(key, write=op < 0.1)
                assert fast_payload == ref_payload
            elif op < 0.9:
                # Dirty-bit payloads, as in the data caches: a clean
                # line's payload is False and must still count as
                # resident.
                evicted = fast.fill_line(key, op > 0.8)
                boxed = _ref_fill(reference, key, op > 0.8)
                if evicted is None:
                    assert boxed.evicted_key is None
                else:
                    assert evicted == (boxed.evicted_key,
                                       boxed.evicted_value)
            else:
                assert fast.invalidate(key) == reference.invalidate(key)
        assert fast._sets == reference._sets
        assert (fast.hits, fast.misses) == (reference.hits, reference.misses)
