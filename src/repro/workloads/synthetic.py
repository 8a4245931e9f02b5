"""Vectorized synthetic access-pattern generators.

Each benchmark profile is a *mixture* of primitive patterns; the
generator draws, per event, which pattern produces the address:

* ``sequential`` — a cursor advancing one block at a time (streaming
  kernels; excellent TLB/STU/ACM locality).
* ``strided`` — a cursor advancing ``stride_bytes`` per access
  (stencils and blocked array codes; few blocks touched per page, so
  translation traffic per data access is high).
* ``zipf`` — pages drawn from a Zipf(``alpha``) distribution over the
  footprint, uniform block within the page (graph/irregular codes;
  ``alpha`` is the reuse-skew knob that positions a benchmark between
  "hub-dominated, cache-friendly" and "uniform random, TLB-hostile").
* ``chase`` — uniform random page, always dependent (pointer chasing:
  the core cannot overlap these misses).
* ``hotcold`` — a small hot page set absorbing most accesses, the rest
  uniform over the footprint.

A page-reuse post-pass then points a share of events at the page of a
recent event, resolving whole reuse chains with pointer jumping over
index arrays rather than one event at a time.

Everything is generated with seeded NumPy for determinism and speed,
then materialized to plain lists in one ``tolist`` pass per column
(the simulator's per-event loop is pure Python and consumes the
pre-decomposed columns of :meth:`repro.workloads.trace.Trace.decoded`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TraceError
from repro.workloads.trace import Trace

__all__ = ["PatternSpec", "generate_trace"]

#: Base of the synthetic heap in virtual address space.
_HEAP_BASE = 0x1000_0000
_PAGE = 4096
_BLOCK = 64
_BLOCKS_PER_PAGE = _PAGE // _BLOCK


@dataclass(frozen=True)
class PatternSpec:
    """One component of an access-pattern mixture.

    ``weight`` is the fraction of events drawn from this pattern;
    ``params`` are pattern-specific (``alpha`` for zipf, ``stride_bytes``
    for strided, ``hot_fraction`` / ``hot_pages`` for hotcold).
    """

    kind: str
    weight: float
    params: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in ("sequential", "strided", "zipf", "chase",
                             "hotcold"):
            raise TraceError(f"unknown pattern kind {self.kind!r}")
        if self.weight <= 0:
            raise TraceError(f"pattern weight must be positive: {self}")


def _zipf_page_sampler(rng: np.random.Generator, n_pages: int,
                       alpha: float, size: int) -> np.ndarray:
    """Zipf-distributed page indices over ``[0, n_pages)``.

    A permutation decouples popularity rank from page adjacency —
    hot pages are scattered through the footprint, as malloc'd graph
    data would be.
    """
    ranks = np.arange(1, n_pages + 1, dtype=np.float64)
    weights = ranks ** (-alpha)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    draws = rng.random(size)
    pages_by_rank = np.searchsorted(cdf, draws)
    permutation = rng.permutation(n_pages)
    return permutation[pages_by_rank]


def _resolve_page_reuse(vaddrs: np.ndarray, reuse_mask: np.ndarray,
                        distances: np.ndarray,
                        fresh_blocks: np.ndarray) -> None:
    """Point each reused event at a recent event's page, in place.

    Event ``i`` with ``reuse_mask[i]`` takes the page of event
    ``i - distances[i]`` (when that index exists) at block
    ``fresh_blocks[i]``.  Reuse revisits a recent *page* at a fresh
    block: block-granular reuse would be absorbed by the data caches
    and never reach the translation structures, while page-granular
    reuse gives the TLB/STU/ACM stream its temporal locality while the
    cache hierarchy still misses.

    A source may itself be reused, so reuse forms chains that must end
    on the page the chain's first non-reused event (its *root*) had
    before the pass, as resolving the events one at a time in order
    would leave them.  Pointer jumping (``root = root[root]`` until
    nothing changes) takes every event to its root in about
    log2(longest chain) whole-array passes.
    """
    n_events = len(vaddrs)
    index = np.arange(n_events, dtype=np.int32)
    # A distance past the trace start means no source; clipping it to
    # ``n_events`` keeps it negative after the int32 subtraction.
    sources = index - np.minimum(distances, n_events).astype(np.int32)
    reused = reuse_mask & (sources >= 0)
    root = np.where(reused, sources, index)
    del index, sources
    while True:
        hop = root[root]
        if np.array_equal(hop, root):
            break
        root = hop
    origins = vaddrs[root[reused]]
    vaddrs[reused] = (origins - origins % _PAGE
                      + fresh_blocks[reused] * _BLOCK)


def generate_trace(name: str, n_events: int, footprint_pages: int,
                   patterns: Sequence[PatternSpec], gap_mean: float,
                   write_fraction: float, dependent_fraction: float,
                   seed: int = 0, reuse_fraction: float = 0.0,
                   reuse_window: int = 512) -> Trace:
    """Generate a deterministic synthetic trace.

    Parameters
    ----------
    n_events:
        Number of memory-instruction events.
    footprint_pages:
        Size of the touched virtual region in 4 KB pages.
    patterns:
        The mixture; weights are normalized internally.
    gap_mean:
        Mean non-memory instructions between memory events (geometric
        distribution) — together with miss rates this sets MPKI.
    write_fraction / dependent_fraction:
        Per-event probabilities (``chase`` events are always
        dependent regardless).
    reuse_fraction / reuse_window:
        Temporal-clustering post-pass: each event re-references the
        address of one of the previous ``reuse_window`` events with
        probability ``reuse_fraction``.  This is the knob that decides
        how effective capacity-limited translation structures (TLB,
        STU, ACM cache) are — real programs revisit recent pages far
        more than an i.i.d. popularity draw admits.
    """
    if n_events <= 0:
        raise TraceError("trace needs at least one event")
    if footprint_pages <= 0:
        raise TraceError("footprint must be at least one page")
    if not patterns:
        raise TraceError("need at least one pattern")
    if gap_mean < 0:
        raise TraceError("gap mean cannot be negative")
    for label, fraction in (("write", write_fraction),
                            ("dependent", dependent_fraction),
                            ("reuse", reuse_fraction)):
        if not 0.0 <= fraction <= 1.0:
            raise TraceError(f"{label} fraction must be within [0, 1]")
    if reuse_fraction > 0.0 and reuse_window <= 0:
        raise TraceError("reuse window must be positive")

    rng = np.random.default_rng(seed)
    weights = np.array([p.weight for p in patterns], dtype=np.float64)
    weights /= weights.sum()
    choice = rng.choice(len(patterns), size=n_events, p=weights)

    pages = np.zeros(n_events, dtype=np.int64)
    blocks = np.zeros(n_events, dtype=np.int64)
    forced_dependent = np.zeros(n_events, dtype=bool)

    for index, spec in enumerate(patterns):
        mask = choice == index
        count = int(mask.sum())
        if count == 0:
            continue
        if spec.kind == "sequential":
            # A block cursor that wraps around the footprint.
            start = int(rng.integers(0, footprint_pages * _BLOCKS_PER_PAGE))
            cursor = (start + np.arange(count, dtype=np.int64)) % (
                footprint_pages * _BLOCKS_PER_PAGE)
            pages[mask] = cursor // _BLOCKS_PER_PAGE
            blocks[mask] = cursor % _BLOCKS_PER_PAGE
        elif spec.kind == "strided":
            stride_blocks = max(1, int(spec.params.get("stride_bytes",
                                                       1024)) // _BLOCK)
            start = int(rng.integers(0, footprint_pages * _BLOCKS_PER_PAGE))
            cursor = (start + stride_blocks *
                      np.arange(count, dtype=np.int64)) % (
                footprint_pages * _BLOCKS_PER_PAGE)
            pages[mask] = cursor // _BLOCKS_PER_PAGE
            blocks[mask] = cursor % _BLOCKS_PER_PAGE
        elif spec.kind == "zipf":
            alpha = float(spec.params.get("alpha", 0.8))
            pages[mask] = _zipf_page_sampler(rng, footprint_pages, alpha,
                                             count)
            blocks[mask] = rng.integers(0, _BLOCKS_PER_PAGE, size=count)
        elif spec.kind == "chase":
            pages[mask] = rng.integers(0, footprint_pages, size=count)
            blocks[mask] = rng.integers(0, _BLOCKS_PER_PAGE, size=count)
            forced_dependent[mask] = True
        elif spec.kind == "hotcold":
            hot_fraction = float(spec.params.get("hot_fraction", 0.9))
            hot_pages = max(1, int(spec.params.get(
                "hot_pages", footprint_pages // 100)))
            hot_pages = min(hot_pages, footprint_pages)
            is_hot = rng.random(count) < hot_fraction
            # Hot pages are scattered, not the first N of the heap.
            hot_set = rng.permutation(footprint_pages)[:hot_pages]
            drawn = np.where(
                is_hot,
                hot_set[rng.integers(0, hot_pages, size=count)],
                rng.integers(0, footprint_pages, size=count))
            pages[mask] = drawn
            blocks[mask] = rng.integers(0, _BLOCKS_PER_PAGE, size=count)

    vaddrs = _HEAP_BASE + pages * _PAGE + blocks * _BLOCK

    if reuse_fraction > 0.0 and n_events > 1:
        reuse_mask = rng.random(n_events) < reuse_fraction
        distances = rng.integers(1, reuse_window + 1, size=n_events)
        fresh_blocks = rng.integers(0, _BLOCKS_PER_PAGE, size=n_events)
        _resolve_page_reuse(vaddrs, reuse_mask, distances, fresh_blocks)

    if gap_mean > 0:
        # Geometric gaps with the requested mean, shifted to allow 0.
        p = 1.0 / (gap_mean + 1.0)
        gaps = rng.geometric(p, size=n_events) - 1
    else:
        gaps = np.zeros(n_events, dtype=np.int64)

    writes = rng.random(n_events) < write_fraction
    dependents = (rng.random(n_events) < dependent_fraction) | \
        forced_dependent
    # Stores never stall the core on their result.
    dependents = dependents & ~writes

    # ``tolist`` converts whole arrays to plain Python ints/bools in C,
    # rather than round-tripping one NumPy scalar at a time.
    return Trace(name=name,
                 gaps=gaps.tolist(),
                 vaddrs=vaddrs.tolist(),
                 writes=writes.tolist(),
                 dependents=dependents.tolist())
