"""Physical frame allocators.

Two placement policies, selected by
:class:`~repro.config.system.AllocationConfig`:

* ``random`` — frames are handed out in a seeded random order.  This is
  the realistic regime for a shared FAM pool (many nodes allocate
  concurrently) and the reason DeACT-W's contiguous ACM caching
  underperforms (Section III-D).
* ``contiguous`` — strictly ascending frames; used by the ablation
  bench to show how much of the DeACT-N gain comes from allocation
  randomness.

The random policy uses a lazy Fisher-Yates shuffle (a sparse swap map
over the virtual permutation), so constructing an allocator over a
16 GB pool costs O(1) instead of shuffling four million entries up
front.
"""

from __future__ import annotations

import random
from typing import Dict, List, Set

from repro.errors import AllocationError, ConfigError

__all__ = ["FrameAllocator"]


class FrameAllocator:
    """Allocates fixed-size frames from ``[base, base + n_frames * page)``.

    Frames are returned as byte base addresses.  ``free`` returns a
    frame to the pool; freed frames are preferred for reuse (hot-frame
    reuse, as a real buddy allocator's free lists would behave).
    """

    def __init__(self, base: int, n_frames: int, page_bytes: int = 4096,
                 policy: str = "random", seed: int = 0,
                 name: str = "allocator") -> None:
        if n_frames <= 0:
            raise ConfigError(f"{name}: need at least one frame")
        if base % page_bytes:
            raise ConfigError(f"{name}: base {base:#x} not page aligned")
        if policy not in ("random", "contiguous"):
            raise ConfigError(f"{name}: unknown policy {policy!r}")
        self.name = name
        self.base = base
        self.page_bytes = page_bytes
        self.policy = policy
        self.total_frames = n_frames
        self._rng = random.Random(seed)
        # Virtual permutation state (random policy): indices
        # [0, _remaining) are the not-yet-drawn frames; _swaps patches
        # the identity permutation where draws displaced entries.
        self._remaining = n_frames
        self._swaps: Dict[int, int] = {}
        # Frames returned by free(), reused before fresh draws.
        self._recycled: List[int] = []
        self._allocated: Set[int] = set()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of currently free frames."""
        return self.total_frames - len(self._allocated)

    @property
    def utilization(self) -> float:
        return len(self._allocated) / self.total_frames

    def frame_address(self, index: int) -> int:
        return self.base + index * self.page_bytes

    # ------------------------------------------------------------------
    def _draw_fresh(self) -> int:
        """Draw a never-allocated frame index per the policy."""
        if self._remaining <= 0:
            raise AllocationError(f"{self.name}: out of frames "
                                  f"({self.total_frames} total)")
        if self.policy == "contiguous":
            # Lowest unused index: the permutation is untouched, so the
            # next fresh frame is simply total - remaining.
            index = self.total_frames - self._remaining
            self._remaining -= 1
            return index
        # Lazy Fisher-Yates: pick a random slot among the remaining,
        # then fill the hole with the (virtual) last remaining slot.
        slot = self._rng.randrange(self._remaining)
        index = self._swaps.pop(slot, slot)
        last = self._remaining - 1
        if slot != last:
            self._swaps[slot] = self._swaps.pop(last, last)
        self._remaining -= 1
        return index

    def allocate(self) -> int:
        """Hand out one frame (byte address).

        Raises
        ------
        AllocationError
            When the pool is exhausted — a genuine out-of-memory.
        """
        if self._recycled:
            index = self._recycled.pop()
        else:
            index = self._draw_fresh()
        self._allocated.add(index)
        return self.frame_address(index)

    def allocate_contiguous_run(self, count: int) -> List[int]:
        """Allocate ``count`` physically consecutive frames.

        Used for shared 1 GB large pages, which must be physically
        contiguous.  Draws from the high end of the never-allocated
        space, scanning down for a run that avoids allocated frames.
        """
        if count <= 0:
            raise ConfigError(f"{self.name}: run length must be positive")
        if count > len(self):
            raise AllocationError(
                f"{self.name}: no room for a run of {count} frames")
        # Search from the top of the pool: demand allocations are
        # drawn from the permutation over all indices, so verify
        # against the allocated set explicitly.
        end = self.total_frames
        while end >= count:
            run = range(end - count, end)
            if all(i not in self._allocated for i in run):
                chosen = list(run)
                for index in chosen:
                    self._claim_specific(index)
                return [self.frame_address(i) for i in chosen]
            end -= 1
        raise AllocationError(
            f"{self.name}: no contiguous run of {count} frames")

    def _claim_specific(self, index: int) -> None:
        """Claim a specific never-allocated frame index.

        Only correct for indices that are still free; used by the
        contiguous-run allocator.  Records the claim so future random
        draws skip it (lazily, at draw time).
        """
        if index in self._allocated:
            raise AllocationError(
                f"{self.name}: frame index {index} already allocated")
        if index in self._recycled:
            self._recycled.remove(index)
            self._allocated.add(index)
            return
        # Find the slot currently mapping to this index.  The swap map
        # is sparse, so check patches first, then identity.
        slot = index
        for patched_slot, patched_index in self._swaps.items():
            if patched_index == index:
                slot = patched_slot
                break
        else:
            if index >= self._remaining and index not in self._swaps.values():
                # Identity slot already consumed and repatched away;
                # cannot happen for free frames.
                raise AllocationError(
                    f"{self.name}: frame index {index} unavailable")
        self._swaps.pop(slot, None)
        last = self._remaining - 1
        if slot != last:
            self._swaps[slot] = self._swaps.pop(last, last)
        else:
            self._swaps.pop(last, None)
        self._remaining -= 1
        self._allocated.add(index)

    def free(self, frame_addr: int) -> None:
        """Return a frame to the pool.

        Raises
        ------
        AllocationError
            On double-free or a foreign address — both indicate broker
            bugs and must not pass silently.
        """
        offset = frame_addr - self.base
        if offset % self.page_bytes:
            raise AllocationError(
                f"{self.name}: {frame_addr:#x} is not frame aligned")
        index = offset // self.page_bytes
        if index not in self._allocated:
            raise AllocationError(
                f"{self.name}: double free / foreign frame {frame_addr:#x}")
        self._allocated.remove(index)
        self._recycled.append(index)

    def is_allocated(self, frame_addr: int) -> bool:
        offset = frame_addr - self.base
        if offset < 0 or offset % self.page_bytes:
            return False
        return (offset // self.page_bytes) in self._allocated
