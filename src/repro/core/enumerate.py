"""Lazy best-first enumeration of scored cartesian products.

The synthesizer orders candidate combinations by total expression size
(simplest first, Sec. 4.5).  Materialising the full cartesian product
and sorting it — the seed implementation — costs memory and time
exponential in the number of choice axes even when the winning candidate
is among the very first combinations.  :func:`best_first_product`
produces the *same sequence* lazily: a heap-based k-way merge over
size-sorted axes that yields combinations in nondecreasing total size
while holding only the search frontier in memory.

Equivalence with ``sorted(itertools.product(*axes), key=total_size)`` is
exact, including tie order: Python's sort is stable, so equal-size
combinations stay in product order (lexicographic in the original
per-axis indices), and the heap tie-breaks on exactly that index vector.

The frontier stays small because each index vector is pushed exactly
once, by its unique predecessor: the predecessor of a vector is obtained
by decrementing its first non-zero coordinate, so a vector ``v`` may
only generate ``v + e_i`` when every coordinate before ``i`` is zero.
This removes the need for a visited set — memory is O(heap size), which
is bounded by the number of combinations *consumed* times the number of
axes, independent of both the total product size and the enumeration
cap.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple


@dataclass
class EnumerationStats:
    """Effort/memory accounting for one enumeration."""

    yielded: int = 0
    pushed: int = 0
    peak_frontier: int = 0


def best_first_product(axes: Sequence[Sequence[Any]],
                       size: Callable[[Any], int] = lambda item: item.size(),
                       stats: Optional[EnumerationStats] = None
                       ) -> Iterator[Tuple[Any, ...]]:
    """Yield tuples of ``product(*axes)`` in nondecreasing total ``size``.

    Produces exactly the sequence ``sorted(itertools.product(*axes),
    key=lambda c: sum(size(e) for e in c))`` without materialising the
    product.  ``stats``, when given, records how many combinations were
    yielded and the peak heap size (the memory high-water mark).
    """
    pools: List[List[Any]] = [list(axis) for axis in axes]
    if not pools:
        if stats is not None:
            stats.yielded = 1
        yield ()
        return
    if any(not pool for pool in pools):
        return

    sizes = [[size(item) for item in pool] for pool in pools]
    # Per axis: original indices sorted by (size, original position), so
    # walking an axis in this order is nondecreasing in size and, among
    # equal sizes, follows the original order.
    order = [sorted(range(len(pool)), key=lambda j, s=axis_sizes: (s[j], j))
             for pool, axis_sizes in zip(pools, sizes)]
    dims = len(pools)

    def entry(vec: Tuple[int, ...]):
        """Heap entry: (total size, original index vector, sorted vector).

        The original index vector is a bijection of ``vec``, so entries
        never compare equal and the heap order is total.  Along any
        successor edge the total size is nondecreasing and, when it
        ties, the original index vector strictly increases
        lexicographically — so heap pops come out globally sorted by
        (total, original indices), which is precisely the stable-sort
        order of the product.
        """
        total = 0
        orig = []
        for axis, idx in enumerate(vec):
            orig_idx = order[axis][idx]
            orig.append(orig_idx)
            total += sizes[axis][orig_idx]
        return total, tuple(orig), vec

    heap = [entry((0,) * dims)]
    if stats is not None:
        stats.pushed += 1
        stats.peak_frontier = max(stats.peak_frontier, 1)
    while heap:
        _, orig, vec = heapq.heappop(heap)
        if stats is not None:
            stats.yielded += 1
        yield tuple(pools[axis][orig_idx]
                    for axis, orig_idx in enumerate(orig))
        # Push successors with a unique-predecessor rule: v + e_i is
        # generated only when v[j] == 0 for every j < i.
        for axis in range(dims):
            if vec[axis] + 1 < len(pools[axis]):
                successor = vec[:axis] + (vec[axis] + 1,) + vec[axis + 1:]
                heapq.heappush(heap, entry(successor))
                if stats is not None:
                    stats.pushed += 1
                    if len(heap) > stats.peak_frontier:
                        stats.peak_frontier = len(heap)
            if vec[axis] != 0:
                break
