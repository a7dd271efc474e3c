"""Index structures for the engine.

Only hash indexes are implemented: they are what turns the paper's
Fig. 14c join from O(n²) into O(n) ("the QBS version essentially
transforms the join implementation from a nested loop join into a hash
join").  Indexes map a column value to the row positions holding it and
are maintained incrementally on insert.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, List


class HashIndex:
    """An equality index on one column."""

    def __init__(self, column: str):
        self.column = column
        self._buckets: Dict[Any, List[int]] = defaultdict(list)

    def add(self, value: Any, position: int) -> None:
        self._buckets[value].append(position)

    def lookup(self, value: Any) -> List[int]:
        """Row positions whose indexed column equals ``value``.

        A value unequal to itself (NaN) equals no stored value under
        the engine's ``=``, as a full scan finds, but a dict lookup
        matches the identical object before it compares: it matches no
        position, as ``_hash_build`` leaves such keys out of a hash
        join's buckets.
        """
        if value != value:
            return []
        return self._buckets.get(value, [])

    def __len__(self) -> int:
        return sum(len(v) for v in self._buckets.values())

    def __repr__(self) -> str:
        return "HashIndex(%s, %d keys)" % (self.column, len(self._buckets))
