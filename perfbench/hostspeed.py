"""How fast the machine runs right now, against a fixed reference.

The virtual machine the benchmark's bounds come from changes speed by
up to 1.7 times, in phases that last from seconds to minutes, so a
time measured at one moment says as much about the host as about the
program.  The benchmark therefore times a fixed pure-Python kernel,
which touches nothing of the program, next to the work it measures,
and reports each time scaled to the reference speed: the time
measured, times ``REFERENCE_S`` over the kernel's median time around
it.  README.md ("Noise and bounds") shows that the kernel follows the
program's own slow-downs.

This module imports only the standard library, so a process can
sample the kernel before it imports the program.
"""

import statistics
import time
from typing import Dict, List

#: Iterations of the kernel's integer loop in one sample.
LOOPS = 2_500

#: Rows the kernel's nested loop pairs up: ROWS * ROWS iterations.
ROWS = 20

#: Seconds one sample takes at the reference speed: a round figure near
#: its time on the 2-vCPU virtual machine the README's numbers come
#: from, where it took 0.9 to 1.3 ms.
REFERENCE_S = 1.0e-3


class _Row:
    """A row whose columns are read through ``__getattr__``, the way
    the ORM's entities are read; the program's pages and passes are
    made of such calls more than of arithmetic."""

    __slots__ = ("_data",)

    def __init__(self, data: Dict[str, int]) -> None:
        object.__setattr__(self, "_data", data)

    def __getattr__(self, name: str) -> int:
        return object.__getattribute__(self, "_data")[name]


class HostSpeed:
    """Kernel samples taken by one process."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.rows = [_Row({"a": i % 17, "b": i % 13}) for i in range(ROWS)]

    def sample(self, times: int = 1) -> None:
        """Time the kernel ``times`` times: an integer loop, then a
        nested loop comparing attributes of ``self.rows``."""
        rows = self.rows
        for _ in range(times):
            started = time.perf_counter()
            total = 0
            for i in range(LOOPS):
                total += i * i % 7
            for r in rows:
                for s in rows:
                    if r.a == s.b:
                        total += 1
            self.samples.append(time.perf_counter() - started)

    def bracketed(self, seconds: float, times: int = 5) -> float:
        """``seconds`` of work at the reference speed, for work that
        began right after the last ``times`` samples: samples the
        kernel ``times`` more and scales by the median of all of them."""
        self.sample(times)
        return seconds * self.factor(last=2 * times)

    def factor(self, last: int = 5) -> float:
        """What to multiply a time measured now by, to get the time at
        the reference speed: from the median of the ``last`` samples."""
        return REFERENCE_S / statistics.median(self.samples[-last:])
