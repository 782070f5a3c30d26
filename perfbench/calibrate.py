"""A fixed reference kernel that measures the host's current speed.

The benchmark's host is a shared VM whose speed drifts by up to half
within a run and from one run to the next.  The run times this kernel
after every job; scaling its times by ``REF_S`` over the kernel's mean
time gives them at a fixed reference speed.  The kernel does not call the
package, so a change to the package cannot move it.  It mixes the three
kinds of work the workloads do: interpreter-bound loops, gathers from
lookup tables (the field tables) and streaming XOR and popcount over
uint64 words (the packed enumeration).
"""

from __future__ import annotations

import time

import numpy as np

# kernel time at the reference speed: about the host's fast state on a
# 2-vCPU Intel Xeon VM, so reference-speed times read as seconds there
REF_S = 0.010


class Calibration:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.table = rng.integers(0, 1 << 16, size=(1024, 1024), dtype=np.uint16)
        self.index = rng.integers(0, 1024, size=(2, 80_000))
        self.words = rng.integers(0, 1 << 63, size=1 << 18, dtype=np.uint64)

    def _kernel(self) -> int:
        acc = 0
        for i in range(45_000):
            acc += i * i % 7
        acc += int(self.table[self.index[0], self.index[1]].sum())
        x = self.words
        for _ in range(2):
            x = np.bitwise_xor(x, self.words >> np.uint64(1))
        return acc + int(np.bitwise_count(x).sum())

    def measure(self) -> float:
        """Wall time of one run of the kernel, in seconds."""
        t0 = time.perf_counter()
        self._kernel()
        return time.perf_counter() - t0
