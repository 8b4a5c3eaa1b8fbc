"""A CPU clock that stays steady while the host's speed changes.

On a small shared virtual machine the speed of a core changes by up to
1.6x from one ten-second stretch to the next, as other guests load the
host, and CPU time follows it: one `square-3gnss` solve took 13.0 s to
18.7 s of CPU in ten repeats within five minutes. The two cores change
speed independently, so a second process cannot measure the first one's
core.

`ReferenceClock` therefore pins the process to one core and runs a
sampler thread beside the program on that core. Every `INTERVAL_S` the
sampler times a fixed calibration kernel: plain Python arithmetic, dict
and dataclass work, and small numpy linear algebra, never the program's
own code. Its slowdown is the median of the last `MEDIAN_OF` kernel times
over `REFERENCE_KERNEL_S`. `now()` adds up the program's CPU time, each
stretch divided by the slowdown measured before it, so it reads the CPU
seconds the program would have used at the reference speed. The
sampler's own CPU time is left out, and the clock never runs backwards.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

INTERVAL_S = 0.1
MEDIAN_OF = 5
# a round figure near the kernel's CPU time on the 2-core reference VM
# while a solve runs (1.7-2.6 ms), so reference seconds stay close to
# that machine's CPU seconds
REFERENCE_KERNEL_S = 2.0e-3

_RNG = np.random.default_rng(0)
_M = _RNG.standard_normal((17, 17))
_Q = _M @ _M.T + 17.0 * np.eye(17)
_V = _RNG.standard_normal((54, 3))


@dataclass(frozen=True)
class _Item:
    kind: str
    number: int


_ITEMS = [_Item("G", n) for n in range(30)]


def kernel() -> float:
    """Fixed work in the program's mix of interpreter and numpy calls."""
    total = 0.0
    values = [float(n) for n in range(40)]
    for _ in range(60):
        for x in values:
            total += x * 1.0001 - total * 1e-9
        table = dict(enumerate(values))
        total += sum(table.values()) * 1e-12
    for _ in range(12):
        total += np.linalg.inv(_Q)[0, 0] + np.linalg.cond(_Q)
        total += float((_V.T @ _V)[0, 0]) + float(np.linalg.norm(_V[:, 0]))
    for _ in range(6):
        index = {item: item.number for item in _ITEMS}
        total += sum(index[item] for item in _ITEMS)
        total += sum(1 for item in _ITEMS if item == _ITEMS[5])
    return total


class ReferenceClock:
    """Program CPU time at the reference core speed; use as a context."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self._stop = threading.Event()
        self._thread = None
        self._sampler_clock = None
        self._affinity = None
        self._recent = deque(maxlen=MEDIAN_OF)
        # (program CPU s, reference s, slowdown) as of the last sample
        self._state = (0.0, 0.0, 1.0)
        self._last = 0.0

    def __enter__(self):
        self._affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self._affinity)})
        for _ in range(MEDIAN_OF):
            self._recent.append(self._kernel_slowdown())
        self._state = (time.process_time(), 0.0,
                       statistics.median(self._recent))
        self._thread = threading.Thread(target=self._sample,
                                        name="reference-clock", daemon=True)
        self._thread.start()
        self._sampler_clock = time.pthread_getcpuclockid(self._thread.ident)
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self._sampler_clock = None
        os.sched_setaffinity(0, self._affinity)
        return False

    def program_cpu(self) -> float:
        """CPU seconds of the process, less those of the sampler."""
        if self._sampler_clock is None:
            return time.process_time()
        if threading.get_ident() == self._thread.ident:
            return time.process_time() - time.thread_time()
        while True:
            # retry if the sampler ran between the reads
            sampler = time.clock_gettime(self._sampler_clock)
            process = time.process_time()
            if time.clock_gettime(self._sampler_clock) == sampler:
                return process - sampler

    def now(self) -> float:
        while True:
            state = self._state
            cpu = self.program_cpu()
            if self._state is state:
                break
        cpu0, ref0, slowdown = state
        # the two threads read their clocks a few hundred ns apart; never
        # let that show as time running backwards
        self._last = max(self._last, ref0 + (cpu - cpu0) / slowdown)
        return self._last

    def _kernel_slowdown(self) -> float:
        start = time.thread_time()
        kernel()
        return (time.thread_time() - start) / REFERENCE_KERNEL_S

    def _sample(self):
        while not self._stop.wait(self.interval):
            self._recent.append(self._kernel_slowdown())
            cpu0, ref0, slowdown = self._state
            cpu = self.program_cpu()
            # the stretch just ended keeps the slowdown it started with,
            # so the clock is continuous and never runs backwards
            self._state = (cpu, ref0 + (cpu - cpu0) / slowdown,
                           statistics.median(self._recent))
