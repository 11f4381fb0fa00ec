"""Host-speed sampling: a tiny fixed piece of pure-Python work, timed while a job runs.

On a shared host the same job can take 1.5x longer from one minute to the
next, and CPU time grows with wall time, so neither shows the program's own
cost.  A `Sampler` times `tick()` from a SIGPROF handler inside every process
of the job, so it samples the CPUs the job runs on while it runs; the median
tick time says how fast the host ran interpreter code during the job.  The
work is written in the idiom of majpat's hot loops (tuple rebuilding,
recursion, value-interval pruning) and must never change: a change rescales
every calibrated metric.
"""
from __future__ import annotations

import os
import signal
import struct
from time import perf_counter

PATTERN = (1, 3, 2, 4)
TICK_LEN = 5
TICK_COUNTS = [1, 1, 2, 6, 23, 103]
INTERVAL_S = 0.05


def _occurs_at_last(word, pattern, start, chosen):
    j = len(chosen)
    if j == len(pattern) - 1:
        return True
    lo, hi = 0, len(word) + 1
    for t in range(j):
        if pattern[t] < pattern[j]:
            lo = max(lo, chosen[t])
        else:
            hi = min(hi, chosen[t])
    if pattern[j] < pattern[-1]:
        hi = min(hi, word[-1])
    else:
        lo = max(lo, word[-1])
    for pos in range(start, len(word) - 1):
        if lo < word[pos] < hi:
            chosen.append(word[pos])
            if _occurs_at_last(word, pattern, pos + 1, chosen):
                return True
            chosen.pop()
    return False


def _walk(word, counts):
    counts[len(word)] += 1
    if len(word) == TICK_LEN:
        return
    for v in range(1, len(word) + 2):
        child = tuple(x + 1 if x >= v else x for x in word) + (v,)
        if not _occurs_at_last(child, PATTERN, 0, []):
            _walk(child, counts)


def tick() -> float:
    """Seconds taken to walk the 1324-avoiders of length up to TICK_LEN."""
    counts = [0] * (TICK_LEN + 1)
    t0 = perf_counter()
    _walk((), counts)
    elapsed = perf_counter() - t0
    if counts != TICK_COUNTS:
        raise RuntimeError(f"tick miscounted: {counts}")
    return elapsed


class Sampler:
    """Times tick() after every INTERVAL_S seconds of CPU time, in this process
    and in every process forked from it after start() (majpat's workers).
    Samples travel through a pipe, so the workers' samples reach the parent."""

    def start(self) -> None:
        self._read, self._write = os.pipe()
        os.set_blocking(self._read, False)
        os.set_blocking(self._write, False)
        signal.signal(signal.SIGPROF, self._on_timer)
        os.register_at_fork(after_in_child=self._arm)
        self._arm()

    def _arm(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def _on_timer(self, signum, frame) -> None:
        try:
            os.write(self._write, struct.pack("qd", os.getpid(), tick()))
        except BlockingIOError:  # a full pipe drops the sample, never the job
            pass

    def stop(self) -> dict[int, list[float]]:
        """Stop sampling in this process; every sample taken, by process id,
        once the workers have exited."""
        signal.setitimer(signal.ITIMER_PROF, 0)
        os.close(self._write)
        data = b""
        try:
            while chunk := os.read(self._read, 65536):
                data += chunk
        except BlockingIOError:
            pass
        os.close(self._read)
        samples: dict[int, list[float]] = {}
        for pid, seconds in struct.iter_unpack("qd", data):
            samples.setdefault(pid, []).append(seconds)
        return samples
