"""Host-speed correction for the host-time metrics.

The benchmark runs on shared hosts whose speed drifts.  On a 2-vCPU
cloud VM the same simulator loop ran from 7k to 12k requests per second
over five minutes, in states lasting from 50 ms to minutes, with no
steal time to show for it; ``kv_serving`` request times there split
into a fast (~480 us) and a slow (~760 us) mode by host state alone.
Runs a minute apart then differ by more than any change worth
measuring.  So the timed phase is interleaved with short slices of a
fixed reference kernel, plain interpreter work that shares no code with
the program, and host time is scaled to a host that runs the kernel at
:data:`REF_RATE` rounds per second:

* each request's time by the speed of the stretch it ran in (the mean
  rate of the slices just before and after it), and both percentiles
  are taken over the corrected times;
* throughput by the speed over the whole timed phase;
* set-up time by the speed of slices run around each set-up.

Over ten 20 s stretches per workload on that VM, the correction cut the
spread (IQR over median) of throughput from 15-24% to 4-7%, of the
median request time from 22-31% to 3-8%, and of the p99 on
``kv_serving`` from 22% to 13%.  On ``epc_swap`` the p99's spread went
from 7% to 11% but its range from 69% to 12% of the median.  The p99 of
``edge_calls``, whose ~200 us requests have a tail set by fixed-length
host events more than by host speed, widened from 6% to 8%.

A change to the program does not move the kernel, so it still shows in
full; a slower host slows both and divides out.  The uncorrected
figures and the speed factors are printed beside the metrics.
"""

from __future__ import annotations

import time

# Kernel rounds per second on the reference host (about what a 2-vCPU
# x86-64 VM with CPython 3 runs).  It only sets the scale of the
# corrected figures.
REF_RATE = 9_000.0
# Rounds per slice (about 44 ms at REF_RATE) and workload time between
# slices: about an eighth of the timed phase goes to the kernel.
SLICE_ROUNDS = 400
SAMPLE_EVERY_S = 0.25
# Rounds run before and after each set-up, for the set-up time's factor.
SETUP_SLICE_ROUNDS = 600


# The kernel's state lives here: a round allocates no container, so it
# never triggers the garbage collector, whose passes over the program's
# heap would tie the kernel's speed to the program.
_TABLE = [0] * 64
_BUF = bytearray(256)


def _round() -> int:
    """One round of reference work: list, bytearray and integer ops."""
    table, buf = _TABLE, _BUF
    acc = 0
    for i in range(256):
        key = (i * 7) & 63
        acc = (acc * 33 + table[key] + i) & 0xFFFFFFFF
        table[key] = acc
        buf[i] = buf[(i * 5) & 255] ^ (acc & 0xFF)
    return acc


class HostSpeed:
    """Reference-kernel rate over the slices taken so far."""

    every_s = SAMPLE_EVERY_S

    def __init__(self) -> None:
        self.rounds = 0
        self.seconds = 0.0
        self.rates: list[float] = []      # rounds per second, per slice

    def sample(self, rounds: int = SLICE_ROUNDS) -> float:
        """Run one slice of the kernel; returns its host seconds."""
        t0 = time.perf_counter()
        for _ in range(rounds):
            _round()
        spent = time.perf_counter() - t0
        self.rounds += rounds
        self.seconds += spent
        self.rates.append(rounds / spent)
        return spent

    def window_factors(self) -> list[float]:
        """Speed factor of each stretch between slices.

        Stretch ``k`` runs after slice ``k - 1`` and before slice ``k``;
        its factor is the mean rate of those two slices.
        """
        rates = self.rates
        return [sum(rates[max(k - 1, 0):k + 1])
                / len(rates[max(k - 1, 0):k + 1]) / REF_RATE
                for k in range(len(rates) + 1)] if rates else [1.0]

    def factor(self) -> float:
        """Host speed over the reference host's (below 1 when slower)."""
        return self.rounds / self.seconds / REF_RATE
