"""Simulated-cycle groups and the open-loop goodput replay."""

from __future__ import annotations

import random

from repro.analysis.critpath import percentile


# Simulated-cycle groups over ``CycleCounter.breakdown()`` categories.
# A category belongs to the first group with a matching prefix; the rest
# fall into ``other`` so the groups always add up to the total.
CYCLE_GROUPS: list[tuple[str, tuple[str, ...]]] = [
    ("sdk", ("sdk-ecall", "sdk-ocall", "memcpy", "switchless")),
    ("switch", ("eenter", "eexit", "tlb-warmup")),
    ("hypercall", ("hypercall",)),
    ("kernel", ("kernel-work", "syscall", "ctxsw", "signal", "interrupt",
                "netstack", "os-fault", "vfs")),
    ("aex", ("aex", "eresume", "pf:", "exception")),
    ("memory", ("enclave-memory", "pte-fill", "npt-fill", "pte-update",
                "own-pt-update", "invlpg", "demand-paging", "tlb-shootdown")),
    ("swap", ("swap-out", "swap-in")),
    ("compute", ("compute",)),
]
GROUP_NAMES = [name for name, _ in CYCLE_GROUPS] + ["other"]


def group_of(category: str) -> str:
    for name, prefixes in CYCLE_GROUPS:
        if category.startswith(prefixes):
            return name
    return "other"


def cycle_groups(before: dict, after: dict) -> dict[str, float]:
    """Cycles charged per group between two ``breakdown()`` snapshots."""
    out = dict.fromkeys(GROUP_NAMES, 0.0)
    for category, total in after.items():
        delta = total - before.get(category, 0)
        if delta:
            out[group_of(category)] += delta
    return out


# Offered rates (requests per million simulated cycles, all tenants
# together) tried by the goodput replay: a geometric grid, 32 steps per
# doubling, from 1/16 to 1024.
RATE_GRID = [2.0 ** (k / 32.0) for k in range(-128, 321)]
REPLAY_ROUNDS = 4


def open_loop_goodput(service: dict[object, list[float]], limit_cycles: float,
                      seed: int) -> float:
    """Highest grid rate an open loop sustains within the p99 limit.

    ``service`` maps each tenant (one vCPU, one FIFO) to the simulated
    service cycles its requests took in the closed loop, in order.  Each
    tenant receives ``rate / tenants`` Poisson arrivals per Mcycle and
    replays its service times :data:`REPLAY_ROUNDS` times; a request's
    latency runs from when it was due.  A rate passes when every
    tenant's utilization is below 1 (no growing backlog) and the p99
    latency over all tenants is under ``limit_cycles``.  The result is
    the highest passing grid rate (0.0 if none passes).  With common
    random numbers every latency grows with the rate, so passing is
    monotone and a binary search over the grid finds it.
    """
    tenants = sorted(service, key=str)
    # One unit-rate gap sequence per tenant, scaled per rate, so a
    # higher rate never gets luckier arrivals.
    gaps = {}
    for index, tenant in enumerate(tenants):
        rng = random.Random(seed * 7919 + index)
        n = len(service[tenant]) * REPLAY_ROUNDS
        gaps[tenant] = [rng.expovariate(1.0) for _ in range(n)]

    def passes(rate: float) -> bool:
        per_tenant = rate / len(tenants) / 1e6        # arrivals per cycle
        latencies: list[float] = []
        for tenant in tenants:
            times = service[tenant]
            if per_tenant * sum(times) / len(times) >= 1.0:
                return False
            due = 0.0
            free = 0.0
            for i, gap in enumerate(gaps[tenant]):
                due += gap / per_tenant
                start = due if due > free else free
                free = start + times[i % len(times)]
                latencies.append(free - due)
        latencies.sort()
        return percentile(latencies, 0.99) < limit_cycles

    low, high = -1, len(RATE_GRID)       # passes(low) holds, high fails
    while high - low > 1:
        mid = (low + high) // 2
        if passes(RATE_GRID[mid]):
            low = mid
        else:
            high = mid
    return RATE_GRID[low] if low >= 0 else 0.0
