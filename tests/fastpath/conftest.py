"""The reference oracle for the memory pipeline.

:func:`reference_touch` is the per-page/per-line loop the layered
pipeline in :mod:`repro.hw.memmodel` replaced: one TLB lookup (walk and
insert on a miss) and EPC access per page, then one
:meth:`~repro.hw.cache.Llc.access_ex` and one engine
:meth:`~repro.hw.memenc.EncryptionEngine.miss_cycles` per line.  It is
slow and obviously right.  :func:`reference_memory` swaps it in for
``MemorySubsystem._touch`` so every test here can run one workload
through both implementations and demand bit-identical observables.

The shipped pipeline re-associates cost sums (``n * cost`` instead of
``cost + cost + ...``), which is exact in floating point only when every
constant involved is integer-valued; this module refuses to import
otherwise, so a calibration with fractional per-line costs fails the
suite loudly instead of drifting silently.
"""

from __future__ import annotations

import contextlib

from repro.hw import costs
from repro.hw.memenc import AmdSme, IntelMee
from repro.hw.memmodel import MemorySubsystem
from repro.hw.phys import PAGE_SIZE

# Every constant the shipped pipeline multiplies or sums out of order.
REASSOCIATED_COSTS = (
    costs.LLC_HIT_CYCLES, costs.DRAM_CYCLES, costs.SEQ_STREAM_CYCLES,
    costs.PAGE_WALK_GUEST_CYCLES, costs.PAGE_WALK_NESTED_CYCLES,
    costs.MEE_METADATA_PROBE_CYCLES, costs.MEE_METADATA_MISS_CYCLES,
    costs.SGX_EPC_POPULATE_CYCLES, costs.SGX_EPC_FAULT_CYCLES,
    costs.SGX_EPC_FAULT_BATCHED_CYCLES,
    *(value for engine in (AmdSme(), IntelMee())
      for value in (engine.per_miss, engine.per_writeback,
                    engine.per_stream_miss)))
assert all(float(value).is_integer() for value in REASSOCIATED_COSTS), \
    "re-associated cost constants must be integer-valued"


def reference_touch(self: MemorySubsystem, addr: int, size: int,
                    write: bool, streaming: bool) -> float:
    """Per-page/per-line reference for ``MemorySubsystem._touch``."""
    charged = 0.0
    walk = (costs.PAGE_WALK_NESTED_CYCLES if self.nested_paging
            else costs.PAGE_WALK_GUEST_CYCLES)
    for page in range(addr // PAGE_SIZE, (addr + size - 1) // PAGE_SIZE + 1):
        if self.tlb.lookup(self.asid, page * PAGE_SIZE) is None:
            charged += walk
            self.tlb.insert(self.asid, page * PAGE_SIZE, page * PAGE_SIZE,
                            flags=0)
        if self.epc is not None:
            charged += self.epc.access(page)

    if streaming:
        miss_base = costs.SEQ_STREAM_CYCLES * (costs.CACHE_LINE // 8)
    else:
        miss_base = costs.DRAM_CYCLES
    for line in range(addr // costs.CACHE_LINE,
                      (addr + size - 1) // costs.CACHE_LINE + 1):
        hit, evicted_dirty = self.llc.access_ex(line, write=write)
        if hit:
            charged += costs.LLC_HIT_CYCLES
        else:
            charged += miss_base
            charged += self.engine.miss_cycles(line, write=write,
                                               streaming=streaming)
        if evicted_dirty:
            charged += self.engine.writeback_cycles()

    self.cycles.charge(charged, self.category)
    return charged


@contextlib.contextmanager
def reference_memory():
    """Run every ``MemorySubsystem`` touch through the reference loops."""
    shipped = MemorySubsystem._touch
    MemorySubsystem._touch = reference_touch
    try:
        yield
    finally:
        MemorySubsystem._touch = shipped


def shipped_and_reference(run):
    """``(run(), run() under reference_memory())``, for exact comparison."""
    shipped = run()
    with reference_memory():
        reference = run()
    return shipped, reference
