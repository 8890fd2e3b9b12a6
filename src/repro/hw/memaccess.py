"""Page-chunked copies between virtual ranges and physical memory.

Untrusted software (the OS simulation, the SDK's trusted runtime) never
touches :class:`~repro.hw.phys.PhysicalMemory` directly — every access
goes through one of these helpers with a *translate* callback supplied
by the caller.  The callback owns policy: page-table walks, demand
paging, monitor policing, enclave access control.  Keeping the raw
``phys.read``/``phys.write`` calls here (hardware layer) is what the
static checker's SC006 enforces (``python -m repro.staticcheck``).
"""

from __future__ import annotations

from typing import Callable

from repro.hw.phys import PAGE_SIZE, PhysicalMemory


def copy_in(phys: PhysicalMemory, translate: Callable[[int], int],
            va: int, size: int) -> bytes:
    """Read ``size`` bytes starting at virtual address ``va``.

    ``translate`` maps a VA to the PA of its page's base-offset byte; it
    is called once per page touched and may fault, demand-page, or
    police as the caller requires.
    """
    out = bytearray(max(size, 0))
    written = 0
    while size > 0:
        pa = translate(va)
        chunk = min(size, PAGE_SIZE - (va % PAGE_SIZE))
        out[written:written + chunk] = phys.read(pa, chunk)
        va += chunk
        size -= chunk
        written += chunk
    return bytes(out)


def copy_out(phys: PhysicalMemory, translate: Callable[[int], int],
             va: int, data: bytes) -> None:
    """Write ``data`` starting at virtual address ``va`` (same contract
    as :func:`copy_in`; ``translate`` should perform write checks)."""
    view = memoryview(data)
    while view:
        pa = translate(va)
        chunk = min(len(view), PAGE_SIZE - (va % PAGE_SIZE))
        # Hand phys.write the sub-view directly — it slices further
        # internally; no per-page bytes materialization.
        phys.write(pa, view[:chunk])
        va += chunk
        view = view[chunk:]
