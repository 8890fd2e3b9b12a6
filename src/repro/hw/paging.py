"""x86-64-style 4-level page tables, stored in simulated physical memory.

Page-table pages are real frames; entries are real 8-byte little-endian
PTEs with present / writable / user / accessed / dirty / NX bits and a
frame number.  The walker reports how many memory references it made so
the MMU can charge cycles, and the :class:`NestedTranslator` performs the
full two-dimensional walk (every guest-page-table access is itself
translated through the NPT), which is where the GU-Enclave / HU-Enclave
cost difference physically comes from.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.errors import NestedPageFault, PageFault
from repro.hw.phys import PAGE_SIZE, PhysicalMemory

ENTRY_SIZE = 8
ENTRIES_PER_TABLE = PAGE_SIZE // ENTRY_SIZE
LEVELS = 4
VA_BITS = 48
_ADDR_MASK = 0x000F_FFFF_FFFF_F000


class PageTableFlags(enum.IntFlag):
    """PTE flag bits (subset of x86-64)."""

    PRESENT = 1 << 0
    WRITABLE = 1 << 1
    USER = 1 << 2
    ACCESSED = 1 << 5
    DIRTY = 1 << 6
    NX = 1 << 63

    # Convenience combinations.
    RW = PRESENT | WRITABLE
    URW = PRESENT | WRITABLE | USER
    URX = PRESENT | USER
    UR = PRESENT | USER | NX


@dataclass(frozen=True, slots=True)
class Translation:
    """Result of a successful walk."""

    pa: int
    flags: PageTableFlags
    refs: int               # page-table memory references made


@dataclass
class PagingStats:
    """Always-on lightweight walk counters for one page-table domain.

    Like :class:`~repro.hw.tlb.Tlb` hit/miss counts, these are plain int
    increments — cheap enough to leave unconditional — sampled by the
    telemetry hardware collectors at snapshot time.
    """

    walks: int = 0           # translate() calls
    refs: int = 0            # page-table memory references
    faults: int = 0          # walks that raised PageFault
    nested_walks: int = 0    # NestedTranslator two-dimensional walks
    nested_refs: int = 0

    def as_dict(self) -> dict[str, int]:
        return {"walks": self.walks, "refs": self.refs,
                "faults": self.faults, "nested_walks": self.nested_walks,
                "nested_refs": self.nested_refs}


# Plain-int views of the PTE bits.  The walker runs behind every simulated
# load and store, and each IntFlag operation is a Python-level call, so the
# hot paths test bits on ints and build a PageTableFlags only for the
# Translation they return.
_PRESENT = PageTableFlags.PRESENT.value
_WRITABLE = PageTableFlags.WRITABLE.value
_USER = PageTableFlags.USER.value
_ACCESSED = PageTableFlags.ACCESSED.value
_ACCESSED_DIRTY = _ACCESSED | PageTableFlags.DIRTY.value
_NX = PageTableFlags.NX.value
_TABLE_ENTRY = _PRESENT | _WRITABLE | _USER  # intermediate entries
_FLAG_MASK = ~_ADDR_MASK & (2 ** 64 - 1)
_PAGE_OFFSET = PAGE_SIZE - 1
_VA_LIMIT = 1 << VA_BITS
# ``(va >> (shift - 3)) & _SLOT`` is the byte offset of the entry for the
# level that indexes ``va >> shift``: its 9-bit index times ENTRY_SIZE.
_SLOT = (ENTRIES_PER_TABLE - 1) * ENTRY_SIZE


class _FlagTable(dict):
    """PTE flag bits -> PageTableFlags without the enum constructor's cost.

    Holds every combination of the defined bits; any other value (a PTE
    with software-available bits set) is built on demand, not stored.
    """

    def __missing__(self, bits: int) -> PageTableFlags:
        return PageTableFlags(bits)


def _defined_flag_values() -> list[int]:
    values = [0]
    for flag in PageTableFlags:         # the single-bit members
        values += [value | flag.value for value in values]
    return values


_LEAF_FLAGS = _FlagTable((bits, PageTableFlags(bits))
                         for bits in _defined_flag_values())


def _protection_fault(va: int, entry: int, write: bool, user: bool,
                      fetch: bool) -> PageFault:
    """The #PF for an access the present leaf ``entry`` does not allow.

    Checks run in hardware order: write, then user, then fetch.
    """
    if write and not entry & _WRITABLE:
        return PageFault(va, write=True, user=user, present=True)
    if user and not entry & _USER:
        return PageFault(va, write=write, user=True, present=True)
    return PageFault(va, fetch=True, user=user, present=True)


def page_of(va: int) -> int:
    """The page-aligned base of ``va``."""
    return va & ~(PAGE_SIZE - 1)


class PageTable:
    """One 4-level page table rooted at a physical frame.

    ``frame_alloc``/``frame_free`` supply intermediate table pages — the
    monitor passes its reserved pool, the primary OS its normal pool, so
    table memory is owned by whoever manages the mapping.
    """

    def __init__(self, phys: PhysicalMemory, frame_alloc: Callable[[], int],
                 frame_free: Callable[[int], None] | None = None,
                 stats: PagingStats | None = None,
                 asid: int | None = None) -> None:
        self.phys = phys
        self._alloc = frame_alloc
        self._free = frame_free
        self.stats = stats
        # Sanitizer metadata: ``asid`` ties this table to the TLB tag its
        # translations are cached under (enclave page tables use the
        # enclave id), so unmap/protect can be checked against shootdowns.
        # ``untrusted`` marks OS/process tables the sanitizer polices for
        # monitor/enclave-frame reachability.
        self.asid = asid
        self.untrusted = False
        self.root_pa = frame_alloc()
        self._table_frames: set[int] = {self.root_pa}

    # -- mapping management --------------------------------------------------

    def map(self, va: int, pa: int, flags: PageTableFlags) -> None:
        """Install a 4 KB mapping ``va -> pa`` with ``flags``."""
        if not 0 <= va < _VA_LIMIT:
            raise PageFault(va, present=False)
        if va % PAGE_SIZE or pa % PAGE_SIZE:
            raise ValueError("map() requires page-aligned va and pa")
        sanitizer = self.phys.sanitizer
        if sanitizer is not None:
            sanitizer.on_pt_map(self, va, pa)
        entry_pa = self._ensure_entry(va)
        self.phys.write_u64(entry_pa, pa | int(flags) | _PRESENT)

    def unmap(self, va: int) -> int:
        """Remove the mapping for ``va``; returns the old PA."""
        entry_pa = self._find_entry(va)
        if entry_pa is None:
            raise PageFault(va, present=False)
        entry = self.phys.read_u64(entry_pa)
        if not entry & _PRESENT:
            raise PageFault(va, present=False)
        self.phys.write_u64(entry_pa, 0)
        old_pa = entry & _ADDR_MASK
        sanitizer = self.phys.sanitizer
        if sanitizer is not None:
            sanitizer.on_pt_unmap(self, va, old_pa)
        return old_pa

    def protect(self, va: int, flags: PageTableFlags) -> None:
        """Replace the permission flags of an existing mapping."""
        entry_pa = self._find_entry(va)
        if entry_pa is None:
            raise PageFault(va, present=False)
        entry = self.phys.read_u64(entry_pa)
        if not entry & _PRESENT:
            raise PageFault(va, present=False)
        pa = entry & _ADDR_MASK
        self.phys.write_u64(entry_pa, pa | int(flags) | _PRESENT)
        sanitizer = self.phys.sanitizer
        if sanitizer is not None:
            sanitizer.on_pt_protect(self, va)

    def is_mapped(self, va: int) -> bool:
        try:
            self.translate(va)
            return True
        except PageFault:
            return False

    def mappings(self) -> Iterator[tuple[int, int, PageTableFlags]]:
        """Iterate all (va, pa, flags) leaf mappings (for tests/debug)."""
        yield from self._walk_tables(self.root_pa, LEVELS - 1, 0)

    def _walk_tables(self, table_pa: int, level: int,
                     va_prefix: int) -> Iterator[tuple[int, int, PageTableFlags]]:
        for i in range(ENTRIES_PER_TABLE):
            entry = self.phys.read_u64(table_pa + i * ENTRY_SIZE)
            if not entry & _PRESENT:
                continue
            va = va_prefix | (i << (12 + 9 * level))
            if level == 0:
                yield va, entry & _ADDR_MASK, _LEAF_FLAGS[entry & _FLAG_MASK]
            else:
                yield from self._walk_tables(entry & _ADDR_MASK, level - 1, va)

    # -- translation ----------------------------------------------------------

    def translate(self, va: int, *, write: bool = False, user: bool = True,
                  fetch: bool = False, set_accessed: bool = True) -> Translation:
        """Walk the table; raise :class:`PageFault` on failure."""
        stats = self.stats
        if stats is None:
            return self._walk(va, write=write, user=user, fetch=fetch,
                              set_accessed=set_accessed)
        stats.walks += 1
        try:
            result = self._walk(va, write=write, user=user, fetch=fetch,
                                set_accessed=set_accessed)
        except PageFault:
            stats.faults += 1
            raise
        stats.refs += result.refs
        return result

    def _walk(self, va: int, *, write: bool, user: bool,
              fetch: bool, set_accessed: bool) -> Translation:
        if not 0 <= va < _VA_LIMIT:
            raise PageFault(va, present=False)
        read_u64 = self.phys.read_u64
        # Levels 3..0 index va bits 47:39, 38:30, 29:21 and 20:12.
        entry = read_u64(self.root_pa + ((va >> 36) & _SLOT))
        if entry & _PRESENT:
            entry = read_u64((entry & _ADDR_MASK) + ((va >> 27) & _SLOT))
            if entry & _PRESENT:
                entry = read_u64((entry & _ADDR_MASK) + ((va >> 18) & _SLOT))
                if entry & _PRESENT:
                    entry_pa = (entry & _ADDR_MASK) + ((va >> 9) & _SLOT)
                    entry = read_u64(entry_pa)
        if not entry & _PRESENT:
            raise PageFault(va, write=write, user=user, fetch=fetch,
                            present=False)
        if (write and not entry & _WRITABLE) or (user and not entry & _USER) \
                or (fetch and entry & _NX):
            raise _protection_fault(va, entry, write, user, fetch)
        if set_accessed:
            new = entry | (_ACCESSED_DIRTY if write else _ACCESSED)
            if new != entry:
                self.phys.write_u64(entry_pa, new)
        return Translation((entry & _ADDR_MASK) | (va & _PAGE_OFFSET),
                           _LEAF_FLAGS[entry & _FLAG_MASK], LEVELS)

    # -- internals -------------------------------------------------------------

    def _ensure_entry(self, va: int) -> int:
        """Walk down, allocating intermediate tables; return the leaf PTE PA."""
        read_u64 = self.phys.read_u64
        table_pa = self.root_pa
        for shift in (36, 27, 18):
            entry_pa = table_pa + ((va >> shift) & _SLOT)
            entry = read_u64(entry_pa)
            if not entry & _PRESENT:
                new_table = self._alloc()
                self._table_frames.add(new_table)
                # Intermediate entries: present+writable+user; leaf flags rule.
                self.phys.write_u64(entry_pa, new_table | _TABLE_ENTRY)
                table_pa = new_table
            else:
                table_pa = entry & _ADDR_MASK
        return table_pa + ((va >> 9) & _SLOT)

    def _find_entry(self, va: int) -> int | None:
        """Return the leaf PTE PA for ``va`` or None if tables are missing."""
        if not 0 <= va < _VA_LIMIT:
            raise PageFault(va, present=False)
        read_u64 = self.phys.read_u64
        table_pa = self.root_pa
        for shift in (36, 27, 18):
            entry = read_u64(table_pa + ((va >> shift) & _SLOT))
            if not entry & _PRESENT:
                return None
            table_pa = entry & _ADDR_MASK
        return table_pa + ((va >> 9) & _SLOT)

    def destroy(self) -> None:
        """Free all table frames back to the allocator."""
        if self._free is None:
            return
        for frame in sorted(self._table_frames, reverse=True):
            self._free(frame)
        self._table_frames.clear()


class NestedTranslator:
    """Two-dimensional (guest PT + nested PT) address translation.

    Mirrors hardware nested paging: each guest-page-table access during the
    GPT walk is itself a guest-physical address that must be translated
    through the NPT, so a full 4+4-level walk makes up to 24 references.
    """

    def __init__(self, gpt: PageTable, npt: PageTable,
                 stats: PagingStats | None = None) -> None:
        self.gpt = gpt
        self.npt = npt
        self.stats = stats

    def translate(self, gva: int, *, write: bool = False, user: bool = True,
                  fetch: bool = False) -> Translation:
        if self.stats is not None:
            self.stats.nested_walks += 1
        refs = 0
        table_gpa = self.gpt.root_pa
        read_u64 = self.gpt.phys.read_u64
        for shift in (36, 27, 18, 9):
            # The GPT table page itself lives at a guest-physical address:
            # translate it through the NPT first.
            table_hpa, npt_refs = self._npt_translate(table_gpa, write=False)
            refs += npt_refs + 1
            entry = read_u64(table_hpa + ((gva >> shift) & _SLOT))
            if not entry & _PRESENT:
                raise PageFault(gva, write=write, user=user, fetch=fetch,
                                present=False)
            table_gpa = entry & _ADDR_MASK
        if (write and not entry & _WRITABLE) or (user and not entry & _USER) \
                or (fetch and entry & _NX):
            raise _protection_fault(gva, entry, write, user, fetch)
        leaf_hpa, npt_refs = self._npt_translate(
            table_gpa | (gva & _PAGE_OFFSET), write=write)
        refs += npt_refs
        if self.stats is not None:
            self.stats.nested_refs += refs
        return Translation(leaf_hpa, _LEAF_FLAGS[entry & _FLAG_MASK], refs)

    def _npt_translate(self, gpa: int, *, write: bool) -> tuple[int, int]:
        try:
            result = self.npt.translate(gpa, write=write, user=True)
        except PageFault as fault:
            raise NestedPageFault(gpa, write=write,
                                  present=fault.present) from fault
        return result.pa, result.refs
