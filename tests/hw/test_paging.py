"""Tests for 4-level page tables and the nested (2-D) walker."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NestedPageFault, PageFault
from repro.hw.paging import (_ADDR_MASK, ENTRIES_PER_TABLE, ENTRY_SIZE,
                             LEVELS, NestedTranslator, PageTable,
                             PageTableFlags, PagingStats, Translation)
from repro.hw.phys import NORMAL, PAGE_SIZE, FramePool, PhysicalMemory

F = PageTableFlags


@pytest.fixture
def phys():
    return PhysicalMemory(4096 * PAGE_SIZE)


@pytest.fixture
def pool(phys):
    return FramePool(phys, 0, 2048 * PAGE_SIZE, NORMAL)


@pytest.fixture
def pt(phys, pool):
    return PageTable(phys, pool.alloc, pool.free)


def test_map_translate_roundtrip(pt):
    pt.map(0x40000000, 0x123000, F.URW)
    t = pt.translate(0x40000000 + 0x42)
    assert t.pa == 0x123042


def test_translate_unmapped_faults(pt):
    with pytest.raises(PageFault) as exc:
        pt.translate(0x1000)
    assert not exc.value.present


def test_write_to_readonly_faults(pt):
    pt.map(0x1000, 0x2000, F.UR)
    with pytest.raises(PageFault) as exc:
        pt.translate(0x1000, write=True)
    assert exc.value.present
    assert exc.value.write


def test_user_access_to_supervisor_page_faults(pt):
    pt.map(0x1000, 0x2000, F.RW)  # no USER bit
    with pytest.raises(PageFault):
        pt.translate(0x1000, user=True)
    # Supervisor access is fine.
    assert pt.translate(0x1000, user=False).pa == 0x2000


def test_nx_blocks_fetch(pt):
    pt.map(0x1000, 0x2000, F.UR)
    with pytest.raises(PageFault) as exc:
        pt.translate(0x1000, fetch=True)
    assert exc.value.fetch


def test_executable_page_fetches(pt):
    pt.map(0x1000, 0x2000, F.URX)
    assert pt.translate(0x1000, fetch=True).pa == 0x2000


def test_accessed_and_dirty_bits(pt):
    pt.map(0x1000, 0x2000, F.URW)
    pt.translate(0x1000)
    (_, _, flags), = [m for m in pt.mappings()]
    assert flags & F.ACCESSED
    assert not flags & F.DIRTY
    pt.translate(0x1000, write=True)
    (_, _, flags), = [m for m in pt.mappings()]
    assert flags & F.DIRTY


def test_unmap(pt):
    pt.map(0x1000, 0x2000, F.URW)
    old = pt.unmap(0x1000)
    assert old == 0x2000
    with pytest.raises(PageFault):
        pt.translate(0x1000)


def test_unmap_missing_faults(pt):
    with pytest.raises(PageFault):
        pt.unmap(0x9000)


def test_protect_changes_permissions(pt):
    pt.map(0x1000, 0x2000, F.URW)
    pt.protect(0x1000, F.UR)
    with pytest.raises(PageFault):
        pt.translate(0x1000, write=True)
    assert pt.translate(0x1000).pa == 0x2000


def test_protect_missing_faults(pt):
    with pytest.raises(PageFault):
        pt.protect(0x8000, F.UR)


def test_unaligned_map_rejected(pt):
    with pytest.raises(ValueError):
        pt.map(0x1001, 0x2000, F.URW)


def test_non_canonical_va_faults(pt):
    with pytest.raises(PageFault):
        pt.translate(1 << 48)


def test_walk_reference_count(pt):
    pt.map(0x1000, 0x2000, F.URW)
    assert pt.translate(0x1000).refs == LEVELS


def test_mappings_enumeration(pt):
    pt.map(0x1000, 0x2000, F.URW)
    pt.map(0x8000000000, 0x3000, F.UR)
    mapped = {va: pa for va, pa, _ in pt.mappings()}
    assert mapped == {0x1000: 0x2000, 0x8000000000: 0x3000}


def test_destroy_returns_frames(phys, pool):
    before = pool.free_pages
    pt = PageTable(phys, pool.alloc, pool.free)
    pt.map(0x1000, 0x2000, F.URW)
    pt.destroy()
    assert pool.free_pages == before


def test_is_mapped(pt):
    assert not pt.is_mapped(0x1000)
    pt.map(0x1000, 0x2000, F.URW)
    assert pt.is_mapped(0x1000)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(
    st.integers(min_value=0, max_value=(1 << 36) - 1),
    st.integers(min_value=0, max_value=1000),
), min_size=1, max_size=20, unique_by=lambda t: t[0]))
def test_property_mappings_independent(entries):
    """Mapping many pages never cross-contaminates translations."""
    phys = PhysicalMemory(8192 * PAGE_SIZE)
    pool = FramePool(phys, 0, 4096 * PAGE_SIZE, NORMAL)
    pt = PageTable(phys, pool.alloc, pool.free)
    table = {}
    for vpn, pfn in entries:
        va = vpn * PAGE_SIZE
        pa = (4096 + pfn) * PAGE_SIZE
        pt.map(va, pa, F.URW)
        table[va] = pa
    for va, pa in table.items():
        assert pt.translate(va).pa == pa


class TestNestedTranslator:
    @pytest.fixture
    def nested(self, phys, pool):
        # NPT: identity-map guest-physical 0..64 MB (as the monitor would).
        npt = PageTable(phys, pool.alloc, pool.free)
        for page in range(0, 2048):
            npt.map(page * PAGE_SIZE, page * PAGE_SIZE, F.URW)
        gpt = PageTable(phys, pool.alloc, pool.free)
        return NestedTranslator(gpt, npt), gpt, npt

    def test_two_dimensional_translation(self, nested):
        tr, gpt, npt = nested
        gpt.map(0x7000, 0x9000, F.URW)
        result = tr.translate(0x7123)
        assert result.pa == 0x9123

    def test_nested_walk_makes_many_refs(self, nested):
        tr, gpt, npt = nested
        gpt.map(0x7000, 0x9000, F.URW)
        # 4 GPT levels, each needing an NPT walk (4 refs) + the leaf NPT
        # walk: (4+1)*4 + 4 = 24 references.
        assert tr.translate(0x7000).refs == 24

    def test_guest_fault_propagates(self, nested):
        tr, gpt, npt = nested
        with pytest.raises(PageFault):
            tr.translate(0x7000)

    def test_npt_hole_raises_nested_fault(self, nested):
        tr, gpt, npt = nested
        gpt.map(0x7000, 0x9000, F.URW)
        npt.unmap(0x9000)
        with pytest.raises(NestedPageFault):
            tr.translate(0x7000)

    def test_guest_permissions_enforced(self, nested):
        tr, gpt, npt = nested
        gpt.map(0x7000, 0x9000, F.UR)
        with pytest.raises(PageFault):
            tr.translate(0x7000, write=True)


# -- equivalence with the IntFlag reference walker ---------------------------
#
# The walker and the mapping operations test PTE bits on plain ints.  The
# classes below are the IntFlag implementation they replaced (minus the
# sanitizer hooks and table-frame bookkeeping), kept as the oracle: on
# identical physical memory both must return the same Translation, raise
# the same fault, leave the same PTE bytes (accessed and dirty bits) and
# count the same statistics.

_ORACLE_VA_BITS = 48


def _oracle_index(va, level):
    return (va >> (12 + 9 * level)) & (ENTRIES_PER_TABLE - 1)


class OraclePageTable:
    def __init__(self, phys, frame_alloc, stats=None):
        self.phys = phys
        self._alloc = frame_alloc
        self.stats = stats
        self.root_pa = frame_alloc()

    def map(self, va, pa, flags):
        self._check_canonical(va)
        if va % PAGE_SIZE or pa % PAGE_SIZE:
            raise ValueError("map() requires page-aligned va and pa")
        entry_pa = self._ensure_entry(va)
        self.phys.write_u64(entry_pa,
                            pa | int(flags | PageTableFlags.PRESENT))

    def unmap(self, va):
        entry_pa = self._find_entry(va)
        if entry_pa is None:
            raise PageFault(va, present=False)
        entry = self.phys.read_u64(entry_pa)
        if not entry & PageTableFlags.PRESENT:
            raise PageFault(va, present=False)
        self.phys.write_u64(entry_pa, 0)
        return entry & _ADDR_MASK

    def protect(self, va, flags):
        entry_pa = self._find_entry(va)
        if entry_pa is None:
            raise PageFault(va, present=False)
        entry = self.phys.read_u64(entry_pa)
        if not entry & PageTableFlags.PRESENT:
            raise PageFault(va, present=False)
        pa = entry & _ADDR_MASK
        self.phys.write_u64(entry_pa, pa | int(flags | PageTableFlags.PRESENT))

    def translate(self, va, *, write=False, user=True, fetch=False,
                  set_accessed=True):
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

    def _walk(self, va, *, write, user, fetch, set_accessed):
        self._check_canonical(va)
        table_pa = self.root_pa
        refs = 0
        for level in range(LEVELS - 1, -1, -1):
            entry_pa = table_pa + _oracle_index(va, level) * ENTRY_SIZE
            entry = self.phys.read_u64(entry_pa)
            refs += 1
            if not entry & PageTableFlags.PRESENT:
                raise PageFault(va, write=write, user=user, fetch=fetch,
                                present=False)
            if level == 0:
                flags = PageTableFlags(entry & ~_ADDR_MASK)
                self._check_permissions(va, flags, write, user, fetch)
                if set_accessed:
                    new = entry | PageTableFlags.ACCESSED
                    if write:
                        new |= PageTableFlags.DIRTY
                    if new != entry:
                        self.phys.write_u64(entry_pa, new)
                return Translation(
                    pa=(entry & _ADDR_MASK) | (va & (PAGE_SIZE - 1)),
                    flags=flags, refs=refs)
            table_pa = entry & _ADDR_MASK
        raise AssertionError("unreachable")

    @staticmethod
    def _check_permissions(va, flags, write, user, fetch):
        if write and not flags & PageTableFlags.WRITABLE:
            raise PageFault(va, write=True, user=user, present=True)
        if user and not flags & PageTableFlags.USER:
            raise PageFault(va, write=write, user=True, present=True)
        if fetch and flags & PageTableFlags.NX:
            raise PageFault(va, fetch=True, user=user, present=True)

    def _ensure_entry(self, va):
        table_pa = self.root_pa
        for level in range(LEVELS - 1, 0, -1):
            entry_pa = table_pa + _oracle_index(va, level) * ENTRY_SIZE
            entry = self.phys.read_u64(entry_pa)
            if not entry & PageTableFlags.PRESENT:
                new_table = self._alloc()
                self.phys.write_u64(entry_pa, new_table | int(
                    PageTableFlags.PRESENT | PageTableFlags.WRITABLE |
                    PageTableFlags.USER))
                table_pa = new_table
            else:
                table_pa = entry & _ADDR_MASK
        return table_pa + _oracle_index(va, 0) * ENTRY_SIZE

    def _find_entry(self, va):
        self._check_canonical(va)
        table_pa = self.root_pa
        for level in range(LEVELS - 1, 0, -1):
            entry_pa = table_pa + _oracle_index(va, level) * ENTRY_SIZE
            entry = self.phys.read_u64(entry_pa)
            if not entry & PageTableFlags.PRESENT:
                return None
            table_pa = entry & _ADDR_MASK
        return table_pa + _oracle_index(va, 0) * ENTRY_SIZE

    @staticmethod
    def _check_canonical(va):
        if not 0 <= va < (1 << _ORACLE_VA_BITS):
            raise PageFault(va, present=False)


class OracleNestedTranslator:
    def __init__(self, gpt, npt, stats=None):
        self.gpt = gpt
        self.npt = npt
        self.stats = stats

    def translate(self, gva, *, write=False, user=True, fetch=False):
        if self.stats is not None:
            self.stats.nested_walks += 1
        refs = 0
        table_gpa = self.gpt.root_pa
        for level in range(LEVELS - 1, -1, -1):
            table_hpa, npt_refs = self._npt_translate(table_gpa, write=False)
            refs += npt_refs
            entry_pa = table_hpa + _oracle_index(gva, level) * ENTRY_SIZE
            entry = self.gpt.phys.read_u64(entry_pa)
            refs += 1
            if not entry & PageTableFlags.PRESENT:
                raise PageFault(gva, write=write, user=user, fetch=fetch,
                                present=False)
            if level == 0:
                flags = PageTableFlags(entry & ~_ADDR_MASK)
                OraclePageTable._check_permissions(gva, flags, write, user,
                                                   fetch)
                leaf_gpa = (entry & _ADDR_MASK) | (gva & (PAGE_SIZE - 1))
                leaf_hpa, npt_refs = self._npt_translate(leaf_gpa,
                                                         write=write)
                refs += npt_refs
                if self.stats is not None:
                    self.stats.nested_refs += refs
                return Translation(pa=leaf_hpa, flags=flags, refs=refs)
            table_gpa = entry & _ADDR_MASK
        raise AssertionError("unreachable")

    def _npt_translate(self, gpa, *, write):
        try:
            result = self.npt.translate(gpa, write=write, user=True)
        except PageFault as fault:
            raise NestedPageFault(gpa, write=write,
                                  present=fault.present) from fault
        return result.pa, result.refs


# Every combination of the permission and status bits a leaf can carry.
_LEAF_BITS = (F.WRITABLE, F.USER, F.NX, F.ACCESSED, F.DIRTY)
ALL_LEAF_FLAGS = [
    F.PRESENT | sum(bit for i, bit in enumerate(_LEAF_BITS) if combo >> i & 1)
    for combo in range(1 << len(_LEAF_BITS))]
ACCESSES = [dict(write=w, user=u, fetch=x)
            for w in (False, True) for u in (False, True)
            for x in (False, True)]


def _outcome(call):
    """What a call did, in a form two implementations can be compared by."""
    try:
        result = call()
    except PageFault as fault:
        return ("fault", type(fault), fault.vaddr, fault.write, fault.user,
                fault.present, fault.fetch, str(fault))
    except ValueError as exc:
        return ("value-error", str(exc))
    if isinstance(result, Translation):
        return ("translation", result.pa, type(result.flags),
                int(result.flags), result.refs)
    return ("ok", result)


# 16 MB windows at the bottom, across a 512 GB boundary, at the enclave
# base and at the top of the 48-bit space, so walks share tables.
VA_REGIONS = (0, 0x7F_FFFF_0000, 0x2000_0000_0000, (1 << 48) - (1 << 24))


def _random_va(rng):
    return rng.choice(VA_REGIONS) + rng.randrange(0, 1 << 24, PAGE_SIZE)


class _Twin:
    """The same page-table operations applied to two identical memories."""

    def __init__(self):
        self.phys = [PhysicalMemory(1024 * PAGE_SIZE) for _ in range(2)]
        pools = [FramePool(p, 0, 512 * PAGE_SIZE, NORMAL) for p in self.phys]
        self.stats = [PagingStats(), PagingStats()]
        self.tables = [
            PageTable(self.phys[0], pools[0].alloc, stats=self.stats[0]),
            OraclePageTable(self.phys[1], pools[1].alloc,
                            stats=self.stats[1])]

    def check(self, op, *args, **kwargs):
        new, old = (_outcome(lambda t=t: getattr(t, op)(*args, **kwargs))
                    for t in self.tables)
        assert new == old, (op, args, kwargs)
        assert self.phys[0].state_digest() == self.phys[1].state_digest()
        assert self.stats[0].as_dict() == self.stats[1].as_dict()
        return new


@pytest.mark.parametrize("seed", range(4))
def test_walker_matches_intflag_oracle(seed):
    rng = random.Random(seed)
    twin = _Twin()
    vas = []
    for flags in ALL_LEAF_FLAGS:
        va = _random_va(rng)
        # Half the mappings pass flags without PRESENT; map() sets it.
        given_flags = flags if rng.random() < 0.5 else flags & ~F.PRESENT
        twin.check("map", va, rng.randrange(600, 1024) * PAGE_SIZE,
                   given_flags)
        vas.append(va)
    probes = vas + [_random_va(rng) for _ in range(8)] + [
        -PAGE_SIZE, 1 << 48, (1 << 64) - PAGE_SIZE]
    for round_ in range(2):
        for va in probes:
            offset = rng.randrange(PAGE_SIZE)
            for access in ACCESSES:
                for set_accessed in (False, True):
                    twin.check("translate", va + offset,
                               set_accessed=set_accessed, **access)
        # Re-permission some pages, drop others, then walk again.
        for va in rng.sample(vas, 12):
            twin.check("protect", va, rng.choice(ALL_LEAF_FLAGS))
        for va in rng.sample(vas, 6):
            twin.check("unmap", va)
    for va in probes[-4:]:
        twin.check("unmap", va)
        twin.check("protect", va, F.URW)
        twin.check("map", va, 0x5000, F.URW)
    twin.check("map", 0x1001, 0x2000, F.URW)
    twin.check("map", 0x1000, 0x2001, F.URW)


@pytest.mark.parametrize("seed", range(3))
def test_nested_walker_matches_intflag_oracle(seed):
    rng = random.Random(seed)
    twin = _Twin()                      # the tables here are the two NPTs
    # GPT tables come from frames 512..575, which the NPT maps identity
    # URW except for one hole; guest data pages 600..647 get every leaf
    # permission combination, a fifth of them left unmapped.
    gpts = [make(phys, FramePool(phys, 512 * PAGE_SIZE, 64 * PAGE_SIZE,
                                 NORMAL).alloc)
            for phys, make in zip(twin.phys, (PageTable, OraclePageTable))]
    for page in range(576):
        if page != 520 + seed:
            twin.check("map", page * PAGE_SIZE, page * PAGE_SIZE, F.URW)
    for i, page in enumerate(range(600, 648)):
        if rng.random() >= 0.2:
            twin.check("map", page * PAGE_SIZE, (page + 200) * PAGE_SIZE,
                       ALL_LEAF_FLAGS[i % len(ALL_LEAF_FLAGS)])
    gvas = []
    for flags in ALL_LEAF_FLAGS:
        gva = _random_va(rng)
        gpa = rng.randrange(600, 648) * PAGE_SIZE
        for gpt in gpts:
            gpt.map(gva, gpa, flags)
        gvas.append(gva)
    nested_stats = [PagingStats(), PagingStats()]
    translators = [
        NestedTranslator(gpts[0], twin.tables[0], stats=nested_stats[0]),
        OracleNestedTranslator(gpts[1], twin.tables[1],
                               stats=nested_stats[1])]
    # Nested walks do not check the guest VA is canonical: high bits are
    # dropped by the table indexing, in both implementations.
    probes = gvas + [_random_va(rng) for _ in range(6)] + [
        (1 << 48) + gvas[0], -PAGE_SIZE]
    for gva in probes:
        va = gva + rng.randrange(PAGE_SIZE)
        for access in ACCESSES:
            new, old = (_outcome(lambda t=t: t.translate(va, **access))
                        for t in translators)
            assert new == old, (gva, access)
            assert twin.phys[0].state_digest() == twin.phys[1].state_digest()
            assert nested_stats[0].as_dict() == nested_stats[1].as_dict()
            assert twin.stats[0].as_dict() == twin.stats[1].as_dict()
