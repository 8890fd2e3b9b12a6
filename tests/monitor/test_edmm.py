"""Tests for dynamic enclave memory management (EDMM, Sec 3.2)."""

import pytest

from repro.errors import EnclaveError, PageFault
from repro.hw import costs
from repro.hw.paging import PageTableFlags
from repro.hw.phys import PAGE_SIZE, OwnerKind
from repro.monitor.enclave import ENCLAVE_BASE_VA, perms_to_flags
from repro.monitor.structs import PagePerm

from .conftest import build_minimal_enclave

HEAP_VA = ENCLAVE_BASE_VA + 16 * PAGE_SIZE


class TestTrim:
    def _grown(self, platform, npages=4):
        machine, boot = platform
        monitor = boot.monitor
        eid, enclave = build_minimal_enclave(monitor, machine)
        for i in range(npages):
            monitor.handle_enclave_page_fault(eid, HEAP_VA + i * PAGE_SIZE,
                                              write=True)
        return monitor, eid, enclave

    def test_trim_returns_pages_to_pool(self, platform):
        monitor, eid, enclave = self._grown(platform)
        free_before = monitor.epc_pool.free_pages
        assert monitor.enclave_trim(eid, HEAP_VA, 4) == 4
        assert monitor.epc_pool.free_pages == free_before + 4

    def test_trimmed_pages_fault_again(self, platform):
        monitor, eid, enclave = self._grown(platform)
        monitor.enclave_trim(eid, HEAP_VA, 4)
        assert enclave.page_at(HEAP_VA) is None
        # Re-touch: demand paging recommits (the region is still reserved).
        monitor.handle_enclave_page_fault(eid, HEAP_VA, write=True)
        assert enclave.page_at(HEAP_VA) is not None

    def test_trimmed_pages_scrubbed(self, platform):
        machine, boot = platform
        monitor, eid, enclave = self._grown(platform)
        pa = enclave.page_at(HEAP_VA).pa
        machine.phys.write(pa, b"secret heap data")
        monitor.enclave_trim(eid, HEAP_VA, 1)
        assert machine.phys.read(pa, 16) == b"\x00" * 16
        assert machine.phys.owner_of(pa).kind is OwnerKind.FREE

    def test_trim_skips_uncommitted(self, platform):
        monitor, eid, enclave = self._grown(platform, npages=2)
        # Pages 0-1 committed; asking for 4 trims only 2.
        assert monitor.enclave_trim(eid, HEAP_VA, 4) == 2

    def test_trim_requires_initialized(self, platform):
        machine, boot = platform
        from repro.monitor.structs import EnclaveConfig
        eid = boot.monitor.ecreate(EnclaveConfig(), size=16 * PAGE_SIZE)
        with pytest.raises(EnclaveError):
            boot.monitor.enclave_trim(eid, ENCLAVE_BASE_VA, 1)


class TestSgx2EdmmCosts:
    def test_sgx_demand_paging_pays_eaccept_path(self, platform):
        from repro.monitor.structs import EnclaveMode
        machine, boot = platform
        monitor = boot.monitor
        eid, enclave = build_minimal_enclave(monitor, machine,
                                             mode=EnclaveMode.SGX,
                                             with_msbuf=False)
        with machine.cycles.measure() as span:
            monitor.handle_enclave_page_fault(eid, HEAP_VA, write=True)
        expected = (sum(c for _, c in costs.AEX_STEPS["sgx"])
                    + costs.SGX2_EDMM_DRIVER_CYCLES
                    + sum(c for _, c in costs.ERESUME_STEPS["sgx"])
                    + costs.SGX2_EACCEPT_CYCLES)
        assert span.elapsed == expected
        # The HyperEnclave path is an order of magnitude cheaper.
        assert expected > 8 * sum(c for _, c in
                                  costs.DEMAND_PAGING_PF_STEPS)

    def test_sgx_mprotect_pays_driver_ocall(self, platform):
        from repro.monitor.structs import EnclaveMode, PagePerm
        machine, boot = platform
        monitor = boot.monitor
        eid, enclave = build_minimal_enclave(monitor, machine,
                                             mode=EnclaveMode.SGX,
                                             with_msbuf=False)
        monitor.handle_enclave_page_fault(eid, HEAP_VA, write=True)
        with machine.cycles.measure() as span:
            monitor.enclave_mprotect(eid, HEAP_VA, 1, PagePerm.R)
        assert span.elapsed > costs.ocall_expected("sgx")


def _intflag_perms_to_flags(perms):
    """The IntFlag formulation perms_to_flags is table-driven from."""
    flags = PageTableFlags.PRESENT | PageTableFlags.USER
    if perms & PagePerm.W:
        flags |= PageTableFlags.WRITABLE
    if not perms & PagePerm.X:
        flags |= PageTableFlags.NX
    return flags


@pytest.mark.parametrize("perms", [PagePerm(v) for v in range(16)]
                         + [-1, 9, 0x1F])
def test_perms_to_flags_matches_intflag_formula(perms):
    # mprotect takes perms from enclave code, so undefined bits and plain
    # ints must map exactly as the IntFlag formula maps them.
    flags = perms_to_flags(perms)
    expected = _intflag_perms_to_flags(perms)
    assert type(flags) is PageTableFlags
    assert int(flags) == int(expected)
