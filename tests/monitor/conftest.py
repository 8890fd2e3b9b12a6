"""Fixtures: a booted platform with a helper to build minimal enclaves."""

from __future__ import annotations

import pytest

from repro.crypto.rsa import cached_keypair
from repro.hw.machine import Machine, MachineConfig
from repro.hw.phys import NORMAL, PAGE_SIZE
from repro.monitor.boot import measured_late_launch
from repro.monitor.enclave import ENCLAVE_BASE_VA
from repro.monitor.structs import (EnclaveConfig, EnclaveMode, PagePerm,
                                   PageType, Sigstruct)

VENDOR_KEY = cached_keypair(b"vendor-signing-key", 768)


def boot_platform():
    """A booted machine with RustMonitor running: ``(machine, boot)``."""
    machine = Machine(MachineConfig(
        phys_size=512 * 1024 * 1024,
        reserved_base=256 * 1024 * 1024,
        reserved_size=128 * 1024 * 1024,
    ))
    result = measured_late_launch(machine,
                                  monitor_private_size=32 * 1024 * 1024)
    return machine, result


@pytest.fixture
def platform():
    """A booted machine with RustMonitor running."""
    return boot_platform()


def build_minimal_enclave(monitor, machine, *, mode=EnclaveMode.GU,
                          code=b"enclave code page", with_msbuf=True,
                          size=64 * PAGE_SIZE, signer=VENDOR_KEY):
    """ECREATE + EADD a code page and a TCS + EINIT, with a pinned
    marshalling buffer in normal memory.  Returns (enclave_id, enclave)."""
    config = EnclaveConfig(mode=mode, marshalling_buffer_size=2 * PAGE_SIZE)
    eid = monitor.ecreate(config, size=size)
    monitor.eadd(eid, 0, code, page_type=PageType.REG, perms=PagePerm.RX)
    monitor.add_tcs(eid, PAGE_SIZE, entry_va=ENCLAVE_BASE_VA)
    # Heap region demand-commits.
    monitor.reserve_region(eid, ENCLAVE_BASE_VA + 16 * PAGE_SIZE,
                           16 * PAGE_SIZE)
    enclave = monitor.enclaves[eid]
    mrenclave = enclave.measurement.finalize()
    sig = Sigstruct.sign(mrenclave, signer)

    marshalling = None
    if with_msbuf:
        # Two pinned frames of "normal" app memory at a fixed app VA.
        base_va = 0x7F0000000000
        frames = []
        for i in range(2):
            pa = 0x100000 + i * PAGE_SIZE
            machine.phys.set_owner(pa, NORMAL)
            frames.append(pa)
        marshalling = (base_va, 2 * PAGE_SIZE, frames)

    monitor.einit(eid, sig, marshalling=marshalling)
    return eid, enclave
