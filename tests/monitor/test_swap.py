"""Tests for enclave page swapping (EWB/ELDU analog, Sec 3.2)."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.crypto.cipher import NONCE_SIZE, TAG_SIZE, aead_decrypt
from repro.errors import (MonitorError, PhysicalMemoryError, SealError,
                          SecurityViolation)
from repro.hw.phys import PAGE_SIZE, OwnerKind
from repro.monitor.enclave import ENCLAVE_BASE_VA
from repro.monitor.swap import _aad

from .conftest import boot_platform, build_minimal_enclave

HEAP_VA = ENCLAVE_BASE_VA + 16 * PAGE_SIZE


@pytest.fixture
def grown(platform):
    """An enclave with 4 committed heap pages holding known content."""
    machine, boot = platform
    monitor = boot.monitor
    eid, enclave = build_minimal_enclave(monitor, machine)
    for i in range(4):
        monitor.handle_enclave_page_fault(eid, HEAP_VA + i * PAGE_SIZE,
                                          write=True)
        pa = enclave.translate(HEAP_VA + i * PAGE_SIZE, write=True)
        machine.phys.write(pa, b"PAGE%d" % i + b"\xAA" * 100)
    return machine, monitor, eid, enclave


class TestSwapRoundtrip:
    def test_swap_out_frees_frame(self, grown):
        machine, monitor, eid, enclave = grown
        pa = enclave.translate(HEAP_VA)
        free_before = monitor.epc_pool.free_pages
        assert monitor.swap_out(eid, HEAP_VA) == 1
        assert monitor.epc_pool.free_pages == free_before + 1
        assert enclave.page_at(HEAP_VA) is None
        # The frame was scrubbed before release.
        assert machine.phys.read(pa, 5) == b"\x00" * 5
        assert machine.phys.owner_of(pa).kind is OwnerKind.FREE

    def test_fault_swaps_back_with_content(self, grown):
        machine, monitor, eid, enclave = grown
        monitor.swap_out(eid, HEAP_VA)
        monitor.handle_enclave_page_fault(eid, HEAP_VA, write=True)
        pa = enclave.translate(HEAP_VA)
        assert machine.phys.read(pa, 5) == b"PAGE0"

    def test_transparent_via_context_access(self, platform):
        """An enclave read just works across a swap-out."""
        machine, boot = platform
        monitor = boot.monitor
        from tests.sdk.conftest import demo_image
        from repro.platform import TeePlatform
        # Use the handle-level ctx for a full read path.
        eid, enclave = build_minimal_enclave(monitor, machine)
        monitor.handle_enclave_page_fault(eid, HEAP_VA, write=True)
        pa = enclave.translate(HEAP_VA)
        machine.phys.write(pa, b"persistent")
        monitor.swap_out(eid, HEAP_VA)
        # Fault path (as ctx._translate_with_demand_paging would drive it):
        monitor.handle_enclave_page_fault(eid, HEAP_VA)
        assert machine.phys.read(enclave.translate(HEAP_VA), 10) \
            == b"persistent"

    def test_swap_multiple_pages(self, grown):
        machine, monitor, eid, enclave = grown
        assert monitor.swap_out(eid, HEAP_VA, npages=4) == 4
        for i in range(4):
            monitor.handle_enclave_page_fault(eid, HEAP_VA + i * PAGE_SIZE)
            pa = enclave.translate(HEAP_VA + i * PAGE_SIZE)
            assert machine.phys.read(pa, 5) == b"PAGE%d" % i

    def test_double_swap_out_rejected(self, grown):
        _, monitor, eid, _ = grown
        monitor.swap_out(eid, HEAP_VA)
        # A second eviction of the same page: it is no longer committed.
        with pytest.raises(MonitorError, match="uncommitted|already"):
            from repro.monitor.swap import swap_out_page
            state = monitor._swap_state(monitor.enclaves[eid])
            swap_out_page(monitor, monitor.enclaves[eid], state,
                          monitor.swap_store, HEAP_VA)

    def test_swap_out_uncommitted_counts_zero(self, grown):
        _, monitor, eid, _ = grown
        assert monitor.swap_out(eid, HEAP_VA + 8 * PAGE_SIZE) == 0


class TestSwapSecurity:
    def test_tampered_blob_detected(self, grown):
        machine, monitor, eid, enclave = grown
        monitor.swap_out(eid, HEAP_VA)
        record = monitor._swap_state(enclave).records[HEAP_VA]
        monitor.swap_store.tamper(record.token, 40)
        with pytest.raises(SecurityViolation, match="integrity"):
            monitor.handle_enclave_page_fault(eid, HEAP_VA)

    def test_blob_substitution_detected(self, grown):
        """The OS swaps two pages' blobs: the VA binding catches it."""
        machine, monitor, eid, enclave = grown
        monitor.swap_out(eid, HEAP_VA)
        monitor.swap_out(eid, HEAP_VA + PAGE_SIZE)
        state = monitor._swap_state(enclave)
        token_a = state.records[HEAP_VA].token
        token_b = state.records[HEAP_VA + PAGE_SIZE].token
        monitor.swap_store.replace(token_a, token_b)
        with pytest.raises(SecurityViolation):
            monitor.handle_enclave_page_fault(eid, HEAP_VA)

    def test_replay_of_stale_version_detected(self, grown):
        """The OS replays an older blob of the same page."""
        machine, monitor, eid, enclave = grown
        monitor.swap_out(eid, HEAP_VA)
        state = monitor._swap_state(enclave)
        stale_blob = monitor.swap_store.get(state.records[HEAP_VA].token)
        monitor.handle_enclave_page_fault(eid, HEAP_VA, write=True)
        # Mutate the page and swap again: new version.
        pa = enclave.translate(HEAP_VA, write=True)
        machine.phys.write(pa, b"NEWDATA")
        monitor.swap_out(eid, HEAP_VA)
        record = state.records[HEAP_VA]
        monitor.swap_store._blobs[record.token] = stale_blob   # replay
        with pytest.raises(SecurityViolation):
            monitor.handle_enclave_page_fault(eid, HEAP_VA)

    def test_aad_binds_va_and_version(self, grown):
        """Versions are unique per enclave, so no store attack can pair
        a blob with another VA at the same version; check the binding on
        the AEAD directly."""
        _, monitor, eid, enclave = grown
        monitor.swap_out(eid, HEAP_VA)
        state = monitor._swap_state(enclave)
        record = state.records[HEAP_VA]
        blob = monitor.swap_store.get(record.token)
        assert aead_decrypt(state.key, blob,
                            aad=_aad(HEAP_VA, record.version))[:5] == b"PAGE0"
        for va, version in ((HEAP_VA + PAGE_SIZE, record.version),
                            (HEAP_VA, record.version + 1)):
            with pytest.raises(SealError):
                aead_decrypt(state.key, blob, aad=_aad(va, version))

    def test_swap_keys_differ_per_enclave(self, platform):
        machine, boot = platform
        monitor = boot.monitor
        eid1, e1 = build_minimal_enclave(monitor, machine, code=b"one")
        eid2, e2 = build_minimal_enclave(monitor, machine, code=b"two")
        assert monitor._swap_state(e1).key != monitor._swap_state(e2).key


BLOB_SIZE = NONCE_SIZE + PAGE_SIZE + TAG_SIZE
RIG_PAGES = 4


def page_content(i):
    return bytes((i * 31 + j * 7) & 255 for j in range(PAGE_SIZE))


@pytest.fixture(scope="module")
def swap_rig():
    """An enclave whose heap pages each hold a distinct full page.

    Shared by every example of the property test below, each of which
    leaves all pages committed with their original content again.
    """
    machine, boot = boot_platform()
    monitor = boot.monitor
    eid, enclave = build_minimal_enclave(monitor, machine)
    for i in range(RIG_PAGES):
        va = HEAP_VA + i * PAGE_SIZE
        monitor.handle_enclave_page_fault(eid, va, write=True)
        machine.phys.write(enclave.translate(va, write=True), page_content(i))
    return machine, monitor, eid, enclave


ATTACKS = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, BLOB_SIZE - 1),
              st.integers(1, 255)),
    st.tuples(st.just("substitute"), st.integers(1, RIG_PAGES - 1)),
    st.tuples(st.just("replay")),
)


class TestSwapTamperProperty:
    """Whatever the backing store hands back instead of the genuine blob
    is refused and changes nothing; the genuine blob still restores the
    page (ROADMAP aim 3: properties under random choices)."""

    @settings(max_examples=40, deadline=None)
    @given(page=st.integers(0, RIG_PAGES - 1), attack=ATTACKS)
    @example(page=0, attack=("flip", 0, 1))                        # nonce
    @example(page=0, attack=("flip", NONCE_SIZE - 1, 0x80))
    @example(page=0, attack=("flip", NONCE_SIZE, 1))               # ct
    @example(page=0, attack=("flip", NONCE_SIZE + PAGE_SIZE - 1, 1))
    @example(page=0, attack=("flip", BLOB_SIZE - TAG_SIZE, 1))     # tag
    @example(page=0, attack=("flip", BLOB_SIZE - 1, 0xFF))
    @example(page=1, attack=("substitute", 2))
    @example(page=3, attack=("replay",))
    def test_forged_blob_refused_and_genuine_restores(self, swap_rig, page,
                                                      attack):
        machine, monitor, eid, enclave = swap_rig
        state = monitor._swap_state(enclave)
        store = monitor.swap_store
        va = HEAP_VA + page * PAGE_SIZE
        other = other_va = None
        if attack[0] == "replay":
            # An older, once-genuine blob of the same page.
            monitor.swap_out(eid, va)
            forged = store.get(state.records[va].token)
            monitor.handle_enclave_page_fault(eid, va, write=True)
        monitor.swap_out(eid, va)
        record = state.records[va]
        snapshot = (record.token, record.version, record.perms)
        genuine = store.get(record.token)
        assert len(genuine) == BLOB_SIZE
        if attack[0] == "flip":
            _, index, mask = attack
            forged = bytearray(genuine)
            forged[index] ^= mask
            forged = bytes(forged)
        elif attack[0] == "substitute":
            other = (page + attack[1]) % RIG_PAGES
            other_va = HEAP_VA + other * PAGE_SIZE
            monitor.swap_out(eid, other_va)
            forged = store.get(state.records[other_va].token)
        assert forged != genuine
        store._blobs[record.token] = forged

        free_before = monitor.epc_pool.free_pages
        with pytest.raises(SecurityViolation, match="integrity"):
            monitor.handle_enclave_page_fault(eid, va)
        assert state.records[va] is record
        assert (record.token, record.version, record.perms) == snapshot
        assert enclave.page_at(va) is None
        assert monitor.epc_pool.free_pages == free_before

        store._blobs[record.token] = genuine
        monitor.handle_enclave_page_fault(eid, va)
        assert va not in state.records
        assert machine.phys.read(enclave.translate(va), PAGE_SIZE) \
            == page_content(page)
        if other_va is not None:
            monitor.handle_enclave_page_fault(eid, other_va)
            assert machine.phys.read(enclave.translate(other_va), PAGE_SIZE) \
                == page_content(other)
        assert not state.records


class TestPoolPressureReclaim:
    def test_exhausted_pool_reclaims_by_swapping(self):
        """Filling the EPC past capacity transparently evicts pages."""
        from repro.hw.machine import Machine, MachineConfig
        from repro.monitor.boot import measured_late_launch
        machine = Machine(MachineConfig(
            phys_size=256 * 1024 * 1024,
            reserved_base=128 * 1024 * 1024,
            reserved_size=16 * 1024 * 1024,   # tiny EPC
        ))
        boot = measured_late_launch(machine,
                                    monitor_private_size=2 * 1024 * 1024)
        monitor = boot.monitor
        eid, enclave = build_minimal_enclave(
            monitor, machine, size=8192 * PAGE_SIZE, with_msbuf=False)
        monitor.reserve_region(eid, ENCLAVE_BASE_VA + 128 * PAGE_SIZE,
                               4096 * PAGE_SIZE)
        pool_pages = monitor.epc_pool.free_pages
        # Touch more pages than the pool holds: must not raise.
        for i in range(pool_pages + 32):
            monitor.handle_enclave_page_fault(
                eid, ENCLAVE_BASE_VA + (128 + i) * PAGE_SIZE, write=True)
        assert monitor._swap_state(enclave).records   # something evicted
        # And an evicted page still comes back intact.
        victim_va = next(iter(monitor._swap_state(enclave).records))
        monitor.handle_enclave_page_fault(eid, victim_va, write=True)
