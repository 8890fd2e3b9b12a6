"""The runtime sanitizer hub: hooks in, checks out.

One :class:`Sanitizer` hangs off a :class:`~repro.hw.machine.Machine`
when ``REPRO_SANITIZE=1`` (or ``MachineConfig(sanitize=True)``).  The
hardware layers call the ``on_*`` hooks on every state mutation — a
single attribute test when disabled — and RustMonitor calls
:meth:`after_monitor_op` at the end of every operation, which runs the
scoped invariant checks from :mod:`repro.sanitizer.invariants`.

The sanitizer only ever observes: it charges no cycles and perturbs no
hardware statistics, so Table 1/2 numbers are bit-identical with it on.
"""

from __future__ import annotations

import os
import weakref

from repro.crypto.hashes import sha256
from repro.hw.phys import PAGE_SIZE, OwnerKind
from repro.sanitizer import invariants
from repro.sanitizer.shadow import (MeasurementSnapshot, ShadowMemory,
                                    render_owner)
from repro.sanitizer.violation import SAN_REACH, SAN_SWAP


def sanitize_enabled() -> bool:
    """The ``REPRO_SANITIZE`` environment switch (``1``/anything truthy)."""
    # repro-lint: disable=SC001 -- host knob: attaches the sanitizer, an
    # observer that charges nothing (cycles are bit-identical either way)
    return os.environ.get("REPRO_SANITIZE", "0") not in ("", "0")


class Sanitizer:
    """Shadow-state owner and invariant-check driver for one machine."""

    def __init__(self, machine) -> None:
        self.machine = machine
        self.shadow = ShadowMemory()
        self.violations = 0
        self._untrusted: weakref.WeakSet = weakref.WeakSet()
        machine.phys.sanitizer = self
        machine.tlb.sanitizer = self

    def set_op(self, name: str) -> None:
        """Label subsequent frame transitions with the operation name."""
        self.shadow.current_op = name

    def on_monitor_boot(self) -> None:
        """A fresh RustMonitor claimed the machine (boot or relaunch):
        enclave-id-scoped shadows from the previous instance are void."""
        self.shadow.reset_monitor_state()

    # -- physical-memory hook ------------------------------------------------

    def on_set_owner(self, frame: int, owner, npages: int) -> None:
        self.shadow.record_owner(frame, owner, npages)

    # -- page-table hooks ----------------------------------------------------

    def on_pt_map(self, pt, va: int, pa: int) -> None:
        frame = pa // PAGE_SIZE
        if pt.untrusted:
            owner = self.machine.phys.owner_of(pa)
            if owner.kind in (OwnerKind.MONITOR, OwnerKind.ENCLAVE):
                # Raised *before* the PTE is written: the poisonous
                # mapping never lands, so attack tests leave no residue.
                invariants.fail(
                    self.machine, self, SAN_REACH,
                    f"untrusted page table would map "
                    f"{render_owner(owner)} frame {pa:#x} at {va:#x}",
                    frame=frame)
        if pt.asid is not None:
            self.shadow.frame_mappers.setdefault(frame, set()).add(pt.asid)

    def on_pt_unmap(self, pt, va: int, pa: int) -> None:
        if pt.asid is None:
            return
        mappers = self.shadow.frame_mappers.get(pa // PAGE_SIZE)
        if mappers is not None:
            mappers.discard(pt.asid)
        self.shadow.translation_stale(pt.asid, va // PAGE_SIZE,
                                      self.shadow.current_op)

    def on_pt_protect(self, pt, va: int) -> None:
        if pt.asid is not None:
            self.shadow.translation_stale(pt.asid, va // PAGE_SIZE,
                                          self.shadow.current_op)

    # -- TLB hooks -----------------------------------------------------------

    def on_tlb_invlpg(self, asid: int, vpn: int) -> None:
        self.shadow.shootdown_observed(asid, vpn)

    def on_tlb_flush(self) -> None:
        self.shadow.flush_observed()

    def on_tlb_flush_asid(self, asid: int) -> None:
        self.shadow.flush_observed(asid)

    # -- swap hooks ----------------------------------------------------------

    def on_swap_out(self, enclave, page_va: int, version: int,
                    pa: int) -> None:
        eid = enclave.enclave_id
        shadow = self.shadow
        last = shadow.swap_last_version.get(eid, 0)
        if version <= last:
            invariants.fail(
                self.machine, self, SAN_SWAP,
                f"swap-out version v{version} for enclave {eid} page "
                f"{page_va:#x} does not advance past v{last} "
                f"(anti-replay counter must be monotonic)")
        shadow.swap_last_version[eid] = version
        shadow.swap_versions[(eid, page_va)] = version
        owner = self.machine.phys.owner_of(pa)
        if owner.kind is not OwnerKind.FREE:
            invariants.fail(
                self.machine, self, SAN_SWAP,
                f"swap-out of enclave {eid} page {page_va:#x} left frame "
                f"{pa:#x} owned by {render_owner(owner)}, not free",
                frame=pa // PAGE_SIZE)

    def on_swap_in(self, enclave, page_va: int, version: int,
                   pa: int) -> None:
        eid = enclave.enclave_id
        recorded = self.shadow.swap_versions.pop((eid, page_va), None)
        if recorded is None:
            invariants.fail(
                self.machine, self, SAN_SWAP,
                f"swap-in of enclave {eid} page {page_va:#x} with no "
                f"shadow version entry (replayed or double swap-in)")
        if recorded != version:
            invariants.fail(
                self.machine, self, SAN_SWAP,
                f"swap-in of enclave {eid} page {page_va:#x} used "
                f"v{version}, shadow recorded v{recorded}")
        owner = self.machine.phys.owner_of(pa)
        if owner.kind is not OwnerKind.ENCLAVE or owner.enclave_id != eid:
            invariants.fail(
                self.machine, self, SAN_SWAP,
                f"swap-in placed enclave {eid} page {page_va:#x} in frame "
                f"{pa:#x} owned by {render_owner(owner)}",
                frame=pa // PAGE_SIZE)

    # -- lifecycle hooks -----------------------------------------------------

    def on_einit(self, enclave) -> None:
        """Freeze the measurement: registers plus non-writable content."""
        from repro.monitor.structs import PagePerm
        phys = self.machine.phys
        hashes = {offset: sha256(phys.read(page.pa, PAGE_SIZE))
                  for offset, page in enclave.pages.items()
                  if not page.perms & PagePerm.W}
        self.shadow.measurements[enclave.enclave_id] = MeasurementSnapshot(
            mrenclave=enclave.secs.mrenclave,
            mrsigner=enclave.secs.mrsigner,
            page_hashes=hashes)

    def on_enclave_removed(self, enclave_id: int) -> None:
        self.shadow.drop_enclave(enclave_id)

    # -- untrusted page-table registry ---------------------------------------

    def register_untrusted_pt(self, pt) -> None:
        """Mark a page table as untrusted (OS/process GPT): mapping a
        monitor or enclave frame through it raises immediately."""
        pt.untrusted = True
        self._untrusted.add(pt)

    def unregister_untrusted_pt(self, pt) -> None:
        pt.untrusted = False
        self._untrusted.discard(pt)

    def untrusted_pts(self) -> list:
        return list(self._untrusted)

    # -- the per-op check ----------------------------------------------------

    def after_monitor_op(self, monitor, op: str,
                         enclave_id: int | None = None,
                         page_va: int | None = None) -> None:
        invariants.after_op(monitor, self, op, enclave_id, page_va)
