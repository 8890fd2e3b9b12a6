"""SC006: trust-boundary taint analysis over fixtures."""

from __future__ import annotations

import pytest

from repro.staticcheck.config import StaticcheckConfig

PHYS = '''
    """Fixture physical memory."""

    class PhysicalMemory:
        """P."""

        def write(self, pa, data):
            """Write."""
            self.frames[pa] = data

        def read(self, pa, n):
            """Read."""
            return self.frames[pa][:n]

        def read_u64(self, pa):
            """Read a word."""
            return self.frames[pa]

        def write_u64(self, pa, value):
            """Write a word."""
            self.frames[pa] = value

        def zero_frame(self, pa):
            """Zero a frame."""
            self.frames[pa] = 0

    class FramePool:
        """F."""

        def alloc(self):
            """Alloc."""
            return self.free.pop()
'''


def by_rule(findings, rule):
    """Unsuppressed findings for one rule."""
    return [f for f in findings if f.rule == rule and not f.suppressed]


def leak_in(path, call="self.machine.phys.read(pa, 8)"):
    """A tree with physical memory and one method making ``call``."""
    return {"hw/phys.py": PHYS, path: f'''
        """Fixture."""

        class Leaky:
            """L."""

            def leak(self, pa):
                """Direct physical-memory access."""
                return {call}
        '''}


#: Direct PhysicalMemory calls from untrusted layers: id -> (files, sink).
DIRECT_PHYS = {
    "untrusted_layer": (leak_in("osim/fake.py"), "read"),
    "urts_barrier": (leak_in("sdk/urts.py"), "read"),
    "trts_barrier": (leak_in("sdk/trts.py"), "read"),
    "read_u64": (leak_in("apps/fake.py", "self.machine.phys.read_u64(pa)"),
                 "read_u64"),
    "write_u64": (leak_in("sdk/urts.py",
                          "self.machine.phys.write_u64(pa, 0)"), "write_u64"),
    "zero_frame": (leak_in("osim/fake.py",
                           "self.machine.phys.zero_frame(pa)"), "zero_frame"),
    "module_level_self": ({"hw/phys.py": PHYS, "osim/fake.py": '''
        """Fixture."""

        WORD = self.machine.phys.read(0, 8)
        '''}, "read"),
    "module_level": ({"hw/phys.py": PHYS, "apps/fake.py": '''
        """Fixture."""
        from repro.hw.machine import machine

        WORD = machine.phys.read(0, 8)
        '''}, "read"),
}


class TestSC006:
    @pytest.mark.parametrize("case", DIRECT_PHYS)
    def test_direct_phys_call_flagged(self, run_passes, case):
        files, method = DIRECT_PHYS[case]
        found = run_passes(files)
        assert [(f.rule, f.sink, f.suppressed) for f in found] == \
            [("SC006", f"repro.hw.phys:PhysicalMemory.{method}", False)]
        assert "marshalling barrier" in found[0].message

    @pytest.mark.parametrize("case", DIRECT_PHYS)
    def test_direct_phys_call_silent_when_disabled(self, run_passes, case):
        # The twin of test_direct_phys_call_flagged: nothing but SC006
        # sees the input, so that test proves SC006 ran.
        files, _ = DIRECT_PHYS[case]
        assert run_passes(files, StaticcheckConfig(disable=("SC006",))) == []

    def test_hw_layer_exempt(self, run_passes):
        assert run_passes(leak_in("hw/fake.py")) == []

    def test_direct_phys_write_from_app(self, run_passes):
        found = run_passes({
            "hw/phys.py": PHYS,
            "apps/evil.py": '''
                """Fixture."""

                def leak(machine, data):
                    """Bypass the barrier."""
                    machine.phys.write(0, data)
                    return None
                ''',
        })
        hits = by_rule(found, "SC006")
        assert len(hits) == 1
        assert hits[0].sink == "repro.hw.phys:PhysicalMemory.write"
        assert hits[0].chain == ["repro.apps.evil:leak",
                                 "repro.hw.phys:PhysicalMemory.write"]

    def test_flow_through_helper_still_caught(self, run_passes):
        found = run_passes({
            "hw/phys.py": PHYS,
            "osim/driver.py": '''
                """Fixture."""

                def entry(machine, data):
                    """OS-side entry."""
                    _stash(machine, data)

                def _stash(machine, data):
                    """Helper one hop down."""
                    machine.phys.write(64, data)
                ''',
        })
        hits = by_rule(found, "SC006")
        assert len(hits) == 1
        assert hits[0].chain[0] in ("repro.osim.driver:entry",
                                    "repro.osim.driver:_stash")
        assert hits[0].chain[-1] == "repro.hw.phys:PhysicalMemory.write"

    def test_barrier_routed_flow_is_clean(self, run_passes):
        found = run_passes({
            "hw/phys.py": PHYS,
            "hw/memaccess.py": '''
                """Fixture barrier in the hardware layer."""

                def copy_in(machine, data):
                    """Range-checked copy; the one place phys is touched."""
                    machine.phys.write(0, data)
                ''',
            "sdk/urts.py": '''
                """Fixture barrier."""
                from repro.hw import memaccess

                def copy_in(machine, data):
                    """Validating bridge; reaches phys through memaccess."""
                    memaccess.copy_in(machine, data)
                ''',
            "apps/good.py": '''
                """Fixture."""
                from repro.sdk.urts import copy_in

                def ok(machine, data):
                    """Marshalled."""
                    copy_in(machine, data)
                ''',
        })
        assert by_rule(found, "SC006") == []

    def test_public_monitor_entry_is_a_barrier(self, run_passes):
        found = run_passes({
            "hw/phys.py": PHYS,
            "monitor/rustmonitor.py": '''
                """Fixture monitor."""

                class RustMonitor:
                    """M."""

                    def ecreate(self, machine, size):
                        """Validated entry; phys access inside is fine."""
                        machine.phys.write(0, b"x" * size)
                ''',
            "apps/via_monitor.py": '''
                """Fixture."""
                from repro.monitor.rustmonitor import RustMonitor

                def ok(mon, machine):
                    """Hypercall crossing."""
                    RustMonitor.ecreate(mon, machine, 8)
                ''',
        })
        assert by_rule(found, "SC006") == []

    def test_unrelated_write_method_not_flagged(self, run_passes):
        # A fuzzy .write() whose receiver doesn't look like phys memory
        # must not be reported (name-based dispatch noise control).
        found = run_passes({
            "hw/phys.py": PHYS,
            "apps/logger.py": '''
                """Fixture."""

                def log(sink, line):
                    """Plain file-ish write."""
                    sink.write(0, line)
                ''',
        })
        assert by_rule(found, "SC006") == []
