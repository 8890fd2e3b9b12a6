"""Self-test of the A/B harness: it must really swap implementations.

If ``reference_memory()`` silently failed to swap ``_touch``, every
equivalence test here would compare the shipped pipeline with itself
and pass vacuously.  Skewing the shipped pipeline by one cycle per
touch must therefore make the direct memory-subsystem comparison fail.
"""

from __future__ import annotations

from repro.hw.memenc import AmdSme
from repro.hw.memmodel import MemorySubsystem
from tests.fastpath.conftest import shipped_and_reference
from tests.fastpath.test_equivalence import _drive_workload


def test_skewed_pipeline_differs_from_reference(monkeypatch):
    shipped_touch = MemorySubsystem._touch

    def skewed_touch(self, addr, size, write, streaming):
        charged = shipped_touch(self, addr, size, write, streaming)
        self.cycles.charge(1, self.category)
        return charged + 1

    monkeypatch.setattr(MemorySubsystem, "_touch", skewed_touch)
    shipped, reference = shipped_and_reference(
        lambda: _drive_workload(AmdSme()))
    assert shipped["total"] != reference["total"]
    assert shipped != reference
