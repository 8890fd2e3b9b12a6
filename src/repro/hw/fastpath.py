"""Provenance name of the memory pipeline.

The memory/cycle hot paths (``repro.hw.memmodel``, ``repro.hw.tlb``,
``repro.hw.cache``, ``repro.hw.memenc``) have a single implementation:
translation memoization above the TLB with deferred LRU bookkeeping,
bulk LLC range kernels, and closed-form MEE counter-tree group charges.
``tests/fastpath`` keeps the per-page/per-line loops as a reference
oracle and pins bit-identical observable state against them.

Benchmark artifacts record :func:`mode_name` in their provenance; the
committed baselines carry ``"python"``.
"""

from __future__ import annotations


def mode_name() -> str:
    """The memory pipeline as a provenance-friendly string."""
    return "python"
