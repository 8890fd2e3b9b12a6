"""A/B equivalence of timeline sampling: shipped pipeline vs reference.

The sampler's probe discipline (op-granularity state only, boundary
cycles for clock-domain series, one row per crossed boundary) exists so
that a batched pipeline charge and the per-line reference loop produce
the *same rows*.  This runs a swap-heavy workload through both and
asserts the serialized timeline documents are bit-identical.
"""

from __future__ import annotations

import json

from repro.telemetry import sink as telemetry_sink
from tests.fastpath.conftest import shipped_and_reference


def _run_with_timeline() -> str:
    """The two-tenant EPC-pressure scenario, timeline JSON serialized."""
    from repro.bench.runner import _ensure_benchmarks_importable
    _ensure_benchmarks_importable()
    import benchmarks.bench_epc_pressure as scenario

    with telemetry_sink.capture(timeline_interval=250_000) as sink:
        figures = scenario.run_experiment()
        document = sink.timeline_document()
    assert document is not None and document["timelines"][0]["samples"]
    return json.dumps({"figures": figures, "timeline": document},
                      sort_keys=True)


def test_timeline_json_bit_identical_across_modes():
    shipped, reference = shipped_and_reference(_run_with_timeline)
    assert shipped == reference
