"""A/B equivalence of request tracing: shipped pipeline vs reference.

Trace ids come from (label, vcpu, per-vCPU counter) and segment stamps
from op-boundary reads of the cycle counter, which are batch-invariant:
every touch issues exactly one charge in both implementations.  So the
serialized requests document — ids, trees, category deltas, steal
attributions — must be bit-identical between the shipped memory
pipeline and the per-line reference loops.
"""

from __future__ import annotations

import json

from repro.telemetry import sink as telemetry_sink
from tests.fastpath.conftest import shipped_and_reference


def _run_traced() -> str:
    """The two-tenant EPC-pressure scenario, requests JSON serialized."""
    from repro.bench.runner import _ensure_benchmarks_importable
    _ensure_benchmarks_importable()
    import benchmarks.bench_epc_pressure as scenario

    with telemetry_sink.capture(trace_requests=True) as sink:
        figures = scenario.run_experiment()
        document = sink.requests_document()
    assert document is not None and document["traces"][0]["requests"]
    return json.dumps({"figures": figures, "requests": document},
                      sort_keys=True)


def test_requests_json_bit_identical_across_modes():
    shipped, reference = shipped_and_reference(_run_traced)
    assert shipped == reference
