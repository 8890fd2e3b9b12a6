"""The regression gate: compare a run against a committed baseline.

Every metric in the baseline must exist in the current run and agree
within the benchmark's tolerance band (relative for values away from
zero, absolute near it); metrics that appear or disappear are failures
too — a figure that changed shape needs its baseline regenerated, not
silently ignored.  Exact benchmarks (Table 1/2) run with a zero band, so
a single cycle of drift trips the gate.

Two refinements for host-time observability:

* ``throughput.*`` metrics are *direction-aware*: wall-clock speed is
  host-dependent and only a *slowdown* beyond the (wide) throughput band
  is a regression — a speedup of any size passes.  The exact cycle
  tables keep their zero band untouched, because throughput carries its
  own tolerance, recorded in the baseline's ``throughput`` block.
* Version-1 baselines (no ``throughput``/``latency`` blocks) are
  accepted with a warning note, not failed: the new metric families are
  simply skipped until the baseline is regenerated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Band for throughput.* metrics when the baseline predates per-spec
# bands; matches BenchSpec.throughput_tolerance's default.  Tightened
# from 0.75 after the fast-path work: the regenerated baselines encode
# the ≥5x speedup, and 0.6 keeps the floor well above the speed of the
# per-line reference loops, so a silent fast-path regression trips the
# gate.
DEFAULT_THROUGHPUT_TOLERANCE = 0.6


@dataclass
class MetricDelta:
    """One compared metric."""

    metric: str
    baseline: float | None      # None: metric only in the current run
    current: float | None       # None: metric missing from current run
    tolerance: float
    # "both": any drift beyond the band fails.  "higher_is_better":
    # only current < baseline - band fails (throughput metrics — a
    # speedup is never a regression).
    direction: str = "both"

    @property
    def status(self) -> str:
        if self.baseline is None:
            return "new"
        if self.current is None:
            return "missing"
        if self.direction == "higher_is_better":
            if self.current >= self.baseline - self.band:
                return "ok"
            return "regressed"
        if abs(self.current - self.baseline) <= self.band:
            return "ok"
        return "regressed"

    @property
    def band(self) -> float:
        base = abs(self.baseline) if self.baseline is not None else 0.0
        return max(self.tolerance * base, 1e-9)

    @property
    def rel_change(self) -> float | None:
        if self.baseline in (None, 0.0) or self.current is None:
            return None
        return self.current / self.baseline - 1.0


@dataclass
class FingerprintDelta:
    """One compared state fingerprint: exact string equality, no band.

    A machine's ``state_hash()`` either reproduces bit-identically or
    the run is nondeterministic — there is no "close enough" for a
    determinism gate.
    """

    metric: str
    baseline: str | None
    current: str | None
    tolerance: float = 0.0

    @property
    def status(self) -> str:
        if self.baseline is None:
            return "new"
        if self.current is None:
            return "missing"
        if self.baseline == self.current:
            return "ok"
        return "regressed"

    @property
    def rel_change(self) -> None:
        return None


@dataclass
class CompareResult:
    """The gate verdict for one benchmark."""

    name: str
    tolerance: float
    deltas: list[MetricDelta] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def failures(self) -> list[MetricDelta]:
        return [d for d in self.deltas if d.status != "ok"]

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        return {
            "name": self.name, "ok": self.ok,
            "tolerance": self.tolerance, "notes": self.notes,
            "checked": len(self.deltas),
            "failures": [{
                "metric": d.metric, "status": d.status,
                "baseline": d.baseline, "current": d.current,
                "rel_change": d.rel_change,
            } for d in self.failures],
        }


def compare_artifacts(baseline: dict, current: dict,
                      tolerance: float | None = None) -> CompareResult:
    """Gate one current artifact against its committed baseline."""
    name = baseline.get("name", "?")
    if tolerance is None:
        tolerance = float(baseline.get("tolerance", 0.01))
    result = CompareResult(name=name, tolerance=tolerance)

    base_fp = baseline.get("provenance", {}).get("costs_fingerprint")
    cur_fp = current.get("provenance", {}).get("costs_fingerprint")
    if base_fp and cur_fp and base_fp != cur_fp:
        result.notes.append(
            f"cost model changed since the baseline was recorded "
            f"({base_fp} -> {cur_fp}); if intentional, regenerate with "
            f"`python -m repro.bench run {name}`")

    base_metrics: dict = baseline["metrics"]
    cur_metrics: dict = current["metrics"]

    # Version-1 baselines predate the derived throughput/latency metric
    # families: skip those families with a warning instead of failing
    # every current-run metric as "new".  Only metrics *absent from the
    # baseline* are skipped, so a figure that happens to share the
    # prefix (e.g. a figure dict literally named "latency") still gates
    # normally.
    from repro.bench.artifact import artifact_version
    base_version = artifact_version(baseline)
    skip_prefixes: list[str] = []
    if base_version < 2:
        for block, prefix in (("throughput", "throughput."),
                              ("latency", "latency.")):
            if baseline.get(block) is None and \
                    any(m.startswith(prefix) and m not in base_metrics
                        for m in cur_metrics):
                skip_prefixes.append(prefix)
                result.notes.append(
                    f"baseline (artifact_version {base_version}) has no "
                    f"{block} block; skipping {prefix}* metrics — "
                    f"regenerate with `python -m repro.bench run {name}` "
                    f"to gate them")

    throughput_tolerance = (baseline.get("throughput") or {}).get(
        "tolerance", DEFAULT_THROUGHPUT_TOLERANCE)

    for metric in sorted(set(base_metrics) | set(cur_metrics)):
        if metric not in base_metrics and \
                any(metric.startswith(prefix) for prefix in skip_prefixes):
            continue
        if metric == "throughput.sim_cycles_per_wall_second":
            result.deltas.append(MetricDelta(
                metric=metric,
                baseline=base_metrics.get(metric),
                current=cur_metrics.get(metric),
                tolerance=throughput_tolerance,
                direction="higher_is_better"))
            continue
        result.deltas.append(MetricDelta(
            metric=metric,
            baseline=base_metrics.get(metric),
            current=cur_metrics.get(metric),
            tolerance=tolerance))

    # State fingerprints gate on exact equality (determinism check).
    # Baselines that predate the fingerprints field skip the check —
    # regenerating them opts in.
    base_fps: dict = baseline.get("fingerprints") or {}
    cur_fps: dict = current.get("fingerprints") or {}
    if base_fps:
        for label in sorted(set(base_fps) | set(cur_fps)):
            result.deltas.append(FingerprintDelta(
                metric=f"state_hash.{label}",
                baseline=base_fps.get(label),
                current=cur_fps.get(label)))
    return result


def _fmt(value: float | str | None) -> str:
    if value is None:
        return "-"
    if isinstance(value, str):                 # state-hash fingerprints
        return value[:16] + "…" if len(value) > 16 else value
    if value == int(value) and abs(value) < 1e15:
        return f"{int(value):,}"
    return f"{value:.6g}"


def compare_report(results: list[CompareResult], *,
                   verbose: bool = False) -> str:
    """Plain-text gate report over every compared benchmark."""
    out = []
    for result in results:
        verdict = "ok" if result.ok else "REGRESSED"
        out.append(f"[{verdict}] {result.name}: "
                   f"{len(result.deltas)} metric(s) checked, "
                   f"{len(result.failures)} outside the "
                   f"{result.tolerance:.1%} band")
        for note in result.notes:
            out.append(f"  note: {note}")
        shown = result.failures if not verbose else result.deltas
        for d in shown:
            rel = d.rel_change
            rel_text = f" ({rel:+.2%})" if rel is not None else ""
            out.append(f"  {d.status:<9} {d.metric}: "
                       f"{_fmt(d.baseline)} -> {_fmt(d.current)}{rel_text}")
    failed = [r.name for r in results if not r.ok]
    out.append("")
    if failed:
        out.append(f"GATE FAILED: {', '.join(failed)}")
    else:
        out.append(f"gate passed: {len(results)} benchmark(s) within "
                   f"tolerance")
    return "\n".join(out)
