"""Run one benchmark workload (or all of them) and print its metrics.

    python3 perfbench/run.py --workload kv_serving --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics of an untraced run;
``--trace 1`` reports the per-layer metrics of a traced run (and writes
its spans under ``.perfbench_out/``).  Without ``--workload`` every
workload runs in its own process and a summary table is printed.  The
last line of standard output is always one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  METRICS.md lists
every metric.
"""

from __future__ import annotations

import argparse
import gc
from array import array
import json
import pathlib
import resource
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("edge_calls", "kv_serving", "epc_swap")



def _import_benchmark():
    """Import the program and the workloads; None if the tree lacks them."""
    source = ROOT / "src" / "repro"
    if not source.is_dir():
        # Never fall back to an installed copy: the benchmark measures
        # the source tree it sits in.
        print(f"perfbench: no program source at {source}", file=sys.stderr)
        return None
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        from perfbench import layers, stats, workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: "
              f"{exc}", file=sys.stderr)
        return None
    return layers, stats, workloads


def _check_dev_tooling_off(machine) -> None:
    """Telemetry, sanitizer, timelines, request tracing stay off."""
    telemetry = machine.telemetry
    if machine.sanitizer is not None or telemetry.enabled \
            or telemetry.timeline is not None \
            or telemetry.requests is not None:
        raise RuntimeError("dev tooling is on; the benchmark measures the "
                           "program with it off")


class Pass:
    """Per-request measurements of one stretch of the closed loop."""

    def __init__(self) -> None:
        self.wall_s = array("d")
        self.cycles = array("d")
        self.tenants = array("i")
        self.windows = array("i")     # stretch between kernel slices
        self.attempted = 0
        self.failed = 0
        self.elapsed_s = 0.0          # request time, kernel slices excluded
        self.paused_s = 0.0
        self.sim_cycles = 0.0

    def extend(self, other: "Pass") -> None:
        self.wall_s += other.wall_s
        self.cycles += other.cycles
        self.tenants += other.tenants
        self.windows += other.windows
        self.attempted += other.attempted
        self.failed += other.failed
        self.elapsed_s += other.elapsed_s
        self.paused_s += other.paused_s
        self.sim_cycles += other.sim_cycles


def run_requests(workload, count: int | None, seconds: float = 0.0,
                 tracer=None, speed=None) -> Pass:
    """Drive ``count`` requests (or, with None, until ``seconds`` pass).

    A request that raises or returns a wrong output counts as failed;
    the run goes on.  With a ``speed`` (:class:`hostspeed.HostSpeed`) a
    slice of its reference kernel runs between requests every
    ``speed.every_s`` seconds; slices count toward ``seconds`` but not
    toward ``elapsed_s``, and ``windows`` records which stretch between
    slices each request ran in.
    """
    result = Pass()
    counter = workload.machine.cycles
    clock = time.perf_counter
    start = clock()
    start_cycles = counter.total
    deadline = start + seconds
    paused = 0.0
    next_sample = start + speed.every_s if speed is not None else None
    while True:
        if count is not None:
            if result.attempted >= count:
                break
        elif clock() >= deadline:
            break
        request = workload.next_request()
        if tracer is not None:
            tracer.request = result.attempted
        result.attempted += 1
        c0 = counter.total
        t0 = clock()
        ok = False
        try:
            output = workload.execute(request)
            t1 = clock()
            # A malformed output that the check cannot even unpack is
            # a wrong output too.
            ok = workload.check(request, output)
        except Exception as exc:           # counted, never aborts the run
            t1 = clock()
            print(f"perfbench: request failed: {exc!r}", file=sys.stderr)
        result.wall_s.append(t1 - t0)
        result.cycles.append(counter.total - c0)
        result.tenants.append(workload.tenant(request))
        if speed is not None:
            result.windows.append(len(speed.rates))
        if not ok:
            result.failed += 1
        if next_sample is not None and t1 >= next_sample:
            paused += speed.sample()
            next_sample = clock() + speed.every_s
    result.elapsed_s = clock() - start - paused
    result.paused_s = paused
    result.sim_cycles = counter.total - start_cycles
    if tracer is not None:
        tracer.request = None
    return result


def sim_summary(stats, workload, fixed: Pass) -> dict:
    """The deterministic simulated-time figures of the fixed pass."""
    service: dict[int, list[float]] = {}
    for tenant, cycles in zip(fixed.tenants, fixed.cycles):
        service.setdefault(tenant, []).append(cycles)
    ordered = sorted(fixed.cycles)
    return {
        "sim_req_p50_cyc": stats.percentile(ordered, 0.50),
        "sim_req_p99_cyc": stats.percentile(ordered, 0.99),
        "sim_goodput_req_per_Mcyc": stats.open_loop_goodput(
            service, workload.p99_limit_cycles, workload.seed),
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_untraced(modules, name: str, seed: int, seconds: float) -> dict:
    _, stats, workloads = modules
    from perfbench import hostspeed
    cls = workloads.WORKLOADS[name]
    setup_s = []
    setup_speed = hostspeed.HostSpeed()
    workload = None
    for _ in range(cls.setup_repeats):
        workload = None                  # drop the previous set-up first
        gc.collect()
        workload = cls(seed)
        setup_speed.sample(hostspeed.SETUP_SLICE_ROUNDS)
        t0 = time.perf_counter()
        workload.setup()
        setup_s.append(time.perf_counter() - t0)
        setup_speed.sample(hostspeed.SETUP_SLICE_ROUNDS)
        _check_dev_tooling_off(workload.machine)

    # The fixed pass gives the deterministic figures; the loop then goes
    # on until the timed phase has lasted ``seconds`` of host time.
    speed = hostspeed.HostSpeed()
    fixed = run_requests(workload, workload.fixed_requests, speed=speed)
    # Read before the open-ended part, whose length depends on speed.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    state_hash = workload.machine.state_hash()
    timed = Pass()
    timed.extend(fixed)
    remaining = seconds - timed.elapsed_s - timed.paused_s
    if remaining > 0:
        timed.extend(run_requests(workload, None, remaining, speed=speed))
    sim = sim_summary(stats, workload, fixed)
    wall_s = sorted(timed.wall_s)
    # Host time scaled to the reference host (hostspeed.py): each
    # request's time by the speed of the stretch it ran in, totals by the
    # speed over the whole phase, set-up by the speed around set-up.
    factor = speed.factor()
    setup_factor = setup_speed.factor()
    by_window = speed.window_factors()
    scaled = sorted(wall * by_window[k]
                    for wall, k in zip(timed.wall_s, timed.windows))
    raw = {
        "setup_s": statistics.median(setup_s),
        "requests_per_s": timed.attempted / timed.elapsed_s,
        "sim_cycles_per_s": timed.sim_cycles / timed.elapsed_s,
        "req_wall_p50_us": stats.percentile(wall_s, 0.50) * 1e6,
        "req_wall_p99_us": stats.percentile(wall_s, 0.99) * 1e6,
    }
    metrics = {
        "setup_s": _metric(raw["setup_s"] * setup_factor, "s"),
        "requests_per_s": _metric(raw["requests_per_s"] / factor, "1/s"),
        "sim_cycles_per_s": _metric(raw["sim_cycles_per_s"] / factor,
                                    "cyc/s"),
        "req_wall_p50_us": _metric(
            stats.percentile(scaled, 0.50) * 1e6, "us"),
        "req_wall_p99_us": _metric(
            stats.percentile(scaled, 0.99) * 1e6, "us"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        "success_rate": _metric(1.0 - timed.failed / timed.attempted,
                                "ratio"),
        "sim_req_p50_cyc": _metric(sim["sim_req_p50_cyc"], "cyc"),
        "sim_req_p99_cyc": _metric(sim["sim_req_p99_cyc"], "cyc"),
        "sim_goodput_req_per_Mcyc": _metric(
            sim["sim_goodput_req_per_Mcyc"], "1/Mcyc"),
    }
    info = {
        "workload": name, "seed": seed, "state_hash": state_hash,
        "fastpath": _fastpath_mode(), "fixed_requests": fixed.attempted,
        "wall_samples": len(timed.wall_s), "error_rate":
            timed.failed / timed.attempted,
        "setup_s_samples": setup_s,
        "host_speed_factor": factor, "setup_host_speed_factor": setup_factor,
        "kernel_share": timed.paused_s / (timed.paused_s + timed.elapsed_s),
        "uncorrected": raw,
    }
    return {"correct": timed.failed == 0, "attempted": timed.attempted,
            "failed": timed.failed, "metrics": metrics, "info": info}


def _fastpath_mode() -> str:
    from repro.hw import fastpath
    return fastpath.mode_name()


def _counters(workload) -> dict:
    """Modelled component counters read from the program's public state."""
    machine = workload.machine
    monitor = workload.platform.monitor
    paging = machine.telemetry.hardware_stats().get("paging", {})
    return {
        "breakdown": machine.cycles.breakdown(),
        "tlb": machine.tlb.stats(),
        "llc": machine.llc.stats(),
        "walks": sum(d["walks"] for d in paging.values()),
        "nested_walks": sum(d["nested_walks"] for d in paging.values()),
        "shootdowns": monitor.tlb_shootdowns,
        "hypercalls": monitor.hypercalls,
        "steals": sum(count for (victim, aggressor), count
                      in monitor.epc_steals.items() if victim != aggressor),
    }


def traced_pass(modules, name: str, seed: int, traced: bool):
    """Set up and run the fixed pass once; with a tracer if ``traced``."""
    layers, stats, workloads = modules
    tracer = layers.LayerTracer() if traced else None
    if tracer is not None:
        tracer.install()
    try:
        workload = workloads.WORKLOADS[name](seed)
        workload.setup()
        _check_dev_tooling_off(workload.machine)
        setup_snapshot = tracer.snapshot() if tracer else None
        before = _counters(workload)
        fixed = run_requests(workload, workload.fixed_requests, tracer=tracer)
        after = _counters(workload)
        run_snapshot = tracer.snapshot() if tracer else None
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {"workload": workload, "tracer": tracer, "fixed": fixed,
            "before": before, "after": after,
            "setup_snapshot": setup_snapshot, "run_snapshot": run_snapshot,
            "state_hash": workload.machine.state_hash(),
            "sim": sim_summary(stats, workload, fixed)}


def run_traced(modules, name: str, seed: int) -> dict:
    layers, stats, _ = modules
    plain = traced_pass(modules, name, seed, traced=False)
    plain_wall = plain["fixed"].elapsed_s
    plain_hash, plain_sim = plain["state_hash"], plain["sim"]
    del plain
    run = traced_pass(modules, name, seed, traced=True)
    fixed, tracer = run["fixed"], run["tracer"]
    n = fixed.attempted
    setup_snap, run_snap = run["setup_snapshot"], run["run_snapshot"]
    before, after = run["before"], run["after"]

    metrics: dict[str, dict] = {}
    for layer in layers.LAYER_NAMES + [layers.HARNESS]:
        self_ns = run_snap["self_ns"][layer] - setup_snap["self_ns"][layer]
        metrics[f"{layer}.self_ms"] = _metric(self_ns / 1e6, "ms")
        if layer != layers.HARNESS:
            metrics[f"{layer}.calls"] = _metric(
                run_snap["entries"][layer] - setup_snap["entries"][layer],
                "count")
    metrics["setup.monitor.self_ms"] = _metric(
        setup_snap["self_ns"]["monitor"] / 1e6, "ms")
    metrics["trace_overhead_ratio"] = _metric(fixed.elapsed_s / plain_wall,
                                              "ratio")
    groups = stats.cycle_groups(before["breakdown"], after["breakdown"])
    for group, cycles in groups.items():
        metrics[f"sim.{group}_cyc"] = _metric(cycles / n, "cyc/req")

    def calls(qualname):
        return (run_snap["func_calls"].get(qualname, 0)
                - setup_snap["func_calls"].get(qualname, 0))

    llc_hits = after["llc"]["hits"] - before["llc"]["hits"]
    llc_total = llc_hits + after["llc"]["misses"] - before["llc"]["misses"]
    swap_outs = calls("swap_out_page")
    swap_ins = calls("swap_in_page")
    counts = {
        "hw.tlb_flushes": after["tlb"]["flushes"] - before["tlb"]["flushes"],
        "hw.page_walks": after["walks"] - before["walks"],
        "hw.nested_walks": after["nested_walks"] - before["nested_walks"],
        "monitor.page_faults": calls("RustMonitor.handle_enclave_page_fault"),
        "monitor.swap_outs": swap_outs,
        "monitor.swap_ins": swap_ins,
        "monitor.tlb_shootdowns": after["shootdowns"] - before["shootdowns"],
        "monitor.hypercalls": after["hypercalls"] - before["hypercalls"],
        "monitor.cross_tenant_steals": after["steals"] - before["steals"],
        "sdk.ecalls": calls("EnclaveHandle.ecall"),
        "sdk.ocalls": calls("EnclaveHandle.dispatch_ocall"),
        "sdk.marshalled_bytes": (run_snap["marshalled_bytes"]
                                 - setup_snap["marshalled_bytes"]),
    }
    for key, value in counts.items():
        unit = "B/req" if key.endswith("bytes") else "count/req"
        metrics[key] = _metric(value / n, unit)
    metrics["hw.llc_hit_ratio"] = _metric(
        llc_hits / llc_total if llc_total else 0.0, "ratio")
    metrics["monitor.refault_ratio"] = _metric(
        swap_ins / swap_outs if swap_outs else 0.0, "ratio")

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
    tracer.write_spans(spans_path)

    # Tracing observes from outside: the simulated result must not move.
    same = (run["state_hash"] == plain_hash and run["sim"] == plain_sim)
    if not same:
        print("perfbench: traced run diverged from the untraced run",
              file=sys.stderr)
    info = {
        "workload": name, "seed": seed, "state_hash": run["state_hash"],
        "fastpath": _fastpath_mode(), "fixed_requests": n,
        "traced_equals_untraced": same, "spans": str(spans_path),
        "span_count": len(tracer.spans),
    }
    return {"correct": same and fixed.failed == 0, "attempted": n,
            "failed": fixed.failed, "metrics": metrics, "info": info}


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own process; a table of all metrics."""
    rows = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} failed", file=sys.stderr)
            return 1
        info = json.loads(lines[-2]) if len(lines) > 1 else {}
        rows[name] = (json.loads(lines[-1]), info.get("info", {}))
    names = list(next(iter(rows.values()))[0]["metrics"])
    width = max(len(n) for n in names) + 2
    print("metric".ljust(width) + "".join(n.rjust(22) for n in rows))
    for metric in names:
        cells = []
        for result, _ in rows.values():
            m = result["metrics"][metric]
            cells.append(f"{m['value']:.6g} {m['unit']}".rjust(22))
        print(metric.ljust(width) + "".join(cells))
    if trace == 0:
        print("error_rate".ljust(width) + "".join(
            f"{info['error_rate']:.6g} ratio".rjust(22)
            for _, info in rows.values()))
    for key in ("state_hash", "fastpath"):
        print(key.ljust(width) + "".join(
            str(info.get(key))[:20].rjust(22) for _, info in rows.values()))
    summary = {
        "correct": all(r["correct"] for r, _ in rows.values()),
        "attempted": sum(r["attempted"] for r, _ in rows.values()),
        "failed": sum(r["failed"] for r, _ in rows.values()),
        "metrics": {f"{name}.{metric}": value
                    for name, (r, _) in rows.items()
                    for metric, value in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    modules = _import_benchmark()
    if modules is None:
        return 2
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.trace)
    if args.trace:
        result = run_traced(modules, args.workload, args.seed)
    else:
        result = run_untraced(modules, args.workload, args.seed,
                              args.seconds)
    print(json.dumps({"info": result.pop("info")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
