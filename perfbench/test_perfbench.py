"""Checks on the benchmark itself.

    PYTHONPATH=src python -m pytest perfbench -q

Each workload is shrunk to a short fixed pass so the suite stays fast.
"""

from __future__ import annotations

import itertools
import json
import time

import pytest

from perfbench import hostspeed, layers, run, stats, workloads
from repro.hw import paging

MODULES = (layers, stats, workloads)
SHORT_PASS = {"edge_calls": 300, "kv_serving": 60, "epc_swap": 40}


@pytest.fixture(autouse=True)
def short_fixed_pass(monkeypatch):
    for name, count in SHORT_PASS.items():
        monkeypatch.setattr(workloads.WORKLOADS[name], "fixed_requests",
                            count)


def _simulated(result):
    """Everything a traced pass reports that must not depend on host time.

    Layer counts are taken over the fixed pass only: set-up work differs
    between the first set-up in a process and later ones (process-wide
    caches such as the RSA key cache fill once).
    """
    setup, done = result["setup_snapshot"], result["run_snapshot"]

    def delta(key):
        return {name: count - setup[key].get(name, 0)
                for name, count in done[key].items()}

    return {"state_hash": result["state_hash"], "sim": result["sim"],
            "cycles": list(result["fixed"].cycles),
            "before": result["before"], "after": result["after"],
            "entries": delta("entries"), "func_calls": delta("func_calls"),
            "marshalled_bytes": (done["marshalled_bytes"]
                                 - setup["marshalled_bytes"])}


@pytest.mark.parametrize("name", sorted(SHORT_PASS))
def test_same_seed_same_simulation(name):
    first = run.traced_pass(MODULES, name, 7, traced=True)
    second = run.traced_pass(MODULES, name, 7, traced=True)
    plain = run.traced_pass(MODULES, name, 7, traced=False)
    assert first["fixed"].failed == 0
    assert _simulated(first) == _simulated(second)
    # Tracing observes from outside: the untraced pass simulates the same.
    assert plain["state_hash"] == first["state_hash"]
    assert plain["sim"] == first["sim"]
    assert list(plain["fixed"].cycles) == list(first["fixed"].cycles)


@pytest.mark.parametrize("name", sorted(SHORT_PASS))
def test_different_seed_changes_the_inputs(name):
    streams = []
    for seed in (1, 2):
        workload = workloads.WORKLOADS[name](seed)
        workload.setup()
        streams.append([workload.next_request() for _ in range(20)])
    assert streams[0] != streams[1]


def test_wrong_outputs_and_exceptions_count_as_failed():
    workload = workloads.EdgeCalls(3)
    workload.setup()
    request = next(r for r in iter(workload.next_request, None)
                   if r[1] == "flip_inout")
    output = workload.execute(request)
    assert workload.check(request, output)
    retval, outs = output
    corrupted = bytearray(outs["data"])
    corrupted[0] ^= 1
    assert not workload.check(request, (retval, {"data": bytes(corrupted)}))

    calls = itertools.count()
    execute = workload.execute

    def flaky(request):
        if next(calls) % 2:
            raise RuntimeError("injected")
        return execute(request)

    workload.execute = flaky
    result = run.run_requests(workload, 10)
    assert result.attempted == 10 and result.failed == 5


def test_swap_tags_are_verified():
    workload = workloads.EpcSwap(3)
    workload.setup()
    request = workload.next_request()
    reads, outs = workload.execute(request)
    assert workload.check(request, (reads, outs))
    assert reads > 0
    bad = bytearray(outs["tags"])
    bad[0] ^= 1
    assert not workload.check(request, (reads, {"tags": bytes(bad)}))


def test_kv_replies_are_checked_against_the_shadow():
    workload = workloads.KvServing(3)
    workload.setup()
    request = next(r for r in iter(workload.next_request, None)
                   if r[1] == "read")
    reply = workload.execute(request)
    assert workload.check(request, reply)
    assert not workload.check(request, reply[:-3] + b"x\r\n")


def test_tracer_restores_every_patched_name():
    originals = {(mod, qual): _lookup(mod, qual)
                 for targets in layers.LAYERS.values()
                 for mod, qual in targets}
    tracer = layers.LayerTracer()
    tracer.install()
    assert _lookup("repro.hw.paging", "PageTable.translate") is not \
        originals[("repro.hw.paging", "PageTable.translate")]
    tracer.uninstall()
    for (mod, qual), original in originals.items():
        assert _lookup(mod, qual) is original
    assert paging.PageTable.translate is \
        originals[("repro.hw.paging", "PageTable.translate")]


def test_self_times_add_up_and_spans_are_written(tmp_path):
    result = run.traced_pass(MODULES, "kv_serving", 5, traced=True)
    tracer = result["tracer"]
    before = time.perf_counter_ns()
    snapshot = tracer.snapshot()
    after = time.perf_counter_ns()
    # Every nanosecond since the tracer began sits in exactly one layer.
    total = sum(snapshot["self_ns"].values())
    assert before - tracer._origin <= total <= after - tracer._origin
    assert all(snapshot["entries"][name] > 0
               for name in ("sdk", "monitor", "hw", "osim", "libos", "apps"))
    path = tmp_path / "spans.jsonl"
    tracer.write_spans(path)
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(spans) == len(tracer.spans)
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        assert span["start_ns"] <= span["end_ns"]
        parent = by_id.get(span["parent"])
        if parent is not None:
            assert parent["start_ns"] <= span["start_ns"]
            assert span["end_ns"] <= parent["end_ns"]
    assert {span["request"] for span in spans} >= {"setup", 0}


def test_goodput_replay_is_monotone_in_the_limit():
    service = {0: [1000.0, 3000.0, 2000.0] * 50,
               1: [1500.0, 500.0] * 60}
    tight = stats.open_loop_goodput(service, 5_000.0, seed=1)
    loose = stats.open_loop_goodput(service, 50_000.0, seed=1)
    assert 0 < tight <= loose
    # Two tenants with mean service 2000 and 1000 cycles saturate at
    # 2 x 1e6 / 2000 = 1000 requests per Mcycle in total.
    assert loose < 1000.0


def test_kernel_slices_are_kept_out_of_request_time():
    workload = workloads.EdgeCalls(3)
    workload.setup()
    speed = hostspeed.HostSpeed()
    speed.every_s = 0.0                   # a slice after every request
    start = time.perf_counter()
    result = run.run_requests(workload, 20, speed=speed)
    total = time.perf_counter() - start
    assert result.failed == 0 and len(speed.rates) == 20
    assert list(result.windows) == list(range(20))
    assert result.paused_s == pytest.approx(speed.seconds)
    assert result.elapsed_s + result.paused_s <= total
    assert result.elapsed_s >= sum(result.wall_s)


def test_window_factors_average_the_neighbouring_slices():
    speed = hostspeed.HostSpeed()
    assert speed.window_factors() == [1.0]
    speed.rates = [hostspeed.REF_RATE, hostspeed.REF_RATE / 2]
    assert speed.window_factors() == pytest.approx([1.0, 0.75, 0.5])


def _lookup(module_name, qualname):
    import importlib
    module = importlib.import_module(module_name)
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        return getattr(module, cls_name).__dict__[attr]
    return getattr(module, qualname)
