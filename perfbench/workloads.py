"""The benchmark's three workloads.

Each workload is a closed loop with one synchronous caller: the harness
asks for the next request (inputs made from the seed), executes it
through the public API, and checks its output.  One request is one
top-level ECALL.  Every workload keeps a shadow of what the program
should return, so a wrong reply counts as a failed request.

* ``edge_calls`` — empty ECALLs, OCALL-in-ECALL and ``[in]``/``[out]``/
  ``[in,out]`` buffers of 64 B / 1 KB / 4 KB across HU, GU and P
  enclaves: the SDK and world-switch path alone (no faults, no swap, no
  LibOS, no network).
* ``kv_serving`` — 8 RESP servers under the Occlum LibOS (half HU, half
  GU), zipfian YCSB-A on four and YCSB-B on the other four, a dataset
  larger than the modelled LLC that fits in EPC: the whole serving stack
  without swap.
* ``epc_swap`` — GU tenants whose working sets together are twice the
  EPC of a tiny machine, swept with page-tagged writes and verified
  reads: RustMonitor's fault/swap path and its crypto.
"""

from __future__ import annotations

import random
import struct
import zlib

from repro import EnclaveConfig, EnclaveImage, EnclaveMode, TeePlatform
from repro.apps.driver import aex_roundtrip_cycles
from repro.apps.kvserver import encode_command, make_kv_enclave_image
from repro.apps.ycsb import ZipfianGenerator, record_key
from repro.hw.machine import MachineConfig
from repro.hw.phys import PAGE_SIZE
from repro.libos.occlum import register_libos_ocalls
from repro.monitor.enclave import ENCLAVE_BASE_VA


def _rng(seed: int, stream: int) -> random.Random:
    """An independent, seeded random stream (setup, warm-up, requests)."""
    return random.Random(seed * 1_000_003 + stream)


# The goodput replay's p99 latency limit in median service times (an
# assumption: no source gives a limit).
GOODPUT_LIMIT_P50S = 10


class Workload:
    """Common surface the harness drives."""

    name = ""
    # Requests in the deterministic pass whose simulated cycles, state
    # hash and per-layer counts are compared across runs.
    fixed_requests = 0
    # p99 latency limit (simulated cycles) of the goodput replay:
    # GOODPUT_LIMIT_P50S times the workload's sim_req_p50_cyc as the
    # program measured it when the benchmark was written (the same for
    # every seed).  The figure is fixed, so a change that moves service
    # times moves goodput.
    p99_limit_cycles = 0.0
    # Set-ups per untraced run; setup_s is their median.
    setup_repeats = 7
    machine_config: MachineConfig

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.platform: TeePlatform | None = None

    @property
    def machine(self):
        return self.platform.machine

    def boot(self) -> TeePlatform:
        self.platform = TeePlatform.hyperenclave(self.machine_config)
        return self.platform

    def setup(self) -> None:
        """Boot, create enclaves, preload and warm up."""
        raise NotImplementedError

    def next_request(self):
        """The next request of the seeded stream (not timed)."""
        raise NotImplementedError

    def execute(self, request):
        """Run one request through the public API; returns its output."""
        raise NotImplementedError

    def check(self, request, output) -> bool:
        """True when ``output`` is what the program should have returned."""
        raise NotImplementedError

    @staticmethod
    def tenant(request) -> int:
        return request[0]


# ----------------------------------------------------------------- edge --

EDGE_EDL = """
enclave {
    trusted {
        public uint64 empty();
        public uint64 call_out(uint64 x);
        public uint64 take_in([in, size=n] bytes data, uint64 n);
        public uint64 fill_out([out, size=n] bytes data, uint64 n,
                               uint64 tag);
        public uint64 flip_inout([in, out, size=n] bytes data, uint64 n);
    };
    untrusted {
        uint64 ocall_echo(uint64 x);
    };
};
"""


def _pattern(tag: int, n: int) -> bytes:
    return (tag.to_bytes(8, "little") * (n // 8 + 1))[:n]


def _t_empty(ctx):
    return 0


def _t_call_out(ctx, x):
    return ctx.ocall("ocall_echo", x=x)


def _t_take_in(ctx, data, n):
    return zlib.crc32(data)


def _t_fill_out(ctx, data, n, tag):
    data[:] = _pattern(tag, n)
    return 0


def _t_flip_inout(ctx, data, n):
    data.reverse()
    return n


EDGE_FUNCS = {"empty": _t_empty, "call_out": _t_call_out,
              "take_in": _t_take_in, "fill_out": _t_fill_out,
              "flip_inout": _t_flip_inout}
EDGE_MODES = (EnclaveMode.HU, EnclaveMode.GU, EnclaveMode.P)
EDGE_SIZES = (64, 1024, 4096)
# The edge calls the repo's paper benches measure, one entry each and
# drawn with equal weight: Table 1's empty ECALL and OCALL-in-ECALL
# (benchmarks/bench_table1_edge_calls.py) and Fig 7's ECALL in each
# direction (benchmarks/bench_fig7_marshalling.py), at the 64 B, 1 KB
# and 4 KB points of its size sweep.  With the three modes that makes
# 33 equally likely kinds of request.
EDGE_CALLS = (("empty", 0), ("call_out", 0)) + tuple(
    (op, size) for op in ("take_in", "fill_out", "flip_inout")
    for size in EDGE_SIZES)
EDGE_PAYLOADS = 16            # distinct payloads per size


class EdgeCalls(Workload):
    name = "edge_calls"
    fixed_requests = 20_000
    p99_limit_cycles = GOODPUT_LIMIT_P50S * 9_732.8
    machine_config = MachineConfig(phys_size=512 << 20,
                                   reserved_base=256 << 20,
                                   reserved_size=128 << 20, sanitize=False)
    WARMUP = 300

    def setup(self) -> None:
        platform = self.boot()
        self.handles = []
        for mode in EDGE_MODES:
            image = EnclaveImage.build(
                f"edge-{mode.value}", EDGE_EDL, EDGE_FUNCS,
                EnclaveConfig(mode=mode, heap_size=1 << 20,
                              marshalling_buffer_size=256 << 10))
            handle = platform.load_enclave(image)
            handle.register_ocall("ocall_echo", lambda x: x + 1)
            self.handles.append(handle)
        data_rng = _rng(self.seed, 0)
        self.payloads = {
            size: [data_rng.randbytes(size) for _ in range(EDGE_PAYLOADS)]
            for size in EDGE_SIZES}
        self.crcs = {size: [zlib.crc32(p) for p in pool]
                     for size, pool in self.payloads.items()}
        self._stream = _rng(self.seed, 1)
        warm_rng = _rng(self.seed, 2)
        for _ in range(self.WARMUP):
            self.execute(self._make(warm_rng))

    def _make(self, rng):
        op, size = rng.choice(EDGE_CALLS)
        return (rng.randrange(len(EDGE_MODES)), op, size,
                rng.randrange(EDGE_PAYLOADS), rng.getrandbits(48))

    def next_request(self):
        return self._make(self._stream)

    def execute(self, request):
        tenant, op, size, index, value = request
        handle = self.handles[tenant]
        if op == "empty":
            return handle.ecall("empty")
        if op == "call_out":
            return handle.ecall("call_out", x=value)
        if op == "take_in":
            return handle.ecall("take_in", data=self.payloads[size][index],
                                n=size)
        if op == "fill_out":
            return handle.ecall("fill_out", n=size, tag=value)
        return handle.ecall("flip_inout", data=self.payloads[size][index],
                            n=size)

    def check(self, request, output) -> bool:
        _, op, size, index, value = request
        if op == "empty":
            return output == 0
        if op == "call_out":
            return output == value + 1
        if op == "take_in":
            return output == self.crcs[size][index]
        if op == "fill_out":
            return output == (0, {"data": _pattern(value, size)})
        return output == (size, {"data": self.payloads[size][index][::-1]})


# ------------------------------------------------------------------- kv --

KV_TENANTS = 8
KV_RECORDS = 384              # per tenant
KV_VALUE_SIZE = 4096          # 8 x 384 x 4 KB = 12 MB > 8 MB LLC
KV_VALUES = 64                # distinct values the generator draws from
KV_READ_SHARE = {"A": 0.50, "B": 0.95}
# One NIC interrupt per request packet and one per response packet;
# each forces an AEX + OS handling + ERESUME (as in the Fig 8d bench).
KV_INTERRUPTS_PER_OP = 2


class KvServing(Workload):
    name = "kv_serving"
    fixed_requests = 3_000
    p99_limit_cycles = GOODPUT_LIMIT_P50S * 154_059.84
    machine_config = MachineConfig(phys_size=1 << 30,
                                   reserved_base=512 << 20,
                                   reserved_size=256 << 20, sanitize=False)
    WARMUP = 200

    def setup(self) -> None:
        platform = self.boot()
        loopback = platform.loopback
        data_rng = _rng(self.seed, 0)
        self.values = [data_rng.randbytes(KV_VALUE_SIZE)
                       for _ in range(KV_VALUES)]
        self.replies = [b"$%d\r\n%s\r\n" % (len(v), v) for v in self.values]
        self.tenants = []
        for i in range(KV_TENANTS):
            mode = EnclaveMode.HU if i % 2 == 0 else EnclaveMode.GU
            handle = platform.load_enclave(make_kv_enclave_image(
                mode, heap_size=16 << 20, msbuf_size=512 << 10))
            register_libos_ocalls(handle, loopback)
            port = 6400 + i
            handle.ecall("kv_init", port=port)
            client = loopback.connect(port)
            conn = handle.ecall("kv_accept", port=port)
            self.tenants.append({
                "handle": handle, "client": client, "conn": conn,
                "mix": "A" if i < KV_TENANTS // 2 else "B",
                "interrupt": (KV_INTERRUPTS_PER_OP
                              * aex_roundtrip_cycles(mode.value),
                              f"aex-interrupt:{mode.value}"),
                "zipf": ZipfianGenerator(KV_RECORDS, theta=0.99,
                                         seed=self.seed * 131 + i),
                "shadow": {}})
        for i in range(KV_TENANTS):
            for key in range(KV_RECORDS):
                request = (i, "update", key, data_rng.randrange(KV_VALUES))
                self.check(request, self.execute(request))
        self._stream = _rng(self.seed, 1)
        warm_rng = _rng(self.seed, 2)
        for _ in range(self.WARMUP):
            request = self._make(warm_rng)
            self.check(request, self.execute(request))

    def _make(self, rng):
        tenant = rng.randrange(KV_TENANTS)
        state = self.tenants[tenant]
        key = state["zipf"].next()
        if rng.random() < KV_READ_SHARE[state["mix"]]:
            return (tenant, "read", key, None)
        return (tenant, "update", key, rng.randrange(KV_VALUES))

    def next_request(self):
        return self._make(self._stream)

    def execute(self, request):
        tenant, op, key, value = request
        state = self.tenants[tenant]
        loopback = self.platform.loopback
        if op == "read":
            command = encode_command(b"GET", record_key(key))
        else:
            command = encode_command(b"SET", record_key(key),
                                     self.values[value])
        loopback.send(state["client"], command, from_client=True)
        state["handle"].ecall("kv_serve", conn=state["conn"])
        cycles, category = state["interrupt"]
        self.machine.cycles.charge(cycles, category)
        return loopback.recv(state["client"], from_client=False)

    def check(self, request, output) -> bool:
        tenant, op, key, value = request
        shadow = self.tenants[tenant]["shadow"]
        if op == "read":
            return output == self.replies[shadow[key]]
        shadow[key] = value
        return output == b"+OK\r\n"


# ----------------------------------------------------------------- swap --

SWAP_EDL = """
enclave {
    trusted {
        public uint64 sweep([in, size=n] bytes ops, uint64 n,
                            [out, size=m] bytes tags, uint64 m);
    };
    untrusted { };
};
"""
SWAP_BASE_VA = ENCLAVE_BASE_VA + 128 * PAGE_SIZE
SWAP_TENANTS = 3
# Page touches per request: a small chunk, where bench_epc_pressure
# sweeps 256 pages per ECALL.  8 is an assumption, not a measured size.
SWAP_OPS = 8
# Half of them follow the tenant's cursor, a sequential sweep as in
# bench_epc_pressure; the other half are zipfian (YCSB's theta 0.99).
# The even split is an assumption.
SWAP_SEQUENTIAL = 4
# YCSB-A's update share, as on half of the kv_serving tenants.
SWAP_WRITE_SHARE = 1 - KV_READ_SHARE["A"]
_OP = struct.Struct("<QQ")    # (page index, tag); tag 0 means read


def _t_sweep(ctx, ops, n, tags, m):
    """Trusted: write each op's tag to its page or read the page's tag."""
    reads = 0
    for offset in range(0, n, _OP.size):
        page, tag = _OP.unpack_from(ops, offset)
        va = SWAP_BASE_VA + page * PAGE_SIZE
        if tag:
            ctx.write(va, tag.to_bytes(8, "little"))
        else:
            tags[reads * 8:reads * 8 + 8] = ctx.read(va, 8)
            reads += 1
    return reads


class EpcSwap(Workload):
    name = "epc_swap"
    fixed_requests = 1_200
    p99_limit_cycles = GOODPUT_LIMIT_P50S * 129_299.2
    # ~7 MB of EPC once RustMonitor has its private memory.
    machine_config = MachineConfig(phys_size=256 << 20,
                                   reserved_base=128 << 20,
                                   reserved_size=8 << 20, sanitize=False)

    def setup(self) -> None:
        platform = self.boot()
        self.handles = []
        for i in range(SWAP_TENANTS):
            image = EnclaveImage.build(
                f"swap-{i}", SWAP_EDL, {"sweep": _t_sweep},
                EnclaveConfig(mode=EnclaveMode.GU, heap_size=16 << 20,
                              tcs_count=1, marshalling_buffer_size=64 << 10))
            self.handles.append(platform.load_enclave(image))
        # Working sets together twice the EPC left after loading.
        self.pages = 2 * platform.monitor.epc_pool.free_pages // SWAP_TENANTS
        for handle in self.handles:
            platform.monitor.reserve_region(handle.enclave_id, SWAP_BASE_VA,
                                            self.pages * PAGE_SIZE)
        self.shadow = [{} for _ in self.handles]
        self.cursor = [0] * SWAP_TENANTS
        self.zipf = [ZipfianGenerator(self.pages, theta=0.99,
                                      seed=self.seed * 131 + i)
                     for i in range(SWAP_TENANTS)]
        # Warm-up: tag every page once, so the EPC is full, about half
        # of each working set sits in the swap store, and every later
        # read has a tag to verify.
        warm_rng = _rng(self.seed, 2)
        for tenant in range(SWAP_TENANTS):
            for first in range(0, self.pages, SWAP_OPS):
                pages = range(first, min(first + SWAP_OPS, self.pages))
                ops = [(page, warm_rng.getrandbits(63) | 1)
                       for page in pages]
                request = self._request(tenant, ops)
                self.check(request, self.execute(request))
        self._stream = _rng(self.seed, 1)

    def _request(self, tenant, ops):
        expected = []
        pending = {}
        for page, tag in ops:
            if tag:
                pending[page] = tag
            else:
                expected.append(pending.get(page,
                                            self.shadow[tenant].get(page, 0)))
        return (tenant, b"".join(_OP.pack(page, tag) for page, tag in ops),
                expected, pending)

    def next_request(self):
        rng = self._stream
        tenant = rng.randrange(SWAP_TENANTS)
        ops = []
        for i in range(SWAP_OPS):
            if i < SWAP_SEQUENTIAL:
                page = self.cursor[tenant]
                self.cursor[tenant] = (page + 1) % self.pages
            else:
                page = self.zipf[tenant].next()
            write = rng.random() < SWAP_WRITE_SHARE
            ops.append((page, rng.getrandbits(63) | 1 if write else 0))
        return self._request(tenant, ops)

    def execute(self, request):
        tenant, ops, _, _ = request
        return self.handles[tenant].ecall(
            "sweep", ops=ops, n=len(ops), m=SWAP_OPS * 8)

    def check(self, request, output) -> bool:
        tenant, _, expected, writes = request
        self.shadow[tenant].update(writes)
        reads, outs = output
        tags = outs["tags"]
        got = [int.from_bytes(tags[i * 8:i * 8 + 8], "little")
               for i in range(reads)]
        return got == expected


WORKLOADS = {cls.name: cls for cls in (EdgeCalls, KvServing, EpcSwap)}
