"""Layer tracing from outside the program.

The traced run wraps the public functions of each layer (repo module)
listed in :data:`LAYERS` and records one span each time control enters
a layer from a different layer.  A call that stays inside the layer it
was made from (``sha256`` under ``aead_encrypt``, ``PageTable.translate``
under ``copy_in``) only bumps its function's call counter, so a layer's
time is never counted twice.  Self time is computed on the fly: a span's
duration minus the part its child spans cover.

Every name is patched where its callers look it up: a function imported
by name (``from repro.monitor.swap import swap_in_page``) is replaced in
every ``repro`` module that holds it, a method on its class.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# layer -> [(module, qualified name)].  METRICS.md says which end-to-end
# metric each layer should move, on which workload.
LAYERS: dict[str, list[tuple[str, str]]] = {
    "sdk": [
        ("repro.sdk.urts", "EnclaveHandle.ecall"),
        ("repro.sdk.urts", "EnclaveHandle.dispatch_ocall"),
        ("repro.sdk.urts", "UntrustedRuntime.create_enclave"),
    ],
    "monitor": [
        ("repro.monitor.world", "WorldSwitchEngine.eenter"),
        ("repro.monitor.world", "WorldSwitchEngine.eexit"),
        ("repro.monitor.world", "WorldSwitchEngine.aex"),
        ("repro.monitor.world", "WorldSwitchEngine.eresume"),
        ("repro.monitor.rustmonitor", "RustMonitor.handle_enclave_page_fault"),
        ("repro.monitor.rustmonitor", "RustMonitor.ecreate"),
        ("repro.monitor.rustmonitor", "RustMonitor.eadd"),
        ("repro.monitor.rustmonitor", "RustMonitor.einit"),
        ("repro.monitor.rustmonitor", "RustMonitor.eremove"),
        ("repro.monitor.swap", "swap_out_page"),
        ("repro.monitor.swap", "swap_in_page"),
    ],
    "hw": [
        ("repro.hw.paging", "PageTable.translate"),
        ("repro.hw.paging", "NestedTranslator.translate"),
        ("repro.hw.memaccess", "copy_in"),
        ("repro.hw.memaccess", "copy_out"),
        ("repro.hw.memmodel", "MemorySubsystem.touch"),
        ("repro.hw.memmodel", "MemorySubsystem.touch_sequential"),
    ],
    "crypto": [
        ("repro.crypto.cipher", "aead_encrypt"),
        ("repro.crypto.cipher", "aead_decrypt"),
        ("repro.crypto.hashes", "sha256"),
        ("repro.crypto.hashes", "hmac_sha256"),
    ],
    "osim": [
        ("repro.osim.net", "Loopback.send"),
        ("repro.osim.net", "Loopback.recv"),
        ("repro.osim.kmod", "HyperEnclaveDevice.ioctl"),
        ("repro.osim.kernel", "Kernel.user_read"),
        ("repro.osim.kernel", "Kernel.user_write"),
    ],
    "libos": [
        ("repro.libos.occlum", "OcclumLibos.recv"),
        ("repro.libos.occlum", "OcclumLibos.send"),
        ("repro.libos.occlum", "OcclumLibos.read_file"),
        ("repro.libos.occlum", "OcclumLibos.write_file"),
    ],
    "apps": [
        ("repro.apps.kvserver", "RespServer.handle_command"),
    ],
}

LAYER_NAMES = list(LAYERS)
HARNESS = "harness"          # time in the benchmark's own code


def _payload_bytes(values) -> int:
    return sum(len(v) for v in values
               if isinstance(v, (bytes, bytearray, memoryview)))


def _ecall_bytes(args, kwargs, result) -> int:
    """[in] buffers passed plus [out] buffers returned by one ECALL."""
    moved = _payload_bytes(kwargs.values())
    if isinstance(result, tuple) and len(result) == 2 \
            and isinstance(result[1], dict):
        moved += _payload_bytes(result[1].values())
    return moved


def _ocall_bytes(args, kwargs, result) -> int:
    """The same for one OCALL: ``dispatch_ocall(ctx, name, kwargs)``."""
    call_kwargs = args[3] if len(args) > 3 else kwargs.get("kwargs", {})
    return _ecall_bytes((), call_kwargs, result)


# Functions whose wrapper also counts marshalled payload bytes.
_BYTE_COUNTERS = {
    "EnclaveHandle.ecall": _ecall_bytes,
    "EnclaveHandle.dispatch_ocall": _ocall_bytes,
}


class LayerTracer:
    """Spans and call counts at the layer boundaries of one traced run.

    ``install()`` patches the layer functions; ``uninstall()`` restores
    them (also for modules imported while the tracer was installed).
    The harness sets :attr:`request` to tag spans with a request id.
    """

    def __init__(self) -> None:
        self.request: object = "setup"
        # (id, name, start_ns, end_ns, parent id, request id)
        self.spans: list[tuple] = []
        self.self_ns = dict.fromkeys(LAYER_NAMES + [HARNESS], 0)
        self.entries = dict.fromkeys(LAYER_NAMES, 0)
        self.func_calls: dict[str, int] = {}
        self.marshalled_bytes = 0
        self._origin = time.perf_counter_ns()
        # Each frame: [layer, start_ns, child_ns, span_id].
        self._stack: list[list] = [[HARNESS, self._origin, 0, None]]
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []
        # id(wrapper) -> (wrapper, original) for module-level functions.
        self._wrappers: dict[int, tuple] = {}

    # -- accounting -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Layer self times (ns), entries and function call counts so far."""
        self._close_root()
        return {"self_ns": dict(self.self_ns), "entries": dict(self.entries),
                "func_calls": dict(self.func_calls),
                "marshalled_bytes": self.marshalled_bytes}

    def _close_root(self) -> None:
        # Fold the harness frame's elapsed time into its self time so a
        # snapshot always sums to the wall time since the tracer began.
        root = self._stack[0]
        now = time.perf_counter_ns()
        self.self_ns[HARNESS] += (now - root[1]) - root[2]
        root[1], root[2] = now, 0

    def _wrap(self, fn, layer: str, qualname: str):
        tracer = self
        stack = self._stack
        spans = self.spans
        self_ns = self.self_ns
        entries = self.entries
        calls = self.func_calls
        calls.setdefault(qualname, 0)
        count_bytes = _BYTE_COUNTERS.get(qualname)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[qualname] += 1
            if stack[-1][0] == layer:
                if count_bytes is None:
                    return fn(*args, **kwargs)
                result = fn(*args, **kwargs)
                tracer.marshalled_bytes += count_bytes(args, kwargs, result)
                return result
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][3]
            frame = [layer, clock(), 0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if count_bytes is not None:
                    tracer.marshalled_bytes += count_bytes(args, kwargs,
                                                           result)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                self_ns[layer] += duration - frame[2]
                stack[-1][2] += duration
                entries[layer] += 1
                spans.append((span_id, f"{layer}:{qualname}", frame[1],
                              end, parent, tracer.request))

        return wrapper

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        for layer, targets in LAYERS.items():
            for module_name, qualname in targets:
                module = importlib.import_module(module_name)
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[attr]
                    wrapper = self._wrap(original, layer, qualname)
                    self._patched.append((cls, attr, original))
                    setattr(cls, attr, wrapper)
                else:
                    original = getattr(module, qualname)
                    wrapper = self._wrap(original, layer, qualname)
                    self._wrappers[id(wrapper)] = (wrapper, original)
                    for mod in _repro_modules():
                        for name, value in list(vars(mod).items()):
                            if value is original:
                                self._patched.append((mod, name, original))
                                setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        # Modules first imported while installed copied the wrappers.
        if self._wrappers:
            for mod in _repro_modules():
                for name, value in list(vars(mod).items()):
                    entry = self._wrappers.get(id(value))
                    if entry is not None and entry[0] is value:
                        setattr(mod, name, entry[1])
            self._wrappers.clear()

    # -- output ---------------------------------------------------------------

    def write_spans(self, path) -> None:
        """One JSON object per line: name, start/end ns (from the tracer's
        start), parent span id and request id."""
        origin = self._origin
        with open(path, "w") as out:
            for span_id, name, start, end, parent, request in self.spans:
                out.write(json.dumps(
                    {"id": span_id, "name": name, "start_ns": start - origin,
                     "end_ns": end - origin, "parent": parent,
                     "request": request}) + "\n")


def _repro_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "repro"
                                    or name.startswith("repro."))]
