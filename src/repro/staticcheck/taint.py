"""SC006: trust-boundary taint analysis.

HyperEnclave's security argument rests on the marshalling discipline:
everything crossing from the untrusted world (apps, the simulated OS,
the SDK's app-side surface) into the trusted monitor/hardware layers
must pass through a validation barrier — the edger8r-generated
bridges, ``memaccess.copy_in``/``copy_out`` range checks, or a public
``RustMonitor`` hypercall entry (which sanitizes before acting).

This pass walks the *precise* call graph from every function defined
under a ``taint-sources`` path.  Traversal stops at barrier functions
(files listed in ``taint-barriers``) and at public methods of the
monitor classes — those are the sanctioned crossings.  If the walk
still reaches a trusted sink (raw physical memory, the frame pool,
page tables, enclave page mutation, a private ``RustMonitor`` helper),
untrusted data has a path around the barrier and the finding prints
the witnessing chain.  Barriers cut *transitive* flows only: a direct
``PhysicalMemory`` read/write primitive called from a taint-source
layer is flagged even inside a barrier module, because the bridges
themselves reach memory through ``repro.hw.memaccess``.

Only precise call edges are followed: name-based dispatch fan-out
(``handle.read(...)`` matching ``PhysicalMemory.read``) would drown
real escapes in noise.  At the final hop a fuzzy edge is still
reported when the receiver text names the sink object (``phys``,
``pool``, ``page_table``) — that catches direct attribute reaches
without the fan-out explosion.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.staticcheck.callgraph import FunctionFacts
from repro.staticcheck.config import StaticcheckConfig
from repro.staticcheck.findings import StaticFinding
from repro.staticcheck.project import FunctionInfo, Project
from repro.staticcheck.reach import chain_to

#: Monitor classes whose public methods are sanctioned crossings.
_BARRIER_CLASSES = frozenset({"RustMonitor", "WorldSwitchEngine"})


@dataclass(frozen=True)
class SinkSpec:
    """One trusted-sink shape: class, method names, receiver hints."""

    class_name: str | None
    methods: frozenset[str]
    hints: tuple[str, ...]
    label: str


_SINK_SPECS = (
    SinkSpec("PhysicalMemory",
             frozenset({"read", "write", "read_u64", "write_u64",
                        "zero_frame", "set_owner"}),
             ("phys",), "raw physical memory"),
    SinkSpec("FramePool", frozenset({"alloc", "free"}),
             ("pool", "frame"), "EPC frame pool"),
    SinkSpec("PageTable",
             frozenset({"map", "unmap", "destroy", "set_flags"}),
             ("page_table", "pt", "npt", "ept"), "page tables"),
    SinkSpec("Enclave",
             frozenset({"add_page", "commit_page", "protect_page",
                        "register_marshalling_buffer"}),
             ("enclave",), "enclave page state"),
    SinkSpec(None, frozenset({"swap_in_page", "swap_out_page"}),
             (), "EPC swap engine"),
)

_TRUSTED_FRAGMENTS = ("repro/hw/", "repro/monitor/")

#: Primitives no taint-source function may call directly, barrier or not.
_RAW_PHYS = frozenset(f"PhysicalMemory.{name}" for name in (
    "read", "write", "read_u64", "write_u64", "zero_frame"))


def _build_sinks(project: Project) -> dict[str, str]:
    """qualname -> human label for every trusted-sink function."""
    sinks: dict[str, str] = {}
    for qualname, info in project.functions.items():
        if not any(f in info.path for f in _TRUSTED_FRAGMENTS):
            continue
        for spec in _SINK_SPECS:
            if spec.class_name is None:
                if info.class_name is None and info.name in spec.methods:
                    sinks[qualname] = spec.label
            elif info.class_name == spec.class_name \
                    and info.name in spec.methods:
                sinks[qualname] = spec.label
        if info.class_name == "RustMonitor" and not info.is_public:
            sinks[qualname] = "private monitor helper"
    return sinks


def _sink_hints(name: str) -> tuple[str, ...]:
    for spec in _SINK_SPECS:
        if name in spec.methods:
            return spec.hints
    return ()


def _is_barrier(info: FunctionInfo, config: StaticcheckConfig) -> bool:
    if any(fragment in info.path for fragment in config.taint_barriers):
        return True
    return info.class_name in _BARRIER_CLASSES and info.is_public


def run(project: Project, facts: dict[str, FunctionFacts],
        config: StaticcheckConfig) -> list[StaticFinding]:
    """Run the taint pass; returns unsorted findings."""
    sinks = _build_sinks(project)
    for extra in config.taint_sinks:
        sinks.setdefault(extra, "configured sink")

    sources = {q: info for q, info in project.functions.items()
               if not config.path_excluded(info.path)
               and any(f in info.path for f in config.taint_sources)}
    roots = [q for q, info in sources.items()
             if not _is_barrier(info, config)]

    # Precise-edge BFS with barrier cuts, parent pointers for chains.
    parents: dict[str, str | None] = {q: None for q in roots}
    queue = list(roots)
    while queue:
        current = queue.pop(0)
        info = project.functions.get(current)
        if info is None or _is_barrier(info, config):
            continue
        for site in facts[current].calls:
            if not site.precise or site.callee is None:
                continue
            if site.callee in sinks or site.callee in parents:
                continue              # sinks are reported, not traversed
            parents[site.callee] = current
            queue.append(site.callee)

    findings: list[StaticFinding] = []
    seen: set[tuple[str, int, str]] = set()
    for qualname in dict.fromkeys([*parents, *sources]):
        info = project.functions.get(qualname)
        if info is None:
            continue
        barrier = _is_barrier(info, config)
        if barrier and qualname not in sources:
            continue
        for site in facts[qualname].calls:
            if site.callee is None or site.callee not in sinks:
                continue
            if barrier and site.callee.split(":")[-1] not in _RAW_PHYS:
                continue
            if not site.precise:
                hints = _sink_hints(site.attr)
                receiver = site.receiver.lower()
                if not any(h in receiver for h in hints):
                    continue
            key = (info.path, site.line, site.callee)
            if key in seen:
                continue
            seen.add(key)
            chain = chain_to(parents, qualname) + [site.callee]
            findings.append(StaticFinding(
                rule="SC006", path=info.path, line=site.line,
                symbol=qualname, sink=site.callee,
                message=(f"untrusted value flow reaches {sinks[site.callee]}"
                         f" ({site.callee.split(':')[-1]}) without passing"
                         f" a marshalling barrier; route through the "
                         f"edger8r bridge, memaccess, or a public monitor"
                         f" entry point"),
                chain=chain))
    return findings
