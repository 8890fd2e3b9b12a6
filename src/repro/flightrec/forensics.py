"""Forensic bundles: the post-mortem record of a failing run.

When a :class:`SanitizerViolation` is raised, or a recorded scenario
dies on an unhandled fault, the platform emits one bundle per machine:
the machine state hash and per-component fingerprint, a deep state dump
(CPU context, TLB entries, full page-table walks via the machine's dump
providers), the telemetry span stack that was open at the time, the last
N journal events, and a metrics snapshot.  ``python -m repro.flightrec
inspect <bundle>`` renders it.

Emission is opt-in: it happens only while a flight recorder is active or
``REPRO_FORENSICS_DIR`` is set (CI sets it so failing jobs upload
bundles as artifacts).  The happy path pays nothing.
"""

from __future__ import annotations

import json
import os
import pathlib

BUNDLE_VERSION = 1
BUNDLE_KIND = "hyperenclave-forensics"
DEFAULT_EVENT_TAIL = 64

FORENSICS_DIR_ENV = "REPRO_FORENSICS_DIR"

_emitted = 0


def forensics_dir() -> pathlib.Path:
    """Where bundles land (the CI artifact directory when set)."""
    # repro-lint: disable=SC001 -- host knob: picks the bundle output
    # directory; a bundle observes the machine and never feeds a charge
    return pathlib.Path(os.environ.get(FORENSICS_DIR_ENV) or "forensics")


def build_bundle(machine, error: BaseException | None = None, *,
                 events=None, label: str = "machine") -> dict:
    """Assemble one bundle document for ``machine``.

    ``events`` overrides the event tail (the recorder passes its
    lossless journal tail); by default the machine's own trace ring
    supplies the last events it still holds.
    """
    if events is None:
        events = [str(e) for e in machine.trace.events()[-DEFAULT_EVENT_TAIL:]]
    error_doc = None
    if error is not None:
        error_doc = {
            "type": type(error).__name__,
            "message": str(error),
            "code": getattr(error, "code", None),
        }
    from repro.flightrec.recorder import _config_document
    return {
        "version": BUNDLE_VERSION,
        "kind": BUNDLE_KIND,
        "label": label,
        "error": error_doc,
        "state_hash": machine.state_hash(),
        "state_fingerprint": machine.state_fingerprint(),
        "config": _config_document(machine.config),
        "cycles": {"total": machine.cycles.total,
                   "by_category": machine.cycles.breakdown()},
        "open_spans": machine.telemetry.open_span_names(),
        "trace_stats": machine.trace.stats(),
        "events": events,
        "metrics": machine.telemetry.registry.snapshot(),
        "hardware": machine.telemetry.hardware_stats(),
        "dump": machine.state_dump(),
    }


def write_bundle(document: dict,
                 directory: str | pathlib.Path | None = None
                 ) -> pathlib.Path:
    """Write one bundle; the filename folds in the state hash."""
    global _emitted
    _emitted += 1
    directory = pathlib.Path(directory) if directory else forensics_dir()
    directory.mkdir(parents=True, exist_ok=True)
    name = (f"forensic-{_emitted:03d}-{document['label']}"
            f"-{document['state_hash'][:12]}.json")
    path = directory / name
    path.write_text(json.dumps(document, indent=2, sort_keys=True,
                               default=str) + "\n")
    return path


def load_bundle(path: str | pathlib.Path) -> dict:
    """Read a forensic bundle from disk, validating its kind."""
    document = json.loads(pathlib.Path(path).read_text())
    if document.get("kind") != BUNDLE_KIND:
        raise ValueError(f"not a forensic bundle: {path}")
    return document


def render_bundle(document: dict, *, events: int = 20,
                  verbose: bool = False) -> str:
    """The ``inspect`` CLI's human-readable rendering."""
    lines = [f"forensic bundle: {document['label']}"]
    error = document.get("error")
    if error:
        code = f" [{error['code']}]" if error.get("code") else ""
        lines.append(f"error: {error['type']}{code}: {error['message']}")
    lines.append(f"state hash: {document['state_hash']}")
    for name, digest in sorted(document["state_fingerprint"].items()):
        lines.append(f"  {name:<10} {digest}")
    cycles = document["cycles"]
    lines.append(f"cycles: {cycles['total']:,.0f} total")
    if document["open_spans"]:
        lines.append("open spans (outermost first):")
        for name in document["open_spans"]:
            lines.append(f"  {name}")
    stats = document["trace_stats"]
    lines.append(f"trace: {stats['recorded']} recorded, "
                 f"{stats['dropped']} dropped, "
                 f"{stats['entries']}/{stats['capacity']} resident")
    tail = document["events"][-events:]
    if tail:
        lines.append(f"last {len(tail)} events:")
        lines.extend(f"  {e}" for e in tail)
    if verbose:
        dump = document.get("dump", {})
        lines.append("state dump:")
        lines.append(json.dumps(dump, indent=2, sort_keys=True,
                                default=str))
    return "\n".join(lines)


# -- emission hooks ----------------------------------------------------------

def _active_recorder():
    from repro.flightrec import recorder
    return recorder.current()


def emission_enabled() -> bool:
    """Bundles are emitted iff recording is on or CI asked for them."""
    return (_active_recorder() is not None
            # repro-lint: disable=SC001 -- host knob: whether an observer
            # writes bundles; the simulation runs the same either way
            or bool(os.environ.get(FORENSICS_DIR_ENV)))


def emit_for_machine(machine, error: BaseException | None = None,
                     *, label: str = "machine") -> pathlib.Path | None:
    """Write one bundle for ``machine`` if emission is enabled.

    When a recorder is active, the bundle's event tail comes from its
    lossless journal instead of the (possibly wrapped) trace ring.  The
    bundle path is attached to the exception as ``forensic_bundle``.
    """
    if not emission_enabled():
        return None
    events = None
    rec = _active_recorder()
    if rec is not None and machine in rec.machines:
        slot = rec.machines.index(machine)
        events = [str(e) for e in rec.journal.events
                  if e.machine == slot][-DEFAULT_EVENT_TAIL:]
        label = rec.journal.header["machines"][slot]["label"]
    path = write_bundle(build_bundle(machine, error, events=events,
                                     label=label))
    if error is not None:
        try:
            error.forensic_bundle = str(path)
        except AttributeError:
            pass                     # exceptions with __slots__
    return path


def emit_for_recorder(rec, error: BaseException | None = None
                      ) -> list[pathlib.Path]:
    """One bundle per machine the recorder attached (crash path)."""
    paths = []
    for machine in rec.machines:
        path = emit_for_machine(machine, error)
        if path is not None:
            paths.append(path)
    return paths
