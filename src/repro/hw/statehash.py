"""Canonical hashing of simulated machine state.

The flight recorder's checkpoints, the bench determinism gate, and the
forensic bundles all need one answer to "is this machine in the same
state?".  :func:`canonical` normalizes arbitrary simulator values
(enums, bytes, dicts, dataclass-ish objects) into a deterministic,
JSON-like text form; :func:`digest` hashes it.  Everything here is a
pure function of the simulation — no wall clocks, ids, or dict order
leaks (staticcheck SC001 applies to the artifacts these digests land in).
"""

from __future__ import annotations

import enum
import hashlib


def canonical(value) -> str:
    """A deterministic text rendering of a simulator value.

    Dicts and sets are sorted by key/value text, enums render as their
    value, bytes as hex — so two structurally-equal states always render
    identically regardless of insertion order or object identity.
    """
    # Enum before int: IntFlag/IntEnum members are ints too, and their
    # repr is not stable across Python versions — their value is.
    if isinstance(value, enum.Enum):
        return canonical(value.value)
    if value is None or isinstance(value, (bool, int, str)):
        return repr(value)
    if isinstance(value, float):
        # repr round-trips floats exactly; cycle totals are floats.
        return repr(value)
    if isinstance(value, (bytes, bytearray)):
        return bytes(value).hex()
    if isinstance(value, dict):
        items = sorted((canonical(k), canonical(v))
                       for k, v in value.items())
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if isinstance(value, (set, frozenset)):
        return "{" + ",".join(sorted(canonical(v) for v in value)) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(canonical(v) for v in value) + "]"
    raise TypeError(f"cannot canonicalize {type(value).__name__} "
                    f"for state hashing")


def digest(value) -> str:
    """The sha256 hex digest of a value's canonical form."""
    return hashlib.sha256(canonical(value).encode()).hexdigest()


def fold(parts: dict[str, str]) -> str:
    """Fold named component digests into one machine state hash."""
    lines = "\n".join(f"{name}={parts[name]}" for name in sorted(parts))
    return hashlib.sha256(lines.encode()).hexdigest()


def chain(previous: str, *parts) -> str:
    """One link of a hash chain: H(prev ‖ parts...).

    Checkpoint k's chain value commits to every checkpoint before it, so
    chain equality at k proves the two runs agreed on *all* checkpoints
    up to k — the property replay bisection relies on.
    """
    h = hashlib.sha256(previous.encode())
    for part in parts:
        h.update(b"\x00")
        h.update(str(part).encode())
    return h.hexdigest()
