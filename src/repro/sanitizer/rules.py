"""The repro-lint rules: AST checks for reproduction-repo discipline.

====  =======================================================================
R001  No wall-clock or unseeded randomness in cycle-charged simulation code:
      results must be a pure function of the op sequence.  Seeded
      ``random.Random(seed)`` instances are deterministic and allowed.
R002  Untrusted/SDK layers (``repro.sdk``, ``repro.apps``, ``repro.osim``)
      never call ``PhysicalMemory`` read/write primitives directly — all
      access goes through :mod:`repro.hw.memaccess` with a translate
      callback that owns the policy (paging, policing, access control).
R004  Every telemetry span is closed: ``.span(...)`` may only appear as a
      ``with`` context expression or be returned to a caller who will.
R005  No bare ``except:`` in the trusted layers (``repro.monitor``,
      ``repro.hw``): swallowing ``SecurityViolation`` would turn a caught
      attack into silent corruption.
====  =======================================================================

Suppression: ``# repro-lint: disable=R001 -- one-line justification`` on
the offending line, or on a comment block immediately above it.  A
directive without a justification does not suppress.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path

ALL_RULES = ("R001", "R002", "R004", "R005")

# Shared with repro.staticcheck: SC rules use the same pragma syntax.
_DIRECTIVE = re.compile(
    r"#\s*repro-lint:\s*disable="
    r"(?P<rules>(?:R|SC)\d{3}(?:\s*,\s*(?:R|SC)\d{3})*)"
    r"(?:\s*--\s*(?P<why>\S.*))?")

# R001: wall-clock sources and nondeterministic randomness.
_WALL_CLOCK = {("time", "time"), ("time", "time_ns"),
               ("time", "perf_counter"), ("time", "perf_counter_ns"),
               ("time", "monotonic"), ("time", "monotonic_ns"),
               ("time", "process_time"), ("time", "process_time_ns"),
               ("time", "thread_time"), ("time", "thread_time_ns"),
               ("time", "clock_gettime"), ("time", "clock_gettime_ns"),
               ("datetime", "now"), ("datetime", "utcnow"),
               ("datetime", "today")}
_RANDOM_FUNCS = {"random", "randrange", "randint", "randbytes", "choice",
                 "choices", "shuffle", "sample", "uniform", "getrandbits",
                 "seed"}

# R002: the PhysicalMemory primitives untrusted layers must not call.
_PHYS_METHODS = {"read", "write", "read_u64", "write_u64", "zero_frame"}
_R002_LAYERS = ("repro/sdk/", "repro/apps/", "repro/osim/")
_R005_LAYERS = ("repro/monitor/", "repro/hw/")


@dataclass
class Finding:
    """One lint hit, suppressed or not."""

    rule: str
    path: str
    line: int
    message: str
    suppressed: bool = False
    justification: str | None = None

    def as_dict(self) -> dict:
        """JSON-report form."""
        out = {"rule": self.rule, "path": self.path, "line": self.line,
               "message": self.message, "suppressed": self.suppressed}
        if self.justification is not None:
            out["justification"] = self.justification
        return out

    def render(self) -> str:
        """Human-readable one-liner."""
        tag = " (suppressed)" if self.suppressed else ""
        return f"{self.path}:{self.line}: {self.rule}{tag}: {self.message}"


@dataclass
class Suppressions:
    """Per-line suppression directives parsed from source comments."""

    by_line: dict[int, dict[str, str]] = field(default_factory=dict)

    def lookup(self, line: int, rule: str) -> str | None:
        """The justification if ``rule`` is suppressed on ``line``."""
        return self.by_line.get(line, {}).get(rule)


def parse_suppressions(source: str) -> Suppressions:
    """Extract directives; each covers its own line, any directly
    following comment lines, and the first code line after them."""
    sup = Suppressions()
    lines = source.splitlines()
    for lineno, text in enumerate(lines, start=1):
        match = _DIRECTIVE.search(text)
        if match is None:
            continue
        why = (match.group("why") or "").strip()
        if not why:
            continue                    # justification is mandatory
        rules = {r.strip() for r in match.group("rules").split(",")}
        covered = [lineno]
        # A standalone comment directive propagates through the rest of
        # its comment block and onto the first code line below; an
        # end-of-line directive covers only the line it sits on.
        if text.strip().startswith("#"):
            cursor = lineno
            while cursor < len(lines):
                nxt = lines[cursor].strip()
                cursor += 1
                covered.append(cursor)
                if nxt and not nxt.startswith("#"):
                    break               # first code line reached
        for line in covered:
            entry = sup.by_line.setdefault(line, {})
            for rule in rules:
                entry[rule] = why
    return sup


def _qualified(node: ast.AST) -> tuple[str, str] | None:
    """``module.attr`` for an ``ast.Attribute`` over a plain name."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return node.value.id, node.attr
    return None


def _import_aliases(tree: ast.AST) -> dict[str, str]:
    """Bound name -> dotted import target (``import time as t``,
    ``from time import time as t``), so renamed imports still match."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.asname is not None:
                    aliases[item.asname] = item.name
        elif isinstance(node, ast.ImportFrom) \
                and node.module and node.level == 0:
            for item in node.names:
                if item.name != "*":
                    aliases[item.asname or item.name] = \
                        f"{node.module}.{item.name}"
    return aliases


def _resolve_qual(node: ast.Call,
                  aliases: dict[str, str]) -> tuple[str, str] | None:
    """(module, attr) for a call, resolving through import aliases.

    Handles ``tm.time()`` after ``import time as tm`` and the bare
    ``t()`` after ``from time import time as t``.
    """
    qual = _qualified(node.func)
    if qual is not None:
        base, attr = qual
        dotted = aliases.get(base)
        if dotted is not None:
            base = dotted.rpartition(".")[2] or dotted
        return base, attr
    if isinstance(node.func, ast.Name):
        dotted = aliases.get(node.func.id)
        if dotted is not None and "." in dotted:
            mod, _, attr = dotted.rpartition(".")
            return mod.rpartition(".")[2] or mod, attr
    return None


def check_r001(tree: ast.AST, path: str) -> list[Finding]:
    """Wall clocks and unseeded randomness in simulation code."""
    findings = []
    aliases = _import_aliases(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        qual = _resolve_qual(node, aliases)
        if qual is None:
            continue
        if qual in _WALL_CLOCK:
            findings.append(Finding(
                "R001", path, node.lineno,
                f"wall-clock call {qual[0]}.{qual[1]}() in cycle-charged "
                f"code; simulated results must not depend on host time"))
        elif qual[0] == "random" and qual[1] in _RANDOM_FUNCS:
            findings.append(Finding(
                "R001", path, node.lineno,
                f"global random.{qual[1]}() is nondeterministic across "
                f"runs; use a seeded random.Random(seed) instance"))
        elif qual == ("random", "Random") and not node.args \
                and not node.keywords:
            findings.append(Finding(
                "R001", path, node.lineno,
                "random.Random() without a seed draws from the OS; pass "
                "an explicit seed"))
    return findings


def check_r002(tree: ast.AST, path: str) -> list[Finding]:
    """Direct PhysicalMemory access from untrusted/SDK layers."""
    if not any(layer in path for layer in _R002_LAYERS):
        return []
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Attribute)
                and func.attr in _PHYS_METHODS):
            continue
        base = func.value
        if isinstance(base, ast.Attribute) and base.attr == "phys":
            findings.append(Finding(
                "R002", path, node.lineno,
                f"direct PhysicalMemory.{func.attr}() from an untrusted "
                f"layer; go through repro.hw.memaccess with a translate "
                f"callback"))
    return findings


def check_r004(tree: ast.AST, path: str) -> list[Finding]:
    """Telemetry spans must be context-managed (or handed to the caller)."""
    allowed: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                allowed.add(id(item.context_expr))
        elif isinstance(node, ast.Return) and node.value is not None:
            allowed.add(id(node.value))
    findings = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "span"
                and id(node) not in allowed):
            findings.append(Finding(
                "R004", path, node.lineno,
                "span opened outside a with-statement; a span that is "
                "never closed corrupts the trace nesting"))
    return findings


def check_r005(tree: ast.AST, path: str) -> list[Finding]:
    """No bare ``except:`` in the trusted layers."""
    if not any(layer in path for layer in _R005_LAYERS):
        return []
    findings = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            findings.append(Finding(
                "R005", path, node.lineno,
                "bare except in a trusted layer can swallow "
                "SecurityViolation; catch specific exceptions"))
    return findings


_CHECKS = {"R001": check_r001, "R002": check_r002, "R004": check_r004,
           "R005": check_r005}


def lint_source(source: str, path: Path, config) -> list[Finding]:
    """Run every enabled rule over one file's source text."""
    tree = ast.parse(source, filename=str(path))
    suppressions = parse_suppressions(source)
    posix = path.as_posix()
    findings: list[Finding] = []
    for rule, check in _CHECKS.items():
        if not config.rule_enabled(rule):
            continue
        if config.path_excluded(rule, path):
            continue
        for finding in check(tree, posix):
            why = suppressions.lookup(finding.line, rule)
            if why is not None:
                finding.suppressed = True
                finding.justification = why
            findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings
