"""SC007/SC008: per-function hygiene checks.

SC007
    Every telemetry span is closed: a ``.span(...)`` call may only be a
    ``with`` item or be returned to a caller who will close it.  A span
    that is never closed corrupts the trace nesting.
SC008
    No bare ``except:`` in the trusted layers (``repro/monitor/``,
    ``repro/hw/``): swallowing ``SecurityViolation`` would turn a caught
    attack into silent corruption.

Both look at one function (or ``<module>``) body at a time; neither
needs the call graph.
"""

from __future__ import annotations

import ast

from repro.staticcheck.findings import StaticFinding
from repro.staticcheck.project import Project

#: Layers in which a bare ``except:`` is an SC008 finding.
TRUSTED_LAYERS = ("repro/monitor/", "repro/hw/")


def run(project: Project) -> list[StaticFinding]:
    """Run SC007 and SC008 over every body; returns unsorted findings."""
    findings: list[StaticFinding] = []
    for qualname, info in project.functions.items():
        nodes = [node for stmt in info.node.body for node in ast.walk(stmt)]
        closed: set[ast.expr] = set()       # AST nodes hash by identity
        for node in nodes:
            if isinstance(node, (ast.With, ast.AsyncWith)):
                closed.update(item.context_expr for item in node.items)
            elif isinstance(node, ast.Return) and node.value is not None:
                closed.add(node.value)
        trusted = any(layer in info.path for layer in TRUSTED_LAYERS)
        for node in nodes:
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "span" and node not in closed:
                findings.append(StaticFinding(
                    rule="SC007", path=info.path, line=node.lineno,
                    symbol=qualname, sink=ast.unparse(node.func),
                    message="span opened outside a with-statement; a span "
                            "that is never closed corrupts the trace "
                            "nesting"))
            elif trusted and isinstance(node, ast.ExceptHandler) \
                    and node.type is None:
                findings.append(StaticFinding(
                    rule="SC008", path=info.path, line=node.lineno,
                    symbol=qualname, sink="except:",
                    message="bare except in a trusted layer can swallow "
                            "SecurityViolation; catch specific "
                            "exceptions"))
    return findings
