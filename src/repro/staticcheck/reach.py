"""Reachability utilities over the conservative call graph.

Chains are tracked with BFS parent pointers so every finding can print
the *shortest* witnessing call path from a root to the violating
function — long enough to explain, short enough to read.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable

from repro.staticcheck.callgraph import CHARGE_ATTRS, FunctionFacts


def bfs_reachable(roots: Iterable[str],
                  facts: dict[str, FunctionFacts],
                  descend: Callable[[str], bool] | None = None
                  ) -> dict[str, str | None]:
    """Breadth-first reachability from ``roots``.

    Returns ``{qualname: parent_qualname_or_None}`` for every function
    reached.  Roots are explored in order, each only if no earlier root
    reached it, so a chain starts at the first root that reaches its
    target.  ``descend(qualname)`` gates whether edges *out of* a
    function are followed (the function itself is still recorded, so a
    sanctioned module boundary is visible in chains but not traversed).
    """
    parents: dict[str, str | None] = {}
    for root in roots:
        if root in parents:
            continue
        parents[root] = None
        queue: deque[str] = deque([root])
        while queue:
            current = queue.popleft()
            if descend is not None and not descend(current):
                continue
            current_facts = facts.get(current)
            if current_facts is None:
                continue
            for site in current_facts.calls:
                callee = site.callee
                if callee is None or callee in parents:
                    continue
                parents[callee] = current
                queue.append(callee)
    return parents


def chain_to(parents: dict[str, str | None], target: str) -> list[str]:
    """The root -> ... -> target path recorded by :func:`bfs_reachable`."""
    chain = [target]
    cursor = parents.get(target)
    seen = {target}
    while cursor is not None and cursor not in seen:
        chain.append(cursor)
        seen.add(cursor)
        cursor = parents.get(cursor)
    chain.reverse()
    return chain


def functions_reaching(predicate: Callable[[str, FunctionFacts], bool],
                       facts: dict[str, FunctionFacts]) -> set[str]:
    """Every function from which a ``predicate`` function is reachable.

    Computed by reverse propagation: seed with the functions satisfying
    ``predicate`` directly, then walk callers until a fixed point.
    """
    reverse: dict[str, set[str]] = {}
    seeds: set[str] = set()
    for qualname, fn_facts in facts.items():
        if predicate(qualname, fn_facts):
            seeds.add(qualname)
        for site in fn_facts.calls:
            if site.callee is not None:
                reverse.setdefault(site.callee, set()).add(qualname)
    reached = set(seeds)
    queue = deque(seeds)
    while queue:
        current = queue.popleft()
        for caller in reverse.get(current, ()):
            if caller not in reached:
                reached.add(caller)
                queue.append(caller)
    return reached


def charging_functions(facts: dict[str, FunctionFacts]) -> set[str]:
    """Functions that transitively reach a cycle-charge site."""
    return functions_reaching(
        lambda _q, f: any(site.attr in CHARGE_ATTRS for site in f.calls),
        facts)
