"""Conservative call-graph construction over a loaded :class:`Project`.

Each project function gets a :class:`FunctionFacts` record: outgoing
call sites (resolved precisely through imports, ``self`` dispatch and
class bases where possible, falling back to name-based method dispatch
otherwise), every *external* dotted reference the body makes
(``time.time``, ``os.environ`` — calls or bare attribute access), and
the cycle-charge sites with their category expressions.

Nested functions and lambdas are folded into their enclosing top-level
function: a closure's effects are attributed to the function that
creates it, which over-approximates reachability in the safe direction.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.staticcheck.project import (ClassInfo, FunctionInfo, ModuleInfo,
                                       Project, dotted_of)

#: Attribute names that charge simulated cycles when called.
CHARGE_ATTRS = frozenset({"charge", "charge_steps", "_charge_hypercall"})

#: External roots worth recording as references (nondeterminism sources).
_EXTERNAL_ROOTS = frozenset({
    "os", "time", "datetime", "random", "builtins", "hashlib", "uuid",
    "secrets", "socket",
})

#: Bare builtin calls recorded as external references when unshadowed.
_TRACKED_BUILTINS = frozenset({"id", "hash", "set", "sorted", "frozenset"})


@dataclass
class CallSite:
    """One outgoing call edge (or unresolved dispatch fan-out entry)."""

    line: int
    attr: str                        # trailing name of the call target
    callee: str | None = None        # project qualname when resolved
    external: str | None = None      # canonical dotted external target
    receiver: str = ""               # unparsed receiver expression
    precise: bool = True             # False for name-based dispatch
    arg_count: int = 0
    has_args: bool = False           # any positional/keyword arguments


@dataclass
class ChargeSite:
    """One cycle-charge call with its normalized category expression."""

    line: int
    attr: str
    category: str


@dataclass
class FunctionFacts:
    """Per-function analysis facts."""

    calls: list[CallSite] = field(default_factory=list)
    external_refs: list[tuple[str, int]] = field(default_factory=list)
    charges: list[ChargeSite] = field(default_factory=list)


def _local_aliases(fn: ast.AST, module: ModuleInfo) -> dict[str, str]:
    """In-function assignment aliases (``t = time.time``)."""
    local: dict[str, str] = {}
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            dotted = dotted_of(node.value, module.aliases, local)
            if dotted is not None:
                local[node.targets[0].id] = dotted
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            # Function-level imports: fold into the local alias map.
            if isinstance(node, ast.Import):
                for item in node.names:
                    bound = item.asname or item.name.split(".")[0]
                    local[bound] = item.name if item.asname else bound
            else:
                base = node.module or ""
                for item in node.names:
                    if item.name == "*":
                        continue
                    local[item.asname or item.name] = \
                        f"{base}.{item.name}" if base else item.name
    return local


def _category_of(call: ast.Call, attr: str) -> str:
    """Normalized charge-category expression for a charge call."""
    if attr == "_charge_hypercall":
        return "'hypercall'"
    expr: ast.AST | None = None
    if len(call.args) >= 2:
        expr = call.args[1]
    else:
        for kw in call.keywords:
            if kw.arg == "category":
                expr = kw.value
    if expr is None:
        return "'misc'"
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return repr(expr.value)
    return ast.unparse(expr)


class _BodyVisitor(ast.NodeVisitor):
    """Collects calls and external references in one function body."""

    def __init__(self, project: Project, module: ModuleInfo,
                 info: FunctionInfo, local: dict[str, str]) -> None:
        self.project = project
        self.module = module
        self.info = info
        self.local = local
        self.facts = FunctionFacts()
        self._shadowed = self._collect_shadowed(info.node)

    @staticmethod
    def _collect_shadowed(fn: ast.AST) -> set[str]:
        shadowed: set[str] = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.arg):
                shadowed.add(node.arg)
            elif isinstance(node, ast.Name) \
                    and isinstance(node.ctx, ast.Store):
                shadowed.add(node.id)
        return shadowed

    # -- reference recording --------------------------------------------------

    def _record_external(self, dotted: str, line: int) -> None:
        if dotted.split(".")[0] in _EXTERNAL_ROOTS:
            self.facts.external_refs.append((dotted, line))

    def _add_call(self, site: CallSite) -> None:
        self.facts.calls.append(site)

    # -- visitors -------------------------------------------------------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        # Bare attribute chains (``os.environ[...]``) count as external
        # references even when nothing is called.
        dotted = dotted_of(node, self.module.aliases, self.local)
        if dotted is not None:
            self._record_external(dotted, node.lineno)
            return                    # the chain root is covered
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        self._handle_call(node)
        # Visit arguments (and receiver subtrees for unresolved calls);
        # _handle_call already recorded the func chain when resolvable.
        for arg in node.args:
            self.visit(arg)
        for kw in node.keywords:
            self.visit(kw.value)
        if isinstance(node.func, ast.Attribute):
            dotted = dotted_of(node.func, self.module.aliases, self.local)
            if dotted is None:
                self.visit(node.func.value)

    def _handle_call(self, node: ast.Call) -> None:
        func = node.func
        has_args = bool(node.args or node.keywords)
        nargs = len(node.args)

        if isinstance(func, ast.Name):
            self._handle_name_call(node, func, has_args, nargs)
            return
        if not isinstance(func, ast.Attribute):
            return                    # call of a computed expression
        attr = func.attr
        receiver = ast.unparse(func.value)

        # self.<attr>(...): resolve within the class and its bases.
        if isinstance(func.value, ast.Name) and func.value.id == "self" \
                and self.info.class_name is not None:
            resolved = self.project.resolve_method(
                self.module, self.info.class_name, attr)
            if resolved is not None:
                self._emit(node, attr, callee=resolved, receiver="self")
                return

        dotted = dotted_of(func, self.module.aliases, self.local)
        if dotted is not None:
            symbol = self.project.lookup_dotted(dotted)
            if isinstance(symbol, FunctionInfo):
                self._emit(node, attr, callee=symbol, receiver=receiver)
                return
            if isinstance(symbol, ClassInfo):
                self._emit_constructor(node, symbol, receiver)
                return
            if dotted.split(".")[0] not in self.project.packages:
                self._record_external(dotted, node.lineno)
                self._emit(node, attr, external=dotted, receiver=receiver)
                return
            # A method of a project object (``module.instance.m()``):
            # dispatch by name like any unresolved receiver.

        # Unresolvable receiver: conservative name-based dispatch to
        # every project method with this name.
        targets = self.project.method_index.get(attr, ())
        if targets:
            for target in targets:
                self._emit(node, attr, callee=target, receiver=receiver,
                           precise=False)
        else:
            self._emit(node, attr, receiver=receiver, precise=False)

    def _handle_name_call(self, node: ast.Call, func: ast.Name,
                          has_args: bool, nargs: int) -> None:
        name = func.id
        dotted = self.local.get(name) or self.module.aliases.get(name)
        if dotted is None and name in self.module.functions:
            self._emit(node, name, callee=self.module.functions[name])
            return
        if dotted is None and name in self.module.classes:
            self._emit_constructor(node, self.module.classes[name], "")
            return
        if dotted is None:
            if name in _TRACKED_BUILTINS and name not in self._shadowed:
                dotted = f"builtins.{name}"
                self._record_external(dotted, node.lineno)
                self._emit(node, name, external=dotted)
            return
        symbol = self.project.lookup_dotted(dotted)
        if isinstance(symbol, FunctionInfo):
            self._emit(node, name, callee=symbol)
        elif isinstance(symbol, ClassInfo):
            self._emit_constructor(node, symbol, "")
        else:
            self._record_external(dotted, node.lineno)
            self._emit(node, name, external=dotted)

    def _emit_constructor(self, node: ast.Call, cls: ClassInfo,
                          receiver: str) -> None:
        ctor = self.project.constructor_of(cls)
        if ctor is not None:
            self._emit(node, "__init__", callee=ctor,
                       receiver=receiver or cls.name)

    def _emit(self, node: ast.Call, attr: str, *,
              callee: FunctionInfo | None = None,
              external: str | None = None, receiver: str = "",
              precise: bool = True) -> None:
        site = CallSite(
            line=node.lineno, attr=attr,
            callee=callee.qualname if callee is not None else None,
            external=external, receiver=receiver, precise=precise,
            arg_count=len(node.args),
            has_args=bool(node.args or node.keywords))
        self._add_call(site)
        if attr in CHARGE_ATTRS:
            self.facts.charges.append(ChargeSite(
                line=node.lineno, attr=attr,
                category=_category_of(node, attr)))


def build_facts(project: Project) -> dict[str, FunctionFacts]:
    """Analysis facts for every function in the project."""
    facts: dict[str, FunctionFacts] = {}
    for qualname, info in project.functions.items():
        module = project.modules[info.module_name]
        local = _local_aliases(info.node, module)
        visitor = _BodyVisitor(project, module, info, local)
        for stmt in info.node.body:
            visitor.visit(stmt)
        facts[qualname] = visitor.facts
    return facts


def callees_of(facts: FunctionFacts) -> list[str]:
    """Project qualnames this function may call."""
    return [site.callee for site in facts.calls if site.callee is not None]
