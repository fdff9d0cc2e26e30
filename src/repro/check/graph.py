"""Whole-program facts, import graph, and conservative call graph.

Module-scope rules see one file at a time, so a blocking call or
snapshot mutation hidden one helper-function away is invisible to them.
This module is the whole-program layer underneath the project-scope
rules (RC108–RC115): every parsed module is distilled into a
:class:`ModuleFacts` record — imports, function/call summaries,
blocking sites, frozen-snapshot writes and arguments, exported names —
and :class:`ProjectGraph` folds those records into a project-wide
import graph plus a *conservative* call graph (an edge exists only when
the callee resolves unambiguously; unresolvable calls are dropped,
never guessed).  Walking that call graph for a rule is the job of
:class:`~repro.check.dataflow.FlowResolver`; the graph only resolves
calls and parameters.

Facts are plain data and round-trip through JSON: the incremental cache
(:mod:`repro.check.cache`) stores them per file, so a warm ``repro
check`` run rebuilds the graph from cached facts without re-parsing
unchanged files — whole-program rules keep seeing the whole program
while only changed files pay the parse cost.
"""

from __future__ import annotations

import ast
from dataclasses import asdict, dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .cache import from_plain
from .context import attribute_writes, infer_local_types, walk_scope
from .dataflow import FlowFact, FlowResolver, analyze_function

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .context import ModuleSource

__all__ = [
    "FROZEN_CLASSES",
    "BlockingSite",
    "CallFact",
    "ClassFact",
    "ExportFact",
    "FrozenArgFact",
    "FrozenWrite",
    "FunctionFact",
    "ImportFact",
    "ModuleFacts",
    "ProjectGraph",
    "blocking_call_label",
    "extract_facts",
    "resolve_import_source",
]

#: Frozen snapshot classes → the one module allowed to touch their
#: attributes (their defining module, i.e. ``__init__`` and friends).
#: RC111 reads it for both of its depths: a write through a local of a
#: frozen type, and a frozen instance handed to a mutating helper.
FROZEN_CLASSES: Dict[str, str] = {
    "AnalysisContext": "repro.core.context",
    "RibSnapshot": "repro.core.context",
    "LeaseIndex": "repro.core.leaseindex",
}

#: Call patterns that block the event loop (RC110): plain built-ins, and
#: ``module.function`` attribute calls keyed by the receiver name.
#: Any attribute call on a name ``subprocess``/``socket`` is flagged.
_BLOCKING_NAME_CALLS = frozenset({"open", "input"})
_BLOCKING_ATTR_CALLS = frozenset(
    {
        ("time", "sleep"),
        ("os", "system"),
        ("socket", "create_connection"),
        ("subprocess", "run"),
        ("subprocess", "call"),
        ("subprocess", "check_call"),
        ("subprocess", "check_output"),
        ("subprocess", "Popen"),
    }
)
_BLOCKING_METHODS = frozenset(
    {"read_text", "write_text", "read_bytes", "write_bytes"}
)

#: Decorator names that register a rule class; a rule subclass carrying
#: one of these is reachable through its registry even when no code
#: names it explicitly.
_REGISTER_DECORATORS = frozenset({"register_check_rule", "register_rule"})

#: Base-class names marking a class as a pluggable rule implementation.
_RULE_BASES = frozenset({"CheckRule", "DiagnosticRule"})

#: Qualname of the synthetic function holding module-level statements.
MODULE_QUALNAME = "<module>"


def blocking_call_label(node: ast.Call) -> Optional[str]:
    """A display label when *node* is a blocking call, else None.

    The label is the spelling RC110 reports: ``open()``,
    ``time.sleep()``, ``.read_text()``.
    """
    target = node.func
    if isinstance(target, ast.Name) and target.id in _BLOCKING_NAME_CALLS:
        return f"{target.id}()"
    if isinstance(target, ast.Attribute):
        receiver = target.value
        if isinstance(receiver, ast.Name):
            pair = (receiver.id, target.attr)
            if pair in _BLOCKING_ATTR_CALLS or receiver.id in (
                "subprocess",
                "socket",
            ):
                return f"{receiver.id}.{target.attr}()"
        if target.attr in _BLOCKING_METHODS:
            return f".{target.attr}()"
    return None


# ---------------------------------------------------------------------------
# Facts records


@dataclass(frozen=True)
class ImportFact:
    """One import statement, resolved to an absolute dotted source."""

    source: str
    lineno: int
    col: int
    top_level: bool
    type_checking: bool
    is_from: bool
    names: Tuple[str, ...] = ()


@dataclass(frozen=True)
class CallFact:
    """One call site: receiver name (if any), attribute/function name,
    and which arguments are bare local names."""

    base: Optional[str]
    name: str
    lineno: int
    col: int
    args: Tuple[Optional[str], ...] = ()
    keywords: Tuple[Tuple[str, Optional[str]], ...] = ()


@dataclass(frozen=True)
class BlockingSite:
    """One blocking call inside a function body."""

    label: str
    lineno: int
    col: int


@dataclass(frozen=True)
class FrozenArgFact:
    """A frozen-snapshot instance passed as an argument at a call site.

    ``position`` is an int for positional arguments and the keyword name
    for keyword arguments.
    """

    base: Optional[str]
    name: str
    position: object
    cls: str
    var: str
    lineno: int
    col: int


@dataclass(frozen=True)
class FrozenWrite:
    """An attribute write or ``del`` through a local of a frozen type."""

    cls: str
    var: str
    deleted: bool
    lineno: int
    col: int


@dataclass(frozen=True)
class FunctionFact:
    """One function scope: identity, parameters, and call summary."""

    qualname: str
    owner_class: Optional[str]
    is_async: bool
    lineno: int
    col: int
    params: Tuple[str, ...] = ()
    calls: Tuple[CallFact, ...] = ()
    blocking: Tuple[BlockingSite, ...] = ()
    frozen_writes: Tuple[FrozenWrite, ...] = ()
    frozen_args: Tuple[FrozenArgFact, ...] = ()
    flow: FlowFact = FlowFact()


@dataclass(frozen=True)
class ClassFact:
    """One class definition: bases and registration."""

    name: str
    lineno: int
    col: int
    bases: Tuple[str, ...] = ()
    registered: bool = False


@dataclass(frozen=True)
class ExportFact:
    """One ``__all__`` entry; ``local`` when the module defines it."""

    name: str
    lineno: int
    col: int
    local: bool


@dataclass(frozen=True)
class ModuleFacts:
    """Everything the whole-program rules need from one module."""

    rel: str
    module: str
    imports: Tuple[ImportFact, ...] = ()
    functions: Tuple[FunctionFact, ...] = ()
    classes: Tuple[ClassFact, ...] = ()
    exports: Tuple[ExportFact, ...] = ()
    cli_flags: Tuple[Tuple[str, int, int], ...] = ()
    identifiers: Tuple[str, ...] = ()
    import_aliases: Tuple[Tuple[str, str], ...] = ()
    symbol_aliases: Tuple[Tuple[str, str, str], ...] = ()
    suppressions: Tuple[Tuple[int, Tuple[str, ...]], ...] = ()
    inert_suppressions: Tuple[Tuple[int, str], ...] = ()

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation (used by the incremental cache)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ModuleFacts":
        """Rebuild a facts record from :meth:`to_dict` output."""
        return from_plain(cls, payload)  # type: ignore[no-any-return]


# ---------------------------------------------------------------------------
# Import resolution


def resolve_import_source(
    module: str, is_package: bool, level: int, target: Optional[str]
) -> Optional[str]:
    """Absolute dotted source of a (possibly relative) import.

    *module* is the importing module's dotted name (``""`` outside the
    package tree) and *is_package* whether it is a package
    ``__init__``.  Returns None when a relative import cannot be
    resolved (fixture snippets, scripts).
    """
    if level == 0:
        return target
    if not module:
        return None
    package = module if is_package else module.rsplit(".", 1)[0]
    parts = package.split(".")
    if level - 1 > len(parts):
        return None
    base = parts[: len(parts) - (level - 1)] if level > 1 else parts
    if target:
        base = base + target.split(".")
    return ".".join(base) if base else None


# ---------------------------------------------------------------------------
# Facts extraction


def extract_facts(module: "ModuleSource") -> ModuleFacts:
    """Distill one parsed module into its :class:`ModuleFacts`."""
    extractor = _FactsExtractor(module)
    return extractor.run()


class _FactsExtractor:
    """Single-pass collector over one module's AST."""

    def __init__(self, module: "ModuleSource") -> None:
        self.module = module
        self.is_package = module.rel.endswith("__init__.py")
        self.imports: List[ImportFact] = []
        self.functions: List[FunctionFact] = []
        self.classes: List[ClassFact] = []
        self.import_aliases: Dict[str, str] = {}
        self.symbol_aliases: Dict[str, Tuple[str, str]] = {}

    def run(self) -> ModuleFacts:
        tree = self.module.tree
        self._collect_imports(tree.body, top_level=True, type_checking=False)
        self._collect_scopes(tree.body, prefix="", owner=None)
        self.functions.append(self._function_fact(tree, MODULE_QUALNAME, None))
        return ModuleFacts(
            rel=self.module.rel,
            module=self.module.module,
            imports=tuple(self.imports),
            functions=tuple(self.functions),
            classes=tuple(self.classes),
            exports=tuple(self._exports(tree)),
            cli_flags=tuple(self._cli_flags(tree)),
            identifiers=tuple(sorted(self._identifiers(tree))),
            import_aliases=tuple(sorted(self.import_aliases.items())),
            symbol_aliases=tuple(
                (local, mod, sym)
                for local, (mod, sym) in sorted(self.symbol_aliases.items())
            ),
            suppressions=tuple(
                (line, tuple(sorted(codes)))
                for line, codes in sorted(self.module.suppressions.items())
            ),
            inert_suppressions=tuple(self.module.inert_suppressions),
        )

    # -- imports ----------------------------------------------------------

    def _collect_imports(
        self, body: Sequence[ast.stmt], top_level: bool, type_checking: bool
    ) -> None:
        for node in body:
            if isinstance(node, ast.If):
                tc = type_checking or _is_type_checking_test(node.test)
                self._collect_imports(node.body, top_level, tc)
                self._collect_imports(node.orelse, top_level, type_checking)
            elif isinstance(node, ast.Try):
                self._collect_imports(node.body, top_level, type_checking)
                for handler in node.handlers:
                    self._collect_imports(
                        handler.body, top_level, type_checking
                    )
                self._collect_imports(node.orelse, top_level, type_checking)
                self._collect_imports(
                    node.finalbody, top_level, type_checking
                )
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                self._collect_imports(node.body, top_level, type_checking)
            elif isinstance(node, ast.ClassDef):
                self._collect_imports(node.body, top_level, type_checking)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._collect_imports(node.body, False, type_checking)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    self.imports.append(
                        ImportFact(
                            source=alias.name,
                            lineno=node.lineno,
                            col=node.col_offset,
                            top_level=top_level,
                            type_checking=type_checking,
                            is_from=False,
                        )
                    )
                    local = alias.asname or alias.name.split(".")[0]
                    if alias.asname:
                        self.import_aliases[local] = alias.name
                    elif "." not in alias.name:
                        self.import_aliases[local] = alias.name
            elif isinstance(node, ast.ImportFrom):
                source = resolve_import_source(
                    self.module.module,
                    self.is_package,
                    node.level,
                    node.module,
                )
                if source is None:
                    continue
                self.imports.append(
                    ImportFact(
                        source=source,
                        lineno=node.lineno,
                        col=node.col_offset,
                        top_level=top_level,
                        type_checking=type_checking,
                        is_from=True,
                        names=tuple(alias.name for alias in node.names),
                    )
                )
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.symbol_aliases[local] = (source, alias.name)

    # -- functions and classes -------------------------------------------

    def _collect_scopes(
        self,
        body: Sequence[ast.stmt],
        prefix: str,
        owner: Optional[str],
    ) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{node.name}"
                self.functions.append(
                    self._function_fact(node, qualname, owner)
                )
                self._collect_scopes(
                    node.body, prefix=f"{qualname}.", owner=owner
                )
            elif isinstance(node, ast.ClassDef):
                self.classes.append(self._class_fact(node))
                self._collect_scopes(
                    node.body,
                    prefix=f"{prefix}{node.name}.",
                    owner=f"{prefix}{node.name}",
                )
            elif hasattr(node, "body") and isinstance(
                getattr(node, "body", None), list
            ):
                self._collect_scopes(node.body, prefix, owner)  # type: ignore[arg-type]
                for sub in getattr(node, "orelse", []):
                    self._collect_scopes([sub], prefix, owner)
                for sub in getattr(node, "finalbody", []):
                    self._collect_scopes([sub], prefix, owner)
                for handler in getattr(node, "handlers", []):
                    self._collect_scopes(handler.body, prefix, owner)

    def _function_fact(
        self, scope: ast.AST, qualname: str, owner: Optional[str]
    ) -> FunctionFact:
        params: Tuple[str, ...] = ()
        is_async = isinstance(scope, ast.AsyncFunctionDef)
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = scope.args
            names = list(getattr(args, "posonlyargs", []))
            names += list(args.args)
            if args.vararg is not None:
                names.append(args.vararg)
            names += list(args.kwonlyargs)
            if args.kwarg is not None:
                names.append(args.kwarg)
            params = tuple(arg.arg for arg in names)
        types = infer_local_types(scope, FROZEN_CLASSES)
        calls: List[CallFact] = []
        blocking: List[BlockingSite] = []
        frozen_writes: List[FrozenWrite] = []
        frozen_args: List[FrozenArgFact] = []
        for node in walk_scope(scope):
            if isinstance(node, ast.Call):
                call = _call_fact(node)
                calls.append(call)
                label = blocking_call_label(node)
                if label is not None:
                    blocking.append(
                        BlockingSite(label, node.lineno, node.col_offset)
                    )
                if types and call.name:
                    frozen_args.extend(_frozen_args(call, types))
            elif types:
                frozen_writes.extend(
                    FrozenWrite(
                        cls=types[var],
                        var=var,
                        deleted=isinstance(node, ast.Delete),
                        lineno=target.lineno,
                        col=target.col_offset,
                    )
                    for var, target in attribute_writes(node)
                    if var in types
                )
        return FunctionFact(
            qualname=qualname,
            owner_class=owner,
            is_async=is_async,
            lineno=getattr(scope, "lineno", 1),
            col=getattr(scope, "col_offset", 0),
            params=params,
            calls=tuple(calls),
            blocking=tuple(blocking),
            frozen_writes=tuple(frozen_writes),
            frozen_args=tuple(frozen_args),
            flow=analyze_function(scope),
        )

    def _class_fact(self, node: ast.ClassDef) -> ClassFact:
        bases = []
        for base in node.bases:
            if isinstance(base, ast.Name):
                bases.append(base.id)
            elif isinstance(base, ast.Attribute):
                bases.append(base.attr)
        registered = any(
            (isinstance(dec, ast.Name) and dec.id in _REGISTER_DECORATORS)
            or (
                isinstance(dec, ast.Attribute)
                and dec.attr in _REGISTER_DECORATORS
            )
            or (
                isinstance(dec, ast.Call)
                and isinstance(dec.func, (ast.Name, ast.Attribute))
                and (
                    getattr(dec.func, "id", None) in _REGISTER_DECORATORS
                    or getattr(dec.func, "attr", None)
                    in _REGISTER_DECORATORS
                )
            )
            for dec in node.decorator_list
        )
        return ClassFact(
            name=node.name,
            lineno=node.lineno,
            col=node.col_offset,
            bases=tuple(bases),
            registered=registered,
        )

    # -- module-level scans ----------------------------------------------

    def _exports(self, tree: ast.Module) -> Iterator[ExportFact]:
        local_defs = _top_level_names(tree)
        for node in tree.body:
            if not isinstance(node, ast.Assign):
                continue
            if not any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets
            ):
                continue
            if not isinstance(node.value, (ast.List, ast.Tuple)):
                continue
            for element in node.value.elts:
                if isinstance(element, ast.Constant) and isinstance(
                    element.value, str
                ):
                    yield ExportFact(
                        name=element.value,
                        lineno=element.lineno,
                        col=element.col_offset,
                        local=element.value in local_defs,
                    )

    def _cli_flags(self, tree: ast.Module) -> Iterator[Tuple[str, int, int]]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr == "add_argument"
            ):
                continue
            for arg in node.args:
                if (
                    isinstance(arg, ast.Constant)
                    and isinstance(arg.value, str)
                    and arg.value.startswith("--")
                ):
                    yield (arg.value, arg.lineno, arg.col_offset)

    def _identifiers(self, tree: ast.Module) -> Set[str]:
        names: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    names.add(alias.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    names.add(alias.name.split(".")[-1])
        return names


def _call_fact(node: ast.Call) -> CallFact:
    func = node.func
    base: Optional[str] = None
    name = ""
    if isinstance(func, ast.Name):
        name = func.id
    elif isinstance(func, ast.Attribute):
        name = func.attr
        if isinstance(func.value, ast.Name):
            base = func.value.id
    args = tuple(
        arg.id if isinstance(arg, ast.Name) else None for arg in node.args
    )
    keywords = tuple(
        (kw.arg, kw.value.id if isinstance(kw.value, ast.Name) else None)
        for kw in node.keywords
        if kw.arg is not None
    )
    return CallFact(
        base=base,
        name=name,
        lineno=node.lineno,
        col=node.col_offset,
        args=args,
        keywords=keywords,
    )


def _frozen_args(
    call: CallFact, types: Dict[str, str]
) -> Iterator[FrozenArgFact]:
    """Arguments of *call* that are locals of a frozen type."""
    for position, var in [*enumerate(call.args), *call.keywords]:
        if var is not None and var in types:
            yield FrozenArgFact(
                base=call.base,
                name=call.name,
                position=position,
                cls=types[var],
                var=var,
                lineno=call.lineno,
                col=call.col,
            )


def _top_level_names(tree: ast.Module) -> Set[str]:
    names: Set[str] = set()
    for node in tree.body:
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            names.add(node.target.id)
    return names


def _is_type_checking_test(test: ast.expr) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


# ---------------------------------------------------------------------------
# Project graph


class ProjectGraph:
    """Import graph + conservative call graph over a set of facts.

    Built once per run (from live or cached facts) and consumed by the
    project-scope rules.  All resolution is *conservative*: an edge
    exists only when the target is unambiguous, so reachability-based
    rules under-report rather than guess.  The walks over the call
    graph live in :class:`~repro.check.dataflow.FlowResolver`.
    """

    def __init__(
        self,
        facts: Sequence[ModuleFacts],
        reference_text: str = "",
        docs_text: str = "",
    ) -> None:
        self.facts = {f.rel: f for f in facts}
        self.by_dotted = {f.module: f for f in facts if f.module}
        self.reference_text = reference_text
        self.docs_text = docs_text
        self._functions: Dict[str, Dict[str, FunctionFact]] = {}
        for f in facts:
            self._functions[f.rel] = {
                fn.qualname: fn for fn in f.functions
            }
        self._cycles: Optional[List[List[str]]] = None
        self._flow_resolver: Optional[FlowResolver] = None

    def flow_resolver(self) -> FlowResolver:
        """The shared interprocedural flow closure (built lazily once)."""
        if self._flow_resolver is None:
            self._flow_resolver = FlowResolver(self)
        return self._flow_resolver

    # -- import graph -----------------------------------------------------

    def import_targets(self, fact: ImportFact) -> List[str]:
        """Project modules *fact* depends on (dotted names).

        ``from pkg import submodule`` depends on the submodule, not on
        the package ``__init__`` — unless a name is a genuine attribute
        of the package, in which case the package itself is a target.
        """
        targets: List[str] = []
        if not fact.is_from:
            if fact.source in self.by_dotted:
                targets.append(fact.source)
            return targets
        non_module_names = False
        for name in fact.names:
            dotted = f"{fact.source}.{name}"
            if dotted in self.by_dotted:
                targets.append(dotted)
            else:
                non_module_names = True
        if non_module_names and fact.source in self.by_dotted:
            targets.append(fact.source)
        return targets

    def import_cycles(self) -> List[List[str]]:
        """Cycles in the import-time graph (top-level, non-TYPE_CHECKING).

        Function-level (deferred) imports are the sanctioned
        cycle-breaker and are excluded; ``if TYPE_CHECKING:`` imports
        never execute.  Each cycle is a sorted list of dotted names.
        """
        if self._cycles is not None:
            return self._cycles
        graph: Dict[str, List[str]] = {}
        for fact in self.facts.values():
            if not fact.module:
                continue
            outs: Set[str] = set()
            for imp in fact.imports:
                if not imp.top_level or imp.type_checking:
                    continue
                for target in self.import_targets(imp):
                    if target != fact.module:
                        outs.add(target)
            graph[fact.module] = sorted(outs)
        self._cycles = sorted(_strongly_connected(graph))
        return self._cycles

    # -- call graph -------------------------------------------------------

    def function(self, rel: str, qualname: str) -> Optional[FunctionFact]:
        return self._functions.get(rel, {}).get(qualname)

    def resolve_call(
        self, rel: str, owner_class: Optional[str], base: Optional[str],
        name: str,
    ) -> Optional[Tuple[str, str]]:
        """``(rel, qualname)`` of the called project function, or None."""
        fact = self.facts.get(rel)
        if fact is None or not name:
            return None
        functions = self._functions.get(rel, {})
        if base is None:
            if name in functions:
                return (rel, name)
            return self._resolve_symbol(fact, name)
        if base in ("self", "cls") and owner_class:
            qualname = f"{owner_class}.{name}"
            if qualname in functions:
                return (rel, qualname)
            return None
        qualname = f"{base}.{name}"
        if qualname in functions:  # ClassName.method within this module
            return (rel, qualname)
        for local, dotted in fact.import_aliases:
            if local == base and dotted in self.by_dotted:
                other = self.by_dotted[dotted]
                if name in self._functions.get(other.rel, {}):
                    return (other.rel, name)
                return None
        for local, dotted, symbol in fact.symbol_aliases:
            if local != base:
                continue
            submodule = f"{dotted}.{symbol}"
            if submodule in self.by_dotted:
                other = self.by_dotted[submodule]
                if name in self._functions.get(other.rel, {}):
                    return (other.rel, name)
            return None
        return None

    def _resolve_symbol(
        self, fact: ModuleFacts, name: str
    ) -> Optional[Tuple[str, str]]:
        for local, dotted, symbol in fact.symbol_aliases:
            if local != name:
                continue
            if dotted in self.by_dotted:
                other = self.by_dotted[dotted]
                if symbol in self._functions.get(other.rel, {}):
                    return (other.rel, symbol)
            return None
        return None

    def param_name(
        self, callee: Tuple[str, str], position: object, base: Optional[str]
    ) -> Optional[str]:
        """The callee's parameter bound at *position* (int or keyword).

        *base* is the call's receiver name: through ``self``/``cls``
        (``self.method(arg)``) the implicit first parameter shifts every
        positional argument right by one.
        """
        fn = self.function(*callee)
        if fn is None:
            return None
        if isinstance(position, int):
            index = position + (1 if base in ("self", "cls") else 0)
            if 0 <= index < len(fn.params):
                return fn.params[index]
            return None
        return position if position in fn.params else None

    # -- symbol usage -----------------------------------------------------

    def name_used_outside(self, rel: str, name: str) -> bool:
        """True when *name* is referenced outside the defining module.

        Checks every other scanned module's identifier set, then the
        reference corpus (tests, examples, docs) as raw
        text — conservatively: any appearance counts as a use.
        """
        for other_rel, fact in self.facts.items():
            if other_rel == rel:
                continue
            if name in fact.identifiers:
                return True
        if not self.reference_text:
            return False
        return _word_in(name, self.reference_text)


def _word_in(name: str, text: str) -> bool:
    start = 0
    while True:
        index = text.find(name, start)
        if index < 0:
            return False
        before = text[index - 1] if index > 0 else " "
        after_index = index + len(name)
        after = text[after_index] if after_index < len(text) else " "
        if not (before.isalnum() or before == "_") and not (
            after.isalnum() or after == "_"
        ):
            return True
        start = index + 1


def _strongly_connected(graph: Dict[str, List[str]]) -> List[List[str]]:
    """Tarjan SCCs of size > 1 (iterative; sorted for determinism)."""
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    counter = [0]
    components: List[List[str]] = []

    for start in sorted(graph):
        if start in index:
            continue
        work: List[Tuple[str, int]] = [(start, 0)]
        while work:
            node, child_index = work[-1]
            if child_index == 0:
                index[node] = lowlink[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            children = graph.get(node, [])
            advanced = False
            while child_index < len(children):
                child = children[child_index]
                child_index += 1
                if child not in graph:
                    continue
                if child not in index:
                    work[-1] = (node, child_index)
                    work.append((child, 0))
                    advanced = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index[child])
            if advanced:
                continue
            work.pop()
            if lowlink[node] == index[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1:
                    components.append(sorted(component))
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return components
