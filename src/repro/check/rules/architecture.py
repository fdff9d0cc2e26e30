"""Architecture invariants: RC109 (layering), RC112 (dead public API).

The package is layered on purpose: ``core`` is the engine room, the
``serve``/``cli`` layers are its consumers, and ``diagnostics`` audits
data without knowing who serves it.  Nothing in Python stops an import
from flowing the wrong way, and one convenience import quietly inverts
a dependency for good.  These rules pin the layer map down — and keep
the public API honest by flagging exports nothing reaches any more.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, Iterator, Optional

from ..model import CheckFinding, CheckRule, register_check_rule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..graph import ModuleFacts, ProjectGraph

__all__ = ["ArchitectureLayering", "NoDeadPublicApi", "layer_of"]

#: The package whose internal structure the layer map describes.
_PACKAGE = "repro"

#: Layer of the package ``__init__`` itself.
ROOT_LAYER = "<root>"

#: The declared layer map: which *other* layers each layer may import
#: at any depth (module level or inside a function).  Same-layer
#: imports and imports of the package root are always allowed.  The
#: load-bearing absences: ``core`` lists neither ``serve`` nor ``cli``,
#: ``diagnostics`` does not list ``serve``, and ``temporal`` lists
#: neither ``serve`` nor ``cli`` — the engine room, the auditors, and
#: the time-travel subsystem must never depend on their consumers.
LAYER_MAP: Dict[str, FrozenSet[str]] = {
    ROOT_LAYER: frozenset({"core", "net", "rir", "simulation"}),
    "abuse": frozenset(),
    "asdata": frozenset({"bgp"}),
    "bench": frozenset(
        {"cli", "core", "reporting", "simulation", "temporal"}
    ),
    "bgp": frozenset({"core", "net"}),
    "brokers": frozenset({"rir", "whois"}),
    "check": frozenset({"core", "diagnostics"}),
    "cli": frozenset(
        {
            "bench",
            "check",
            "core",
            "diagnostics",
            "net",
            "reporting",
            "serve",
            "simulation",
            "temporal",
        }
    ),
    "core": frozenset(
        {
            "abuse",
            "asdata",
            "bgp",
            "brokers",
            "geo",
            "net",
            "rir",
            "rpki",
            "whois",
        }
    ),
    "diagnostics": frozenset(
        {
            "abuse",
            "asdata",
            "bgp",
            "core",
            "net",
            "rir",
            "rpki",
            "simulation",
            "whois",
        }
    ),
    "geo": frozenset({"net"}),
    "net": frozenset(),
    "reporting": frozenset(
        {"core", "diagnostics", "rir", "rpki", "simulation"}
    ),
    "rir": frozenset(),
    "rpki": frozenset({"net"}),
    "serve": frozenset({"core", "net", "temporal"}),
    "simulation": frozenset(
        {
            "abuse",
            "asdata",
            "bgp",
            "brokers",
            "geo",
            "net",
            "rir",
            "rpki",
            "whois",
        }
    ),
    "temporal": frozenset({"bgp", "core", "net", "rpki"}),
    "whois": frozenset({"net", "rir"}),
}


def layer_of(dotted: str) -> Optional[str]:
    """The layer a dotted module name belongs to (None outside the
    package)."""
    if dotted == _PACKAGE:
        return ROOT_LAYER
    prefix = _PACKAGE + "."
    if not dotted.startswith(prefix):
        return None
    return dotted[len(prefix):].split(".")[0]


@register_check_rule
class ArchitectureLayering(CheckRule):
    """Imports must follow the declared layer map, with no import
    cycles.

    Layer boundaries are the architecture: ``core`` (the engine room)
    must never import ``serve`` or ``cli``, and ``diagnostics`` must
    never import ``serve`` — those edges would make the engine depend
    on its consumers and any serve-layer change ripple into the
    reproducibility core.  The full map lives in ``LAYER_MAP`` (and is
    rendered in ``docs/STATIC_ANALYSIS.md``); an edge it does not
    declare is a design decision, not a convenience, and starts here.
    Deferred (function-level) imports still count for layering — the
    dependency exists either way — but only module-level, non-
    ``TYPE_CHECKING`` imports can deadlock at import time, so only
    those participate in cycle detection; a deferred import is the
    sanctioned cycle-breaker.

    Remediation: Invert the dependency (move the shared piece down a
    layer, or pass the object in from a layer allowed to know both).
    If the edge is genuinely part of the architecture, add it to
    ``LAYER_MAP`` in the same change, with review.
    """

    code = "RC109"
    title = "imports respect the declared layer map; no import cycles"
    scope = "project"

    def check_facts(
        self, facts: "ModuleFacts", graph: "ProjectGraph"
    ) -> Iterator[CheckFinding]:
        source_layer = layer_of(facts.module) if facts.module else None
        if source_layer is None:
            return
        allowed = LAYER_MAP.get(source_layer)
        for imp in facts.imports:
            if imp.type_checking:
                continue
            target_layer = layer_of(imp.source)
            if target_layer is None or target_layer in (
                source_layer,
                ROOT_LAYER,
            ):
                continue
            if allowed is None:
                yield self.finding_at(
                    facts.rel,
                    imp.lineno,
                    imp.col,
                    f"layer {source_layer!r} is not in the declared layer "
                    f"map but imports {imp.source}",
                )
            elif target_layer not in allowed:
                yield self.finding_at(
                    facts.rel,
                    imp.lineno,
                    imp.col,
                    f"layer {source_layer!r} may not import layer "
                    f"{target_layer!r} ({imp.source})",
                )
        for cycle in graph.import_cycles():
            if facts.module == cycle[0]:
                yield self.finding_at(
                    facts.rel,
                    1,
                    0,
                    "import cycle: " + " -> ".join(cycle + [cycle[0]]),
                )


@register_check_rule
class NoDeadPublicApi(CheckRule):
    """Every locally defined ``__all__`` export is reachable, and every
    rule class is registered.

    ``__all__`` is a promise: this name is public API, someone depends
    on it.  When nothing in the package, the tests, the examples, or
    the docs references an export any more, the promise is stale —
    readers extend dead code and reviewers keep it compatible for
    nobody.  The registry-based rule classes have the inverse failure:
    a ``CheckRule``/``Rule`` subclass that was never decorated with its
    ``register_*`` decorator looks finished, ships fixtures, and
    silently never runs.  Detection is conservative: a
    name counts as used on *any* appearance outside its defining module
    (identifier or reference-corpus text), and registered classes are
    always alive because their registry reaches them.

    Remediation: Delete the export (and the definition, if nothing
    internal uses it) or reference it from the code, tests, or docs
    that were supposed to.  For an unregistered rule class, add the
    missing ``@register_*`` decorator — or delete the class.
    """

    code = "RC112"
    title = "no dead __all__ exports or unregistered rule classes"
    scope = "project"

    #: Base-class names whose subclasses must carry a register
    #: decorator.  Underscore-prefixed subclasses are abstract
    #: intermediates (``_WhoisRule``) and exempt.
    RULE_BASES = frozenset({"CheckRule", "Rule"})

    def check_facts(
        self, facts: "ModuleFacts", graph: "ProjectGraph"
    ) -> Iterator[CheckFinding]:
        registered = {
            cls.name for cls in facts.classes if cls.registered
        }
        for export in facts.exports:
            if not export.local:
                continue  # re-exports answer for their defining module
            name = export.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if name in registered:
                continue  # reached through its registry
            if graph.name_used_outside(facts.rel, name):
                continue
            yield self.finding_at(
                facts.rel,
                export.lineno,
                export.col,
                f"__all__ export {name!r} is never used outside "
                f"{facts.rel}",
            )
        for cls in facts.classes:
            if cls.registered or not self.RULE_BASES & set(cls.bases):
                continue
            if cls.name.startswith("_"):
                continue  # abstract intermediate base, not a rule
            yield self.finding_at(
                facts.rel,
                cls.lineno,
                cls.col,
                f"rule class {cls.name} subclasses "
                f"{sorted(self.RULE_BASES & set(cls.bases))[0]} but is "
                "never registered",
            )
