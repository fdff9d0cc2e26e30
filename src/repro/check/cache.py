"""Content-hash result cache for the incremental check engine.

One JSON file (``.repro-check-cache.json`` by default) maps each
analyzed file to its content hash, its distilled
:class:`~repro.check.graph.ModuleFacts`, and the module-scope findings
it produced.  On a warm run the engine re-parses only files whose hash
changed; unchanged files contribute their cached facts to the project
graph and their cached findings to the report, so whole-program rules
still see the whole program and the report is byte-identical to a cold
run by construction — cold runs read their own freshly written entries
through the same deserializer.

The cache is invalidated wholesale when the *fingerprint* changes: the
cache format version, the rule set, or any rule's effective severity.
A stale or unreadable cache never fails the run — it degrades to a
cold run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import is_dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Optional,
    get_args,
    get_origin,
    get_type_hints,
)

from ..diagnostics.model import Severity
from .model import CheckFinding, Fix, WitnessStep

__all__ = [
    "CACHE_VERSION",
    "DEFAULT_CACHE_NAME",
    "file_sha",
    "finding_from_dict",
    "finding_to_dict",
    "from_plain",
    "load_entries",
    "save_entries",
]

#: Bump when the entry layout or the facts schema changes shape.
#: v2: per-function flow summaries (CFG taint/leak/shared-write facts)
#: ride inside ``ModuleFacts`` and findings may carry witness paths.
#: v3: ``ModuleFacts.payload_refs`` and ``ClassFact.spawn_safe`` are
#: gone with RC105.
#: v4: ``FunctionFact.mutated_params`` moved into ``FlowFact`` and
#: ``FunctionFact.frozen_writes`` arrived, as RC102 and RC104 folded
#: into RC111 and RC110.
#: v5: flow facts come from a walk of the statement tree, which enters
#: ``match`` arms the CFG kept as one opaque node.
#: v6: ``break``/``continue`` run a ``try``'s ``finally``, and a
#: ``while`` header raises only through a call, so cached RC114 leak
#: facts of those shapes are stale; ``write_benchmark`` joined the RC113
#: sinks, so cached sink facts of its callers are stale too.
#: v7: ``FlowFact`` lost ``resources`` and ``releases_params`` when
#: RC114 became a module rule asking for ``with`` items.
CACHE_VERSION = 7

#: Cache file name when ``--cache`` is not given (created under the
#: analyzed root; gitignored).
DEFAULT_CACHE_NAME = ".repro-check-cache.json"


def file_sha(path: Path) -> str:
    """Hex sha256 of *path*'s bytes."""
    return hashlib.sha256(path.read_bytes()).hexdigest()


def finding_to_dict(finding: CheckFinding) -> Dict[str, object]:
    """Full-fidelity serialization (unlike ``to_dict``, keeps the fix)."""
    payload: Dict[str, object] = {
        "code": finding.code,
        "severity": finding.severity.value,
        "path": finding.path,
        "line": finding.line,
        "column": finding.column,
        "message": finding.message,
        "remediation": finding.remediation,
        "fix": None,
    }
    if finding.fix is not None:
        payload["fix"] = {
            "start": list(finding.fix.start),
            "end": list(finding.fix.end),
            "replacement": finding.fix.replacement,
        }
    if finding.flow:
        payload["flow"] = [step.to_dict() for step in finding.flow]
    return payload


def finding_from_dict(payload: Dict[str, object]) -> CheckFinding:
    """Inverse of :func:`finding_to_dict`."""
    fix_payload = payload.get("fix")
    fix = None
    if isinstance(fix_payload, dict):
        fix = Fix(
            start=tuple(fix_payload["start"]),
            end=tuple(fix_payload["end"]),
            replacement=str(fix_payload["replacement"]),
        )
    return CheckFinding(
        code=str(payload["code"]),
        severity=Severity.parse(str(payload["severity"])),
        path=str(payload["path"]),
        line=int(payload["line"]),  # type: ignore[arg-type]
        column=int(payload["column"]),  # type: ignore[arg-type]
        message=str(payload["message"]),
        remediation=str(payload["remediation"]),
        fix=fix,
        flow=tuple(
            WitnessStep(
                path=str(step["path"]),
                line=int(step["line"]),  # type: ignore[index]
                column=int(step["column"]),  # type: ignore[index]
                note=str(step["note"]),  # type: ignore[index]
            )
            for step in payload.get("flow", ())  # type: ignore[union-attr]
        ),
    )


def from_plain(hint: Any, value: Any) -> Any:
    """Rebuild *value* — ``dataclasses.asdict`` output after a JSON
    round trip — as the type *hint* describes.

    Covers the shapes the facts records use: frozen dataclasses,
    ``Tuple[X, ...]`` and fixed-length tuples, ``Optional[X]``.  Plain
    values (``str``, ``int``, ``bool``, ``object``) pass through, and a
    field missing from *value* keeps its dataclass default.
    """
    return _rebuilder(hint)(value)


_REBUILDERS: Dict[Any, Callable[[Any], Any]] = {}


def _same(value: Any) -> Any:
    return value


def _rebuilder(hint: Any) -> Callable[[Any], Any]:
    """The function rebuilding values of *hint* (compiled once)."""
    cached = _REBUILDERS.get(hint)
    if cached is not None:
        return cached
    rebuild: Callable[[Any], Any] = _same
    args = get_args(hint)
    if is_dataclass(hint):
        fields = [
            (name, _rebuilder(field_hint))
            for name, field_hint in get_type_hints(hint).items()
        ]
        nested = [(name, fn) for name, fn in fields if fn is not _same]

        def build(value: Any) -> Any:
            kwargs = dict(value)
            for name, fn in nested:
                if name in kwargs:
                    kwargs[name] = fn(kwargs[name])
            return hint(**kwargs)

        rebuild = build
    elif get_origin(hint) is tuple and args[-1:] == (Ellipsis,):
        item = _rebuilder(args[0])
        rebuild = tuple if item is _same else (
            lambda value: tuple(map(item, value))
        )
    elif get_origin(hint) is tuple:
        items = [_rebuilder(arg) for arg in args]
        rebuild = tuple if all(fn is _same for fn in items) else (
            lambda value: tuple(fn(item) for fn, item in zip(items, value))
        )
    elif args:  # Optional[X]
        inner = _rebuilder(args[0])
        if inner is not _same:
            rebuild = lambda value: None if value is None else inner(value)
    _REBUILDERS[hint] = rebuild
    return rebuild


def load_entries(
    path: Optional[Path], fingerprint: Dict[str, object]
) -> Dict[str, Dict[str, object]]:
    """Per-file cache entries, or empty when absent/stale/corrupt."""
    if path is None or not path.is_file():
        return {}
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return {}
    if not isinstance(document, dict):
        return {}
    if document.get("fingerprint") != fingerprint:
        return {}
    entries = document.get("entries")
    return entries if isinstance(entries, dict) else {}


def save_entries(
    path: Path,
    fingerprint: Dict[str, object],
    entries: Dict[str, Dict[str, object]],
) -> None:
    """Write the cache document (best effort — failures never gate)."""
    document = {"fingerprint": fingerprint, "entries": entries}
    try:
        path.write_text(
            json.dumps(document, sort_keys=True), encoding="utf-8"
        )
    except OSError:  # repro-check: ignore[RC106] -- cache is an
        pass  # optimization; an unwritable cache must not fail the run
