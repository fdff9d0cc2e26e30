"""RC111 must fire at depth 0: frozen snapshots mutated in place."""

from typing import Optional

from repro.core.context import AnalysisContext, RibSnapshot
from repro.serve.index import LeaseIndex


def poison_context(context: AnalysisContext) -> None:
    context.use_covering = True


def poison_optional(context: "Optional[AnalysisContext]") -> None:
    if context is not None:
        context.rir_order = ()


def poison_constructed(records):
    rib = RibSnapshot(records)
    rib.routes = {}


def poison_interior(index: LeaseIndex) -> None:
    index.evidence["leaf"] = None


def drop_field(index: LeaseIndex) -> None:
    del index.generation
