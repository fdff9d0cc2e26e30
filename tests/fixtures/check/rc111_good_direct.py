"""RC111 must stay silent at depth 0: snapshots are rebuilt, never mutated."""

from repro.core.context import AnalysisContext


def replace_context(context: AnalysisContext, records) -> AnalysisContext:
    rebuilt = AnalysisContext.build(records, use_covering=True)
    local_flag = context.use_covering  # reading is always fine
    assert local_flag is not None
    return rebuilt


def unrelated_mutation(holder) -> None:
    holder.value = 1  # not a frozen snapshot; out of scope
