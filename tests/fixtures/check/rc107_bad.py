"""RC107 must fire: a frozen reference leaning on fast-engine code."""

from repro.core.classify import LeafClassifier
from repro.core.context import AnalysisContext


def run_reference(records, rir):
    context = AnalysisContext.build(records)
    classifier = LeafClassifier(context, rir)
    return [classifier.classify(*record) for record in records]
