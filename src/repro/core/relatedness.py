"""The relatedness oracle used by the classifier (§5.2).

Two ASes are *related* when the AS Relationships dataset links them
directly or the AS2org dataset maps them to the same organisation.  The
AS2org component is optional so the ablation benches can quantify its
contribution (it is what absorbs same-company multi-AS structures such
as the Vodafone subsidiaries of §6.2).
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..asdata.as2org import AS2Org
from ..asdata.relationships import ASRelationships

__all__ = ["RelatednessOracle"]


class RelatednessOracle:
    """Answers "are these two ASes the same business family?"."""

    def __init__(
        self,
        relationships: ASRelationships,
        as2org: Optional[AS2Org] = None,
    ) -> None:
        self.relationships = relationships
        self.as2org = as2org

    def related(self, left: int, right: int) -> bool:
        """True for identical ASes, direct relationships, or shared org."""
        if left == right:
            return True
        if self.relationships.are_related(left, right):
            return True
        return self.as2org is not None and self.as2org.same_org(left, right)

    def any_related(self, lefts: Iterable[int], rights: Iterable[int]) -> bool:
        """True when any pair across the two sets is related."""
        rights = list(rights)
        return any(
            self.related(left, right) for left in lefts for right in rights
        )


# A per-AS-pair MemoizedRelatednessOracle used to live here.  It sat
# below the category cache, which deduplicates the origin triples, so
# the pair memo never saw a repeated query — every committed
# BENCH_pipeline.json run recorded a 0.0 hit rate.  Its replacement is
# the eager ``(leaf_origin, root_org)`` memo in
# :class:`repro.core.classify.LeafClassifier`, which is consulted
# above the category cache and actually hits.
