"""Legacy address-space lease inference (the paper's §7/§8 future work).

Legacy space predates the RIRs and has no defined portability, so the
paper's methodology deliberately skips it — its 138 legacy false
negatives (§6.2) are exactly the blocks this module targets.  Because
the portable/non-portable root-leaf structure is unavailable, the
extension combines the two remaining signals:

* **registration structure** — a legacy block nested under another
  registered block whose holder organisation differs, or whose
  maintainers are disjoint from the parent's (the Prehn-style signal);
* **routing** — the block is originated in BGP by an AS unrelated to the
  parent organisation's registered ASNs and to the parent's BGP origin
  (the paper's group-3/4 test, §5.2).

A legacy block is inferred leased when the routing signal fires; the
registration signal alone marks it *suspected* (inactive-lease
analogue).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..bgp.rib import RoutingTable
from ..net import Prefix, PrefixTrie
from ..whois.database import WhoisCollection, WhoisDatabase
from ..whois.objects import InetnumRecord
from .allocation_tree import DEFAULT_MAX_LEAF_LENGTH
from .relatedness import RelatednessOracle

__all__ = [
    "LegacyVerdict",
    "LegacyInference",
    "infer_legacy_leases",
]


class LegacyVerdict(enum.Enum):
    """Outcome for one legacy block."""

    LEASED = "leased"  # routing signal: unrelated active origin
    SUSPECTED = "suspected"  # registration signal only (not originated)
    IN_USE = "in-use"  # originated by a related AS
    UNUSED = "unused"  # no signal at all


@dataclass(frozen=True)
class LegacyInference:
    """The verdict for one legacy block with its evidence."""

    prefix: Prefix
    verdict: LegacyVerdict
    record: InetnumRecord
    parent_prefix: Optional[Prefix]
    parent_record: Optional[InetnumRecord]
    origins: frozenset

    @property
    def is_leased(self) -> bool:
        """True for the active-lease verdict."""
        return self.verdict is LegacyVerdict.LEASED


def infer_legacy_leases(
    whois: WhoisCollection,
    routing_table: RoutingTable,
    oracle: RelatednessOracle,
    max_leaf_length: int = DEFAULT_MAX_LEAF_LENGTH,
) -> List[LegacyInference]:
    """Classify every registered legacy block across all registries.

    This is the **frozen reference engine** (prefix-map parents, per-block
    oracle queries) and the only one.  It reads the datasets directly,
    so it needs no :class:`~repro.core.context.AnalysisContext`.
    """
    results: List[LegacyInference] = []
    for database in whois:
        results.extend(
            _infer_region(database, routing_table, oracle, max_leaf_length)
        )
    return results


def _infer_region(
    database: WhoisDatabase,
    routing_table: RoutingTable,
    oracle: RelatednessOracle,
    max_leaf_length: int,
) -> List[LegacyInference]:
    # Index every registered block (legacy or not) so legacy blocks can
    # find their most-specific registered parent.
    trie: PrefixTrie[InetnumRecord] = PrefixTrie()
    legacy_prefixes: Dict[Prefix, InetnumRecord] = {}
    for record in database.inetnums:
        for prefix in record.range.to_prefixes():
            if prefix.length > max_leaf_length:
                continue
            if trie.exact(prefix) is None:
                trie.insert(prefix, record)
            if record.is_legacy:
                legacy_prefixes.setdefault(prefix, record)

    results: List[LegacyInference] = []
    for prefix, record in sorted(legacy_prefixes.items()):
        parent = trie.parent(prefix)
        parent_prefix, parent_record = parent if parent else (None, None)
        origins = routing_table.exact_origins(prefix)
        verdict = _classify(
            database, oracle, routing_table, record, parent_record,
            parent_prefix, origins,
        )
        results.append(
            LegacyInference(
                prefix=prefix,
                verdict=verdict,
                record=record,
                parent_prefix=parent_prefix,
                parent_record=parent_record,
                origins=frozenset(origins),
            )
        )
    return results


def _classify(
    database: WhoisDatabase,
    oracle: RelatednessOracle,
    routing_table: RoutingTable,
    record: InetnumRecord,
    parent_record: Optional[InetnumRecord],
    parent_prefix: Optional[Prefix],
    origins: frozenset,
) -> LegacyVerdict:
    registration_signal = _registration_differs(record, parent_record)
    if not origins:
        return (
            LegacyVerdict.SUSPECTED
            if registration_signal
            else LegacyVerdict.UNUSED
        )
    related_targets = set()
    if parent_record is not None and parent_record.org_id:
        related_targets.update(database.asns_of_org(parent_record.org_id))
    if record.org_id:
        related_targets.update(database.asns_of_org(record.org_id))
    if parent_prefix is not None:
        related_targets.update(routing_table.covering_origins(parent_prefix))
    if related_targets and oracle.any_related(origins, related_targets):
        return LegacyVerdict.IN_USE
    if registration_signal or not related_targets:
        return LegacyVerdict.LEASED
    return LegacyVerdict.LEASED


def _registration_differs(
    record: InetnumRecord, parent: Optional[InetnumRecord]
) -> bool:
    if parent is None:
        return False
    if record.org_id and parent.org_id and record.org_id != parent.org_id:
        return True
    if record.maintainers and parent.maintainers:
        return set(record.maintainers).isdisjoint(parent.maintainers)
    return False
