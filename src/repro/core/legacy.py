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
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..bgp.rib import RoutingTable
from ..net import Prefix, PrefixTrie
from ..rir import RIR
from ..whois.database import WhoisCollection, WhoisDatabase
from ..whois.objects import InetnumRecord
from .allocation_tree import DEFAULT_MAX_LEAF_LENGTH
from .context import AnalysisContext
from .relatedness import RelatednessOracle
from .sharding import effective_workers, run_sharded

__all__ = [
    "LegacyVerdict",
    "LegacyInference",
    "LegacyLeasePipeline",
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
    oracle queries).  :class:`LegacyLeasePipeline` runs the same
    classification from the shared :class:`AnalysisContext`, serially or
    sharded, with bit-identical output; this function is the executable
    specification its equivalence tests diff against.
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


# -- fast engine ----------------------------------------------------------
#
# The fast engine splits the reference loop into a parent-side scan and a
# context-only verdict step.  The scan resolves each legacy block's
# most-specific registered parent with a sorted enclosing-interval stack
# (prefixes nest or are disjoint, so the stack top after popping closed
# intervals *is* ``trie.parent``) and reduces every block to a compact
# key.  Keys are what ships to worker processes; verdicts come entirely
# from the shared :class:`AnalysisContext`, so serial and sharded runs
# execute the identical code path.

#: ``(prefix, record_org, parent_prefix, parent_org, registration_signal)``
_LegacyKey = Tuple[Prefix, Optional[str], Optional[Prefix], Optional[str], bool]


def _scan_region(
    database: WhoisDatabase, max_leaf_length: int
) -> List[Tuple[Prefix, InetnumRecord, Optional[Prefix], Optional[InetnumRecord]]]:
    """Replicate the reference trie walk with one sorted pass.

    First-wins dedup per prefix (matching ``trie.insert`` guarded by
    ``trie.exact``) for all records, and separately for legacy records
    (matching ``legacy_prefixes.setdefault``); parent = most-specific
    strict ancestor among all registered prefixes.
    """
    nodes: Dict[Prefix, InetnumRecord] = {}
    legacy: Dict[Prefix, InetnumRecord] = {}
    for record in database.inetnums:
        for prefix in record.range.to_prefixes():
            if prefix.length > max_leaf_length:
                continue
            if prefix not in nodes:
                nodes[prefix] = record
            if record.is_legacy and prefix not in legacy:
                legacy[prefix] = record

    parents: Dict[Prefix, Tuple[Optional[Prefix], Optional[InetnumRecord]]] = {}
    stack: List[Tuple[int, Prefix, InetnumRecord]] = []
    for prefix in sorted(nodes):
        network = prefix.network
        while stack and network > stack[-1][0]:
            stack.pop()
        if prefix in legacy:
            if stack:
                parents[prefix] = (stack[-1][1], stack[-1][2])
            else:
                parents[prefix] = (None, None)
        stack.append((prefix.last_address, prefix, nodes[prefix]))

    return [
        (prefix, legacy[prefix], parents[prefix][0], parents[prefix][1])
        for prefix in sorted(legacy)
    ]


def _legacy_rows(
    context: AnalysisContext, rir: RIR, keys: Tuple[_LegacyKey, ...]
) -> List[Tuple[str, Tuple[int, ...]]]:
    """Verdict rows for a slice of keys, entirely from the context."""
    assigned = context.assigned.get(rir, {})
    targets_memo: Dict[
        Tuple[Optional[str], Optional[str], Optional[Prefix]], FrozenSet[int]
    ] = {}
    rows: List[Tuple[str, Tuple[int, ...]]] = []
    for prefix, record_org, parent_prefix, parent_org, signal in keys:
        origins = context.rib.exact_origins(prefix)
        if not origins:
            verdict = (
                LegacyVerdict.SUSPECTED if signal else LegacyVerdict.UNUSED
            )
        else:
            memo_key = (record_org, parent_org, parent_prefix)
            targets = targets_memo.get(memo_key)
            if targets is None:
                pool = set()
                if parent_org:
                    pool.update(assigned.get(parent_org, ()))
                if record_org:
                    pool.update(assigned.get(record_org, ()))
                if parent_prefix is not None:
                    pool.update(context.rib.covering_origins(parent_prefix))
                targets = frozenset(pool)
                targets_memo[memo_key] = targets
            if targets and context.any_related(origins, targets):
                verdict = LegacyVerdict.IN_USE
            else:
                verdict = LegacyVerdict.LEASED
        rows.append((verdict.name, tuple(sorted(origins))))
    return rows


def _legacy_shard(payload, shard):
    """Module-level shard runner for :func:`run_sharded`."""
    context, units = payload
    rir, keys = units[shard.work_index]
    return _legacy_rows(context, rir, keys[shard.start : shard.stop])


class LegacyLeasePipeline:
    """Context-backed legacy inference with serial and sharded engines.

    Mirrors ``LeaseInferencePipeline``: :meth:`run` is the fast path
    (``workers``/``shard_size`` select process-parallel sharding),
    :meth:`run_reference` delegates to the frozen
    :func:`infer_legacy_leases`, and both produce bit-identical output.
    """

    def __init__(
        self,
        whois: WhoisCollection,
        routing_table: RoutingTable,
        oracle: RelatednessOracle,
        max_leaf_length: int = DEFAULT_MAX_LEAF_LENGTH,
        context: Optional[AnalysisContext] = None,
    ) -> None:
        self.whois = whois
        self.routing_table = routing_table
        self.oracle = oracle
        self.max_leaf_length = max_leaf_length
        self.context = context

    def _ensure_context(self) -> AnalysisContext:
        if self.context is None:
            self.context = AnalysisContext.build(
                self.whois,
                self.routing_table,
                self.oracle.relationships,
                self.oracle.as2org,
                self.max_leaf_length,
            )
        return self.context

    def run(
        self, workers: int = 1, shard_size: Optional[int] = None
    ) -> List[LegacyInference]:
        """Classify every legacy block; bit-equal to the reference."""
        context = self._ensure_context()
        units = []
        for database in self.whois:
            scan = _scan_region(database, self.max_leaf_length)
            keys = tuple(
                (
                    prefix,
                    record.org_id or None,
                    parent_prefix,
                    (parent_record.org_id or None) if parent_record else None,
                    _registration_differs(record, parent_record),
                )
                for prefix, record, parent_prefix, parent_record in scan
            )
            units.append((database.rir, scan, keys))

        total = sum(len(keys) for _rir, _scan, keys in units)
        pool_size = effective_workers(workers, total, shard_size)
        if pool_size <= 1:
            rows_per_unit = [
                _legacy_rows(context, rir, keys)
                for rir, _scan, keys in units
            ]
        else:
            payload = (
                context,
                tuple((rir, keys) for rir, _scan, keys in units),
            )
            shards, outputs = run_sharded(
                payload,
                _legacy_shard,
                [len(keys) for _rir, _scan, keys in units],
                pool_size,
                shard_size,
            )
            rows_per_unit = [[] for _ in units]
            for shard, rows in zip(shards, outputs):
                rows_per_unit[shard.work_index].extend(rows)

        results: List[LegacyInference] = []
        for (rir, scan, _keys), rows in zip(units, rows_per_unit):
            for (prefix, record, parent_prefix, parent_record), (
                verdict_name,
                origins,
            ) in zip(scan, rows):
                results.append(
                    LegacyInference(
                        prefix=prefix,
                        verdict=LegacyVerdict[verdict_name],
                        record=record,
                        parent_prefix=parent_prefix,
                        parent_record=parent_record,
                        origins=frozenset(origins),
                    )
                )
        return results

    def run_reference(self) -> List[LegacyInference]:
        """The frozen prefix-map engine (executable specification)."""
        return infer_legacy_leases(
            self.whois, self.routing_table, self.oracle, self.max_leaf_length
        )
