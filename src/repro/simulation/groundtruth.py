"""Ground-truth labelling for the synthetic world.

Every generated leaf block carries a :class:`TruthKind` describing what
it *really* is, independent of what the inference will conclude.  The
evaluation benches compare inference output against these labels; the
deliberately-injected imperfections (inactive leases, legacy leases,
subsidiary customers) are exactly the cases where truth and inference
disagree, mirroring §6.2.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from ..net import Prefix
from ..rir import RIR

__all__ = ["TruthKind", "TruthEntry", "GroundTruth"]


class TruthKind(enum.Enum):
    """What a generated block actually is."""

    UNUSED = "unused"
    AGGREGATED_CUSTOMER = "aggregated-customer"
    ISP_CUSTOMER = "isp-customer"
    DELEGATED_CUSTOMER = "delegated-customer"
    LEASED_ACTIVE = "leased-active"
    LEASED_INACTIVE = "leased-inactive"  # leased, not yet in BGP (FN mode 1)
    LEASED_LEGACY = "leased-legacy"  # leased legacy space (FN mode 2)
    SUBSIDIARY_CUSTOMER = "subsidiary-customer"  # Vodafone effect (FP mode)
    BROKER_CONNECTIVITY = "broker-connectivity"  # broker-as-ISP customer
    MULTIHOMED_CUSTOMER = "multihomed-customer"  # §6.1 group-4 caveat

    @property
    def is_leased(self) -> bool:
        """True for blocks that are genuinely leased."""
        return self in (
            TruthKind.LEASED_ACTIVE,
            TruthKind.LEASED_INACTIVE,
            TruthKind.LEASED_LEGACY,
        )


@dataclass(frozen=True)
class TruthEntry:
    """The ground truth for one generated block."""

    prefix: Prefix
    rir: RIR
    kind: TruthKind
    holder_org_id: Optional[str] = None
    facilitator_handle: Optional[str] = None
    lessee_asn: Optional[int] = None


class GroundTruth:
    """Indexed collection of truth entries."""

    def __init__(self) -> None:
        self._entries: Dict[Prefix, TruthEntry] = {}
        self._by_kind: Dict[TruthKind, List[TruthEntry]] = {
            kind: [] for kind in TruthKind
        }

    def add(self, entry: TruthEntry) -> None:
        """Record one labelled block."""
        self._entries[entry.prefix] = entry
        self._by_kind[entry.kind].append(entry)

    def lookup(self, prefix: Prefix) -> Optional[TruthEntry]:
        """The truth for *prefix*, or None."""
        return self._entries.get(prefix)

    def of_kind(self, kind: TruthKind) -> List[TruthEntry]:
        """All entries with *kind*."""
        return list(self._by_kind[kind])

    def leased_prefixes(self) -> List[Prefix]:
        """All genuinely leased prefixes (active + inactive + legacy)."""
        return [
            entry.prefix
            for entry in self._entries.values()
            if entry.kind.is_leased
        ]

    def count(self, kind: TruthKind, rir: Optional[RIR] = None) -> int:
        """Entries of *kind*, optionally restricted to one region."""
        entries = self._by_kind[kind]
        if rir is None:
            return len(entries)
        return sum(1 for entry in entries if entry.rir is rir)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[TruthEntry]:
        return iter(self._entries.values())
