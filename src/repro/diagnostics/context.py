"""The dataset bundle a diagnostics run audits.

A :class:`DiagnosticContext` wraps whatever subset of the §4 inputs is
available — the five WHOIS databases, the merged routing table, the VRP
set, the AS-relationship graph, AS2org, the DROP list, the serial-
hijacker list — plus lazily built shared indexes (per-registry
allocation trees, a global registered-prefix trie, an ASN→org map) so
that individual rules stay cheap and index construction is paid once
per run, not once per rule.

Rules must tolerate missing datasets: every optional attribute may be
``None``, in which case rules needing it yield nothing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..core.allocation_tree import AllocationTree
from ..net import PrefixTrie
from ..rir import RIR
from ..whois.database import WhoisCollection, WhoisDatabase
from ..whois.objects import InetnumRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..abuse.dropdb import AsnDropList
    from ..asdata.as2org import AS2Org
    from ..asdata.hijackers import SerialHijackerList
    from ..asdata.relationships import ASRelationships
    from ..bgp.rib import RoutingTable
    from ..core.timeline import BgpOriginHistory
    from ..net import Prefix
    from ..rpki.archive import RpkiArchive
    from ..rpki.roa import RoaSet
    from ..simulation.io import DatasetBundle
    from ..simulation.world import World

__all__ = ["DiagnosticContext"]


class DiagnosticContext:
    """Everything a rule may inspect, with shared lazy indexes."""

    def __init__(
        self,
        whois: Optional[WhoisCollection] = None,
        routing_table: Optional["RoutingTable"] = None,
        roas: Optional["RoaSet"] = None,
        relationships: Optional["ASRelationships"] = None,
        as2org: Optional["AS2Org"] = None,
        drop: Optional["AsnDropList"] = None,
        hijackers: Optional["SerialHijackerList"] = None,
        rpki_archive: Optional["RpkiArchive"] = None,
        origin_histories: Optional[
            Dict["Prefix", "BgpOriginHistory"]
        ] = None,
    ) -> None:
        self.whois = whois
        self.routing_table = routing_table
        self.roas = roas
        self.relationships = relationships
        self.as2org = as2org
        self.drop = drop
        self.hijackers = hijackers
        #: Longitudinal inputs for the temporal (T4xx) rules: the ROA
        #: archive plus per-prefix BGP origin time series.  Both may be
        #: absent (rules yield nothing); today they carry the featured
        #: Fig. 3 prefix, but the shape supports any number of prefixes.
        self.rpki_archive = rpki_archive
        self.origin_histories = origin_histories or {}
        self._trees: Optional[Dict[RIR, AllocationTree]] = None
        self._registered: Optional[PrefixTrie[InetnumRecord]] = None
        self._asn_registrations: Optional[
            Dict[int, Tuple[RIR, Optional[str]]]
        ] = None

    # -- constructors -----------------------------------------------------
    @classmethod
    def from_bundle(cls, bundle: "DatasetBundle") -> "DiagnosticContext":
        """Wrap an on-disk dataset bundle (the CLI path)."""
        rpki_archive = None
        origin_histories = None
        featured = bundle.featured
        if featured is not None:
            rpki_archive = featured.rpki_archive
            origin_histories = {
                featured.prefix: featured.updates.origin_history(
                    featured.prefix
                )
            }
        return cls(
            whois=bundle.whois,
            routing_table=bundle.routing_table,
            roas=bundle.roas,
            relationships=bundle.relationships,
            as2org=bundle.as2org,
            drop=bundle.drop_archive.union(),
            hijackers=bundle.hijackers,
            rpki_archive=rpki_archive,
            origin_histories=origin_histories,
        )

    @classmethod
    def from_world(cls, world: "World") -> "DiagnosticContext":
        """Wrap an in-memory simulated world (``run-all``/tests path)."""
        from ..core.timeline import BgpOriginHistory

        featured = world.featured
        history = BgpOriginHistory()
        for timestamp, origins in featured.bgp_observations:
            history.add_observation(timestamp, origins)
        return cls(
            whois=world.whois,
            routing_table=world.routing_table,
            roas=world.roas,
            relationships=world.relationships,
            as2org=world.as2org,
            drop=world.drop,
            hijackers=world.hijackers,
            rpki_archive=featured.rpki_archive,
            origin_histories={featured.prefix: history},
        )

    @classmethod
    def whois_only(cls, database: WhoisDatabase) -> "DiagnosticContext":
        """Wrap a single regional database (a one-registry W-series run)."""
        collection = WhoisCollection()
        collection.databases()[database.rir] = database
        return cls(whois=collection)

    # -- dataset accessors -------------------------------------------------
    def databases(self) -> List[WhoisDatabase]:
        """The non-empty regional WHOIS databases (empty list if absent)."""
        if self.whois is None:
            return []
        return [database for database in self.whois if len(database)]

    # -- shared lazy indexes -----------------------------------------------
    def trees(self) -> Dict[RIR, AllocationTree]:
        """Per-registry allocation trees (built once per run)."""
        if self._trees is None:
            self._trees = {
                database.rir: AllocationTree(database)
                for database in self.databases()
            }
        return self._trees

    def registered_trie(self) -> PrefixTrie[InetnumRecord]:
        """All registered prefixes across registries (first record wins)."""
        if self._registered is None:
            trie: PrefixTrie[InetnumRecord] = PrefixTrie()
            for database in self.databases():
                for record in database.inetnums:
                    if record.range.first > record.range.last:
                        continue  # inverted (W106) ranges can't decompose
                    for prefix in record.range.to_prefixes():
                        if trie.exact(prefix) is None:
                            trie.insert(prefix, record)
            self._registered = trie
        return self._registered

    def asn_registration(
        self, asn: int
    ) -> Optional[Tuple[RIR, Optional[str]]]:
        """The WHOIS registration of *asn* as ``(rir, org_id)``, or None."""
        if self._asn_registrations is None:
            registrations: Dict[int, Tuple[RIR, Optional[str]]] = {}
            for database in self.databases():
                for record in database.autnums:
                    registrations.setdefault(
                        record.asn, (database.rir, record.org_id)
                    )
            self._asn_registrations = registrations
        return self._asn_registrations.get(asn)

    def asn_org(self, asn: int) -> Optional[str]:
        """The organisation of *asn*: WHOIS first, then AS2org."""
        registration = self.asn_registration(asn)
        if registration is not None and registration[1]:
            return registration[1]
        if self.as2org is not None:
            return self.as2org.org_of(asn)
        return None
