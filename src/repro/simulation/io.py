"""Materializing a world to disk and loading it back.

``write_world`` writes every dataset in its native on-disk flavour —
RPSL/ARIN/LACNIC WHOIS dumps, pipe-format table dumps, serial-1
relationships, AS2org JSONL, VRP CSV, DROP JSONL, broker CSV — exactly
the file formats a measurement pipeline would download (§4).
``load_datasets`` reads them back into the in-memory types, which both
round-trips the serializers and lets the CLI run the inference from
files alone.

``load_datasets`` decodes and checks every file except three inputs
the lease inference never reads, which are decoded on first read and
then kept:

* ``vrps.csv``, decoded when ``bundle.roas`` is first read;
* ``featured/`` (the prefix, its RPKI archive and ``updates.txt``),
  decoded when ``bundle.featured`` is first read;
* the RPKI archive snapshots (``rpki/`` and ``featured/rpki/``), whose
  file names alone are checked when their archive is opened, and each
  snapshot decoded the first time the archive is read.

A malformed one of these raises its typed error, naming the file and
the 1-based line, on that first read: :class:`~repro.rpki.roa.VrpError`
for a VRP file, :class:`~repro.bgp.history.UpdateStreamError` for
``featured/updates.txt``.  That happens under ``infer --strict``,
``lint``, ``rpki``, ``abuse`` or ``timeline``, never under ``infer`` or
``serve``, which read none of them.  Writing, loading, world building
and each first-read decode run with the cyclic garbage collector paused
(:mod:`repro.net.gcpause`).
"""

from __future__ import annotations

import csv
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Set

from ..abuse.dropdb import AsnDropError, AsnDropList, DropArchive
from ..asdata.as2org import AS2Org, As2OrgError
from ..asdata.hijackers import HijackerListError, SerialHijackerList
from ..asdata.relationships import ASRelationships, RelationshipError
from ..bgp.aspath import ASPath
from ..bgp.history import (
    AnnounceUpdate,
    UpdateStream,
    UpdateStreamError,
    WithdrawUpdate,
)
from ..bgp.mrt import read_mrt, write_mrt
from ..bgp.rib import RoutingTable
from ..bgp.table_dump import read_table_dump, write_table_dump
from ..brokers.registry import BrokerRegistry
from ..net import Prefix
from ..net.gcpause import gc_paused
from ..rir import RIR
from ..rpki.archive import RpkiArchive
from ..rpki.roa import RoaSet, VrpError
from ..whois.database import WhoisCollection, WhoisDatabase

if TYPE_CHECKING:
    from .world import World

__all__ = ["DatasetBundle", "write_world", "load_datasets"]


@dataclass
class FeaturedBundle:
    """The Fig. 3 featured prefix as loaded from disk."""

    prefix: Prefix
    rpki_archive: RpkiArchive
    updates: UpdateStream


@dataclass
class DatasetBundle:
    """The §4 datasets as loaded from disk.

    ``roas`` and ``featured`` are read from *directory* on first access
    and then kept; every other field is decoded at load.
    """

    whois: WhoisCollection
    routing_table: RoutingTable
    relationships: ASRelationships
    as2org: AS2Org
    rpki_archive: RpkiArchive
    drop_archive: DropArchive
    hijackers: SerialHijackerList
    broker_registry: BrokerRegistry
    curation_exclusions: Set[Prefix]
    negative_isp_org_ids: Dict[RIR, List[str]]
    directory: Path

    @cached_property
    def roas(self) -> RoaSet:
        """The validated ROA payloads of ``vrps.csv``."""
        path = self.directory / "vrps.csv"
        with gc_paused, _located(path):
            return RoaSet.from_csv(path.read_text())

    @cached_property
    def featured(self) -> Optional[FeaturedBundle]:
        """The Fig. 3 prefix of ``featured/``, or None without one."""
        with gc_paused:
            return _read_featured(self.directory / "featured")


@gc_paused
def write_world(world: World, directory: Path) -> None:
    """Write every dataset of *world* under *directory*."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    whois_dir = directory / "whois"
    whois_dir.mkdir(exist_ok=True)
    for database in world.whois:
        path = whois_dir / f"{database.rir.value}.db"
        path.write_text(database.to_text())
    entries = world.to_table_dump_entries()
    (directory / "rib.txt").write_text(write_table_dump(entries))
    # The same RIB in the binary MRT form collectors actually publish.
    (directory / "rib.mrt").write_bytes(write_mrt(entries))
    (directory / "as-rel.txt").write_text(world.relationships.to_text())
    (directory / "as2org.jsonl").write_text(world.as2org.to_jsonl())
    (directory / "vrps.csv").write_text(world.roas.to_csv())
    drop_dir = directory / "drop"
    drop_dir.mkdir(exist_ok=True)
    for month in world.drop_archive.months():
        (drop_dir / f"asndrop-{month}.json").write_text(
            world.drop_archive.month(month).to_json()
        )
    world.rpki_archive.to_directory(directory / "rpki")
    _write_featured(directory / "featured", world)
    (directory / "hijackers.txt").write_text(world.hijackers.to_text())
    (directory / "brokers.csv").write_text(world.broker_registry.to_csv())
    _write_exclusions(directory / "exclusions.txt", world.curation_exclusions)
    _write_negative_isps(
        directory / "negative_isps.csv", world.negative_isp_org_ids
    )
    _write_ground_truth(directory / "ground_truth.csv", world)


@gc_paused
def load_datasets(directory: Path) -> DatasetBundle:
    """Load a bundle previously produced by :func:`write_world`."""
    directory = Path(directory)
    whois = WhoisCollection()
    for rir in RIR:
        path = directory / "whois" / f"{rir.value}.db"
        if path.exists():
            whois.databases()[rir] = WhoisDatabase.from_file(rir, path)
    rib_txt = directory / "rib.txt"
    if rib_txt.exists():
        routing_table = RoutingTable.from_entries(
            read_table_dump(rib_txt.read_text())
        )
    else:  # fall back to the binary MRT RIB
        routing_table = RoutingTable.from_entries(
            read_mrt((directory / "rib.mrt").read_bytes())
        )
    drop_archive = DropArchive()
    drop_dir = directory / "drop"
    if drop_dir.exists():
        for path in sorted(drop_dir.glob("asndrop-*.json")):
            month = path.stem.replace("asndrop-", "")
            with _located(path):
                snapshot = AsnDropList.from_json(path.read_text())
            drop_archive.add_month(month, snapshot)
    rpki_dir = directory / "rpki"
    rpki_archive = (
        RpkiArchive.from_directory(rpki_dir)
        if rpki_dir.exists()
        else RpkiArchive()
    )
    relationships_path = directory / "as-rel.txt"
    with _located(relationships_path):
        relationships = ASRelationships.from_text(
            relationships_path.read_text()
        )
    as2org_path = directory / "as2org.jsonl"
    with _located(as2org_path):
        as2org = AS2Org.from_jsonl(as2org_path.read_text())
    hijackers_path = directory / "hijackers.txt"
    with _located(hijackers_path):
        hijackers = SerialHijackerList.from_text(hijackers_path.read_text())
    return DatasetBundle(
        whois=whois,
        routing_table=routing_table,
        relationships=relationships,
        as2org=as2org,
        rpki_archive=rpki_archive,
        drop_archive=drop_archive,
        hijackers=hijackers,
        broker_registry=BrokerRegistry.from_csv(
            (directory / "brokers.csv").read_text()
        ),
        curation_exclusions=_read_exclusions(directory / "exclusions.txt"),
        negative_isp_org_ids=_read_negative_isps(
            directory / "negative_isps.csv"
        ),
        directory=directory,
    )


@contextmanager
def _located(path: Path) -> Iterator[None]:
    """Prefix a line-located parse error with the file it came from."""
    try:
        yield
    except (
        RelationshipError, As2OrgError, HijackerListError, AsnDropError,
        VrpError, UpdateStreamError,
    ) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _write_featured(directory: Path, world: World) -> None:
    """Persist the Fig. 3 prefix: its RPKI archive + a BGP update stream.

    The (timestamp, origins) observations become announce/withdraw
    messages so the on-disk form matches real update archives.
    """
    directory.mkdir(parents=True, exist_ok=True)
    featured = world.featured
    (directory / "prefix.txt").write_text(f"{featured.prefix}\n")
    featured.rpki_archive.to_directory(directory / "rpki")
    updates = []
    previous: frozenset = frozenset()
    peer = world.collector_peers[0]
    for timestamp, origins in featured.bgp_observations:
        current = frozenset(origins)
        for _origin in sorted(previous - current):
            updates.append(
                WithdrawUpdate(
                    timestamp=timestamp,
                    prefix=featured.prefix,
                    peer_asn=peer,
                    peer_address="198.18.0.1",
                )
            )
        for origin in sorted(current - previous):
            updates.append(
                AnnounceUpdate(
                    timestamp=timestamp,
                    prefix=featured.prefix,
                    path=ASPath.of(peer, origin),
                    peer_asn=peer,
                    peer_address="198.18.0.1",
                )
            )
        previous = current
    (directory / "updates.txt").write_text(UpdateStream(updates).to_text())


def _read_featured(directory: Path) -> Optional[FeaturedBundle]:
    if not directory.exists():
        return None
    prefix = Prefix.parse((directory / "prefix.txt").read_text().strip())
    updates_path = directory / "updates.txt"
    with _located(updates_path):
        updates = UpdateStream.from_text(updates_path.read_text())
    return FeaturedBundle(
        prefix=prefix,
        rpki_archive=RpkiArchive.from_directory(directory / "rpki"),
        updates=updates,
    )


def _write_exclusions(path: Path, exclusions: Set[Prefix]) -> None:
    lines = ["# broker-maintained blocks that are not leases"]
    lines.extend(str(prefix) for prefix in sorted(exclusions))
    path.write_text("\n".join(lines) + "\n")


def _read_exclusions(path: Path) -> Set[Prefix]:
    if not path.exists():
        return set()
    result: Set[Prefix] = set()
    for line in path.read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            result.add(Prefix.parse(line))
    return result


def _write_negative_isps(
    path: Path, negative: Dict[RIR, List[str]]
) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["rir", "org_id"])
        for rir in sorted(negative, key=lambda r: r.name):
            for org_id in negative[rir]:
                writer.writerow([rir.value, org_id])


def _read_negative_isps(path: Path) -> Dict[RIR, List[str]]:
    if not path.exists():
        return {}
    result: Dict[RIR, List[str]] = {}
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        next(reader, None)  # header
        for row in reader:
            if len(row) >= 2:
                result.setdefault(RIR.parse(row[0]), []).append(row[1])
    return result


def _write_ground_truth(path: Path, world: World) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["prefix", "rir", "kind", "holder_org", "facilitator", "lessee_asn"]
        )
        for entry in sorted(world.ground_truth, key=lambda e: e.prefix):
            writer.writerow(
                [
                    str(entry.prefix),
                    entry.rir.value,
                    entry.kind.value,
                    entry.holder_org_id or "",
                    entry.facilitator_handle or "",
                    entry.lessee_asn if entry.lessee_asn is not None else "",
                ]
            )
