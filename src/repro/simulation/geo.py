"""Synthetic geolocation databases for a generated world.

Models the §8 observation: for ordinary (connectivity-customer and
background) space the commercial geolocation databases largely agree,
while leased space drifts — some databases still carry the holder's
country, others have picked up the lessee's, and marketplace churn
leaves a few entries pointing somewhere else entirely.
"""

from __future__ import annotations

import random
from typing import Dict, List

from ..geo.database import CONTINENT_OF, GeoDatabase
from .groundtruth import TruthKind
from .world import World

__all__ = ["build_geo_databases"]

_DB_NAMES = ("maxmind-like", "ip2loc-like", "dbip-like", "ipinfo-like",
             "ipreg-like")


def build_geo_databases(
    world: World, db_count: int = 5, noise: float = 0.04
) -> List[GeoDatabase]:
    """Derive *db_count* geolocation databases from the world.

    * Non-leased blocks: every database reports the holder's country,
      except an occasional *noise* entry in a single database (same
      continent, wrong country) — normal commercial-DB disagreement.
    * Leased blocks: database 0 keeps the stale holder country, database
      1 has the lessee organisation's country, and the remaining
      databases mix in marketplace drift (random countries, often on
      other continents).
    """
    rng = random.Random(world.scenario.seed ^ 0x6E0)
    countries = sorted(CONTINENT_OF)
    org_country: Dict[str, str] = {}

    def country_of(org_id: str) -> str:
        if org_id not in org_country:
            org_country[org_id] = rng.choice(countries)
        return org_country[org_id]

    def same_continent_alternative(country: str) -> str:
        continent = CONTINENT_OF[country]
        peers = [
            c
            for c in countries
            if CONTINENT_OF[c] == continent and c != country
        ]
        return rng.choice(peers) if peers else country

    databases = [
        GeoDatabase(_DB_NAMES[i % len(_DB_NAMES)] + (f"-{i}" if i >= 5 else ""))
        for i in range(db_count)
    ]

    for entry in world.ground_truth:
        holder_country = country_of(entry.holder_org_id or "unknown")
        if entry.kind in (TruthKind.LEASED_ACTIVE, TruthKind.LEASED_LEGACY):
            lessee_country = country_of(f"AS{entry.lessee_asn}")
            for index, database in enumerate(databases):
                if index == 0:
                    database.add(entry.prefix, holder_country)
                elif index == 1:
                    database.add(entry.prefix, lessee_country)
                else:
                    database.add(entry.prefix, rng.choice(countries))
        else:
            for database in databases:
                if rng.random() < noise:
                    database.add(
                        entry.prefix,
                        same_continent_alternative(holder_country),
                    )
                else:
                    database.add(entry.prefix, holder_country)

    # Background prefixes: consistent per-origin countries.
    truth_prefixes = {entry.prefix for entry in world.ground_truth}
    for prefix, origins in world.routing_table.items():
        if prefix in truth_prefixes:
            continue
        country = country_of(f"AS{min(origins)}")
        for database in databases:
            if rng.random() < noise:
                database.add(prefix, same_continent_alternative(country))
            else:
                database.add(prefix, country)
    return databases
