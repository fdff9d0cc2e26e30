"""Geolocation-consistency analysis for leased space (§8).

For each prefix, counts the distinct countries and continents the
configured geolocation databases report and aggregates over a
population — quantifying the paper's anecdote that leased prefixes
geolocate wildly inconsistently (IPXO marketplace blocks spanning four
continents across five databases).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Sequence, Set

from ..geo.database import GeoDatabase, continent_of
from ..net import Prefix

__all__ = ["GeoConsistency", "geo_consistency"]


@dataclass(frozen=True)
class GeoConsistency:
    """Per-population geolocation spread statistics."""

    prefixes: int
    located: int
    #: Histogram: number of distinct countries reported → prefix count.
    country_spread: Dict[int, int]
    #: Histogram: number of distinct continents reported → prefix count.
    continent_spread: Dict[int, int]

    @property
    def inconsistent_share(self) -> float:
        """Located prefixes on which the databases disagree on country."""
        disagreeing = sum(
            count for spread, count in self.country_spread.items() if spread > 1
        )
        return disagreeing / self.located if self.located else float("nan")

    @property
    def multi_continent_share(self) -> float:
        """Located prefixes spanning more than one continent."""
        spanning = sum(
            count
            for spread, count in self.continent_spread.items()
            if spread > 1
        )
        return spanning / self.located if self.located else float("nan")

    @property
    def max_continent_spread(self) -> int:
        """The worst observed continent disagreement."""
        return max(self.continent_spread, default=0)


def geo_consistency(
    prefixes: Iterable[Prefix],
    databases: Sequence[GeoDatabase],
) -> GeoConsistency:
    """Measure cross-database geolocation spread over a population."""
    total = 0
    located = 0
    country_spread: Dict[int, int] = {}
    continent_spread: Dict[int, int] = {}
    for prefix in prefixes:
        total += 1
        countries: Set[str] = set()
        for database in databases:
            country = database.locate(prefix)
            if country is not None:
                countries.add(country)
        if not countries:
            continue
        located += 1
        continents = {continent_of(country) for country in countries}
        country_spread[len(countries)] = (
            country_spread.get(len(countries), 0) + 1
        )
        continent_spread[len(continents)] = (
            continent_spread.get(len(continents), 0) + 1
        )
    return GeoConsistency(
        prefixes=total,
        located=located,
        country_spread=country_spread,
        continent_spread=continent_spread,
    )
