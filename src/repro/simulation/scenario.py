"""Scenario configuration for the synthetic Internet.

A :class:`Scenario` fixes, per registry, how many leaf blocks of each
ground-truth kind exist, which failure modes are injected, and the global
knobs (abuse rates, RPKI coverage, BGP visibility).  The default
:func:`paper_world` is calibrated to reproduce the *shape* of every
result in the paper at roughly 1/50th of the April 2024 Internet; the
tiny :func:`small_world` keeps unit tests fast.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from ..rir import RIR

__all__ = [
    "BENCH_SIZES",
    "DEFAULT_BENCH_SIZES",
    "MegaHolder",
    "RegionSpec",
    "Scenario",
    "bench_world",
    "internet_world",
    "paper_world",
    "small_world",
]


@dataclass(frozen=True)
class MegaHolder:
    """A named IP holder with a pinned number of leased-out blocks.

    Used to reproduce Table 3's named top holders (Resilans-, EGIHosting-,
    Cloud-Innovation-like organisations).  ``announces_root`` decides
    whether its leases land in group 3 (False) or group 4 (True);
    ``self_facilitated`` marks holders that broker their own leases
    (the Cloud Innovation pattern in AFRINIC, §6.3).
    """

    name: str
    leased: int
    announces_root: bool = False
    self_facilitated: bool = False


@dataclass(frozen=True)
class RegionSpec:
    """Per-registry generation parameters (counts are leaf blocks)."""

    rir: RIR
    unused: int
    aggregated: int
    isp_customer: int
    leased_group3: int
    delegated: int
    leased_group4: int
    #: Broker-maintained blocks that are leased but not yet originated —
    #: counted inside ``unused`` (they become §6.2's dominant FN mode).
    inactive_leases: int = 0
    #: Broker-maintained LEGACY blocks (outside the tree: FN mode two).
    legacy_leased: int = 0
    #: Registered brokers, and how many of them have no WHOIS presence.
    brokers: int = 0
    brokers_missing_from_db: int = 0
    #: APNIC organisations expose no maintainer handles (§6.2).
    org_maintainers_visible: bool = True
    #: Broker-maintained blocks that are connectivity customers of a
    #: broker-as-ISP — the 1,621 prefixes the paper filtered manually.
    #: Generated out of the ``delegated`` budget.
    broker_connectivity_blocks: int = 0
    #: Multi-homed delegated customers whose second-upstream relationship
    #: is not captured (§6.1/§7): genuinely non-leased blocks the method
    #: files under group-4 leased. Generated out of the ``leased_group4``
    #: budget, since that is where the paper's 1,872 such prefixes sit.
    multihomed_group4_blocks: int = 0
    #: Named holders with pinned lease counts (Table 3 rows).
    mega_holders: Tuple[MegaHolder, ...] = ()
    #: Non-leased background prefixes announced in this region.
    background_prefixes: int = 0
    #: /8 blocks this registry draws address space from.
    address_pools: Tuple[int, ...] = ()

    @property
    def total_leaves(self) -> int:
        """All classifiable leaves the region will generate."""
        return (
            self.unused
            + self.aggregated
            + self.isp_customer
            + self.leased_group3
            + self.delegated
            + self.leased_group4
        )

    @property
    def leased_total(self) -> int:
        """Ground-truth active leases (groups 3 + 4)."""
        return self.leased_group3 + self.leased_group4


@dataclass(frozen=True)
class Scenario:
    """The full synthetic-Internet configuration."""

    seed: int
    regions: Tuple[RegionSpec, ...]
    #: Leaves per holder organisation (controls holder counts).
    leaves_per_holder: int = 25
    #: Leaves per ISP-customer AS (one AS may hold several blocks).
    leaves_per_customer_as: int = 2
    #: Most leases a *generic* (non-mega) lease-out holder rents out;
    #: keeps the named Table 3 holders on top of the ranking.
    max_leases_per_generic_holder: int = 3
    #: Distinct hosting/lessee origin ASes shared across regions.
    lessee_pool_size: int = 60
    #: Fraction of active leases facilitated by a registered broker —
    #: these become the curated positive labels of §5.3.
    broker_facilitated_share: float = 0.33
    #: Fraction of ordinary customer blocks registered under the
    #: customer's own maintainer rather than the provider's — harmless to
    #: the BGP-grounded method but false positives for the Prehn et al.
    #: maintainer-difference baseline (§6.1).
    customer_own_maintainer_share: float = 0.15
    #: Fraction of leaves that additionally sit under an intermediate
    #: sub-allocation record (a /22 between the /16 root and the /24
    #: leaf). §5.1: "We do not focus on the intermediate nodes" — this
    #: knob ensures they exist so that holds at scale.
    intermediate_suballocation_share: float = 0.08
    #: Fraction of the lessee pool flagged as serial hijackers (§6.3: 2.9%
    #: of originators), and of leased blocks they originate (13.3%).
    hijacker_fraction_of_lessees: float = 0.05
    leased_share_by_hijackers: float = 0.13
    background_share_by_hijackers: float = 0.031
    #: DROP-listed lessees: target 1.1% of leased vs 0.2% of non-leased.
    leased_share_by_dropped: float = 0.012
    background_share_by_dropped: float = 0.0015
    #: ROA coverage of leases originated by DROP-listed ASes — higher than
    #: for clean leases (§6.4: abusers actively use facilitator RPKI
    #: management, making leased space "even more likely" to have a ROA
    #: authorizing an abusive AS).
    roa_coverage_abusive: float = 0.92
    #: RPKI: fraction of leased blocks with ROAs (31k ROAs / 47k leased),
    #: and of background blocks.
    roa_coverage_leased: float = 0.66
    roa_coverage_background: float = 0.46
    #: Fraction of announcements visible to the collectors (§7 bias knob).
    bgp_visibility: float = 1.0
    #: Transit backbone shape.  The defaults reproduce the historical
    #: hardcoded topology (6 tier-1 carriers, 4 tier-2 carriers per
    #: registry, no IXPs) byte-for-byte; the internet tier raises them.
    tier1_count: int = 6
    tier2_per_region: int = 4
    #: Internet-exchange route servers.  Each IXP gets one route-server
    #: AS peering (p2p) with ``ixp_tier2_members`` sampled tier-2s per
    #: region; heavyweight lessee/hosting ASes also peer at one IXP.
    #: Zero keeps existing worlds identical (no extra RNG draws).
    ixps: int = 0
    ixp_tier2_members: int = 2
    #: Fold announcements into the routing table while generating instead
    #: of accumulating the full announcement list and sampling it at the
    #: end — bounds peak memory on internet-scale worlds.  Only legal at
    #: full visibility (sampling draws would change RNG order) and
    #: without full propagation; ``World.announcements`` stays empty.
    stream_routes: bool = False
    #: When True, RIBs come from full Gao-Rexford route propagation to
    #: the collector peers instead of the fast direct construction.
    #: Identical origins on connected topologies; use for small worlds or
    #: to study collector placement — propagation is O(origins x edges).
    full_propagation: bool = False
    #: Subsidiary-ISP false positives (the Vodafone effect, §6.2): number
    #: of negative-ISP customer blocks originated by an unlinked
    #: subsidiary AS.
    subsidiary_fp_blocks: int = 2
    #: Month keys for the DROP archive.
    drop_months: Tuple[str, ...] = ("2024-02", "2024-03", "2024-04", "2024-05")

    def region(self, rir: RIR) -> RegionSpec:
        """The spec for one registry."""
        for spec in self.regions:
            if spec.rir is rir:
                return spec
        raise KeyError(f"no region spec for {rir}")

    @property
    def total_leaves(self) -> int:
        """Classifiable leaves across all regions."""
        return sum(spec.total_leaves for spec in self.regions)

    @property
    def total_leased(self) -> int:
        """Ground-truth active leases across all regions."""
        return sum(spec.leased_total for spec in self.regions)


def paper_world(seed: int = 20240401, scale: int = 50) -> Scenario:
    """The April 2024 Internet at ``1/scale`` (default 1/50).

    Region counts are the Table 1 numbers divided by *scale*; named mega
    holders pin the Table 3 rankings; injected imperfections are sized to
    land the Table 2 confusion matrix near the paper's 98% precision /
    82% recall.
    """

    def scaled(value: int, minimum: int = 1) -> int:
        return max(minimum, round(value / scale))

    regions = (
        RegionSpec(
            rir=RIR.RIPE,
            unused=scaled(63_670),
            aggregated=scaled(204_337),
            isp_customer=scaled(31_484),
            leased_group3=scaled(26_774),
            delegated=scaled(27_610),
            leased_group4=scaled(1_872),
            inactive_leases=scaled(2_900),
            legacy_leased=scaled(130),
            brokers=scaled(115, minimum=6),
            brokers_missing_from_db=scaled(30, minimum=1),
            broker_connectivity_blocks=scaled(1_621),
            multihomed_group4_blocks=scaled(400),
            mega_holders=(
                MegaHolder("Resilans AB", scaled(1_106)),
                MegaHolder("Cyber Assets FZCO", scaled(941)),
                MegaHolder(
                    "Russian Scientific-Research Institute", scaled(675)
                ),
            ),
            background_prefixes=scaled(430_000),
            address_pools=(62, 77, 78, 79, 80, 81),
        ),
        RegionSpec(
            rir=RIR.ARIN,
            unused=scaled(43_011),
            aggregated=scaled(98_316),
            isp_customer=scaled(10_302),
            leased_group3=scaled(6_697),
            delegated=scaled(22_927),
            leased_group4=scaled(5_633),
            inactive_leases=scaled(90),
            brokers=scaled(9, minimum=2),
            mega_holders=(
                MegaHolder("EGIHosting", scaled(1_418)),
                MegaHolder("PSINet, Inc.", scaled(1_233)),
                MegaHolder("Ace Data Centers, Inc.", scaled(533)),
            ),
            background_prefixes=scaled(250_000),
            address_pools=(63, 64, 65, 66, 67),
        ),
        RegionSpec(
            rir=RIR.APNIC,
            unused=scaled(25_437),
            aggregated=scaled(21_515),
            isp_customer=scaled(7_725),
            leased_group3=scaled(3_275),
            delegated=scaled(8_291),
            leased_group4=scaled(150),
            brokers=scaled(38, minimum=3),
            org_maintainers_visible=False,
            mega_holders=(
                MegaHolder("Orient Express LDI Limited", scaled(145, 6)),
                MegaHolder("Capitalonline Data Service (HK)", scaled(135, 5)),
                MegaHolder("Aceville PTE.LTD.", scaled(96, 4)),
            ),
            background_prefixes=scaled(150_000),
            address_pools=(101, 110, 111, 112),
        ),
        RegionSpec(
            rir=RIR.AFRINIC,
            unused=scaled(28_936),
            aggregated=scaled(1_741),
            isp_customer=scaled(777),
            leased_group3=scaled(2_172),
            delegated=scaled(1_236),
            leased_group4=scaled(63),
            mega_holders=(
                MegaHolder(
                    "Cloud Innovation Ltd",
                    scaled(2_014),
                    self_facilitated=True,
                ),
                MegaHolder("ATI - Agence Tunisienne Internet", scaled(38)),
                MegaHolder("Nile Online", scaled(32)),
            ),
            background_prefixes=scaled(40_000),
            address_pools=(102, 105),
        ),
        RegionSpec(
            rir=RIR.LACNIC,
            unused=scaled(27_551),
            aggregated=scaled(11_950),
            isp_customer=scaled(2_250),
            leased_group3=scaled(627),
            delegated=scaled(1_294),
            leased_group4=scaled(55),
            mega_holders=(
                MegaHolder("Radiografica Costarricense", scaled(114, 6)),
                MegaHolder("Impsat Fiber Networks Inc", scaled(88, 5)),
                MegaHolder("Newcom Limited", scaled(25, 4)),
            ),
            background_prefixes=scaled(60_000),
            address_pools=(177, 179, 186, 187),
        ),
    )
    return Scenario(seed=seed, regions=regions)


def small_world(seed: int = 7) -> Scenario:
    """A minimal five-region world for fast tests."""
    regions = tuple(
        RegionSpec(
            rir=rir,
            unused=6,
            aggregated=10,
            isp_customer=4,
            leased_group3=5,
            delegated=4,
            leased_group4=2,
            inactive_leases=2 if rir is RIR.RIPE else 0,
            legacy_leased=1 if rir is RIR.RIPE else 0,
            broker_connectivity_blocks=1 if rir is RIR.RIPE else 0,
            multihomed_group4_blocks=1 if rir is RIR.RIPE else 0,
            brokers=3 if rir is not RIR.AFRINIC else 0,
            brokers_missing_from_db=1 if rir is RIR.RIPE else 0,
            org_maintainers_visible=rir is not RIR.APNIC,
            mega_holders=(MegaHolder(f"Mega {rir.name}", 3),),
            background_prefixes=30,
            address_pools=_SMALL_POOLS[rir],
        )
        for rir in RIR
    )
    return Scenario(
        seed=seed,
        regions=regions,
        leaves_per_holder=6,
        lessee_pool_size=12,
        subsidiary_fp_blocks=1,
        # With only ~36 leases the paper-scale abuse rates round to zero
        # draws; inflate them so tiny worlds still exercise those paths.
        leased_share_by_dropped=0.06,
        leased_share_by_hijackers=0.2,
    )


def internet_world(seed: int = 20240401, scale: int = 5) -> Scenario:
    """The April 2024 Internet at ``1/scale`` with realistic transit.

    Same Table-1 region counts as :func:`paper_world`, but the backbone
    grows to twelve tier-1 carriers, 24 tier-2 carriers per registry and
    eight IXP route servers; a larger hosting/lessee pool peers at the
    exchanges; and routes are folded into the routing table while
    generating (``stream_routes``) so peak memory stays bounded.  The
    default 1/5 scale (the ``xlarge`` bench tier) yields ~137k
    classifiable leaves and ~30k ASes; 1/2 (``internet``) ~344k leaves.
    """
    base = paper_world(seed=seed, scale=scale)
    return replace(
        base,
        tier1_count=12,
        tier2_per_region=24,
        ixps=8,
        ixp_tier2_members=3,
        lessee_pool_size=max(60, 1_500 // scale),
        stream_routes=True,
    )


#: Benchmark world sizes, smallest first.  ``small`` doubles as the CI
#:  smoke world (sub-second end to end); ``large`` is the world the
#: committed ``BENCH_pipeline.json`` speedups were historically measured
#: on; ``xlarge``/``internet`` are the :func:`internet_world` tiers the
#: shared-memory RIB is sized for.
BENCH_SIZES: Tuple[str, ...] = (
    "small", "medium", "large", "xlarge", "internet"
)

#: The sizes `repro bench` runs when none are requested — the internet
#: tiers are opt-in (minutes of generation time each).
DEFAULT_BENCH_SIZES: Tuple[str, ...] = ("small", "medium", "large")

#: paper_world scale factor per bench size (smaller scale = bigger world).
_BENCH_SCALES: Dict[str, int] = {"medium": 100, "large": 20}

#: internet_world scale factor for the internet-shaped tiers.
_INTERNET_SCALES: Dict[str, int] = {"xlarge": 5, "internet": 2}


def bench_world(
    size: str, seed: int = 20240401, scale: Optional[int] = None
) -> Scenario:
    """The benchmark scenario for one of :data:`BENCH_SIZES`.

    * ``small`` — the :func:`small_world` test scenario (~150 leaves).
    * ``medium`` — :func:`paper_world` at 1/100 (~7k leaves).
    * ``large`` — :func:`paper_world` at 1/20 (~34k leaves).
    * ``xlarge`` — :func:`internet_world` at 1/5 (~137k leaves).
    * ``internet`` — :func:`internet_world` at 1/2 (~344k leaves).

    *scale* overrides the tier's default paper-scale divisor (CI smoke
    runs the xlarge topology at a coarse scale).  Scales below ~1/15
    overflow the configured per-region /8 pools; the world builder then
    derives further reserve /8s, so any scale remains buildable.
    """
    if size in _INTERNET_SCALES:
        return internet_world(seed=seed, scale=scale or _INTERNET_SCALES[size])
    if size == "small":
        return small_world(seed=seed)
    try:
        default_scale = _BENCH_SCALES[size]
    except KeyError:
        raise ValueError(
            f"unknown bench size {size!r}; expected one of {BENCH_SIZES}"
        ) from None
    return paper_world(seed=seed, scale=scale or default_scale)


_SMALL_POOLS: Dict[RIR, Tuple[int, ...]] = {
    RIR.RIPE: (62,),
    RIR.ARIN: (63,),
    RIR.APNIC: (101,),
    RIR.AFRINIC: (102,),
    RIR.LACNIC: (177,),
}
