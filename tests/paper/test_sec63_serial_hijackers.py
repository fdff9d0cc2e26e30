"""§6.3 — overlap between lease originators and serial BGP hijackers.

Paper: 2.9% of the 9,217 lease originators are serial hijackers; those
ASes originate 13.3% of all leased prefixes, versus 3.1% of non-leased
prefixes — leased space is disproportionately announced by hijackers.
Also: M247/Stark/Datacamp-style hosters top the originator ranking, and
IPXO is a top-three facilitator in RIPE, ARIN, and APNIC.
"""

from repro.core import hijacker_overlap, top_facilitators, top_originators
from repro.reporting import render_hijacker_stats
from repro.rir import RIR
from repro.simulation.world import GLOBAL_BROKER_NAME


def test_sec63_serial_hijackers(world, inference):
    stats = hijacker_overlap(inference, world.routing_table, world.hijackers)

    print()
    print(render_hijacker_stats(stats))

    # Shape: a small minority of originators, but an outsized prefix share.
    assert 0.01 <= stats.originator_share <= 0.10
    assert 0.08 <= stats.leased_share <= 0.20
    assert stats.leased_share > 2 * stats.non_leased_share

    # Shape: the named hosting providers top the RIPE originator ranking.
    ranking = top_originators(inference, k=5)[RIR.RIPE]
    top_asns = [asn for asn, _count in ranking]
    named = {
        asn
        for asn in top_asns
        if world.as2org.org_name(world.as2org.org_of(asn) or "")
        in (
            "M247 Europe SRL",
            "Stark Industries Solutions LTD",
            "Datacamp Limited",
        )
    }
    assert len(named) >= 2

    # Shape: IPXO is the top facilitator in its three regions.
    facilitators = top_facilitators(inference, k=3)
    for rir in (RIR.RIPE, RIR.ARIN, RIR.APNIC):
        handles = [handle for handle, _count in facilitators[rir]]
        assert "IPXO-MNT" in handles, (rir, handles, GLOBAL_BROKER_NAME)
