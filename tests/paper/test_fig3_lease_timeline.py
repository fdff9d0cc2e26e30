"""Fig. 3 — RPKI and BGP behaviour of an IPXO-leased prefix (§6.5).

Paper: a two-year history in which successive lessee ASes hold the
prefix, with AS0 ROAs between leases "likely for marking the end of a
lease or abuse-related purposes".
"""

from repro.core import BgpOriginHistory, PeriodKind, build_timeline
from repro.reporting import render_timeline


def reconstruct_timeline(world):
    featured = world.featured
    bgp = BgpOriginHistory()
    for timestamp, origins in featured.bgp_observations:
        bgp.add_observation(timestamp, origins)
    return build_timeline(featured.prefix, bgp, featured.rpki_archive)


def test_fig3_lease_timeline(world):
    timeline = reconstruct_timeline(world)

    print()
    print(render_timeline(timeline))

    expected_leases = sum(
        1 for _begin, _end, lessee in world.featured.schedule if lessee
    )
    assert timeline.lease_count() == expected_leases
    assert expected_leases >= 4  # several distinct leases over two years

    # AS0 markers sit between leases, never first.
    assert len(timeline.as0_periods()) >= 2
    assert timeline.periods[0].kind is PeriodKind.LEASE

    # Each lease period binds a different lessee AS.
    lessees = [min(p.asns) for p in timeline.lease_periods()]
    assert len(set(lessees)) == len(lessees)

    # RPKI and BGP agree during leases: the origin is the authorized AS.
    for period in timeline.lease_periods():
        real_rpki = {asn for asn in period.rpki_asns if asn != 0}
        assert period.bgp_asns <= real_rpki or not period.bgp_asns
