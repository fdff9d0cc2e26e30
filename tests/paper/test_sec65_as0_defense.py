"""§6.5 — defense against abuse: AS0 ROAs between leases.

Paper: IPXO publishes AS0 ROAs between leases of the same prefix,
making any announcement of the parked space RPKI-invalid (the Stop,
DROP, and ROA defense of Oliver et al.).
"""

from repro.core import BgpOriginHistory, build_timeline
from repro.rpki import ValidationState, validate_origin


def detect_as0_windows(world):
    featured = world.featured
    bgp = BgpOriginHistory()
    for timestamp, origins in featured.bgp_observations:
        bgp.add_observation(timestamp, origins)
    timeline = build_timeline(featured.prefix, bgp, featured.rpki_archive)
    return timeline.as0_periods()


def test_sec65_as0_defense(world):
    as0_periods = detect_as0_windows(world)

    featured = world.featured
    assert len(as0_periods) >= 2

    print()
    for period in as0_periods:
        print(
            f"AS0 window on {featured.prefix}: "
            f"[{period.start}, {period.end})"
        )

    # During every AS0 window, ANY origination of the prefix is
    # RPKI-invalid — including by past and future lessees.
    lessees = {
        lessee for _b, _e, lessee in featured.schedule if lessee is not None
    }
    for period in as0_periods:
        snapshot = featured.rpki_archive.snapshot_at(period.start)
        assert snapshot.has_as0(featured.prefix)
        for origin in sorted(lessees) + [65_000]:
            state = validate_origin(snapshot, featured.prefix, origin)
            assert state is ValidationState.INVALID

    # Outside the AS0 windows the authorized lessee validates cleanly.
    first_lease = featured.schedule[0]
    snapshot = featured.rpki_archive.snapshot_at(first_lease[0])
    assert (
        validate_origin(snapshot, featured.prefix, first_lease[2])
        is ValidationState.VALID
    )
