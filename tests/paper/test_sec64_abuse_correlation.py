"""§6.4 — potential abuse of leased prefixes.

Paper: 1.1% of leased prefixes are originated by Spamhaus ASN-DROP ASes
versus 0.2% of non-leased prefixes — "approximately five times more
likely".  ROAs covering leased prefixes name a blocklisted AS 1.6% of
the time versus 0.2% for non-leased space.
"""

from repro.core import drop_correlation, roa_abuse_analysis
from repro.reporting import render_drop_stats, render_roa_stats


def test_sec64_drop_correlation(world, inference):
    stats = drop_correlation(inference, world.routing_table, world.drop)

    print()
    print(render_drop_stats(stats))

    # Shape: small absolute shares, large relative risk (paper ~5x).
    assert 0.005 <= stats.leased_share <= 0.03
    assert stats.non_leased_share <= 0.005
    assert 3.0 <= stats.risk_ratio <= 10.0


def test_sec64_roa_blocklist_analysis(world, inference):
    leased = inference.leased_prefixes()
    non_leased = set(world.routing_table.prefixes()) - leased
    drop = world.drop

    leased_stats = roa_abuse_analysis(leased, world.roas, drop)
    non_leased_stats = roa_abuse_analysis(non_leased, world.roas, drop)

    print()
    print(render_roa_stats(leased_stats, non_leased_stats))

    # Shape: leased space has plenty of ROAs (paper: 31k for 47k prefixes)
    # and its ROAs are several times more likely to name a DROP AS.
    assert leased_stats.coverage >= 0.4
    assert leased_stats.roas_total > 300
    assert leased_stats.blocklisted_share > 3 * max(
        non_leased_stats.blocklisted_share, 1e-9
    )
    # Even more likely than the raw BGP origination share (§6.4's point).
    assert leased_stats.blocklisted_share >= 0.008
