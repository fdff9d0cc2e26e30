"""Table 3 — top 3 IP holders by inferred leases per RIR (§6.3).

Paper: Resilans AB tops RIPE, EGIHosting tops ARIN (PSINet second),
Cloud Innovation dominates AFRINIC with a huge gap to #2.
"""

from repro.core import top_holders
from repro.reporting import render_table3
from repro.rir import RIR


def test_table3_top_holders(world, inference):
    ranking = top_holders(inference, world.whois, 3)

    print()
    print(render_table3(ranking))

    assert ranking[RIR.RIPE][0][0] == "Resilans AB"
    assert ranking[RIR.ARIN][0][0] == "EGIHosting"
    assert ranking[RIR.ARIN][1][0] == "PSINet, Inc."
    assert ranking[RIR.AFRINIC][0][0] == "Cloud Innovation Ltd"

    # The AFRINIC gap: #1 far exceeds #2 (paper: 2,014 vs 38).
    afrinic = ranking[RIR.AFRINIC]
    assert afrinic[0][1] >= 10 * afrinic[1][1]

    # Every region has three ranked holders with positive counts.
    for rir in RIR:
        assert len(ranking[rir]) == 3
        assert all(count > 0 for _name, count in ranking[rir])
