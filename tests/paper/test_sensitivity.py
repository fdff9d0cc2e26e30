"""Sensitivity of the evaluation to curation parameters.

Two sweeps the paper's §5.3 workflow implicitly fixes:

* the fuzzy-matching threshold for broker names — too strict loses the
  paper's 39 manually-matched brokers, too loose merges unrelated
  companies;
* the share of leases a registered broker facilitates — controls the
  reference dataset's size but should not move precision.
"""

import dataclasses

from repro.brokers import match_brokers
from repro.core import curate_reference, evaluate_inference, infer_leases
from repro.rir import RIR
from repro.simulation import build_world, paper_world


def test_fuzzy_threshold_sweep(world):
    thresholds = (0.75, 0.88, 0.97)
    outcomes = {}
    for threshold in thresholds:
        report = match_brokers(
            world.broker_registry.brokers(RIR.RIPE),
            world.whois[RIR.RIPE],
            fuzzy_threshold=threshold,
        )
        outcomes[threshold] = (
            report.exact_count,
            report.fuzzy_count,
            len(report.unmatched),
        )
    print()
    for threshold, (exact, fuzzy, unmatched) in outcomes.items():
        print(
            f"threshold {threshold}: exact={exact} fuzzy={fuzzy} "
            f"unmatched={unmatched}"
        )
    # Exact matches are threshold-independent.
    exacts = {exact for exact, _f, _u in outcomes.values()}
    assert len(exacts) == 1
    # Stricter thresholds can only shrink the fuzzy bucket and grow the
    # unmatched one.
    fuzzies = [outcomes[t][1] for t in thresholds]
    assert fuzzies == sorted(fuzzies, reverse=True)
    unmatched = [outcomes[t][2] for t in thresholds]
    assert unmatched == sorted(unmatched)
    # Most registered brokers resolve at the default threshold (the
    # paper's absent-broker case stays unmatched).
    exact, fuzzy, missing = outcomes[0.88]
    assert exact + fuzzy >= missing


def test_broker_share_sweep():
    shares = (0.15, 0.33, 0.6)
    outcomes = {}
    for share in shares:
        scenario = dataclasses.replace(
            paper_world(scale=200), broker_facilitated_share=share
        )
        world = build_world(scenario)
        result = infer_leases(
            world.whois,
            world.routing_table,
            world.relationships,
            world.as2org,
        )
        reference = curate_reference(
            world.whois,
            world.broker_registry,
            world.routing_table,
            not_leased_exclusions=world.curation_exclusions,
            negative_isp_org_ids=world.negative_isp_org_ids,
        )
        report = evaluate_inference(result, reference)
        outcomes[share] = (
            len(reference.positives),
            report.matrix.precision,
        )
    print()
    for share, (positives, precision) in outcomes.items():
        print(
            f"broker share {share}: {positives} positives, "
            f"precision {precision:.3f}"
        )
    # More broker facilitation -> more positive labels ...
    positives = [outcomes[s][0] for s in shares]
    assert positives == sorted(positives)
    # ... while precision stays high throughout.
    assert all(precision >= 0.9 for _p, precision in outcomes.values())
