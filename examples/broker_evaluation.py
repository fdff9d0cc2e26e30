#!/usr/bin/env python3
"""Broker-based evaluation: curate the reference dataset and score (§5.3/§6.2).

Walks the paper's evaluation workflow on the synthetic world:

1. match registered brokers to WHOIS organisations (exact + fuzzy names),
2. collect the blocks their maintainers manage,
3. exclude broker-as-ISP connectivity blocks (the manual filter),
4. add residential-ISP blocks as negative labels,
5. score the inference and break down the error modes,
6. compare against the Prehn et al. maintainer-difference baseline.

Run with::

    python examples/broker_evaluation.py [--scale 100]
"""

import argparse

from repro.core import (
    ConfusionMatrix,
    LeaseInferencePipeline,
    curate_reference,
    evaluate_inference,
    maintainer_baseline,
)
from repro.reporting import render_table2
from repro.simulation import TruthKind, build_world, paper_world


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=int, default=50)
    parser.add_argument("--seed", type=int, default=20240401)
    args = parser.parse_args()

    world = build_world(paper_world(seed=args.seed, scale=args.scale))
    result = LeaseInferencePipeline(
        world.whois, world.routing_table, world.relationships, world.as2org
    ).run()

    reference = curate_reference(
        world.whois,
        world.broker_registry,
        world.routing_table,
        not_leased_exclusions=world.curation_exclusions,
        negative_isp_org_ids=world.negative_isp_org_ids,
    )

    print("Broker matching per registry:")
    for rir, report in reference.match_reports.items():
        print(
            f"  {rir.name:<8} exact={report.exact_count} "
            f"fuzzy={report.fuzzy_count} unmatched={len(report.unmatched)}"
        )
    print(
        f"Curated labels: {len(reference.positives)} leased, "
        f"{len(reference.negatives)} non-leased "
        f"({len(reference.excluded_not_leased)} broker blocks excluded "
        "as connectivity customers)"
    )
    print()

    report = evaluate_inference(result, reference)
    print(render_table2(report.matrix))
    print()
    print("Error anatomy (mirrors §6.2):")
    print(
        f"  {report.fn_unused} FNs are inactive leases classified Unused"
    )
    print(
        f"  {report.fn_invisible} FNs are legacy blocks outside the tree"
    )
    print(
        f"  {report.matrix.fp} FPs, clustered on: "
        f"{sorted(report.fp_by_holder)}"
    )
    print()

    # Baseline comparison over ground truth (§6.1).
    baseline = maintainer_baseline(world.whois)
    ours = result.leased_prefixes()
    our_matrix, base_matrix = ConfusionMatrix(), ConfusionMatrix()
    for entry in world.ground_truth:
        if entry.kind is TruthKind.LEASED_LEGACY:
            continue
        actual = entry.kind.is_leased
        our_matrix.add_prediction(actual, entry.prefix in ours)
        base_matrix.add_prediction(actual, baseline.get(entry.prefix, False))
    print("Against full ground truth (all generated leaves):")
    print(
        f"  this paper : precision={our_matrix.precision:.3f} "
        f"recall={our_matrix.recall:.3f}"
    )
    print(
        f"  Prehn 2020 : precision={base_matrix.precision:.3f} "
        f"recall={base_matrix.recall:.3f}"
    )


if __name__ == "__main__":
    main()
