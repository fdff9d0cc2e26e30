"""Table 2 — confusion matrix against the curated reference (§6.2).

Paper: 14,856 validated prefixes; precision 0.98, recall 0.82,
specificity 0.98, accuracy 0.88.  False negatives are dominated by
inactive leases classified Unused (1,605) plus legacy blocks outside the
tree (138); false positives cluster on subsidiary ISP structures
(Vodafone, 110 of 121).
"""

from repro.core import curate_reference, evaluate_inference
from repro.reporting import render_table2


def run_evaluation(world, inference):
    reference = curate_reference(
        world.whois,
        world.broker_registry,
        world.routing_table,
        not_leased_exclusions=world.curation_exclusions,
        negative_isp_org_ids=world.negative_isp_org_ids,
    )
    return evaluate_inference(inference, reference), reference


def test_table2_evaluation(world, inference):
    report, reference = run_evaluation(world, inference)
    matrix = report.matrix

    print()
    print(render_table2(matrix))
    print(
        f"FN breakdown: {report.fn_unused} inactive (Unused), "
        f"{report.fn_invisible} legacy/invisible"
    )

    # Shape: high precision, recall dragged down by inactive leases.
    assert matrix.precision >= 0.95
    assert 0.70 <= matrix.recall <= 0.90
    assert matrix.specificity >= 0.95

    # Shape: the two FN modes of §6.2 and nothing else.
    assert report.fn_unused > 0
    assert report.fn_invisible > 0
    assert report.fn_unused + report.fn_invisible == matrix.fn

    # Shape: the FPs come from the subsidiary-ISP effect.
    assert matrix.fp >= 1
    assert len(report.fp_by_holder) >= 1

    # The reference dataset has both label polarities at scale.
    assert len(reference.positives) > 100
    assert len(reference.negatives) > 50
