"""§6.1 — comparison with the Prehn et al. maintainer baseline.

Paper: the maintainer-difference heuristic (leased iff leaf maintainer
differs from the parent's) produces false positives on customer blocks
registered under the customer's own maintainer and false negatives when
holders lease under their own maintainer — but it does catch inactive
leases, which the BGP-grounded method files under Unused.
"""

from repro.core import ConfusionMatrix, maintainer_baseline
from repro.simulation import TruthKind


def test_sec61_baseline_comparison(world, inference):
    baseline = maintainer_baseline(world.whois)

    ours = inference.leased_prefixes()
    truth = world.ground_truth

    # Score both methods against ground truth over all labelled leaves.
    our_matrix = ConfusionMatrix()
    base_matrix = ConfusionMatrix()
    for entry in truth:
        if entry.kind is TruthKind.LEASED_LEGACY:
            continue  # outside both methods' tree
        actual = entry.kind.is_leased
        our_matrix.add_prediction(actual, entry.prefix in ours)
        base_matrix.add_prediction(
            actual, baseline.get(entry.prefix, False)
        )

    print()
    print(
        f"ours:     precision={our_matrix.precision:.3f} "
        f"recall={our_matrix.recall:.3f}"
    )
    print(
        f"baseline: precision={base_matrix.precision:.3f} "
        f"recall={base_matrix.recall:.3f}"
    )

    # Shape: our method is far more precise.
    assert our_matrix.precision > base_matrix.precision + 0.1

    # Shape: the baseline catches inactive leases we miss.
    inactive = [
        entry.prefix for entry in truth.of_kind(TruthKind.LEASED_INACTIVE)
    ]
    baseline_catches = sum(1 for prefix in inactive if baseline.get(prefix))
    ours_catches = sum(1 for prefix in inactive if prefix in ours)
    assert ours_catches == 0
    assert baseline_catches > len(inactive) * 0.5

    # Shape: customer-own-maintainer blocks are baseline FPs, not ours.
    customer_kinds = (
        TruthKind.AGGREGATED_CUSTOMER,
        TruthKind.ISP_CUSTOMER,
        TruthKind.DELEGATED_CUSTOMER,
    )
    baseline_fps = 0
    our_fps = 0
    for kind in customer_kinds:
        for entry in truth.of_kind(kind):
            if baseline.get(entry.prefix):
                baseline_fps += 1
            if entry.prefix in ours:
                our_fps += 1
    assert baseline_fps > 100  # the 15% own-maintainer customers
    assert our_fps == 0
