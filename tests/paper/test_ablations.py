"""Ablations of the design choices DESIGN.md calls out.

* Covering-prefix root lookup (on/off) — §5.1 step 4's fallback moves
  aggregated roots' leaves from group 3 to group 4.
* AS2org in the relatedness oracle (on/off) — absorbing same-company
  multi-AS structures reduces false positives.
* BGP visibility (full vs degraded) — §7's incomplete-data concern:
  missing announcements inflate Unused and shift group-4 to group-3.
* Hyper-specific filter threshold (/24 vs /22) — leaf population size.
"""

from repro.core import (
    Category,
    LeaseInferencePipeline,
    evaluate_inference,
)
from repro.simulation import build_world, paper_world


def run_pipeline(world, **kwargs):
    return LeaseInferencePipeline(
        world.whois,
        world.routing_table,
        world.relationships,
        world.as2org,
        **kwargs,
    ).run()


def test_ablation_covering_root_lookup(world, inference):
    """Disabling the least-specific covering search loses root origins."""
    exact_only = run_pipeline(world, use_covering_root_lookup=False)
    # Every root in the synthetic world is announced exactly, so group
    # counts stay identical — the knob exists for worlds with aggregated
    # root announcements; here it must at least not *create* leases.
    assert exact_only.total_leased() <= inference.total_leased() + 5
    print()
    print(
        f"covering lookup on: {inference.total_leased()} leased; "
        f"off: {exact_only.total_leased()}"
    )


def test_ablation_as2org_oracle(world, reference):
    """Dropping AS2org from the oracle can only add leased verdicts."""
    without = LeaseInferencePipeline(
        world.whois,
        world.routing_table,
        world.relationships,
        as2org=None,
    ).run()
    with_as2org = run_pipeline(world)
    assert without.total_leased() >= with_as2org.total_leased()
    report_without = evaluate_inference(without, reference)
    report_with = evaluate_inference(with_as2org, reference)
    print()
    print(
        f"precision with AS2org: {report_with.matrix.precision:.3f}, "
        f"without: {report_without.matrix.precision:.3f}"
    )
    assert report_without.matrix.precision <= report_with.matrix.precision


def test_ablation_bgp_visibility():
    """Degraded collector visibility inflates Unused (§7)."""
    scenario = paper_world(scale=400)
    degraded = type(scenario)(
        **{
            **scenario.__dict__,
            "bgp_visibility": 0.7,
        }
    )
    degraded_result = run_pipeline(build_world(degraded))
    full_world = build_world(paper_world(scale=400))
    full_result = run_pipeline(full_world)

    unused_degraded = sum(
        t.counts[Category.UNUSED] for t in degraded_result.tallies().values()
    )
    unused_full = sum(
        t.counts[Category.UNUSED] for t in full_result.tallies().values()
    )
    print()
    print(f"unused at 100% visibility: {unused_full}, at 70%: {unused_degraded}")
    assert unused_degraded > unused_full


def test_ablation_hyper_specific_filter(world):
    """A stricter leaf-length cap shrinks the classified population."""
    strict = run_pipeline(world, max_leaf_length=22)
    default = run_pipeline(world)
    print()
    print(
        f"classified at /24 cap: {default.total_classified()}, "
        f"at /22 cap: {strict.total_classified()}"
    )
    # All synthetic leaves are /24, so the strict cap drops everything.
    assert strict.total_classified() < default.total_classified()
