"""The paper's contribution: IP lease inference and its analyses.

Public surface:

* :class:`LeaseInferencePipeline` / :func:`infer_leases` — §5 end to end.
* :class:`AnalysisContext` — the substrate snapshot the fast lease
  engine and the incremental engine draw from.
* :class:`AllocationTree` — §5.1 address allocation trees.
* :class:`Category` / :func:`classify_leaf` — §5.2 leaf classification.
* :func:`curate_reference` / :func:`evaluate_inference` — §5.3/§6.2.
* :func:`maintainer_baseline` — the Prehn et al. comparison of §6.1.
* :func:`top_holders` et al. / :func:`hijacker_overlap` — §6.3.
* :func:`drop_correlation` / :func:`roa_abuse_analysis` — §6.4.
* :func:`build_timeline` — Fig. 3 / §6.5.
"""

from typing import TYPE_CHECKING

from ..net.lazy import lazy_exports

if TYPE_CHECKING:
    from .abuse import (
        DropCorrelation,
        RoaAbuseStats,
        drop_correlation,
        roa_abuse_analysis,
    )
    from .allocation_tree import (
        DEFAULT_MAX_LEAF_LENGTH,
        AllocationScan,
        AllocationTree,
        TreeLeaf,
    )
    from .baseline import maintainer_baseline
    from .classify import (
        CacheStats,
        Category,
        LeafClassifier,
        classify_leaf,
    )
    from .ecosystem import (
        HijackerOverlap,
        hijacker_overlap,
        resolve_maintainer_names,
        top_facilitators,
        top_holders,
        top_originators,
    )
    from .evaluation import EvaluationReport, evaluate_inference
    from .geo import GeoConsistency, geo_consistency
    from .holders import HolderProfile, holder_profiles
    from .hijack_confusion import (
        AlarmAttribution,
        AlarmReport,
        OriginChange,
        attribute_alarms,
        origin_changes,
    )
    from .context import AnalysisContext, RibSnapshot
    from .incremental import (
        BurstReport,
        IncrementalEngine,
        MutableRibOverlay,
        clone_routing_table,
        replay_into_table,
        result_digest,
    )
    from .legacy import LegacyInference, LegacyVerdict, infer_legacy_leases
    from .longitudinal import LeaseChurn, RegionChurn, compare_epochs
    from .metrics import ConfusionMatrix
    from .rpki_analysis import ValidationProfile, validation_profile
    from .stats import BootstrapCI, risk_ratio_ci, share_ci
    from .pipeline import LeaseInferencePipeline, infer_leases
    from .reference import ReferenceDataset, curate_reference
    from .relatedness import RelatednessOracle
    from .results import InferenceResult, LeafInference, RegionalTally
    from .timeline import (
        BgpOriginHistory,
        PeriodKind,
        PrefixTimeline,
        TimelinePeriod,
        build_timeline,
    )

__getattr__ = lazy_exports(
    __name__,
    {
        ".abuse": (
            "DropCorrelation", "RoaAbuseStats", "drop_correlation",
            "roa_abuse_analysis",
        ),
        ".allocation_tree": (
            "DEFAULT_MAX_LEAF_LENGTH", "AllocationScan", "AllocationTree", "TreeLeaf",
        ),
        ".baseline": ("maintainer_baseline",),
        ".classify": (
            "CacheStats", "Category", "LeafClassifier", "classify_leaf",
        ),
        ".ecosystem": (
            "HijackerOverlap", "hijacker_overlap", "resolve_maintainer_names",
            "top_facilitators", "top_holders", "top_originators",
        ),
        ".evaluation": ("EvaluationReport", "evaluate_inference"),
        ".geo": ("GeoConsistency", "geo_consistency"),
        ".holders": ("HolderProfile", "holder_profiles"),
        ".hijack_confusion": (
            "AlarmAttribution", "AlarmReport", "OriginChange", "attribute_alarms",
            "origin_changes",
        ),
        ".context": ("AnalysisContext", "RibSnapshot"),
        ".incremental": (
            "BurstReport", "IncrementalEngine", "MutableRibOverlay",
            "clone_routing_table", "replay_into_table", "result_digest",
        ),
        ".legacy": ("LegacyInference", "LegacyVerdict", "infer_legacy_leases"),
        ".longitudinal": ("LeaseChurn", "RegionChurn", "compare_epochs"),
        ".metrics": ("ConfusionMatrix",),
        ".rpki_analysis": ("ValidationProfile", "validation_profile"),
        ".stats": ("BootstrapCI", "risk_ratio_ci", "share_ci"),
        ".pipeline": ("LeaseInferencePipeline", "infer_leases"),
        ".reference": ("ReferenceDataset", "curate_reference"),
        ".relatedness": ("RelatednessOracle",),
        ".results": ("InferenceResult", "LeafInference", "RegionalTally"),
        ".timeline": (
            "BgpOriginHistory", "PeriodKind", "PrefixTimeline", "TimelinePeriod",
            "build_timeline",
        ),
    },
)

__all__ = [
    "AlarmAttribution",
    "AlarmReport",
    "AllocationScan",
    "AllocationTree",
    "AnalysisContext",
    "BgpOriginHistory",
    "BurstReport",
    "IncrementalEngine",
    "MutableRibOverlay",
    "clone_routing_table",
    "replay_into_table",
    "result_digest",
    "CacheStats",
    "LeafClassifier",
    "RibSnapshot",
    "BootstrapCI",
    "GeoConsistency",
    "HolderProfile",
    "OriginChange",
    "Category",
    "ConfusionMatrix",
    "DEFAULT_MAX_LEAF_LENGTH",
    "DropCorrelation",
    "EvaluationReport",
    "HijackerOverlap",
    "InferenceResult",
    "LeafInference",
    "LeaseChurn",
    "LeaseInferencePipeline",
    "LegacyInference",
    "LegacyVerdict",
    "RegionChurn",
    "ValidationProfile",
    "PeriodKind",
    "PrefixTimeline",
    "ReferenceDataset",
    "RegionalTally",
    "RelatednessOracle",
    "RoaAbuseStats",
    "TimelinePeriod",
    "TreeLeaf",
    "attribute_alarms",
    "build_timeline",
    "classify_leaf",
    "compare_epochs",
    "origin_changes",
    "resolve_maintainer_names",
    "curate_reference",
    "geo_consistency",
    "holder_profiles",
    "infer_legacy_leases",
    "risk_ratio_ci",
    "share_ci",
    "validation_profile",
    "drop_correlation",
    "evaluate_inference",
    "hijacker_overlap",
    "infer_leases",
    "maintainer_baseline",
    "roa_abuse_analysis",
    "top_facilitators",
    "top_holders",
    "top_originators",
]
