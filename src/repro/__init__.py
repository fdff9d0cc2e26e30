"""repro — a reproduction of "Sublet Your Subnet: Inferring IP Leasing in
the Wild" (Du, Fontugne, Testart, Snoeren, claffy — IMC 2024).

The package implements the paper's lease-inference methodology and every
substrate it consumes:

* :mod:`repro.net` — IPv4 primitives (prefixes, ranges, prefix map),
* :mod:`repro.whois` — per-RIR WHOIS formats and indexed databases,
* :mod:`repro.bgp` — routing tables, table dumps, topology, propagation,
* :mod:`repro.asdata` — AS relationships, AS2org, hijacker lists,
* :mod:`repro.rpki` — ROAs, archives, origin validation,
* :mod:`repro.abuse` — the Spamhaus ASN-DROP list,
* :mod:`repro.brokers` — broker registries and name matching,
* :mod:`repro.core` — the inference pipeline and all §6 analyses,
* :mod:`repro.simulation` — the synthetic Internet standing in for the
  paper's (unfetchable) bulk datasets,
* :mod:`repro.reporting` — paper-style table and figure rendering.

Quick start::

    from repro import build_world, infer_leases, small_world

    world = build_world(small_world())
    result = infer_leases(
        world.whois, world.routing_table, world.relationships, world.as2org
    )
    print(result.total_leased(), "leased prefixes")
"""

from .core import (
    Category,
    ConfusionMatrix,
    InferenceResult,
    LeaseInferencePipeline,
    build_timeline,
    curate_reference,
    drop_correlation,
    evaluate_inference,
    hijacker_overlap,
    infer_leases,
    maintainer_baseline,
    roa_abuse_analysis,
    top_facilitators,
    top_holders,
    top_originators,
)
from .net import AddressRange, Prefix, PrefixTrie
from .rir import ALL_RIRS, RIR
from .simulation import build_world, paper_world, small_world

__version__ = "1.0.0"

__all__ = [
    "ALL_RIRS",
    "AddressRange",
    "Category",
    "ConfusionMatrix",
    "InferenceResult",
    "LeaseInferencePipeline",
    "Prefix",
    "PrefixTrie",
    "RIR",
    "build_timeline",
    "build_world",
    "curate_reference",
    "drop_correlation",
    "evaluate_inference",
    "hijacker_overlap",
    "infer_leases",
    "maintainer_baseline",
    "paper_world",
    "roa_abuse_analysis",
    "small_world",
    "top_facilitators",
    "top_holders",
    "top_originators",
    "__version__",
]
