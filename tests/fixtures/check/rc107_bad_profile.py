"""RC107 must fire: the frozen RPKI profile reads the context's RIB
snapshot instead of the routing table."""

from repro.core.context import RibSnapshot
from repro.rpki.validation import validate_origin


def validation_profile(prefixes, routing_table, roas):
    rib = RibSnapshot.from_routing_table(routing_table)
    return [
        validate_origin(roas, prefix, origin)
        for prefix in prefixes
        for origin in rib.exact_origins(prefix)
    ]
