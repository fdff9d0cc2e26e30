"""RC107 must stay silent: the frozen RPKI profile reads the routing
table itself."""

from repro.rpki.validation import validate_origin


def validation_profile(prefixes, routing_table, roas):
    return [
        validate_origin(roas, prefix, origin)
        for prefix in prefixes
        for origin in routing_table.exact_origins(prefix)
    ]
