"""BGP substrate: paths, RIBs, table dumps, topology, and propagation."""

from typing import TYPE_CHECKING

from ..net.lazy import lazy_exports

if TYPE_CHECKING:
    from .aspath import ASPath
    from .collector import (
        Announcement,
        Collector,
        build_routing_table,
        collect_rib,
    )
    from .history import (
        AnnounceUpdate,
        UpdateStream,
        UpdateStreamError,
        WithdrawUpdate,
        format_update,
        parse_update_line,
    )
    from .mrt import MrtError, read_mrt, write_mrt
    from .rib import RibEntry, RoutingTable
    from .simulator import Route, RouteKind, propagate
    from .table_dump import read_table_dump, write_table_dump
    from .topology import P2C, P2P, ASTopology
    from .updates import (
        ReplayLog,
        SequenceError,
        SequenceGenerator,
        SequencedUpdate,
        UpdateParseError,
        format_sequenced,
        parse_sequenced_line,
        read_updates,
        write_updates,
    )

__getattr__ = lazy_exports(
    __name__,
    {
        ".aspath": ("ASPath",),
        ".collector": (
            "Announcement", "Collector", "build_routing_table", "collect_rib",
        ),
        ".history": (
            "AnnounceUpdate", "UpdateStream", "UpdateStreamError",
            "WithdrawUpdate", "format_update", "parse_update_line",
        ),
        ".mrt": ("MrtError", "read_mrt", "write_mrt"),
        ".rib": ("RibEntry", "RoutingTable"),
        ".simulator": ("Route", "RouteKind", "propagate"),
        ".table_dump": ("read_table_dump", "write_table_dump"),
        ".topology": ("P2C", "P2P", "ASTopology"),
        ".updates": (
            "ReplayLog", "SequenceError", "SequenceGenerator", "SequencedUpdate",
            "UpdateParseError", "format_sequenced", "parse_sequenced_line",
            "read_updates", "write_updates",
        ),
    },
)

__all__ = [
    "ASPath",
    "ASTopology",
    "AnnounceUpdate",
    "Announcement",
    "Collector",
    "MrtError",
    "P2C",
    "P2P",
    "ReplayLog",
    "RibEntry",
    "Route",
    "RouteKind",
    "RoutingTable",
    "SequenceError",
    "SequenceGenerator",
    "SequencedUpdate",
    "UpdateParseError",
    "UpdateStream",
    "UpdateStreamError",
    "WithdrawUpdate",
    "build_routing_table",
    "collect_rib",
    "format_sequenced",
    "format_update",
    "parse_sequenced_line",
    "parse_update_line",
    "propagate",
    "read_mrt",
    "read_table_dump",
    "read_updates",
    "write_mrt",
    "write_table_dump",
    "write_updates",
]
